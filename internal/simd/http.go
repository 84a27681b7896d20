package simd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro/internal/telemetry"
)

// maxRequestBody bounds a job document (an inline machine spec is at most a
// few KB; anything larger is not a simulation request).
const maxRequestBody = 1 << 20

// Handler returns the server's HTTP API:
//
//	POST /v1/jobs             submit a job; ?wait=1 blocks for the result
//	GET  /v1/jobs/{key}       job status envelope
//	GET  /v1/jobs/{key}/result canonical metrics bytes, exactly as stored
//	GET  /v1/jobs/{key}/events server-sent status events until terminal
//	GET  /v1/stats            server counters
//	GET  /metrics             Prometheus text exposition (v0.0.4)
//	GET  /healthz             200 serving / 503 draining
//
// With Config.EnablePprof the standard profiling endpoints are mounted
// under /debug/pprof/.
//
// Result bodies are the stored bytes verbatim — the transport never
// re-encodes metrics JSON, so a server result is byte-identical to the
// simrun artifact for the same job.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{key}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{key}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{key}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// writeError speaks a *Error (or wraps any error as a 500), attaching
// Retry-After when the failure is retryable.
func writeError(w http.ResponseWriter, err error) {
	se, ok := err.(*Error)
	if !ok {
		se = &Error{Code: http.StatusInternalServerError, Msg: err.Error()}
	}
	if se.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(se.RetryAfter)))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(se.Code)
	json.NewEncoder(w).Encode(map[string]string{"error": se.Msg})
}

// retryAfterSeconds rounds a hint up to whole seconds (the header's unit),
// never below 1.
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, &Error{Code: http.StatusBadRequest, Msg: fmt.Sprintf("decoding request: %v", err)})
		return
	}
	f, coalesced, err := s.Submit(req)
	if err != nil {
		writeError(w, err)
		return
	}
	if r.URL.Query().Get("wait") == "" {
		// Fire-and-poll: answer immediately with the job envelope. A
		// cache-hit flight is already terminal, so the client can fetch the
		// result at once.
		st := f.status()
		w.Header().Set("Location", "/v1/jobs/"+f.key)
		code := http.StatusAccepted
		if terminalState(st.State) {
			code = http.StatusOK
		}
		writeJSON(w, code, st)
		return
	}
	// Blocking submit: wait for the flight (bounded by the client hanging
	// up) and serve the outcome in one round trip.
	select {
	case <-f.done:
	case <-r.Context().Done():
		// Client hung up mid-wait; the job keeps running (another request
		// may be coalesced on it). Nothing useful to write.
		return
	}
	s.writeOutcome(w, f, coalesced)
}

// writeOutcome serves a terminal flight: raw metrics bytes on success and
// on deadline partials, a structured error otherwise. Bodies written whole
// carry their Content-Length, so the client reads them in one allocation.
func (s *Server) writeOutcome(w http.ResponseWriter, f *flight, coalesced bool) {
	state, metrics, err := f.result()
	h := w.Header()
	h.Set("X-Simd-Key", f.key)
	h.Set("X-Simd-Status", state)
	source := f.status().Source
	if coalesced {
		source = SourceCoalesced
	}
	if source != "" {
		h.Set("X-Simd-Source", source)
	}
	switch state {
	case StateDone:
		h.Set("Content-Type", "application/json")
		writeWhole(w, http.StatusOK, metrics)
	case StatePartial:
		// The job deadline fired: the partial-marked metrics are the body,
		// the 504 says they cover only a prefix of the schedule.
		body := metrics
		if len(body) == 0 {
			body = fmt.Appendf(nil, "{\n  \"error\": %q\n}\n", errString(err))
		}
		h.Set("Content-Type", "application/json")
		h.Set("X-Simd-Partial", "1")
		writeWhole(w, http.StatusGatewayTimeout, body)
	case StateCheckpointed:
		// Parked by a drain; the job resumes when a server restarts over
		// the state directory — retry there.
		writeError(w, &Error{
			Code:       http.StatusServiceUnavailable,
			Msg:        "job checkpointed by server drain; retry after restart",
			RetryAfter: s.cfg.RetryAfter,
		})
	default:
		writeError(w, &Error{Code: http.StatusInternalServerError, Msg: errString(err)})
	}
}

// writeWhole writes a body known in full, with its Content-Length.
func writeWhole(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body)
}

func errString(err error) string {
	if err == nil {
		return "unknown failure"
	}
	return err.Error()
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	f, ok := s.Lookup(r.PathValue("key"))
	if !ok {
		writeError(w, &Error{Code: http.StatusNotFound, Msg: "unknown job key"})
		return
	}
	writeJSON(w, http.StatusOK, f.status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	f, ok := s.Lookup(r.PathValue("key"))
	if !ok {
		writeError(w, &Error{Code: http.StatusNotFound, Msg: "unknown job key"})
		return
	}
	if !f.terminal() {
		writeError(w, &Error{Code: http.StatusConflict, Msg: "job still running", RetryAfter: s.cfg.RetryAfter})
		return
	}
	s.writeOutcome(w, f, false)
}

// handleEvents streams the job's status as server-sent events until it
// reaches a terminal state: one event per observed change plus a final
// terminal event. Progress comes from the flight's telemetry mailbox, which
// the simulation refreshes at every instance boundary — instances done and
// total, simulated cycles and instructions advance live.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	f, ok := s.Lookup(r.PathValue("key"))
	if !ok {
		writeError(w, &Error{Code: http.StatusNotFound, Msg: "unknown job key"})
		return
	}
	fl, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	send := func(st Status) {
		b, _ := json.Marshal(st)
		fmt.Fprintf(w, "event: status\ndata: %s\n\n", b)
		if canFlush {
			fl.Flush()
		}
	}
	last := f.status()
	send(last)
	if terminalState(last.State) {
		return
	}
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-f.done:
			send(f.status())
			return
		case <-r.Context().Done():
			return
		case <-tick.C:
			st := f.status()
			if st != last {
				last = st
				send(st)
			}
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleMetrics serves the Prometheus text exposition. The scrape snapshots
// instrument values while writing — running jobs are never blocked on it.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", telemetry.ContentType)
	w.WriteHeader(http.StatusOK)
	s.WriteMetrics(w)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeError(w, &Error{Code: http.StatusServiceUnavailable, Msg: "draining", RetryAfter: s.cfg.RetryAfter})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
