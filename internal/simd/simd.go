// Package simd is the simulation server: a long-running HTTP/JSON service
// that accepts (machine spec | named machine, scenario, placement, sampling)
// jobs, streams progress events, and returns the canonical Metrics JSON a
// local simrun would produce — byte for byte. Its headline property is
// robustness under load and failure, composed from the repository's earlier
// fault-tolerance layers:
//
//   - Admission control. A bounded session scheduler (MaxConcurrent
//     simulations × MaxQueued waiting jobs) sheds excess load with 429 +
//     Retry-After instead of collapsing; a per-job instance budget rejects
//     over-sized sessions up front (413), so total memory is bounded by
//     MaxConcurrent × the per-job cap.
//   - Deadlines and cancellation. Every job carries a deadline plumbed into
//     the PR-6 context path; an expired or cancelled job returns structured,
//     clearly-marked partial metrics exactly like `simrun -timeout`.
//   - Request coalescing. Jobs are keyed by the sweep cache content hash
//     (resolved machine spec, scenario, placement, sampling, path).
//     Identical concurrent requests attach to the one in-flight run;
//     identical later requests are served from the shared on-disk cache in
//     one lookup, and repeats of a key already read from disk are served
//     from an in-memory index. One key simulates exactly once.
//   - Graceful drain. Drain stops admission, lets in-flight runs finish up
//     to a deadline, parks queued jobs, and demand-checkpoints runs that
//     cannot finish (reusing internal/checkpoint); a restarted server
//     resumes parked jobs to byte-exact results. A worker panic poisons
//     only its job, never the server.
//   - Observability. Every counter lives on an internal/telemetry registry
//     served as Prometheus text exposition at GET /metrics; the job
//     lifecycle is structured log/slog spans keyed by the sweep hash; and
//     each running flight carries a telemetry.Progress mailbox the
//     simulation updates at instance boundaries, feeding live progress into
//     job status and the /v1/jobs/{key}/events SSE stream.
//
// Fault coverage comes from the internal/faultinject server points
// (accept, enqueue, run, cache-write, drain-checkpoint) driven by the
// package's -race soak test.
package simd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atomicio"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/machspec"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// Request is the wire format of one simulation job. Its fields are exactly
// the axes of a sweep point, so the job's identity key is the sweep cache
// key: a job submitted to the server and the same point run by cmd/sweep
// share cache entries and coalesce against each other.
type Request struct {
	// Scenario names a registered scenario (required).
	Scenario string `json:"scenario"`
	// Machine names an embedded machine spec ("haswell", "small",
	// "noprefetch"). File paths are not accepted over the wire — a client
	// with a spec file sends its content inline via Spec.
	Machine string `json:"machine,omitempty"`
	// Spec is an inline machine spec document (strict machspec JSON).
	// Mutually exclusive with Machine.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Placement overrides the NUMA page placement policy.
	Placement string `json:"placement,omitempty"`
	// Sampling overrides individual sampling knobs (set fields win).
	Sampling *machspec.Sampling `json:"sampling,omitempty"`
	// Reference selects the per-op reference simulation path.
	Reference bool `json:"reference,omitempty"`
	// TimeoutMs is the job deadline in milliseconds (0: the server
	// default). An expired job returns partial-marked metrics.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// Job states. A job is terminal in StateDone, StatePartial, StateFailed or
// StateCheckpointed; StateCheckpointed means the job was parked by a drain
// and will resume when a server restarts over the same state directory.
const (
	StateQueued       = "queued"
	StateRunning      = "running"
	StateDone         = "done"
	StatePartial      = "partial"
	StateFailed       = "failed"
	StateCheckpointed = "checkpointed"
)

// Result sources reported to clients.
const (
	SourceSimulated = "simulated"
	SourceCache     = "cache"
	SourceCoalesced = "coalesced"
)

// Status is the externally visible snapshot of a job. The progress fields
// (Instances, InstancesTotal, Cycles, Instructions) are sampled from the
// flight's telemetry mailbox, which the simulation updates at instance
// boundaries — a polling SSE client sees them advance while the job runs.
type Status struct {
	Key       string `json:"key"`
	Scenario  string `json:"scenario"`
	Machine   string `json:"machine,omitempty"`
	State     string `json:"state"`
	Source    string `json:"source,omitempty"`
	Instances uint64 `json:"instances_done,omitempty"`
	// InstancesTotal is the job's expected instance count (0 until the run
	// publishes it).
	InstancesTotal uint64 `json:"instances_total,omitempty"`
	// Cycles and Instructions are the running simulated totals.
	Cycles       uint64 `json:"cycles,omitempty"`
	Instructions uint64 `json:"instructions,omitempty"`
	Error        string `json:"error,omitempty"`
	// Resumed marks a job restored from a drain checkpoint.
	Resumed bool `json:"resumed,omitempty"`
}

// Error is a structured admission or execution failure carrying the HTTP
// status the transport layer should speak and an optional back-off hint.
type Error struct {
	Code       int // HTTP status
	Msg        string
	RetryAfter time.Duration
}

func (e *Error) Error() string { return e.Msg }

// Config tunes a Server. The zero value is usable: 2 concurrent
// simulations, 8 queued, no cache, no state directory (drain cancels
// instead of checkpointing), no default deadline.
type Config struct {
	// MaxConcurrent bounds simultaneously running simulations (<=0: 2).
	MaxConcurrent int
	// MaxQueued bounds jobs waiting for a worker (<=0: 8). Beyond it the
	// server sheds load with 429 + Retry-After. Coalesced duplicates do
	// not consume queue slots.
	MaxQueued int
	// CacheDir is the shared metrics cache directory ("" keeps completed
	// results in memory only). The directory may be shared with cmd/sweep
	// and with other servers; writes are atomic and corrupt entries are
	// evicted on read.
	CacheDir string
	// StateDir persists drain checkpoints and parked job requests so a
	// restarted server can resume them ("" disables parking: drained jobs
	// that cannot finish are cancelled with partial results).
	StateDir string
	// DefaultTimeout is the per-job deadline applied when a request does
	// not carry one (0: none). MaxTimeout caps the request value (0: no
	// cap).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxJobInstances rejects jobs whose instance count (threads × iters,
	// or CG iterations) exceeds the budget (0: unlimited) — the
	// per-session resource bound that keeps one request from monopolizing
	// the fleet.
	MaxJobInstances int
	// RetryAfter is the back-off hint attached to shed responses (<=0: 1s).
	RetryAfter time.Duration
	// Logger receives structured job-lifecycle spans (nil: silent). Every
	// event carries the job's sweep-hash key, so one key's records form a
	// submit→run→outcome span across restarts.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the handler.
	// Off by default: profiling endpoints are a debugging surface, not part
	// of the public API.
	EnablePprof bool
}

// Stats is a point-in-time view of the server counters.
type Stats struct {
	Running   int    `json:"running"`
	Queued    int    `json:"queued"`
	Draining  bool   `json:"draining"`
	Accepted  uint64 `json:"accepted"`
	Coalesced uint64 `json:"coalesced"`
	CacheHits uint64 `json:"cache_hits"`
	Shed      uint64 `json:"shed"`
	Rejected  uint64 `json:"rejected"`
	Simulated uint64 `json:"simulated"`
	Partial   uint64 `json:"partial"`
	Failed    uint64 `json:"failed"`
	Panics    uint64 `json:"panics"`
	Parked    uint64 `json:"parked"`
	Resumed   uint64 `json:"resumed"`
}

// flight is one admitted job: the single execution every coalesced request
// for its key attaches to.
type flight struct {
	key     string
	req     Request
	sc      scenario.Scenario
	opts    scenario.Options // identity options; ctx/checkpoint wired at run time
	machine string           // display name
	timeout time.Duration

	checkpointable bool
	resume         *checkpoint.Snapshot // set when restored from a parked .ck
	resumed        bool
	enqueued       time.Time // admission time (queue-wait histogram)

	instances atomic.Uint64      // instance-boundary heartbeat (demand polls)
	drain     atomic.Bool        // demand-checkpoint trigger
	progress  telemetry.Progress // live run counters, written at instance boundaries

	mu      sync.Mutex
	state   string
	source  string
	metrics []byte
	err     error
	cancel  context.CancelCauseFunc // non-nil while running
	done    chan struct{}
}

func (f *flight) status() Status {
	ps := f.progress.Snapshot()
	f.mu.Lock()
	defer f.mu.Unlock()
	st := Status{
		Key:            f.key,
		Scenario:       f.sc.Name,
		Machine:        f.machine,
		State:          f.state,
		Source:         f.source,
		Instances:      ps.InstancesDone,
		InstancesTotal: ps.InstancesTotal,
		Cycles:         ps.Cycles,
		Instructions:   ps.Instructions,
		Resumed:        f.resumed,
	}
	if st.Instances == 0 {
		// Before the run publishes exact progress, fall back to the demand
		// poll heartbeat (checkpointable runs only).
		st.Instances = f.instances.Load()
	}
	if f.err != nil {
		st.Error = f.err.Error()
	}
	return st
}

// terminal reports whether the flight reached a final state.
func (f *flight) terminal() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return terminalState(f.state)
}

func terminalState(s string) bool {
	return s == StateDone || s == StatePartial || s == StateFailed || s == StateCheckpointed
}

// finish moves the flight to a terminal state exactly once.
func (f *flight) finish(state string, metrics []byte, err error) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if terminalState(f.state) {
		return false
	}
	if state == StateDone && f.source == "" {
		f.source = SourceSimulated
	}
	f.state, f.metrics, f.err, f.cancel = state, metrics, err, nil
	close(f.done)
	return true
}

// result returns the terminal outcome (call after done is closed).
func (f *flight) result() (state string, metrics []byte, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.state, f.metrics, f.err
}

// errDrainCancelled is the cancel cause of a hard drain-deadline stop.
var errDrainCancelled = errors.New("simd: server draining, drain deadline reached")

// Server is the simulation service. Create with New, serve via Handler,
// stop with Drain.
type Server struct {
	cfg   Config
	cache *sweep.Cache
	index *docIndex // in-memory front of cache
	log   *slog.Logger
	met   *serverMetrics

	mu       sync.Mutex
	flights  map[string]*flight
	order    []string // terminal-flight retention ring (oldest first)
	queue    []*flight
	running  map[*flight]struct{}
	draining bool
	wg       sync.WaitGroup
}

// maxRetainedFlights bounds the in-memory record of terminal jobs; results
// beyond it live only in the on-disk cache. Keeps a long-running server's
// memory independent of its request history.
const maxRetainedFlights = 1024

// New builds a server. The cache and state directories are created as
// needed.
func New(cfg Config) (*Server, error) {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	if cfg.MaxQueued <= 0 {
		cfg.MaxQueued = 8
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	s := &Server{
		cfg:     cfg,
		log:     cfg.Logger,
		flights: make(map[string]*flight),
		running: make(map[*flight]struct{}),
		index:   newDocIndex(),
	}
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	s.met = newServerMetrics(s)
	if cfg.CacheDir != "" {
		c, err := sweep.OpenCache(cfg.CacheDir)
		if err != nil {
			return nil, fmt.Errorf("simd: %w", err)
		}
		c.Notice = func(key string, err error) {
			s.log.Warn("cache entry evicted", "key", key, "err", err)
		}
		s.cache = c
	}
	if cfg.StateDir != "" {
		if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
			return nil, fmt.Errorf("simd: %w", err)
		}
	}
	return s, nil
}

// Stats snapshots the counters. The values are read from the same telemetry
// instruments that back /metrics, so the two views can never disagree.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	running, queued, draining := len(s.running), len(s.queue), s.draining
	s.mu.Unlock()
	m := s.met
	return Stats{
		Running:   running,
		Queued:    queued,
		Draining:  draining,
		Accepted:  m.accepted.Value(),
		Coalesced: m.coalesced.Value(),
		CacheHits: m.cacheHits.Value(),
		Shed:      m.shed429.Value() + m.shed503.Value(),
		Rejected:  m.rejected400.Value() + m.rejected413.Value(),
		Simulated: m.done.Value(),
		Partial:   m.partial.Value(),
		Failed:    m.failed.Value(),
		Panics:    m.panics.Value(),
		Parked:    m.parked.Value(),
		Resumed:   m.resumed.Value(),
	}
}

// Draining reports whether admission has been stopped.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// resolve validates a request and builds the flight template. All
// rejections are *Error with a 4xx code.
func (s *Server) resolve(req Request) (*flight, error) {
	sc, ok := scenario.Get(req.Scenario)
	if !ok {
		return nil, &Error{Code: 400, Msg: fmt.Sprintf("unknown scenario %q", req.Scenario)}
	}
	if req.Machine != "" && len(req.Spec) > 0 {
		return nil, &Error{Code: 400, Msg: "machine and spec are mutually exclusive"}
	}
	var spec *machspec.Spec
	switch {
	case len(req.Spec) > 0:
		sp, err := machspec.Decode(bytes.NewReader(req.Spec))
		if err != nil {
			return nil, &Error{Code: 400, Msg: fmt.Sprintf("inline machine spec: %v", err)}
		}
		spec = sp
	case req.Machine != "":
		// Named specs only: resolving client-supplied file paths would turn
		// the API into a file-read oracle.
		sp, err := machspec.Named(req.Machine)
		if err != nil {
			return nil, &Error{Code: 400, Msg: fmt.Sprintf("unknown machine %q (send spec files inline via \"spec\")", req.Machine)}
		}
		spec = sp
	}
	opts := scenario.Options{
		Reference: req.Reference,
		Placement: req.Placement,
		Machine:   spec,
		Sampling:  req.Sampling,
	}
	if reason := scenario.SkipReason(sc, opts); reason != "" {
		return nil, &Error{Code: 400, Msg: fmt.Sprintf("unrunnable combination: %s", reason)}
	}
	if budget := s.cfg.MaxJobInstances; budget > 0 {
		if est := estimateInstances(sc); est > budget {
			return nil, &Error{Code: 413, Msg: fmt.Sprintf(
				"job would run %d instances, over the per-session budget of %d", est, budget)}
		}
	}
	key, err := sweep.Key(spec, sc.Name, req.Placement, req.Sampling, req.Reference)
	if err != nil {
		return nil, &Error{Code: 400, Msg: err.Error()}
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	if s.cfg.MaxTimeout > 0 && (timeout <= 0 || timeout > s.cfg.MaxTimeout) {
		timeout = s.cfg.MaxTimeout
	}
	machine := ""
	if spec != nil {
		machine = spec.Name
		if machine == "" {
			machine = "custom"
		}
	}
	f := &flight{
		key:     key,
		req:     req,
		sc:      sc,
		opts:    opts,
		machine: machine,
		timeout: timeout,
		state:   StateQueued,
		done:    make(chan struct{}),
	}
	// Demand checkpointing needs somewhere to put the snapshot.
	f.checkpointable = s.cfg.StateDir != ""
	return f, nil
}

// estimateInstances is the admission-time cost model: the number of
// instance-boundary units the job will execute.
func estimateInstances(sc scenario.Scenario) int {
	if sc.HPCG != nil {
		return sc.HPCG.MaxIters
	}
	return sc.Threads * sc.Iters
}

// Submit admits a job: it returns the flight serving the key and whether
// this request coalesced onto an already-admitted execution. Shed load and
// invalid requests return *Error.
func (s *Server) Submit(req Request) (*flight, bool, error) {
	if err := faultinject.Hit(faultinject.PointServerAccept); err != nil {
		s.met.failed.Inc()
		return nil, false, &Error{Code: 500, Msg: err.Error(), RetryAfter: s.cfg.RetryAfter}
	}
	f, err := s.resolve(req)
	if err != nil {
		var se *Error
		if errors.As(err, &se) && se.Code == 413 {
			s.met.rejected413.Inc()
		} else {
			s.met.rejected400.Inc()
		}
		s.log.Warn("job rejected", "scenario", req.Scenario, "err", err)
		return nil, false, err
	}
	// Shared-cache lookup before admission: identical later requests cost
	// one cache read (or an index hit), no queue slot.
	if b, inMemory, ok := s.cacheGet(f.key); ok {
		s.met.cacheHits.Inc()
		if inMemory {
			s.met.memoryHits.Inc()
		}
		f.state, f.source, f.metrics = StateDone, SourceCache, b
		close(f.done)
		s.remember(f)
		s.log.Info("job cache hit", "key", f.key, "scenario", f.sc.Name)
		return f, false, nil
	}
	if s.cache != nil {
		s.met.cacheMisses.Inc()
	}
	return s.admit(f, false)
}

// admit inserts a resolved flight under the admission rules. resumeRun
// bypasses the drain check (startup resume of parked jobs).
func (s *Server) admit(f *flight, resumeRun bool) (*flight, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.flights[f.key]; ok && !cur.terminal() {
		// Coalesce: attach to the in-flight execution. Duplicates are free —
		// no queue slot, no simulation.
		s.met.coalesced.Inc()
		s.log.Info("job coalesced", "key", f.key, "scenario", f.sc.Name)
		return cur, true, nil
	}
	if s.draining && !resumeRun {
		s.met.shed503.Inc()
		s.log.Warn("job shed", "key", f.key, "scenario", f.sc.Name, "code", 503)
		return nil, false, &Error{Code: 503, Msg: "server is draining", RetryAfter: s.cfg.RetryAfter}
	}
	if len(s.queue) >= s.cfg.MaxQueued {
		s.met.shed429.Inc()
		s.log.Warn("job shed", "key", f.key, "scenario", f.sc.Name, "code", 429,
			"running", len(s.running), "queued", len(s.queue))
		return nil, false, &Error{
			Code:       429,
			Msg:        fmt.Sprintf("%d jobs running and %d queued; try again later", len(s.running), len(s.queue)),
			RetryAfter: s.cfg.RetryAfter,
		}
	}
	if err := faultinject.Hit(faultinject.PointServerEnqueue); err != nil {
		s.met.failed.Inc()
		return nil, false, &Error{Code: 500, Msg: err.Error(), RetryAfter: s.cfg.RetryAfter}
	}
	s.met.accepted.Inc()
	f.enqueued = time.Now()
	s.flights[f.key] = f
	s.queue = append(s.queue, f)
	s.log.Info("job submitted", "key", f.key, "scenario", f.sc.Name, "machine", f.machine,
		"resumed", f.resumed, "queued", len(s.queue))
	s.dispatchLocked()
	return f, false, nil
}

// remember records a terminal flight for status queries, evicting the
// oldest record beyond the retention cap.
func (s *Server) remember(f *flight) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rememberLocked(f)
}

func (s *Server) rememberLocked(f *flight) {
	if _, ok := s.flights[f.key]; !ok {
		s.flights[f.key] = f
	}
	s.order = append(s.order, f.key)
	for len(s.order) > maxRetainedFlights {
		oldest := s.order[0]
		s.order = s.order[1:]
		if old, ok := s.flights[oldest]; ok && old.terminal() {
			delete(s.flights, oldest)
		}
	}
}

// Lookup returns the flight serving key, if the server still remembers it.
func (s *Server) Lookup(key string) (*flight, bool) {
	s.mu.Lock()
	f, ok := s.flights[key]
	s.mu.Unlock()
	if ok {
		return f, true
	}
	// Fall back to the shared cache: a result computed before a restart
	// (or by another server) is still addressable.
	if b, _, hit := s.cacheGet(key); hit {
		f := &flight{key: key, state: StateDone, source: SourceCache, metrics: b, done: make(chan struct{})}
		close(f.done)
		return f, true
	}
	return nil, false
}

// cacheGet is the server's one read path for stored results: the in-memory
// index first, then a validated disk read, whose hit admits the document to
// the index. inMemory reports an answer from the index.
func (s *Server) cacheGet(key string) (b []byte, inMemory, ok bool) {
	if s.cache == nil {
		return nil, false, false
	}
	if b, ok := s.index.get(key); ok {
		return b, true, true
	}
	b, ok, err := s.cache.Get(key)
	if err != nil {
		s.log.Warn("cache read failed", "key", key, "err", err)
		return nil, false, false
	}
	if ok {
		s.index.add(key, b)
	}
	return b, false, ok
}

// dispatchLocked starts queued flights while worker slots are free. Caller
// holds s.mu. While draining no new flight starts — the drain parks them.
func (s *Server) dispatchLocked() {
	for !s.draining && len(s.queue) > 0 && len(s.running) < s.cfg.MaxConcurrent {
		f := s.queue[0]
		s.queue = s.queue[1:]
		s.running[f] = struct{}{}
		s.wg.Add(1)
		go s.runFlight(f)
	}
}

// runFlight executes one admitted job. Any panic below the scenario stack
// is contained here: it fails this flight and releases its slot, leaving
// the server — and every other session — untouched.
func (s *Server) runFlight(f *flight) {
	defer s.wg.Done()
	defer func() {
		if rec := recover(); rec != nil {
			s.met.panics.Inc()
			s.met.failed.Inc()
			s.log.Error("job panicked", "key", f.key, "scenario", f.sc.Name, "panic", fmt.Sprint(rec))
			f.finish(StateFailed, nil, fmt.Errorf("simd: job panicked: %v", rec))
		}
		s.mu.Lock()
		delete(s.running, f)
		if f.terminal() {
			s.rememberLocked(f)
		}
		s.dispatchLocked()
		s.mu.Unlock()
	}()

	if !f.enqueued.IsZero() {
		s.met.queueWait.Observe(time.Since(f.enqueued).Seconds())
	}
	if err := faultinject.Hit(faultinject.PointServerRun); err != nil {
		s.met.failed.Inc()
		f.finish(StateFailed, nil, err)
		return
	}

	base := context.Background()
	var timeoutCancel context.CancelFunc
	if f.timeout > 0 {
		base, timeoutCancel = context.WithTimeout(base, f.timeout)
		defer timeoutCancel()
	}
	ctx, cancel := context.WithCancelCause(base)
	defer cancel(nil)
	f.mu.Lock()
	f.state, f.cancel = StateRunning, cancel
	f.mu.Unlock()
	s.log.Info("job running", "key", f.key, "scenario", f.sc.Name, "resumed", f.resumed)

	opts := f.opts
	opts.Context = ctx
	opts.Progress = &f.progress
	if f.checkpointable {
		opts.CheckpointDemand = func() bool {
			f.instances.Add(1)
			return f.drain.Load()
		}
		opts.CheckpointSink = func(snap *checkpoint.Snapshot) error {
			if err := faultinject.Hit(faultinject.PointServerDrain); err != nil {
				return err
			}
			ckStart := time.Now()
			cw := &countingWriter{}
			err := atomicio.WriteFile(s.snapPath(f.key), func(w io.Writer) error {
				cw.w = w
				return checkpoint.Write(cw, snap)
			})
			if err == nil {
				s.met.ckBytes.Add(uint64(cw.n))
				s.met.ckWrite.Observe(time.Since(ckStart).Seconds())
			}
			return err
		}
		opts.Resume = f.resume
	}

	runStart := time.Now()
	m, err := scenario.Run(f.sc, opts)
	elapsed := time.Since(runStart)
	s.met.runTime.Observe(elapsed.Seconds())
	switch {
	case err == nil:
		b, jerr := m.JSON()
		if jerr != nil {
			s.met.failed.Inc()
			f.finish(StateFailed, nil, jerr)
			return
		}
		s.cachePut(f.key, b)
		s.met.done.Inc()
		// Consume the parked state and log the terminal span before the
		// terminal transition, so a waiter woken by "done" never sees a
		// stale .job/.ck or a log without the span.
		s.clearParked(f.key)
		s.log.Info("job done", "key", f.key, "scenario", f.sc.Name,
			"elapsed", elapsed, "instances", f.progress.Snapshot().InstancesDone)
		f.finish(StateDone, b, nil)

	case errors.Is(err, core.ErrCheckpointDemanded):
		// Drain checkpoint taken at an instance boundary; park the request
		// so a restarted server resumes it.
		if perr := s.park(f); perr != nil {
			s.met.failed.Inc()
			f.finish(StateFailed, nil, fmt.Errorf("simd: parking drained job: %w", perr))
			return
		}
		s.met.parked.Inc()
		s.met.checkpointed.Inc()
		s.log.Info("job checkpointed", "key", f.key, "scenario", f.sc.Name,
			"instances", f.progress.Snapshot().InstancesDone)
		f.finish(StateCheckpointed, nil, err)

	case errors.Is(err, context.Canceled) && errors.Is(context.Cause(ctx), errDrainCancelled):
		// Hard drain stop of a run that did not checkpoint before the
		// deadline: park the request for a from-scratch re-run after
		// restart (when a state dir exists).
		if s.cfg.StateDir != "" {
			if perr := s.park(f); perr == nil {
				s.met.parked.Inc()
				s.met.checkpointed.Inc()
				s.log.Info("job parked", "key", f.key, "scenario", f.sc.Name, "reason", "drain deadline")
				f.finish(StateCheckpointed, nil, err)
				return
			}
		}
		s.met.partial.Inc()
		s.log.Warn("job partial", "key", f.key, "scenario", f.sc.Name, "err", err)
		f.finish(StatePartial, partialBytes(m), err)

	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// The job's own deadline (or a client cancel): partial metrics,
		// clearly marked, exactly like simrun -timeout.
		s.met.partial.Inc()
		s.log.Warn("job partial", "key", f.key, "scenario", f.sc.Name, "err", err)
		f.finish(StatePartial, partialBytes(m), err)

	default:
		s.met.failed.Inc()
		s.log.Error("job failed", "key", f.key, "scenario", f.sc.Name, "err", err)
		f.finish(StateFailed, nil, err)
	}
}

// partialBytes serializes partial-marked metrics (nil when the run died
// before producing any).
func partialBytes(m *scenario.Metrics) []byte {
	if m == nil {
		return nil
	}
	b, err := m.JSON()
	if err != nil {
		return nil
	}
	return b
}

func (s *Server) cachePut(key string, b []byte) {
	if s.cache == nil {
		return
	}
	if err := faultinject.Hit(faultinject.PointServerCacheWrite); err != nil {
		// The result is good; only the next lookup loses its hit.
		s.log.Warn("cache write failed", "key", key, "err", err)
		return
	}
	if err := s.cache.Put(key, b); err != nil {
		s.log.Warn("cache write failed", "key", key, "err", err)
	}
}

// State-directory layout: one <key>.job request document per parked job,
// plus <key>.ck when a drain checkpoint was taken. Both written atomically.
func (s *Server) jobPath(key string) string  { return filepath.Join(s.cfg.StateDir, key+".job") }
func (s *Server) snapPath(key string) string { return filepath.Join(s.cfg.StateDir, key+".ck") }

// park persists a job's request so a restarted server re-admits it. The
// snapshot (if any) was already written by the checkpoint sink.
func (s *Server) park(f *flight) error {
	if s.cfg.StateDir == "" {
		return fmt.Errorf("no state directory")
	}
	b, err := json.Marshal(f.req)
	if err != nil {
		return err
	}
	return atomicio.WriteFile(s.jobPath(f.key), func(w io.Writer) error {
		_, werr := w.Write(b)
		return werr
	})
}

// clearParked removes a completed job's parked state, if any.
func (s *Server) clearParked(key string) {
	if s.cfg.StateDir == "" {
		return
	}
	os.Remove(s.jobPath(key))
	os.Remove(s.snapPath(key))
}

// Resume re-admits every job parked in the state directory: jobs with a
// drain checkpoint continue from their instance boundary (byte-exact with
// an uninterrupted run), jobs without one re-run from scratch, and jobs
// whose key already has a cache entry are completed by one lookup. Call it
// once, after New and before serving traffic. It returns the number of
// jobs re-admitted.
func (s *Server) Resume() (int, error) {
	if s.cfg.StateDir == "" {
		return 0, nil
	}
	entries, err := os.ReadDir(s.cfg.StateDir)
	if err != nil {
		return 0, fmt.Errorf("simd: %w", err)
	}
	resumed := 0
	for _, e := range entries {
		name := e.Name()
		if filepath.Ext(name) != ".job" {
			continue
		}
		key := name[:len(name)-len(".job")]
		b, err := os.ReadFile(s.jobPath(key))
		if err != nil {
			s.log.Warn("resume failed", "key", key, "err", err)
			continue
		}
		var req Request
		if err := json.Unmarshal(b, &req); err != nil {
			// A torn .job (written without atomicio by an older build, or
			// tampered with) cannot be resumed; drop it with a notice
			// rather than refusing to start.
			s.log.Warn("resume dropped corrupt job file", "key", key, "err", err)
			s.clearParked(key)
			continue
		}
		if b, _, ok := s.cacheGet(key); ok {
			// Someone (another server, a sweep) finished this key already.
			f := &flight{key: key, state: StateDone, source: SourceCache, metrics: b, done: make(chan struct{})}
			s.clearParked(key)
			close(f.done)
			s.remember(f)
			continue
		}
		f, rerr := s.resolve(req)
		if rerr != nil {
			s.log.Warn("resume failed", "key", key, "err", rerr)
			s.clearParked(key)
			continue
		}
		if snap, ok := s.readSnapshot(key); ok && f.checkpointable {
			f.resume = snap
			f.resumed = true
		}
		if _, _, err := s.admit(f, true); err != nil {
			s.log.Warn("resume failed", "key", key, "err", err)
			continue
		}
		s.met.resumed.Inc()
		s.log.Info("job resumed", "key", key, "scenario", req.Scenario, "checkpoint", f.resumed)
		resumed++
	}
	return resumed, nil
}

// readSnapshot loads a drain checkpoint; a corrupt snapshot is dropped (the
// job re-runs from scratch — slower, never wrong).
func (s *Server) readSnapshot(key string) (*checkpoint.Snapshot, bool) {
	fh, err := os.Open(s.snapPath(key))
	if err != nil {
		return nil, false
	}
	defer fh.Close()
	snap, err := checkpoint.Read(fh)
	if err != nil {
		s.log.Warn("resume dropped corrupt checkpoint, re-running from scratch", "key", key, "err", err)
		os.Remove(s.snapPath(key))
		return nil, false
	}
	return snap, true
}

// Drain gracefully stops the server: admission stops immediately (new jobs
// get 503 + Retry-After), queued jobs are parked, and in-flight jobs run up
// to ctx's deadline — checkpointable runs stop at their next instance
// boundary with a snapshot, the rest either finish or are hard-cancelled at
// the deadline with partial results. Idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	alreadyDraining := s.draining
	s.draining = true
	queued := s.queue
	s.queue = nil
	running := make([]*flight, 0, len(s.running))
	for f := range s.running {
		running = append(running, f)
	}
	s.mu.Unlock()
	if !alreadyDraining {
		s.log.Info("drain started", "running", len(running), "queued", len(queued))
	}

	for _, f := range queued {
		// Queued jobs never started; park the request (or cancel when there
		// is nowhere to park it).
		if s.cfg.StateDir != "" {
			if err := s.park(f); err == nil {
				s.met.parked.Inc()
				s.met.checkpointed.Inc()
				s.log.Info("job parked", "key", f.key, "scenario", f.sc.Name, "reason", "queued at drain")
				f.finish(StateCheckpointed, nil, errors.New("simd: parked by drain before starting"))
				s.remember(f)
				continue
			}
		}
		s.met.partial.Inc()
		s.log.Warn("job cancelled by drain", "key", f.key, "scenario", f.sc.Name)
		f.finish(StatePartial, nil, errDrainCancelled)
		s.remember(f)
	}
	for _, f := range running {
		// Checkpointable runs observe this at their next instance boundary.
		f.drain.Store(true)
	}

	done := make(chan struct{})
	//repro:spawn-ok waits on the worker WaitGroup and closes a channel; no simulation code runs here
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	// Drain deadline: hard-cancel whatever is still running; those jobs
	// surface partial results (and are parked for re-run when possible).
	for _, f := range running {
		f.mu.Lock()
		cancel := f.cancel
		f.mu.Unlock()
		if cancel != nil {
			cancel(errDrainCancelled)
		}
	}
	<-done
	return nil
}
