package simd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// scrapeMetrics fetches /metrics and runs it through the strict exposition
// parser — every scrape in these tests is also a format-compliance check.
func scrapeMetrics(t *testing.T, baseURL string) []telemetry.Family {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Fatalf("/metrics Content-Type = %q, want %q", ct, telemetry.ContentType)
	}
	fams, err := telemetry.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("/metrics exposition invalid: %v", err)
	}
	return fams
}

// metricValue finds one sample (family, sample name, exact label block) or
// fails the test.
func metricValue(t *testing.T, fams []telemetry.Family, family, sample, labels string) float64 {
	t.Helper()
	for _, f := range fams {
		if f.Name != family {
			continue
		}
		if s, ok := f.Sample(sample, labels); ok {
			return s.Value
		}
		t.Fatalf("family %s has no sample %s{%s}", family, sample, labels)
	}
	t.Fatalf("no family %s in exposition", family)
	return 0
}

// TestMetricsEndpointCountsJobLifecycle pins the /metrics surface: the
// exposition is format-valid, and the counters advance exactly as jobs move
// through accept → run → done and the cache answers a repeat.
func TestMetricsEndpointCountsJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheDir: t.TempDir()})
	c := &Client{BaseURL: ts.URL}

	if _, err := c.Run(context.Background(), Request{Scenario: "simd_test_fast"}); err != nil {
		t.Fatal(err)
	}
	fams := scrapeMetrics(t, ts.URL)
	checks := []struct {
		family, sample, labels string
		want                   float64
	}{
		{"simd_jobs_accepted_total", "simd_jobs_accepted_total", "", 1},
		{"simd_jobs_total", "simd_jobs_total", `outcome="done"`, 1},
		{"simd_cache_misses_total", "simd_cache_misses_total", "", 1},
		{"simd_cache_hits_total", "simd_cache_hits_total", "", 0},
		{"simd_cache_memory_hits_total", "simd_cache_memory_hits_total", "", 0},
		{"simd_cache_memory_bytes", "simd_cache_memory_bytes", "", 0},
		{"simd_run_seconds", "simd_run_seconds_count", "", 1},
		{"simd_queue_wait_seconds", "simd_queue_wait_seconds_count", "", 1},
		{"simd_jobs_running", "simd_jobs_running", "", 0},
		{"simd_draining", "simd_draining", "", 0},
	}
	for _, ck := range checks {
		if got := metricValue(t, fams, ck.family, ck.sample, ck.labels); got != ck.want {
			t.Errorf("%s{%s} = %g, want %g", ck.sample, ck.labels, got, ck.want)
		}
	}

	// The identical request is a cache hit: hits advance, accepted does not
	// (a cache answer never enters the queue). The disk hit promotes the
	// document to the in-memory index, which answers the third request.
	res, err := c.Run(context.Background(), Request{Scenario: "simd_test_fast"})
	if err != nil {
		t.Fatal(err)
	}
	fams = scrapeMetrics(t, ts.URL)
	if got := metricValue(t, fams, "simd_cache_hits_total", "simd_cache_hits_total", ""); got != 1 {
		t.Errorf("cache_hits after repeat = %g, want 1", got)
	}
	if got := metricValue(t, fams, "simd_jobs_accepted_total", "simd_jobs_accepted_total", ""); got != 1 {
		t.Errorf("accepted after cache hit = %g, want still 1", got)
	}
	if got := metricValue(t, fams, "simd_cache_memory_bytes", "simd_cache_memory_bytes", ""); got != float64(len(res.Metrics)) {
		t.Errorf("memory bytes after the disk hit = %g, want %d", got, len(res.Metrics))
	}
	if _, err := c.Run(context.Background(), Request{Scenario: "simd_test_fast"}); err != nil {
		t.Fatal(err)
	}
	fams = scrapeMetrics(t, ts.URL)
	if got := metricValue(t, fams, "simd_cache_memory_hits_total", "simd_cache_memory_hits_total", ""); got != 1 {
		t.Errorf("memory hits after the third request = %g, want 1", got)
	}
	if got := metricValue(t, fams, "simd_cache_hits_total", "simd_cache_hits_total", ""); got != 2 {
		t.Errorf("cache_hits after the third request = %g, want 2", got)
	}
}

// syncBuffer lets the test read log output that handler goroutines are
// still writing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// TestJobLifecycleSpans pins the structured log contract: one submit → run →
// done span sequence per job, every record keyed by the job's content hash.
func TestJobLifecycleSpans(t *testing.T) {
	var logBuf syncBuffer
	_, ts := newTestServer(t, Config{
		Logger: slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})
	res, err := (&Client{BaseURL: ts.URL}).Run(context.Background(), Request{Scenario: "simd_test_fast"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Key == "" {
		t.Fatal("no job key in response")
	}

	var msgs []string
	sc := bufio.NewScanner(bytes.NewReader(logBuf.Bytes()))
	for sc.Scan() {
		var rec struct {
			Msg      string `json:"msg"`
			Key      string `json:"key"`
			Scenario string `json:"scenario"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", sc.Text(), err)
		}
		if rec.Key != res.Key {
			continue
		}
		if rec.Scenario != "simd_test_fast" {
			t.Errorf("span %q carries scenario %q", rec.Msg, rec.Scenario)
		}
		msgs = append(msgs, rec.Msg)
	}
	want := []string{"job submitted", "job running", "job done"}
	if strings.Join(msgs, ",") != strings.Join(want, ",") {
		t.Errorf("span sequence for %s = %v, want %v", res.Key, msgs, want)
	}
}

// TestConcurrentScrapeDuringDrain hammers every read-side endpoint —
// /v1/stats, /metrics, and the /v1/jobs/{key}/events stream — while a drain
// checkpoints a running job and parks a queued one. Run under -race this
// pins that observation never races with the state machine, and that every
// mid-drain exposition still parses.
func TestConcurrentScrapeDuringDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueued: 4, StateDir: t.TempDir()})

	resp := submitRaw(t, ts.URL, Request{Scenario: "simd_test_slow"}, false)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("running job: %s", resp.Status)
	}
	var running Status
	if err := json.NewDecoder(resp.Body).Decode(&running); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return s.Stats().Running == 1 })
	if resp := submitRaw(t, ts.URL, Request{Scenario: "simd_test_slow", Sampling: samplingSeed(7)}, false); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued job: %s", resp.Status)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	scrapeErr := make(chan error, 64)
	wg.Add(2)
	//repro:spawn-ok test goroutine joined via wg before the test returns
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				return // server closing down ends the scrape loop
			}
			_, perr := telemetry.ParseText(resp.Body)
			resp.Body.Close()
			if perr != nil {
				select {
				case scrapeErr <- perr:
				default:
				}
			}
		}
	}()
	//repro:spawn-ok test goroutine joined via wg before the test returns
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/v1/stats")
			if err != nil {
				return
			}
			var st Stats
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				select {
				case scrapeErr <- err:
				default:
				}
			}
			resp.Body.Close()
		}
	}()

	// One events subscriber rides the running job through the drain.
	ectx, ecancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer ecancel()
	ereq, _ := http.NewRequestWithContext(ectx, http.MethodGet, ts.URL+"/v1/jobs/"+running.Key+"/events", nil)
	eresp, err := http.DefaultClient.Do(ereq)
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	events := make(chan string, 1)
	wg.Add(1)
	//repro:spawn-ok test goroutine joined via wg before the test returns
	go func() {
		defer wg.Done()
		last := ""
		sc := bufio.NewScanner(eresp.Body)
		for sc.Scan() {
			if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
				var st Status
				if json.Unmarshal([]byte(data), &st) == nil {
					last = st.State
				}
			}
		}
		events <- last
	}()

	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	close(stop)
	// The events stream ends itself: the handler sends the terminal status
	// once the job settles, then returns. Only time it out as a last resort.
	select {
	case last := <-events:
		if last != StateCheckpointed {
			t.Errorf("events stream ended on state %q, want %q", last, StateCheckpointed)
		}
	case <-time.After(10 * time.Second):
		t.Error("events stream did not terminate after drain")
	}
	ecancel()
	wg.Wait()
	select {
	case err := <-scrapeErr:
		t.Errorf("mid-drain scrape failed: %v", err)
	default:
	}

	fams := scrapeMetrics(t, ts.URL)
	if got := metricValue(t, fams, "simd_draining", "simd_draining", ""); got != 1 {
		t.Errorf("simd_draining after drain = %g, want 1", got)
	}
	if got := metricValue(t, fams, "simd_jobs_total", "simd_jobs_total", `outcome="checkpointed"`); got < 2 {
		t.Errorf("checkpointed outcome = %g, want both jobs (2)", got)
	}
	if got := metricValue(t, fams, "simd_jobs_parked_total", "simd_jobs_parked_total", ""); got < 1 {
		t.Errorf("parked = %g, want >= 1", got)
	}
	if got := metricValue(t, fams, "simd_checkpoint_bytes_total", "simd_checkpoint_bytes_total", ""); got <= 0 {
		t.Errorf("checkpoint bytes = %g, want > 0", got)
	}
	if got := metricValue(t, fams, "simd_checkpoint_write_seconds", "simd_checkpoint_write_seconds_count", ""); got < 1 {
		t.Errorf("checkpoint write count = %g, want >= 1", got)
	}
}
