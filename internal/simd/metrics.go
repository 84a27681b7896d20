package simd

import (
	"io"

	"repro/internal/telemetry"
)

// serverMetrics is the server's instrument panel: every counter the old
// ad-hoc stats struct carried, re-homed onto the telemetry registry so one
// set of atomics backs both the legacy /v1/stats JSON and the Prometheus
// /metrics exposition. Queue depth, running count, drain state and the
// index size are GaugeFuncs — they live under s.mu or the index's lock and
// are read only when a scrape asks.
type serverMetrics struct {
	reg *telemetry.Registry

	accepted    *telemetry.Counter
	coalesced   *telemetry.Counter
	cacheHits   *telemetry.Counter
	memoryHits  *telemetry.Counter // the cache hits the in-memory index answered
	cacheMisses *telemetry.Counter
	shed429     *telemetry.Counter
	shed503     *telemetry.Counter
	rejected400 *telemetry.Counter
	rejected413 *telemetry.Counter

	done         *telemetry.Counter // jobs_total{outcome=...}
	partial      *telemetry.Counter
	failed       *telemetry.Counter
	checkpointed *telemetry.Counter

	panics  *telemetry.Counter
	parked  *telemetry.Counter
	resumed *telemetry.Counter

	queueWait *telemetry.Histogram
	runTime   *telemetry.Histogram
	ckWrite   *telemetry.Histogram
	ckBytes   *telemetry.Counter
}

func newServerMetrics(s *Server) *serverMetrics {
	r := telemetry.NewRegistry()
	m := &serverMetrics{reg: r}

	m.accepted = r.Counter("simd_jobs_accepted_total", "Jobs admitted into the queue.")
	m.coalesced = r.Counter("simd_jobs_coalesced_total", "Submissions attached to an in-flight job with the same key (coalesce fan-in).")
	m.cacheHits = r.Counter("simd_cache_hits_total", "Submissions answered from the shared metrics cache.")
	m.memoryHits = r.Counter("simd_cache_memory_hits_total", "Cache hits answered from the in-memory index, without a disk read.")
	m.cacheMisses = r.Counter("simd_cache_misses_total", "Submissions that missed the shared metrics cache.")
	m.shed429 = r.Counter("simd_shed_total", "Submissions shed by admission control.", "code", "429")
	m.shed503 = r.Counter("simd_shed_total", "Submissions shed by admission control.", "code", "503")
	m.rejected400 = r.Counter("simd_rejected_total", "Submissions rejected as invalid or over budget.", "code", "400")
	m.rejected413 = r.Counter("simd_rejected_total", "Submissions rejected as invalid or over budget.", "code", "413")

	m.done = r.Counter("simd_jobs_total", "Terminal job outcomes.", "outcome", "done")
	m.partial = r.Counter("simd_jobs_total", "Terminal job outcomes.", "outcome", "partial")
	m.failed = r.Counter("simd_jobs_total", "Terminal job outcomes.", "outcome", "failed")
	m.checkpointed = r.Counter("simd_jobs_total", "Terminal job outcomes.", "outcome", "checkpointed")

	m.panics = r.Counter("simd_panics_total", "Worker panics contained to their job.")
	m.parked = r.Counter("simd_jobs_parked_total", "Jobs parked to the state directory by a drain.")
	m.resumed = r.Counter("simd_jobs_resumed_total", "Parked jobs re-admitted at startup.")

	m.queueWait = r.Histogram("simd_queue_wait_seconds", "Time from admission to worker start.", telemetry.DefBuckets)
	m.runTime = r.Histogram("simd_run_seconds", "Wall time of one simulation attempt.", telemetry.DefBuckets)
	m.ckWrite = r.Histogram("simd_checkpoint_write_seconds", "Latency of drain-checkpoint snapshot writes.", telemetry.DefBuckets)
	m.ckBytes = r.Counter("simd_checkpoint_bytes_total", "Bytes of drain-checkpoint snapshots written.")

	r.GaugeFunc("simd_queue_depth", "Jobs waiting for a worker.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.queue))
	})
	r.GaugeFunc("simd_jobs_running", "Simulations currently executing.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.running))
	})
	r.GaugeFunc("simd_cache_memory_bytes", "Bytes of cached documents held in the in-memory index.", func() float64 {
		return float64(s.index.size())
	})
	r.GaugeFunc("simd_draining", "1 while admission is stopped by a drain.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.draining {
			return 1
		}
		return 0
	})
	return m
}

// WriteMetrics writes the server's Prometheus text exposition — the same
// registry the /metrics endpoint serves.
func (s *Server) WriteMetrics(w io.Writer) error { return s.met.reg.WriteText(w) }

// countingWriter measures checkpoint snapshot sizes on their way to disk.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
