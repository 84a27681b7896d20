package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"iter"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/machspec"
	"repro/internal/scenario"
	"repro/internal/simd"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// The simd_mix workload: one closed-loop client sends jobs over loopback
// HTTP to an in-process simd.Server with an on-disk cache, one at a time,
// waiting for each reply. A round is one fresh job per registered scenario
// (simulated and written to the cache) and repeatsPerKey repeats of each
// key set-up pre-warmed (answered from the cache), in a seeded order.

// roundJobs is the number of jobs in one round.
var roundJobs = len(scenario.All()) * (repeatsPerKey + 1)

// repeatsPerKey balances the two paths: a round spends about as long
// answering repeats from the cache as simulating its fresh jobs, so a gain
// or loss on either path moves run_s and jobs_per_s by about half its size.
const repeatsPerKey = 80

// Sampling periods: pre-warmed keys use [hitPeriod, hitPeriod+periodSpread),
// fresh keys missPeriod + a per-scenario offset below periodSpread + the
// round number, so no fresh key repeats within a run and the simulated work
// per round stays within a few percent across seeds and rounds.
const (
	hitPeriod    = 300
	missPeriod   = 400
	periodSpread = 100
)

// job is one request of the stream.
type job struct {
	sc     scenario.Scenario
	period uint64
	repeat bool // a pre-warmed key, answered from the cache
}

func (j job) request() simd.Request {
	p := j.period
	return simd.Request{Scenario: j.sc.Name, Sampling: &machspec.Sampling{Period: &p}}
}

func (j job) id() string { return fmt.Sprintf("%s@%d", j.sc.Name, j.period) }

// mix draws the seeded job stream.
type mix struct {
	seed     int64
	rng      *rand.Rand
	hits     []job
	missBase []uint64 // per scenario
}

func newMix(seed int64) *mix {
	m := &mix{seed: seed, rng: rand.New(rand.NewSource(seed))}
	for _, sc := range scenario.All() {
		m.hits = append(m.hits, job{sc: sc, period: hitPeriod + uint64(m.rng.Intn(periodSpread)), repeat: true})
		m.missBase = append(m.missBase, missPeriod+uint64(m.rng.Intn(periodSpread)))
	}
	return m
}

// round returns round r's jobs in a seeded order.
func (m *mix) round(r int) []job {
	jobs := make([]job, 0, roundJobs)
	for i, h := range m.hits {
		jobs = append(jobs, job{sc: h.sc, period: m.missBase[i] + uint64(r)})
		for k := 0; k < repeatsPerKey; k++ {
			jobs = append(jobs, h)
		}
	}
	m.rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	return jobs
}

// stream regenerates the jobs of the first n rounds a mix of the same
// seed draws, so the run need not keep them.
func (m *mix) stream(n int) iter.Seq[job] {
	return func(yield func(job) bool) {
		again := newMix(m.seed)
		for r := 0; r < n; r++ {
			for _, j := range again.round(r) {
				if !yield(j) {
					return
				}
			}
		}
	}
}

// served is what the run keeps of a fresh job's reply.
type served struct {
	id     string
	key    string
	sum    [sha256.Size]byte
	failed bool // no reply to check: the job counts as failed
}

// mixRun is the closed loop's state: the server, the client and what was
// served.
type mixRun struct {
	srv    *simd.Server
	hs     *http.Server
	serve  chan error
	client *simd.Client
	base   string
	dir    string

	first     map[string][]byte // bytes first served per pre-warmed key
	fresh     []served          // in stream order
	hitLat    []float64         // ms
	missLat   []float64         // ms
	repeats   int
	fromCache int
}

// startMix starts the server and its HTTP listener, with its cache in a
// new directory under parent, and pre-warms the cache with every repeat
// key.
func startMix(ctx context.Context, m *mix, parent string) (*mixRun, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(parent, "simd-")
	if err != nil {
		return nil, err
	}
	mr := &mixRun{dir: dir, first: map[string][]byte{}}
	mr.srv, err = simd.New(simd.Config{MaxConcurrent: 1, CacheDir: filepath.Join(dir, "cache")})
	if err != nil {
		mr.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mr.close()
		return nil, err
	}
	mr.hs = &http.Server{Handler: mr.srv.Handler()}
	mr.serve = make(chan error, 1)
	go func() { mr.serve <- mr.hs.Serve(ln) }()
	mr.base = "http://" + ln.Addr().String()
	mr.client = &simd.Client{
		BaseURL: mr.base,
		HTTP:    &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		Retries: -1, // a failed job counts as failed, never as a slow success
	}
	for _, h := range m.hits {
		res, err := mr.client.Run(ctx, h.request())
		if err != nil {
			mr.close()
			return nil, fmt.Errorf("pre-warming %s: %w", h.id(), err)
		}
		if res.Source != simd.SourceSimulated {
			mr.close()
			return nil, fmt.Errorf("pre-warming %s: served from %q, want a simulation", h.id(), res.Source)
		}
		mr.first[h.id()] = res.Metrics
	}
	return mr, nil
}

// close stops the HTTP server and the simulation server, waits for both,
// and removes the run's cache.
func (mr *mixRun) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if mr.hs != nil {
		mr.hs.Shutdown(ctx)
		<-mr.serve
	}
	if mr.client != nil {
		mr.client.HTTP.CloseIdleConnections()
	}
	if mr.srv != nil {
		mr.srv.Drain(ctx)
	}
	os.RemoveAll(mr.dir)
}

// do sends one job and checks what can be checked at once: the reply is a
// complete document, a repeat is answered from the cache with the bytes
// first served for its key, and a fresh job is simulated.
func (mr *mixRun) do(ctx context.Context, j job, tr *tracer) error {
	tr.begin("simd.job")
	t0 := time.Now()
	res, err := mr.client.Run(ctx, j.request())
	d := time.Since(t0)
	tr.end()
	if err == nil && res.Partial {
		err = fmt.Errorf("%s came back partial", j.id())
	}
	if err != nil {
		if !j.repeat {
			mr.fresh = append(mr.fresh, served{id: j.id(), failed: true})
		}
		return err
	}
	if j.repeat {
		mr.repeats++
		mr.hitLat = append(mr.hitLat, ms(d))
		if res.Source == simd.SourceCache {
			mr.fromCache++
		}
		if !bytes.Equal(res.Metrics, mr.first[j.id()]) {
			return fmt.Errorf("repeat of %s returned other bytes than first served", j.id())
		}
		return nil
	}
	mr.missLat = append(mr.missLat, ms(d))
	if res.Source != simd.SourceSimulated {
		return fmt.Errorf("fresh job %s served from %q", j.id(), res.Source)
	}
	mr.fresh = append(mr.fresh, served{id: j.id(), key: res.Key, sum: sha256.Sum256(res.Metrics)})
	return nil
}

// scrape reads the server's /metrics through the strict exposition parser.
func (mr *mixRun) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, mr.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := mr.client.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	fams, err := telemetry.ParseText(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, f := range fams {
		for _, s := range f.Samples {
			name := s.Name
			if s.Labels != "" {
				name += "{" + s.Labels + "}"
			}
			out[name] = s.Value
		}
	}
	return out, nil
}

// runSimdMix starts the server, pre-warms its cache and runs one untimed
// warm-up round (set-up), then runs whole rounds until seconds have
// passed, then checks every served document against the program's output
// computed in-process.
func runSimdMix(ctx context.Context, seed int64, seconds time.Duration, traceOn bool) (*outcome, error) {
	m := newMix(seed)
	mr, err := startMix(ctx, m, stateDir)
	if err != nil {
		return nil, err
	}
	defer mr.close()
	for _, j := range m.round(0) {
		if err := mr.do(ctx, j, nil); err != nil {
			return nil, fmt.Errorf("warm-up round: %w", err)
		}
	}
	mr.hitLat, mr.missLat, mr.repeats, mr.fromCache = nil, nil, 0, 0
	setup := time.Since(started)
	before, err := mr.scrape(ctx)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if traceOn {
		tr = newTracer()
	}
	out := &outcome{values: map[string]float64{}}
	var rounds, tracedRounds []time.Duration
	loopStart := time.Now()
	for i := 0; time.Since(loopStart) < seconds || (traceOn && i < 2) || i == 0; i++ {
		jobs := m.round(i + 1)
		traced := traceOn && i%2 == 0
		var rtr *tracer
		if traced {
			rtr = tr
			rtr.startUnit(i + 1)
		}
		t0 := time.Now()
		for _, j := range jobs {
			out.attempted++
			if err := mr.do(ctx, j, rtr); err != nil {
				out.failed++
				fmt.Fprintln(os.Stderr, "perfbench: job failed:", err)
			}
		}
		d := time.Since(t0)
		rtr.endUnit()
		if traced {
			tracedRounds = append(tracedRounds, d)
		} else {
			rounds = append(rounds, d)
		}
	}
	after, err := mr.scrape(ctx)
	if err != nil {
		return nil, err
	}
	delta := func(name string) float64 { return after[name] - before[name] }

	var live uint64
	if traceOn {
		tr.startUnit(0)
		live = tr.liveHeap()
		tr.endUnit()
	}
	var work counts
	out.checkError = verifyMix(mr, m.hits, m.stream(1+len(rounds)+len(tracedRounds)), tr, &work)
	// A failed repeat may or may not have reached the cache, so the
	// counts reconcile only when no job failed.
	if out.checkError == nil && out.failed == 0 {
		if hits := delta("simd_cache_hits_total"); float64(mr.repeats) != hits {
			out.checkError = fmt.Errorf("stream had %d repeats, server counted %v cache hits", mr.repeats, hits)
		} else if mr.fromCache != mr.repeats {
			out.checkError = fmt.Errorf("stream had %d repeats, %d replies came from the cache", mr.repeats, mr.fromCache)
		}
	}

	if !traceOn {
		loopValues(out.values, setup, rounds, roundJobs)
		return out, nil
	}

	v := out.values
	hits, misses := delta("simd_cache_hits_total"), delta("simd_cache_misses_total")
	v["simd.queue_wait_ms"] = 1000 * delta("simd_queue_wait_seconds_sum") / delta("simd_queue_wait_seconds_count")
	v["simd.run_ms"] = 1000 * delta("simd_run_seconds_sum") / delta("simd_run_seconds_count")
	v["simd.cache_hits"] = hits
	v["simd.simulated"] = delta(`simd_jobs_total{outcome="done"}`)
	v["simd.hit_ratio"] = hits / (hits + misses)
	v["simd.hit_ms_p50"] = percentile(mr.hitLat, 50)
	v["simd.hit_ms_p90"] = percentile(mr.hitLat, 90)
	v["simd.miss_ms_p50"] = percentile(mr.missLat, 50)
	v["simd.miss_ms_p90"] = percentile(mr.missLat, 90)
	v["heap.live_mb"] = float64(live) / 1e6
	callValues(v, tr.spans)
	work.values(v)
	v["tracing.overhead_pct"] = overheadPct(tracedRounds, rounds)
	if err := tr.write(spanPath("simd_mix")); err != nil {
		return nil, err
	}
	return out, nil
}

// verifyMix replays the stream in-process, after the timed loop, through
// the calls the server makes: sweep.Key and a cache of its own, and on a
// miss scenario.Run, Metrics.JSON and Cache.Put. Every served document
// must equal the bytes computed here for the same request. With a tracer,
// each call is a span; work, when not nil, sums the fresh jobs' simulated
// work.
func verifyMix(mr *mixRun, hits []job, stream iter.Seq[job], tr *tracer, work *counts) error {
	cache, err := sweep.OpenCache(filepath.Join(mr.dir, "replay"))
	if err != nil {
		return err
	}
	compute := func(j job) ([]byte, error) {
		tr.begin("scenario.run")
		met, err := scenario.Run(j.sc, scenario.Options{Sampling: j.request().Sampling})
		tr.end()
		if err != nil {
			return nil, err
		}
		tr.begin("scenario.json")
		b, err := met.JSON()
		tr.end()
		if err == nil && !j.repeat && work != nil {
			work.addMetrics(met)
		}
		return b, err
	}
	for _, h := range hits {
		b, err := compute(h)
		if err != nil {
			return err
		}
		if !bytes.Equal(b, mr.first[h.id()]) {
			return fmt.Errorf("pre-warmed %s: served bytes differ from scenario.Run", h.id())
		}
		key, err := sweep.Key(nil, h.sc.Name, "", h.request().Sampling, false)
		if err != nil {
			return err
		}
		if err := cache.Put(key, b); err != nil {
			return err
		}
	}
	next, unit := 0, 0
	for j := range stream {
		unit++
		if err := replayJob(cache, j, mr, &next, unit, tr, compute); err != nil {
			return err
		}
	}
	if next != len(mr.fresh) {
		return fmt.Errorf("%d fresh replies, %d fresh jobs in the stream", len(mr.fresh), next)
	}
	return nil
}

// replayJob replays one job of the stream as one traced unit.
func replayJob(cache *sweep.Cache, j job, mr *mixRun, next *int, unit int, tr *tracer, compute func(job) ([]byte, error)) error {
	tr.startUnit(-unit)
	defer tr.endUnit()
	tr.begin("sweep.key")
	key, err := sweep.Key(nil, j.sc.Name, "", j.request().Sampling, false)
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("sweep.cache_get")
	_, hit, err := cache.Get(key)
	tr.end()
	if err != nil {
		return err
	}
	if hit != j.repeat {
		return fmt.Errorf("%s: replay cache hit %v, stream repeat %v", j.id(), hit, j.repeat)
	}
	if j.repeat {
		return nil
	}
	if *next >= len(mr.fresh) || mr.fresh[*next].id != j.id() {
		return fmt.Errorf("%s: no served reply for the fresh job", j.id())
	}
	s := mr.fresh[*next]
	*next++
	if s.failed {
		return nil
	}
	if s.key != key {
		return fmt.Errorf("%s: server key %s, sweep.Key %s", j.id(), s.key, key)
	}
	b, err := compute(j)
	if err != nil {
		return err
	}
	if sha256.Sum256(b) != s.sum {
		return fmt.Errorf("%s: served bytes differ from scenario.Run", j.id())
	}
	tr.begin("sweep.cache_put")
	defer tr.end()
	return cache.Put(key, b)
}

// callValues fills the per-call metrics of the replay from its spans: the
// median duration of each call.
func callValues(v map[string]float64, spans []span) {
	durs := map[string][]float64{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start))
	}
	med := func(name string, scale float64) float64 {
		if xs := durs[name]; len(xs) > 0 {
			return median(xs) / scale
		}
		return 0
	}
	v["sweep.key_us"] = med("sweep.key", 1e3)
	v["sweep.cache_get_us"] = med("sweep.cache_get", 1e3)
	v["sweep.cache_put_us"] = med("sweep.cache_put", 1e3)
	v["scenario.run_ms"] = med("scenario.run", 1e6)
	v["scenario.json_us"] = med("scenario.json", 1e3)
}

// addMetrics adds the simulated work a scenario's metrics document
// reports.
func (c *counts) addMetrics(m *scenario.Metrics) {
	for _, t := range m.PerThread {
		c.Instructions += t.Instructions
		c.Loads += t.Loads
		c.Stores += t.Stores
		c.Cycles += t.Cycles
		c.L1Misses += t.L1DMisses
		c.L2Misses += t.L2Misses
		c.L3Misses += t.L3Misses
		c.Samples += t.SamplesRecorded
		c.Records += uint64(t.TraceRecordCount)
		c.FoldedSamples += uint64(t.FoldedSamples)
		c.Instances += uint64(t.InstancesUsed)
		c.Phases += uint64(len(t.Phases))
	}
	if m.NUMA != nil {
		for _, n := range m.NUMA.Nodes {
			c.LocalFills += n.FillsLocal
			c.RemoteFills += n.FillsRemote
		}
	}
}
