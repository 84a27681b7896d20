// Command perfbench is the repository's benchmark. One run executes one
// workload for a fixed time and prints, as its last line, a JSON object
// with the units or jobs it attempted, how many failed, whether every
// output check passed, and either the end-to-end metrics (-trace 0) or the
// per-layer metrics of a traced run (-trace 1):
//
//	go run ./perfbench -workload figure32 -seed 1 -seconds 25 -trace 0
//
// Workloads, metrics and reference figures are described in README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// started is the process's start as close as Go code can see it: package
// variables are initialised before main runs. setup_s counts from here.
var started = time.Now()

// metricDef names a metric and its unit; the lists below match
// BENCHMARK.json.
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"peak_rss_mb", "MB"},
	{"jobs_per_s", "jobs/s"},
}

var perLayer = []metricDef{
	{"core.assemble_ms", "ms"},
	{"hpcg.generate_ms", "ms"},
	{"hpcg.generate_alloc_mb", "MB"},
	{"hpcg.solve_ms", "ms"},
	{"hpcg.solve_alloc_mb", "MB"},
	{"hpcg.solve_ns_per_memop", "ns"},
	{"folding.fold_ms", "ms"},
	{"folding.alloc_mb", "MB"},
	{"report.render_ms", "ms"},
	{"report.alloc_mb", "MB"},
	{"trace.prv_ms", "ms"},
	{"trace.prv_alloc_mb", "MB"},
	{"trace.prv_mb", "MB"},
	{"trace.merge_ms", "ms"},
	{"numa.local_fills", "count"},
	{"numa.remote_fills", "count"},
	{"heap.live_mb", "MB"},
	{"extrae.records", "count"},
	{"cpu.instructions", "count"},
	{"cpu.mem_ops", "count"},
	{"cpu.cycles", "count"},
	{"memhier.l1_misses", "count"},
	{"memhier.l2_misses", "count"},
	{"memhier.l3_misses", "count"},
	{"pebs.samples", "count"},
	{"folding.samples", "count"},
	{"folding.instances", "count"},
	{"folding.phases", "count"},
	{"simd.queue_wait_ms", "ms"},
	{"simd.run_ms", "ms"},
	{"simd.cache_hits", "count"},
	{"simd.simulated", "count"},
	{"simd.hit_ratio", "ratio"},
	{"simd.hit_ms_p50", "ms"},
	{"simd.hit_ms_p90", "ms"},
	{"simd.miss_ms_p50", "ms"},
	{"simd.miss_ms_p90", "ms"},
	{"sweep.key_us", "us"},
	{"sweep.cache_get_us", "us"},
	{"sweep.cache_put_us", "us"},
	{"scenario.run_ms", "ms"},
	{"scenario.json_us", "us"},
	{"tracing.overhead_pct", "%"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload hands back to main: counts, the first failed
// check (nil when every check held) and the metric values by name. A
// per-layer metric a workload does not exercise is absent and printed as 0.
type outcome struct {
	attempted, failed int
	checkError        error
	values            map[string]float64
}

// stateDir holds what runs leave in the checkout: span dumps and the
// simd_mix cache, which is removed when the run ends.
const stateDir = ".perfbench"

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run: figure32, numa2s2t or simd_mix")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 25, "how long the timed loop runs, in seconds")
	traceOn := flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the repository root:", err)
		return 2
	}
	ctx := context.Background()
	dur := time.Duration(*seconds) * time.Second
	tracing := *traceOn == 1
	var out *outcome
	var err error
	switch *workload {
	case "figure32":
		out, err = runBatchWorkload(ctx, figure32(*seed), dur, tracing, *workload)
	case "numa2s2t":
		out, err = runBatchWorkload(ctx, numa2s2t(*seed), dur, tracing, *workload)
	case "simd_mix":
		out, err = runSimdMix(ctx, *seed, dur, tracing)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (figure32, numa2s2t, simd_mix)\n", *workload)
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defs := endToEnd
	if tracing {
		defs = perLayer
	} else {
		out.values["peak_rss_mb"] = peakRSSMB()
	}
	res := result{
		Correct:   out.checkError == nil,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok && !tracing {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", *workload, d.name)
			return 1
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s measured %s = %v\n", *workload, d.name, v)
			return 1
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if out.checkError != nil {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", out.checkError)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// peakRSSMB is the process's peak resident set in MB (10⁶ bytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}

// aslrSeed turns the run's seed into a nonzero heap-randomisation seed
// (splitmix64), so every seed moves the simulated heap base.
func aslrSeed(seed int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>1) | 1
}

// spanPath is where a traced run dumps its spans; each traced run of a
// workload replaces the previous dump.
func spanPath(workload string) string {
	return filepath.Join(stateDir, "spans-"+workload+".json")
}

// runBatchWorkload runs a batch workload and turns its report into
// metric values.
func runBatchWorkload(ctx context.Context, w batch, seconds time.Duration, traceOn bool, name string) (*outcome, error) {
	rep, err := runBatch(ctx, w, seconds, traceOn)
	if err != nil {
		return nil, err
	}
	out := &outcome{attempted: rep.attempted, failed: rep.failed, checkError: rep.checkError, values: map[string]float64{}}
	if !traceOn {
		if len(rep.units) == 0 {
			return nil, fmt.Errorf("no unit completed")
		}
		loopValues(out.values, rep.setup, rep.units, 1)
		return out, nil
	}
	if len(rep.spans) == 0 || len(rep.units) == 0 {
		return nil, fmt.Errorf("traced run completed %d traced and %d untraced units", len(rep.spans), len(rep.units))
	}
	layerValues(out.values, rep)
	if err := rep.tracer.write(spanPath(name)); err != nil {
		return nil, err
	}
	return out, nil
}

// layerValues fills the per-layer metrics of a traced batch run: span
// self times and allocations as medians over the traced units, and the
// unit's simulated counts.
func layerValues(v map[string]float64, rep *batchReport) {
	self := map[string][]float64{}
	alloc := map[string][]float64{}
	for _, spans := range rep.spans {
		for name, ns := range selfTimes(spans) {
			self[name] = append(self[name], float64(ns))
		}
		for name, b := range selfAllocs(spans) {
			alloc[name] = append(alloc[name], float64(b))
		}
	}
	selfMS := func(name string) float64 {
		if xs := self[name]; len(xs) > 0 {
			return median(xs) / 1e6
		}
		return 0
	}
	allocMB := func(name string) float64 {
		if xs := alloc[name]; len(xs) > 0 {
			return median(xs) / 1e6
		}
		return 0
	}
	c := rep.counts
	v["core.assemble_ms"] = selfMS("core.assemble")
	v["hpcg.generate_ms"] = selfMS("hpcg.generate")
	v["hpcg.generate_alloc_mb"] = allocMB("hpcg.generate")
	v["hpcg.solve_ms"] = selfMS("hpcg.solve")
	v["hpcg.solve_alloc_mb"] = allocMB("hpcg.solve")
	v["hpcg.solve_ns_per_memop"] = selfMS("hpcg.solve") * 1e6 / float64(c.Loads+c.Stores)
	v["folding.fold_ms"] = selfMS("folding.fold")
	v["folding.alloc_mb"] = allocMB("folding.fold")
	v["report.render_ms"] = selfMS("report.render")
	v["report.alloc_mb"] = allocMB("report.render")
	v["trace.prv_ms"] = selfMS("trace.prv")
	v["trace.prv_alloc_mb"] = allocMB("trace.prv")
	v["trace.prv_mb"] = float64(c.PRVBytes) / 1e6
	v["trace.merge_ms"] = selfMS("trace.merge")
	v["heap.live_mb"] = median(rep.liveHeap) / 1e6
	c.values(v)
	v["tracing.overhead_pct"] = overheadPct(rep.traced, rep.units)
}

// loopValues fills the end-to-end times every workload reports: set-up,
// the median unit, and the jobs a unit completes per second at that
// median (a batch unit is one job).
func loopValues(v map[string]float64, setup time.Duration, units []time.Duration, jobsPerUnit int) {
	v["setup_s"] = setup.Seconds()
	v["run_s"] = median(seconds(units))
	v["jobs_per_s"] = float64(jobsPerUnit) / v["run_s"]
}

// overheadPct is how much longer the median traced unit took than the
// median untraced one, in percent.
func overheadPct(traced, untraced []time.Duration) float64 {
	return (median(seconds(traced))/median(seconds(untraced)) - 1) * 100
}
