package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/hpcg"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

func TestCovered(t *testing.T) {
	parent := interval{10, 100}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 0},
		{"disjoint", []interval{{20, 30}, {40, 45}}, 15},
		{"overlapping counted once", []interval{{20, 40}, {30, 50}, {45, 46}}, 30},
		{"clipped to parent", []interval{{0, 20}, {90, 200}}, 20},
		{"outside", []interval{{0, 5}, {100, 120}}, 0},
		{"unsorted", []interval{{60, 70}, {20, 30}}, 20},
	} {
		if got := covered(parent, c.children); got != c.want {
			t.Errorf("%s: covered = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "unit", Start: 0, End: 100, Alloc: 1000},
		{ID: 2, Parent: 1, Name: "hpcg.solve", Start: 10, End: 60, Alloc: 600},
		{ID: 3, Parent: 2, Name: "inner", Start: 20, End: 30, Alloc: 100},
		{ID: 4, Parent: 1, Name: "heap.gc", Start: 60, End: 70},
		{ID: 5, Parent: 1, Name: "trace.prv", Start: 70, End: 95, Alloc: 300},
	}
	self := selfTimes(spans)
	for name, want := range map[string]int64{"unit": 15, "hpcg.solve": 40, "inner": 10, "heap.gc": 10, "trace.prv": 25} {
		if self[name] != want {
			t.Errorf("self time of %s = %d, want %d", name, self[name], want)
		}
	}
	alloc := selfAllocs(spans)
	for name, want := range map[string]int64{"unit": 100, "hpcg.solve": 500, "inner": 100, "trace.prv": 300} {
		if alloc[name] != want {
			t.Errorf("self alloc of %s = %d, want %d", name, alloc[name], want)
		}
	}
	if got := tracedTime(spans); got != 90 {
		t.Errorf("traced time = %d, want 90 (the root less its forced collection)", got)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.startUnit(7)
	tr.begin("a")
	tr.begin("b")
	tr.end()
	tr.end()
	tr.begin("c") // left open: endUnit closes it
	spans := tr.endUnit()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	parents := map[string]string{}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Unit != 7 || s.End < s.Start {
			t.Errorf("span %+v: wrong unit or negative duration", s)
		}
		parents[s.Name] = byID[s.Parent].Name
	}
	if parents["a"] != "unit" || parents["b"] != "a" || parents["c"] != "unit" {
		t.Errorf("parents = %v", parents)
	}
	var nilTracer *tracer
	nilTracer.begin("x")
	nilTracer.end()
	if nilTracer.endUnit() != nil || nilTracer.liveHeap() != 0 {
		t.Error("a nil tracer recorded something")
	}
}

// smallFigure is the figure unit at 16³ with two multigrid levels, the
// smallest size that still shows all five paper letters.
func smallFigure() batch {
	return figureBatch(figureConfig(3), hpcg.Params{NX: 16, NY: 16, NZ: 16, MGLevels: 2, MaxIters: 3})
}

func TestFigureUnitChecks(t *testing.T) {
	ctx := context.Background()
	w := smallFigure()
	o := &outputs{}
	res, err := w(ctx, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.check(o); err != nil {
		t.Fatalf("unmodified unit fails its checks: %v", err)
	}
	traced, err := w(ctx, &outputs{}, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if traced.digest != res.digest || traced.counts != res.counts {
		t.Errorf("traced unit differs from the untraced one:\n%+v\n%+v", traced.counts, res.counts)
	}

	// One PRV sample record dropped.
	lines := strings.SplitAfter(o.prv.String(), "\n")
	for i, l := range lines {
		if strings.Contains(l, ":32000001:") {
			lines = append(lines[:i], lines[i+1:]...)
			break
		}
	}
	dropped := &outputs{}
	dropped.prv.WriteString(strings.Join(lines, ""))
	if err := res.check(dropped); err == nil || !strings.Contains(err.Error(), "sample records") {
		t.Errorf("PRV with one sample dropped: err = %v", err)
	}
}

func TestSolutionCheckRejectsPerturbedX(t *testing.T) {
	run, _, err := figureSolveTraced(context.Background(), figureConfig(1),
		hpcg.Params{NX: 8, NY: 8, NZ: 8, MGLevels: 2, MaxIters: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, residuals, finalError := run.Problem.X.Data, run.CG.Residuals, run.CG.FinalError
	if err := checkSolution(8, 8, 8, x, residuals, finalError); err != nil {
		t.Fatalf("unmodified solve fails: %v", err)
	}
	perturbed := append([]float64(nil), x...)
	perturbed[100] += 1e-9
	if checkSolution(8, 8, 8, perturbed, residuals, finalError) == nil {
		t.Error("x with one entry perturbed by 1e-9 passes")
	}
	if checkSolution(8, 8, 8, x, residuals, math.Nextafter(finalError, 2)) == nil {
		t.Error("FinalError off by one ulp passes")
	}
	off := append([]float64(nil), residuals...)
	off[len(off)-1] *= 1 + 1e-9
	if checkSolution(8, 8, 8, x, off, finalError) == nil {
		t.Error("last residual off by 1e-9 relative passes")
	}
}

func TestFigurePropertyChecks(t *testing.T) {
	if err := checkMatrixReadOnly(prvSamples{Loads: 10}); err != nil {
		t.Errorf("read-only matrix rejected: %v", err)
	}
	if checkMatrixReadOnly(prvSamples{Loads: 10, Stores: 1}) == nil {
		t.Error("one matrix store accepted")
	}
	if checkMatrixReadOnly(prvSamples{}) == nil {
		t.Error("matrix without loads accepted")
	}
	if err := checkPaperLetters([]string{"a1", "a2", "B", "-", "C", "d1", "d2", "E"}); err != nil {
		t.Errorf("full letter set rejected: %v", err)
	}
	if checkPaperLetters([]string{"a1", "a2", "B", "-", "d1", "E"}) == nil {
		t.Error("letters without C accepted")
	}
	if err := checkFired(1000, 850, 400, 4); err != nil {
		t.Errorf("2 load + 2 store samples rejected: %v", err)
	}
	if checkFired(1000, 850, 400, 5) == nil {
		t.Error("one extra fired sample accepted")
	}
}

func TestMachineUnitChecksAndFills(t *testing.T) {
	ctx := context.Background()
	w := machineBatch(numaConfig(5), hpcg.Params{NX: 16, NY: 16, NZ: 16, MGLevels: 2, MaxIters: 2})
	o := &outputs{}
	res, err := w(ctx, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.check(o); err != nil {
		t.Fatalf("unmodified unit fails its checks: %v", err)
	}
	if res.counts.RemoteFills == 0 || res.counts.LocalFills == 0 {
		t.Fatalf("interleaved placement gave %d local and %d remote fills", res.counts.LocalFills, res.counts.RemoteFills)
	}
	traced, err := w(ctx, &outputs{}, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if traced.digest != res.digest || traced.counts != res.counts {
		t.Errorf("traced unit differs from the untraced one:\n%+v\n%+v", traced.counts, res.counts)
	}

	run, _, err := machineSolveTraced(ctx, numaConfig(5), hpcg.Params{NX: 16, NY: 16, NZ: 16, MGLevels: 2, MaxIters: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	threads, nodes := machineFills(run.Machine)
	if err := checkFills(threads, nodes); err != nil {
		t.Fatalf("the machine's own books rejected: %v", err)
	}
	for name, move := range map[string]func(n []nodeFills){
		"local fill to the other node's local":   func(n []nodeFills) { n[0].Local--; n[1].Local++ },
		"remote fill to the other node's remote": func(n []nodeFills) { n[0].Remote--; n[1].Remote++ },
		"local fill to the other node's remote":  func(n []nodeFills) { n[0].Local--; n[1].Remote++ },
	} {
		moved := append([]nodeFills(nil), nodes...)
		move(moved)
		if checkFills(threads, moved) == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// smallMix is a one-scenario stream: a pre-warmed key and one fresh job.
func smallMix(t *testing.T) (*mix, job, job) {
	t.Helper()
	sc, ok := scenario.Get("pointer_chase_1t")
	if !ok {
		t.Fatal("scenario pointer_chase_1t not registered")
	}
	hit := job{sc: sc, period: 300, repeat: true}
	return &mix{hits: []job{hit}}, hit, job{sc: sc, period: 400}
}

func computed(t *testing.T, j job) []byte {
	t.Helper()
	m, err := scenario.Run(j.sc, scenario.Options{Sampling: j.request().Sampling})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestVerifyMixRejectsChangedByte(t *testing.T) {
	m, hit, fresh := smallMix(t)
	key, err := sweep.Key(nil, fresh.sc.Name, "", fresh.request().Sampling, false)
	if err != nil {
		t.Fatal(err)
	}
	stream := slices.Values([]job{hit, fresh, hit})
	freshBytes := computed(t, fresh)
	newRun := func(change func(fresh, first []byte)) *mixRun {
		fr, fi := bytes.Clone(freshBytes), computed(t, hit)
		change(fr, fi)
		return &mixRun{
			dir:   t.TempDir(),
			first: map[string][]byte{hit.id(): fi},
			fresh: []served{{id: fresh.id(), key: key, sum: sha256.Sum256(fr)}},
		}
	}
	var work counts
	if err := verifyMix(newRun(func(_, _ []byte) {}), m.hits, stream, newTracer(), &work); err != nil {
		t.Fatalf("faithful replies rejected: %v", err)
	}
	if work.Instructions == 0 || work.Samples == 0 {
		t.Errorf("fresh job's work not summed: %+v", work)
	}
	if verifyMix(newRun(func(fr, _ []byte) { fr[len(fr)/2] ^= 1 }), m.hits, stream, nil, nil) == nil {
		t.Error("fresh reply with one byte changed accepted")
	}
	if verifyMix(newRun(func(_, fi []byte) { fi[10] ^= 1 }), m.hits, stream, nil, nil) == nil {
		t.Error("pre-warmed reply with one byte changed accepted")
	}
	mr := newRun(func(_, _ []byte) {})
	mr.fresh[0].key = strings.Repeat("0", 64)
	if verifyMix(mr, m.hits, stream, nil, nil) == nil {
		t.Error("reply under another key accepted")
	}
}

func TestMixServedRepeats(t *testing.T) {
	ctx := context.Background()
	m, hit, fresh := smallMix(t)
	mr, err := startMix(ctx, m, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer mr.close()
	for _, j := range []job{hit, fresh, hit} {
		if err := mr.do(ctx, j, nil); err != nil {
			t.Fatalf("%s: %v", j.id(), err)
		}
	}
	if mr.repeats != 2 || mr.fromCache != 2 || len(mr.fresh) != 1 {
		t.Errorf("repeats %d, from cache %d, fresh %d; want 2, 2, 1", mr.repeats, mr.fromCache, len(mr.fresh))
	}
	after, err := mr.scrape(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after["simd_cache_hits_total"] != 2 {
		t.Errorf("server counted %v cache hits, want 2", after["simd_cache_hits_total"])
	}
	if err := verifyMix(mr, m.hits, slices.Values([]job{hit, fresh, hit}), nil, nil); err != nil {
		t.Errorf("served stream rejected: %v", err)
	}
	// A repeat must return the bytes first served for its key.
	mr.first[hit.id()] = append([]byte(nil), mr.first[hit.id()]...)
	mr.first[hit.id()][0] ^= 1
	if mr.do(ctx, hit, nil) == nil {
		t.Error("repeat differing from the first served bytes accepted")
	}
}

func TestMixRoundsAreSeeded(t *testing.T) {
	a, b := newMix(9), newMix(9)
	var replayed []string
	for j := range a.stream(3) {
		replayed = append(replayed, j.id())
	}
	for r := 0; r < 3; r++ {
		ra, rb := a.round(r), b.round(r)
		if len(ra) != roundJobs {
			t.Fatalf("round %d has %d jobs", r, len(ra))
		}
		seen := map[string]bool{}
		for i := range ra {
			if ra[i].id() != rb[i].id() || ra[i].id() != replayed[r*len(ra)+i] {
				t.Fatalf("round %d differs between two mixes of one seed at job %d", r, i)
			}
			if !ra[i].repeat {
				if seen[ra[i].id()] {
					t.Errorf("fresh key %s twice in round %d", ra[i].id(), r)
				}
				seen[ra[i].id()] = true
			}
		}
	}
}

// TestBenchmarkJSON keeps the metric lists in step with BENCHMARK.json.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		json []struct{ Name, Unit string }
		code []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", c.name, len(c.json), len(c.code))
			continue
		}
		for i := range c.code {
			if c.json[i].Name != c.code[i].name || c.json[i].Unit != c.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", c.name, i, c.json[i], c.code[i])
			}
		}
	}
}

func TestOverheadPct(t *testing.T) {
	traced := []time.Duration{110, 120, 100}
	untraced := []time.Duration{100, 100}
	if got := overheadPct(traced, untraced); math.Abs(got-10) > 1e-9 {
		t.Errorf("overhead = %v, want 10", got)
	}
}
