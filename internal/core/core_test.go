package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/folding"
	"repro/internal/hpcg"
	"repro/internal/pebs"
	"repro/internal/workloads"
)

// testConfig returns a fast, deterministic configuration for integration
// tests: no PEBS randomization, short period, no multiplexing.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Monitor.MuxQuantumNs = 0
	cfg.Monitor.PEBS.Events = pebs.SampleLoads | pebs.SampleStores
	cfg.Monitor.PEBS.Period = 200
	cfg.Monitor.PEBS.Randomize = false
	cfg.Monitor.PEBS.LatencyThreshold = 0
	return cfg
}

func testHPCGParams() hpcg.Params {
	return hpcg.Params{NX: 16, NY: 16, NZ: 16, MGLevels: 2, MaxIters: 4}
}

// runHPCG runs the single-thread HPCG reproduction to completion.
func runHPCG(t testing.TB, cfg Config, params hpcg.Params) *HPCGRun {
	t.Helper()
	run, err := RunHPCGCheckpointed(nil, cfg, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// mustRunWorkload runs w to completion on a threads-thread machine.
func mustRunWorkload(t testing.TB, cfg Config, w workloads.Workload, iters, threads int) *MachineWorkloadResult {
	t.Helper()
	res, err := RunWorkload(nil, cfg, w, iters, threads, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sessionRun sets up w on a fresh Session and runs all its iterations
// over all its elements in one RunPartitionRange call, outside the
// instance-boundary loop, then folds it.
func sessionRun(t testing.TB, cfg Config, w workloads.Workload, iters int) (*Session, *folding.Folded) {
	t.Helper()
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &workloads.Ctx{Core: s.Core, Mon: s.Mon, Bin: s.Bin}
	if err := w.Setup(ctx); err != nil {
		t.Fatal(err)
	}
	s.Mon.Start()
	if err := w.RunPartitionRange(ctx, 0, iters, 0, w.Elements()); err != nil {
		t.Fatal(err)
	}
	s.Mon.Stop()
	folded, err := s.Fold(w.Region())
	if err != nil {
		t.Fatal(err)
	}
	return s, folded
}

func TestNewSessionValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.Cache.DRAMLatency = 0
	if _, err := NewSession(bad); err == nil {
		t.Error("bad cache config accepted")
	}
	bad2 := DefaultConfig()
	bad2.CPU.FreqHz = 0
	if _, err := NewSession(bad2); err == nil {
		t.Error("bad cpu config accepted")
	}
	bad3 := DefaultConfig()
	bad3.Monitor.PEBS.Period = 0
	if _, err := NewSession(bad3); err == nil {
		t.Error("bad monitor config accepted")
	}
}

func TestASLRChangesBase(t *testing.T) {
	cfg := testConfig()
	s1, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.ASLRSeed = 42
	s2, err := NewSession(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	cfg3 := cfg
	cfg3.ASLRSeed = 43
	s3, err := NewSession(cfg3)
	if err != nil {
		t.Fatal(err)
	}
	if s1.AS.Base() == s2.AS.Base() {
		t.Error("ASLR seed did not move the heap base")
	}
	if s2.AS.Base() == s3.AS.Base() {
		t.Error("different ASLR seeds produced the same base")
	}
	// Same seed reproduces the same base (determinism).
	s2b, _ := NewSession(cfg2)
	if s2.AS.Base() != s2b.AS.Base() {
		t.Error("same ASLR seed produced different bases")
	}
}

func TestRunWorkloadStream(t *testing.T) {
	w := workloads.NewStream(1 << 15)
	res := mustRunWorkload(t, testConfig(), w, 30, 1)
	// Math is right.
	for i := 0; i < w.N; i += 1000 {
		if w.Value(i) != w.Expected(i) {
			t.Fatalf("triad wrong at %d: %g != %g", i, w.Value(i), w.Expected(i))
		}
	}
	f := res.Threads[0].Folded
	if f.InstancesUsed < 25 {
		t.Errorf("folded instances = %d", f.InstancesUsed)
	}
	// STREAM sweeps linearly: single forward phase expected.
	if len(f.Phases) == 0 {
		t.Fatal("no phases detected")
	}
	if f.Phases[0].Direction != folding.SweepForward {
		t.Errorf("stream phase direction = %v", f.Phases[0].Direction)
	}
	// Loads outnumber stores roughly 2:1 in the samples.
	var loads, stores int
	for _, mp := range f.Mem {
		if mp.Store {
			stores++
		} else {
			loads++
		}
	}
	if loads < stores {
		t.Errorf("loads %d < stores %d, triad is 2:1", loads, stores)
	}
}

func TestRunHPCGEndToEnd(t *testing.T) {
	run := runHPCG(t, testConfig(), testHPCGParams())
	if run.CG.Iterations != 4 {
		t.Errorf("iterations = %d", run.CG.Iterations)
	}
	// Residuals decrease (the solver works under full monitoring).
	rs := run.CG.Residuals
	if rs[len(rs)-1] >= rs[0] {
		t.Errorf("residuals not decreasing: %v", rs)
	}
	f := run.Folded
	if f.InstancesUsed == 0 {
		t.Fatal("no folded instances")
	}
	// IPC well below 1: memory bound, as the paper reports (~0.6).
	ipc := f.MeanIPC()
	if ipc <= 0.1 || ipc >= 1.2 {
		t.Errorf("mean IPC = %.3f, want memory-bound (~0.3-1)", ipc)
	}

	// The paper's phase structure: SYMGS appears twice (A, D), SpMV twice
	// (B, E), MG once (C) per iteration.
	counts := map[string]int{}
	for _, pp := range run.Paper {
		counts[strings.ToUpper(pp.Label[:1])]++
	}
	for _, letter := range []string{"A", "B", "D", "E"} {
		if counts[letter] == 0 {
			t.Errorf("paper phase %s not detected (labels: %v)", letter, labels(run))
		}
	}
	// SYMGS sweeps split into forward + backward.
	a1, okA1 := run.PhaseByLabel("a1")
	a2, okA2 := run.PhaseByLabel("a2")
	if okA1 && okA2 {
		if a1.Direction != folding.SweepForward {
			t.Errorf("a1 direction = %v", a1.Direction)
		}
		if a2.Direction != folding.SweepBackward {
			t.Errorf("a2 direction = %v", a2.Direction)
		}
	} else {
		t.Errorf("SYMGS sweeps not split: labels %v", labels(run))
	}
}

func labels(run *HPCGRun) []string {
	out := make([]string, len(run.Paper))
	for i, pp := range run.Paper {
		out[i] = pp.Label
	}
	return out
}

func TestHPCGBandwidthShape(t *testing.T) {
	// The paper's in-text numbers: SpMV (B) bandwidth exceeds the SYMGS
	// sweeps (a1, a2): 6427 vs 4197/4315 MB/s, a ratio of ~1.5.
	run := runHPCG(t, testConfig(), testHPCGParams())
	a1, ok1 := run.PhaseByLabel("a1")
	b, ok2 := run.PhaseByLabel("B")
	if !ok1 || !ok2 {
		t.Fatalf("phases missing: %v", labels(run))
	}
	if b.SpanBandwidth <= a1.SpanBandwidth {
		t.Errorf("SpMV bandwidth %.0f MB/s not above SYMGS %.0f MB/s",
			b.SpanBandwidth/1e6, a1.SpanBandwidth/1e6)
	}
	ratio := b.SpanBandwidth / a1.SpanBandwidth
	if ratio < 1.1 || ratio > 3.5 {
		t.Errorf("B/a1 bandwidth ratio = %.2f, paper shape ~1.5", ratio)
	}
	rows := run.BandwidthTable()
	if len(rows) < 3 {
		t.Errorf("bandwidth table rows = %d", len(rows))
	}
}

func TestHPCGObjectAccounting(t *testing.T) {
	run := runHPCG(t, testConfig(), testHPCGParams())
	matrix := run.MatrixGroup()
	maps := run.MapGroup()
	if matrix == nil || maps == nil {
		t.Fatal("allocation groups missing")
	}
	// Size ratio ~7:1 like the paper's 617:89 MB.
	ratio := float64(matrix.Bytes) / float64(maps.Bytes)
	if ratio < 5.5 || ratio > 9 {
		t.Errorf("size ratio = %.2f", ratio)
	}
	// The matrix dominates sampled references; the map region is not
	// touched during execution.
	if matrix.Refs == 0 {
		t.Error("matrix group unreferenced")
	}
	if maps.Refs != 0 {
		t.Errorf("map group referenced %d times during execution, want 0", maps.Refs)
	}
	// No stores into the matrix region (written only during setup).
	if matrix.Stores != 0 {
		t.Errorf("matrix group stores = %d, want 0", matrix.Stores)
	}
	// Resolution rate is high thanks to grouping.
	if rate := run.Session.Mon.Registry().ResolutionRate(); rate < 0.95 {
		t.Errorf("resolution rate = %.3f", rate)
	}
}

func TestHPCGFigure1Renders(t *testing.T) {
	run := runHPCG(t, testConfig(), testHPCGParams())
	fig := run.Figure1()
	var buf bytes.Buffer
	if err := fig.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Figure 1 (top)", "Figure 1 (middle)", "Figure 1 (bottom)",
		"124_GenerateProblem_ref.cpp", "Detected phases", "mean IPC",
		"MIPS", "legend: '.' load, '#' store",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered figure missing %q", want)
		}
	}
	// Stores must appear in the middle panel ('#') but only in the upper
	// (vector) part — spot-check that both markers exist.
	if !strings.Contains(out, "#") || !strings.Contains(out, ".") {
		t.Error("middle panel missing load/store marks")
	}
}

func TestWriteTraceRoundTrip(t *testing.T) {
	w := workloads.NewStream(1 << 12)
	res := mustRunWorkload(t, testConfig(), w, 5, 1)
	var prv, pcf bytes.Buffer
	if err := res.Machine.WriteTrace(&prv, &pcf); err != nil {
		t.Fatal(err)
	}
	if prv.Len() == 0 || pcf.Len() == 0 {
		t.Error("empty trace outputs")
	}
	if !strings.Contains(prv.String(), "#Paraver") {
		t.Error("prv header missing")
	}
	if !strings.Contains(pcf.String(), "stream_triad") {
		t.Error("pcf missing region label")
	}
}

// TestWriteTraceHPCGOrdering reproduces the late-drain scenario: with a
// buffered PEBS engine, samples drain after region records carrying later
// timestamps, and the drain must merge them into the log's time order.
// WriteTrace must produce a valid (per-thread monotonic) PRV trace.
func TestWriteTraceHPCGOrdering(t *testing.T) {
	run := runHPCG(t, testConfig(), testHPCGParams())
	var prv, pcf bytes.Buffer
	if err := run.Session.WriteTrace(&prv, &pcf); err != nil {
		t.Fatalf("WriteTrace on HPCG session: %v", err)
	}
	if prv.Len() == 0 {
		t.Error("empty prv output")
	}
}

func TestFoldUnknownRegion(t *testing.T) {
	s, err := NewSession(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fold(99); err == nil {
		t.Error("folding an absent region should fail")
	}
}
