package folding

import (
	"math"
	"testing"

	"repro/internal/cpu"
	"repro/internal/memhier"
	"repro/internal/trace"
)

// synthInstance builds one instance of duration durNs starting at t0 with
// nSamples samples. The instance has two halves: first half executes at
// ipA sweeping addresses forward over [addrBase, addrBase+span), second
// half at ipB sweeping backward over the same range. Instructions
// accumulate linearly; every 4th sample is a store.
func synthInstance(t0, durNs uint64, nSamples int, ipA, ipB, addrBase, span uint64) Instance {
	const totalInstr = 1_000_000
	in := Instance{T0: t0, T1: t0 + durNs}
	in.C1[cpu.CtrInstructions] = in.C0[cpu.CtrInstructions] + totalInstr
	in.C0[cpu.CtrCycles] = 0
	in.C1[cpu.CtrCycles] = 2 * totalInstr // IPC 0.5
	in.C0[cpu.CtrBranches] = 0
	in.C1[cpu.CtrBranches] = totalInstr / 10
	in.C0[cpu.CtrL1DMiss] = 0
	in.C1[cpu.CtrL1DMiss] = totalInstr / 20
	samples := make([]trace.Event, 0, nSamples)
	for i := 0; i < nSamples; i++ {
		sigma := (float64(i) + 0.5) / float64(nSamples)
		s := trace.Event{
			Kind:    trace.KindSample,
			TimeNs:  t0 + uint64(sigma*float64(durNs)),
			Store:   i%4 == 0,
			Size:    8,
			Source:  uint8(memhier.SrcL2),
			Latency: 12,
		}
		s.Counters[cpu.CtrInstructions] = uint64(sigma * totalInstr)
		s.Counters[cpu.CtrCycles] = uint64(sigma * 2 * totalInstr)
		s.Counters[cpu.CtrBranches] = uint64(sigma * totalInstr / 10)
		s.Counters[cpu.CtrL1DMiss] = uint64(sigma * totalInstr / 20)
		if sigma < 0.5 {
			s.IP = ipA
			s.Addr = addrBase + uint64(2*sigma*float64(span))
		} else {
			s.IP = ipB
			s.Addr = addrBase + span - uint64(2*(sigma-0.5)*float64(span))
		}
		samples = append(samples, s)
	}
	in.Events = [][]trace.Event{samples}
	return in
}

// sampleEvents returns an instance's sample events, in place.
func sampleEvents(in *Instance) []*trace.Event {
	var out []*trace.Event
	for _, seg := range in.Events {
		for i := range seg {
			if seg[i].Kind == trace.KindSample {
				out = append(out, &seg[i])
			}
		}
	}
	return out
}

// logOf logs events in the order given.
func logOf(events ...trace.Event) *trace.Log {
	var l trace.Log
	l.Add(events...)
	return &l
}

func synthInstances(n int) []Instance {
	const dur = 1_000_000 // 1 ms
	out := make([]Instance, 0, n)
	for i := 0; i < n; i++ {
		// Jitter the per-instance sample phase by varying the count.
		out = append(out, synthInstance(uint64(i)*2*dur, dur, 40+i%7,
			0x401000, 0x402000, 0x10000000, 1<<26))
	}
	return out
}

func TestFoldErrors(t *testing.T) {
	if _, err := Fold(nil, DefaultConfig()); err == nil {
		t.Error("empty instances accepted")
	}
}

func TestFoldBasics(t *testing.T) {
	f, err := Fold(synthInstances(20), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if f.InstancesUsed != 20 || f.InstancesTotal != 20 {
		t.Errorf("instances = %d/%d", f.InstancesUsed, f.InstancesTotal)
	}
	if math.Abs(f.MeanDurationNs-1e6) > 1 {
		t.Errorf("mean duration = %g", f.MeanDurationNs)
	}
	if math.Abs(f.MeanTotals[cpu.CtrInstructions]-1e6) > 1 {
		t.Errorf("mean instructions = %g", f.MeanTotals[cpu.CtrInstructions])
	}
	if ipc := f.MeanIPC(); math.Abs(ipc-0.5) > 1e-9 {
		t.Errorf("MeanIPC = %g, want 0.5", ipc)
	}
}

func TestFoldedCumulativeMonotone(t *testing.T) {
	f, err := Fold(synthInstances(20), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for c, curve := range f.Cumulative {
		if f.MeanTotals[c] == 0 {
			continue // counter never increments: flat zero curve
		}
		if curve[0] != 0 || curve[len(curve)-1] != 1 {
			t.Errorf("%v: endpoints %g, %g", c, curve[0], curve[len(curve)-1])
		}
		for i := 1; i < len(curve); i++ {
			if curve[i] < curve[i-1] {
				t.Fatalf("%v: cumulative curve not monotone at %d", c, i)
			}
		}
	}
}

func TestFoldedRateMatchesLinearAccumulation(t *testing.T) {
	// Instructions accumulate linearly: the folded rate must be flat at
	// total/duration = 1e6 instr / 1e-3 s = 1e9/s → 1000 MIPS.
	f, err := Fold(synthInstances(30), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mips := f.MIPS()
	for i, g := range f.Grid {
		if g < 0.1 || g > 0.9 {
			continue // edges have derivative bias
		}
		if math.Abs(mips[i]-1000)/1000 > 0.15 {
			t.Errorf("MIPS(%.2f) = %g, want ~1000", g, mips[i])
		}
	}
}

func TestPerInstruction(t *testing.T) {
	f, err := Fold(synthInstances(20), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	br := f.PerInstruction(cpu.CtrBranches)
	for i, g := range f.Grid {
		if g < 0.1 || g > 0.9 {
			continue
		}
		if math.Abs(br[i]-0.1) > 0.03 {
			t.Errorf("branches/instr at %.2f = %g, want ~0.1", g, br[i])
		}
	}
}

func TestOutlierFiltering(t *testing.T) {
	ins := synthInstances(10)
	// One instance 10x longer (e.g. perturbed by OS noise).
	long := synthInstance(100_000_000, 10_000_000, 40, 0x401000, 0x402000, 0x10000000, 1<<26)
	ins = append(ins, long)
	f, err := Fold(ins, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if f.InstancesUsed != 10 || f.InstancesTotal != 11 {
		t.Errorf("outlier not filtered: used %d of %d", f.InstancesUsed, f.InstancesTotal)
	}
	// Factor 0 disables filtering.
	cfg := DefaultConfig()
	cfg.OutlierFactor = 0
	f2, _ := Fold(ins, cfg)
	if f2.InstancesUsed != 11 {
		t.Errorf("filtering not disabled: %d", f2.InstancesUsed)
	}
}

func TestMemSamplesFoldedSorted(t *testing.T) {
	f, err := Fold(synthInstances(15), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Mem) == 0 || len(f.Lines) != len(f.Mem) {
		t.Fatalf("mem/lines = %d/%d", len(f.Mem), len(f.Lines))
	}
	for i := 1; i < len(f.Mem); i++ {
		if f.Mem[i].Sigma < f.Mem[i-1].Sigma {
			t.Fatal("Mem not sorted by sigma")
		}
	}
	for _, mp := range f.Mem {
		if mp.Sigma < 0 || mp.Sigma >= 1 {
			t.Fatalf("sigma %g out of range", mp.Sigma)
		}
	}
	var stores int
	for _, mp := range f.Mem {
		if mp.Store {
			stores++
		}
	}
	if stores == 0 || stores == len(f.Mem) {
		t.Error("store flags not preserved")
	}
}

func TestPhaseDetectionSplitsFunctionsAndSweeps(t *testing.T) {
	f, err := Fold(synthInstances(30), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Phases) < 2 {
		t.Fatalf("detected %d phases, want >= 2 (two IP regions)", len(f.Phases))
	}
	// Phases tile [0,1].
	if f.Phases[0].Lo != 0 || f.Phases[len(f.Phases)-1].Hi != 1 {
		t.Errorf("phases do not span [0,1]: %+v", f.Phases)
	}
	for i := 1; i < len(f.Phases); i++ {
		if f.Phases[i].Lo != f.Phases[i-1].Hi {
			t.Errorf("gap between phases %d and %d", i-1, i)
		}
	}
	// First phase sweeps forward, last sweeps backward.
	first, last := f.Phases[0], f.Phases[len(f.Phases)-1]
	if first.Direction != SweepForward {
		t.Errorf("first phase direction = %v, want forward", first.Direction)
	}
	if last.Direction != SweepBackward {
		t.Errorf("last phase direction = %v, want backward", last.Direction)
	}
	if first.DominantIP != 0x401000 || last.DominantIP != 0x402000 {
		t.Errorf("dominant IPs = %#x, %#x", first.DominantIP, last.DominantIP)
	}
}

func TestPhaseBandwidthApproximation(t *testing.T) {
	// Forward sweep covers 64 MiB in ~0.5 ms → ~128 GiB/s span bandwidth.
	f, err := Fold(synthInstances(30), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := f.Phases[0]
	want := float64(1<<26) / (0.5e6 / 1e9)
	if p.SpanBandwidth < want/3 || p.SpanBandwidth > want*3 {
		t.Errorf("span bandwidth = %g, want within 3x of %g", p.SpanBandwidth, want)
	}
	if p.MIPSMean < 500 || p.MIPSMean > 1500 {
		t.Errorf("phase MIPS = %g, want ~1000", p.MIPSMean)
	}
	if p.Loads == 0 || p.Stores == 0 {
		t.Error("phase sample counts empty")
	}
	if p.PerInstr[cpu.CtrBranches] == 0 {
		t.Error("phase per-instruction ratios empty")
	}
}

func TestLabelPhases(t *testing.T) {
	f, err := Fold(synthInstances(20), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f.LabelPhases(func(ip uint64) string {
		if ip < 0x402000 {
			return "funcA"
		}
		return "funcB"
	})
	if f.Phases[0].Name != "funcA[forward]" {
		t.Errorf("phase 0 name = %q", f.Phases[0].Name)
	}
	last := f.Phases[len(f.Phases)-1]
	if last.Name != "funcB[backward]" {
		t.Errorf("last phase name = %q", last.Name)
	}
	// Nil resolver is a no-op.
	f.Phases[0].Name = "keep"
	f.LabelPhases(nil)
	if f.Phases[0].Name != "keep" {
		t.Error("nil resolver modified names")
	}
}

func TestPhaseAt(t *testing.T) {
	f, err := Fold(synthInstances(20), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, ok := f.PhaseAt(0.1)
	if !ok || p.Lo > 0.1 || p.Hi <= 0.1 {
		t.Errorf("PhaseAt(0.1) = %+v, %v", p, ok)
	}
	if _, ok := f.PhaseAt(1.5); ok {
		t.Error("PhaseAt(1.5) matched")
	}
}

func TestSweepDirString(t *testing.T) {
	if SweepFlat.String() != "flat" || SweepForward.String() != "forward" ||
		SweepBackward.String() != "backward" {
		t.Error("SweepDir names")
	}
	if SweepDir(7).String() != "SweepDir(7)" {
		t.Error("unknown SweepDir")
	}
}

func TestExtractInstances(t *testing.T) {
	sample := trace.Event{TimeNs: 150, Kind: trace.KindSample, Addr: 0x1000, Latency: 36,
		Source: uint8(memhier.SrcL3), Store: true, IP: 0x400100, StackID: 3, Size: 8,
		Counted: 1 << cpu.CtrInstructions}
	sample.Counters[cpu.CtrInstructions] = 50
	log := logOf(
		regionEv(100, 7, 10),
		sample,
		regionEv(200, 0, 110),
		// A sample outside any instance is ignored.
		sampleEv(250, 0x9999),
		// Second instance, no samples.
		regionEv(300, 7, 200),
		regionEv(400, 0, 300),
	)
	ins, err := Extract(log, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 2 {
		t.Fatalf("extracted %d instances", len(ins))
	}
	in := ins[0]
	if in.T0 != 100 || in.T1 != 200 || in.DurationNs() != 100 {
		t.Errorf("instance bounds = %d..%d", in.T0, in.T1)
	}
	if in.C0[cpu.CtrInstructions] != 10 || in.C1[cpu.CtrInstructions] != 110 {
		t.Errorf("instance counters = %v..%v", in.C0, in.C1)
	}
	if in.NumSamples() != 1 {
		t.Fatalf("instance samples = %d", in.NumSamples())
	}
	s := sampleEvents(&in)[0]
	if s.Addr != 0x1000 || s.Latency != 36 || memhier.DataSource(s.Source) != memhier.SrcL3 ||
		!s.Store || s.IP != 0x400100 || s.StackID != 3 || s.Size != 8 ||
		s.Counters[cpu.CtrInstructions] != 50 {
		t.Errorf("sample = %+v", s)
	}
	if ins[1].NumSamples() != 0 {
		t.Error("second instance should have no samples")
	}
}

func TestExtractNestedRejected(t *testing.T) {
	if _, err := Extract(logOf(regionEv(1, 7, 0), regionEv(2, 7, 0)), 7); err == nil {
		t.Error("nested instance accepted")
	}
}

func TestExtractIgnoresOtherRegions(t *testing.T) {
	ins, err := Extract(logOf(regionEv(1, 5, 0), regionEv(2, 0, 0)), 7)
	if err != nil || len(ins) != 0 {
		t.Errorf("ins = %v, err = %v", ins, err)
	}
}

// regionEv builds a region event carrying the instruction counter.
func regionEv(tns uint64, value int64, instr uint64) trace.Event {
	e := trace.Event{TimeNs: tns, Kind: trace.KindRegion, Addr: uint64(value), Counted: 1 << cpu.CtrInstructions}
	e.Counters[cpu.CtrInstructions] = instr
	return e
}

// sampleEv builds a sample event with only an address.
func sampleEv(tns uint64, addr uint64) trace.Event {
	return trace.Event{TimeNs: tns, Kind: trace.KindSample, Addr: addr}
}

// record renders an event as the given emitter's record.
func record(task, thread int, e trace.Event) trace.Record {
	return trace.Record{TimeNs: e.TimeNs, Task: task, Thread: thread, Pairs: e.AppendPairs(nil)}
}

// TestExtractThreadInterleaved is the regression test for thread-blind
// extraction: a merged two-thread trace interleaves region events and
// samples, and a per-thread extraction must see only its own thread's
// instances and samples, at its own timestamps.
func TestExtractThreadInterleaved(t *testing.T) {
	// Thread 1: instance [100, 300] with a sample at 200.
	// Thread 2: instance [150, 420] with samples at 180 and 350 — its
	// region events land inside thread 1's instance in the merged order.
	t1 := []trace.Event{regionEv(100, 7, 10), sampleEv(200, 0x1000), regionEv(300, 0, 110)}
	t2 := []trace.Event{regionEv(150, 7, 1000), sampleEv(180, 0x2000), sampleEv(350, 0x3000), regionEv(420, 0, 1500)}
	var merged []trace.Record
	var all []trace.Event
	for _, r := range trace.Merge(logOf(t1...), logOf(t2...)) {
		merged = append(merged, record(1, r.Log+1, *r.Event))
		all = append(all, *r.Event)
	}
	for _, tc := range []struct {
		thread  int
		t0, t1  uint64
		samples []uint64
		c0, c1  uint64
	}{
		{thread: 1, t0: 100, t1: 300, samples: []uint64{0x1000}, c0: 10, c1: 110},
		{thread: 2, t0: 150, t1: 420, samples: []uint64{0x2000, 0x3000}, c0: 1000, c1: 1500},
	} {
		ins, err := ExtractThread(merged, 7, 1, tc.thread)
		if err != nil {
			t.Fatalf("thread %d: %v", tc.thread, err)
		}
		if len(ins) != 1 {
			t.Fatalf("thread %d: %d instances, want 1", tc.thread, len(ins))
		}
		in := ins[0]
		if in.T0 != tc.t0 || in.T1 != tc.t1 {
			t.Errorf("thread %d: bounds %d..%d, want %d..%d", tc.thread, in.T0, in.T1, tc.t0, tc.t1)
		}
		if in.C0[cpu.CtrInstructions] != tc.c0 || in.C1[cpu.CtrInstructions] != tc.c1 {
			t.Errorf("thread %d: counters %d..%d, want %d..%d", tc.thread,
				in.C0[cpu.CtrInstructions], in.C1[cpu.CtrInstructions], tc.c0, tc.c1)
		}
		samples := sampleEvents(&in)
		if len(samples) != len(tc.samples) {
			t.Fatalf("thread %d: %d samples, want %d", tc.thread, len(samples), len(tc.samples))
		}
		for i, want := range tc.samples {
			if samples[i].Addr != want {
				t.Errorf("thread %d sample %d: addr %#x, want %#x", tc.thread, i, samples[i].Addr, want)
			}
		}
	}
	if _, err := ExtractThread(merged, 7, 0, 1); err == nil {
		t.Error("0-based task accepted")
	}
	// A thread-blind Extract cannot parse this stream (thread 2's entry
	// nests inside thread 1's open instance of the same region id).
	if _, err := Extract(logOf(all...), 7); err == nil {
		t.Error("thread-blind Extract accepted an interleaved merged trace")
	}
}

// TestExtractNestedRegionInsideEnclosure pins the nesting semantics for
// the common well-nested case: extracting a nested region (SYMGS inside a
// CG iteration) must close each instance at its own LIFO-matched end, not
// at the enclosing region's end — region events of the enclosure (its
// open before the instance, its end after) must not perturb the instance
// bounds.
func TestExtractNestedRegionInsideEnclosure(t *testing.T) {
	log := logOf(
		regionEv(0, 5, 0),    // enclosing iteration opens
		regionEv(10, 7, 100), // nested target instance opens
		sampleEv(20, 0x1000),
		regionEv(50, 0, 400), // the instance's own end (LIFO)
		sampleEv(60, 0x2000), // outside the instance: dropped
		regionEv(90, 0, 900), // the enclosure's end: ignored
		// Second iteration with a second instance.
		regionEv(100, 5, 1000),
		regionEv(110, 7, 1100),
		regionEv(150, 0, 1400),
		regionEv(190, 0, 1900),
	)
	ins, err := Extract(log, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 2 {
		t.Fatalf("%d instances, want 2", len(ins))
	}
	if in := ins[0]; in.T0 != 10 || in.T1 != 50 || in.C1[cpu.CtrInstructions] != 400 {
		t.Errorf("instance 0 = %d..%d (exit ctr %d), want 10..50 (400)",
			in.T0, in.T1, in.C1[cpu.CtrInstructions])
	}
	if s := sampleEvents(&ins[0]); len(s) != 1 || s[0].Addr != 0x1000 {
		t.Errorf("instance 0 samples = %+v, want the single in-instance sample", s)
	}
	if in := ins[1]; in.T0 != 110 || in.T1 != 150 {
		t.Errorf("instance 1 = %d..%d, want 110..150", in.T0, in.T1)
	}
}

// TestExtractIgnoresUnmatchedEnds covers ends whose opens are not in the
// records (regions entered before monitoring started): between instances
// they must not disturb extraction.
func TestExtractIgnoresUnmatchedEnds(t *testing.T) {
	log := logOf(
		regionEv(5, 0, 0), // end of a region opened before the trace
		regionEv(10, 7, 100),
		regionEv(100, 0, 900),
		regionEv(150, 0, 950), // another stray end between instances
		regionEv(200, 7, 1000),
		regionEv(300, 0, 1900),
	)
	ins, err := Extract(log, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 2 {
		t.Fatalf("%d instances, want 2", len(ins))
	}
	if ins[0].T0 != 10 || ins[0].T1 != 100 || ins[1].T0 != 200 || ins[1].T1 != 300 {
		t.Errorf("instances mishandled around stray ends: %+v", ins)
	}
}
