package core

import (
	"reflect"
	"testing"

	"repro/internal/hpcg"
	"repro/internal/pebs"
	"repro/internal/workloads"
)

// These tests pin the fast simulation path (countdown-gated sampling +
// batched stream issue + packed cache model) to the straightforward
// reference path (per-op observation, per-op issue): a seeded run must
// produce byte-identical traces — samples, phase labels, MIPS curve —
// and identical PMU totals, per-level cache statistics and PEBS engine
// statistics either way.

func comparableConfigs() (fast, ref Config) {
	fast = DefaultConfig()
	fast.Monitor.PEBS.Period = 150
	fast.Monitor.PEBS.Randomize = true
	fast.Monitor.PEBS.Seed = 7
	fast.Monitor.PEBS.LatencyThreshold = 3
	fast.Monitor.PEBS.Events = pebs.SampleLoads | pebs.SampleStores
	fast.Monitor.MuxQuantumNs = 25_000 // rotate many times per run
	ref = fast
	ref.Reference = true
	return fast, ref
}

func assertRunsIdentical(t *testing.T, fastS, refS *MachineThread) {
	t.Helper()
	fastRecs, refRecs := fastS.Mon.Records(), refS.Mon.Records()
	if len(fastRecs) != len(refRecs) {
		t.Fatalf("record count: fast %d, reference %d", len(fastRecs), len(refRecs))
	}
	for i := range fastRecs {
		if !reflect.DeepEqual(fastRecs[i], refRecs[i]) {
			t.Fatalf("record %d differs:\nfast: %+v\nref:  %+v", i, fastRecs[i], refRecs[i])
		}
	}
	if f, r := fastS.Core.Cycles(), refS.Core.Cycles(); f != r {
		t.Errorf("cycles: fast %d, reference %d", f, r)
	}
	if f, r := fastS.Core.PMU().TrueSnapshot(), refS.Core.PMU().TrueSnapshot(); f != r {
		t.Errorf("PMU totals: fast %v, reference %v", f, r)
	}
	for i := 0; i < fastS.Hier.Levels(); i++ {
		if f, r := fastS.Hier.LevelStats(i), refS.Hier.LevelStats(i); f != r {
			t.Errorf("level %d stats: fast %+v, reference %+v", i, f, r)
		}
	}
	if f, r := fastS.Hier.DRAMAccesses(), refS.Hier.DRAMAccesses(); f != r {
		t.Errorf("DRAM accesses: fast %d, reference %d", f, r)
	}
	if f, r := fastS.Mon.Engine().Stats(), refS.Mon.Engine().Stats(); f != r {
		t.Errorf("PEBS stats: fast %+v, reference %+v", f, r)
	}
}

func TestFastPathEquivalenceHPCG(t *testing.T) {
	fastCfg, refCfg := comparableConfigs()
	params := hpcg.Params{NX: 8, NY: 8, NZ: 8, MGLevels: 2, MaxIters: 3}

	fast := runHPCG(t, fastCfg, params)
	ref := runHPCG(t, refCfg, params)
	assertRunsIdentical(t, fast.Session.MachineThread, ref.Session.MachineThread)

	// Folded output: identical samples, phase labels and MIPS curve.
	if len(fast.Folded.Mem) == 0 {
		t.Fatal("no folded samples: equivalence test is vacuous")
	}
	if f, r := len(fast.Folded.Mem), len(ref.Folded.Mem); f != r {
		t.Fatalf("folded samples: fast %d, reference %d", f, r)
	}
	for i := range fast.Folded.Mem {
		if fast.Folded.Mem[i] != ref.Folded.Mem[i] {
			t.Fatalf("folded sample %d differs: %+v vs %+v",
				i, fast.Folded.Mem[i], ref.Folded.Mem[i])
		}
	}
	if !reflect.DeepEqual(fast.Folded.Phases, ref.Folded.Phases) {
		t.Errorf("phases differ: %+v vs %+v", fast.Folded.Phases, ref.Folded.Phases)
	}
	if !reflect.DeepEqual(fast.Folded.MIPS(), ref.Folded.MIPS()) {
		t.Error("MIPS curves differ")
	}
	fl, rl := labels(fast), labels(ref)
	if !reflect.DeepEqual(fl, rl) {
		t.Errorf("paper labels differ: %v vs %v", fl, rl)
	}
}

func TestFastPathEquivalenceHPCGDeterministic(t *testing.T) {
	// Same comparison with randomization off, no threshold, no mux: the
	// configuration the figure benches use.
	fastCfg := testConfig()
	refCfg := fastCfg
	refCfg.Reference = true
	params := hpcg.Params{NX: 8, NY: 8, NZ: 8, MGLevels: 2, MaxIters: 2}
	fast := runHPCG(t, fastCfg, params)
	ref := runHPCG(t, refCfg, params)
	assertRunsIdentical(t, fast.Session.MachineThread, ref.Session.MachineThread)
}

func TestFastPathEquivalenceStream(t *testing.T) {
	fastCfg, refCfg := comparableConfigs()
	fast := mustRunWorkload(t, fastCfg, workloads.NewStream(1<<13), 12, 1)
	ref := mustRunWorkload(t, refCfg, workloads.NewStream(1<<13), 12, 1)
	assertRunsIdentical(t, fast.Machine.Primary(), ref.Machine.Primary())
	if len(fast.Threads[0].Folded.Mem) == 0 {
		t.Fatal("no folded samples: equivalence test is vacuous")
	}
	var loads, stores int
	for _, mp := range fast.Threads[0].Folded.Mem {
		if mp.Store {
			stores++
		} else {
			loads++
		}
	}
	if loads == 0 || stores == 0 {
		t.Errorf("multiplexed run should sample both classes: loads=%d stores=%d", loads, stores)
	}
}

func TestFastPathEquivalenceRandomAccess(t *testing.T) {
	// Random access defeats the bulk path (every access its own line) but
	// still exercises the gated monitor against the per-op reference.
	fastCfg, refCfg := comparableConfigs()
	fast := mustRunWorkload(t, fastCfg, workloads.NewRandomAccess(1<<14, 4000, 3), 8, 1)
	ref := mustRunWorkload(t, refCfg, workloads.NewRandomAccess(1<<14, 4000, 3), 8, 1)
	assertRunsIdentical(t, fast.Machine.Primary(), ref.Machine.Primary())
}

func TestFastPathEquivalencePointerChase(t *testing.T) {
	// Dependency-chained loads: every access stalls for its full latency,
	// so the gated path must agree on every countdown boundary.
	fastCfg, refCfg := comparableConfigs()
	fast := mustRunWorkload(t, fastCfg, workloads.NewPointerChase(1<<12, 5), 8, 1)
	ref := mustRunWorkload(t, refCfg, workloads.NewPointerChase(1<<12, 5), 8, 1)
	assertRunsIdentical(t, fast.Machine.Primary(), ref.Machine.Primary())
}

func TestFastPathEquivalenceMatMul(t *testing.T) {
	// Mixed pattern: cache-resident A rows, strided B columns, per-element
	// loads with interleaved compute.
	fastCfg, refCfg := comparableConfigs()
	fast := mustRunWorkload(t, fastCfg, workloads.NewMatMul(24), 3, 1)
	ref := mustRunWorkload(t, refCfg, workloads.NewMatMul(24), 3, 1)
	assertRunsIdentical(t, fast.Machine.Primary(), ref.Machine.Primary())
}

func TestFastPathEquivalenceSpMV(t *testing.T) {
	// CSR SpMV mixes the batched stream issue (values, column indices)
	// with an indexed x gather — the access shape of HPCG's SpMV phase.
	fastCfg, refCfg := comparableConfigs()
	fast := mustRunWorkload(t, fastCfg, workloads.NewSpMV(12, 12, 12), 4, 1)
	ref := mustRunWorkload(t, refCfg, workloads.NewSpMV(12, 12, 12), 4, 1)
	assertRunsIdentical(t, fast.Machine.Primary(), ref.Machine.Primary())
	if len(fast.Threads[0].Folded.Mem) == 0 {
		t.Fatal("no folded samples: equivalence test is vacuous")
	}
}
