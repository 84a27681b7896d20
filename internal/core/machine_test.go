package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/hpcg"
	"repro/internal/numa"
	"repro/internal/report"
	"repro/internal/workloads"
)

// TestSequentialCGIdenticalToOneWorkerTeam pins the two CG solves to each
// other on one thread: the sequential solve (RunHPCGCheckpointed, one
// CGRun.Step per instance) and the team-dispatched parallel solve with one
// worker (RunHPCGParallel) must be byte-identical — same trace records,
// cycles, PMU totals, cache statistics, PEBS stats, folded samples, paper
// labels and CG numerics.
func TestSequentialCGIdenticalToOneWorkerTeam(t *testing.T) {
	for _, mode := range []struct {
		name string
		cfg  func() Config
	}{
		{"randomized-mux", func() Config { cfg, _ := comparableConfigs(); return cfg }},
		{"deterministic", testConfig},
	} {
		t.Run(mode.name, func(t *testing.T) {
			params := hpcg.Params{NX: 8, NY: 8, NZ: 8, MGLevels: 2, MaxIters: 3}
			sess := runHPCG(t, mode.cfg(), params)
			mach, err := RunHPCGParallel(nil, mode.cfg(), params, 1)
			if err != nil {
				t.Fatal(err)
			}
			mt := mach.Machine.Primary()

			sRecs, mRecs := sess.Session.Mon.Records(), mt.Mon.Records()
			if len(sRecs) != len(mRecs) {
				t.Fatalf("record count: session %d, machine %d", len(sRecs), len(mRecs))
			}
			for i := range sRecs {
				if !reflect.DeepEqual(sRecs[i], mRecs[i]) {
					t.Fatalf("record %d differs:\nsession: %+v\nmachine: %+v", i, sRecs[i], mRecs[i])
				}
			}
			if a, b := sess.Session.Core.Cycles(), mt.Core.Cycles(); a != b {
				t.Errorf("cycles: session %d, machine %d", a, b)
			}
			if a, b := sess.Session.Core.PMU().TrueSnapshot(), mt.Core.PMU().TrueSnapshot(); a != b {
				t.Errorf("PMU totals: session %v, machine %v", a, b)
			}
			if a, b := sess.Session.Hier.Levels(), mt.Hier.Levels(); a != b {
				t.Fatalf("levels: session %d, machine %d", a, b)
			}
			for i := 0; i < mt.Hier.Levels(); i++ {
				if a, b := sess.Session.Hier.LevelStats(i), mt.Hier.LevelStats(i); a != b {
					t.Errorf("level %d stats: session %+v, machine %+v", i, a, b)
				}
			}
			if a, b := sess.Session.Hier.DRAMAccesses(), mt.Hier.DRAMAccesses(); a != b {
				t.Errorf("DRAM accesses: session %d, machine %d", a, b)
			}
			if a, b := sess.Session.Mon.Engine().Stats(), mt.Mon.Engine().Stats(); a != b {
				t.Errorf("PEBS stats: session %+v, machine %+v", a, b)
			}

			// Folded output and paper labels agree.
			sf, mf := sess.Folded, mach.Threads[0].Folded
			if len(sf.Mem) == 0 || len(sf.Mem) != len(mf.Mem) {
				t.Fatalf("folded samples: session %d, machine %d", len(sf.Mem), len(mf.Mem))
			}
			for i := range sf.Mem {
				if sf.Mem[i] != mf.Mem[i] {
					t.Fatalf("folded sample %d differs: %+v vs %+v", i, sf.Mem[i], mf.Mem[i])
				}
			}
			if !reflect.DeepEqual(sf.Phases, mf.Phases) {
				t.Errorf("phases differ: %+v vs %+v", sf.Phases, mf.Phases)
			}
			if !reflect.DeepEqual(sf.MIPS(), mf.MIPS()) {
				t.Error("MIPS curves differ")
			}
			sl := labels(sess)
			ml := make([]string, len(mach.Threads[0].Paper))
			for i, pp := range mach.Threads[0].Paper {
				ml[i] = pp.Label
			}
			if !reflect.DeepEqual(sl, ml) {
				t.Errorf("paper labels differ: %v vs %v", sl, ml)
			}

			// CG numerics are bit-identical with one worker.
			if !reflect.DeepEqual(sess.CG.Residuals, mach.CG.Residuals) {
				t.Errorf("residuals differ: %v vs %v", sess.CG.Residuals, mach.CG.Residuals)
			}
			if sess.CG.FinalError != mach.CG.FinalError {
				t.Errorf("final error differs: %g vs %g", sess.CG.FinalError, mach.CG.FinalError)
			}
		})
	}
}

// TestMachineFigureL3CountersOneThread pins the per-thread report's
// cache-wide L3 counters on one thread: the flat machine's private L3 must
// report what a 1-socket routed machine's shared L3 reports.
func TestMachineFigureL3CountersOneThread(t *testing.T) {
	params := hpcg.Params{NX: 16, NY: 16, NZ: 16, MGLevels: 2, MaxIters: 2}
	cfg := testConfig()
	cfg.Cache.Levels[2].Size = 320 << 10 // 256 sets: the problem spills
	figure := func(cfg Config) *report.MachineFigure {
		run, err := RunHPCGParallel(nil, cfg, params, 1)
		if err != nil {
			t.Fatal(err)
		}
		return run.Figure()
	}
	flat := figure(cfg)
	cfg.NUMA = numa.Config{Sockets: 1}
	routed := figure(cfg)
	if !reflect.DeepEqual(flat.L3, routed.L3) {
		t.Errorf("L3 attribution: flat %+v, routed %+v", flat.L3, routed.L3)
	}
	if l3 := flat.L3; l3.Writebacks == 0 || l3.Prefetches == 0 || l3.PrefHits == 0 {
		t.Errorf("flat one-thread L3 counters read zero: %+v", l3)
	}
}

// machineTestParams is the 4-thread integration scale: large enough that
// every thread's block shows the full per-iteration phase structure.
func machineTestParams() hpcg.Params {
	return hpcg.Params{NX: 16, NY: 16, NZ: 16, MGLevels: 2, MaxIters: 4}
}

func machineTestConfig() Config {
	cfg := testConfig()
	// Per-thread sample density: each thread sees ~1/4 of the traffic.
	cfg.Monitor.PEBS.Period = 60
	return cfg
}

// TestMachineHPCGFourThreads runs the OpenMP-style 4-thread reproduction
// and checks the acceptance shape: the solver converges, every thread
// folds its own CG_iteration instances, and every thread reproduces the
// paper's phase structure (a1, a2, B, C, d1, d2, E — 7 phases) from its
// own trace stream.
func TestMachineHPCGFourThreads(t *testing.T) {
	const threads = 4
	run, err := RunHPCGParallel(nil, machineTestConfig(), machineTestParams(), threads)
	if err != nil {
		t.Fatal(err)
	}
	if run.CG.Iterations != 4 {
		t.Errorf("iterations = %d", run.CG.Iterations)
	}
	rs := run.CG.Residuals
	if rs[len(rs)-1] >= rs[0] {
		t.Errorf("residuals not decreasing under block-parallel SYMGS: %v", rs)
	}
	if got := len(run.Threads); got != threads {
		t.Fatalf("folded threads = %d", got)
	}
	for _, tr := range run.Threads {
		if tr.Folded.InstancesUsed == 0 {
			t.Fatalf("thread %d: no folded instances", tr.Thread)
		}
		var pl []string
		for _, pp := range tr.Paper {
			pl = append(pl, pp.Label)
		}
		if len(tr.Paper) < 7 {
			t.Errorf("thread %d: %d phases (%v), want the paper's 7", tr.Thread, len(tr.Paper), pl)
		}
		for _, want := range []string{"a1", "a2", "B", "C", "d1", "d2", "E"} {
			if _, ok := run.PhaseByLabel(tr.Thread, want); !ok {
				t.Errorf("thread %d: paper phase %s missing (labels %v)", tr.Thread, want, pl)
			}
		}
	}
	// Threads partition the fine rows: each thread's sampled addresses
	// should concentrate on its own block, so the per-thread a1 spans
	// must be (roughly) disjoint and ascending with the thread id.
	var prevLo uint64
	for th := 1; th <= threads; th++ {
		p, ok := run.PhaseByLabel(th, "a1")
		if !ok {
			continue
		}
		if th > 1 && p.AddrLo <= prevLo {
			t.Errorf("thread %d a1 block starts at %#x, not above thread %d's %#x",
				th, p.AddrLo, th-1, prevLo)
		}
		prevLo = p.AddrLo
	}
	// The shared L3 saw traffic from every thread, and per-thread L3 miss
	// attribution sums to the cache-wide DRAM fills.
	var dram uint64
	for _, mt := range run.Machine.Threads {
		st := mt.Hier.LevelStats(2)
		dram += st.Misses
		if st.Accesses == 0 {
			t.Error("a thread never reached the shared L3")
		}
	}
	if llcMisses := run.Machine.L3s[0].Stats().Misses; llcMisses != dram {
		t.Errorf("shared L3 misses %d != summed per-thread DRAM fills %d", llcMisses, dram)
	}
	// The merged trace round-trips through the PRV writer with 4 threads.
	var prv, pcf bytes.Buffer
	if err := run.Machine.WriteTrace(&prv, &pcf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prv.String(), "#Paraver") {
		t.Error("prv header missing")
	}
	header := strings.SplitN(prv.String(), "\n", 2)[0]
	if !strings.HasSuffix(header, ":1:4") {
		t.Errorf("header %q does not declare 4 threads", header)
	}
}

// TestMachineStreamSingleThreadIdentical pins RunWorkload's one-thread
// schedule to the whole block in one call: a 1-thread STREAM run through
// the instance-boundary loop produces the trace and simulation state of
// w.Run on a Session.
func TestMachineStreamSingleThreadIdentical(t *testing.T) {
	cfg, _ := comparableConfigs()
	sess, sf := sessionRun(t, cfg, workloads.NewStream(1<<13), 12)
	mach := mustRunWorkload(t, cfg, workloads.NewStream(1<<13), 12, 1)
	mt := mach.Machine.Primary()
	sRecs, mRecs := sess.Mon.Records(), mt.Mon.Records()
	if len(sRecs) != len(mRecs) {
		t.Fatalf("record count: session %d, machine %d", len(sRecs), len(mRecs))
	}
	for i := range sRecs {
		if !reflect.DeepEqual(sRecs[i], mRecs[i]) {
			t.Fatalf("record %d differs:\nsession: %+v\nmachine: %+v", i, sRecs[i], mRecs[i])
		}
	}
	if a, b := sess.Core.PMU().TrueSnapshot(), mt.Core.PMU().TrueSnapshot(); a != b {
		t.Errorf("PMU totals: session %v, machine %v", a, b)
	}
	if a, b := len(sf.Mem), len(mach.Threads[0].Folded.Mem); a != b {
		t.Errorf("folded samples: session %d, machine %d", a, b)
	}
}

// TestMachineStreamFourThreads runs the triad across 4 cores: every
// thread folds instances over its own disjoint block of the arrays (the
// per-thread blocks ascend in address), and the triad arithmetic is
// correct.
func TestMachineStreamFourThreads(t *testing.T) {
	const threads = 4
	cfg := testConfig()
	cfg.Monitor.PEBS.Period = 60
	w := workloads.NewStream(1 << 14)
	res := mustRunWorkload(t, cfg, w, 20, threads)
	for i := 0; i < w.N; i += 500 {
		if w.Value(i) != w.Expected(i) {
			t.Fatalf("triad wrong at %d: %g != %g", i, w.Value(i), w.Expected(i))
		}
	}
	if len(res.Threads) != threads {
		t.Fatalf("folded threads = %d", len(res.Threads))
	}
	var prevLo uint64
	for _, tr := range res.Threads {
		if tr.Folded.InstancesUsed < 15 {
			t.Errorf("thread %d: %d instances", tr.Thread, tr.Folded.InstancesUsed)
		}
		if len(tr.Folded.Phases) == 0 {
			t.Fatalf("thread %d: no phases", tr.Thread)
		}
		// (Sweep-direction classification needs the full-array span and is
		// pinned by the single-thread STREAM test; per-thread blocks over
		// three interleaved arrays only guarantee the address ordering.)
		p := tr.Folded.Phases[0]
		if tr.Thread > 1 && p.AddrLo <= prevLo {
			t.Errorf("thread %d block %#x not above thread %d's %#x",
				tr.Thread, p.AddrLo, tr.Thread-1, prevLo)
		}
		prevLo = p.AddrLo
	}
}

// TestMachineValidation covers constructor errors.
func TestMachineValidation(t *testing.T) {
	if _, err := NewMachine(testConfig(), 0); err == nil {
		t.Error("0 threads accepted")
	}
	bad := testConfig()
	bad.Cache.Levels = bad.Cache.Levels[:1]
	if _, err := NewMachine(bad, 2); err == nil {
		t.Error("single-level cache accepted for a machine")
	}
	// One thread keeps every level private, so any depth works.
	if m, err := NewMachine(bad, 1); err != nil || m.Primary().Hier.Levels() != 1 || len(m.L3s) != 0 {
		t.Errorf("one-thread flat machine over one level: err %v", err)
	}
}
