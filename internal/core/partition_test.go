package core

import (
	"reflect"
	"testing"

	"repro/internal/folding"
	"repro/internal/workloads"
)

// Partition-equivalence suite for the promoted workloads: RunWorkload on
// one thread (one RunPartitionRange call per instance, through the
// instance-boundary loop) must be byte-identical to one whole-window
// RunPartitionRange call on a Session, and N-thread runs must fold every
// thread. This extends
// TestMachineStreamSingleThreadIdentical to every partitioned workload.

// partitionedWorkloads builds a fresh instance of every synthetic
// partitioned workload at regression scale.
func partitionedWorkloads() map[string]func() workloads.Workload {
	return map[string]func() workloads.Workload{
		"stream":        func() workloads.Workload { return workloads.NewStream(1 << 13) },
		"random_access": func() workloads.Workload { return workloads.NewRandomAccess(1<<14, 3000, 11) },
		"pointer_chase": func() workloads.Workload { return workloads.NewPointerChase(1<<12, 5) },
		"matmul":        func() workloads.Workload { return workloads.NewMatMul(24) },
		"spmv_csr":      func() workloads.Workload { return workloads.NewSpMV(12, 12, 12) },
	}
}

// assertSessionMachineIdentical compares a Session's whole-window run with
// a one-thread RunWorkload of the same workload and configuration.
func assertSessionMachineIdentical(t *testing.T, s *Session, sf *folding.Folded, mach *MachineWorkloadResult) {
	t.Helper()
	mt := mach.Machine.Primary()
	sRecs, mRecs := s.Mon.Records(), mt.Mon.Records()
	if len(sRecs) != len(mRecs) {
		t.Fatalf("record count: session %d, machine %d", len(sRecs), len(mRecs))
	}
	for i := range sRecs {
		if !reflect.DeepEqual(sRecs[i], mRecs[i]) {
			t.Fatalf("record %d differs:\nsession: %+v\nmachine: %+v", i, sRecs[i], mRecs[i])
		}
	}
	if a, b := s.Core.Cycles(), mt.Core.Cycles(); a != b {
		t.Errorf("cycles: session %d, machine %d", a, b)
	}
	if a, b := s.Core.PMU().TrueSnapshot(), mt.Core.PMU().TrueSnapshot(); a != b {
		t.Errorf("PMU totals: session %v, machine %v", a, b)
	}
	for i := 0; i < mt.Hier.Levels(); i++ {
		if a, b := s.Hier.LevelStats(i), mt.Hier.LevelStats(i); a != b {
			t.Errorf("level %d stats: session %+v, machine %+v", i, a, b)
		}
	}
	if a, b := s.Hier.DRAMAccesses(), mt.Hier.DRAMAccesses(); a != b {
		t.Errorf("DRAM accesses: session %d, machine %d", a, b)
	}
	if a, b := s.Mon.Engine().Stats(), mt.Mon.Engine().Stats(); a != b {
		t.Errorf("PEBS stats: session %+v, machine %+v", a, b)
	}
	mf := mach.Threads[0].Folded
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
}

// TestPartitionSingleThreadIdenticalToSession pins one whole-window
// RunPartitionRange == RunPartitionRange one instance at a time over
// (0, Elements()) through the full stack for every partitioned workload,
// on both the randomized-mux and deterministic configurations.
func TestPartitionSingleThreadIdenticalToSession(t *testing.T) {
	const iters = 6
	for name, mk := range partitionedWorkloads() {
		t.Run(name, func(t *testing.T) {
			for _, mode := range []struct {
				name string
				cfg  func() Config
			}{
				{"randomized-mux", func() Config { cfg, _ := comparableConfigs(); return cfg }},
				{"deterministic", testConfig},
			} {
				t.Run(mode.name, func(t *testing.T) {
					s, sf := sessionRun(t, mode.cfg(), mk(), iters)
					mach := mustRunWorkload(t, mode.cfg(), mk(), iters, 1)
					assertSessionMachineIdentical(t, s, sf, mach)
				})
			}
		})
	}
}

// TestPartitionFourThreads runs every partitioned workload across 4 cores
// sharing the L3 (disjoint writes, shared read-only state, sharded L3).
// Every thread must fold instances of its own block.
func TestPartitionFourThreads(t *testing.T) {
	const threads = 4
	cfg := testConfig()
	cfg.Monitor.PEBS.Period = 60
	for name, mk := range partitionedWorkloads() {
		t.Run(name, func(t *testing.T) {
			res := mustRunWorkload(t, cfg, mk(), 4, threads)
			if len(res.Threads) != threads {
				t.Fatalf("folded threads = %d", len(res.Threads))
			}
			for _, tr := range res.Threads {
				if tr.Folded.InstancesUsed == 0 {
					t.Errorf("thread %d: no folded instances", tr.Thread)
				}
			}
		})
	}
}

// TestPartitionResultsCorrect checks the numerical results survive
// partitioning: the triad and SpMV outputs match their closed forms after
// a 4-thread run.
func TestPartitionResultsCorrect(t *testing.T) {
	cfg := testConfig()
	st := workloads.NewStream(1 << 13)
	mustRunWorkload(t, cfg, st, 3, 4)
	for i := 0; i < st.N; i += 97 {
		if st.Value(i) != st.Expected(i) {
			t.Fatalf("triad wrong at %d: %g != %g", i, st.Value(i), st.Expected(i))
		}
	}
	sp := workloads.NewSpMV(12, 12, 12)
	mustRunWorkload(t, cfg, sp, 2, 4)
	for i := 0; i < sp.Rows(); i += 53 {
		if sp.Value(i) != sp.Expected(i) {
			t.Fatalf("spmv wrong at row %d: %g != %g", i, sp.Value(i), sp.Expected(i))
		}
	}
}
