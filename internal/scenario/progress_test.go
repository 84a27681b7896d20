package scenario

import (
	"bytes"
	"testing"

	"repro/internal/telemetry"
)

// TestProgressObservationIsInert pins the capability-keying rule for the
// observability layer: attaching a Progress mailbox changes nothing about
// the result. The observed run's metrics are byte-identical to the
// unobserved run's, on session, machine and HPCG paths alike (flat and on
// two sockets), and the mailbox ends at 100% with the run's real totals.
func TestProgressObservationIsInert(t *testing.T) {
	for _, name := range []string{"stream_triad_1t", "stream_triad_4t", "hpcg_8_1t", "hpcg_numa_ft_2s1t"} {
		t.Run(name, func(t *testing.T) {
			sc, ok := Get(name)
			if !ok {
				t.Fatalf("scenario %s not registered", name)
			}
			plain, err := Run(sc, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var p telemetry.Progress
			observed, err := Run(sc, Options{Progress: &p})
			if err != nil {
				t.Fatal(err)
			}
			pj, _ := plain.JSON()
			oj, _ := observed.JSON()
			if !bytes.Equal(pj, oj) {
				t.Errorf("%s: observed run diverges from unobserved:\n%s", name, firstDiff(oj, pj))
			}

			s := p.Snapshot()
			if s.InstancesTotal == 0 {
				t.Fatalf("%s: no total published", name)
			}
			if sc.HPCG == nil && s.InstancesDone != s.InstancesTotal {
				t.Errorf("%s: finished run reports %d/%d instances", name, s.InstancesDone, s.InstancesTotal)
			}
			if sc.HPCG != nil && (s.InstancesDone == 0 || s.InstancesDone > s.InstancesTotal) {
				// HPCG converges early: done lands in (0, MaxIters].
				t.Errorf("%s: CG progress %d/%d out of range", name, s.InstancesDone, s.InstancesTotal)
			}
			if s.Cycles == 0 || s.Instructions == 0 {
				t.Errorf("%s: no CPU progress published (%d cycles, %d instructions)", name, s.Cycles, s.Instructions)
			}
			if s.NumLevels == 0 {
				t.Errorf("%s: no cache levels published", name)
			}
			for i := 0; i < s.NumLevels; i++ {
				if s.Levels[i].Hits == 0 && s.Levels[i].Fills == 0 {
					t.Errorf("%s: level %d published no activity", name, i)
				}
			}

			// The published totals are the run's real ones, not estimates:
			// cycles must match the per-thread metric sum.
			var wantCycles uint64
			for _, tm := range observed.PerThread {
				wantCycles += tm.Cycles
			}
			if s.Cycles != wantCycles {
				t.Errorf("%s: progress cycles %d != metrics cycles %d", name, s.Cycles, wantCycles)
			}
		})
	}
}
