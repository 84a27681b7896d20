package core

import (
	"testing"

	"repro/internal/reuse"
)

// TestReusePipelineOnHPCG exercises the paper-motivated follow-on analyses
// end to end: reuse distances and hybrid-memory advice computed from a
// monitored HPCG run.
func TestReusePipelineOnHPCG(t *testing.T) {
	run := runHPCG(t, testConfig(), testHPCGParams())
	an, err := reuse.FromFolded(run.Folded, 64)
	if err != nil {
		t.Fatal(err)
	}
	if an.Accesses() != len(run.Folded.Mem) {
		t.Errorf("analyzer saw %d accesses, folded has %d", an.Accesses(), len(run.Folded.Mem))
	}
	h := an.Histogram()
	if h.Total == 0 {
		t.Fatal("empty reuse histogram")
	}
	// The hit-ratio curve must be monotone and reach at least the non-cold
	// share at huge capacities.
	caps := []int{16, 256, 4096, 1 << 20}
	curve := h.HitRatioCurve(caps)
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1] {
			t.Fatalf("hit-ratio curve not monotone: %v", curve)
		}
	}
	nonCold := 1 - float64(h.Cold)/float64(h.Total)
	if curve[len(curve)-1] < nonCold-0.05 {
		t.Errorf("infinite-cache hit ratio %.3f below non-cold share %.3f",
			curve[len(curve)-1], nonCold)
	}

	// The advisor must recommend load-optimized memory for the read-only
	// matrix group — the paper's concluding suggestion.
	placements := reuse.Advise(run.Session.Mon.Registry().Objects(), reuse.AdvisorConfig{})
	var matrixTier reuse.Tier
	found := false
	for _, p := range placements {
		if p.Object.Name == "124_GenerateProblem_ref.cpp" {
			matrixTier = p.Tier
			found = true
		}
	}
	if !found {
		t.Fatal("matrix group missing from advice")
	}
	if matrixTier != reuse.TierLoadOptimized {
		t.Errorf("matrix tier = %v, want load-optimized", matrixTier)
	}
}

// TestPhaseIPUsesInstrumentedFrame verifies that samples taken under a
// pushed call frame are phase-attributed to the frame, not the leaf IP —
// the mechanism that separates the multigrid coarse work (region C) from
// the fine smoother sharing its code.
func TestPhaseIPUsesInstrumentedFrame(t *testing.T) {
	run := runHPCG(t, testConfig(), testHPCGParams())
	s := run.Session
	mgFn, ok := s.Bin.Function("ComputeMG_ref")
	if !ok {
		t.Fatal("ComputeMG_ref not in binary")
	}
	var inFrame, attributed int
	for _, mp := range run.Folded.Mem {
		if mp.StackID == 0 {
			continue
		}
		frames := s.Mon.Stacks().Frames(mp.StackID)
		if len(frames) == 0 {
			continue
		}
		top := frames[len(frames)-1]
		if top >= mgFn.LowIP && top < mgFn.HighIP() {
			inFrame++
			if mp.PhaseIP == top {
				attributed++
			}
		}
	}
	if inFrame == 0 {
		t.Fatal("no samples taken under the MG frame")
	}
	if attributed != inFrame {
		t.Errorf("%d of %d MG-frame samples attributed to the frame", attributed, inFrame)
	}
	// And the C phase exists because of it.
	if _, ok := run.PhaseByLabel("C"); !ok {
		t.Log("C phase merged at this scale (coarse level tiny); acceptable")
	}
}
