package repro_test

import (
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/hpcg"
)

// figureAllocBudget bounds the allocations of one 16³ Figure 1b op. It
// made about 1 700 once the monitor log held flat events and the matrix
// rows shared one backing array per level (40 034 before): a per-record or
// per-row allocation coming back costs thousands and fails the test.
const figureAllocBudget = 10_000

// TestFigureAllocBudget runs one BenchmarkFig1bAddressTimeline op at 16³ —
// the HPCG run, its fold and the address panel — and checks its
// allocation count against figureAllocBudget.
func TestFigureAllocBudget(t *testing.T) {
	params := hpcg.Params{NX: 16, NY: 16, NZ: 16, MGLevels: 2, MaxIters: 3}
	allocs := testing.AllocsPerRun(1, func() {
		run, err := core.RunHPCGCheckpointed(nil, benchConfig(), params, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := run.Figure1().RenderAddresses(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > figureAllocBudget {
		t.Fatalf("one 16³ Fig1b op allocates %.0f times, budget %d", allocs, figureAllocBudget)
	}
	t.Logf("one 16³ Fig1b op: %.0f allocations (budget %d)", allocs, figureAllocBudget)
}
