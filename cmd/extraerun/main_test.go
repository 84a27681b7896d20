package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// TestDefaultSizeFootprintBounded builds and sets up every workload at the
// default -size and bounds what it allocates: -size is per-iteration work,
// so the cubic matmul takes its cube root as the matrix dimension instead
// of asking for three size×size matrices.
func TestDefaultSizeFootprintBounded(t *testing.T) {
	const maxBytes = 16 << 20
	for _, name := range []string{"stream", "gups", "chase", "matmul", "spmv"} {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, defaultSize)
			if err != nil {
				t.Fatal(err)
			}
			if mm, ok := w.(*workloads.MatMul); ok && mm.N > 64 {
				t.Fatalf("matmul dimension %d at the default size, want <= 64", mm.N)
			}
			s, err := core.NewSession(core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Setup(&workloads.Ctx{Core: s.Core, Mon: s.Mon, Bin: s.Bin}); err != nil {
				t.Fatal(err)
			}
			if b := s.AS.PeakBytes(); b == 0 || b > maxBytes {
				t.Errorf("%s allocates %d bytes at the default size, want (0, %d]", name, b, maxBytes)
			}
		})
	}
	if _, err := newWorkload("nope", defaultSize); err == nil {
		t.Error("unknown workload accepted")
	}
}
