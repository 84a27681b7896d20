package workloads

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/extrae"
	"repro/internal/memhier"
	"repro/internal/pebs"
	"repro/internal/prog"
)

func newCtx(t *testing.T) *Ctx {
	t.Helper()
	h, err := memhier.New(memhier.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	core, err := cpu.New(cpu.DefaultConfig(), h)
	if err != nil {
		t.Fatal(err)
	}
	bin := prog.NewBinary()
	as := prog.NewAddressSpace(0x700000000000)
	cfg := extrae.DefaultConfig()
	cfg.MuxQuantumNs = 0
	cfg.PEBS.Events = pebs.SampleLoads | pebs.SampleStores
	cfg.PEBS.Period = 100
	cfg.PEBS.Randomize = false
	cfg.PEBS.LatencyThreshold = 0
	mon, err := extrae.New(cfg, core, bin, as)
	if err != nil {
		t.Fatal(err)
	}
	return &Ctx{Core: core, Mon: mon, Bin: bin}
}

// runWhole runs iters iterations of w over all its elements: a whole run.
func runWhole(w Workload, ctx *Ctx, iters int) error {
	return w.RunPartitionRange(ctx, 0, iters, 0, w.Elements())
}

func TestStreamMathAndNames(t *testing.T) {
	ctx := newCtx(t)
	s := NewStream(1 << 12)
	if s.Name() != "stream_triad" {
		t.Errorf("name = %q", s.Name())
	}
	if err := s.Setup(ctx); err != nil {
		t.Fatal(err)
	}
	if err := runWhole(s, ctx, 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.N; i += 100 {
		if s.Value(i) != s.Expected(i) {
			t.Fatalf("a[%d] = %g, want %g", i, s.Value(i), s.Expected(i))
		}
	}
	if s.Region() == 0 {
		t.Error("region not registered")
	}
}

func TestStreamValidation(t *testing.T) {
	ctx := newCtx(t)
	s := NewStream(0)
	if err := s.Setup(ctx); err == nil {
		t.Error("zero N accepted")
	}
}

func TestStreamLoadStoreRatio(t *testing.T) {
	ctx := newCtx(t)
	s := NewStream(1 << 12)
	if err := s.Setup(ctx); err != nil {
		t.Fatal(err)
	}
	if err := runWhole(s, ctx, 1); err != nil {
		t.Fatal(err)
	}
	p := ctx.Core.PMU()
	loads := p.True(cpu.CtrLoads)
	stores := p.True(cpu.CtrStores)
	if loads != 2*stores {
		t.Errorf("loads/stores = %d/%d, triad is exactly 2:1", loads, stores)
	}
}

func TestRandomAccessDRAMBound(t *testing.T) {
	ctx := newCtx(t)
	// 8M words = 64 MiB, far larger than the 2.5 MiB L3.
	r := NewRandomAccess(1<<23, 20000, 7)
	if r.Name() != "random_access" {
		t.Errorf("name = %q", r.Name())
	}
	if err := r.Setup(ctx); err != nil {
		t.Fatal(err)
	}
	if err := runWhole(r, ctx, 1); err != nil {
		t.Fatal(err)
	}
	h := ctx.Core.Hierarchy()
	l1 := h.LevelStats(0)
	if l1.MissRatio() < 0.3 {
		t.Errorf("random access L1 miss ratio = %.3f, want high", l1.MissRatio())
	}
	if h.DRAMAccesses() == 0 {
		t.Error("no DRAM traffic on a 64 MiB random workload")
	}
}

func TestRandomAccessValidation(t *testing.T) {
	ctx := newCtx(t)
	if err := NewRandomAccess(0, 1, 1).Setup(ctx); err == nil {
		t.Error("zero table accepted")
	}
	ctx2 := newCtx(t)
	if err := NewRandomAccess(10, 0, 1).Setup(ctx2); err == nil {
		t.Error("zero updates accepted")
	}
}

func TestPointerChaseVisitsEveryNode(t *testing.T) {
	ctx := newCtx(t)
	p := NewPointerChase(4096, 3)
	if p.Name() != "pointer_chase" {
		t.Errorf("name = %q", p.Name())
	}
	if err := p.Setup(ctx); err != nil {
		t.Fatal(err)
	}
	// Sattolo permutation: following next from 0 for N steps returns to 0
	// having visited every node exactly once.
	seen := make(map[int32]bool)
	node := int32(0)
	for i := 0; i < p.N; i++ {
		if seen[node] {
			t.Fatalf("node %d revisited at step %d", node, i)
		}
		seen[node] = true
		node = p.next[node]
	}
	if node != 0 {
		t.Error("chase did not return to start")
	}
	if err := runWhole(p, ctx, 1); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Core.PMU().True(cpu.CtrLoads); got != uint64(p.N) {
		t.Errorf("loads = %d, want %d", got, p.N)
	}
}

func TestPointerChaseValidation(t *testing.T) {
	ctx := newCtx(t)
	if err := NewPointerChase(1, 1).Setup(ctx); err == nil {
		t.Error("N=1 accepted")
	}
}

func TestMatMulMath(t *testing.T) {
	ctx := newCtx(t)
	m := NewMatMul(16)
	if m.Name() != "matmul" {
		t.Errorf("name = %q", m.Name())
	}
	if err := m.Setup(ctx); err != nil {
		t.Fatal(err)
	}
	if err := runWhole(m, ctx, 1); err != nil {
		t.Fatal(err)
	}
	// A all ones, B all twos: C[i][j] = N * 1 * 2 = 32.
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			if m.Value(i, j) != 32 {
				t.Fatalf("C[%d][%d] = %g, want 32", i, j, m.Value(i, j))
			}
		}
	}
}

func TestMatMulValidation(t *testing.T) {
	ctx := newCtx(t)
	if err := NewMatMul(0).Setup(ctx); err == nil {
		t.Error("zero N accepted")
	}
}

func TestWorkloadsAreDistinctRegions(t *testing.T) {
	ctx := newCtx(t)
	s := NewStream(64)
	r := NewRandomAccess(64, 10, 1)
	if err := s.Setup(ctx); err != nil {
		t.Fatal(err)
	}
	if err := r.Setup(ctx); err != nil {
		t.Fatal(err)
	}
	if s.Region() == r.Region() {
		t.Error("workloads share a region id")
	}
}

func TestSpMVMath(t *testing.T) {
	ctx := newCtx(t)
	s := NewSpMV(8, 8, 8)
	if s.Name() != "spmv_csr" {
		t.Errorf("name = %q", s.Name())
	}
	if err := s.Setup(ctx); err != nil {
		t.Fatal(err)
	}
	if err := runWhole(s, ctx, 1); err != nil {
		t.Fatal(err)
	}
	// x ≡ 1: each row sums to 6 minus the number of present neighbours —
	// 0 for interior rows, positive on the boundary.
	interior := (1*8+1)*8 + 1 // (1,1,1)
	if s.Value(interior) != 0 {
		t.Errorf("interior row = %g, want 0", s.Value(interior))
	}
	if s.Value(0) != 3 { // corner has 3 neighbours
		t.Errorf("corner row = %g, want 3", s.Value(0))
	}
	for i := 0; i < s.Rows(); i++ {
		if s.Value(i) != s.Expected(i) {
			t.Fatalf("y[%d] = %g, want %g", i, s.Value(i), s.Expected(i))
		}
	}
}

func TestSpMVValidation(t *testing.T) {
	ctx := newCtx(t)
	if err := NewSpMV(0, 8, 8).Setup(ctx); err == nil {
		t.Error("zero grid dim accepted")
	}
}

// TestPartitionsCoverElements pins the partition contract for every
// workload at the workload level: running the partitions of a 3-way split
// one after another covers the full element range. For the deterministic
// sweeps (triad, SpMV, matmul) the outputs equal their closed forms; for
// random access the per-block update counts land (each block scales
// UpdatesPerIter by its share, so the 3-way total may round a few updates
// below one whole run's); for pointer chase the step counts sum to one full
// cycle. (Exact equality of a whole-window run with per-instance windows
// through the whole stack is pinned by core's
// TestPartitionSingleThreadIdenticalToSession.)
func TestPartitionsCoverElements(t *testing.T) {
	run3 := func(t *testing.T, w Workload) *Ctx {
		t.Helper()
		ctx := newCtx(t)
		if err := w.Setup(ctx); err != nil {
			t.Fatal(err)
		}
		n := w.Elements()
		for p := 0; p < 3; p++ {
			lo, hi := p*n/3, (p+1)*n/3
			if err := w.RunPartitionRange(ctx, 0, 1, lo, hi); err != nil {
				t.Fatal(err)
			}
		}
		return ctx
	}
	t.Run("stream", func(t *testing.T) {
		s := NewStream(1 << 10)
		run3(t, s)
		for i := 0; i < s.N; i++ {
			if s.Value(i) != s.Expected(i) {
				t.Fatalf("a[%d] = %g, want %g", i, s.Value(i), s.Expected(i))
			}
		}
	})
	t.Run("spmv", func(t *testing.T) {
		s := NewSpMV(6, 6, 6)
		run3(t, s)
		for i := 0; i < s.Rows(); i++ {
			if s.Value(i) != s.Expected(i) {
				t.Fatalf("y[%d] = %g, want %g", i, s.Value(i), s.Expected(i))
			}
		}
	})
	t.Run("matmul", func(t *testing.T) {
		m := NewMatMul(9)
		run3(t, m)
		for i := 0; i < 9; i++ {
			for j := 0; j < 9; j++ {
				if m.Value(i, j) != 18 {
					t.Fatalf("C[%d][%d] = %g, want 18", i, j, m.Value(i, j))
				}
			}
		}
	})
	t.Run("random_access", func(t *testing.T) {
		r := NewRandomAccess(1<<10, 300, 3)
		ctx := run3(t, r)
		// Each block performs UpdatesPerIter*(hi-lo)/N updates, one load
		// and one store each.
		var want uint64
		for p := 0; p < 3; p++ {
			lo, hi := p*r.N/3, (p+1)*r.N/3
			want += uint64(r.UpdatesPerIter * (hi - lo) / r.N)
		}
		if got := ctx.Core.PMU().True(cpu.CtrLoads); got != want {
			t.Errorf("loads = %d, want %d", got, want)
		}
		if got := ctx.Core.PMU().True(cpu.CtrStores); got != want {
			t.Errorf("stores = %d, want %d", got, want)
		}
	})
	t.Run("pointer_chase", func(t *testing.T) {
		p := NewPointerChase(1<<10, 3)
		ctx := run3(t, p)
		// The three arcs take hi-lo steps each: one full cycle of loads.
		if got := ctx.Core.PMU().True(cpu.CtrLoads); got != uint64(p.N) {
			t.Errorf("loads = %d, want %d", got, p.N)
		}
	})
}
