// Package workloads provides small synthetic kernels with well-understood
// memory behaviour — streaming, random access, pointer chasing and a dense
// matrix multiply. They validate the monitoring and folding stack against
// known ground truth (STREAM must show linear sweeps and high bandwidth;
// random access must show DRAM-dominated latencies) and serve as the
// quickstart examples.
package workloads

import (
	"fmt"
	"math/rand"

	"repro/internal/cpu"
	"repro/internal/extrae"
	"repro/internal/prog"
)

// Ctx bundles the simulated machine a workload runs on.
type Ctx struct {
	Core *cpu.Core
	Mon  *extrae.Monitor
	Bin  *prog.Binary
}

// Workload is a runnable instrumented kernel whose per-iteration work
// splits into disjoint element ranges, one per simulated hardware thread —
// the OpenMP-style static partitioning a multi-core Machine drives. Each
// thread runs its own static block with its own Ctx (its core and
// monitor); the element data is shared and the blocks are disjoint. Any
// iteration window runs on its own, which is what lets the checkpointed
// run drivers stop between iterations and continue later.
type Workload interface {
	// Name identifies the workload.
	Name() string
	// Setup registers code in the binary and allocates data. It must be
	// called once, before monitoring starts.
	Setup(ctx *Ctx) error
	// Region returns the foldable per-iteration region id (valid after
	// Setup).
	Region() extrae.Region
	// Elements returns the partitionable element count (valid after Setup).
	Elements() int
	// RunPartitionRange executes instrumented iterations [startIter,
	// endIter) over elements [lo, hi), reconstructing any per-partition
	// state (such as an RNG position) from startIter: running [0, k) then
	// [k, n) must be indistinguishable — in simulated accesses, not just in
	// results — from running [0, n) in one call. A whole run is
	// RunPartitionRange(ctx, 0, iters, 0, Elements()).
	RunPartitionRange(ctx *Ctx, startIter, endIter int, lo, hi int) error
}

// Stream is the STREAM triad: a[i] = b[i] + s*c[i] over N doubles.
type Stream struct {
	// N is the number of elements per array.
	N int
	// Scale is the triad scalar.
	Scale float64

	region              extrae.Region
	a, b, c             []float64
	aAddr, bAddr, cAddr uint64
	ipLoadB, ipLoadC    uint64
	ipStoreA            uint64
}

// NewStream returns a triad over n-element arrays.
func NewStream(n int) *Stream { return &Stream{N: n, Scale: 3.0} }

// Name implements Workload.
func (s *Stream) Name() string { return "stream_triad" }

// Region implements Workload.
func (s *Stream) Region() extrae.Region { return s.region }

// Setup implements Workload.
func (s *Stream) Setup(ctx *Ctx) error {
	if s.N <= 0 {
		return fmt.Errorf("workloads: stream N must be positive")
	}
	fn, err := ctx.Bin.AddFunction("stream_triad", "stream.c", 10, 10)
	if err != nil {
		return err
	}
	if s.ipLoadB, err = fn.IPForLine(12); err != nil {
		return err
	}
	if s.ipLoadC, err = fn.IPForLine(13); err != nil {
		return err
	}
	if s.ipStoreA, err = fn.IPForLine(14); err != nil {
		return err
	}
	s.region = ctx.Mon.RegisterRegion("stream_triad")
	alloc := func(name string) ([]float64, uint64, error) {
		ip, err := fn.IPForLine(11)
		if err != nil {
			return nil, 0, err
		}
		ctx.Mon.PushFrame(ip)
		defer ctx.Mon.PopFrame()
		addr, err := ctx.Mon.Alloc(uint64(s.N) * 8)
		if err != nil {
			return nil, 0, err
		}
		return make([]float64, s.N), addr, nil
	}
	if s.a, s.aAddr, err = alloc("a"); err != nil {
		return err
	}
	if s.b, s.bAddr, err = alloc("b"); err != nil {
		return err
	}
	if s.c, s.cAddr, err = alloc("c"); err != nil {
		return err
	}
	for i := 0; i < s.N; i++ {
		s.b[i] = float64(i)
		s.c[i] = 1
	}
	return nil
}

// Elements implements Workload.
func (s *Stream) Elements() int { return s.N }

// RunPartitionRange implements Workload: the triad over elements [lo, hi).
// The three arrays are swept in cache-line chunks through the core's
// batched stream-issue API: one hierarchy probe per line crossing instead
// of one per element. Partitions touch disjoint slices of a, so a
// Machine's threads run their blocks concurrently without
// synchronization. Each line chunk is handed to the simulator as one
// three-run LineRun batch (loads of b and c, store of a) — the real
// arithmetic does not touch the simulator, so issuing the store run
// back-to-back with the loads preserves the simulated access order of the
// per-call form exactly. Iterations are independent (the triad recomputes
// a from b and c every pass), so any window runs as-is.
func (s *Stream) RunPartitionRange(ctx *Ctx, startIter, endIter int, lo, hi int) error {
	core := ctx.Core
	const chunk = 8 // float64s per 64-byte line
	for it := startIter; it < endIter; it++ {
		ctx.Mon.EnterRegion(s.region)
		for i := lo; i < hi; i += chunk {
			k := min(chunk, hi-i)
			for e := i; e < i+k; e++ {
				s.a[e] = s.b[e] + s.Scale*s.c[e]
			}
			// Stack-allocated batch: partitions run concurrently on a
			// Machine, so the runs must not live on the shared struct.
			runs := [3]cpu.LineRun{
				{IP: s.ipLoadB, Base: s.bAddr + uint64(i)*8, Stride: 8, Size: 8, Count: k},
				{IP: s.ipLoadC, Base: s.cAddr + uint64(i)*8, Stride: 8, Size: 8, Count: k},
				{IP: s.ipStoreA, Base: s.aAddr + uint64(i)*8, Stride: 8, Size: 8, Count: k, Store: true},
			}
			core.IssueRuns(runs[:])
			core.Compute(uint64(2 * k))
		}
		ctx.Mon.ExitRegion(s.region)
	}
	return nil
}

// Expected returns the triad result for element i (for verification).
func (s *Stream) Expected(i int) float64 { return float64(i) + s.Scale }

// Value returns a[i] after a run.
func (s *Stream) Value(i int) float64 { return s.a[i] }

// RandomAccess is a GUPS-like kernel: random read-modify-write updates over
// a table much larger than the caches.
type RandomAccess struct {
	// N is the table length in 8-byte words.
	N int
	// UpdatesPerIter is the number of updates per instrumented iteration
	// over the full table; partitions scale it by their block share.
	UpdatesPerIter int
	// Seed drives the index sequence.
	Seed int64

	region    extrae.Region
	table     []uint64
	tableAddr uint64
	ipLoad    uint64
	ipStore   uint64
}

// NewRandomAccess returns a GUPS kernel over an n-word table.
func NewRandomAccess(n, updates int, seed int64) *RandomAccess {
	return &RandomAccess{N: n, UpdatesPerIter: updates, Seed: seed}
}

// Name implements Workload.
func (r *RandomAccess) Name() string { return "random_access" }

// Region implements Workload.
func (r *RandomAccess) Region() extrae.Region { return r.region }

// Setup implements Workload.
func (r *RandomAccess) Setup(ctx *Ctx) error {
	if r.N <= 0 || r.UpdatesPerIter <= 0 {
		return fmt.Errorf("workloads: random access needs positive N and updates")
	}
	fn, err := ctx.Bin.AddFunction("random_access", "gups.c", 20, 10)
	if err != nil {
		return err
	}
	if r.ipLoad, err = fn.IPForLine(24); err != nil {
		return err
	}
	if r.ipStore, err = fn.IPForLine(25); err != nil {
		return err
	}
	r.region = ctx.Mon.RegisterRegion("random_access")
	ip, err := fn.IPForLine(21)
	if err != nil {
		return err
	}
	ctx.Mon.PushFrame(ip)
	r.tableAddr, err = ctx.Mon.Alloc(uint64(r.N) * 8)
	ctx.Mon.PopFrame()
	if err != nil {
		return err
	}
	r.table = make([]uint64, r.N)
	return nil
}

// Elements implements Workload.
func (r *RandomAccess) Elements() int { return r.N }

// RunPartitionRange implements Workload: random updates confined to table
// indices [lo, hi), with the per-iteration update count scaled by the
// block share. Each partition derives its own index stream from Seed+lo,
// so concurrent blocks write disjoint table slices without sharing an
// RNG. The index stream is the only cross-iteration state; it is
// repositioned by redrawing the first startIter iterations' indices
// (rejection sampling makes the consumed generator state depend on the
// drawn values, so skipping must replay the identical Intn calls, not
// jump the generator).
func (r *RandomAccess) RunPartitionRange(ctx *Ctx, startIter, endIter int, lo, hi int) error {
	core := ctx.Core
	rng := rand.New(rand.NewSource(r.Seed + int64(lo)))
	updates := r.UpdatesPerIter * (hi - lo) / r.N
	for u := 0; u < startIter*updates; u++ {
		rng.Intn(hi - lo)
	}
	for it := startIter; it < endIter; it++ {
		ctx.Mon.EnterRegion(r.region)
		for u := 0; u < updates; u++ {
			i := lo + rng.Intn(hi-lo)
			addr := r.tableAddr + uint64(i)*8
			core.Load(r.ipLoad, addr, 8)
			r.table[i] ^= uint64(i)*2654435761 + 1
			core.Store(r.ipStore, addr, 8)
			core.Compute(2)
		}
		ctx.Mon.ExitRegion(r.region)
	}
	return nil
}

// PointerChase traverses a shuffled singly linked list: every access
// depends on the previous one, exposing full memory latency.
type PointerChase struct {
	// N is the number of list nodes.
	N int
	// Seed drives the node permutation.
	Seed int64

	region   extrae.Region
	next     []int32
	baseAddr uint64
	ipLoad   uint64
}

// NewPointerChase returns an n-node chase.
func NewPointerChase(n int, seed int64) *PointerChase {
	return &PointerChase{N: n, Seed: seed}
}

// Name implements Workload.
func (p *PointerChase) Name() string { return "pointer_chase" }

// Region implements Workload.
func (p *PointerChase) Region() extrae.Region { return p.region }

// Setup implements Workload.
func (p *PointerChase) Setup(ctx *Ctx) error {
	if p.N <= 1 {
		return fmt.Errorf("workloads: pointer chase needs N > 1")
	}
	fn, err := ctx.Bin.AddFunction("pointer_chase", "chase.c", 30, 8)
	if err != nil {
		return err
	}
	if p.ipLoad, err = fn.IPForLine(33); err != nil {
		return err
	}
	p.region = ctx.Mon.RegisterRegion("pointer_chase")
	ip, err := fn.IPForLine(31)
	if err != nil {
		return err
	}
	ctx.Mon.PushFrame(ip)
	p.baseAddr, err = ctx.Mon.Alloc(uint64(p.N) * 8)
	ctx.Mon.PopFrame()
	if err != nil {
		return err
	}
	// Sattolo's algorithm: one cycle through all nodes.
	perm := make([]int32, p.N)
	for i := range perm {
		perm[i] = int32(i)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	for i := p.N - 1; i > 0; i-- {
		j := rng.Intn(i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	p.next = perm
	return nil
}

// Elements implements Workload.
func (p *PointerChase) Elements() int { return p.N }

// RunPartitionRange implements Workload: chase hi-lo steps along the
// global cycle starting at node lo. The next-pointer array is read-only,
// so partitions walking overlapping stretches of the cycle stay race-free;
// each block still issues one dependent load per step. Every iteration
// restarts the walk at node lo, so iterations are independent.
func (p *PointerChase) RunPartitionRange(ctx *Ctx, startIter, endIter int, lo, hi int) error {
	core := ctx.Core
	for it := startIter; it < endIter; it++ {
		ctx.Mon.EnterRegion(p.region)
		node := int32(lo)
		for step := lo; step < hi; step++ {
			core.Load(p.ipLoad, p.baseAddr+uint64(node)*8, 8)
			node = p.next[node]
		}
		ctx.Mon.ExitRegion(p.region)
	}
	return nil
}

// MatMul is a naive dense C = A×B multiply (ijk order).
type MatMul struct {
	// N is the matrix dimension.
	N int

	region        extrae.Region
	a, b, c       []float64
	aA, bA, cA    uint64
	ipA, ipB, ipC uint64
}

// NewMatMul returns an N×N multiply.
func NewMatMul(n int) *MatMul { return &MatMul{N: n} }

// Name implements Workload.
func (m *MatMul) Name() string { return "matmul" }

// Region implements Workload.
func (m *MatMul) Region() extrae.Region { return m.region }

// Setup implements Workload.
func (m *MatMul) Setup(ctx *Ctx) error {
	if m.N <= 0 {
		return fmt.Errorf("workloads: matmul N must be positive")
	}
	fn, err := ctx.Bin.AddFunction("matmul", "matmul.c", 40, 12)
	if err != nil {
		return err
	}
	if m.ipA, err = fn.IPForLine(44); err != nil {
		return err
	}
	if m.ipB, err = fn.IPForLine(45); err != nil {
		return err
	}
	if m.ipC, err = fn.IPForLine(46); err != nil {
		return err
	}
	m.region = ctx.Mon.RegisterRegion("matmul")
	ip, err := fn.IPForLine(41)
	if err != nil {
		return err
	}
	n := m.N
	ctx.Mon.PushFrame(ip)
	defer ctx.Mon.PopFrame()
	if m.aA, err = ctx.Mon.Alloc(uint64(n*n) * 8); err != nil {
		return err
	}
	if m.bA, err = ctx.Mon.Alloc(uint64(n*n) * 8); err != nil {
		return err
	}
	if m.cA, err = ctx.Mon.Alloc(uint64(n*n) * 8); err != nil {
		return err
	}
	m.a = make([]float64, n*n)
	m.b = make([]float64, n*n)
	m.c = make([]float64, n*n)
	for i := range m.a {
		m.a[i] = 1
		m.b[i] = 2
	}
	return nil
}

// Elements implements Workload: the partitionable unit is a row of C.
func (m *MatMul) Elements() int { return m.N }

// RunPartitionRange implements Workload: compute rows [lo, hi) of C. A
// and B are read-only and the C rows are disjoint per block, so the
// OpenMP-style i-loop partitioning is race-free. Each iteration recomputes
// C from the constant A and B, so iterations are independent.
func (m *MatMul) RunPartitionRange(ctx *Ctx, startIter, endIter int, lo, hi int) error {
	core := ctx.Core
	n := m.N
	for it := startIter; it < endIter; it++ {
		ctx.Mon.EnterRegion(m.region)
		for i := lo; i < hi; i++ {
			for j := 0; j < n; j++ {
				var sum float64
				for k := 0; k < n; k++ {
					core.Load(m.ipA, m.aA+uint64(i*n+k)*8, 8)
					core.Load(m.ipB, m.bA+uint64(k*n+j)*8, 8)
					sum += m.a[i*n+k] * m.b[k*n+j]
					core.Compute(2)
				}
				m.c[i*n+j] = sum
				core.Store(m.ipC, m.cA+uint64(i*n+j)*8, 8)
			}
		}
		ctx.Mon.ExitRegion(m.region)
	}
	return nil
}

// Value returns C[i][j] after a run.
func (m *MatMul) Value(i, j int) float64 { return m.c[i*m.N+j] }
