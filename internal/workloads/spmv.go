package workloads

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/extrae"
)

// SpMV is a CSR sparse matrix-vector multiply y = A·x, with A the 7-point
// stencil operator on an NX×NY×NZ grid (diagonal 6, off-diagonals -1). It
// is the classic memory-bound kernel between STREAM and random access:
// values and column indices stream linearly, while the x gather hops by
// ±1, ±NX and ±NX·NY rows — short-range irregularity the caches mostly
// absorb, exactly the access mix of HPCG's SpMV phase.
type SpMV struct {
	// NX, NY, NZ are the grid dimensions; rows = NX·NY·NZ.
	NX, NY, NZ int

	region extrae.Region
	rowPtr []int32
	cols   []int32
	vals   []float64
	x, y   []float64

	valsAddr, colsAddr uint64
	xAddr, yAddr       uint64
	ipVals, ipCols     uint64
	ipX, ipY           uint64
}

// NewSpMV returns the 7-point stencil SpMV on an nx×ny×nz grid.
func NewSpMV(nx, ny, nz int) *SpMV { return &SpMV{NX: nx, NY: ny, NZ: nz} }

// Name implements Workload.
func (s *SpMV) Name() string { return "spmv_csr" }

// Region implements Workload.
func (s *SpMV) Region() extrae.Region { return s.region }

// Rows returns the matrix row count.
func (s *SpMV) Rows() int { return s.NX * s.NY * s.NZ }

// Setup implements Workload: build the CSR structure and allocate the
// instrumented arrays (values, column indices, x and y).
func (s *SpMV) Setup(ctx *Ctx) error {
	if s.NX <= 0 || s.NY <= 0 || s.NZ <= 0 {
		return fmt.Errorf("workloads: spmv needs positive grid dims")
	}
	fn, err := ctx.Bin.AddFunction("spmv_csr", "spmv.c", 50, 12)
	if err != nil {
		return err
	}
	if s.ipVals, err = fn.IPForLine(54); err != nil {
		return err
	}
	if s.ipCols, err = fn.IPForLine(55); err != nil {
		return err
	}
	if s.ipX, err = fn.IPForLine(56); err != nil {
		return err
	}
	if s.ipY, err = fn.IPForLine(57); err != nil {
		return err
	}
	s.region = ctx.Mon.RegisterRegion("spmv_csr")

	n := s.Rows()
	s.rowPtr = make([]int32, n+1)
	s.cols = s.cols[:0]
	s.vals = s.vals[:0]
	for z := 0; z < s.NZ; z++ {
		for y := 0; y < s.NY; y++ {
			for x := 0; x < s.NX; x++ {
				row := (z*s.NY+y)*s.NX + x
				s.rowPtr[row] = int32(len(s.cols))
				add := func(col int, v float64) {
					s.cols = append(s.cols, int32(col))
					s.vals = append(s.vals, v)
				}
				if z > 0 {
					add(row-s.NX*s.NY, -1)
				}
				if y > 0 {
					add(row-s.NX, -1)
				}
				if x > 0 {
					add(row-1, -1)
				}
				add(row, 6)
				if x < s.NX-1 {
					add(row+1, -1)
				}
				if y < s.NY-1 {
					add(row+s.NX, -1)
				}
				if z < s.NZ-1 {
					add(row+s.NX*s.NY, -1)
				}
			}
		}
	}
	s.rowPtr[n] = int32(len(s.cols))

	allocIP, err := fn.IPForLine(51)
	if err != nil {
		return err
	}
	ctx.Mon.PushFrame(allocIP)
	defer ctx.Mon.PopFrame()
	if s.valsAddr, err = ctx.Mon.Alloc(uint64(len(s.vals)) * 8); err != nil {
		return err
	}
	if s.colsAddr, err = ctx.Mon.Alloc(uint64(len(s.cols)) * 4); err != nil {
		return err
	}
	if s.xAddr, err = ctx.Mon.Alloc(uint64(n) * 8); err != nil {
		return err
	}
	if s.yAddr, err = ctx.Mon.Alloc(uint64(n) * 8); err != nil {
		return err
	}
	s.x = make([]float64, n)
	s.y = make([]float64, n)
	for i := range s.x {
		s.x[i] = 1
	}
	return nil
}

// Elements implements Workload: the partitionable unit is a matrix row.
func (s *SpMV) Elements() int { return s.Rows() }

// RunPartitionRange implements Workload: y = A·x over rows [lo, hi).
// Values and columns stream through the batched issue path; the x gather
// is one indexed load per nonzero. x is read-only and the y rows are
// disjoint per block, so concurrent partitions are race-free. y = A·x is
// recomputed from scratch each pass, so iterations are independent.
func (s *SpMV) RunPartitionRange(ctx *Ctx, startIter, endIter int, lo, hi int) error {
	core := ctx.Core
	for it := startIter; it < endIter; it++ {
		ctx.Mon.EnterRegion(s.region)
		for i := lo; i < hi; i++ {
			b, e := s.rowPtr[i], s.rowPtr[i+1]
			nnz := int(e - b)
			// Stack-allocated batch: partitions run concurrently on a
			// Machine, so the runs must not live on the shared struct.
			runs := [2]cpu.LineRun{
				{IP: s.ipVals, Base: s.valsAddr + uint64(b)*8, Stride: 8, Size: 8, Count: nnz},
				{IP: s.ipCols, Base: s.colsAddr + uint64(b)*4, Stride: 4, Size: 4, Count: nnz},
			}
			core.IssueRuns(runs[:])
			var sum float64
			for k := b; k < e; k++ {
				col := s.cols[k]
				core.Load(s.ipX, s.xAddr+uint64(col)*8, 8)
				sum += s.vals[k] * s.x[col]
				core.Compute(2)
			}
			s.y[i] = sum
			core.Store(s.ipY, s.yAddr+uint64(i)*8, 8)
		}
		ctx.Mon.ExitRegion(s.region)
	}
	return nil
}

// Value returns y[i] after a run.
func (s *SpMV) Value(i int) float64 { return s.y[i] }

// Expected returns the stencil row sum for row i with x ≡ 1: the diagonal
// 6 minus one per present neighbour.
func (s *SpMV) Expected(i int) float64 {
	return float64(6 - (int(s.rowPtr[i+1]) - int(s.rowPtr[i]) - 1))
}

// Interface conformance: every synthetic workload partitions and resumes.
var (
	_ Workload = (*Stream)(nil)
	_ Workload = (*RandomAccess)(nil)
	_ Workload = (*PointerChase)(nil)
	_ Workload = (*MatMul)(nil)
	_ Workload = (*SpMV)(nil)
)
