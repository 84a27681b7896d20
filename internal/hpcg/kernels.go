package hpcg

import "repro/internal/cpu"

// This file contains the instrumented computational kernels. Every kernel
// performs the real arithmetic on the Go slices and, for each element it
// touches, issues the corresponding simulated memory instruction so that
// the monitoring stack observes the true access pattern:
//
//   - matrix coefficients and column indices live in the low (matrix-group)
//     address region and are only ever *loaded* during the solve;
//   - vectors live in the higher region and are loaded and stored;
//   - SYMGS traverses rows 0..n-1 (forward sweep: ascending addresses)
//     then n-1..0 (backward sweep: descending addresses);
//   - SpMV traverses rows 0..n-1 once.
//
// Each kernel body operates on a row range [lo, hi) against an explicit
// core, which is how the OpenMP-style static domain partitioning works:
// the team kernels (parallel.go) hand each simulated thread its own
// contiguous block, mirroring `#pragma omp parallel for schedule(static)`
// over the row loops; a one-worker team's block is the full range.

// spmvRows applies the SpMV row loop y = A*x over [lo, hi). Each row's
// coefficient and column-index traffic is sequential, so it is emitted as
// one two-run LineRun batch (one hierarchy probe per line crossing); the x
// gathers stay per-op because their addresses are data-dependent.
func (p *Problem) spmvRows(core *cpu.Core, lv *Level, x, y *Vector, lo, hi int) {
	ips := &p.ips
	for i := lo; i < hi; i++ {
		var sum float64
		nnz := int(lv.NonzerosInRow[i])
		vals := lv.Vals[i]
		cols := lv.Cols[i]
		runs := [2]cpu.LineRun{
			{IP: ips.spmvVal, Base: lv.ValsAddr[i], Stride: 8, Size: 8, Count: nnz},
			{IP: ips.spmvCol, Base: lv.ColsAddr[i], Stride: 4, Size: 4, Count: nnz},
		}
		core.IssueRuns(runs[:])
		for j := 0; j < nnz; j++ {
			col := int(cols[j])
			core.Load(ips.spmvX, x.ElemAddr(col), 8)
			sum += vals[j] * x.Data[col]
			core.Compute(2) // multiply-add
		}
		y.Data[i] = sum
		core.Store(ips.spmvStore, y.ElemAddr(i), 8)
		core.Branch()
	}
}

// symgsSweep relaxes the rows of [lo, hi) in ascending (forward) or
// descending order. xOld, when non-nil, is a frozen snapshot of x taken at
// the sweep barrier: values outside [lo, hi) are read from it, which is
// the block-Jacobi coupling that keeps concurrent sweeps of disjoint
// blocks race-free (each thread writes only its own block and reads other
// blocks' pre-sweep values). The simulated traffic is unchanged — the
// loads still target x's addresses, exactly like the OpenMP code whose
// neighbouring blocks race on x.
func (p *Problem) symgsSweep(core *cpu.Core, lv *Level, r, x *Vector, lo, hi int, forward bool, xOld []float64) {
	ips := &p.ips
	if forward {
		for i := lo; i < hi; i++ {
			p.symgsRow(core, lv, r, x, i, lo, hi, xOld,
				ips.symgsFwdVal, ips.symgsFwdCol, ips.symgsFwdX, ips.symgsFwdStore)
		}
		return
	}
	for i := hi - 1; i >= lo; i-- {
		p.symgsRow(core, lv, r, x, i, lo, hi, xOld,
			ips.symgsBwdVal, ips.symgsBwdCol, ips.symgsBwdX, ips.symgsBwdStore)
	}
}

// symgsRow relaxes one row: x[i] = (r[i] - sum_{j!=i} a_ij x_j) / a_ii.
func (p *Problem) symgsRow(core *cpu.Core, lv *Level, r, x *Vector, i, lo, hi int, xOld []float64,
	ipVal, ipCol, ipX, ipStore uint64) {
	nnz := int(lv.NonzerosInRow[i])
	vals := lv.Vals[i]
	cols := lv.Cols[i]
	core.Load(ipX, r.ElemAddr(i), 8)
	sum := r.Data[i]
	var diag float64
	// Gauss–Seidel rows are sequentially dependent (row i consumes the
	// x values row i-1 just produced), so the out-of-order window cannot
	// overlap value traffic across rows the way SpMV's independent rows
	// allow: value loads stall for their full latency (Dep semantics).
	// Index loads still run ahead (address generation only).
	runs := [2]cpu.LineRun{
		{IP: ipVal, Base: lv.ValsAddr[i], Stride: 8, Size: 8, Count: nnz, Dep: true},
		{IP: ipCol, Base: lv.ColsAddr[i], Stride: 4, Size: 4, Count: nnz},
	}
	core.IssueRuns(runs[:])
	for j := 0; j < nnz; j++ {
		col := int(cols[j])
		if col == i {
			diag = vals[j]
			continue
		}
		// Gauss–Seidel reads neighbours updated moments ago: a serialized
		// dependency chain (LoadDep), unlike SpMV's independent gathers.
		core.LoadDep(ipX, x.ElemAddr(col), 8)
		var xv float64
		if xOld != nil && (col < lo || col >= hi) {
			// Cross-block coupling reads the barrier snapshot, never the
			// live vector another thread is concurrently writing.
			xv = xOld[col]
		} else {
			xv = x.Data[col]
		}
		sum -= vals[j] * xv
		core.Compute(2)
	}
	// sum now holds r[i] - Σ_{j≠i} a_ij x_j (the diagonal was skipped in
	// the loop, equivalent to HPCG's subtract-then-add-back formulation).
	x.Data[i] = sum / diag
	core.Compute(1)
	core.Store(ipStore, x.ElemAddr(i), 8)
	core.Branch()
}

// vecChunk is the element batch used by the dense vector kernels: one
// 64-byte cache line of float64s, so each stream call inside a chunk is a
// single hierarchy probe and the arrays still interleave at line
// granularity (preserving the cache behaviour of elementwise traversal).
const vecChunk = 8

// dotRange accumulates a·b over elements [lo, hi).
func (p *Problem) dotRange(core *cpu.Core, a, b *Vector, lo, hi int) float64 {
	ips := &p.ips
	var sum float64
	for i := lo; i < hi; i += vecChunk {
		k := min(vecChunk, hi-i)
		runs := [2]cpu.LineRun{
			{IP: ips.dotA, Base: a.ElemAddr(i), Stride: 8, Size: 8, Count: k},
			{IP: ips.dotB, Base: b.ElemAddr(i), Stride: 8, Size: 8, Count: k},
		}
		core.IssueRuns(runs[:])
		for e := i; e < i+k; e++ {
			sum += a.Data[e] * b.Data[e]
		}
		core.Compute(uint64(2 * k))
	}
	return sum
}

// waxpbyRange applies w = alpha*x + beta*y over elements [lo, hi).
func (p *Problem) waxpbyRange(core *cpu.Core, alpha float64, x *Vector, beta float64, y, w *Vector, lo, hi int) {
	ips := &p.ips
	for i := lo; i < hi; i += vecChunk {
		k := min(vecChunk, hi-i)
		for e := i; e < i+k; e++ {
			w.Data[e] = alpha*x.Data[e] + beta*y.Data[e]
		}
		runs := [3]cpu.LineRun{
			{IP: ips.waxpbyX, Base: x.ElemAddr(i), Stride: 8, Size: 8, Count: k},
			{IP: ips.waxpbyY, Base: y.ElemAddr(i), Stride: 8, Size: 8, Count: k},
			{IP: ips.waxpbyW, Base: w.ElemAddr(i), Stride: 8, Size: 8, Count: k, Store: true},
		}
		core.IssueRuns(runs[:])
		core.Compute(uint64(3 * k))
	}
}

// restrictRows computes the coarse residual rc = (rf - Axf) at the injected
// points of the coarse rows [lo, hi).
func (p *Problem) restrictRows(core *cpu.Core, lv *Level, lo, hi int) {
	ips := &p.ips
	coarse := lv.Coarse
	for i := lo; i < hi; i++ {
		core.Load(ips.restrictF2C, lv.F2CAddr+uint64(i)*4, 4)
		f := int(lv.F2C[i])
		core.Load(ips.restrictRf, lv.R.ElemAddr(f), 8)
		core.Load(ips.restrictAxf, lv.Axf.ElemAddr(f), 8)
		coarse.R.Data[i] = lv.R.Data[f] - lv.Axf.Data[f]
		core.Store(ips.restrictStore, coarse.R.ElemAddr(i), 8)
		core.Compute(1)
	}
}

// prolongRows interpolates the coarse correction of the coarse rows
// [lo, hi) back: xf[f2c[i]] += xc[i]. The injection map is injective, so
// disjoint coarse ranges write disjoint fine rows.
func (p *Problem) prolongRows(core *cpu.Core, lv *Level, lo, hi int) {
	ips := &p.ips
	coarse := lv.Coarse
	for i := lo; i < hi; i++ {
		core.Load(ips.prolongF2C, lv.F2CAddr+uint64(i)*4, 4)
		f := int(lv.F2C[i])
		core.Load(ips.prolongXc, coarse.X.ElemAddr(i), 8)
		core.Load(ips.prolongXf, lv.X.ElemAddr(f), 8)
		lv.X.Data[f] += coarse.X.Data[i]
		core.Store(ips.prolongStore, lv.X.ElemAddr(f), 8)
		core.Compute(1)
	}
}

// moveRange issues the move traffic for elements [lo, hi).
func (p *Problem) moveRange(core *cpu.Core, src, dst *Vector, lo, hi int) {
	ips := &p.ips
	for i := lo; i < hi; i += vecChunk {
		k := min(vecChunk, hi-i)
		runs := [2]cpu.LineRun{
			{IP: ips.waxpbyX, Base: src.ElemAddr(i), Stride: 8, Size: 8, Count: k},
			{IP: ips.waxpbyW, Base: dst.ElemAddr(i), Stride: 8, Size: 8, Count: k, Store: true},
		}
		core.IssueRuns(runs[:])
	}
}
