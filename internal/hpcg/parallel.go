package hpcg

// OpenMP-style execution of the CG solve: a Team of simulated hardware
// threads (each with its own core, monitor and private cache levels,
// sharing the Machine's L3) executes every kernel's row loop under static
// domain partitioning — thread t owns the contiguous row block t of every
// level, exactly like `#pragma omp parallel for schedule(static)` over the
// HPCG reference loops. The team kernels below are the only kernels: a
// one-worker team is the sequential solve. The scalar CG logic
// (reductions, alpha/beta, convergence) runs on the orchestrating
// goroutine between parallel sections, and every fork-join barrier
// synchronizes the simulated clocks: lagging cores spin (Stall) up to the
// slowest core, which is how real barrier wait time shows up inside the
// folded kernels of an imbalanced run.
//
// SYMGS is the one kernel whose reference loop is not trivially parallel
// (row i consumes x values row i-1 just produced). The Team runs it as a
// block-Jacobi Gauss–Seidel: each thread sweeps its own block in order,
// coupling to other blocks through a snapshot of x taken at the preceding
// barrier. That is the standard OpenMP treatment of HPCG's smoother; it
// changes the numerics slightly (CG still converges) and keeps the
// simulated access pattern identical to the racy shared-x original.

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cpu"
	"repro/internal/extrae"
)

// Worker is one simulated hardware thread's execution context.
type Worker struct {
	Core *cpu.Core
	Mon  *extrae.Monitor
}

// Team is a fixed pool of workers driven in fork-join parallel sections.
// A team of one starts no goroutine: it runs each section on the caller's
// goroutine. A worker panic or a context cancellation poisons the team:
// the fault is recorded (Err), the in-flight section's barrier still
// releases — a panicking worker must never strand the others — and every
// subsequent Run becomes a no-op, so the orchestrating solve observes the
// fault at its next instance boundary instead of deadlocking.
type Team struct {
	workers []*Worker
	work    []chan func(int, *Worker) // one per worker; none for a team of one
	done    chan struct{}
	ctx     context.Context

	mu  sync.Mutex
	err error
}

// NewTeam builds a team over workers. With two or more workers it launches
// one goroutine per worker, which Close must release.
func NewTeam(workers []*Worker) (*Team, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("hpcg: team needs at least one worker")
	}
	t := &Team{workers: workers, ctx: context.Background()}
	if len(workers) == 1 {
		return t, nil
	}
	t.done = make(chan struct{}, len(workers))
	for i := range workers {
		ch := make(chan func(int, *Worker))
		t.work = append(t.work, ch)
		go func(tid int, ch chan func(int, *Worker)) {
			for f := range ch {
				t.runOne(tid, f)
				t.done <- struct{}{}
			}
		}(i, ch)
	}
	return t, nil
}

// runOne executes one section on worker tid, converting a panic into the
// team's error: the section returns either way, so the join in Run
// completes even when the worker died mid-kernel.
func (t *Team) runOne(tid int, f func(int, *Worker)) {
	defer func() {
		if r := recover(); r != nil {
			t.fail(fmt.Errorf("hpcg: worker %d panicked: %v", tid+1, r))
		}
	}()
	f(tid, t.workers[tid])
}

// SetContext installs the cancellation source polled at every parallel
// section fork. Must be set before the solve starts; nil is ignored.
func (t *Team) SetContext(ctx context.Context) {
	if ctx != nil {
		t.ctx = ctx
	}
}

func (t *Team) fail(err error) {
	t.mu.Lock()
	if t.err == nil {
		t.err = err
	}
	t.mu.Unlock()
}

// Err returns the fault that poisoned the team: the first worker panic or
// the context cancellation, nil while healthy. Orchestrating loops poll it
// at instance boundaries.
func (t *Team) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Size returns the number of workers.
func (t *Team) Size() int { return len(t.workers) }

// Close terminates the worker goroutines. The team is unusable afterwards.
func (t *Team) Close() {
	for _, ch := range t.work {
		close(ch)
	}
}

// Run executes f(tid, worker) on every worker concurrently and waits for
// all of them (a fork-join parallel section). On the join it models the
// barrier: every core that finished early spins until the slowest core's
// clock, so the team leaves each barrier with synchronized simulated time.
// A team of one runs f inline, with nothing to synchronize. Once the team
// is poisoned (worker panic, cancelled context) Run is a no-op, letting
// the orchestrating solve unwind without touching the simulated state
// further.
func (t *Team) Run(f func(tid int, w *Worker)) {
	if t.Err() != nil {
		return
	}
	if err := t.ctx.Err(); err != nil {
		t.fail(err)
		return
	}
	if t.work == nil {
		t.runOne(0, f)
		return
	}
	for _, ch := range t.work {
		ch <- f
	}
	for range t.work {
		<-t.done
	}
	if t.Err() != nil {
		// A worker died mid-section; the surviving clocks are whatever they
		// are. Skip the sync — the run is being abandoned.
		return
	}
	var max uint64
	for _, w := range t.workers {
		if c := w.Core.Cycles(); c > max {
			max = c
		}
	}
	for _, w := range t.workers {
		if d := max - w.Core.Cycles(); d > 0 {
			w.Core.Stall(d)
		}
	}
}

// Partition returns thread tid's static block [lo, hi) of n rows.
func (t *Team) Partition(n, tid int) (lo, hi int) {
	nt := len(t.workers)
	return tid * n / nt, (tid + 1) * n / nt
}

// RegisterRegions registers the problem's instrumented regions on mon in
// the order Generate used, so a Machine's secondary monitors assign the
// same region ids as the primary (region events must agree across the
// merged per-thread streams).
func (p *Problem) RegisterRegions(mon *extrae.Monitor) error {
	for _, rr := range []struct {
		name string
		want extrae.Region
	}{
		{"CG_iteration", p.RegionIteration},
		{"ComputeSYMGS_ref", p.RegionSYMGS},
		{"ComputeSPMV_ref", p.RegionSPMV},
		{"ComputeMG_ref", p.RegionMG},
		{"ComputeDotProduct_ref", p.RegionDot},
		{"ComputeWAXPBY_ref", p.RegionWAXPBY},
	} {
		if got := mon.RegisterRegion(rr.name); got != rr.want {
			return fmt.Errorf("hpcg: region %q registered as %d on secondary monitor, primary has %d",
				rr.name, got, rr.want)
		}
	}
	return nil
}

// snapshotX freezes x into the level's snapshot buffer for the next sweep's
// cross-block reads. With one worker there is no cross-block coupling and
// the snapshot is skipped (the sweep never consults it).
func (p *Problem) snapshotX(team *Team, lv *Level, x *Vector) []float64 {
	if team.Size() == 1 {
		return nil
	}
	if len(lv.xOld) < len(x.Data) {
		lv.xOld = make([]float64, len(x.Data))
	}
	copy(lv.xOld, x.Data)
	return lv.xOld
}

// parallelSYMGS performs one symmetric Gauss–Seidel smoothing step on the
// level, updating x in place toward the solution of A*x = r: each worker
// sweeps its own row block forward (ascending rows, the paper's a1/d1
// phases) then backward (a2/d2), with a barrier (and a fresh x snapshot)
// between the sweeps.
func (p *Problem) parallelSYMGS(team *Team, lv *Level, r, x *Vector) {
	xOld := p.snapshotX(team, lv, x)
	team.Run(func(tid int, w *Worker) {
		lo, hi := team.Partition(lv.NRows, tid)
		w.Mon.EnterRegion(p.RegionSYMGS)
		p.symgsSweep(w.Core, lv, r, x, lo, hi, true, xOld)
	})
	xOld = p.snapshotX(team, lv, x)
	team.Run(func(tid int, w *Worker) {
		lo, hi := team.Partition(lv.NRows, tid)
		p.symgsSweep(w.Core, lv, r, x, lo, hi, false, xOld)
		w.Mon.ExitRegion(p.RegionSYMGS)
	})
}

// parallelSpMV runs y = A*x with rows statically partitioned. x is frozen
// during the section (the caller's barriers guarantee it), so cross-block
// gathers are race-free.
func (p *Problem) parallelSpMV(team *Team, lv *Level, x, y *Vector) {
	team.Run(func(tid int, w *Worker) {
		lo, hi := team.Partition(lv.NRows, tid)
		w.Mon.EnterRegion(p.RegionSPMV)
		p.spmvRows(w.Core, lv, x, y, lo, hi)
		w.Mon.ExitRegion(p.RegionSPMV)
	})
}

// parallelDot computes a·b, each worker reducing its own block; the
// partials combine in worker order from worker 0's, keeping the result
// deterministic for a fixed thread count (with one worker it is that
// worker's partial, bit for bit).
func (p *Problem) parallelDot(team *Team, a, b *Vector) float64 {
	n := len(a.Data)
	partial := make([]float64, team.Size())
	team.Run(func(tid int, w *Worker) {
		lo, hi := team.Partition(n, tid)
		w.Mon.EnterRegion(p.RegionDot)
		partial[tid] = p.dotRange(w.Core, a, b, lo, hi)
		w.Mon.ExitRegion(p.RegionDot)
	})
	sum := partial[0]
	for _, v := range partial[1:] {
		sum += v
	}
	return sum
}

// parallelWAXPBY computes w = alpha*x + beta*y over static blocks.
func (p *Problem) parallelWAXPBY(team *Team, alpha float64, x *Vector, beta float64, y, w *Vector) {
	n := len(w.Data)
	team.Run(func(tid int, wk *Worker) {
		lo, hi := team.Partition(n, tid)
		wk.Mon.EnterRegion(p.RegionWAXPBY)
		p.waxpbyRange(wk.Core, alpha, x, beta, y, w, lo, hi)
		wk.Mon.ExitRegion(p.RegionWAXPBY)
	})
}

// parallelMove copies src into dst (host) and issues the per-block move
// traffic.
func (p *Problem) parallelMove(team *Team, src, dst *Vector) {
	copy(dst.Data, src.Data)
	n := len(src.Data)
	team.Run(func(tid int, w *Worker) {
		lo, hi := team.Partition(n, tid)
		p.moveRange(w.Core, src, dst, lo, hi)
	})
}

// parallelRestrict partitions the coarse rows of lv's restriction.
func (p *Problem) parallelRestrict(team *Team, lv *Level) {
	team.Run(func(tid int, w *Worker) {
		lo, hi := team.Partition(lv.Coarse.NRows, tid)
		p.restrictRows(w.Core, lv, lo, hi)
	})
}

// parallelProlong partitions the coarse rows of lv's prolongation; the
// injection map sends disjoint coarse blocks to disjoint fine rows.
func (p *Problem) parallelProlong(team *Team, lv *Level) {
	team.Run(func(tid int, w *Worker) {
		lo, hi := team.Partition(lv.Coarse.NRows, tid)
		p.prolongRows(w.Core, lv, lo, hi)
	})
}

// parallelMGRecurse runs the V-cycle below the finest level (no region
// instrumentation per level: the whole coarse part is the paper's "C"
// region, opened by parallelMG).
func (p *Problem) parallelMGRecurse(team *Team, lv *Level) {
	if lv.Coarse == nil {
		p.parallelSYMGS(team, lv, lv.R, lv.X)
		return
	}
	lv.X.Fill(0)
	p.parallelSYMGS(team, lv, lv.R, lv.X)  // presmooth
	p.parallelSpMV(team, lv, lv.X, lv.Axf) // residual matvec
	p.parallelRestrict(team, lv)           // move to coarse grid
	lv.Coarse.X.Fill(0)
	p.parallelMGRecurse(team, lv.Coarse)  // solve coarse
	p.parallelProlong(team, lv)           // correction back
	p.parallelSYMGS(team, lv, lv.R, lv.X) // postsmooth
}

// parallelMG applies the multigrid preconditioner z = M⁻¹ r on the fine
// level. The structure produces the paper's phase sequence for one CG
// iteration:
//
//	A: fine presmooth (SYMGS, forward + backward sweeps a1/a2)
//	B: fine residual SpMV
//	C: the coarse-grid work (restriction, coarse V-cycle, prolongation),
//	   wrapped in the ComputeMG_ref region
//	D: fine postsmooth (SYMGS, d1/d2)
//
// The coarse-grid smoothers run the same code as the fine-level SYMGS;
// every worker pushes the ComputeMG_ref frame on its own monitor, which
// makes their samples attributable to the MG recursion (as call-stack
// sampling does).
func (p *Problem) parallelMG(team *Team, r, z *Vector) {
	fine := p.Fine
	p.parallelMove(team, r, fine.R)
	fine.X.Fill(0)

	p.parallelSYMGS(team, fine, fine.R, fine.X) // A
	if fine.Coarse != nil {
		p.parallelSpMV(team, fine, fine.X, fine.Axf) // B
		team.Run(func(_ int, w *Worker) {
			w.Mon.EnterRegion(p.RegionMG) // C covers the coarse-grid work
			w.Mon.PushFrame(p.ips.mgFrame)
		})
		p.parallelRestrict(team, fine)
		fine.Coarse.X.Fill(0)
		p.parallelMGRecurse(team, fine.Coarse)
		p.parallelProlong(team, fine)
		team.Run(func(_ int, w *Worker) {
			w.Mon.PopFrame()
			w.Mon.ExitRegion(p.RegionMG)
		})
		p.parallelSYMGS(team, fine, fine.R, fine.X) // D
	}
	p.parallelMove(team, fine.X, z)
}
