package hpcg

import (
	"fmt"
	"math"
)

// CGResult summarizes a conjugate-gradient run.
type CGResult struct {
	// Iterations actually executed.
	Iterations int
	// Residuals holds the residual norm after each iteration.
	Residuals []float64
	// Converged reports whether the tolerance was reached.
	Converged bool
	// FinalError is ||x - xexact||_inf (the generated problem has a known
	// exact solution of all ones).
	FinalError float64
}

// AbortError reports a CG solve cut short by a poisoned team —
// cancellation or a contained worker panic. Iteration is the iteration
// the fault hit (0 for the pre-loop traffic).
type AbortError struct {
	Iteration int
	Err       error
}

func (e *AbortError) Error() string {
	return fmt.Sprintf("hpcg: CG solve aborted after iteration %d: %v", e.Iteration, e.Err)
}

func (e *AbortError) Unwrap() error { return e.Err }

// CGRun is an in-progress CG solve on a Team, advanced one instrumented
// "CG_iteration" instance at a time. Splitting the solve into NewCGRun
// (allocation and the pre-loop traffic) and Step (one iteration) is what
// makes checkpointing possible: between Steps the solver's whole cross-
// iteration state is the five vectors plus a handful of scalars, and a run
// resumed there is instruction-for-instruction identical to one that never
// stopped.
type CGRun struct {
	p            *Problem
	team         *Team
	r, z, pv, ap *Vector
	res          *CGResult
	rtzOld       float64
	normR0       float64
	next         int // 1-based iteration Step will run
	done         bool
}

// NewCGRun is NewCGRunOn over a one-worker team of the problem's own core
// and monitor: the sequential solve.
func (p *Problem) NewCGRun() (*CGRun, error) {
	team, err := NewTeam([]*Worker{{Core: p.core, Mon: p.mon}})
	if err != nil {
		return nil, err
	}
	return p.NewCGRunOn(team)
}

// NewCGRunOn allocates the solver vectors and issues the pre-loop traffic
// (move b into r, the initial residual norm) on team, whose worker 0 must
// be the problem's own core/monitor (the primary thread owns setup
// allocations and the scalar bookkeeping traffic). The returned run is
// positioned before iteration 1.
func (p *Problem) NewCGRunOn(team *Team) (*CGRun, error) {
	if team.workers[0].Core != p.core || team.workers[0].Mon != p.mon {
		return nil, fmt.Errorf("hpcg: team worker 0 must be the problem's primary core/monitor")
	}
	n := p.Fine.NRows
	r, err := p.newVector("cg_r", n)
	if err != nil {
		return nil, err
	}
	z, err := p.newVector("cg_z", n)
	if err != nil {
		return nil, err
	}
	pv, err := p.newVector("cg_p", n)
	if err != nil {
		return nil, err
	}
	ap, err := p.newVector("cg_Ap", n)
	if err != nil {
		return nil, err
	}

	p.X.Fill(0)
	// r = b - A*x = b (x starts at zero); p = r handled in first iteration.
	p.parallelMove(team, p.B, r)

	c := &CGRun{p: p, team: team, r: r, z: z, pv: pv, ap: ap, res: &CGResult{}, next: 1}
	c.normR0 = math.Sqrt(p.parallelDot(team, r, r))
	if err := team.Err(); err != nil {
		return nil, &AbortError{Iteration: 0, Err: err}
	}
	if c.normR0 == 0 {
		return nil, fmt.Errorf("hpcg: zero right-hand side")
	}
	return c, nil
}

// Step executes the next CG iteration as one instrumented instance per
// thread and reports whether the solve has finished (converged or
// iteration budget exhausted). The loop body matches the HPCG 3.0
// reference CG (z = MG(r); beta; p; alpha; updates). A team poisoned
// during the iteration fails it with an *AbortError carrying its number.
func (c *CGRun) Step() (bool, error) {
	if c.done {
		return true, nil
	}
	p, t, k := c.p, c.team, c.next
	t.Run(func(_ int, w *Worker) { w.Mon.EnterRegion(p.RegionIteration) })

	p.parallelMG(t, c.r, c.z) // preconditioner: phases A..D

	rtz := p.parallelDot(t, c.r, c.z)
	if k == 1 {
		p.parallelMove(t, c.z, c.pv)
	} else {
		beta := rtz / c.rtzOld
		p.parallelWAXPBY(t, 1, c.z, beta, c.pv, c.pv)
	}
	c.rtzOld = rtz

	p.parallelSpMV(t, p.Fine, c.pv, c.ap) // phase E
	pap := p.parallelDot(t, c.pv, c.ap)
	if err := t.Err(); err != nil {
		// Check before the breakdown test: a poisoned team produces zero
		// partials, which must not masquerade as p·Ap = 0.
		return false, &AbortError{Iteration: k, Err: err}
	}
	if pap == 0 {
		t.Run(func(_ int, w *Worker) { w.Mon.ExitRegion(p.RegionIteration) })
		return false, fmt.Errorf("hpcg: CG breakdown (p·Ap = 0) at iteration %d", k)
	}
	alpha := rtz / pap
	p.parallelWAXPBY(t, 1, p.X, alpha, c.pv, p.X)
	p.parallelWAXPBY(t, 1, c.r, -alpha, c.ap, c.r)

	normR := math.Sqrt(p.parallelDot(t, c.r, c.r))
	t.Run(func(_ int, w *Worker) { w.Mon.ExitRegion(p.RegionIteration) })
	if err := t.Err(); err != nil {
		return false, &AbortError{Iteration: k, Err: err}
	}
	c.res.Residuals = append(c.res.Residuals, normR)
	c.res.Iterations = k

	c.next = k + 1
	if p.Params.Tolerance > 0 && normR/c.normR0 < p.Params.Tolerance {
		c.res.Converged = true
		c.finish()
	} else if k >= p.Params.MaxIters {
		c.finish()
	}
	return c.done, nil
}

func (c *CGRun) finish() {
	p := c.p
	var maxErr float64
	for i := range p.X.Data {
		if e := math.Abs(p.X.Data[i] - p.Xexact.Data[i]); e > maxErr {
			maxErr = e
		}
	}
	c.res.FinalError = maxErr
	c.done = true
}

// Result returns the solve summary; FinalError is only meaningful once Step
// has reported done.
func (c *CGRun) Result() *CGResult { return c.res }

// NextIteration returns the 1-based iteration the next Step will run.
func (c *CGRun) NextIteration() int { return c.next }

// CGRunState is the serializable cross-iteration state of a CGRun. The MG
// level vectors are deliberately absent: every MG call overwrites them
// before reading, so at an iteration boundary they carry no live data.
type CGRunState struct {
	Next       int
	Done       bool
	RtzOld     float64
	NormR0     float64
	Iterations int
	Converged  bool
	FinalError float64
	Residuals  []float64
	R, Z, P    []float64
	AP, X      []float64
}

// State deep-copies the run's cross-iteration state.
func (c *CGRun) State() CGRunState {
	return CGRunState{
		Next:       c.next,
		Done:       c.done,
		RtzOld:     c.rtzOld,
		NormR0:     c.normR0,
		Iterations: c.res.Iterations,
		Converged:  c.res.Converged,
		FinalError: c.res.FinalError,
		Residuals:  append([]float64(nil), c.res.Residuals...),
		R:          append([]float64(nil), c.r.Data...),
		Z:          append([]float64(nil), c.z.Data...),
		P:          append([]float64(nil), c.pv.Data...),
		AP:         append([]float64(nil), c.ap.Data...),
		X:          append([]float64(nil), c.p.X.Data...),
	}
}

// RestoreState overwrites a freshly constructed run (same problem geometry)
// with snapshotted state. The NewCGRun that built the receiver replayed the
// pre-loop traffic; its host-value effects are overwritten here.
func (c *CGRun) RestoreState(st CGRunState) error {
	n := len(c.r.Data)
	for _, v := range [][]float64{st.R, st.Z, st.P, st.AP, st.X} {
		if len(v) != n {
			return fmt.Errorf("hpcg: snapshot vector length %d, problem has %d rows", len(v), n)
		}
	}
	if st.Next < 1 {
		return fmt.Errorf("hpcg: snapshot next iteration %d invalid", st.Next)
	}
	copy(c.r.Data, st.R)
	copy(c.z.Data, st.Z)
	copy(c.pv.Data, st.P)
	copy(c.ap.Data, st.AP)
	copy(c.p.X.Data, st.X)
	c.next = st.Next
	c.done = st.Done
	c.rtzOld = st.RtzOld
	c.normR0 = st.NormR0
	c.res.Iterations = st.Iterations
	c.res.Converged = st.Converged
	c.res.FinalError = st.FinalError
	c.res.Residuals = append(c.res.Residuals[:0], st.Residuals...)
	return nil
}

// RunCGParallel executes the preconditioned conjugate gradient solve on
// the team, one instrumented "CG_iteration" region instance per iteration
// per thread: NewCGRunOn, then Step until done. A poisoned team aborts it
// with an *AbortError (Iteration 0 when the fault hit the pre-loop
// traffic).
func (p *Problem) RunCGParallel(team *Team) (*CGResult, error) {
	c, err := p.NewCGRunOn(team)
	if err != nil {
		return nil, err
	}
	for {
		done, err := c.Step()
		if err != nil {
			return nil, err
		}
		if done {
			return c.Result(), nil
		}
	}
}
