package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/faultinject"
	"repro/internal/hpcg"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// ErrCheckpointDemanded is the RunError cause of a run stopped by a
// Checkpointer.Demand trigger: the snapshot was taken and emitted at the
// cursor the RunError carries, so the run can be resumed byte-exactly.
var ErrCheckpointDemanded = errors.New("core: checkpoint demanded, run stopped at instance boundary")

// Checkpointer configures periodic state snapshots of a deterministic run.
// Snapshots happen only at instance boundaries (after an ExitRegion has
// flushed the sampling engine), so restoring one and continuing reproduces
// the uninterrupted run byte for byte.
type Checkpointer struct {
	// Every takes a snapshot after every N completed instances (no final
	// snapshot: a finished run has nothing to resume). Zero disables
	// periodic snapshots (useful with only Resume set).
	Every int
	// Tag fingerprints the producing configuration; it is stamped into
	// every snapshot and validated against Resume. Build it with
	// CheckpointTag.
	Tag string
	// Sink receives each snapshot; an error aborts the run.
	Sink func(*checkpoint.Snapshot) error
	// Resume, when set, restores this snapshot after setup and continues
	// from its cursor instead of starting at the beginning.
	Resume *checkpoint.Snapshot
	// Demand, when non-nil, is polled at every instance boundary (the same
	// quiescent points as the cancellation poll). When it returns true the
	// run snapshots at that boundary, emits the snapshot, and stops with a
	// *RunError wrapping ErrCheckpointDemanded — the mechanism a draining
	// server uses to park an in-flight run it cannot let finish. The poll
	// must be cheap (an atomic load); it runs once per instance.
	Demand func() bool
	// Progress, when non-nil, receives instance/cycle/cache-level counters
	// at every instance boundary (atomic stores, no allocation — see
	// ObserveProgress).
	Progress *telemetry.Progress
}

// CheckpointTag fingerprints a run configuration for snapshot validation:
// resuming under a different scenario, thread count or simulation path
// would silently diverge, so the tag makes the mismatch loud.
func CheckpointTag(name string, threads int, cfg Config) string {
	path := "fast"
	if cfg.Reference {
		path = "reference"
	}
	return fmt.Sprintf("%s|t%d|%s", name, threads, path)
}

// demanded reports whether a demand trigger is armed and has fired; safe on
// a nil receiver so the run loop can poll unconditionally.
func (ck *Checkpointer) demanded() bool {
	return ck != nil && ck.Demand != nil && ck.Demand()
}

// emit snapshots the machine and the schedule at cursor cur and hands the
// snapshot to the sink.
func (ck *Checkpointer) emit(m *Machine, s schedule, cur checkpoint.Cursor) error {
	snap, err := m.Snapshot(cur, ck.Tag)
	if err != nil {
		return err
	}
	s.save(snap)
	if err := faultinject.Hit(faultinject.PointCheckpoint); err != nil {
		return fmt.Errorf("core: checkpoint at (thread %d, iter %d): %w", cur.Thread, cur.Iter, err)
	}
	if ck.Sink == nil {
		return nil
	}
	if err := ck.Sink(snap); err != nil {
		return fmt.Errorf("core: checkpoint sink at (thread %d, iter %d): %w", cur.Thread, cur.Iter, err)
	}
	return nil
}

// Snapshot captures the machine's full mutable state at an instance
// boundary.
func (m *Machine) Snapshot(cur checkpoint.Cursor, tag string) (*checkpoint.Snapshot, error) {
	snap := &checkpoint.Snapshot{Tag: tag, Cursor: cur}
	for _, th := range m.Threads {
		ms, err := th.Mon.State()
		if err != nil {
			return nil, err
		}
		snap.Threads = append(snap.Threads, checkpoint.ThreadState{Mon: ms, Hier: th.Hier.State()})
	}
	for _, l3 := range m.L3s {
		snap.L3s = append(snap.L3s, l3.State())
	}
	if m.Placement != nil {
		ps := m.Placement.State()
		snap.Placement = &ps
	}
	snap.Registry = m.Primary().Mon.Registry().State()
	return snap, nil
}

// RestoreSnapshot overwrites the mutable state of a machine that has been
// rebuilt by an identical setup.
func (m *Machine) RestoreSnapshot(snap *checkpoint.Snapshot, tag string) error {
	if snap.Tag != tag {
		return fmt.Errorf("core: snapshot tag %q does not match run %q", snap.Tag, tag)
	}
	if len(snap.Threads) != len(m.Threads) {
		return fmt.Errorf("core: snapshot has %d threads, machine has %d", len(snap.Threads), len(m.Threads))
	}
	if len(snap.L3s) != len(m.L3s) {
		return fmt.Errorf("core: snapshot has %d shared caches, machine has %d", len(snap.L3s), len(m.L3s))
	}
	if (snap.Placement != nil) != (m.Placement != nil) {
		return fmt.Errorf("core: snapshot and machine disagree on NUMA placement")
	}
	for t, th := range m.Threads {
		if err := th.Mon.RestoreState(snap.Threads[t].Mon); err != nil {
			return fmt.Errorf("core: thread %d: %w", t+1, err)
		}
		if err := th.Hier.RestoreState(snap.Threads[t].Hier); err != nil {
			return fmt.Errorf("core: thread %d: %w", t+1, err)
		}
	}
	for i, l3 := range m.L3s {
		if err := l3.RestoreState(snap.L3s[i]); err != nil {
			return fmt.Errorf("core: socket %d L3: %w", i, err)
		}
	}
	if m.Placement != nil {
		if err := m.Placement.RestoreState(*snap.Placement); err != nil {
			return err
		}
	}
	return m.Primary().Mon.Registry().RestoreState(snap.Registry)
}

// schedule is a deterministic sequence of instances that Machine.run drives
// one at a time.
type schedule interface {
	// cursor locates the next instance.
	cursor() checkpoint.Cursor
	// done counts the instances completed since the schedule's start.
	done() int
	// finished reports whether every instance has run.
	finished() bool
	// step runs the next instance.
	step() error
	// save and restore carry the schedule's state beyond the cursor.
	save(snap *checkpoint.Snapshot)
	restore(snap *checkpoint.Snapshot) error
}

// run drives s from its cursor to the end, or from ck.Resume's cursor when
// set. Between instances — the only program points where every monitor's
// sampling state is quiescent — it polls ctx, hits the instance
// fault-injection point, honours a demanded checkpoint, publishes progress
// and takes the periodic snapshots. A clean stop there returns a
// *RunError (resumable); any other error is a hard failure.
func (m *Machine) run(ctx context.Context, s schedule, ck *Checkpointer) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if ck != nil && ck.Resume != nil {
		if err := m.RestoreSnapshot(ck.Resume, ck.Tag); err != nil {
			return err
		}
		if err := s.restore(ck.Resume); err != nil {
			return err
		}
	}
	ck.observe(m, s.done())
	for !s.finished() {
		cur := s.cursor()
		stop := ctx.Err()
		if stop == nil {
			stop = faultinject.Hit(faultinject.PointInstance)
		}
		if stop == nil && ck.demanded() {
			if err := ck.emit(m, s, cur); err != nil {
				return err
			}
			stop = ErrCheckpointDemanded
		}
		if stop != nil {
			return &RunError{Thread: cur.Thread + 1, Cursor: cur, Cause: stop}
		}
		if err := s.step(); err != nil {
			return err
		}
		ck.observe(m, s.done())
		if ck != nil && ck.Every > 0 && s.done()%ck.Every == 0 && !s.finished() {
			if err := ck.emit(m, s, s.cursor()); err != nil {
				return err
			}
		}
	}
	return nil
}

// workloadSchedule is the thread-major workload schedule: thread t runs
// iterations 0..iters-1 over its static element block, then thread t+1
// starts.
type workloadSchedule struct {
	m     *Machine
	w     workloads.Workload
	iters int
	cur   checkpoint.Cursor
	ctx   workloads.Ctx // reused by every step, so a step allocates nothing
}

func (s *workloadSchedule) cursor() checkpoint.Cursor { return s.cur }
func (s *workloadSchedule) done() int                 { return s.cur.Thread*s.iters + s.cur.Iter }
func (s *workloadSchedule) finished() bool            { return s.done() >= len(s.m.Threads)*s.iters }

func (s *workloadSchedule) step() error {
	t, it := s.cur.Thread, s.cur.Iter
	n, k := s.w.Elements(), len(s.m.Threads)
	th := s.m.Threads[t]
	s.ctx = workloads.Ctx{Core: th.Core, Mon: th.Mon, Bin: s.m.Bin}
	if err := s.w.RunPartitionRange(&s.ctx, it, it+1, t*n/k, (t+1)*n/k); err != nil {
		return fmt.Errorf("core: thread %d: %w", t+1, err)
	}
	s.cur.Iter++
	if s.cur.Iter == s.iters {
		s.cur = checkpoint.Cursor{Thread: t + 1}
	}
	return nil
}

func (s *workloadSchedule) save(*checkpoint.Snapshot) {}

func (s *workloadSchedule) restore(snap *checkpoint.Snapshot) error {
	c := snap.Cursor
	if c.Thread < 0 || c.Thread >= len(s.m.Threads) || c.Iter < 0 || c.Iter >= s.iters {
		return fmt.Errorf("core: snapshot cursor (thread %d, iter %d) outside the %d-thread, %d-iteration schedule",
			c.Thread, c.Iter, len(s.m.Threads), s.iters)
	}
	s.cur = c
	return nil
}

// cgSchedule is the CG solve on the machine's team, one iteration per
// instance.
type cgSchedule struct {
	cg   *hpcg.CGRun
	last bool
}

func (s *cgSchedule) cursor() checkpoint.Cursor { return checkpoint.Cursor{Iter: s.done()} }
func (s *cgSchedule) done() int                 { return s.cg.Result().Iterations }
func (s *cgSchedule) finished() bool            { return s.last }

func (s *cgSchedule) step() (err error) {
	s.last, err = s.cg.Step()
	return err
}

func (s *cgSchedule) save(snap *checkpoint.Snapshot) {
	st := s.cg.State()
	snap.CG = &st
}

func (s *cgSchedule) restore(snap *checkpoint.Snapshot) error {
	if snap.CG == nil {
		return fmt.Errorf("core: snapshot carries no CG solver state")
	}
	s.last = snap.CG.Done
	return s.cg.RestoreState(*snap.CG)
}

// RunHPCGCheckpointed executes the paper's evaluation end to end on a
// Session: generate the problem (setup phase, unmonitored but with
// allocation tracking), run CG under monitoring one iteration per
// instance, fold the iteration region and label the phases. ck (nil for
// none) snapshots, resumes and observes the solve at iteration
// boundaries. A solve stopped there, or cut short by cancellation or a
// kernel panic, returns its partial result alongside a *RunError.
func RunHPCGCheckpointed(ctx context.Context, cfg Config, params hpcg.Params, ck *Checkpointer) (*HPCGRun, error) {
	mr, err := runHPCGTeam(ctx, cfg, params, 1, ck)
	if mr == nil {
		return nil, err
	}
	run := &HPCGRun{Session: &Session{mr.Machine, mr.Machine.Primary()}, Problem: mr.Problem, CG: mr.CG, Partial: mr.Partial}
	if len(mr.Threads) > 0 {
		run.Folded, run.Paper = mr.Threads[0].Folded, mr.Threads[0].Paper
	}
	return run, err
}
