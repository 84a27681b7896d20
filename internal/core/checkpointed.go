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
	// ObserveProgress). Unlike the fields above it does not constrain the
	// run: a progress-only Checkpointer works with any workload and is
	// silently dropped on paths without instance boundaries.
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
// a nil receiver so the run loops can poll unconditionally.
func (ck *Checkpointer) demanded() bool {
	return ck != nil && ck.Demand != nil && ck.Demand()
}

func (ck *Checkpointer) emit(snap *checkpoint.Snapshot) error {
	if err := faultinject.Hit(faultinject.PointCheckpoint); err != nil {
		return fmt.Errorf("core: checkpoint at (thread %d, iter %d): %w", snap.Cursor.Thread, snap.Cursor.Iter, err)
	}
	if ck.Sink == nil {
		return nil
	}
	if err := ck.Sink(snap); err != nil {
		return fmt.Errorf("core: checkpoint sink at (thread %d, iter %d): %w", snap.Cursor.Thread, snap.Cursor.Iter, err)
	}
	return nil
}

// Snapshot captures the session's full mutable state at an instance
// boundary.
func (s *Session) Snapshot(cur checkpoint.Cursor, tag string) (*checkpoint.Snapshot, error) {
	ms, err := s.Mon.State()
	if err != nil {
		return nil, err
	}
	return &checkpoint.Snapshot{
		Tag:      tag,
		Cursor:   cur,
		Threads:  []checkpoint.ThreadState{{Mon: ms, Hier: s.Hier.State()}},
		Registry: s.Mon.Registry().State(),
	}, nil
}

// RestoreSnapshot overwrites the mutable state of a session that has been
// rebuilt by an identical setup (same config, same workload Setup replay).
func (s *Session) RestoreSnapshot(snap *checkpoint.Snapshot, tag string) error {
	if snap.Tag != tag {
		return fmt.Errorf("core: snapshot tag %q does not match run %q", snap.Tag, tag)
	}
	if len(snap.Threads) != 1 || len(snap.L3s) != 0 || snap.Placement != nil {
		return fmt.Errorf("core: snapshot describes a machine run, not a session")
	}
	if err := s.Mon.RestoreState(snap.Threads[0].Mon); err != nil {
		return err
	}
	if err := s.Hier.RestoreState(snap.Threads[0].Hier); err != nil {
		return err
	}
	return s.Mon.Registry().RestoreState(snap.Registry)
}

// Snapshot captures the machine's full mutable state at an instance
// boundary of the sequential schedule.
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

// RunWorkloadCheckpointed is RunWorkload driven one instance at a time on a
// Session, with cancellation polls, the instance fault-injection point and
// optional periodic snapshots between instances. With a nil context and
// checkpointer the executed instruction stream is identical to RunWorkload.
// On cancellation it returns the partial result alongside a *RunError.
func RunWorkloadCheckpointed(ctx context.Context, cfg Config, w workloads.Workload, iters int, ck *Checkpointer) (*RunWorkloadResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rw, resumable := w.(workloads.ResumableWorkload)
	if ck.checkpoints() && !resumable {
		return nil, fmt.Errorf("core: workload %q does not support checkpointing (no RunPartitionRange)", w.Name())
	}
	s, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	wctx := s.Ctx()
	if err := w.Setup(wctx); err != nil {
		return nil, err
	}
	s.Mon.Start()

	start := 0
	if ck != nil && ck.Resume != nil {
		if ck.Resume.Cursor.Thread != 0 {
			return nil, fmt.Errorf("core: snapshot cursor thread %d on a single-thread session", ck.Resume.Cursor.Thread)
		}
		if err := s.RestoreSnapshot(ck.Resume, ck.Tag); err != nil {
			return nil, err
		}
		start = ck.Resume.Cursor.Iter
	}

	var runErr *RunError
	if resumable {
		n := rw.Elements()
		ck.observeSession(s, start)
		for it := start; it < iters; it++ {
			cur := checkpoint.Cursor{Thread: 0, Iter: it}
			if err := ctx.Err(); err != nil {
				runErr = &RunError{Thread: 1, Cursor: cur, Cause: err}
				break
			}
			if err := faultinject.Hit(faultinject.PointInstance); err != nil {
				runErr = &RunError{Thread: 1, Cursor: cur, Cause: err}
				break
			}
			if ck.demanded() {
				snap, err := s.Snapshot(cur, ck.Tag)
				if err != nil {
					return nil, err
				}
				if err := ck.emit(snap); err != nil {
					return nil, err
				}
				runErr = &RunError{Thread: 1, Cursor: cur, Cause: ErrCheckpointDemanded}
				break
			}
			if err := rw.RunPartitionRange(wctx, it, it+1, 0, n); err != nil {
				return nil, err
			}
			done := it + 1
			ck.observeSession(s, done)
			if ck != nil && ck.Every > 0 && done%ck.Every == 0 && done < iters {
				snap, err := s.Snapshot(checkpoint.Cursor{Iter: done}, ck.Tag)
				if err != nil {
					return nil, err
				}
				if err := ck.emit(snap); err != nil {
					return nil, err
				}
			}
		}
	} else {
		if err := ctx.Err(); err != nil {
			runErr = &RunError{Thread: 1, Cause: err}
		} else if err := w.Run(wctx, iters); err != nil {
			return nil, err
		} else {
			// No instance boundaries inside a non-resumable Run: progress
			// jumps from zero to done.
			ck.observeSession(s, iters)
		}
	}
	s.Mon.Stop()
	if runErr != nil {
		res := &RunWorkloadResult{Session: s, Partial: true}
		if folded, err := s.Fold(w.Region()); err == nil {
			res.Folded = folded
		}
		return res, runErr
	}
	folded, err := s.Fold(w.Region())
	if err != nil {
		return nil, err
	}
	return &RunWorkloadResult{Session: s, Folded: folded}, nil
}

// RunHPCGCheckpointed is RunHPCG driven one CG iteration at a time, with
// cancellation polls, the instance fault-injection point and optional
// periodic snapshots between iterations. With a nil context and
// checkpointer the executed instruction stream is identical to RunHPCG.
// On cancellation it returns the partial result alongside a *RunError.
func RunHPCGCheckpointed(ctx context.Context, cfg Config, params hpcg.Params, ck *Checkpointer) (*HPCGRun, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	if err := hpcg.SetupBinary(s.Bin); err != nil {
		return nil, err
	}
	problem, err := hpcg.Generate(params, s.Core, s.Mon, s.Bin)
	if err != nil {
		return nil, err
	}
	s.Mon.Start()
	cgr, err := problem.NewCGRun()
	if err != nil {
		return nil, err
	}
	if ck != nil && ck.Resume != nil {
		if ck.Resume.CG == nil {
			return nil, fmt.Errorf("core: snapshot carries no CG solver state")
		}
		if err := s.RestoreSnapshot(ck.Resume, ck.Tag); err != nil {
			return nil, err
		}
		if err := cgr.RestoreState(*ck.Resume.CG); err != nil {
			return nil, err
		}
	}

	var runErr *RunError
	ck.observeSession(s, cgr.Result().Iterations)
	for {
		cur := checkpoint.Cursor{Iter: cgr.Result().Iterations}
		if err := ctx.Err(); err != nil {
			runErr = &RunError{Thread: 1, Cursor: cur, Cause: err}
			break
		}
		if err := faultinject.Hit(faultinject.PointInstance); err != nil {
			runErr = &RunError{Thread: 1, Cursor: cur, Cause: err}
			break
		}
		if ck.demanded() {
			snap, err := s.Snapshot(cur, ck.Tag)
			if err != nil {
				return nil, err
			}
			cgs := cgr.State()
			snap.CG = &cgs
			if err := ck.emit(snap); err != nil {
				return nil, err
			}
			runErr = &RunError{Thread: 1, Cursor: cur, Cause: ErrCheckpointDemanded}
			break
		}
		done, err := cgr.Step()
		if err != nil {
			return nil, err
		}
		ck.observeSession(s, cgr.Result().Iterations)
		if done {
			break
		}
		if k := cgr.Result().Iterations; ck != nil && ck.Every > 0 && k%ck.Every == 0 {
			snap, err := s.Snapshot(checkpoint.Cursor{Iter: k}, ck.Tag)
			if err != nil {
				return nil, err
			}
			cgs := cgr.State()
			snap.CG = &cgs
			if err := ck.emit(snap); err != nil {
				return nil, err
			}
		}
	}
	s.Mon.Stop()
	if runErr != nil {
		run := &HPCGRun{Session: s, Problem: problem, CG: cgr.Result(), Partial: true}
		if folded, err := s.Fold(problem.RegionIteration); err == nil {
			run.Folded = folded
			run.Paper = LabelPaperPhases(folded, s.FuncOf)
		}
		return run, runErr
	}
	folded, err := s.Fold(problem.RegionIteration)
	if err != nil {
		return nil, err
	}
	run := &HPCGRun{Session: s, Problem: problem, CG: cgr.Result(), Folded: folded}
	run.Paper = LabelPaperPhases(folded, s.FuncOf)
	return run, nil
}

// RunWorkloadSequentialCheckpointed is RunWorkloadSequential with periodic
// snapshots between instances of the deterministic thread-major schedule
// (thread 1 runs all its iterations, then thread 2, and so on). Resuming a
// snapshot reproduces the uninterrupted run's metrics and trace exactly.
func RunWorkloadSequentialCheckpointed(ctx context.Context, cfg Config, w workloads.PartitionedWorkload, iters, threads int, ck *Checkpointer) (*MachineWorkloadResult, error) {
	return runWorkloadPartitioned(ctx, cfg, w, iters, threads, false, ck)
}
