package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/faultinject"
	"repro/internal/hpcg"
	"repro/internal/workloads"
)

// traceBytes serializes a session's trace pair; byte equality of the PRV is
// the strongest "same run" oracle the stack has.
func traceBytes(t *testing.T, wt interface {
	WriteTrace(prv, pcf interface {
		Write(p []byte) (int, error)
	}) error
}) (prv, pcf []byte) {
	t.Helper()
	var pb, cb bytes.Buffer
	if err := wt.WriteTrace(&pb, &cb); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	return pb.Bytes(), cb.Bytes()
}

// reencode pushes a snapshot through the binary codec, proving resume works
// from the serialized form and not just the in-memory object graph.
func reencode(t *testing.T, snap *checkpoint.Snapshot) *checkpoint.Snapshot {
	t.Helper()
	var buf bytes.Buffer
	if err := checkpoint.Write(&buf, snap); err != nil {
		t.Fatalf("checkpoint.Write: %v", err)
	}
	got, err := checkpoint.Read(&buf)
	if err != nil {
		t.Fatalf("checkpoint.Read: %v", err)
	}
	return got
}

func asRunError(t *testing.T, err error) *RunError {
	t.Helper()
	var rerr *RunError
	if !errors.As(err, &rerr) {
		t.Fatalf("expected *RunError, got %T: %v", err, err)
	}
	return rerr
}

func TestSessionCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunWorkload(ctx, testConfig(), workloads.NewStream(1<<10), 4, 1, nil)
	rerr := asRunError(t, err)
	if !errors.Is(rerr.Cause, context.Canceled) {
		t.Errorf("cause = %v, want context.Canceled", rerr.Cause)
	}
	if rerr.Cursor != (checkpoint.Cursor{}) {
		t.Errorf("cursor = %+v, want zero (nothing ran)", rerr.Cursor)
	}
	if res == nil || !res.Partial {
		t.Errorf("partial result missing or unmarked: %+v", res)
	}
}

func TestInjectedInstanceFault(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Enable(faultinject.PointInstance, 3, nil)
	res, err := RunWorkload(nil, testConfig(), workloads.NewStream(1<<10), 6, 1, nil)
	rerr := asRunError(t, err)
	if !errors.Is(rerr.Cause, faultinject.ErrInjected) {
		t.Errorf("cause = %v, want ErrInjected", rerr.Cause)
	}
	if want := (checkpoint.Cursor{Thread: 0, Iter: 2}); rerr.Cursor != want {
		t.Errorf("cursor = %+v, want %+v (two instances completed)", rerr.Cursor, want)
	}
	if res == nil || !res.Partial {
		t.Fatalf("partial result missing or unmarked")
	}
	if len(res.Threads) != 1 {
		t.Errorf("two completed instances should still fold")
	}
}

func TestCheckpointSinkFault(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Enable(faultinject.PointCheckpoint, 1, nil)
	cfg := testConfig()
	ck := &Checkpointer{Every: 2, Tag: CheckpointTag("stream_triad", 1, cfg)}
	_, err := RunWorkload(nil, cfg, workloads.NewStream(1<<10), 6, 1, ck)
	if err == nil || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want injected checkpoint failure", err)
	}
	if !strings.Contains(err.Error(), "checkpoint") {
		t.Errorf("error should name the checkpoint stage: %v", err)
	}
}

func TestResumeTagMismatch(t *testing.T) {
	cfg := testConfig()
	var last *checkpoint.Snapshot
	ck := &Checkpointer{
		Every: 2,
		Tag:   CheckpointTag("stream_triad", 1, cfg),
		Sink:  func(s *checkpoint.Snapshot) error { last = s; return nil },
	}
	if _, err := RunWorkload(nil, cfg, workloads.NewStream(1<<10), 4, 1, ck); err != nil {
		t.Fatalf("run: %v", err)
	}
	if last == nil {
		t.Fatal("no snapshot emitted")
	}
	bad := &Checkpointer{Tag: CheckpointTag("other", 1, cfg), Resume: last}
	if _, err := RunWorkload(nil, cfg, workloads.NewStream(1<<10), 4, 1, bad); err == nil {
		t.Fatal("tag mismatch accepted")
	}
}

// killAndResume runs golden (uninterrupted), then kills the same run at the
// fault-injection instance point, resumes from the last snapshot (routed
// through the binary codec) and returns golden and resumed trace bytes.
func killAndResume(t *testing.T, tag string, killAt uint64,
	run func(ck *Checkpointer) (interface {
		WriteTrace(prv, pcf interface {
			Write(p []byte) (int, error)
		}) error
	}, error),
) (goldenPRV, goldenPCF, resumedPRV, resumedPCF []byte) {
	t.Helper()
	golden, err := run(nil)
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	goldenPRV, goldenPCF = traceBytes(t, golden)

	var lastEnc []byte
	ck := &Checkpointer{
		Every: 2,
		Tag:   tag,
		Sink: func(s *checkpoint.Snapshot) error {
			var buf bytes.Buffer
			if err := checkpoint.Write(&buf, s); err != nil {
				return err
			}
			lastEnc = buf.Bytes()
			return nil
		},
	}
	faultinject.Enable(faultinject.PointInstance, killAt, nil)
	_, err = run(ck)
	faultinject.Reset()
	asRunError(t, err)
	if lastEnc == nil {
		t.Fatal("no snapshot emitted before the kill")
	}
	snap, err := checkpoint.Read(bytes.NewReader(lastEnc))
	if err != nil {
		t.Fatalf("decoding snapshot: %v", err)
	}
	resumed, err := run(&Checkpointer{Tag: tag, Resume: snap})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	resumedPRV, resumedPCF = traceBytes(t, resumed)
	return
}

func checkByteExact(t *testing.T, goldenPRV, goldenPCF, resumedPRV, resumedPCF []byte) {
	t.Helper()
	if !bytes.Equal(goldenPRV, resumedPRV) {
		t.Errorf("resumed PRV differs from uninterrupted run (%d vs %d bytes)", len(resumedPRV), len(goldenPRV))
	}
	if !bytes.Equal(goldenPCF, resumedPCF) {
		t.Errorf("resumed PCF differs from uninterrupted run")
	}
}

func TestKillResumeSessionByteExact(t *testing.T) {
	cfg := testConfig()
	tag := CheckpointTag("stream_triad", 1, cfg)
	g1, g2, r1, r2 := killAndResume(t, tag, 5, func(ck *Checkpointer) (interface {
		WriteTrace(prv, pcf interface {
			Write(p []byte) (int, error)
		}) error
	}, error) {
		res, err := RunWorkload(nil, cfg, workloads.NewStream(1<<12), 6, 1, ck)
		if err != nil {
			return nil, err
		}
		return res.Machine, nil
	})
	checkByteExact(t, g1, g2, r1, r2)
}

// The RNG-driven workload is the hardest resume case: the access stream
// position must be reconstructed exactly, not just the array contents.
func TestKillResumeMachineByteExact(t *testing.T) {
	cfg := testConfig()
	tag := CheckpointTag("random_access", 2, cfg)
	g1, g2, r1, r2 := killAndResume(t, tag, 7, func(ck *Checkpointer) (interface {
		WriteTrace(prv, pcf interface {
			Write(p []byte) (int, error)
		}) error
	}, error) {
		w := workloads.NewRandomAccess(1<<12, 1<<10, 7)
		res, err := RunWorkload(nil, cfg, w, 4, 2, ck)
		if err != nil {
			return nil, err
		}
		return res.Machine, nil
	})
	checkByteExact(t, g1, g2, r1, r2)
}

func TestKillResumeHPCGByteExact(t *testing.T) {
	cfg := testConfig()
	params := testHPCGParams()
	params.MaxIters = 8
	tag := CheckpointTag("hpcg", 1, cfg)
	var histories []string
	g1, g2, r1, r2 := killAndResume(t, tag, 6, func(ck *Checkpointer) (interface {
		WriteTrace(prv, pcf interface {
			Write(p []byte) (int, error)
		}) error
	}, error) {
		run, err := RunHPCGCheckpointed(nil, cfg, params, ck)
		if err != nil {
			return nil, err
		}
		// %x renders the exact float64 bits: the solver state restore must
		// be bit-exact, not merely close.
		histories = append(histories, fmt.Sprintf("%x %x", run.CG.Residuals, run.CG.FinalError))
		return run.Session, nil
	})
	checkByteExact(t, g1, g2, r1, r2)
	// histories[0] is the golden run, the last entry the resumed run (the
	// killed run errors before appending).
	if got, want := histories[len(histories)-1], histories[0]; got != want {
		t.Errorf("resumed CG residual history differs:\ngolden  %s\nresumed %s", want, got)
	}
}

func TestTeamPanicReleasesBarrier(t *testing.T) {
	m, err := NewMachine(testConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	team, err := m.Team()
	if err != nil {
		t.Fatal(err)
	}
	defer team.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		team.Run(func(tid int, _ *hpcg.Worker) {
			if tid == 2 {
				panic("injected worker panic")
			}
		})
		// A poisoned team must refuse further sections without blocking.
		team.Run(func(tid int, _ *hpcg.Worker) {
			t.Error("poisoned team ran another parallel section")
		})
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("team barrier never released after worker panic")
	}
	if err := team.Err(); err == nil || !strings.Contains(err.Error(), "panic") {
		t.Errorf("team.Err() = %v, want recorded panic", err)
	}
}

func TestHPCGParallelCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	run, err := RunHPCGParallel(ctx, testConfig(), testHPCGParams(), 2)
	rerr := asRunError(t, err)
	if !errors.Is(rerr.Cause, context.Canceled) {
		t.Errorf("cause = %v, want context.Canceled", rerr.Cause)
	}
	if run == nil || !run.Partial {
		t.Errorf("partial run missing or unmarked")
	}
}

// demandAfter returns a Demand poll that fires from its n-th call on — the
// poll-counting pattern a draining server uses (every instance boundary
// polls once).
func demandAfter(n int) func() bool {
	polls := 0
	return func() bool {
		polls++
		return polls >= n
	}
}

// TestDemandCheckpointResumeByteExact pins the drain primitive: a run
// stopped by Checkpointer.Demand emits a snapshot at the stop cursor, the
// RunError carries ErrCheckpointDemanded, and resuming the snapshot
// reproduces the uninterrupted trace byte for byte.
func TestDemandCheckpointResumeByteExact(t *testing.T) {
	cfg := testConfig()
	tag := CheckpointTag("stream_triad", 1, cfg)
	run := func(ck *Checkpointer) (*MachineWorkloadResult, error) {
		return RunWorkload(nil, cfg, workloads.NewStream(1<<12), 6, 1, ck)
	}
	golden, err := run(nil)
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	goldenPRV, goldenPCF := traceBytes(t, golden.Machine)

	var snap *checkpoint.Snapshot
	ck := &Checkpointer{
		Tag:    tag,
		Demand: demandAfter(4),
		Sink:   func(s *checkpoint.Snapshot) error { snap = s; return nil },
	}
	res, err := run(ck)
	rerr := asRunError(t, err)
	if !errors.Is(rerr.Cause, ErrCheckpointDemanded) {
		t.Fatalf("cause = %v, want ErrCheckpointDemanded", rerr.Cause)
	}
	if res == nil || !res.Partial {
		t.Fatal("demand stop should return a partial-marked result")
	}
	if snap == nil {
		t.Fatal("no snapshot emitted")
	}
	if snap.Cursor != rerr.Cursor {
		t.Fatalf("snapshot cursor %+v != RunError cursor %+v", snap.Cursor, rerr.Cursor)
	}
	if want := (checkpoint.Cursor{Thread: 0, Iter: 3}); snap.Cursor != want {
		t.Errorf("cursor = %+v, want %+v (three instances completed before the 4th poll)", snap.Cursor, want)
	}
	resumed, err := run(&Checkpointer{Tag: tag, Resume: reencode(t, snap)})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	resumedPRV, resumedPCF := traceBytes(t, resumed.Machine)
	checkByteExact(t, goldenPRV, goldenPCF, resumedPRV, resumedPCF)
}

// TestDemandCheckpointMachineAndHPCG covers the demand poll on the other two
// deterministic schedules: the thread-major machine run and the CG solve.
func TestDemandCheckpointMachineAndHPCG(t *testing.T) {
	cfg := testConfig()
	{
		tag := CheckpointTag("random_access", 2, cfg)
		run := func(ck *Checkpointer) (*MachineWorkloadResult, error) {
			w := workloads.NewRandomAccess(1<<12, 1<<10, 7)
			return RunWorkload(nil, cfg, w, 4, 2, ck)
		}
		golden, err := run(nil)
		if err != nil {
			t.Fatalf("golden machine run: %v", err)
		}
		goldenPRV, goldenPCF := traceBytes(t, golden.Machine)
		var snap *checkpoint.Snapshot
		ck := &Checkpointer{Tag: tag, Demand: demandAfter(6),
			Sink: func(s *checkpoint.Snapshot) error { snap = s; return nil }}
		_, err = run(ck)
		rerr := asRunError(t, err)
		if !errors.Is(rerr.Cause, ErrCheckpointDemanded) || snap == nil {
			t.Fatalf("machine demand stop: cause=%v snapshot=%v", rerr.Cause, snap != nil)
		}
		resumed, err := run(&Checkpointer{Tag: tag, Resume: reencode(t, snap)})
		if err != nil {
			t.Fatalf("resumed machine run: %v", err)
		}
		rPRV, rPCF := traceBytes(t, resumed.Machine)
		checkByteExact(t, goldenPRV, goldenPCF, rPRV, rPCF)
	}
	{
		params := testHPCGParams()
		params.MaxIters = 8
		tag := CheckpointTag("hpcg", 1, cfg)
		run := func(ck *Checkpointer) (*HPCGRun, error) {
			return RunHPCGCheckpointed(nil, cfg, params, ck)
		}
		golden, err := run(nil)
		if err != nil {
			t.Fatalf("golden hpcg run: %v", err)
		}
		goldenPRV, goldenPCF := traceBytes(t, golden.Session)
		var snap *checkpoint.Snapshot
		ck := &Checkpointer{Tag: tag, Demand: demandAfter(5),
			Sink: func(s *checkpoint.Snapshot) error { snap = s; return nil }}
		_, err = run(ck)
		rerr := asRunError(t, err)
		if !errors.Is(rerr.Cause, ErrCheckpointDemanded) || snap == nil || snap.CG == nil {
			t.Fatalf("hpcg demand stop: cause=%v snapshot=%v cg=%v", rerr.Cause, snap != nil, snap != nil && snap.CG != nil)
		}
		resumed, err := run(&Checkpointer{Tag: tag, Resume: reencode(t, snap)})
		if err != nil {
			t.Fatalf("resumed hpcg run: %v", err)
		}
		if fmt.Sprintf("%x", resumed.CG.Residuals) != fmt.Sprintf("%x", golden.CG.Residuals) {
			t.Errorf("resumed CG residual history differs from golden")
		}
		rPRV, rPCF := traceBytes(t, resumed.Session)
		checkByteExact(t, goldenPRV, goldenPCF, rPRV, rPCF)
	}
}

// TestPeriodicSnapshotCadenceAfterResume pins the periodic snapshots to
// the schedule, not to the resume point: a 2-thread, 4-iteration run
// resumed from a demand snapshot at (thread 0, iter 1) with Every 2 must
// emit the uninterrupted run's later snapshots, at the same cursors and
// byte for byte.
func TestPeriodicSnapshotCadenceAfterResume(t *testing.T) {
	cfg := testConfig()
	tag := CheckpointTag("random_access", 2, cfg)
	// run executes the schedule under ck and returns the encoded
	// snapshots it emits, keyed by cursor in emission order.
	type emitted struct {
		cur checkpoint.Cursor
		enc []byte
	}
	run := func(ck *Checkpointer) []emitted {
		t.Helper()
		var out []emitted
		ck.Tag = tag
		ck.Sink = func(s *checkpoint.Snapshot) error {
			var buf bytes.Buffer
			if err := checkpoint.Write(&buf, s); err != nil {
				return err
			}
			out = append(out, emitted{s.Cursor, buf.Bytes()})
			return nil
		}
		_, err := RunWorkload(nil, cfg, workloads.NewRandomAccess(1<<12, 1<<10, 7), 4, 2, ck)
		if err != nil && !errors.Is(err, ErrCheckpointDemanded) {
			t.Fatal(err)
		}
		return out
	}
	want := run(&Checkpointer{Every: 2})
	var wantCur []checkpoint.Cursor
	for _, e := range want {
		wantCur = append(wantCur, e.cur)
	}
	if !slices.Equal(wantCur, []checkpoint.Cursor{{Thread: 0, Iter: 2}, {Thread: 1, Iter: 0}, {Thread: 1, Iter: 2}}) {
		t.Fatalf("uninterrupted run snapshots at %v", wantCur)
	}
	stop := run(&Checkpointer{Demand: demandAfter(2)})
	if len(stop) != 1 || stop[0].cur != (checkpoint.Cursor{Iter: 1}) {
		t.Fatalf("demand stop emitted %d snapshots, want one at (thread 0, iter 1)", len(stop))
	}
	snap, err := checkpoint.Read(bytes.NewReader(stop[0].enc))
	if err != nil {
		t.Fatal(err)
	}
	got := run(&Checkpointer{Every: 2, Resume: snap})
	if len(got) != len(want) {
		t.Fatalf("resumed run emitted %d snapshots, uninterrupted run %d", len(got), len(want))
	}
	for i := range got {
		if got[i].cur != want[i].cur {
			t.Errorf("resumed snapshot %d at %+v, uninterrupted at %+v", i, got[i].cur, want[i].cur)
		} else if !bytes.Equal(got[i].enc, want[i].enc) {
			t.Errorf("resumed snapshot at %+v differs from the uninterrupted one", got[i].cur)
		}
	}
}
