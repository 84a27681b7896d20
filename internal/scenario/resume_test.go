package scenario

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/machspec"
	"repro/internal/trace"
)

// TestKillAndResumeMatchesGolden is the end-to-end fault-tolerance
// acceptance test: kill a scenario run at an instance boundary via the
// fault-injection harness, resume it from the last snapshot (round-tripped
// through the binary codec, as simrun -checkpoint/-resume would), and
// require the resumed run's Metrics JSON to equal the checked-in golden
// file byte for byte. The subset covers every path: the single-thread
// Session, the sequential Machine, the NUMA-routed Machine (page placement
// state) and the HPCG solver (CG vector state), flat and on two sockets.
func TestKillAndResumeMatchesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are amd64-generated; FMA fusion on %s perturbs float64 reductions", runtime.GOARCH)
	}
	cases := []struct {
		name  string
		every int
		// killAt is the 1-based instance hit that fails; it must land past
		// the first snapshot (every) so there is something to resume.
		killAt uint64
	}{
		{name: "stream_triad_1t", every: 3, killAt: 7},
		{name: "spmv_csr_4t", every: 5, killAt: 14},
		{name: "stream_numa_ft_2s4t", every: 5, killAt: 14},
		// The HPCG scenarios run 3 CG iterations: snapshot after the
		// second, kill entering the third.
		{name: "hpcg_8_1t", every: 2, killAt: 3},
		{name: "hpcg_numa_ft_2s1t", every: 2, killAt: 3},
		{name: "hpcg_numa_il_2s1t", every: 2, killAt: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, ok := Get(tc.name)
			if !ok {
				t.Fatalf("scenario %q not registered", tc.name)
			}
			golden, err := os.ReadFile(goldenPath(tc.name))
			if err != nil {
				t.Fatal(err)
			}

			var lastEnc []byte
			opts := Options{
				CheckpointEvery: tc.every,
				CheckpointSink: func(s *checkpoint.Snapshot) error {
					var buf bytes.Buffer
					if err := checkpoint.Write(&buf, s); err != nil {
						return err
					}
					lastEnc = buf.Bytes()
					return nil
				},
			}
			faultinject.Enable(faultinject.PointInstance, tc.killAt, nil)
			m, err := Run(sc, opts)
			faultinject.Reset()
			var rerr *core.RunError
			if !errors.As(err, &rerr) {
				t.Fatalf("killed run: got %T %v, want *core.RunError", err, err)
			}
			if m == nil || !m.Partial || m.Fault == "" || m.FaultCursor == "" {
				t.Fatalf("killed run's metrics not marked partial: %+v", m)
			}
			if lastEnc == nil {
				t.Fatal("no snapshot emitted before the kill")
			}

			snap, err := checkpoint.Read(bytes.NewReader(lastEnc))
			if err != nil {
				t.Fatalf("decoding snapshot: %v", err)
			}
			resumed, err := Run(sc, Options{Resume: snap})
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			got, err := resumed.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, golden) {
				t.Errorf("resumed metrics differ from golden %s (%d vs %d bytes)", tc.name, len(got), len(golden))
			}
		})
	}
}

// TestResumeSessionCheckpointMatchesGolden resumes a checkpoint written
// while single-thread runs still had their own Session driver (`simrun
// -run stream_triad_smallcache_1t -checkpoint-every 2 -checkpoint`, whose
// latest snapshot sits at iteration 8; gzipped): the resumed metrics must
// equal the golden. Snapshots parked by simd and simrun -checkpoint files
// written by those versions must keep resuming, so the one-thread machine
// keeps that snapshot's shape — one thread, a private L3, no shared cache.
func TestResumeSessionCheckpointMatchesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are amd64-generated; FMA fusion on %s perturbs float64 reductions", runtime.GOARCH)
	}
	const name = "stream_triad_smallcache_1t"
	f, err := os.Open(filepath.Join("testdata", name+".ck.gz"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Read(zr)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Cursor != (checkpoint.Cursor{Iter: 8}) || len(snap.Threads) != 1 || len(snap.L3s) != 0 {
		t.Fatalf("fixture snapshot at %+v with %d threads and %d shared caches", snap.Cursor, len(snap.Threads), len(snap.L3s))
	}
	sc, ok := Get(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	m, err := Run(sc, Options{Resume: snap})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	got, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Errorf("resumed metrics differ from golden %s (%d vs %d bytes)", name, len(got), len(golden))
	}
}

// TestResumeWrongScenarioRejected pins the tag validation: a snapshot from
// one scenario must not silently resume another.
func TestResumeWrongScenarioRejected(t *testing.T) {
	sc, ok := Get("stream_triad_1t")
	if !ok {
		t.Fatal("scenario missing")
	}
	var last *checkpoint.Snapshot
	opts := Options{
		CheckpointEvery: 3,
		CheckpointSink:  func(s *checkpoint.Snapshot) error { last = s; return nil },
	}
	if _, err := Run(sc, opts); err != nil {
		t.Fatal(err)
	}
	if last == nil {
		t.Fatal("no snapshot emitted")
	}
	other, ok := Get("random_access_1t")
	if !ok {
		t.Fatal("scenario missing")
	}
	if _, err := Run(other, Options{Resume: last}); err == nil {
		t.Fatal("snapshot resumed under the wrong scenario")
	}
}

// TestResumeThenTimeoutEmitsPartial is the timeout-clock regression: a
// resumed run whose deadline expires must still stop at an instance
// boundary with clearly-marked partial metrics — the resume read happening
// before the clock starts (simrun orders them that way) must not change
// the abort path's behavior. The already-cancelled context stands in for a
// deadline that expired the moment dispatch began.
func TestResumeThenTimeoutEmitsPartial(t *testing.T) {
	sc, ok := Get("stream_triad_1t")
	if !ok {
		t.Fatal("scenario missing")
	}
	var last *checkpoint.Snapshot
	opts := Options{
		CheckpointEvery: 3,
		CheckpointSink:  func(s *checkpoint.Snapshot) error { last = s; return nil },
	}
	if _, err := Run(sc, opts); err != nil {
		t.Fatal(err)
	}
	if last == nil {
		t.Fatal("no snapshot emitted")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := Run(sc, Options{Resume: last, Context: ctx})
	var rerr *core.RunError
	if !errors.As(err, &rerr) {
		t.Fatalf("cancelled resume: got %T %v, want *core.RunError", err, err)
	}
	if m == nil || !m.Partial || m.FaultCursor == "" {
		t.Fatalf("cancelled resume's metrics not marked partial: %+v", m)
	}
}

// TestResumeUnderDifferentMachineRejected pins the checkpoint tag: a
// snapshot taken on the scenario's own machine must not resume under a
// -machine override (the simulated hardware differs, so the state is
// meaningless there).
func TestResumeUnderDifferentMachineRejected(t *testing.T) {
	sc, ok := Get("stream_triad_1t")
	if !ok {
		t.Fatal("scenario missing")
	}
	var last *checkpoint.Snapshot
	opts := Options{
		CheckpointEvery: 3,
		CheckpointSink:  func(s *checkpoint.Snapshot) error { last = s; return nil },
	}
	if _, err := Run(sc, opts); err != nil {
		t.Fatal(err)
	}
	spec, err := machspec.Named("small")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(sc, Options{Resume: last, Machine: spec}); err == nil {
		t.Fatal("snapshot resumed under a different machine spec")
	}
}

// appendOrder rewrites a snapshot's logs into the order a monitor logged
// them in when each drained sample was appended at the end of the log:
// samples that fired before a region entry but drained after it follow
// that entry. Each such sample's time is below the entry's, so a stable
// sort by time restores the log.
func appendOrder(t *testing.T, snap *checkpoint.Snapshot) {
	t.Helper()
	moved := 0
	for i := range snap.Threads {
		events := snap.Threads[i].Mon.Events
		out := make([]trace.Event, 0, len(events))
		var pending []trace.Event
		for _, e := range events {
			switch {
			case e.Kind == trace.KindSample:
				pending = append(pending, e)
			case e.Kind == trace.KindRegion && e.Addr != 0 && len(pending) > 0 && pending[len(pending)-1].TimeNs < e.TimeNs:
				out = append(out, e)
				moved += len(pending)
			default:
				out = append(append(out, pending...), e)
				pending = pending[:0]
			}
		}
		snap.Threads[i].Mon.Events = append(out, pending...)
	}
	if moved == 0 {
		t.Fatal("no sample moved: the snapshot's logs cannot show logging order")
	}
}

// TestResumeAppendOrderSnapshotMatchesGolden resumes from snapshots whose
// logs are in logging order, as snapshots were written before the log kept
// itself in time order: the resumed metrics must equal the golden.
func TestResumeAppendOrderSnapshotMatchesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are amd64-generated; FMA fusion on %s perturbs float64 reductions", runtime.GOARCH)
	}
	for _, name := range []string{"hpcg_8_1t", "hpcg_8_mux_1t"} {
		t.Run(name, func(t *testing.T) {
			sc, ok := Get(name)
			if !ok {
				t.Fatalf("scenario %q not registered", name)
			}
			golden, err := os.ReadFile(goldenPath(name))
			if err != nil {
				t.Fatal(err)
			}
			var snap *checkpoint.Snapshot
			opts := Options{
				CheckpointEvery: 2,
				CheckpointSink:  func(s *checkpoint.Snapshot) error { snap = s; return nil },
			}
			if _, err := Run(sc, opts); err != nil {
				t.Fatal(err)
			}
			if snap == nil {
				t.Fatal("no snapshot emitted")
			}
			appendOrder(t, snap)
			var buf bytes.Buffer
			if err := checkpoint.Write(&buf, snap); err != nil {
				t.Fatal(err)
			}
			old, err := checkpoint.Read(&buf)
			if err != nil {
				t.Fatalf("decoding snapshot: %v", err)
			}
			resumed, err := Run(sc, Options{Resume: old})
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			got, err := resumed.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, golden) {
				t.Errorf("resumed metrics differ from golden %s (%d vs %d bytes)", name, len(got), len(golden))
			}
		})
	}
}
