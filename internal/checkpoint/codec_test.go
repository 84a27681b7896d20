package checkpoint_test

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/pebs"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Monitor.MuxQuantumNs = 0
	cfg.Monitor.PEBS.Events = pebs.SampleLoads | pebs.SampleStores
	cfg.Monitor.PEBS.Period = 200
	cfg.Monitor.PEBS.Randomize = false
	cfg.Monitor.PEBS.LatencyThreshold = 0
	return cfg
}

// captureSnapshot produces a real mid-run snapshot (monitor records, PEBS
// engine state, cache contents, registry) rather than a synthetic one, so
// the codec tests cover every populated field.
func captureSnapshot(t testing.TB) *checkpoint.Snapshot {
	t.Helper()
	cfg := testConfig()
	var last *checkpoint.Snapshot
	ck := &core.Checkpointer{
		Every: 2,
		Tag:   core.CheckpointTag("codec", 1, cfg),
		Sink:  func(s *checkpoint.Snapshot) error { last = s; return nil },
	}
	if _, err := core.RunWorkload(nil, cfg, workloads.NewRandomAccess(1<<12, 1<<10, 3), 6, 1, ck); err != nil {
		t.Fatalf("run: %v", err)
	}
	if last == nil {
		t.Fatal("no snapshot emitted")
	}
	return last
}

func encode(t testing.TB, snap *checkpoint.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := checkpoint.Write(&buf, snap); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

func TestCodecRoundTrip(t *testing.T) {
	snap := captureSnapshot(t)
	first := encode(t, snap)
	got, err := checkpoint.Read(bytes.NewReader(first))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	// Re-encoding the decoded snapshot must reproduce the bytes exactly:
	// the codec is deterministic and loses nothing.
	second := encode(t, got)
	if !bytes.Equal(first, second) {
		t.Fatalf("re-encoded snapshot differs: %d vs %d bytes", len(second), len(first))
	}
	if got.Tag != snap.Tag || got.Cursor != snap.Cursor {
		t.Errorf("header mismatch: got (%q, %+v), want (%q, %+v)", got.Tag, got.Cursor, snap.Tag, snap.Cursor)
	}
	if len(got.Threads) != len(snap.Threads) {
		t.Fatalf("thread count mismatch: %d vs %d", len(got.Threads), len(snap.Threads))
	}
	if n, m := len(got.Threads[0].Mon.Events), len(snap.Threads[0].Mon.Events); n != m {
		t.Errorf("record count mismatch: %d vs %d", n, m)
	}
}

func TestReadHostileInputs(t *testing.T) {
	valid := encode(t, captureSnapshot(t))
	cases := map[string][]byte{
		"empty":          {},
		"short magic":    []byte("BS"),
		"bad magic":      []byte("XXXXrest-of-garbage"),
		"magic only":     []byte("BSCK"),
		"version only":   append([]byte("BSCK"), 0xff, 0xff, 0xff, 0xff, 0x0f),
		"truncated 1/4":  valid[:len(valid)/4],
		"truncated 1/2":  valid[:len(valid)/2],
		"truncated tail": valid[:len(valid)-1],
	}
	for name, data := range cases {
		if _, err := checkpoint.Read(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: hostile input accepted", name)
		}
	}
}

func TestReadBadVersion(t *testing.T) {
	valid := encode(t, captureSnapshot(t))
	// The version varint follows the 4-byte magic; 99 fits one varint byte,
	// same width as version 1, so the rest of the stream still lines up —
	// the decoder must reject on the version alone.
	bad := bytes.Clone(valid)
	bad[4] = 99
	if _, err := checkpoint.Read(bytes.NewReader(bad)); err == nil {
		t.Error("future snapshot version accepted")
	}
}

// TestReadFlippedBytes walks a corruption over the encoded snapshot: every
// mutation must either decode (the field happened to stay plausible) or
// error cleanly — never panic or hang.
func TestReadFlippedBytes(t *testing.T) {
	valid := encode(t, captureSnapshot(t))
	step := len(valid)/97 + 1
	for off := 0; off < len(valid); off += step {
		mut := bytes.Clone(valid)
		mut[off] ^= 0x41
		snap, err := checkpoint.Read(bytes.NewReader(mut))
		if err == nil && snap.Validate() != nil {
			t.Errorf("offset %d: decode succeeded but snapshot invalid", off)
		}
	}
}

// unknownShape encodes a real snapshot whose thread log ends in a record
// matching none of the event shapes: a lone counter pair (an event of no
// kind renders just its counters), or no pair at all.
func unknownShape(t testing.TB, counted uint16) []byte {
	t.Helper()
	snap := captureSnapshot(t)
	mon := &snap.Threads[0].Mon
	last := mon.Events[len(mon.Events)-1]
	mon.Events = append(mon.Events, trace.Event{TimeNs: last.TimeNs + 1, Counted: counted})
	return encode(t, snap)
}

// TestReadRejectsUnknownPairShape pins the log decoder's strictness: a
// record whose pairs are none of the event shapes fails the whole read.
func TestReadRejectsUnknownPairShape(t *testing.T) {
	for _, counted := range []uint16{0, 1} {
		if _, err := checkpoint.Read(bytes.NewReader(unknownShape(t, counted))); err == nil {
			t.Errorf("record with counters %b and no kind accepted", counted)
		} else if !strings.Contains(err.Error(), "record") {
			t.Errorf("error %q does not name the record", err)
		}
	}
}

func FuzzCheckpointDecode(f *testing.F) {
	valid := encode(f, captureSnapshot(f))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("BSCK"))
	f.Add([]byte{})
	f.Add(unknownShape(f, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := checkpoint.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything the decoder accepts must validate and re-encode: hostile
		// bytes may not produce a snapshot the rest of the stack chokes on.
		if err := snap.Validate(); err != nil {
			t.Fatalf("decoded snapshot fails validation: %v", err)
		}
		if err := checkpoint.Write(io.Discard, snap); err != nil {
			t.Fatalf("decoded snapshot fails re-encoding: %v", err)
		}
	})
}
