package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleRecords() []Record {
	return []Record{
		{TimeNs: 100, Task: 1, Thread: 1, Pairs: []TypeValue{{TypeRegion, 5}}},
		{TimeNs: 250, Task: 1, Thread: 1, Pairs: []TypeValue{
			{TypeSampleAddr, 0x1000}, {TypeSampleLatency, 230}, {TypeSampleSource, 3}}},
		{TimeNs: 300, Task: 1, Thread: 1, Pairs: []TypeValue{{TypeRegion, 0}}},
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 1, 2, 300)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sampleRecords() {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.Records() != 3 {
		t.Errorf("Records = %d", w.Records())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Tasks() != 1 || r.Threads() != 2 || r.DurationNs() != 300 {
		t.Errorf("header = %d/%d/%d", r.Tasks(), r.Threads(), r.DurationNs())
	}
	got, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sampleRecords()) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, sampleRecords())
	}
}

func TestWriterValidation(t *testing.T) {
	if _, err := NewWriter(io.Discard, 0, 1, 0); err == nil {
		t.Error("zero tasks accepted")
	}
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 1, 1, 0)
	if err := w.Write(Record{TimeNs: 1, Task: 1, Thread: 1}); err == nil {
		t.Error("empty pairs accepted")
	}
	if err := w.Write(Record{TimeNs: 1, Task: 0, Thread: 1,
		Pairs: []TypeValue{{1, 1}}}); err == nil {
		t.Error("task 0 accepted")
	}
	// Time regression on the same thread rejected.
	ok := Record{TimeNs: 100, Task: 1, Thread: 1, Pairs: []TypeValue{{1, 1}}}
	if err := w.Write(ok); err != nil {
		t.Fatal(err)
	}
	bad := ok
	bad.TimeNs = 50
	if err := w.Write(bad); !errors.Is(err, ErrTimeRegression) {
		t.Errorf("regression err = %v", err)
	}
	// Regression on another thread is fine (independent clocks merged later).
	other := Record{TimeNs: 50, Task: 1, Thread: 2, Pairs: []TypeValue{{1, 1}}}
	if err := w.Write(other); err != nil {
		t.Errorf("cross-thread earlier time rejected: %v", err)
	}
	w.Close()
	if err := w.Write(ok); err == nil {
		t.Error("write after close accepted")
	}
	if err := w.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestReaderErrors(t *testing.T) {
	if _, err := NewReader(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := NewReader(strings.NewReader("garbage\n")); err == nil {
		t.Error("bad header accepted")
	}
	badBodies := []string{
		"1:1:1:1:1:100:1:1",                     // unsupported kind
		"2:1:1:1:1:100:7",                       // odd pairs
		"2:1:1",                                 // short
		"2:1:1:x:1:100:1:1",                     // bad task
		"2:1:1:1:1:abc:1:1",                     // bad time
		"2:1:1:1:1:100:999999999999999999999:1", // bad type
	}
	for _, body := range badBodies {
		r, err := NewReader(strings.NewReader("#Paraver (0):1:1\n" + body + "\n"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Next(); err == nil || errors.Is(err, io.EOF) {
			t.Errorf("body %q accepted", body)
		}
	}
	// Comments and blank lines are skipped.
	r, _ := NewReader(strings.NewReader("#Paraver (0):1:1\n\n# comment\n2:1:1:1:1:5:1:2\n"))
	rec, err := r.Next()
	if err != nil || rec.TimeNs != 5 {
		t.Errorf("skipping comments: %+v, %v", rec, err)
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("EOF expected, got %v", err)
	}
}

func TestRecordGetHas(t *testing.T) {
	r := sampleRecords()[1]
	v, ok := r.Get(TypeSampleLatency)
	if !ok || v != 230 {
		t.Errorf("Get = %d, %v", v, ok)
	}
	if r.Has(TypeRegion) {
		t.Error("Has false positive")
	}
	if _, ok := r.Get(TypeRegion); ok {
		t.Error("Get false positive")
	}
}

func TestMergeSortsStably(t *testing.T) {
	var a, b Log
	a.Add(Event{TimeNs: 10, Kind: KindFree, Addr: 1}, Event{TimeNs: 30, Kind: KindFree, Addr: 2})
	b.Add(Event{TimeNs: 5, Kind: KindFree, Addr: 3}, Event{TimeNs: 10, Kind: KindFree, Addr: 4},
		Event{TimeNs: 40, Kind: KindFree, Addr: 5})
	m := Merge(&a, &b)
	if len(m) != 5 {
		t.Fatalf("merged %d records", len(m))
	}
	times := []uint64{5, 10, 10, 30, 40}
	for i, r := range m {
		if r.Event.TimeNs != times[i] {
			t.Errorf("merge order wrong at %d: %d", i, r.Event.TimeNs)
		}
	}
	// Equal timestamps ordered by thread (the lower log first).
	if m[1].Log != 0 || m[2].Log != 1 || m[1].Event.Addr != 1 || m[2].Event.Addr != 4 {
		t.Error("tie-break by thread failed")
	}
	// A walk can stop early, as a failed write stops WriteTrace.
	n := 0
	for range Merged(&a, &b) {
		if n++; n == 2 {
			break
		}
	}
	if n != 2 {
		t.Errorf("walk stopped after %d events, want 2", n)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, 1, 2, 300, recs); err != nil {
		t.Fatal(err)
	}
	nt, nth, dur, got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if nt != 1 || nth != 2 || dur != 300 {
		t.Errorf("header = %d/%d/%d", nt, nth, dur)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("binary round trip mismatch:\ngot  %+v\nwant %+v", got, recs)
	}
}

func TestBinaryRejectsUnsorted(t *testing.T) {
	recs := []Record{
		{TimeNs: 100, Task: 1, Thread: 1, Pairs: []TypeValue{{1, 1}}},
		{TimeNs: 50, Task: 1, Thread: 1, Pairs: []TypeValue{{1, 1}}},
	}
	if err := WriteBinary(io.Discard, 1, 1, 0, recs); err == nil {
		t.Error("unsorted records accepted")
	}
}

func TestBinaryBadInput(t *testing.T) {
	if _, _, _, _, err := ReadBinary(strings.NewReader("NOPE")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic err = %v", err)
	}
	if _, _, _, _, err := ReadBinary(strings.NewReader("BS")); err == nil {
		t.Error("truncated magic accepted")
	}
	// Truncated body.
	var buf bytes.Buffer
	WriteBinary(&buf, 1, 1, 0, sampleRecords())
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, _, _, _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated trace accepted")
	}
}

func TestPropertyBinaryRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := make([]Record, 0, n)
		now := uint64(0)
		for i := 0; i < int(n); i++ {
			now += uint64(rng.Intn(1000))
			rec := Record{TimeNs: now, Task: 1 + rng.Intn(3), Thread: 1 + rng.Intn(2)}
			for j := 0; j <= rng.Intn(4); j++ {
				rec.Pairs = append(rec.Pairs, TypeValue{
					Type:  uint32(rng.Intn(1 << 28)),
					Value: rng.Int63n(1<<40) - 1<<39, // negative values too
				})
			}
			recs = append(recs, rec)
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, 3, 2, now, recs); err != nil {
			return false
		}
		_, _, _, got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(recs) {
			return false
		}
		for i := range recs {
			if !reflect.DeepEqual(got[i], recs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPCFRoundTrip(t *testing.T) {
	l := NewLabels()
	l.SetType(TypeRegion, "User function")
	l.SetValue(TypeRegion, 1, "ComputeSPMV_ref")
	l.SetValue(TypeRegion, 2, "ComputeSYMGS_ref")
	l.SetType(TypeSampleSource, "Data source")
	l.SetValue(TypeSampleSource, 0, "L1")
	l.SetValue(TypeSampleSource, 3, "DRAM")
	l.SetType(TypeSampleAddr, "Sampled address")

	var buf bytes.Buffer
	if err := l.WritePCF(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParsePCF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.TypeName(TypeRegion) != "User function" {
		t.Errorf("TypeName = %q", got.TypeName(TypeRegion))
	}
	if got.ValueName(TypeRegion, 2) != "ComputeSYMGS_ref" {
		t.Errorf("ValueName = %q", got.ValueName(TypeRegion, 2))
	}
	if got.ValueName(TypeSampleSource, 3) != "DRAM" {
		t.Errorf("source label = %q", got.ValueName(TypeSampleSource, 3))
	}
	// Fallbacks.
	if got.TypeName(999) != "type_999" {
		t.Errorf("fallback type name = %q", got.TypeName(999))
	}
	if got.ValueName(TypeRegion, 42) != "42" {
		t.Errorf("fallback value name = %q", got.ValueName(TypeRegion, 42))
	}
}

func TestPCFParseErrors(t *testing.T) {
	bad := []string{
		"VALUES\n1 x\n",                   // VALUES before type
		"EVENT_TYPE\n0 12\n",              // short type line
		"EVENT_TYPE\n0 xx label\n",        // bad type number
		"EVENT_TYPE\n0 1 ok\nVALUES\nz\n", // bad value line
	}
	for _, s := range bad {
		if _, err := ParsePCF(strings.NewReader(s)); err == nil {
			t.Errorf("pcf %q accepted", s)
		}
	}
	// Labels with spaces survive.
	l := NewLabels()
	l.SetType(1, "User function name")
	l.SetValue(1, 1, "foo bar (baz.c:10)")
	var buf bytes.Buffer
	l.WritePCF(&buf)
	got, err := ParsePCF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ValueName(1, 1) != "foo bar (baz.c:10)" {
		t.Errorf("spaced label = %q", got.ValueName(1, 1))
	}
}
