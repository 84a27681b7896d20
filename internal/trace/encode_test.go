package trace

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// fmtRecord is the PRV event line as the Writer formatted it with fmt
// before appendRecord: the reference the encoder must match byte for byte.
func fmtRecord(r Record) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "2:1:1:%d:%d:%d", r.Task, r.Thread, r.TimeNs)
	for _, p := range r.Pairs {
		fmt.Fprintf(&sb, ":%d:%d", p.Type, p.Value)
	}
	sb.WriteByte('\n')
	return sb.String()
}

// randomRecord draws a record whose fields hit the formatting edge cases:
// negative values, 0, the int64 extremes, a max-uint64 time and long pair
// lists.
func randomRecord(rng *rand.Rand) Record {
	pick := func(edges []int64) int64 {
		if rng.Intn(3) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		return (rng.Int63() >> uint(rng.Intn(63))) * int64(1-2*rng.Intn(2))
	}
	values := []int64{0, -1, 1, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, -10, 10}
	times := []uint64{0, 1, math.MaxUint64, math.MaxUint64 - 1, 1e9, 1 << 63}
	types := []uint32{0, 1, math.MaxUint32, TypeRegion, TypeSampleAddr, TypeCounterBase + 8}
	r := Record{
		Task:   1 + rng.Intn(3),
		Thread: 1 + rng.Intn(3),
		TimeNs: rng.Uint64() >> uint(rng.Intn(64)),
		Pairs:  make([]TypeValue, 1+rng.Intn(40)),
	}
	if rng.Intn(8) == 0 {
		r.Task, r.Thread = math.MaxInt, math.MaxInt32
	}
	if rng.Intn(4) == 0 {
		r.TimeNs = times[rng.Intn(len(times))]
	}
	for i := range r.Pairs {
		typ := rng.Uint32()
		if rng.Intn(2) == 0 {
			typ = types[rng.Intn(len(types))]
		}
		r.Pairs[i] = TypeValue{Type: typ, Value: pick(values)}
	}
	return r
}

func TestAppendRecordMatchesFmt(t *testing.T) {
	edges := Record{TimeNs: math.MaxUint64, Task: 1, Thread: 1, Pairs: []TypeValue{
		{0, 0}, {1, -1}, {math.MaxUint32, math.MinInt64}, {TypeRegion, math.MaxInt64}, {TypeSampleAddr, -42},
	}}
	rng := rand.New(rand.NewSource(16))
	buf := []byte("prefix:")
	for i := 0; i < 2000; i++ {
		r := edges
		if i > 0 {
			r = randomRecord(rng)
		}
		want := fmtRecord(r)
		if got := string(appendRecord(nil, &r)); got != want {
			t.Fatalf("record %+v:\n got %q\nwant %q", r, got, want)
		}
		// Appending keeps what the buffer already holds.
		buf = appendRecord(buf[:len("prefix:")], &r)
		if got := string(buf); got != "prefix:"+want {
			t.Fatalf("append into a non-empty buffer: got %q", got)
		}
	}
}

// TestWriterEncodesLikeFmt checks the whole Writer: header plus one fmt
// line per record, with records of varying length reusing the line buffer.
func TestWriterEncodesLikeFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var got bytes.Buffer
	w, err := NewWriter(&got, 3, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	want := "#Paraver (42):3:3\n"
	last := map[[2]int]uint64{}
	for i := 0; i < 500; i++ {
		r := randomRecord(rng)
		if r.Task > 3 || r.Thread > 3 {
			continue
		}
		key := [2]int{r.Task, r.Thread}
		if r.TimeNs < last[key] {
			r.TimeNs = last[key]
		}
		last[key] = r.TimeNs
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
		want += fmtRecord(r)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got.String() != want {
		t.Fatal("Writer output differs from the fmt encoding")
	}
}

// TestWriterWriteAllocFree pins the steady state the noalloc analyzer
// checks statically: once the line buffer has grown, Write allocates
// nothing.
func TestWriterWriteAllocFree(t *testing.T) {
	w, err := NewWriter(io.Discard, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := randomRecord(rand.New(rand.NewSource(18)))
	r.Task, r.Thread = 1, 1
	if err := w.Write(r); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(200, func() {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("Writer.Write allocates: %g allocs/op", n)
	}
}
