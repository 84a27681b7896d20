package trace

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cpu"
)

// randomEvent draws an event of the given kind at time t whose fields hit
// their ranges' edges.
func randomEvent(rng *rand.Rand, kind Kind, t uint64) Event {
	u64 := func() uint64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return math.MaxUint64 - uint64(rng.Intn(2))
		}
		return rng.Uint64() >> uint(rng.Intn(64))
	}
	e := Event{TimeNs: t, Kind: kind, Addr: u64()}
	switch kind {
	case KindRegion, KindSample:
		e.Counted = uint16(rng.Intn(1 << cpu.NumCounters))
		for c := range e.Counters {
			if e.Counted&(1<<c) != 0 {
				e.Counters[c] = u64()
			}
		}
		if kind == KindRegion {
			break
		}
		e.IP = u64()
		e.Latency = uint32(u64())
		e.StackID = uint32(u64())
		e.Size = uint16(u64())
		e.Source = uint8(u64())
		e.Store = rng.Intn(2) == 1
	case KindAlloc:
		e.IP = u64()
		e.StackID = uint32(u64())
	}
	return e
}

// TestEventPairsRoundTrip renders random events of every kind to pairs
// and parses them back: EventOf must invert AppendPairs exactly.
func TestEventPairsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		e := randomEvent(rng, Kind(1+rng.Intn(4)), rng.Uint64())
		pairs := e.AppendPairs(nil)
		got, err := EventOf(e.TimeNs, pairs)
		if err != nil {
			t.Fatalf("event %+v: pairs %v rejected: %v", e, pairs, err)
		}
		if got != e {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, e)
		}
	}
}

// TestEventOfRejectsUnknownShapes pins the shapes EventOf refuses: every
// pair list a monitor never emits, so a parsed event always renders back
// to the pairs it came from.
func TestEventOfRejectsUnknownShapes(t *testing.T) {
	sample := (&Event{Kind: KindSample, Counted: 3}).AppendPairs(nil)
	with := func(i int, p TypeValue) []TypeValue {
		out := slices.Clone(sample)
		out[i] = p
		return out
	}
	for name, pairs := range map[string][]TypeValue{
		"empty":                  nil,
		"unknown first type":     {{Type: 1, Value: 1}},
		"counter first":          {{Type: TypeCounterBase, Value: 1}},
		"short sample":           sample[:6],
		"sample types swapped":   with(1, TypeValue{TypeSampleSource, 0}),
		"negative latency":       with(1, TypeValue{TypeSampleLatency, -1}),
		"latency over 32 bits":   with(1, TypeValue{TypeSampleLatency, 1 << 32}),
		"source over 8 bits":     with(2, TypeValue{TypeSampleSource, 256}),
		"store flag 2":           with(3, TypeValue{TypeSampleStore, 2}),
		"stack over 32 bits":     with(5, TypeValue{TypeSampleStack, 1 << 32}),
		"size over 16 bits":      with(6, TypeValue{TypeSampleSize, 1 << 16}),
		"counters descending":    append(with(0, TypeValue{TypeSampleAddr, 0})[:7], TypeValue{TypeCounterBase + 1, 0}, TypeValue{TypeCounterBase, 0}),
		"counter repeated":       {{TypeRegion, 1}, {TypeCounterBase, 0}, {TypeCounterBase, 0}},
		"counter out of range":   {{TypeRegion, 1}, {TypeCounterBase + uint32(cpu.NumCounters), 0}},
		"foreign pair in region": {{TypeRegion, 1}, {TypeSampleAddr, 0}},
		"alloc without stack":    {{TypeAllocAddr, 1}, {TypeAllocSize, 2}},
		"alloc with counter":     {{TypeAllocAddr, 1}, {TypeAllocSize, 2}, {TypeAllocStack, 0}, {TypeCounterBase, 0}},
		"alloc stack negative":   {{TypeAllocAddr, 1}, {TypeAllocSize, 2}, {TypeAllocStack, -1}},
		"free with extra pair":   {{TypeFreeAddr, 1}, {TypeFreeAddr, 1}},
	} {
		if e, err := EventOf(7, pairs); err == nil {
			t.Errorf("%s: %v accepted as %+v", name, pairs, e)
		}
	}
}

// stableSortOracle is the time sort core.Session.sortedRecords applied to
// the append-ordered monitor log before the log kept itself in time order,
// copied verbatim.
func stableSortOracle(recs []Record) {
	slices.SortStableFunc(recs, func(a, b Record) int {
		switch {
		case a.TimeNs < b.TimeNs:
			return -1
		case a.TimeNs > b.TimeNs:
			return 1
		}
		return 0
	})
}

// logEvents copies a log's events out through its chunks.
func logEvents(l *Log) []Event {
	var out []Event
	for _, c := range l.Chunks() {
		out = append(out, c...)
	}
	return out
}

// TestLogAddMatchesStableSort drives logs the way a monitor does — region,
// alloc and free events at a clock that never goes back, and drained
// batches of samples that fired earlier, often at the times of events
// already logged — and checks each against the old representation: the
// records in logging order, stably sorted by time. Batches step back
// across chunk boundaries, and some arrive out of order.
func TestLogAddMatchesStableSort(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var log Log
		var appended []Record
		add := func(batch ...Event) {
			for i := range batch {
				appended = append(appended, Record{TimeNs: batch[i].TimeNs, Task: 1, Thread: 1,
					Pairs: batch[i].AppendPairs(nil)})
			}
			log.Add(batch...)
		}
		now := uint64(rng.Intn(3))
		fired := now // the oldest buffered sample's time
		var buffer []Event
		steps := 200 + rng.Intn(3000)
		for s := 0; s < steps; s++ {
			now += uint64(rng.Intn(3)) // repeats times often
			switch r := rng.Intn(10); {
			case r < 5:
				if len(buffer) == 0 {
					fired = now
				}
				// A sample fires now, between the buffer's last and now.
				buffer = append(buffer, randomEvent(rng, KindSample, fired+uint64(rng.Intn(int(now-fired)+1))))
				slices.SortStableFunc(buffer, byTime)
			case r < 8:
				add(randomEvent(rng, KindRegion, now))
			case r == 8:
				add(randomEvent(rng, Kind(KindAlloc+Kind(rng.Intn(2))), now))
			default:
				if rng.Intn(8) == 0 {
					rng.Shuffle(len(buffer), func(i, j int) { buffer[i], buffer[j] = buffer[j], buffer[i] })
				}
				add(buffer...)
				buffer = buffer[:0]
			}
		}
		add(buffer...)
		stableSortOracle(appended)
		got := logEvents(&log)
		if log.Len() != len(appended) || len(got) != len(appended) {
			t.Fatalf("seed %d: log holds %d (Len %d), %d added", seed, len(got), log.Len(), len(appended))
		}
		for i := range got {
			want, err := EventOf(appended[i].TimeNs, appended[i].Pairs)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want {
				t.Fatalf("seed %d: event %d\n got %+v\nwant %+v", seed, i, got[i], want)
			}
		}
		if len(log.Chunks()) < 2 && steps > 2000 {
			t.Fatalf("seed %d: %d events in %d chunk(s)", seed, len(got), len(log.Chunks()))
		}
		if len(got) > 0 && *log.Last() != got[len(got)-1] {
			t.Fatalf("seed %d: Last is %+v, want %+v", seed, *log.Last(), got[len(got)-1])
		}
		// Merging it with a second log equals the old record merge: a
		// stable sort of the concatenated logs by time.
		var twin Log
		twin.Add(got[:len(got)/2]...)
		for i := range got[len(got)/2:] {
			e := got[len(got)/2+i]
			e.TimeNs += uint64(rng.Intn(3))
			twin.Add(e)
		}
		type tagged struct {
			log int
			e   Event
		}
		var want []tagged
		for i, l := range []*Log{&log, &twin} {
			for _, e := range logEvents(l) {
				want = append(want, tagged{i, e})
			}
		}
		slices.SortStableFunc(want, func(a, b tagged) int { return byTime(a.e, b.e) })
		refs := Merge(&log, &twin)
		if len(refs) != len(want) {
			t.Fatalf("seed %d: merged %d of %d", seed, len(refs), len(want))
		}
		for i, r := range refs {
			if r.Log != want[i].log || *r.Event != want[i].e {
				t.Fatalf("seed %d: merged ref %d is log %d %+v, want %+v", seed, i, r.Log, *r.Event, want[i])
			}
		}
	}
}

// TestLogChunksFlattenSpanReset covers chunk growth, Flatten, Span and
// Reset.
func TestLogChunksFlattenSpanReset(t *testing.T) {
	var log Log
	if log.Flatten() != nil || log.Len() != 0 || len(log.Span(0, 0)) != 0 {
		t.Fatal("zero log not empty")
	}
	var want []Event
	for i := 0; i < 3*maxChunk; i++ {
		e := Event{TimeNs: uint64(i), Kind: KindFree, Addr: uint64(i)}
		want = append(want, e)
		log.Add(e)
	}
	for i, c := range log.Chunks() {
		if size := min(max(minChunk<<max(i-1, 0), minChunk), maxChunk); cap(c) != size {
			t.Errorf("chunk %d holds %d events, want %d", i, cap(c), size)
		}
	}
	// A span across chunks is capacity-capped: appending through one
	// segment cannot overwrite the event after it.
	span := log.Span(maxChunk-10, 2*maxChunk+10)
	var flat []Event
	for _, seg := range span {
		if len(seg) != cap(seg) {
			t.Fatalf("segment len %d cap %d", len(seg), cap(seg))
		}
		flat = append(flat, seg...)
	}
	if !reflect.DeepEqual(flat, want[maxChunk-10:2*maxChunk+10]) {
		t.Fatal("span events differ")
	}
	_ = append(span[0], Event{Addr: 0xbad})
	if got := logEvents(&log); !reflect.DeepEqual(got, want) {
		t.Fatal("append through a span segment changed the log")
	}
	if got := log.Flatten(); !reflect.DeepEqual(got, want) || len(log.Chunks()) != 1 {
		t.Fatalf("Flatten: %d events in %d chunks", len(got), len(log.Chunks()))
	}
	// The log keeps growing, in order, after a Flatten.
	log.Add(Event{TimeNs: 5, Kind: KindFree, Addr: 1 << 40})
	want = slices.Insert(want, 6, Event{TimeNs: 5, Kind: KindFree, Addr: 1 << 40})
	if got := logEvents(&log); !reflect.DeepEqual(got, want) {
		t.Fatal("Add after Flatten misplaced the event")
	}
	log.Reset()
	if log.Len() != 0 || len(logEvents(&log)) != 0 {
		t.Fatal("Reset left events")
	}
	log.Add(want[:3]...)
	if got := logEvents(&log); !reflect.DeepEqual(got, want[:3]) {
		t.Fatal("Add after Reset")
	}
}

// TestLogAddAllocFree pins steady-state logging: once a chunk has room,
// appending events and merging drained batches into the tail allocate
// nothing.
func TestLogAddAllocFree(t *testing.T) {
	var log Log
	now := uint64(10)
	batch := make([]Event, 8)
	round := func() {
		log.Add(Event{TimeNs: now, Kind: KindRegion, Addr: 1})
		for i := range batch {
			batch[i] = Event{TimeNs: now - 1 + uint64(i%2), Kind: KindSample}
		}
		now += 2
		log.Add(Event{TimeNs: now, Kind: KindRegion})
		log.Add(batch...) // steps back over the region event
	}
	const runs = 100
	// Grow to full-size chunks, then to the start of a fresh one.
	for log.Len() < 4*maxChunk || cap(log.chunks[log.cur])-len(log.chunks[log.cur]) < (runs+2)*10 {
		round()
	}
	if allocs := testing.AllocsPerRun(runs, round); allocs != 0 {
		t.Fatalf("Add allocates %.1f times per round", allocs)
	}
}
