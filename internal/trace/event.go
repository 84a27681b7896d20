package trace

import (
	"cmp"
	"fmt"
	"iter"
	"slices"

	"repro/internal/cpu"
)

// Kind tells which record an Event stands for.
type Kind uint8

// The four event kinds, one per record shape a monitor emits.
const (
	// KindRegion is a region boundary: TypeRegion (the region id, 0 for an
	// exit) and the counter snapshot.
	KindRegion Kind = iota + 1
	// KindSample is a PEBS sample: the seven TypeSample* pairs and the
	// counter snapshot taken when the sample fired.
	KindSample
	// KindAlloc is an allocation: TypeAllocAddr, TypeAllocSize and
	// TypeAllocStack.
	KindAlloc
	// KindFree is a free: TypeFreeAddr.
	KindFree
)

// Event is one monitor record in fixed-size, pointer-free form (112 bytes):
// a log of events holds no pointers for the collector to scan, and costs
// no allocation per record. AppendPairs renders it as the Record pairs it
// stands for, and EventOf parses them back.
type Event struct {
	// TimeNs is the record's timestamp.
	TimeNs uint64
	// Addr is a sample's referenced address, an allocation's or free's
	// object base address, or a region event's region id (0 for an exit),
	// each as the bits of the pair value.
	Addr uint64
	// IP is a sample's instruction pointer, or an allocation's size.
	IP uint64
	// Counters holds the snapshot of the counters in Counted; the others
	// are 0. Only region and sample events carry counters.
	Counters [cpu.NumCounters]uint64
	// Latency, Source, Store, StackID and Size are the sample's fields;
	// StackID is also an allocation's call stack.
	Latency uint32
	StackID uint32
	Size    uint16
	// Counted has bit c set when counter c is part of the record, in
	// ascending counter order after the kind's own pairs.
	Counted uint16
	Kind    Kind
	Source  uint8
	Store   bool
}

// AppendPairs appends the event's (type, value) pairs to buf, in the order
// the monitor has always emitted them.
//
//repro:noalloc
func (e *Event) AppendPairs(buf []TypeValue) []TypeValue {
	switch e.Kind {
	case KindRegion:
		buf = append(buf, TypeValue{TypeRegion, int64(e.Addr)})
	case KindSample:
		store := int64(0)
		if e.Store {
			store = 1
		}
		buf = append(buf,
			TypeValue{TypeSampleAddr, int64(e.Addr)},
			TypeValue{TypeSampleLatency, int64(e.Latency)},
			TypeValue{TypeSampleSource, int64(e.Source)},
			TypeValue{TypeSampleStore, store},
			TypeValue{TypeSampleIP, int64(e.IP)},
			TypeValue{TypeSampleStack, int64(e.StackID)},
			TypeValue{TypeSampleSize, int64(e.Size)},
		)
	case KindAlloc:
		return append(buf,
			TypeValue{TypeAllocAddr, int64(e.Addr)},
			TypeValue{TypeAllocSize, int64(e.IP)},
			TypeValue{TypeAllocStack, int64(e.StackID)},
		)
	case KindFree:
		return append(buf, TypeValue{TypeFreeAddr, int64(e.Addr)})
	}
	for c := range e.Counters {
		if e.Counted&(1<<c) != 0 {
			buf = append(buf, TypeValue{TypeCounterBase + uint32(c), int64(e.Counters[c])})
		}
	}
	return buf
}

// sampleTypes is the pair order of a sample event before its counters.
var sampleTypes = [...]uint32{
	TypeSampleAddr, TypeSampleLatency, TypeSampleSource, TypeSampleStore,
	TypeSampleIP, TypeSampleStack, TypeSampleSize,
}

// EventOf parses a record's pairs into an Event stamped timeNs: the
// inverse of AppendPairs. It rejects pairs that match none of the four
// kinds' shapes exactly, in order, with every value in its field's range,
// so AppendPairs renders an accepted record's pairs back unchanged.
func EventOf(timeNs uint64, pairs []TypeValue) (Event, error) {
	e := Event{TimeNs: timeNs}
	if len(pairs) == 0 {
		return Event{}, fmt.Errorf("trace: record with no event pairs")
	}
	var rest []TypeValue
	switch pairs[0].Type {
	case TypeRegion:
		e.Kind, e.Addr, rest = KindRegion, uint64(pairs[0].Value), pairs[1:]
	case TypeSampleAddr:
		if len(pairs) < len(sampleTypes) {
			return Event{}, fmt.Errorf("trace: sample record with %d pairs", len(pairs))
		}
		for i, typ := range sampleTypes {
			if pairs[i].Type != typ {
				return Event{}, fmt.Errorf("trace: sample pair %d has type %d, want %d", i, pairs[i].Type, typ)
			}
		}
		v := func(i int) int64 { return pairs[i].Value }
		if v(1) < 0 || v(1) > 1<<32-1 || v(2) < 0 || v(2) > 1<<8-1 || v(3) < 0 || v(3) > 1 ||
			v(5) < 0 || v(5) > 1<<32-1 || v(6) < 0 || v(6) > 1<<16-1 {
			return Event{}, fmt.Errorf("trace: sample latency/source/store/stack/size out of range: %v", pairs[1:7])
		}
		e.Kind, e.Addr, e.IP = KindSample, uint64(v(0)), uint64(v(4))
		e.Latency, e.Source, e.Store = uint32(v(1)), uint8(v(2)), v(3) == 1
		e.StackID, e.Size = uint32(v(5)), uint16(v(6))
		rest = pairs[len(sampleTypes):]
	case TypeAllocAddr:
		if len(pairs) != 3 || pairs[1].Type != TypeAllocSize || pairs[2].Type != TypeAllocStack {
			return Event{}, fmt.Errorf("trace: allocation record pairs %v", pairs)
		}
		if s := pairs[2].Value; s < 0 || s > 1<<32-1 {
			return Event{}, fmt.Errorf("trace: allocation stack id %d out of range", s)
		}
		e.Kind, e.Addr, e.IP, e.StackID = KindAlloc, uint64(pairs[0].Value), uint64(pairs[1].Value), uint32(pairs[2].Value)
		return e, nil
	case TypeFreeAddr:
		if len(pairs) != 1 {
			return Event{}, fmt.Errorf("trace: free record with %d pairs", len(pairs))
		}
		e.Kind, e.Addr = KindFree, uint64(pairs[0].Value)
		return e, nil
	default:
		return Event{}, fmt.Errorf("trace: record starts with unknown event type %d", pairs[0].Type)
	}
	next := uint32(0) // counters must ascend, each at most once
	for _, p := range rest {
		c := p.Type - TypeCounterBase
		if p.Type < TypeCounterBase || c >= uint32(cpu.NumCounters) || c < next {
			return Event{}, fmt.Errorf("trace: pair type %d is not the next counter", p.Type)
		}
		e.Counted |= 1 << c
		e.Counters[c] = uint64(p.Value)
		next = c + 1
	}
	return e, nil
}

func byTime(a, b Event) int { return cmp.Compare(a.TimeNs, b.TimeNs) }

// Log is a time-ordered event log held in chunks. Chunk capacities start
// at minChunk events and double up to maxChunk; a chunk never moves once
// allocated, so growing the log copies nothing.
//
// The zero Log is empty and ready to use.
type Log struct {
	// chunks[:cur] are full, chunks[cur] is being filled, and any chunks
	// after it are empty (spare room left by a merge that stepped back).
	chunks [][]Event
	cur    int
	n      int
	spill  []Event // events a merge lifted off the tail
}

const (
	minChunk = 64
	maxChunk = 4096
)

// Len returns the number of events logged.
func (l *Log) Len() int { return l.n }

// Chunks returns the log's chunks, in time order; a chunk may be empty.
// They alias the log: the next Add or Reset may change them.
func (l *Log) Chunks() [][]Event { return l.chunks }

// Last returns the latest event; the log must not be empty.
func (l *Log) Last() *Event {
	c := l.chunks[l.cur]
	if len(c) == 0 {
		c = l.chunks[l.cur-1]
	}
	return &c[len(c)-1]
}

// Reset empties the log, keeping its first chunk for reuse.
func (l *Log) Reset() {
	if len(l.chunks) > 0 {
		clear(l.chunks[1:])
		l.chunks = append(l.chunks[:0], l.chunks[0][:0])
	}
	l.cur, l.n = 0, 0
}

// Add logs a batch of events, keeping the log in time order: each event
// goes after every event already logged at the same or an earlier time,
// and events of the batch that share a time keep their batch order. The
// log is therefore what a stable sort by time of everything ever added, in
// the order it was added, would give. A batch out of time order is first
// stably sorted in place.
func (l *Log) Add(batch ...Event) {
	if len(batch) == 0 {
		return
	}
	if !slices.IsSortedFunc(batch, byTime) {
		slices.SortStableFunc(batch, byTime)
	}
	if len(l.chunks) == 0 {
		l.chunks = append(l.chunks, make([]Event, 0, minChunk))
	}
	// Step back over the logged events later than the batch's first one:
	// typically none, or the few region events logged while a PEBS buffer
	// was filling.
	t0 := batch[0].TimeNs
	ci, off := l.cur, len(l.chunks[l.cur])
	for {
		for off > 0 && l.chunks[ci][off-1].TimeNs > t0 {
			off--
		}
		if off > 0 || ci == 0 || l.chunks[ci-1][len(l.chunks[ci-1])-1].TimeNs <= t0 {
			break
		}
		ci--
		off = len(l.chunks[ci])
	}
	if ci == l.cur && off == len(l.chunks[ci]) {
		for i := range batch {
			l.push(&batch[i])
		}
		return
	}
	// Lift the later events off, then merge them with the batch: on equal
	// times the logged event goes first.
	l.spill = l.spill[:0]
	for c := ci; c <= l.cur; c++ {
		from := 0
		if c == ci {
			from = off
		}
		l.spill = append(l.spill, l.chunks[c][from:]...)
		l.n -= len(l.chunks[c]) - from
		l.chunks[c] = l.chunks[c][:from]
	}
	l.cur = ci
	i, j := 0, 0
	for i < len(l.spill) && j < len(batch) {
		if l.spill[i].TimeNs <= batch[j].TimeNs {
			l.push(&l.spill[i])
			i++
		} else {
			l.push(&batch[j])
			j++
		}
	}
	for ; i < len(l.spill); i++ {
		l.push(&l.spill[i])
	}
	for ; j < len(batch); j++ {
		l.push(&batch[j])
	}
}

// push appends e at the end of the log.
func (l *Log) push(e *Event) {
	if c := l.chunks[l.cur]; len(c) == cap(c) {
		l.cur++
		if l.cur == len(l.chunks) {
			l.chunks = append(l.chunks, make([]Event, 0, min(max(l.n, minChunk), maxChunk)))
		}
	}
	l.chunks[l.cur] = append(l.chunks[l.cur], *e)
	l.n++
}

// Flatten returns the whole log as one slice, first copying its chunks
// into one chunk that replaces them when there is more than one. Later
// Adds grow the log from there; the slice stays valid until the next Add
// or Reset. Readers that can walk Chunks should: it copies nothing.
func (l *Log) Flatten() []Event {
	if l.cur > 0 {
		flat := make([]Event, 0, l.n)
		for _, c := range l.chunks {
			flat = append(flat, c...)
		}
		clear(l.chunks[1:])
		l.chunks = append(l.chunks[:0], flat)
		l.cur = 0
	}
	if len(l.chunks) == 0 {
		return nil
	}
	return l.chunks[0]
}

// Span returns events [lo, hi) of the log as capacity-capped sub-slices of
// its chunks (an append through one cannot overwrite the log).
func (l *Log) Span(lo, hi int) [][]Event {
	var out [][]Event
	start := 0
	for _, c := range l.chunks {
		end := start + len(c)
		if a, b := max(lo, start), min(hi, end); a < b {
			out = append(out, c[a-start:b-start:b-start])
		}
		start = end
	}
	return out
}

// Ref is one event of a merged stream: the index of the log it came from
// among the merged logs, and the event itself, in place in that log.
type Ref struct {
	Log   int
	Event *Event
}

// Merged yields the events of time-ordered logs in one time order, in
// place, each with the index of its log among logs; on equal times the
// event of the lower-indexed log goes first. Logs are per-thread streams,
// so a linear scan of the heads beats a heap at these widths.
func Merged(logs ...*Log) iter.Seq2[int, *Event] {
	return func(yield func(int, *Event) bool) {
		type cursor struct{ chunk, off int }
		curs := make([]cursor, len(logs))
		head := func(i int) *Event {
			cs := logs[i].chunks
			c := &curs[i]
			for c.chunk < len(cs) && c.off == len(cs[c.chunk]) {
				c.chunk, c.off = c.chunk+1, 0
			}
			if c.chunk == len(cs) {
				return nil
			}
			return &cs[c.chunk][c.off]
		}
		for {
			best := -1
			var bestEv *Event
			for i := range logs {
				if e := head(i); e != nil && (bestEv == nil || e.TimeNs < bestEv.TimeNs) {
					best, bestEv = i, e
				}
			}
			if best < 0 || !yield(best, bestEv) {
				return
			}
			curs[best].off++
		}
	}
}

// Merge collects Merged into one time-ordered stream of references,
// without copying an event.
func Merge(logs ...*Log) []Ref {
	total := 0
	for _, l := range logs {
		total += l.Len()
	}
	out := make([]Ref, 0, total)
	for i, e := range Merged(logs...) {
		out = append(out, Ref{Log: i, Event: e})
	}
	return out
}
