package checkpoint

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/cpu"
	"repro/internal/extrae"
	"repro/internal/hpcg"
	"repro/internal/memhier"
	"repro/internal/numa"
	"repro/internal/objects"
	"repro/internal/pebs"
	"repro/internal/trace"
)

// Binary encoding: a varint stream in the same style as the trace codec
// (internal/trace/binary.go). Layout:
//
//	magic "BSCK" | version uvarint | tag string | cursor | nThreads uvarint |
//	thread* | nL3s uvarint | l3* | placement? | registry | cg?
//
// Strings are length-prefixed; optional sections carry a presence byte.
// Floats are fixed 8-byte little-endian IEEE bit patterns (varints would
// waste space on mantissas and round-trips must be bit-exact). All length
// prefixes are decoded with capped preallocation: a hostile header can
// claim 2^60 elements in a few bytes, so allocation follows the data
// actually present, never the claim.
const snapMagic = "BSCK"

// ErrBadMagic reports a stream that is not a checkpoint snapshot.
var ErrBadMagic = errors.New("checkpoint: bad snapshot magic")

const (
	maxPrealloc = 1 << 16
	maxString   = 1 << 12
)

type encoder struct {
	w   *bufio.Writer
	buf [binary.MaxVarintLen64]byte
	err error
}

func (e *encoder) write(p []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(p)
	}
}

func (e *encoder) u64(v uint64) {
	n := binary.PutUvarint(e.buf[:], v)
	e.write(e.buf[:n])
}

func (e *encoder) i64(v int64) {
	n := binary.PutVarint(e.buf[:], v)
	e.write(e.buf[:n])
}

func (e *encoder) int(v int)    { e.i64(int64(v)) }
func (e *encoder) u32(v uint32) { e.u64(uint64(v)) }
func (e *encoder) u8(v uint8)   { e.u64(uint64(v)) }
func (e *encoder) boolean(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.write([]byte{b})
}

func (e *encoder) f64(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	e.write(b[:])
}

func (e *encoder) str(s string) {
	e.u64(uint64(len(s)))
	e.write([]byte(s))
}

func (e *encoder) u64s(v []uint64) {
	e.u64(uint64(len(v)))
	for _, x := range v {
		e.u64(x)
	}
}

func (e *encoder) bytes(v []byte) {
	e.u64(uint64(len(v)))
	e.write(v)
}

func (e *encoder) f64s(v []float64) {
	e.u64(uint64(len(v)))
	for _, x := range v {
		e.f64(x)
	}
}

type decoder struct {
	r   *bufio.Reader
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("checkpoint: "+format, args...)
	}
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.err = err
	}
	return v
}

func (d *decoder) i64() int64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(d.r)
	if err != nil {
		d.err = err
	}
	return v
}

func (d *decoder) int() int    { return int(d.i64()) }
func (d *decoder) u32() uint32 { return uint32(d.u64()) }
func (d *decoder) u8() uint8   { return uint8(d.u64()) }

func (d *decoder) boolean() bool {
	if d.err != nil {
		return false
	}
	b, err := d.r.ReadByte()
	if err != nil {
		d.err = err
		return false
	}
	if b > 1 {
		d.fail("corrupt bool byte %#x", b)
		return false
	}
	return b == 1
}

func (d *decoder) f64() float64 {
	if d.err != nil {
		return 0
	}
	var b [8]byte
	if _, err := io.ReadFull(d.r, b[:]); err != nil {
		d.err = err
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
}

func (d *decoder) str() string {
	n := d.u64()
	if d.err != nil {
		return ""
	}
	if n > maxString {
		d.fail("string length %d exceeds %d", n, maxString)
		return ""
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.err = err
		return ""
	}
	return string(b)
}

func prealloc(n uint64) uint64 {
	if n > maxPrealloc {
		return maxPrealloc
	}
	return n
}

func (d *decoder) u64s() []uint64 {
	n := d.u64()
	out := make([]uint64, 0, prealloc(n))
	for i := uint64(0); i < n && d.err == nil; i++ {
		out = append(out, d.u64())
	}
	return out
}

func (d *decoder) bytes() []byte {
	n := d.u64()
	out := make([]byte, 0, prealloc(n))
	for i := uint64(0); i < n && d.err == nil; i++ {
		b, err := d.r.ReadByte()
		if err != nil {
			d.err = err
			break
		}
		out = append(out, b)
	}
	return out
}

func (d *decoder) f64s() []float64 {
	n := d.u64()
	out := make([]float64, 0, prealloc(n))
	for i := uint64(0); i < n && d.err == nil; i++ {
		out = append(out, d.f64())
	}
	return out
}

// Write encodes the snapshot to w.
func Write(w io.Writer, s *Snapshot) error {
	if err := s.Validate(); err != nil {
		return err
	}
	e := &encoder{w: bufio.NewWriter(w)}
	e.write([]byte(snapMagic))
	e.u64(Version)
	e.str(s.Tag)
	e.int(s.Cursor.Thread)
	e.int(s.Cursor.Iter)
	e.u64(uint64(len(s.Threads)))
	for i := range s.Threads {
		encodeMonitor(e, &s.Threads[i].Mon)
		encodeHierarchy(e, &s.Threads[i].Hier)
	}
	e.u64(uint64(len(s.L3s)))
	for i := range s.L3s {
		encodeShared(e, &s.L3s[i])
	}
	e.boolean(s.Placement != nil)
	if s.Placement != nil {
		encodePlacement(e, s.Placement)
	}
	encodeRegistry(e, &s.Registry)
	e.boolean(s.CG != nil)
	if s.CG != nil {
		encodeCG(e, s.CG)
	}
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

// Read decodes a snapshot, validating the magic and version. Truncated or
// corrupt input yields an error, never a panic or an unbounded allocation.
func Read(r io.Reader) (*Snapshot, error) {
	d := &decoder{r: bufio.NewReader(r)}
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(d.r, magic); err != nil {
		return nil, err
	}
	if string(magic) != snapMagic {
		return nil, ErrBadMagic
	}
	if v := d.u64(); d.err == nil && v != Version {
		return nil, fmt.Errorf("checkpoint: unsupported snapshot version %d", v)
	}
	s := &Snapshot{}
	s.Tag = d.str()
	s.Cursor.Thread = d.int()
	s.Cursor.Iter = d.int()
	nThreads := d.u64()
	if nThreads > maxPrealloc {
		d.fail("thread count %d implausible", nThreads)
	}
	for i := uint64(0); i < nThreads && d.err == nil; i++ {
		var ts ThreadState
		decodeMonitor(d, &ts.Mon)
		decodeHierarchy(d, &ts.Hier)
		s.Threads = append(s.Threads, ts)
	}
	nL3 := d.u64()
	if nL3 > maxPrealloc {
		d.fail("L3 count %d implausible", nL3)
	}
	for i := uint64(0); i < nL3 && d.err == nil; i++ {
		var sc memhier.SharedCacheState
		decodeShared(d, &sc)
		s.L3s = append(s.L3s, sc)
	}
	if d.boolean() {
		var ps numa.PlacementState
		decodePlacement(d, &ps)
		s.Placement = &ps
	}
	decodeRegistry(d, &s.Registry)
	if d.boolean() {
		var cg hpcg.CGRunState
		decodeCG(d, &cg)
		s.CG = &cg
	}
	if d.err != nil {
		return nil, d.err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// encodeEvents writes a monitor's log as trace records: time, task,
// thread and the (type, value) pairs each event renders.
func encodeEvents(e *encoder, m *extrae.MonitorState) {
	e.u64(uint64(len(m.Events)))
	var pairs []trace.TypeValue
	for i := range m.Events {
		ev := &m.Events[i]
		pairs = ev.AppendPairs(pairs[:0])
		e.u64(ev.TimeNs)
		e.int(m.Task)
		e.int(m.Thread)
		e.u64(uint64(len(pairs)))
		for _, p := range pairs {
			e.u32(p.Type)
			e.i64(p.Value)
		}
	}
}

// decodeEvents reads the records encodeEvents writes. Every record must
// be one of the event shapes trace.EventOf accepts, and all must share
// one task and thread.
func decodeEvents(d *decoder, m *extrae.MonitorState) {
	n := d.u64()
	m.Events = make([]trace.Event, 0, prealloc(n))
	var pairs []trace.TypeValue
	for i := uint64(0); i < n && d.err == nil; i++ {
		timeNs, task, thread := d.u64(), d.int(), d.int()
		if i == 0 {
			m.Task, m.Thread = task, thread
		} else if task != m.Task || thread != m.Thread {
			d.fail("record %d is task %d thread %d, the log's first is task %d thread %d", i, task, thread, m.Task, m.Thread)
		}
		nPairs := d.u64()
		pairs = pairs[:0]
		for j := uint64(0); j < nPairs && d.err == nil; j++ {
			pairs = append(pairs, trace.TypeValue{Type: d.u32(), Value: d.i64()})
		}
		if d.err != nil {
			return
		}
		ev, err := trace.EventOf(timeNs, pairs)
		if err != nil {
			d.fail("record %d: %v", i, err)
			return
		}
		m.Events = append(m.Events, ev)
	}
}

func encodeMonitor(e *encoder, m *extrae.MonitorState) {
	encodeEvents(e, m)
	e.u64(uint64(len(m.Stacks)))
	for _, st := range m.Stacks {
		e.u64s(st)
	}
	e.int(m.RegionNames)
	e.u64(uint64(len(m.RegionStack)))
	for _, r := range m.RegionStack {
		e.int(int(r))
	}
	e.u64s(m.CallStack)
	e.u32(m.CurStackID)
	e.boolean(m.StackDirty)
	e.u64(m.MuxNext)
	e.u64(m.LoadRem)
	e.u64(m.StoreRem)
	e.u64(m.LastLoads)
	e.u64(m.LastStores)
	encodeEngine(e, &m.Engine)
	encodeCore(e, &m.Core)
}

func decodeMonitor(d *decoder, m *extrae.MonitorState) {
	decodeEvents(d, m)
	nStacks := d.u64()
	m.Stacks = make([][]uint64, 0, prealloc(nStacks))
	for i := uint64(0); i < nStacks && d.err == nil; i++ {
		m.Stacks = append(m.Stacks, d.u64s())
	}
	m.RegionNames = d.int()
	nRegions := d.u64()
	m.RegionStack = make([]extrae.Region, 0, prealloc(nRegions))
	for i := uint64(0); i < nRegions && d.err == nil; i++ {
		m.RegionStack = append(m.RegionStack, extrae.Region(d.int()))
	}
	m.CallStack = d.u64s()
	m.CurStackID = d.u32()
	m.StackDirty = d.boolean()
	m.MuxNext = d.u64()
	m.LoadRem = d.u64()
	m.StoreRem = d.u64()
	m.LastLoads = d.u64()
	m.LastStores = d.u64()
	decodeEngine(d, &m.Engine)
	decodeCore(d, &m.Core)
}

func encodeEngine(e *encoder, s *pebs.EngineState) {
	e.u64(s.NextLoad)
	e.u64(s.NextStore)
	e.u64(s.Stats.Eligible)
	e.u64(s.Stats.Fired)
	e.u64(s.Stats.BelowThreshold)
	e.u64(s.Stats.Recorded)
	e.u64(s.Stats.Drains)
	e.u8(uint8(s.Events))
	e.u64(s.Draws)
}

func decodeEngine(d *decoder, s *pebs.EngineState) {
	s.NextLoad = d.u64()
	s.NextStore = d.u64()
	s.Stats.Eligible = d.u64()
	s.Stats.Fired = d.u64()
	s.Stats.BelowThreshold = d.u64()
	s.Stats.Recorded = d.u64()
	s.Stats.Drains = d.u64()
	s.Events = pebs.EventMask(d.u8())
	s.Draws = d.u64()
}

func encodeCore(e *encoder, c *cpu.CoreState) {
	e.u64(c.Cycles)
	e.f64(c.FracCycles)
	e.u64(c.LoadGate)
	e.u64(c.StoreGate)
	e.u64(c.HookCycle)
	e.u64(uint64(cpu.NumCounters))
	for i := 0; i < int(cpu.NumCounters); i++ {
		e.u64(c.PMU.Raw[i])
		e.u64(c.PMU.Visible[i])
		e.u64(c.PMU.Active[i])
	}
	e.u64(c.PMU.Total)
	e.int(c.PMU.Slot)
	e.u64(c.PMU.SlotAge)
}

func decodeCore(d *decoder, c *cpu.CoreState) {
	c.Cycles = d.u64()
	c.FracCycles = d.f64()
	c.LoadGate = d.u64()
	c.StoreGate = d.u64()
	c.HookCycle = d.u64()
	if n := d.u64(); d.err == nil && n != uint64(cpu.NumCounters) {
		d.fail("snapshot has %d PMU counters, build has %d", n, cpu.NumCounters)
	}
	for i := 0; i < int(cpu.NumCounters) && d.err == nil; i++ {
		c.PMU.Raw[i] = d.u64()
		c.PMU.Visible[i] = d.u64()
		c.PMU.Active[i] = d.u64()
	}
	c.PMU.Total = d.u64()
	c.PMU.Slot = d.int()
	c.PMU.SlotAge = d.u64()
}

func encodeCache(e *encoder, c *memhier.CacheState) {
	e.u64s(c.Slab)
	e.bytes(c.Occ)
	e.bytes(c.Sigs)
	e.u64s(c.Mats)
	e.u64s(c.Ticks)
	e.u32(c.Tick)
	encodeLevelStats(e, &c.Stats)
	e.int(c.MRUIdx)
	e.int(c.MRUSet)
	e.int(c.MRUWay)
	e.u64(c.MRULine)
	e.boolean(c.MRUValid)
}

func decodeCache(d *decoder, c *memhier.CacheState) {
	c.Slab = d.u64s()
	c.Occ = d.bytes()
	c.Sigs = d.bytes()
	c.Mats = d.u64s()
	c.Ticks = d.u64s()
	c.Tick = d.u32()
	decodeLevelStats(d, &c.Stats)
	c.MRUIdx = d.int()
	c.MRUSet = d.int()
	c.MRUWay = d.int()
	c.MRULine = d.u64()
	c.MRUValid = d.boolean()
}

func encodeLevelStats(e *encoder, s *memhier.LevelStats) {
	e.u64(s.Accesses)
	e.u64(s.Hits)
	e.u64(s.Misses)
	e.u64(s.Writebacks)
	e.u64(s.Prefetches)
	e.u64(s.PrefHits)
}

func decodeLevelStats(d *decoder, s *memhier.LevelStats) {
	s.Accesses = d.u64()
	s.Hits = d.u64()
	s.Misses = d.u64()
	s.Writebacks = d.u64()
	s.Prefetches = d.u64()
	s.PrefHits = d.u64()
}

func encodeHierarchy(e *encoder, h *memhier.HierarchyState) {
	e.u64(uint64(len(h.Levels)))
	for i := range h.Levels {
		encodeCache(e, &h.Levels[i])
	}
	e.u64(h.DRAM)
	e.u64(h.DRAMRemote)
	e.u64(h.MRUHits)
	e.u64(h.ProbeOps)
}

func decodeHierarchy(d *decoder, h *memhier.HierarchyState) {
	n := d.u64()
	if n > 16 {
		d.fail("hierarchy claims %d cache levels", n)
	}
	h.Levels = make([]memhier.CacheState, 0, prealloc(n))
	for i := uint64(0); i < n && d.err == nil; i++ {
		var c memhier.CacheState
		decodeCache(d, &c)
		h.Levels = append(h.Levels, c)
	}
	h.DRAM = d.u64()
	h.DRAMRemote = d.u64()
	h.MRUHits = d.u64()
	h.ProbeOps = d.u64()
}

func encodeShared(e *encoder, s *memhier.SharedCacheState) {
	e.u64(uint64(len(s.Shards)))
	for i := range s.Shards {
		encodeCache(e, &s.Shards[i])
	}
}

func decodeShared(d *decoder, s *memhier.SharedCacheState) {
	n := d.u64()
	if n > maxPrealloc {
		d.fail("shared cache claims %d shards", n)
	}
	s.Shards = make([]memhier.CacheState, 0, prealloc(n))
	for i := uint64(0); i < n && d.err == nil; i++ {
		var c memhier.CacheState
		decodeCache(d, &c)
		s.Shards = append(s.Shards, c)
	}
}

func encodePlacement(e *encoder, p *numa.PlacementState) {
	e.u64(uint64(len(p.Pages)))
	for _, ph := range p.Pages {
		e.u64(ph.Page)
		e.u8(ph.Node)
	}
	e.u64(uint64(len(p.Binds)))
	for _, b := range p.Binds {
		e.u64(b.Lo)
		e.u64(b.Hi)
		e.u8(b.Node)
	}
	e.u64(uint64(len(p.Stats)))
	for _, s := range p.Stats {
		e.u64(s.FillsLocal)
		e.u64(s.FillsRemote)
		e.u64(s.Writebacks)
		e.u64(s.Pages)
	}
}

func decodePlacement(d *decoder, p *numa.PlacementState) {
	nPages := d.u64()
	p.Pages = make([]numa.PageHome, 0, prealloc(nPages))
	for i := uint64(0); i < nPages && d.err == nil; i++ {
		p.Pages = append(p.Pages, numa.PageHome{Page: d.u64(), Node: d.u8()})
	}
	nBinds := d.u64()
	p.Binds = make([]numa.BindState, 0, prealloc(nBinds))
	for i := uint64(0); i < nBinds && d.err == nil; i++ {
		p.Binds = append(p.Binds, numa.BindState{Lo: d.u64(), Hi: d.u64(), Node: d.u8()})
	}
	nStats := d.u64()
	if nStats > 256 {
		d.fail("placement claims %d nodes", nStats)
	}
	p.Stats = make([]numa.NodeStats, 0, prealloc(nStats))
	for i := uint64(0); i < nStats && d.err == nil; i++ {
		p.Stats = append(p.Stats, numa.NodeStats{
			FillsLocal:  d.u64(),
			FillsRemote: d.u64(),
			Writebacks:  d.u64(),
			Pages:       d.u64(),
		})
	}
}

func encodeRegistry(e *encoder, r *objects.RegistryState) {
	e.u64(uint64(len(r.Counts)))
	for i := range r.Counts {
		c := &r.Counts[i]
		e.u64(c.Refs)
		e.u64(c.Loads)
		e.u64(c.Stores)
		e.u64(c.LatencySum)
		for _, s := range c.Sources {
			e.u64(s)
		}
	}
	e.u64(r.Stats.AllocsSeen)
	e.u64(r.Stats.AllocsTracked)
	e.u64(r.Stats.AllocsGrouped)
	e.u64(r.Stats.AllocsBelowThreshold)
	e.u64(r.Stats.Resolved)
	e.u64(r.Stats.Unresolved)
}

func decodeRegistry(d *decoder, r *objects.RegistryState) {
	n := d.u64()
	r.Counts = make([]objects.ObjectCounts, 0, prealloc(n))
	for i := uint64(0); i < n && d.err == nil; i++ {
		var c objects.ObjectCounts
		c.Refs = d.u64()
		c.Loads = d.u64()
		c.Stores = d.u64()
		c.LatencySum = d.u64()
		for j := 0; j < memhier.NumSources && d.err == nil; j++ {
			c.Sources[j] = d.u64()
		}
		r.Counts = append(r.Counts, c)
	}
	r.Stats.AllocsSeen = d.u64()
	r.Stats.AllocsTracked = d.u64()
	r.Stats.AllocsGrouped = d.u64()
	r.Stats.AllocsBelowThreshold = d.u64()
	r.Stats.Resolved = d.u64()
	r.Stats.Unresolved = d.u64()
}

func encodeCG(e *encoder, c *hpcg.CGRunState) {
	e.int(c.Next)
	e.boolean(c.Done)
	e.f64(c.RtzOld)
	e.f64(c.NormR0)
	e.int(c.Iterations)
	e.boolean(c.Converged)
	e.f64(c.FinalError)
	e.f64s(c.Residuals)
	e.f64s(c.R)
	e.f64s(c.Z)
	e.f64s(c.P)
	e.f64s(c.AP)
	e.f64s(c.X)
}

func decodeCG(d *decoder, c *hpcg.CGRunState) {
	c.Next = d.int()
	c.Done = d.boolean()
	c.RtzOld = d.f64()
	c.NormR0 = d.f64()
	c.Iterations = d.int()
	c.Converged = d.boolean()
	c.FinalError = d.f64()
	c.Residuals = d.f64s()
	c.R = d.f64s()
	c.Z = d.f64s()
	c.P = d.f64s()
	c.AP = d.f64s()
	c.X = d.f64s()
}
