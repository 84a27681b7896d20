package extrae

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/cpu"
	"repro/internal/pebs"
	"repro/internal/prog"
	"repro/internal/trace"
)

// Checkpoint support. A monitor is snapshotted only between instances,
// right after an ExitRegion has flushed the PEBS buffer: the pending
// snapshot list is empty and every buffered sample has been resolved into
// the event log, so the state reduces to the log itself, the interned
// stack table, the multiplexing clock, the countdown bookkeeping and the
// engine. The restore target is a monitor freshly rebuilt by replaying the
// deterministic setup (same config, same region registrations).

// MonitorState is the serializable mutable state of one monitor.
type MonitorState struct {
	// Events is the log in time order. A snapshot written while the log
	// was kept in logging order holds that order; RestoreState sorts it.
	Events []trace.Event
	// Task and Thread identify the monitor that logged Events.
	Task, Thread int
	Stacks       [][]uint64

	RegionNames int // registered regions, validated against the rebuild
	RegionStack []Region
	CallStack   []uint64
	CurStackID  uint32
	StackDirty  bool

	MuxNext    uint64
	LoadRem    uint64
	StoreRem   uint64
	LastLoads  uint64
	LastStores uint64

	Engine pebs.EngineState
	Core   cpu.CoreState
}

// State deep-copies the monitor's mutable state. It refuses to run with
// samples pending resolution (checkpoints only happen post-flush).
func (m *Monitor) State() (MonitorState, error) {
	if len(m.pending) != 0 {
		return MonitorState{}, fmt.Errorf("extrae: cannot snapshot with %d pending sample snapshots", len(m.pending))
	}
	eng, err := m.engine.State()
	if err != nil {
		return MonitorState{}, err
	}
	events := make([]trace.Event, 0, m.log.Len())
	for _, c := range m.log.Chunks() {
		events = append(events, c...)
	}
	st := MonitorState{
		Events:      events,
		Task:        m.task,
		Thread:      m.thread,
		Stacks:      m.stacks.Stacks(),
		RegionNames: len(m.regionNames),
		RegionStack: append([]Region(nil), m.regionStack...),
		CallStack:   m.callStack.Snapshot(),
		CurStackID:  m.curStackID,
		StackDirty:  m.stackDirty,
		MuxNext:     m.muxNext,
		LoadRem:     m.loadRem,
		StoreRem:    m.storeRem,
		LastLoads:   m.lastLoads,
		LastStores:  m.lastStores,
		Engine:      eng,
		Core:        m.core.State(),
	}
	if m.gated && m.started {
		// While recording, the live countdowns are in the core's gate
		// registers, not loadRem/storeRem (same recovery Stop performs);
		// RestoreState re-arms the gates from these fields.
		lg, sg, _ := m.core.SampleGates()
		ev := m.engine.Events()
		if ev.Has(pebs.SampleLoads) {
			st.LoadRem = lg
		}
		if ev.Has(pebs.SampleStores) {
			st.StoreRem = sg
		}
	}
	return st, nil
}

// RestoreState overwrites the mutable state of a monitor rebuilt by an
// identical setup, leaving it started and recording, with the core's sample
// gates re-armed where the snapshot left them. The caller restores the
// core's memory hierarchy and the shared registry separately.
func (m *Monitor) RestoreState(st MonitorState) error {
	if len(st.Events) > 0 && (st.Task != m.task || st.Thread != m.thread) {
		return fmt.Errorf("extrae: snapshot log is task %d thread %d, rebuilt monitor is task %d thread %d", st.Task, st.Thread, m.task, m.thread)
	}
	if st.RegionNames != len(m.regionNames) {
		return fmt.Errorf("extrae: snapshot has %d registered regions, rebuilt monitor has %d", st.RegionNames, len(m.regionNames))
	}
	for _, r := range st.RegionStack {
		if r < 1 || int(r) > len(m.regionNames) {
			return fmt.Errorf("extrae: snapshot region stack holds unregistered region %d", r)
		}
	}
	if err := m.stacks.RestoreStacks(st.Stacks); err != nil {
		return err
	}
	if int(st.CurStackID) >= m.stacks.Len() {
		return fmt.Errorf("extrae: snapshot stack id %d outside table of %d", st.CurStackID, m.stacks.Len())
	}
	if err := m.engine.RestoreState(st.Engine); err != nil {
		return err
	}
	if err := m.core.RestoreState(st.Core); err != nil {
		return err
	}
	events := st.Events
	if !slices.IsSortedFunc(events, func(a, b trace.Event) int { return cmp.Compare(a.TimeNs, b.TimeNs) }) {
		// A log in logging order: Add stable-sorts it in place, which is
		// the order the log would have had. Sort a copy, not the snapshot.
		events = slices.Clone(events)
	}
	m.log.Reset()
	m.log.Add(events...)
	m.regionStack = append(m.regionStack[:0], st.RegionStack...)
	m.callStack = prog.CallStack{}
	for _, ip := range st.CallStack {
		m.callStack.Push(ip)
	}
	m.curStackID = st.CurStackID
	m.stackDirty = st.StackDirty
	m.muxNext = st.MuxNext
	m.loadRem = st.LoadRem
	m.storeRem = st.StoreRem
	m.lastLoads = st.LastLoads
	m.lastStores = st.LastStores
	m.pending = m.pending[:0]
	m.enabled = true
	m.started = true
	m.finished = false
	if m.gated {
		m.armGates()
	}
	return nil
}
