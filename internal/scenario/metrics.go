package scenario

import (
	"encoding/json"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/folding"
	"repro/internal/memhier"
	"repro/internal/numa"
	"repro/internal/objects"
	"repro/internal/pebs"
)

// Metrics is the canonical, fully-deterministic result of one scenario run:
// everything the pipeline measures — per-thread PMU ground truth, cache
// hierarchy statistics, PEBS sampling activity, the folded analysis with its
// detected phases and bandwidths, and the data-object accounting —
// flattened into fixed-order structs so the JSON serialization is stable
// byte for byte. The golden regression files under testdata/golden pin one
// Metrics per scenario; the fast and reference simulation paths must both
// reproduce it exactly.
type Metrics struct {
	Scenario  string `json:"scenario"`
	Workload  string `json:"workload"`
	Hierarchy string `json:"hierarchy"`
	Threads   int    `json:"threads"`
	Iters     int    `json:"iters"`

	// Sockets, Placement and PageSize describe the NUMA topology of a
	// routed scenario (absent on the historical flat-DRAM runs, keeping
	// their serialization byte-identical).
	Sockets   int    `json:"sockets,omitempty"`
	Placement string `json:"placement,omitempty"`
	PageSize  uint64 `json:"page_size,omitempty"`

	// CG is present for HPCG scenarios only.
	CG *CGMetrics `json:"cg,omitempty"`

	PerThread []ThreadMetrics `json:"per_thread"`
	// SharedL3 aggregates the machine-wide shared LLC counters of a flat
	// multi-thread run. Single-thread Session runs report the LLC as the
	// last private level instead, and NUMA-routed runs (any socket count)
	// report one L3 per socket in the NUMA section — never both.
	SharedL3 *LevelMetrics `json:"shared_l3,omitempty"`
	// NUMA is the per-socket / per-node breakdown of a routed scenario.
	NUMA    *NUMAMetrics    `json:"numa,omitempty"`
	Objects []ObjectMetrics `json:"objects"`

	// Partial marks metrics from a run stopped at an instance boundary
	// (cancellation, injected fault, contained panic); Fault carries the
	// cause and FaultCursor the first instance that did not run. All
	// omitempty: completed runs serialize exactly as before.
	Partial     bool   `json:"partial,omitempty"`
	Fault       string `json:"fault,omitempty"`
	FaultCursor string `json:"fault_cursor,omitempty"`
}

// NUMAMetrics is the per-socket and per-memory-node view of a NUMA run.
type NUMAMetrics struct {
	Sockets []SocketMetrics `json:"sockets"`
	Nodes   []NodeMetrics   `json:"nodes"`
}

// SocketMetrics is one socket's shared L3 plus the DRAM traffic its cores
// issued.
type SocketMetrics struct {
	Socket int `json:"socket"`
	// Threads lists the 1-based thread ids grouped onto the socket.
	Threads []int `json:"threads"`
	// L3 is the socket's shared last-level cache (accesses/misses are the
	// socket cores' demand attribution; writebacks and prefetches are
	// cache-wide).
	L3 LevelMetrics `json:"l3"`
	// DRAMFills counts the socket cores' fills; RemoteDRAMFills the subset
	// served by another socket's memory node.
	DRAMFills       uint64 `json:"dram_fills"`
	RemoteDRAMFills uint64 `json:"remote_dram_fills"`
}

// NodeMetrics is one memory node's controller accounting.
type NodeMetrics struct {
	Node        int    `json:"node"`
	FillsLocal  uint64 `json:"fills_local"`
	FillsRemote uint64 `json:"fills_remote"`
	Writebacks  uint64 `json:"writebacks"`
	Pages       uint64 `json:"pages"`
}

// CGMetrics records the solver outcome of an HPCG scenario.
type CGMetrics struct {
	Iterations    int       `json:"iterations"`
	Residuals     []float64 `json:"residuals"`
	FinalError    float64   `json:"final_error"`
	FinalResidual float64   `json:"final_residual"`
}

// ThreadMetrics is one simulated hardware thread's view of the run.
type ThreadMetrics struct {
	Thread int `json:"thread"`

	// PMU ground-truth event totals.
	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`
	Branches     uint64 `json:"branches"`
	Loads        uint64 `json:"loads"`
	Stores       uint64 `json:"stores"`
	L1DMisses    uint64 `json:"l1d_misses"`
	L2Misses     uint64 `json:"l2_misses"`
	L3Misses     uint64 `json:"l3_misses"`

	// Cache hierarchy, one entry per level as seen by this thread; the
	// last entry of a Machine thread attributes its share of the shared
	// L3. DRAMFills counts accesses that fell through every level;
	// RemoteDRAMFills is the subset served by a remote socket's node —
	// capability-keyed presence: set (0 included — first-touch's zero is
	// the policy's headline result) exactly when the thread's hierarchy
	// can serve remote fills, absent on flat stacks.
	Levels          []LevelMetrics `json:"levels"`
	DRAMFills       uint64         `json:"dram_fills"`
	RemoteDRAMFills *uint64        `json:"remote_dram_fills,omitempty"`

	// PEBS engine activity.
	SamplesEligible  uint64 `json:"samples_eligible"`
	SamplesFired     uint64 `json:"samples_fired"`
	SamplesBelowThr  uint64 `json:"samples_below_threshold"`
	SamplesRecorded  uint64 `json:"samples_recorded"`
	SampleDrains     uint64 `json:"sample_drains"`
	TraceRecordCount int    `json:"trace_records"`

	// Folding of the workload region.
	InstancesUsed  int     `json:"instances_used"`
	InstancesTotal int     `json:"instances_total"`
	MeanDurationNs float64 `json:"mean_duration_ns"`
	MeanIPC        float64 `json:"mean_ipc"`
	FoldedSamples  int     `json:"folded_samples"`
	FoldedLoads    int     `json:"folded_loads"`
	FoldedStores   int     `json:"folded_stores"`

	Phases []PhaseMetrics `json:"phases"`
}

// LevelMetrics is one cache level's counters.
type LevelMetrics struct {
	Name         string  `json:"name"`
	Accesses     uint64  `json:"accesses"`
	Hits         uint64  `json:"hits"`
	Misses       uint64  `json:"misses"`
	MissRatio    float64 `json:"miss_ratio"`
	Writebacks   uint64  `json:"writebacks"`
	Prefetches   uint64  `json:"prefetches"`
	PrefetchHits uint64  `json:"prefetch_hits"`
}

// PhaseMetrics is one detected phase of the folded region.
type PhaseMetrics struct {
	Name  string `json:"name"`
	Label string `json:"label,omitempty"` // paper letter (HPCG scenarios)

	Lo         float64 `json:"lo"`
	Hi         float64 `json:"hi"`
	Direction  string  `json:"direction"`
	DurationNs float64 `json:"duration_ns"`
	Loads      int     `json:"loads"`
	Stores     int     `json:"stores"`
	MIPSMean   float64 `json:"mips_mean"`
	// BandwidthMBps is the paper's traversal-bandwidth approximation.
	BandwidthMBps float64 `json:"bandwidth_mbps"`

	L1DMissPerInstr float64 `json:"l1d_miss_per_instr"`
	L2MissPerInstr  float64 `json:"l2_miss_per_instr"`
	L3MissPerInstr  float64 `json:"l3_miss_per_instr"`
	// RemoteDRAMPerInstr is the remote-fill rate; present (0 included)
	// exactly on remote-capable stacks.
	RemoteDRAMPerInstr *float64 `json:"remote_dram_per_instr,omitempty"`
}

// ObjectMetrics is one data object's reference accounting.
type ObjectMetrics struct {
	Name        string  `json:"name"`
	Kind        string  `json:"kind"`
	Bytes       uint64  `json:"bytes"`
	Members     uint64  `json:"members"`
	Refs        uint64  `json:"refs"`
	Loads       uint64  `json:"loads"`
	Stores      uint64  `json:"stores"`
	MeanLatency float64 `json:"mean_latency"`
	SrcL1       uint64  `json:"src_l1"`
	SrcL2       uint64  `json:"src_l2"`
	SrcL3       uint64  `json:"src_l3"`
	SrcDRAM     uint64  `json:"src_dram"`
	// SrcDRAMRemote counts samples served by a remote socket's node, and
	// PagesPerNode the object's placed pages by home node — both present
	// (0 included) exactly on multi-node placements.
	SrcDRAMRemote *uint64  `json:"src_dram_remote,omitempty"`
	PagesPerNode  []uint64 `json:"pages_per_node,omitempty"`
}

// JSON returns the canonical serialization: two-space indented, fixed field
// order, trailing newline. Two runs of the same scenario must produce
// byte-identical output.
func (m *Metrics) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// threadMetrics assembles one thread's metrics from its simulation stack
// and folded analysis. levelNames carries the configured cache level names
// (the hierarchy reports stats by index only).
func threadMetrics(thread int, c *cpu.Core, hier *memhier.Hierarchy,
	eng pebs.Stats, nRecords int, folded *folding.Folded, levelNames []string) ThreadMetrics {
	pmu := c.PMU().TrueSnapshot()
	tm := ThreadMetrics{
		Thread:       thread,
		Instructions: pmu[cpu.CtrInstructions],
		Cycles:       pmu[cpu.CtrCycles],
		Branches:     pmu[cpu.CtrBranches],
		Loads:        pmu[cpu.CtrLoads],
		Stores:       pmu[cpu.CtrStores],
		L1DMisses:    pmu[cpu.CtrL1DMiss],
		L2Misses:     pmu[cpu.CtrL2Miss],
		L3Misses:     pmu[cpu.CtrL3Miss],

		DRAMFills: hier.DRAMAccesses(),

		SamplesEligible:  eng.Eligible,
		SamplesFired:     eng.Fired,
		SamplesBelowThr:  eng.BelowThreshold,
		SamplesRecorded:  eng.Recorded,
		SampleDrains:     eng.Drains,
		TraceRecordCount: nRecords,
	}
	remoteCapable := hier.RemoteDRAMPossible()
	if remoteCapable {
		remote := hier.RemoteDRAMAccesses()
		tm.RemoteDRAMFills = &remote
	}
	for i := 0; i < hier.Levels(); i++ {
		st := hier.LevelStats(i)
		name := ""
		if i < len(levelNames) {
			name = levelNames[i]
		}
		tm.Levels = append(tm.Levels, levelMetrics(name, st))
	}
	if folded != nil {
		tm.InstancesUsed = folded.InstancesUsed
		tm.InstancesTotal = folded.InstancesTotal
		tm.MeanDurationNs = folded.MeanDurationNs
		tm.MeanIPC = folded.MeanIPC()
		tm.FoldedSamples = len(folded.Mem)
		for _, mp := range folded.Mem {
			if mp.Store {
				tm.FoldedStores++
			} else {
				tm.FoldedLoads++
			}
		}
		for _, p := range folded.Phases {
			tm.Phases = append(tm.Phases, phaseMetrics(p, "", remoteCapable))
		}
	}
	return tm
}

func levelMetrics(name string, st memhier.LevelStats) LevelMetrics {
	return LevelMetrics{
		Name:         name,
		Accesses:     st.Accesses,
		Hits:         st.Hits,
		Misses:       st.Misses,
		MissRatio:    st.MissRatio(),
		Writebacks:   st.Writebacks,
		Prefetches:   st.Prefetches,
		PrefetchHits: st.PrefHits,
	}
}

func phaseMetrics(p folding.Phase, label string, remoteCapable bool) PhaseMetrics {
	pm := PhaseMetrics{
		Name:            p.Name,
		Label:           label,
		Lo:              p.Lo,
		Hi:              p.Hi,
		Direction:       p.Direction.String(),
		DurationNs:      p.DurationNs,
		Loads:           p.Loads,
		Stores:          p.Stores,
		MIPSMean:        p.MIPSMean,
		BandwidthMBps:   p.SpanBandwidth / 1e6,
		L1DMissPerInstr: p.PerInstr[cpu.CtrL1DMiss],
		L2MissPerInstr:  p.PerInstr[cpu.CtrL2Miss],
		L3MissPerInstr:  p.PerInstr[cpu.CtrL3Miss],
	}
	if remoteCapable {
		remote := p.PerInstr[cpu.CtrRemoteDRAM]
		pm.RemoteDRAMPerInstr = &remote
	}
	return pm
}

// objectMetrics flattens the registry's accounting; placement (nil on flat
// runs) adds the per-node page breakdown of each object's address range.
func objectMetrics(objs []*objects.Object, placement *numa.Placement) []ObjectMetrics {
	out := make([]ObjectMetrics, 0, len(objs))
	for _, o := range objs {
		om := ObjectMetrics{
			Name:        o.Name,
			Kind:        o.Kind.String(),
			Bytes:       o.Bytes,
			Members:     o.Members,
			Refs:        o.Refs,
			Loads:       o.Loads,
			Stores:      o.Stores,
			MeanLatency: o.MeanLatency(),
			SrcL1:       o.Sources[memhier.SrcL1],
			SrcL2:       o.Sources[memhier.SrcL2],
			SrcL3:       o.Sources[memhier.SrcL3],
			SrcDRAM:     o.Sources[memhier.SrcDRAM],
		}
		if placement != nil && placement.Nodes() > 1 {
			remote := o.Sources[memhier.SrcDRAMRemote]
			om.SrcDRAMRemote = &remote
			om.PagesPerNode = placement.PagesIn(o.Range.Lo, o.Range.Hi)
		}
		out = append(out, om)
	}
	return out
}

// machineMetrics collects per-thread metrics, the shared-L3 aggregate
// (single-socket machines) and the NUMA breakdown (routed machines).
func machineMetrics(m *core.Machine, foldedOf func(thread int) *folding.Folded, levelNames []string) ([]ThreadMetrics, *LevelMetrics, *NUMAMetrics) {
	var out []ThreadMetrics
	for i, th := range m.Threads {
		out = append(out, threadMetrics(i+1, th.Core, th.Hier, th.Mon.Engine().Stats(),
			th.Mon.Log().Len(), foldedOf(i+1), levelNames))
	}
	var shared *LevelMetrics
	if len(m.L3s) == 1 && m.Placement == nil {
		// Flat shared-L3 machine: the L3 goes in shared_l3. Routed
		// machines (any socket count) report their L3s in the NUMA section
		// instead — never both, so the two fields cannot drift apart — and
		// the one-thread flat machine's L3 is private, a per-thread level.
		llc := levelMetrics(m.L3s[0].Config().Name+" (shared)", m.L3s[0].Stats())
		shared = &llc
	}
	return out, shared, numaMetrics(m)
}

// numaMetrics assembles the per-socket / per-node view of a routed machine
// (nil on the flat machine). The traffic aggregation is Machine.NUMAReport
// — one aggregator feeds both the rendered report and the scenario JSON —
// with the socket L3s' LevelMetrics (accesses/hits need the per-thread
// demand attribution) layered on top.
func numaMetrics(m *core.Machine) *NUMAMetrics {
	rep := m.NUMAReport()
	if rep == nil {
		return nil
	}
	nm := &NUMAMetrics{}
	llcLevel := m.Primary().Hier.Levels() - 1
	for _, row := range rep.Sockets {
		sm := SocketMetrics{
			Socket:          row.Socket,
			Threads:         row.Threads,
			DRAMFills:       row.L3Misses,
			RemoteDRAMFills: row.RemoteFills,
		}
		if sm.Threads == nil {
			sm.Threads = []int{} // memory-only socket: serialize as []
		}
		var acc, misses uint64
		for t, th := range m.Threads {
			if m.SocketOf[t] != row.Socket {
				continue
			}
			st := th.Hier.LevelStats(llcLevel)
			acc += st.Accesses
			misses += st.Misses
		}
		llc := m.L3s[row.Socket].Stats()
		llc.Accesses, llc.Misses = acc, misses
		llc.Hits = acc - misses
		sm.L3 = levelMetrics(m.L3s[row.Socket].Config().Name+" (shared)", llc)
		nm.Sockets = append(nm.Sockets, sm)
	}
	for _, n := range rep.Nodes {
		nm.Nodes = append(nm.Nodes, NodeMetrics{
			Node:        n.Node,
			FillsLocal:  n.FillsLocal,
			FillsRemote: n.FillsRemote,
			Writebacks:  n.Writebacks,
			Pages:       n.Pages,
		})
	}
	return nm
}

// paperPhaseMetrics converts labeled HPCG phases.
func paperPhaseMetrics(paper []core.PaperPhase, remoteCapable bool) []PhaseMetrics {
	out := make([]PhaseMetrics, 0, len(paper))
	for _, pp := range paper {
		out = append(out, phaseMetrics(pp.Phase, pp.Label, remoteCapable))
	}
	return out
}
