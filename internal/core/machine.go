package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/cpu"
	"repro/internal/extrae"
	"repro/internal/folding"
	"repro/internal/hpcg"
	"repro/internal/memhier"
	"repro/internal/numa"
	"repro/internal/prog"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// MachineThread is one simulated core's private stack: its own cache
// levels, core, PMU, PEBS engine and Extrae monitor — exactly what the
// paper's per-hardware-thread monitoring attaches to each OpenMP thread.
// The hierarchy's last level is its socket's shared L3, except on the
// one-thread flat machine, whose hierarchy is entirely private.
type MachineThread struct {
	Hier *memhier.Hierarchy
	Core *cpu.Core
	Mon  *extrae.Monitor
}

// Machine is an N-core simulated shared-memory node: N MachineThreads
// sharing one address space, one synthetic binary and one data-object
// registry. Cores are grouped into S sockets (S = 1 unless Config.NUMA
// asks for more), each socket with its own thread-safe shared L3; on a
// NUMA machine every DRAM fill additionally resolves through the page
// placement to its home memory node. The one-thread flat machine keeps
// its L3 private: with no other core to share it, the shared cache's
// locking would only cost time (DESIGN.md §4). A 1-socket NUMA-routed
// Machine is observationally identical to the flat Machine — the
// partition equivalence suite pins it.
type Machine struct {
	Cfg     Config
	Threads []*MachineThread
	// L3s holds every socket's shared L3, indexed by socket (none on the
	// one-thread flat machine).
	L3s []*memhier.SharedCache
	// Sockets is the socket count (1 for the flat machine).
	Sockets int
	// SocketOf maps 0-based thread index to socket index.
	SocketOf []int
	// Placement is the NUMA page placement (nil on the flat machine).
	Placement *numa.Placement
	Bin       *prog.Binary
	AS        *prog.AddressSpace
}

// NewMachine builds an n-thread machine from the configuration: the last
// configured cache level becomes the per-socket shared L3, the remaining
// levels are replicated privately per thread. With cfg.NUMA.Sockets >= 1
// the machine is NUMA-routed: threads are grouped into contiguous socket
// blocks (thread t on socket t*S/n; sockets beyond the thread count hold
// memory only), and every socket's caches route DRAM traffic through one
// shared page placement. One thread without NUMA gets every level
// privately, so any hierarchy depth works there.
func NewMachine(cfg Config, n int) (*Machine, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: machine needs at least one thread, got %d", n)
	}
	cfg = applyReference(cfg)
	levels := cfg.Cache.Levels
	privCfg := cfg.Cache
	shared := n > 1 || cfg.NUMA.Sockets > 0
	if shared {
		if len(levels) < 2 {
			return nil, fmt.Errorf("core: machine needs >= 2 cache levels (private + shared LLC), got %d", len(levels))
		}
		privCfg = memhier.Config{
			Levels:           levels[:len(levels)-1],
			DRAMLatency:      cfg.Cache.DRAMLatency,
			NextLinePrefetch: cfg.Cache.NextLinePrefetch,
		}
	}
	sockets := 1
	var placement *numa.Placement
	if cfg.NUMA.Sockets > 0 {
		var err error
		placement, err = numa.New(cfg.NUMA)
		if err != nil {
			return nil, err
		}
		sockets = placement.Nodes()
		if sockets == 1 && cfg.NUMA.RemoteDRAMLatency != 0 {
			// A 1-node machine has no remote fills to charge; silently
			// ignoring the override would make the config look inert
			// (the CLI layer rejects the same combination).
			return nil, fmt.Errorf("core: NUMA.RemoteDRAMLatency set on a single-socket machine (no remote node to charge)")
		}
		if sockets > 1 {
			// The remote fill cost only exists when a remote node does.
			// The default is clamped to the configured local latency: a
			// slow-DRAM hierarchy must not fail validation (remote >=
			// local) on a value this code chose itself.
			privCfg.RemoteDRAMLatency = cfg.NUMA.RemoteDRAMLatency
			if privCfg.RemoteDRAMLatency == 0 {
				privCfg.RemoteDRAMLatency = max(numa.DefaultRemoteDRAMLatency, privCfg.DRAMLatency)
			}
		}
	}
	m := &Machine{
		Cfg:       cfg,
		Sockets:   sockets,
		Placement: placement,
		Bin:       prog.NewBinary(),
		AS:        prog.NewAddressSpace(heapBase(cfg)),
	}
	for s := 0; shared && s < sockets; s++ {
		llc, err := memhier.NewSharedCache(levels[len(levels)-1], 0)
		if err != nil {
			return nil, err
		}
		if placement != nil {
			router, err := placement.Router(s)
			if err != nil {
				return nil, err
			}
			llc.SetDRAMRouter(router)
		}
		m.L3s = append(m.L3s, llc)
	}
	for t := 0; t < n; t++ {
		socket := t * sockets / n
		var hier *memhier.Hierarchy
		var err error
		if shared {
			hier, err = memhier.NewWithSharedLLC(privCfg, m.L3s[socket])
		} else {
			hier, err = memhier.New(privCfg)
		}
		if err != nil {
			return nil, err
		}
		if placement != nil {
			router, err := placement.Router(socket)
			if err != nil {
				return nil, err
			}
			hier.SetDRAMRouter(router)
		}
		c, err := cpu.New(cfg.CPU, hier)
		if err != nil {
			return nil, err
		}
		mcfg := cfg.Monitor
		mcfg.Thread = t + 1
		if t > 0 {
			// Secondary threads resolve samples against the primary's
			// registry and leave the allocator hooks to the primary
			// (setup is single-threaded on thread 1).
			mcfg.Registry = m.Threads[0].Mon.Registry()
			mcfg.DisableAllocHooks = true
		}
		mon, err := extrae.New(mcfg, c, m.Bin, m.AS)
		if err != nil {
			return nil, err
		}
		m.SocketOf = append(m.SocketOf, socket)
		m.Threads = append(m.Threads, &MachineThread{Hier: hier, Core: c, Mon: mon})
	}
	return m, nil
}

// NThreads returns the number of simulated hardware threads.
func (m *Machine) NThreads() int { return len(m.Threads) }

// Primary returns thread 1's stack (setup, allocation instrumentation and
// scalar bookkeeping run there).
func (m *Machine) Primary() *MachineThread { return m.Threads[0] }

// StartAll enables monitoring on every thread.
func (m *Machine) StartAll() {
	for _, th := range m.Threads {
		th.Mon.Start()
	}
}

// StopAll disables monitoring and flushes pending samples on every thread.
func (m *Machine) StopAll() {
	for _, th := range m.Threads {
		th.Mon.Stop()
	}
}

// Team builds the hpcg worker team over the machine's threads (worker
// index = thread id - 1). Close it when done.
func (m *Machine) Team() (*hpcg.Team, error) {
	workers := make([]*hpcg.Worker, len(m.Threads))
	for i, th := range m.Threads {
		workers[i] = &hpcg.Worker{Core: th.Core, Mon: th.Mon}
	}
	return hpcg.NewTeam(workers)
}

// FuncOf resolves an instruction pointer to its function name ("" when
// unknown); used to label folded phases.
func (m *Machine) FuncOf(ip uint64) string {
	if loc, ok := m.Bin.Lookup(ip); ok {
		return loc.Function
	}
	return ""
}

// logs returns every thread's log, in thread order.
func (m *Machine) logs() []*trace.Log {
	logs := make([]*trace.Log, len(m.Threads))
	for i, th := range m.Threads {
		logs[i] = th.Mon.Log()
	}
	return logs
}

// MergedRecords returns every thread's log merged into one chronological
// stream of references to the events in place: on equal times the lower
// thread goes first, and Ref.Log is the 0-based thread index.
func (m *Machine) MergedRecords() []trace.Ref { return trace.Merge(m.logs()...) }

// Fold extracts and folds the named region for one thread (1-based) from
// that thread's own log (equivalent to ExtractThread over the merged
// trace, without scanning every other thread's events).
func (m *Machine) Fold(region extrae.Region, thread int) (*folding.Folded, error) {
	if thread < 1 || thread > len(m.Threads) {
		return nil, fmt.Errorf("core: thread %d out of range 1..%d", thread, len(m.Threads))
	}
	mon := m.Threads[thread-1].Mon
	instances, err := folding.Extract(mon.Log(), int64(region))
	if err != nil {
		return nil, err
	}
	if len(instances) == 0 {
		return nil, fmt.Errorf("core: no instances of region %q on thread %d", mon.RegionName(region), thread)
	}
	// Bind the config defaults: FuncOf resolves through the binary;
	// PhaseIP attributes samples taken under an instrumented call frame to
	// the outermost frame of this thread's stack table (stack ids are
	// monitor-local; e.g. the multigrid coarse-level smoother runs the
	// same code as the fine smoother, but belongs to ComputeMG_ref).
	cfg := m.Cfg.Folding
	if cfg.FuncOf == nil {
		cfg.FuncOf = m.FuncOf
	}
	if cfg.PhaseIP == nil {
		cfg.PhaseIP = func(smp *trace.Event) uint64 {
			if frames := mon.Stacks().Frames(smp.StackID); len(frames) > 0 {
				return frames[len(frames)-1]
			}
			return smp.IP
		}
	}
	folded, err := folding.Fold(instances, cfg)
	if err != nil {
		return nil, err
	}
	folded.Region = int64(region)
	folded.LabelPhases(m.FuncOf)
	return folded, nil
}

// WriteTrace serializes the trace and labels to the writers (PRV-style
// text and PCF), walking the threads' logs in merged order in place. All
// monitors carry identical labels; the primary's are written.
func (m *Machine) WriteTrace(prv, pcf interface {
	Write(p []byte) (int, error)
}) error {
	logs := m.logs()
	var dur uint64
	for _, l := range logs {
		if l.Len() > 0 {
			dur = max(dur, l.Last().TimeNs)
		}
	}
	w, err := trace.NewWriter(prv, 1, len(m.Threads), dur)
	if err != nil {
		return err
	}
	var rec trace.Record
	for t, e := range trace.Merged(logs...) {
		mon := m.Threads[t].Mon
		rec.Task, rec.Thread, rec.TimeNs = mon.Task(), mon.Thread(), e.TimeNs
		rec.Pairs = e.AppendPairs(rec.Pairs[:0])
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	return m.Primary().Mon.Labels().WritePCF(pcf)
}

// foldAll stops monitoring and folds region on every thread after a run
// that ended with err: nil (every thread must fold), a clean stop
// (*RunError: the threads that fold are kept) or a hard failure, returned
// as is.
func (m *Machine) foldAll(region extrae.Region, err error) ([]MachineThreadRun, error) {
	var stop *RunError
	if err != nil && !errors.As(err, &stop) {
		return nil, err
	}
	m.StopAll()
	var out []MachineThreadRun
	for t := 1; t <= len(m.Threads); t++ {
		folded, err := m.Fold(region, t)
		if err != nil && stop == nil {
			return nil, err
		}
		if err == nil {
			out = append(out, MachineThreadRun{Thread: t, Folded: folded})
		}
	}
	return out, nil
}

// RunWorkload sets up, monitors and folds a synthetic workload on a
// threads-thread Machine: setup on the primary thread, then the
// deterministic thread-major schedule (thread t runs all its iterations
// over its static element block before thread t+1 starts), then one folded
// analysis per thread. The partitioned workloads have no cross-block
// dependencies, so this is a legal interleaving of a parallel run; unlike
// a goroutine schedule it fixes the order of shared-L3 fills, making the
// run bit-reproducible — the scenario golden-metrics harness depends on
// it. ck (nil for none) snapshots, resumes and observes the run at
// instance boundaries. A run stopped there (cancellation, an injected
// fault or a demanded checkpoint) returns its partial result alongside a
// *RunError.
func RunWorkload(ctx context.Context, cfg Config, w workloads.Workload, iters, threads int, ck *Checkpointer) (*MachineWorkloadResult, error) {
	m, err := NewMachine(cfg, threads)
	if err != nil {
		return nil, err
	}
	primary := m.Primary()
	if err := w.Setup(&workloads.Ctx{Core: primary.Core, Mon: primary.Mon, Bin: m.Bin}); err != nil {
		return nil, err
	}
	for _, th := range m.Threads[1:] {
		// Setup registered the region on the primary; secondaries must
		// assign the same id for the merged streams to agree.
		if got := th.Mon.RegisterRegion(w.Name()); got != w.Region() {
			return nil, fmt.Errorf("core: region %q registered as %d on thread %d, primary has %d",
				w.Name(), got, th.Mon.Thread(), w.Region())
		}
	}
	m.StartAll()
	err = m.run(ctx, &workloadSchedule{m: m, w: w, iters: iters}, ck)
	folded, ferr := m.foldAll(w.Region(), err)
	if ferr != nil {
		return nil, ferr
	}
	return &MachineWorkloadResult{Machine: m, Threads: folded, Partial: err != nil}, err
}

// MachineWorkloadResult bundles a synthetic-workload run with its
// per-thread foldings.
type MachineWorkloadResult struct {
	Machine *Machine
	Threads []MachineThreadRun
	// Partial marks a run stopped before completion (cancellation, injected
	// fault or demanded checkpoint): Threads holds only what folded cleanly.
	Partial bool
}

// MachineThreadRun is one thread's folded view of a machine run.
type MachineThreadRun struct {
	// Thread is the 1-based thread id.
	Thread int
	// Folded is the thread's folded region.
	Folded *folding.Folded
	// Paper maps the thread's detected phases onto the paper's letters
	// (HPCG runs).
	Paper []PaperPhase
}

// MachineHPCGRun bundles the multi-threaded HPCG reproduction: the shared
// solve plus one folded analysis per thread.
type MachineHPCGRun struct {
	Machine *Machine
	Problem *hpcg.Problem
	CG      *hpcg.CGResult
	Threads []MachineThreadRun
	// Partial marks a solve aborted at an instance boundary (cancellation
	// or a contained worker panic): Threads holds only what folded cleanly.
	Partial bool
}

// RunHPCGParallel executes the paper's evaluation on an n-thread Machine:
// generate the problem once (setup on thread 1), run the OpenMP-style
// domain-partitioned CG across all threads under monitoring and fold each
// thread separately. The team polls ctx at every parallel-section fork and
// contains worker panics; an aborted solve returns the partial result
// alongside a *RunError.
func RunHPCGParallel(ctx context.Context, cfg Config, params hpcg.Params, threads int) (*MachineHPCGRun, error) {
	return runHPCGTeam(ctx, cfg, params, threads, nil)
}

// runHPCGTeam is both HPCG drivers: the CG solve on the machine's team, one
// iteration per instance of the boundary loop, then one fold per thread.
// A team poisoned mid-iteration (cancellation at a fork, a kernel panic)
// stops the solve like a boundary stop: a *RunError and a partial result.
func runHPCGTeam(ctx context.Context, cfg Config, params hpcg.Params, threads int, ck *Checkpointer) (*MachineHPCGRun, error) {
	m, problem, err := newHPCG(cfg, params, threads)
	if err != nil {
		return nil, err
	}
	team, err := m.Team()
	if err != nil {
		return nil, err
	}
	defer team.Close()
	team.SetContext(ctx)
	m.StartAll()
	var cg *hpcg.CGResult
	cgr, err := problem.NewCGRunOn(team)
	if err == nil {
		cg = cgr.Result()
		err = m.run(ctx, &cgSchedule{cg: cgr}, ck)
	}
	if abort := (*hpcg.AbortError)(nil); errors.As(err, &abort) {
		// The cursor counts completed iterations; the aborted one is not.
		err = &RunError{Cursor: checkpoint.Cursor{Iter: max(abort.Iteration-1, 0)}, Cause: abort.Err}
	}
	folded, ferr := m.foldAll(problem.RegionIteration, err)
	if ferr != nil {
		return nil, ferr
	}
	for i := range folded {
		folded[i].Paper = LabelPaperPhases(folded[i].Folded, m.FuncOf)
	}
	return &MachineHPCGRun{Machine: m, Problem: problem, CG: cg, Threads: folded, Partial: err != nil}, err
}

// newHPCG builds an n-thread machine and generates the problem on its
// primary thread (setup, unmonitored but with allocation tracking), with
// the problem's regions registered on every thread.
func newHPCG(cfg Config, params hpcg.Params, n int) (*Machine, *hpcg.Problem, error) {
	m, err := NewMachine(cfg, n)
	if err != nil {
		return nil, nil, err
	}
	if err := hpcg.SetupBinary(m.Bin); err != nil {
		return nil, nil, err
	}
	primary := m.Primary()
	problem, err := hpcg.Generate(params, primary.Core, primary.Mon, m.Bin)
	if err != nil {
		return nil, nil, err
	}
	for _, th := range m.Threads[1:] {
		if err := problem.RegisterRegions(th.Mon); err != nil {
			return nil, nil, err
		}
	}
	return m, problem, nil
}

// NUMAReport assembles the per-socket traffic section of a NUMA-routed
// machine (nil on the flat machine).
func (m *Machine) NUMAReport() *report.NUMASection {
	if m.Placement == nil {
		return nil
	}
	sec := &report.NUMASection{
		Policy:   m.Placement.Policy().String(),
		PageSize: m.Placement.PageSize(),
	}
	for s := 0; s < m.Sockets; s++ {
		row := report.NUMASocketRow{Socket: s}
		for t, th := range m.Threads {
			if m.SocketOf[t] != s {
				continue
			}
			row.Threads = append(row.Threads, th.Mon.Thread())
			row.L3Misses += th.Hier.DRAMAccesses()
			row.RemoteFills += th.Hier.RemoteDRAMAccesses()
		}
		row.L3Writebacks = m.L3s[s].Stats().Writebacks
		sec.Sockets = append(sec.Sockets, row)
	}
	for n, st := range m.Placement.Stats() {
		sec.Nodes = append(sec.Nodes, report.NUMANodeRow{
			Node:        n,
			FillsLocal:  st.FillsLocal,
			FillsRemote: st.FillsRemote,
			Writebacks:  st.Writebacks,
			Pages:       st.Pages,
		})
	}
	return sec
}

// Figure assembles the cross-thread report: per-thread folded curves and
// phase tables plus the shared-L3 miss attribution (and, when NUMA-routed,
// the per-socket traffic section).
func (r *MachineHPCGRun) Figure() *report.MachineFigure {
	fig := &report.MachineFigure{}
	for _, tr := range r.Threads {
		labels := make([]string, len(tr.Paper))
		for i, pp := range tr.Paper {
			labels[i] = pp.Label
		}
		fig.Threads = append(fig.Threads, report.ThreadFigure{
			Thread:      tr.Thread,
			Folded:      tr.Folded,
			PaperLabels: labels,
		})
	}
	// Per-thread demand attribution; the cache-wide counters sum over every
	// socket's last level, read through its first thread (a shared L3
	// reports its totals to each of its threads, and the one-thread flat
	// machine's L3 is private). Threads form contiguous socket blocks.
	m := r.Machine
	llcLevel := m.Primary().Hier.Levels() - 1
	for t, mt := range m.Threads {
		st := mt.Hier.LevelStats(llcLevel)
		fig.L3.PerThread = append(fig.L3.PerThread, report.L3ThreadRow{
			Thread:   mt.Mon.Thread(),
			Accesses: st.Accesses,
			Misses:   st.Misses,
		})
		if t == 0 || m.SocketOf[t] != m.SocketOf[t-1] {
			fig.L3.Writebacks += st.Writebacks
			fig.L3.Prefetches += st.Prefetches
			fig.L3.PrefHits += st.PrefHits
		}
	}
	fig.NUMA = m.NUMAReport()
	return fig
}

// PhaseByLabel returns thread t's (1-based) first phase with the given
// paper label.
func (r *MachineHPCGRun) PhaseByLabel(thread int, label string) (folding.Phase, bool) {
	for _, pp := range r.Threads[thread-1].Paper {
		if pp.Label == label {
			return pp.Phase, true
		}
	}
	return folding.Phase{}, false
}
