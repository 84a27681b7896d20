package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/cpu"
	"repro/internal/extrae"
	"repro/internal/faultinject"
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
// levels (L1/L2), core, PMU, PEBS engine and Extrae monitor — exactly what
// the paper's per-hardware-thread monitoring attaches to each OpenMP
// thread. The hierarchy's last level is the Machine's shared L3.
type MachineThread struct {
	Hier *memhier.Hierarchy
	Core *cpu.Core
	Mon  *extrae.Monitor
}

// Machine is an N-core simulated shared-memory node: N MachineThreads
// running concurrently (one goroutine each during parallel sections),
// sharing one address space, one synthetic binary and one data-object
// registry. Cores are grouped into S sockets (S = 1 unless Config.NUMA
// asks for more), each socket with its own thread-safe shared L3; on a
// NUMA machine every DRAM fill additionally resolves through the page
// placement to its home memory node. A 1-thread Machine is
// observationally identical to a Session, and a 1-socket NUMA-routed
// Machine to the flat Machine — the fastpath and partition equivalence
// suites pin both.
type Machine struct {
	Cfg     Config
	Threads []*MachineThread
	// L3 is socket 0's shared last-level cache (the only one on a
	// single-socket machine).
	L3 *memhier.SharedCache
	// L3s holds every socket's shared L3, indexed by socket.
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

// NewMachine builds an n-thread machine from the session configuration:
// the last configured cache level becomes the per-socket shared L3, the
// remaining levels are replicated privately per thread. With
// cfg.NUMA.Sockets >= 1 the machine is NUMA-routed: threads are grouped
// into contiguous socket blocks (thread t on socket t*S/n; sockets beyond
// the thread count hold memory only), and every socket's caches route
// DRAM traffic through one shared page placement.
func NewMachine(cfg Config, n int) (*Machine, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: machine needs at least one thread, got %d", n)
	}
	cfg = applyReference(cfg)
	levels := cfg.Cache.Levels
	if len(levels) < 2 {
		return nil, fmt.Errorf("core: machine needs >= 2 cache levels (private + shared LLC), got %d", len(levels))
	}
	privCfg := memhier.Config{
		Levels:           levels[:len(levels)-1],
		DRAMLatency:      cfg.Cache.DRAMLatency,
		NextLinePrefetch: cfg.Cache.NextLinePrefetch,
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
	for s := 0; s < sockets; s++ {
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
	m.L3 = m.L3s[0]
	for t := 0; t < n; t++ {
		socket := t * sockets / n
		hier, err := memhier.NewWithSharedLLC(privCfg, m.L3s[socket])
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

// MergedRecords returns every thread's log merged into one chronological
// stream of references to the events in place: on equal times the lower
// thread goes first, and Ref.Log is the 0-based thread index.
func (m *Machine) MergedRecords() []trace.Ref {
	logs := make([]*trace.Log, len(m.Threads))
	for i, th := range m.Threads {
		logs[i] = th.Mon.Log()
	}
	return trace.Merge(logs...)
}

// Fold extracts and folds the named region for one thread (1-based) from
// that thread's own log (equivalent to ExtractThread over the merged
// trace, without scanning every other thread's events).
func (m *Machine) Fold(region extrae.Region, thread int) (*folding.Folded, error) {
	if thread < 1 || thread > len(m.Threads) {
		return nil, fmt.Errorf("core: thread %d out of range 1..%d", thread, len(m.Threads))
	}
	th := m.Threads[thread-1]
	instances, err := folding.Extract(th.Mon.Log(), int64(region))
	if err != nil {
		return nil, err
	}
	if len(instances) == 0 {
		return nil, fmt.Errorf("core: no instances of region %q on thread %d", th.Mon.RegionName(region), thread)
	}
	// Stack ids are monitor-local, so the outermost-frame attribution must
	// resolve against this thread's own monitor.
	return foldInstances(instances, m.Cfg.Folding, region, m.FuncOf, th.Mon)
}

// WriteTrace serializes the merged multi-thread trace and labels to the
// writers (PRV-style text and PCF). All monitors carry identical labels;
// the primary's are written.
func (m *Machine) WriteTrace(prv, pcf interface {
	Write(p []byte) (int, error)
}) error {
	refs := m.MergedRecords()
	var dur uint64
	if len(refs) > 0 {
		dur = refs[len(refs)-1].Event.TimeNs
	}
	w, err := trace.NewWriter(prv, 1, len(m.Threads), dur)
	if err != nil {
		return err
	}
	var rec trace.Record
	for _, r := range refs {
		mon := m.Threads[r.Log].Mon
		rec.Task, rec.Thread = mon.Task(), mon.Thread()
		if err := writeEvent(w, &rec, r.Event); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	return m.Primary().Mon.Labels().WritePCF(pcf)
}

// RunWorkloadParallel runs a partitionable synthetic workload across an
// n-thread Machine: setup on the primary thread, then one goroutine per
// thread free-running its static element block (the triad-style workloads
// have no cross-block dependencies, so no barriers are needed), then one
// folded analysis per thread. With one thread the run is identical to
// RunWorkload. Workers poll ctx at instance boundaries and recover panics;
// either fault surfaces as a *RunError alongside the partial result.
func RunWorkloadParallel(ctx context.Context, cfg Config, w workloads.PartitionedWorkload, iters, threads int) (*MachineWorkloadResult, error) {
	return runWorkloadPartitioned(ctx, cfg, w, iters, threads, true, nil)
}

// RunWorkloadSequential is RunWorkloadParallel under a deterministic
// schedule: the same Machine, partitioning, per-thread monitors and shared
// L3, but thread t's whole block runs to completion before thread t+1
// starts. The free-running partitioned workloads have no cross-block
// dependencies, so the sequential schedule is a legal interleaving; unlike
// the goroutine schedule it fixes the order of shared-L3 fills, making the
// run bit-reproducible — the scenario golden-metrics harness depends on
// this. With one thread both entry points are identical.
func RunWorkloadSequential(ctx context.Context, cfg Config, w workloads.PartitionedWorkload, iters, threads int) (*MachineWorkloadResult, error) {
	return runWorkloadPartitioned(ctx, cfg, w, iters, threads, false, nil)
}

func runWorkloadPartitioned(ctx context.Context, cfg Config, w workloads.PartitionedWorkload, iters, threads int, concurrent bool, ck *Checkpointer) (*MachineWorkloadResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rw, resumable := w.(workloads.ResumableWorkload)
	if ck.checkpoints() && !resumable {
		return nil, fmt.Errorf("core: workload %q does not support checkpointing (no RunPartitionRange)", w.Name())
	}
	if ck.checkpoints() && concurrent {
		return nil, fmt.Errorf("core: checkpointing requires the deterministic sequential schedule")
	}
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
	n := w.Elements()
	var runErr *RunError
	if concurrent {
		runErr = m.runConcurrent(ctx, w, rw, iters, n)
	} else {
		runErr, err = m.runSequential(ctx, w, rw, iters, n, ck)
		if err != nil {
			return nil, err
		}
	}
	m.StopAll()
	if runErr != nil {
		// Partial result: fold whatever threads completed instances. The
		// caller gets both the data and the structured error.
		res := &MachineWorkloadResult{Machine: m, Partial: true}
		for t := 1; t <= len(m.Threads); t++ {
			folded, err := m.Fold(w.Region(), t)
			if err != nil {
				continue
			}
			res.Threads = append(res.Threads, MachineThreadRun{Thread: t, Folded: folded})
		}
		return res, runErr
	}
	res := &MachineWorkloadResult{Machine: m}
	for t := 1; t <= len(m.Threads); t++ {
		folded, err := m.Fold(w.Region(), t)
		if err != nil {
			return nil, err
		}
		res.Threads = append(res.Threads, MachineThreadRun{Thread: t, Folded: folded})
	}
	return res, nil
}

// runConcurrent free-runs every thread's block in its own goroutine. Each
// goroutine polls ctx between instances and recovers panics, so one dying
// worker can never hang the WaitGroup; the first fault (lowest thread id)
// becomes the run's error.
func (m *Machine) runConcurrent(ctx context.Context, w workloads.PartitionedWorkload, rw workloads.ResumableWorkload, iters, n int) *RunError {
	errs := make([]*RunError, len(m.Threads))
	cursors := make([]int, len(m.Threads))
	var wg sync.WaitGroup
	for t, th := range m.Threads {
		wg.Add(1)
		go func(t int, th *MachineThread) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[t] = &RunError{Thread: t + 1,
						Cursor: checkpoint.Cursor{Thread: t, Iter: cursors[t]},
						Cause:  fmt.Errorf("panic: %v", r)}
				}
			}()
			lo, hi := t*n/len(m.Threads), (t+1)*n/len(m.Threads)
			wctx := &workloads.Ctx{Core: th.Core, Mon: th.Mon, Bin: m.Bin}
			if rw == nil {
				// Non-resumable workloads run their block in one call;
				// cancellation is only observed before the block starts.
				if err := ctx.Err(); err != nil {
					errs[t] = &RunError{Thread: t + 1, Cursor: checkpoint.Cursor{Thread: t}, Cause: err}
					return
				}
				if err := w.RunPartition(wctx, iters, lo, hi); err != nil {
					errs[t] = &RunError{Thread: t + 1, Cursor: checkpoint.Cursor{Thread: t}, Cause: err}
				}
				return
			}
			for it := 0; it < iters; it++ {
				cursors[t] = it
				if err := ctx.Err(); err != nil {
					errs[t] = &RunError{Thread: t + 1, Cursor: checkpoint.Cursor{Thread: t, Iter: it}, Cause: err}
					return
				}
				if err := rw.RunPartitionRange(wctx, it, it+1, lo, hi); err != nil {
					errs[t] = &RunError{Thread: t + 1, Cursor: checkpoint.Cursor{Thread: t, Iter: it}, Cause: err}
					return
				}
			}
		}(t, th)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// runSequential drives the deterministic thread-major schedule one instance
// at a time: cancellation polls and the instance fault-injection point sit
// between instances, and the optional checkpointer snapshots there too —
// the only program points where the monitors' sampling state is quiescent.
// The returned *RunError is a clean stop (resume-able); the plain error is
// a hard failure.
func (m *Machine) runSequential(ctx context.Context, w workloads.PartitionedWorkload, rw workloads.ResumableWorkload, iters, n int, ck *Checkpointer) (*RunError, error) {
	if rw == nil {
		for t, th := range m.Threads {
			if err := ctx.Err(); err != nil {
				return &RunError{Thread: t + 1, Cursor: checkpoint.Cursor{Thread: t}, Cause: err}, nil
			}
			lo, hi := t*n/len(m.Threads), (t+1)*n/len(m.Threads)
			if err := w.RunPartition(&workloads.Ctx{Core: th.Core, Mon: th.Mon, Bin: m.Bin}, iters, lo, hi); err != nil {
				return nil, fmt.Errorf("core: thread %d: %w", t+1, err)
			}
			// Whole-partition runs only reach quiescence between threads;
			// progress advances a thread's worth of instances at a time.
			ck.observeMachine(m, (t+1)*iters)
		}
		return nil, nil
	}
	start := checkpoint.Cursor{}
	if ck != nil && ck.Resume != nil {
		if err := m.RestoreSnapshot(ck.Resume, ck.Tag); err != nil {
			return nil, err
		}
		start = ck.Resume.Cursor
	}
	done := 0
	ck.observeMachine(m, start.Thread*iters+start.Iter)
	for t := start.Thread; t < len(m.Threads); t++ {
		th := m.Threads[t]
		lo, hi := t*n/len(m.Threads), (t+1)*n/len(m.Threads)
		wctx := &workloads.Ctx{Core: th.Core, Mon: th.Mon, Bin: m.Bin}
		it0 := 0
		if t == start.Thread {
			it0 = start.Iter
		}
		for it := it0; it < iters; it++ {
			cur := checkpoint.Cursor{Thread: t, Iter: it}
			if err := ctx.Err(); err != nil {
				return &RunError{Thread: t + 1, Cursor: cur, Cause: err}, nil
			}
			if err := faultinject.Hit(faultinject.PointInstance); err != nil {
				return &RunError{Thread: t + 1, Cursor: cur, Cause: err}, nil
			}
			if ck.demanded() {
				snap, err := m.Snapshot(cur, ck.Tag)
				if err != nil {
					return nil, err
				}
				if err := ck.emit(snap); err != nil {
					return nil, err
				}
				return &RunError{Thread: t + 1, Cursor: cur, Cause: ErrCheckpointDemanded}, nil
			}
			if err := rw.RunPartitionRange(wctx, it, it+1, lo, hi); err != nil {
				return nil, fmt.Errorf("core: thread %d: %w", t+1, err)
			}
			done++
			ck.observeMachine(m, t*iters+it+1)
			next := checkpoint.Cursor{Thread: t, Iter: it + 1}
			if next.Iter == iters {
				next = checkpoint.Cursor{Thread: t + 1}
			}
			atEnd := next.Thread == len(m.Threads)
			if ck != nil && ck.Every > 0 && done%ck.Every == 0 && !atEnd {
				snap, err := m.Snapshot(next, ck.Tag)
				if err != nil {
					return nil, err
				}
				if err := ck.emit(snap); err != nil {
					return nil, err
				}
			}
		}
	}
	return nil, nil
}

// MachineWorkloadResult bundles a multi-threaded synthetic-workload run
// with its per-thread foldings.
type MachineWorkloadResult struct {
	Machine *Machine
	Threads []MachineThreadRun
	// Partial marks a run stopped before completion (cancellation, injected
	// fault or contained panic): Threads holds only what folded cleanly.
	Partial bool
}

// MachineThreadRun is one thread's folded view of a machine HPCG run.
type MachineThreadRun struct {
	// Thread is the 1-based thread id.
	Thread int
	// Folded is the thread's folded CG_iteration region.
	Folded *folding.Folded
	// Paper maps the thread's detected phases onto the paper's letters.
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
// domain-partitioned CG across all threads under monitoring, merge the
// per-thread trace streams and fold each thread separately. The team polls
// ctx at every parallel-section fork and contains worker panics; an
// aborted solve returns the partial result alongside a *RunError.
func RunHPCGParallel(ctx context.Context, cfg Config, params hpcg.Params, threads int) (*MachineHPCGRun, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	m, err := NewMachine(cfg, threads)
	if err != nil {
		return nil, err
	}
	if err := hpcg.SetupBinary(m.Bin); err != nil {
		return nil, err
	}
	primary := m.Primary()
	problem, err := hpcg.Generate(params, primary.Core, primary.Mon, m.Bin)
	if err != nil {
		return nil, err
	}
	for _, th := range m.Threads[1:] {
		if err := problem.RegisterRegions(th.Mon); err != nil {
			return nil, err
		}
	}
	team, err := m.Team()
	if err != nil {
		return nil, err
	}
	defer team.Close()
	team.SetContext(ctx)
	m.StartAll()
	cg, err := problem.RunCGParallel(team)
	if err != nil {
		var abort *hpcg.AbortError
		if !errors.As(err, &abort) {
			return nil, err
		}
		m.StopAll()
		run := &MachineHPCGRun{Machine: m, Problem: problem, Partial: true}
		for t := 1; t <= len(m.Threads); t++ {
			folded, ferr := m.Fold(problem.RegionIteration, t)
			if ferr != nil {
				continue
			}
			run.Threads = append(run.Threads, MachineThreadRun{
				Thread: t,
				Folded: folded,
				Paper:  LabelPaperPhases(folded, m.FuncOf),
			})
		}
		return run, &RunError{Cursor: checkpoint.Cursor{Iter: abort.Iteration}, Cause: abort.Err}
	}
	m.StopAll()
	run := &MachineHPCGRun{Machine: m, Problem: problem, CG: cg}
	for t := 1; t <= len(m.Threads); t++ {
		folded, err := m.Fold(problem.RegionIteration, t)
		if err != nil {
			return nil, err
		}
		run.Threads = append(run.Threads, MachineThreadRun{
			Thread: t,
			Folded: folded,
			Paper:  LabelPaperPhases(folded, m.FuncOf),
		})
	}
	return run, nil
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
	llcLevel := r.Machine.Primary().Hier.Levels() - 1
	for _, mt := range r.Machine.Threads {
		st := mt.Hier.LevelStats(llcLevel)
		fig.L3.PerThread = append(fig.L3.PerThread, report.L3ThreadRow{
			Thread:   mt.Mon.Thread(),
			Accesses: st.Accesses,
			Misses:   st.Misses,
		})
	}
	// Cache-wide counters sum over every socket's L3 (one L3 on the flat
	// machine, so the historical single-socket numbers are unchanged).
	for _, l3 := range r.Machine.L3s {
		llc := l3.Stats()
		fig.L3.Writebacks += llc.Writebacks
		fig.L3.Prefetches += llc.Prefetches
		fig.L3.PrefHits += llc.PrefHits
	}
	fig.NUMA = r.Machine.NUMAReport()
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
