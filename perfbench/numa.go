package main

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/extrae"
	"repro/internal/folding"
	"repro/internal/hpcg"
	"repro/internal/numa"
	"repro/internal/pebs"
)

// numaParams is the NUMA run's problem: the figure problem, so a gain in a
// shared layer shows on both batch workloads.
var numaParams = figureParams

// numaThreads is one simulated thread per socket: two goroutines, the
// host's core count, and no cache shared between them.
const numaThreads = 2

// numaPeriod keeps sampling sparse, so folding and encoding stay a small
// share of the unit.
const numaPeriod = 10000

// numaConfig is a 2-socket machine with pages interleaved across the
// nodes, deterministic sparse sampling and the seed's heap base.
func numaConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Monitor.MuxQuantumNs = 0
	cfg.Monitor.PEBS.Events = pebs.SampleLoads | pebs.SampleStores
	cfg.Monitor.PEBS.Period = numaPeriod
	cfg.Monitor.PEBS.Randomize = false
	cfg.Monitor.PEBS.LatencyThreshold = 0
	cfg.NUMA = numa.Config{Sockets: 2, Policy: numa.Interleave}
	cfg.ASLRSeed = aslrSeed(seed)
	return cfg
}

// numa2s2t is HPCG on the 2-socket machine: the calls hpcgrepro -threads 2
// -sockets 2 -placement interleave -out makes, outputs kept in memory.
func numa2s2t(seed int64) batch { return machineBatch(numaConfig(seed), numaParams) }

func machineBatch(cfg core.Config, params hpcg.Params) batch {
	return func(ctx context.Context, o *outputs, tr *tracer) (*unitResult, error) {
		var run *core.MachineHPCGRun
		var live uint64
		var err error
		if tr == nil {
			run, err = core.RunHPCGParallel(ctx, cfg, params, numaThreads)
		} else {
			run, live, err = machineSolveTraced(ctx, cfg, params, tr)
		}
		if err != nil {
			return nil, err
		}
		o.reset()
		tr.begin("report.render")
		err = run.Figure().Render(&o.report)
		tr.end()
		if err != nil {
			return nil, err
		}
		m := run.Machine
		tr.begin("trace.merge")
		m.MergedRecords()
		tr.end()
		tr.begin("trace.prv")
		err = m.WriteTrace(&o.prv, &o.pcf)
		tr.end()
		if err != nil {
			return nil, err
		}
		var cores []*cpu.Core
		var mons []*extrae.Monitor
		var folds []*folding.Folded
		for i, th := range m.Threads {
			cores = append(cores, th.Core)
			mons = append(mons, th.Mon)
			folds = append(folds, run.Threads[i].Folded)
		}
		res := &unitResult{
			counts:   collect(cores, mons, folds, m.Placement, o.prv.Len()),
			digest:   digest(o, run.CG, run.Problem.X.Data),
			liveHeap: live,
		}
		res.check = func(o *outputs) error { return checkMachine(run, res.counts, o) }
		return res, nil
	}
}

// machineSolveTraced is core.RunHPCGParallel made of its public calls,
// one span per layer. It also returns the live heap after the solve, from
// a forced collection outside the layer spans.
func machineSolveTraced(ctx context.Context, cfg core.Config, params hpcg.Params, tr *tracer) (*core.MachineHPCGRun, uint64, error) {
	tr.begin("core.assemble")
	m, err := core.NewMachine(cfg, numaThreads)
	tr.end()
	if err != nil {
		return nil, 0, err
	}
	tr.begin("hpcg.generate")
	if err := hpcg.SetupBinary(m.Bin); err != nil {
		return nil, 0, err
	}
	primary := m.Primary()
	problem, err := hpcg.Generate(params, primary.Core, primary.Mon, m.Bin)
	if err != nil {
		return nil, 0, err
	}
	for _, th := range m.Threads[1:] {
		if err := problem.RegisterRegions(th.Mon); err != nil {
			return nil, 0, err
		}
	}
	tr.end()
	tr.begin("hpcg.solve")
	team, err := m.Team()
	if err != nil {
		return nil, 0, err
	}
	team.SetContext(ctx)
	m.StartAll()
	cg, err := problem.RunCGParallel(team)
	team.Close()
	if err != nil {
		return nil, 0, err
	}
	m.StopAll()
	tr.end()

	live := tr.liveHeap()
	tr.begin("folding.fold")
	run := &core.MachineHPCGRun{Machine: m, Problem: problem, CG: cg}
	for t := 1; t <= len(m.Threads); t++ {
		folded, err := m.Fold(problem.RegionIteration, t)
		if err != nil {
			return nil, 0, err
		}
		run.Threads = append(run.Threads, core.MachineThreadRun{
			Thread: t,
			Folded: folded,
			Paper:  core.LabelPaperPhases(folded, m.FuncOf),
		})
	}
	tr.end()
	return run, live, nil
}

// checkMachine runs every independent check on one NUMA unit.
func checkMachine(run *core.MachineHPCGRun, c counts, o *outputs) error {
	if run.CG == nil {
		return errors.New("solve returned no CG result")
	}
	p := run.Problem.Params
	if err := checkSolution(p.NX, p.NY, p.NZ, run.Problem.X.Data, run.CG.Residuals, run.CG.FinalError); err != nil {
		return err
	}
	got, err := readPRV(o.prv.Bytes(), 0, 0)
	if err != nil {
		return err
	}
	if err := checkSampleCount(got, c.Samples); err != nil {
		return err
	}
	if run.Machine.Placement == nil {
		return fmt.Errorf("machine has no NUMA placement")
	}
	threads, nodes := machineFills(run.Machine)
	return checkFills(threads, nodes)
}

// machineFills reads the DRAM fill books of the threads and of the memory
// nodes.
func machineFills(m *core.Machine) ([]threadFills, []nodeFills) {
	var threads []threadFills
	for i, th := range m.Threads {
		threads = append(threads, threadFills{
			Socket:      m.SocketOf[i],
			Fills:       th.Hier.DRAMAccesses(),
			RemoteFills: th.Hier.RemoteDRAMAccesses(),
		})
	}
	var nodes []nodeFills
	for _, st := range m.Placement.Stats() {
		nodes = append(nodes, nodeFills{Local: st.FillsLocal, Remote: st.FillsRemote})
	}
	return threads, nodes
}
