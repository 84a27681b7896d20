package main

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/extrae"
	"repro/internal/folding"
	"repro/internal/hpcg"
	"repro/internal/pebs"
	"repro/internal/report"
)

// figureParams is the figure benches' problem: HPCG 32³ with the paper's
// four multigrid levels and three CG iterations.
var figureParams = hpcg.Params{NX: 32, NY: 32, NZ: 32, MGLevels: 4, MaxIters: 3}

// figurePeriod is the figure benches' dense sampling period.
const figurePeriod = 400

// figureConfig is the figure benches' deterministic monitoring set-up
// (PEBS on loads and stores every 400 operations, no multiplexing, no
// randomisation) with the heap base drawn from the seed, as address-space
// layout randomisation would move it between real runs.
func figureConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Monitor.MuxQuantumNs = 0
	cfg.Monitor.PEBS.Events = pebs.SampleLoads | pebs.SampleStores
	cfg.Monitor.PEBS.Period = figurePeriod
	cfg.Monitor.PEBS.Randomize = false
	cfg.Monitor.PEBS.LatencyThreshold = 0
	cfg.ASLRSeed = aslrSeed(seed)
	return cfg
}

// figure32 is the paper's Figure 1 run on one simulated thread: the calls
// hpcgrepro -out makes, with the outputs kept in memory.
func figure32(seed int64) batch { return figureBatch(figureConfig(seed), figureParams) }

func figureBatch(cfg core.Config, params hpcg.Params) batch {
	return func(ctx context.Context, o *outputs, tr *tracer) (*unitResult, error) {
		var run *core.HPCGRun
		var live uint64
		var err error
		if tr == nil {
			run, err = core.RunHPCGCheckpointed(ctx, cfg, params, nil)
		} else {
			run, live, err = figureSolveTraced(ctx, cfg, params, tr)
		}
		if err != nil {
			return nil, err
		}
		if err := writeFigure(run, o, tr); err != nil {
			return nil, err
		}
		s := run.Session
		res := &unitResult{
			counts: collect([]*cpu.Core{s.Core}, []*extrae.Monitor{s.Mon},
				[]*folding.Folded{run.Folded}, nil, o.prv.Len()),
			digest:   digest(o, run.CG, run.Problem.X.Data),
			liveHeap: live,
		}
		res.check = func(o *outputs) error { return checkFigure(run, res.counts, o) }
		return res, nil
	}
}

// figureSolveTraced is core.RunHPCGCheckpointed (nil checkpointer) made of
// its public calls, one span per layer. It also returns the live heap
// after the solve, from a forced collection outside the layer spans.
func figureSolveTraced(ctx context.Context, cfg core.Config, params hpcg.Params, tr *tracer) (*core.HPCGRun, uint64, error) {
	tr.begin("core.assemble")
	s, err := core.NewSession(cfg)
	tr.end()
	if err != nil {
		return nil, 0, err
	}
	tr.begin("hpcg.generate")
	if err := hpcg.SetupBinary(s.Bin); err != nil {
		return nil, 0, err
	}
	problem, err := hpcg.Generate(params, s.Core, s.Mon, s.Bin)
	tr.end()
	if err != nil {
		return nil, 0, err
	}
	tr.begin("hpcg.solve")
	s.Mon.Start()
	cgr, err := problem.NewCGRun()
	if err != nil {
		return nil, 0, err
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		done, err := cgr.Step()
		if err != nil {
			return nil, 0, err
		}
		if done {
			break
		}
	}
	s.Mon.Stop()
	tr.end()

	live := tr.liveHeap()
	tr.begin("folding.fold")
	folded, err := s.Fold(problem.RegionIteration)
	if err != nil {
		return nil, 0, err
	}
	paper := core.LabelPaperPhases(folded, s.FuncOf)
	tr.end()
	return &core.HPCGRun{Session: s, Problem: problem, CG: cgr.Result(), Folded: folded, Paper: paper}, live, nil
}

// writeFigure renders the report and CSV series and encodes the trace, as
// hpcgrepro -out does, into the unit's buffers.
func writeFigure(run *core.HPCGRun, o *outputs, tr *tracer) error {
	o.reset()
	tr.begin("report.render")
	fig := run.Figure1()
	if err := fig.Render(&o.report); err != nil {
		return err
	}
	reg := run.Session.Mon.Registry()
	objectOf := func(addr uint64) string {
		if obj, ok := reg.Resolve(addr); ok {
			return obj.Name
		}
		return ""
	}
	for _, write := range []func() error{
		func() error { return report.WriteLinesCSV(&o.csv, fig) },
		func() error { return report.WriteMemCSV(&o.csv, fig, objectOf) },
		func() error { return report.WriteCountersCSV(&o.csv, fig.Folded) },
		func() error { return report.WritePhasesCSV(&o.csv, fig.Folded) },
	} {
		if err := write(); err != nil {
			return err
		}
	}
	tr.end()
	tr.begin("trace.prv")
	err := run.Session.WriteTrace(&o.prv, &o.pcf)
	tr.end()
	return err
}

// checkFigure runs every independent check on one figure unit.
func checkFigure(run *core.HPCGRun, c counts, o *outputs) error {
	p := run.Problem.Params
	if err := checkSolution(p.NX, p.NY, p.NZ, run.Problem.X.Data, run.CG.Residuals, run.CG.FinalError); err != nil {
		return err
	}
	matrix := run.MatrixGroup()
	if matrix == nil {
		return fmt.Errorf("no matrix object in the registry")
	}
	got, err := readPRV(o.prv.Bytes(), matrix.Range.Lo, matrix.Range.Hi)
	if err != nil {
		return err
	}
	if err := checkSampleCount(got, c.Samples); err != nil {
		return err
	}
	if err := checkMatrixReadOnly(got); err != nil {
		return err
	}
	labels := make([]string, len(run.Paper))
	for i, pp := range run.Paper {
		labels[i] = pp.Label
	}
	if err := checkPaperLetters(labels); err != nil {
		return err
	}
	return checkFired(c.Loads, c.Stores, figurePeriod, c.Fired)
}
