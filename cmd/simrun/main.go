// Command simrun drives the deterministic scenario matrix: list the
// registered scenarios, run one (or all) to its canonical Metrics JSON, and
// refresh the golden regression files. Runs are bit-reproducible — the same
// scenario always produces byte-identical JSON, on both the fast and the
// reference simulation paths — which is what makes the goldens diffable
// regression artifacts.
//
// Usage:
//
//	simrun -list
//	simrun -run stream_triad_4t [-json]
//	simrun -run spmv_csr_1t -threads 4
//	simrun -run all -reference
//	simrun -run stream_triad_4t -machine examples/sweeps/haswell_2s.json
//	simrun -run stream_triad_4t -checkpoint-every 4 -checkpoint ck.bin
//	simrun -run stream_triad_4t -resume ck.bin
//	simrun -update-golden [-golden internal/scenario/testdata/golden]
//
// Golden diffs produced by -update-golden must be justified in the PR that
// carries them: a changed golden is a changed simulation result.
//
// Fault tolerance: -timeout (or SIGINT/SIGTERM) stops the run at the next
// instance boundary with partial, clearly-marked metrics and a non-zero
// exit. -checkpoint-every N atomically rewrites the snapshot file every N
// instances; -resume continues a killed run from it, reproducing the
// uninterrupted result bit for bit on the deterministic paths.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/atomicio"
	"repro/internal/checkpoint"
	"repro/internal/machspec"
	"repro/internal/numa"
	"repro/internal/profiling"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list the registered scenarios and exit")
		run        = flag.String("run", "", "scenario to run (a registered name, or 'all')")
		threads    = flag.Int("threads", 0, "override the scenario's thread count (0 = scenario default)")
		sockets    = flag.Int("sockets", 0, "override the scenario's socket count: route the run through a NUMA machine (0 = scenario default)")
		placement  = flag.String("placement", "", "override the NUMA page placement policy (first-touch or interleave; the scenario or -sockets must provide a NUMA topology)")
		machine    = flag.String("machine", "", "machine spec: a named hierarchy or a spec .json file; replaces the scenario's hierarchy and NUMA topology (-sockets/-placement still apply on top)")
		reference  = flag.Bool("reference", false, "use the per-op reference simulation path (must produce identical metrics)")
		jsonOut    = flag.Bool("json", false, "print the full canonical Metrics JSON instead of the summary line")
		progress   = flag.Bool("progress", false, "live progress line on stderr (sampled at instance boundaries; never changes the metrics)")
		update     = flag.Bool("update-golden", false, "rewrite the golden metrics files for every scenario")
		golden     = flag.String("golden", filepath.Join("internal", "scenario", "testdata", "golden"), "golden directory used by -update-golden")
		timeout    = flag.Duration("timeout", 0, "abort the run at the next instance boundary after this duration (0 = no limit); partial metrics are marked and the exit status is non-zero")
		ckEvery    = flag.Int("checkpoint-every", 0, "snapshot the full simulation state every N completed instances (requires -checkpoint; single-scenario runs only)")
		ckPath     = flag.String("checkpoint", "", "checkpoint file, atomically rewritten at every snapshot (latest wins)")
		resumePath = flag.String("resume", "", "resume from this checkpoint file instead of starting from instance 0")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (perf work: profile real scenario runs, not just microbenchmarks)")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	flag.Parse()
	stopProfiles, err := profiling.Start("simrun", *cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()

	switch {
	case *list:
		listScenarios()
	case *update:
		// Goldens are canonical: always the fast path at the scenarios' own
		// thread counts, and always amd64 (FMA fusion elsewhere perturbs the
		// float64 reductions, and amd64 CI would reject the files).
		if err := goldenOverrideError(*reference, *threads, *sockets, *placement, *machine); err != nil {
			fatal(err)
		}
		if runtime.GOARCH != "amd64" {
			fatal(fmt.Errorf("refusing to regenerate goldens on %s: they must be amd64-generated", runtime.GOARCH))
		}
		if err := updateGoldens(*golden); err != nil {
			fatal(err)
		}
	case *run != "":
		if *threads < 0 || *sockets < 0 {
			fatal(fmt.Errorf("-threads/-sockets must be >= 0"))
		}
		opts := scenario.Options{
			Reference: *reference,
			Threads:   *threads,
			Sockets:   *sockets,
			Placement: *placement,
		}
		if *machine != "" {
			spec, err := machspec.Resolve(*machine)
			if err != nil {
				fatal(err)
			}
			opts.Machine = spec
		}
		if err := setupCheckpointing(&opts, *run, *ckEvery, *ckPath, *resumePath); err != nil {
			fatal(err)
		}
		// The -timeout clock starts here, at run dispatch: machine-spec
		// loading and the checkpoint-resume read above must not eat the
		// simulation's budget (a slow resume read would otherwise consume
		// the whole allowance before the first instance runs).
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		ctx, stopSignals := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stopSignals()
		opts.Context = ctx
		if err := runScenarios(*run, opts, *jsonOut, *progress); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// goldenOverrideError rejects -update-golden combined with any flag that
// would change the simulated runs away from the canonical golden identity.
func goldenOverrideError(reference bool, threads, sockets int, placement, machine string) error {
	if reference || threads != 0 || sockets != 0 || placement != "" || machine != "" {
		return fmt.Errorf("-update-golden ignores -reference/-threads/-sockets/-placement/-machine; drop them (goldens pin the fast path at scenario topology)")
	}
	return nil
}

// setupCheckpointing validates the checkpoint/resume flag combinations and
// wires the snapshot sink (atomic rewrite of the checkpoint file) and the
// resume source into the scenario options.
func setupCheckpointing(opts *scenario.Options, run string, every int, ckPath, resumePath string) error {
	if every < 0 {
		return fmt.Errorf("-checkpoint-every must be >= 0")
	}
	if every > 0 && ckPath == "" {
		return fmt.Errorf("-checkpoint-every requires -checkpoint <file>")
	}
	if ckPath != "" && every == 0 {
		return fmt.Errorf("-checkpoint requires -checkpoint-every N")
	}
	if (every > 0 || resumePath != "") && run == "all" {
		return fmt.Errorf("checkpoint/resume applies to a single scenario, not -run all")
	}
	if every > 0 {
		opts.CheckpointEvery = every
		opts.CheckpointSink = func(snap *checkpoint.Snapshot) error {
			return atomicio.WriteFile(ckPath, func(w io.Writer) error {
				return checkpoint.Write(w, snap)
			})
		}
	}
	if resumePath != "" {
		f, err := os.Open(resumePath)
		if err != nil {
			return err
		}
		defer f.Close()
		snap, err := checkpoint.Read(f)
		if err != nil {
			return fmt.Errorf("%s: %w", resumePath, err)
		}
		opts.Resume = snap
	}
	return nil
}

func listScenarios() {
	all := scenario.All()
	fmt.Printf("%d registered scenarios:\n", len(all))
	for _, sc := range all {
		kind := "workload"
		if sc.HPCG != nil {
			kind = "hpcg"
		}
		topo := fmt.Sprintf("threads=%d", sc.Threads)
		if sc.Sockets > 0 {
			// Render the effective policy (Register validated the string;
			// the empty spelling defaults to first-touch).
			policy, _ := numa.ParsePolicy(sc.Placement)
			topo = fmt.Sprintf("threads=%d sockets=%d/%s", sc.Threads, sc.Sockets, policy)
		}
		fmt.Printf("  %-28s %-8s %-32s hierarchy=%-10s %s\n",
			sc.Name, kind, topo, sc.Hierarchy, sc.Description)
	}
}

func runScenarios(name string, opts scenario.Options, jsonOut, progress bool) error {
	var scs []scenario.Scenario
	if name == "all" {
		scs = scenario.All()
	} else {
		sc, ok := scenario.Get(name)
		if !ok {
			return fmt.Errorf("unknown scenario %q (try -list)", name)
		}
		scs = []scenario.Scenario{sc}
	}
	for _, sc := range scs {
		if name == "all" {
			// An override that cannot apply to one scenario (placement on a
			// flat machine, threads on HPCG) skips that scenario with a
			// notice rather than aborting the rest of the matrix.
			if reason := scenario.SkipReason(sc, opts); reason != "" {
				fmt.Printf("%-28s skipped (%s)\n", sc.Name, reason)
				continue
			}
		}
		stopProgress := func() {}
		if progress {
			var p telemetry.Progress
			opts.Progress = &p
			stopProgress = startProgress(sc.Name, &p)
		}
		m, err := scenario.Run(sc, opts)
		stopProgress()
		if err != nil {
			if m != nil && m.Partial {
				// A clean instance-boundary stop (timeout, signal, injected
				// fault): emit the clearly-marked partial metrics, then fail
				// so callers never mistake the run for a complete one.
				emit(m, jsonOut)
				return fmt.Errorf("%s: partial run (stopped at %s): %w", sc.Name, m.FaultCursor, err)
			}
			return fmt.Errorf("%s: %w", sc.Name, err)
		}
		if err := emit(m, jsonOut); err != nil {
			return err
		}
	}
	return nil
}

// startProgress follows a run's telemetry mailbox with a ticker, repainting
// one stderr line in place. The mailbox is pull-based: the simulation
// publishes at instance boundaries and this goroutine samples it — the run
// itself never blocks on, or even notices, the display. On a non-terminal
// stderr the intermediate repaints are skipped and only the final line is
// printed.
func startProgress(name string, p *telemetry.Progress) (stop func()) {
	tty := false
	if fi, err := os.Stderr.Stat(); err == nil {
		tty = fi.Mode()&os.ModeCharDevice != 0
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	//repro:spawn-ok display ticker; stop() joins it before the run returns
	go func() {
		defer close(finished)
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if tty {
					fmt.Fprint(os.Stderr, "\r"+progressLine(name, p.Snapshot()))
				}
			}
		}
	}()
	return func() {
		close(done)
		<-finished
		if tty {
			fmt.Fprint(os.Stderr, "\r")
		}
		fmt.Fprintln(os.Stderr, progressLine(name, p.Snapshot()))
	}
}

// progressLine renders one progress sample.
func progressLine(name string, s telemetry.ProgressSnapshot) string {
	pct := ""
	if v := s.Percent(); v >= 0 {
		pct = fmt.Sprintf(" (%3.0f%%)", v)
	}
	return fmt.Sprintf("%s: %d/%d instances%s, %d cycles, %d instructions",
		name, s.InstancesDone, s.InstancesTotal, pct, s.Cycles, s.Instructions)
}

func emit(m *scenario.Metrics, jsonOut bool) error {
	if jsonOut {
		b, err := m.JSON()
		if err != nil {
			return err
		}
		os.Stdout.Write(b)
		return nil
	}
	printSummary(m)
	return nil
}

func printSummary(m *scenario.Metrics) {
	if m.Partial {
		fmt.Printf("%-28s PARTIAL (stopped at %s: %s)\n", m.Scenario, m.FaultCursor, m.Fault)
		if len(m.PerThread) == 0 {
			return
		}
	}
	t0 := m.PerThread[0]
	fmt.Printf("%-28s %-12s threads=%d instr=%d cycles=%d dram=%d samples=%d phases=%d\n",
		m.Scenario, m.Workload, m.Threads,
		t0.Instructions, t0.Cycles, t0.DRAMFills, t0.FoldedSamples, len(t0.Phases))
	for _, tm := range m.PerThread {
		llc := tm.Levels[len(tm.Levels)-1]
		numaCol := ""
		if tm.RemoteDRAMFills != nil {
			numaCol = fmt.Sprintf(" remote=%d", *tm.RemoteDRAMFills)
		}
		fmt.Printf("  t%-2d instances=%d/%d ipc=%.3f mips[0]=%.0f L1=%.3f LLC=%.3f dram=%d%s samples=%d\n",
			tm.Thread, tm.InstancesUsed, tm.InstancesTotal, tm.MeanIPC,
			firstMIPS(tm), tm.Levels[0].MissRatio, llc.MissRatio, tm.DRAMFills, numaCol, tm.FoldedSamples)
	}
	if m.NUMA != nil {
		for _, n := range m.NUMA.Nodes {
			fmt.Printf("  node%-2d fills local=%d remote=%d writebacks=%d pages=%d\n",
				n.Node, n.FillsLocal, n.FillsRemote, n.Writebacks, n.Pages)
		}
	}
	if m.CG != nil {
		fmt.Printf("  cg iterations=%d final_residual=%.3e final_error=%.3e\n",
			m.CG.Iterations, m.CG.FinalResidual, m.CG.FinalError)
	}
}

func firstMIPS(tm scenario.ThreadMetrics) float64 {
	if len(tm.Phases) == 0 {
		return 0
	}
	return tm.Phases[0].MIPSMean
}

func updateGoldens(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, sc := range scenario.All() {
		m, err := scenario.Run(sc, scenario.Options{})
		if err != nil {
			return fmt.Errorf("%s: %w", sc.Name, err)
		}
		b, err := m.JSON()
		if err != nil {
			return err
		}
		path := filepath.Join(dir, sc.Name+".json")
		if err := atomicio.WriteFile(path, func(w io.Writer) error {
			_, err := w.Write(b)
			return err
		}); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d bytes)\n", path, len(b))
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simrun:", err)
	os.Exit(1)
}
