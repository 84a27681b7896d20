// Command hpcgrepro is the one-shot reproduction of the paper's evaluation
// (Section III): it generates the HPCG problem, runs the CG solve under the
// monitoring stack (PEBS memory sampling + allocation instrumentation),
// folds the CG iteration region and prints the three panels of Figure 1,
// the detected phase table with the in-text bandwidth comparison, and the
// data-object accounting. CSV series for external plotting are written to
// an output directory when requested.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"repro/internal/atomicio"
	"repro/internal/core"
	"repro/internal/hpcg"
	"repro/internal/machspec"
	"repro/internal/numa"
	"repro/internal/pebs"
	"repro/internal/profiling"
	"repro/internal/report"
)

func main() {
	var (
		nx         = flag.Int("nx", 32, "local box dimension (nx=ny=nz; paper used 104)")
		levels     = flag.Int("mg-levels", 4, "multigrid levels")
		iters      = flag.Int("iters", 8, "CG iterations to fold over")
		threads    = flag.Int("threads", 1, "simulated hardware threads (OpenMP-style row partitioning, shared L3, one trace stream and folded analysis per thread)")
		sockets    = flag.Int("sockets", 0, "simulated sockets: >0 builds a NUMA machine (threads grouped into socket blocks, one shared L3 and memory node per socket, remote fills charged the interconnect penalty); 0 keeps the flat single-L3 machine")
		placement  = flag.String("placement", "", "NUMA page placement policy: first-touch (default) or interleave (requires a NUMA topology from -sockets or -machine)")
		remoteLat  = flag.Uint64("remote-latency", 0, "remote-socket DRAM fill latency in cycles (0 = default 370; requires >= 2 sockets)")
		machine    = flag.String("machine", "", "machine spec: a named hierarchy or a spec .json file; replaces the default cache hierarchy and NUMA topology (-sockets/-placement/-remote-latency still apply on top)")
		period     = flag.Uint64("period", 1000, "PEBS sampling period (memory ops per sample)")
		muxNs      = flag.Uint64("mux-ns", 1_000_000, "load/store multiplexing quantum in ns (0 = sample both always)")
		outDir     = flag.String("out", "", "directory for CSV series and trace files (optional)")
		timeout    = flag.Duration("timeout", 0, "abort the run after this wall-clock duration (0 = no limit); an aborted run exits non-zero")
		noGroups   = flag.Bool("no-grouping", false, "disable allocation grouping (reproduces the paper's failed preliminary analysis)")
		paper      = flag.Bool("paper", false, "paper-scale mode: 104^3 box, 4 MG levels (overrides -nx and -mg-levels; long run)")
		refPath    = flag.Bool("reference", false, "use the per-op reference simulation path instead of the fast path (validation/debug)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (perf work: profile real scenario runs, not just microbenchmarks)")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	flag.Parse()
	if *paper {
		*nx = 104
		*levels = 4
	}
	stopProfiles, err := profiling.Start("hpcgrepro", *cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()

	cfg, err := machineConfig(*machine, *sockets, *placement, *remoteLat)
	if err != nil {
		fatal(err)
	}
	cfg.Reference = *refPath
	cfg.Monitor.PEBS.Period = *period
	cfg.Monitor.MuxQuantumNs = *muxNs
	if *muxNs == 0 {
		cfg.Monitor.PEBS.Events = pebs.SampleLoads | pebs.SampleStores
	}
	if *noGroups {
		// An absurdly high threshold distinguishes "tracked" from "grouped":
		// with grouping disabled, the per-row allocations stay below the
		// threshold and are simply lost, as in the preliminary analysis.
		cfg.Monitor.MinTrackSize = 1 << 20
	}
	params := hpcg.Params{NX: *nx, NY: *nx, NZ: *nx, MGLevels: *levels, MaxIters: *iters}
	if *noGroups {
		fmt.Println("note: running with allocation grouping effectively disabled")
	}
	fmt.Printf("HPCG %d^3, %d MG levels, %d iterations, %d threads, PEBS period %d, mux %d ns\n",
		*nx, *levels, *iters, *threads, *period, *muxNs)
	if cfg.NUMA.Sockets > 0 {
		fmt.Printf("NUMA: %d sockets, %s placement\n", cfg.NUMA.Sockets, cfg.NUMA.Policy)
	}

	// The -timeout clock starts here, at run dispatch: profile setup,
	// machine-spec loading and config validation must not eat the solve's
	// budget.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ctx, stopSignals := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if *threads > 1 || cfg.NUMA.Sockets > 0 {
		// NUMA runs always take the per-thread report, which carries the
		// per-socket traffic section; with one thread both drivers run
		// the same one-worker team solve.
		runParallel(ctx, cfg, params, *threads, *outDir)
		return
	}

	run, err := core.RunHPCGCheckpointed(ctx, cfg, params, nil)
	if err != nil {
		fatalRun(err, *outDir)
	}

	fmt.Printf("\nCG finished: %d iterations, final residual %.3e, |x - xexact| = %.3e\n",
		run.CG.Iterations, run.CG.Residuals[len(run.CG.Residuals)-1], run.CG.FinalError)

	fig := run.Figure1()
	if err := fig.Render(os.Stdout); err != nil {
		fatal(err)
	}

	fmt.Printf("\n== Paper comparison (in-text numbers) ==\n")
	fmt.Printf("%-6s %-10s %14s    %s\n", "phase", "direction", "measured MB/s", "paper (104^3, Jureca)")
	paperBW := map[string]string{"a1": "4197", "a2": "4315", "B": "6427"}
	for _, row := range run.BandwidthTable() {
		ref := paperBW[row.Label]
		if ref == "" {
			ref = "-"
		}
		fmt.Printf("%-6s %-10s %14.0f    %s\n", row.Label, row.Direction, row.MBps, ref)
	}
	fmt.Printf("mean IPC: %.2f (paper: ~0.6 at nominal frequency)\n", run.Folded.MeanIPC())
	reg := run.Session.Mon.Registry()
	fmt.Printf("sample resolution rate: %.1f%% (grouping %s)\n",
		100*reg.ResolutionRate(), map[bool]string{true: "disabled", false: "enabled"}[*noGroups])
	if m, g := run.MatrixGroup(), run.MapGroup(); m != nil && g != nil {
		fmt.Printf("object groups: %s and %s (size ratio %.2f; paper 617/89 = 6.93)\n",
			m.Label(), g.Label(), float64(m.Bytes)/float64(g.Bytes))
	}

	if *outDir != "" {
		if err := writeOutputs(*outDir, run, fig); err != nil {
			failOutputs(*outDir, err)
		}
		fmt.Printf("\nCSV series and trace written to %s\n", *outDir)
	}
}

// machineConfig assembles the simulated machine: the -machine spec (when
// given) replaces the default cache hierarchy and NUMA topology, and the
// explicit -sockets/-placement/-remote-latency flags apply on top of it.
// Topology validation goes through machspec.ValidateTopology — the single
// shared place simrun, sweep and hpcgrepro reject impossible combinations,
// with one message per mistake instead of a per-command variant.
func machineConfig(machineRef string, sockets int, placement string, remoteLat uint64) (core.Config, error) {
	cfg := core.DefaultConfig()
	if machineRef != "" {
		spec, err := machspec.Resolve(machineRef)
		if err != nil {
			return cfg, err
		}
		cfg.Cache = spec.Memhier()
		cfg.NUMA = spec.NUMA()
	}
	if sockets < 0 {
		return cfg, fmt.Errorf("-sockets must be >= 0")
	}
	if sockets > 0 {
		cfg.NUMA.Sockets = sockets
	}
	if placement != "" {
		policy, err := numa.ParsePolicy(placement)
		if err != nil {
			return cfg, err
		}
		cfg.NUMA.Policy = policy
	}
	if remoteLat != 0 {
		cfg.NUMA.RemoteDRAMLatency = remoteLat
	}
	// Validate the merged topology, not the individual flags: a spec can
	// supply the sockets a -placement needs, and a -sockets 1 override can
	// invalidate a spec's remote latency.
	if err := machspec.ValidateTopology(cfg.NUMA.Sockets, placement, cfg.NUMA.RemoteDRAMLatency); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// runParallel is the multi-threaded reproduction: one simulated core per
// thread with private L1/L2, a shared L3, static row partitioning of
// every kernel, and a separate folded analysis per thread.
func runParallel(ctx context.Context, cfg core.Config, params hpcg.Params, threads int, outDir string) {
	run, err := core.RunHPCGParallel(ctx, cfg, params, threads)
	if err != nil {
		fatalRun(err, outDir)
	}
	fmt.Printf("\nCG finished: %d iterations, final residual %.3e, |x - xexact| = %.3e\n",
		run.CG.Iterations, run.CG.Residuals[len(run.CG.Residuals)-1], run.CG.FinalError)

	fig := run.Figure()
	if err := fig.Render(os.Stdout); err != nil {
		fatal(err)
	}
	reg := run.Machine.Primary().Mon.Registry()
	fmt.Printf("\nsample resolution rate: %.1f%% (shared object registry)\n", 100*reg.ResolutionRate())

	if outDir != "" {
		if err := writeParallelOutputs(outDir, run); err != nil {
			failOutputs(outDir, err)
		}
		fmt.Printf("\nPer-thread CSV series and merged trace written to %s\n", outDir)
	}
}

func writeParallelOutputs(dir string, run *core.MachineHPCGRun) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, tr := range run.Threads {
		tr := tr
		name := fmt.Sprintf("phases_t%d.csv", tr.Thread)
		if err := atomicio.WriteFile(filepath.Join(dir, name), func(w io.Writer) error {
			return report.WritePhasesCSV(w, tr.Folded)
		}); err != nil {
			return err
		}
	}
	// The trace is a PRV/PCF pair: write both atomically so a fault cannot
	// leave a PRV whose labels are missing.
	return atomicio.WriteFiles(
		[]string{filepath.Join(dir, "hpcg.prv"), filepath.Join(dir, "hpcg.pcf")},
		func(ws []io.Writer) error { return run.Machine.WriteTrace(ws[0], ws[1]) })
}

func writeOutputs(dir string, run *core.HPCGRun, fig *report.Figure1) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := map[string]func(io.Writer) error{
		"fig1a_lines.csv": func(w io.Writer) error { return report.WriteLinesCSV(w, fig) },
		"fig1b_mem.csv": func(w io.Writer) error {
			reg := run.Session.Mon.Registry()
			return report.WriteMemCSV(w, fig, func(addr uint64) string {
				if o, ok := reg.Resolve(addr); ok {
					return o.Name
				}
				return ""
			})
		},
		"fig1c_counters.csv": func(w io.Writer) error { return report.WriteCountersCSV(w, fig.Folded) },
		"phases.csv":         func(w io.Writer) error { return report.WritePhasesCSV(w, fig.Folded) },
	}
	for name, write := range files {
		if err := atomicio.WriteFile(filepath.Join(dir, name), write); err != nil {
			return err
		}
	}
	return atomicio.WriteFiles(
		[]string{filepath.Join(dir, "hpcg.prv"), filepath.Join(dir, "hpcg.pcf")},
		func(ws []io.Writer) error { return run.Session.WriteTrace(ws[0], ws[1]) })
}

// fatalRun reports a failed or aborted solve. A clean instance-boundary
// stop (timeout, signal) is distinguished from a hard failure, and a
// pre-existing output directory is suffixed .partial so downstream tooling
// never mistakes it for a complete artifact set.
func fatalRun(err error, outDir string) {
	var rerr *core.RunError
	if errors.As(err, &rerr) {
		fmt.Fprintf(os.Stderr, "hpcgrepro: run aborted: %v\n", rerr)
	} else {
		fmt.Fprintln(os.Stderr, "hpcgrepro:", err)
	}
	markPartialDir(outDir)
	os.Exit(1)
}

// failOutputs handles a mid-write failure of the output directory.
func failOutputs(dir string, err error) {
	fmt.Fprintln(os.Stderr, "hpcgrepro:", err)
	markPartialDir(dir)
	os.Exit(1)
}

func markPartialDir(dir string) {
	if dir == "" {
		return
	}
	if _, err := os.Stat(dir); err != nil {
		return
	}
	if err := os.Rename(dir, dir+".partial"); err == nil {
		fmt.Fprintf(os.Stderr, "hpcgrepro: incomplete outputs moved to %s.partial\n", dir)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hpcgrepro:", err)
	os.Exit(1)
}
