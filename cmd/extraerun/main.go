// Command extraerun runs a named synthetic workload under the monitoring
// stack and writes the resulting trace (PRV text + PCF labels), like
// running an application under Extrae.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/atomicio"
	"repro/internal/core"
	"repro/internal/pebs"
	"repro/internal/workloads"
)

func main() {
	var (
		name   = flag.String("workload", "stream", "workload: stream | gups | chase | matmul | spmv")
		size   = flag.Int("size", 1<<16, "workload size (elements / table words / nodes / matrix dim; spmv rows)")
		iters  = flag.Int("iters", 20, "instrumented iterations")
		period = flag.Uint64("period", 500, "PEBS sampling period")
		muxNs  = flag.Uint64("mux-ns", 0, "load/store multiplexing quantum in ns (0 = both always)")
		out    = flag.String("o", "trace", "output prefix: <prefix>.prv and <prefix>.pcf")
	)
	flag.Parse()

	var w workloads.ResumableWorkload
	switch *name {
	case "stream":
		w = workloads.NewStream(*size)
	case "gups":
		w = workloads.NewRandomAccess(*size, *size/4+1, 1)
	case "chase":
		w = workloads.NewPointerChase(*size, 1)
	case "matmul":
		w = workloads.NewMatMul(*size)
	case "spmv":
		// -size keeps its "elements" meaning: the stencil grid is the cube
		// root, giving ~size matrix rows.
		d := int(math.Cbrt(float64(*size)))
		if d < 2 {
			d = 2
		}
		w = workloads.NewSpMV(d, d, d)
	default:
		fatal(fmt.Errorf("unknown workload %q", *name))
	}

	cfg := core.DefaultConfig()
	cfg.Monitor.PEBS.Period = *period
	cfg.Monitor.MuxQuantumNs = *muxNs
	if *muxNs == 0 {
		cfg.Monitor.PEBS.Events = pebs.SampleLoads | pebs.SampleStores
	}
	res, err := core.RunWorkload(context.Background(), cfg, w, *iters, 1, nil)
	if err != nil {
		fatal(err)
	}
	m := res.Machine
	mon := m.Primary().Mon
	fmt.Printf("%s: %d iterations, %d trace records, %d samples recorded, %.2f%% resolved\n",
		w.Name(), *iters, mon.Log().Len(),
		mon.Engine().Stats().Recorded, 100*mon.Registry().ResolutionRate())

	// PRV and PCF are one artifact: write the pair atomically (temp files +
	// rename) so a crash or full disk never leaves a trace without its
	// labels — or truncated halves of either.
	if err := atomicio.WriteFiles(
		[]string{*out + ".prv", *out + ".pcf"},
		func(ws []io.Writer) error { return m.WriteTrace(ws[0], ws[1]) },
	); err != nil {
		fatal(err)
	}
	fmt.Printf("trace written to %s.prv / %s.pcf (region id %d = %q)\n",
		*out, *out, w.Region(), w.Name())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "extraerun:", err)
	os.Exit(1)
}
