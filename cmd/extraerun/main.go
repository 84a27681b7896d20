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

// defaultSize is the -size default: the per-iteration work of one
// instrumented iteration.
const defaultSize = 1 << 16

func main() {
	var (
		name   = flag.String("workload", "stream", "workload: stream | gups | chase | matmul | spmv")
		size   = flag.Int("size", defaultSize, "per-iteration work: elements / table words / list nodes / spmv rows (grid ⌊∛size⌋³) / matmul multiply-adds (dimension ⌊∛size⌋)")
		iters  = flag.Int("iters", 20, "instrumented iterations")
		period = flag.Uint64("period", 500, "PEBS sampling period")
		muxNs  = flag.Uint64("mux-ns", 0, "load/store multiplexing quantum in ns (0 = both always)")
		out    = flag.String("o", "trace", "output prefix: <prefix>.prv and <prefix>.pcf")
	)
	flag.Parse()

	w, err := newWorkload(*name, *size)
	if err != nil {
		fatal(err)
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

// newWorkload builds the named workload doing about size units of work per
// iteration. The cubic kernels take the cube root: an n×n matmul does n³
// multiply-adds, and the spmv stencil grid is d×d×d rows.
func newWorkload(name string, size int) (workloads.Workload, error) {
	cbrt := int(math.Cbrt(float64(size)))
	switch name {
	case "stream":
		return workloads.NewStream(size), nil
	case "gups":
		return workloads.NewRandomAccess(size, size/4+1, 1), nil
	case "chase":
		return workloads.NewPointerChase(size, 1), nil
	case "matmul":
		return workloads.NewMatMul(cbrt), nil
	case "spmv":
		d := max(cbrt, 2)
		return workloads.NewSpMV(d, d, d), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "extraerun:", err)
	os.Exit(1)
}
