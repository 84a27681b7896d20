// Quickstart: monitor a STREAM triad with PEBS memory sampling, fold the
// per-iteration region and print the folded instruction rate and the
// memory-access summary — the smallest end-to-end tour of the library.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/memhier"
	"repro/internal/workloads"
)

func main() {
	// 1. Configure the stack. DefaultConfig gives a Haswell-like core and
	//    cache hierarchy, PEBS sampling with load/store multiplexing, and
	//    the default folding parameters.
	cfg := core.DefaultConfig()
	cfg.Monitor.PEBS.Period = 400 // denser sampling for a short demo

	// 2. Pick a workload: 256 Ki doubles per array (6 MiB total: larger
	//    than L3, so the triad streams from DRAM).
	w := workloads.NewStream(1 << 18)

	// 3. Run it under monitoring on one simulated thread and fold the
	//    iteration region.
	res, err := core.RunWorkload(context.Background(), cfg, w, 20, 1, nil)
	if err != nil {
		log.Fatal(err)
	}
	f := res.Threads[0].Folded

	fmt.Printf("folded %d instances of %q (mean duration %.3f ms)\n",
		f.InstancesUsed, w.Name(), f.MeanDurationNs/1e6)
	fmt.Printf("mean IPC %.2f\n", f.MeanIPC())

	// 4. The folded curves: instruction rate and L1D miss ratio across
	//    normalized time.
	mips := f.MIPS()
	l1 := f.PerInstruction(cpu.CtrL1DMiss)
	fmt.Println("\nsigma    MIPS    L1Dmiss/instr")
	for i := 0; i < len(f.Grid); i += len(f.Grid) / 10 {
		fmt.Printf("%5.2f %7.0f %10.4f\n", f.Grid[i], mips[i], l1[i])
	}

	// 5. The memory perspective: sampled addresses and where the data came
	//    from.
	var srcCount [memhier.NumSources]int
	for _, mp := range f.Mem {
		srcCount[mp.Source]++
	}
	fmt.Printf("\n%d folded memory samples; data sources:\n", len(f.Mem))
	for s := memhier.DataSource(0); s < memhier.NumSources; s++ {
		if s == memhier.SrcDRAMRemote && srcCount[s] == 0 {
			// Remote DRAM only exists on NUMA-routed machines; the flat
			// quickstart session can never produce it.
			continue
		}
		fmt.Printf("  %-5s %6.1f%%\n", s, 100*float64(srcCount[s])/float64(len(f.Mem)))
	}

	// 6. Sanity: the triad math ran for real.
	if w.Value(100) != w.Expected(100) {
		log.Fatalf("triad result wrong: %g != %g", w.Value(100), w.Expected(100))
	}
	fmt.Println("\ntriad verified: a[i] = b[i] + 3*c[i]")
}
