// Multiplexing: demonstrates why the paper multiplexes load and store PEBS
// events inside a single run. The alternative — one run sampling loads,
// another sampling stores — cannot be overlaid, because address-space
// layout randomization (ASLR) shifts the heap between runs and the two
// address axes no longer line up (the paper's footnote 1).
//
// The example runs STREAM three ways and compares the store band's
// position:
//
//  1. run A sampling loads only (one ASLR draw),
//  2. run B sampling stores only (a different ASLR draw),
//  3. run C multiplexing both in one run.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/pebs"
	"repro/internal/workloads"
)

// addrSpan returns the [min, max] sampled address of the run's folded
// region, filtered by access kind.
func addrSpan(res *core.MachineWorkloadResult, stores bool) (lo, hi uint64, n int) {
	for _, mp := range res.Threads[0].Folded.Mem {
		if mp.Store != stores {
			continue
		}
		if n == 0 || mp.Addr < lo {
			lo = mp.Addr
		}
		if mp.Addr > hi {
			hi = mp.Addr
		}
		n++
	}
	return lo, hi, n
}

func runStream(aslrSeed int64, events pebs.EventMask, muxNs uint64) *core.MachineWorkloadResult {
	cfg := core.DefaultConfig()
	cfg.ASLRSeed = aslrSeed
	cfg.Monitor.MuxQuantumNs = muxNs
	if muxNs == 0 {
		cfg.Monitor.PEBS.Events = events
	}
	cfg.Monitor.PEBS.Period = 300
	res, err := core.RunWorkload(context.Background(), cfg, workloads.NewStream(1<<16), 12, 1, nil)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	// Two independent runs, as one would do without multiplexing. Each
	// process gets its own ASLR draw.
	runLoads := runStream(1001, pebs.SampleLoads, 0)
	runStores := runStream(2002, pebs.SampleStores, 0)

	lLo, lHi, ln := addrSpan(runLoads, false)
	sLo, sHi, sn := addrSpan(runStores, true)
	fmt.Println("two-run approach (ASLR randomizes each run):")
	fmt.Printf("  run A loads:  %d samples in [%#x, %#x]\n", ln, lLo, lHi)
	fmt.Printf("  run B stores: %d samples in [%#x, %#x]\n", sn, sLo, sHi)
	shift := int64(sLo) - int64(lLo)
	fmt.Printf("  heap shift between runs: %d MiB — the two address axes cannot be overlaid\n\n",
		shift/(1<<20))

	// One multiplexed run: loads and stores alternate on a 50 µs quantum,
	// sharing a single address space.
	muxRun := runStream(3003, pebs.SampleLoads, 50_000)
	mlLo, mlHi, mln := addrSpan(muxRun, false)
	msLo, msHi, msn := addrSpan(muxRun, true)
	fmt.Println("multiplexed single run (the paper's approach):")
	fmt.Printf("  loads:  %d samples in [%#x, %#x]\n", mln, mlLo, mlHi)
	fmt.Printf("  stores: %d samples in [%#x, %#x]\n", msn, msLo, msHi)
	if msn == 0 || mln == 0 {
		log.Fatal("multiplexing failed to capture both classes")
	}
	// In STREAM, the store band (array a) sits below the load bands (b, c)
	// in one coherent address space: the store span must overlap or adjoin
	// the load span's array layout.
	fmt.Printf("  store band offset from load band: %d KiB within one address space\n",
		(int64(mlLo)-int64(msLo))/(1<<10))
	fmt.Println("\nconclusion: one multiplexed run yields load AND store samples on a")
	fmt.Println("single consistent address axis; two runs do not, because of ASLR.")
}
