// Hybrid memory & cache what-if: the follow-on analyses the paper's
// introduction motivates. From one monitored HPCG run this example
// computes (a) the reuse-distance profile of the sampled access stream and
// the implied hit-ratio curve across cache sizes ("tuning cache
// organization"), and (b) hybrid-memory placement advice per data object —
// operationalizing the paper's closing observation that the read-only
// matrix region "might benefit from memory technologies where loads are
// faster than stores".
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/hpcg"
	"repro/internal/reuse"
)

func main() {
	cfg := core.DefaultConfig()
	cfg.Monitor.PEBS.Period = 300 // denser samples give a finer reuse profile
	params := hpcg.Params{NX: 16, NY: 16, NZ: 16, MGLevels: 2, MaxIters: 4}
	run, err := core.RunHPCGCheckpointed(context.Background(), cfg, params, nil)
	if err != nil {
		log.Fatal(err)
	}

	// (a) Reuse distances over the folded sample stream.
	an, err := reuse.FromFolded(run.Folded, 64)
	if err != nil {
		log.Fatal(err)
	}
	h := an.Histogram()
	fmt.Printf("reuse-distance profile over %d sampled accesses (%d distinct lines):\n",
		an.Accesses(), an.Lines())
	fmt.Printf("  cold (first touch): %5.1f%%\n", 100*float64(h.Cold)/float64(h.Total))
	for b, c := range h.Buckets {
		if c == 0 {
			continue
		}
		// Bucket 0 holds exactly distance 0; bucket b >= 1 holds
		// [2^(b-1), 2^b) (the bits.Len64 bucketing).
		lo := 0
		if b >= 1 {
			lo = 1 << (b - 1)
		}
		fmt.Printf("  distance [%6d, %6d): %5.1f%%\n", lo, 1<<b,
			100*float64(c)/float64(h.Total))
	}

	fmt.Println("\ncache what-if (hit ratio of an LRU cache by capacity):")
	for _, kb := range []int{16, 32, 64, 256, 1024, 4096} {
		lines := kb * 1024 / 64
		fmt.Printf("  %5d KiB: %5.1f%%\n", kb, 100*h.HitRatio(lines))
	}

	// (b) Hybrid-memory placement advice from the object accounting.
	fmt.Println("\nhybrid-memory placement advice:")
	placements := reuse.Advise(run.Session.Mon.Registry().Objects(), reuse.AdvisorConfig{})
	for i, p := range placements {
		if i >= 8 {
			fmt.Printf("  ... and %d more\n", len(placements)-i)
			break
		}
		fmt.Printf("  %-44s -> %-14s (%s)\n", p.Object.Label(), p.Tier, p.Reason)
	}
}
