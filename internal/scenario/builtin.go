package scenario

import (
	"repro/internal/hpcg"
	"repro/internal/workloads"
)

// The built-in scenario matrix. Sizes are chosen so the whole registry —
// run twice per golden test, fast and reference path — stays inside a few
// seconds, while each scenario still exercises a distinct corner: every
// workload, both Machine thread counts, the three named hierarchies, and
// the randomized/multiplexed sampling mode.
func init() {
	// STREAM triad: linear sweeps, batched stream issue.
	mustRegister(Scenario{
		Name:        "stream_triad_1t",
		Description: "STREAM triad, 8K doubles, Haswell hierarchy, 1 thread",
		Hierarchy:   "haswell",
		Threads:     1, Iters: 12, Period: 150,
		Workload: func() workloads.Workload { return workloads.NewStream(1 << 13) },
	})
	mustRegister(Scenario{
		Name:        "stream_triad_4t",
		Description: "STREAM triad, 16K doubles, shared L3, 4 threads (sequential schedule)",
		Hierarchy:   "haswell",
		Threads:     4, Iters: 8, Period: 100,
		Workload: func() workloads.Workload { return workloads.NewStream(1 << 14) },
	})
	mustRegister(Scenario{
		Name:        "stream_triad_smallcache_1t",
		Description: "STREAM triad on the undersized hierarchy: every array spills",
		Hierarchy:   "small",
		Threads:     1, Iters: 10, Period: 150,
		Workload: func() workloads.Workload { return workloads.NewStream(1 << 13) },
	})

	// GUPS random access: DRAM-dominated latencies.
	mustRegister(Scenario{
		Name:        "random_access_1t",
		Description: "GUPS random updates over a 16K-word table, 1 thread",
		Hierarchy:   "haswell",
		Threads:     1, Iters: 6, Period: 120,
		Workload: func() workloads.Workload { return workloads.NewRandomAccess(1<<14, 3000, 11) },
	})
	mustRegister(Scenario{
		Name:        "random_access_2t",
		Description: "GUPS split into two disjoint blocks, shared L3, 2 threads",
		Hierarchy:   "haswell",
		Threads:     2, Iters: 6, Period: 120,
		Workload: func() workloads.Workload { return workloads.NewRandomAccess(1<<14, 3000, 11) },
	})
	mustRegister(Scenario{
		Name:        "random_access_noprefetch_1t",
		Description: "GUPS with the next-line prefetcher disabled",
		Hierarchy:   "noprefetch",
		Threads:     1, Iters: 6, Period: 120,
		Workload: func() workloads.Workload { return workloads.NewRandomAccess(1<<14, 3000, 11) },
	})

	// Pointer chase: dependency-chained loads, full memory latency.
	mustRegister(Scenario{
		Name:        "pointer_chase_1t",
		Description: "pointer chase over a 4K-node Sattolo cycle, 1 thread",
		Hierarchy:   "haswell",
		Threads:     1, Iters: 8, Period: 100,
		Workload: func() workloads.Workload { return workloads.NewPointerChase(1<<12, 5) },
	})
	mustRegister(Scenario{
		Name:        "pointer_chase_2t",
		Description: "pointer chase, two threads walking overlapping stretches of one cycle (read-only)",
		Hierarchy:   "haswell",
		Threads:     2, Iters: 6, Period: 100,
		Workload: func() workloads.Workload { return workloads.NewPointerChase(1<<13, 5) },
	})

	// Dense matmul: cache-friendly A rows, strided B columns.
	mustRegister(Scenario{
		Name:        "matmul_1t",
		Description: "naive 24x24 dense multiply (ijk), 1 thread",
		Hierarchy:   "haswell",
		Threads:     1, Iters: 3, Period: 150,
		Workload: func() workloads.Workload { return workloads.NewMatMul(24) },
	})
	mustRegister(Scenario{
		Name:        "matmul_2t",
		Description: "24x24 dense multiply row-partitioned across 2 threads",
		Hierarchy:   "haswell",
		Threads:     2, Iters: 3, Period: 150,
		Workload: func() workloads.Workload { return workloads.NewMatMul(24) },
	})

	// CSR SpMV (7-point stencil): streamed values/columns + x gather.
	mustRegister(Scenario{
		Name:        "spmv_csr_1t",
		Description: "CSR SpMV of the 7-point stencil on a 16^3 grid, 1 thread",
		Hierarchy:   "haswell",
		Threads:     1, Iters: 4, Period: 150,
		Workload: func() workloads.Workload { return workloads.NewSpMV(16, 16, 16) },
	})
	mustRegister(Scenario{
		Name:        "spmv_csr_4t",
		Description: "CSR SpMV row-partitioned across 4 threads, shared L3",
		Hierarchy:   "haswell",
		Threads:     4, Iters: 4, Period: 120,
		Workload: func() workloads.Workload { return workloads.NewSpMV(16, 16, 16) },
	})

	// NUMA: the 2-socket machine with page placement. STREAM under
	// first-touch (each thread's block lands on its own socket, sequential
	// schedule) vs interleave (pages striped across both nodes, so every
	// thread fills ~half its lines remotely): the pair of goldens must
	// differ in remote-DRAM fill counts — the policy axis, pinned live.
	mustRegister(Scenario{
		Name:        "stream_numa_ft_2s4t",
		Description: "STREAM triad, 16K doubles, 2 sockets x 2 threads, first-touch placement",
		Hierarchy:   "haswell",
		Threads:     4, Iters: 8, Period: 100,
		Sockets: 2, Placement: "first-touch",
		Workload: func() workloads.Workload { return workloads.NewStream(1 << 14) },
	})
	mustRegister(Scenario{
		Name:        "stream_numa_il_2s4t",
		Description: "STREAM triad, 16K doubles, 2 sockets x 2 threads, interleaved pages",
		Hierarchy:   "haswell",
		Threads:     4, Iters: 8, Period: 100,
		Sockets: 2, Placement: "interleave",
		Workload: func() workloads.Workload { return workloads.NewStream(1 << 14) },
	})

	// NUMA HPCG: one worker on socket 0 of a 2-socket machine. Under
	// first-touch the serial problem generation homes everything on socket
	// 0 (all fills local); under interleave half the pages are remote —
	// the classic serial-init placement story, deterministically pinned.
	mustRegister(Scenario{
		Name:        "hpcg_numa_ft_2s1t",
		Description: "HPCG 8^3 on a 2-socket machine, first-touch (serial init homes all pages on socket 0)",
		Hierarchy:   "haswell",
		Threads:     1, Period: 150,
		Sockets: 2, Placement: "first-touch",
		HPCG: &hpcg.Params{NX: 8, NY: 8, NZ: 8, MGLevels: 2, MaxIters: 3},
	})
	mustRegister(Scenario{
		Name:        "hpcg_numa_il_2s1t",
		Description: "HPCG 8^3 on a 2-socket machine, interleaved pages (~half the fills remote)",
		Hierarchy:   "haswell",
		Threads:     1, Period: 150,
		Sockets: 2, Placement: "interleave",
		HPCG: &hpcg.Params{NX: 8, NY: 8, NZ: 8, MGLevels: 2, MaxIters: 3},
	})

	// HPCG: the paper's evaluation at regression scale.
	mustRegister(Scenario{
		Name:        "hpcg_8_1t",
		Description: "HPCG 8^3, 2 MG levels, 3 CG iterations, deterministic sampling",
		Hierarchy:   "haswell",
		Threads:     1, Period: 150,
		HPCG: &hpcg.Params{NX: 8, NY: 8, NZ: 8, MGLevels: 2, MaxIters: 3},
	})
	mustRegister(Scenario{
		Name:        "hpcg_8_mux_1t",
		Description: "HPCG 8^3 with randomized sampling gaps and load/store multiplexing (seeded)",
		Hierarchy:   "haswell",
		Threads:     1, Period: 150,
		MuxQuantumNs: 25_000, Randomize: true, Seed: 7, LatencyThreshold: 3,
		HPCG: &hpcg.Params{NX: 8, NY: 8, NZ: 8, MGLevels: 2, MaxIters: 3},
	})
}
