package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cpu"
	"repro/internal/extrae"
	"repro/internal/workloads"
)

// runWorkload is a synthetic workload that emits a seeded random sequence
// of LineRun batches — strides from sub-element to multi-line, mixed
// loads/stores/dependent runs, interleaved compute — so the end-to-end
// fast-vs-reference equivalence covers the whole line-run pipeline under
// the real monitor: randomized PEBS countdowns, the latency threshold and
// load/store multiplexing quanta all split runs at arbitrary phases.
type runWorkload struct {
	Seed  int64
	N     int // runs per iteration
	Words int // buffer size in 8-byte words

	region extrae.Region
	base   uint64
	ip     uint64
}

func (w *runWorkload) Name() string          { return "line_run_property" }
func (w *runWorkload) Region() extrae.Region { return w.region }
func (w *runWorkload) Elements() int         { return 1 }
func (w *runWorkload) Setup(ctx *workloads.Ctx) error {
	fn, err := ctx.Bin.AddFunction("line_run_property", "runs.c", 90, 4)
	if err != nil {
		return err
	}
	if w.ip, err = fn.IPForLine(92); err != nil {
		return err
	}
	w.region = ctx.Mon.RegisterRegion("line_run_property")
	if w.base, err = ctx.Mon.Alloc(uint64(w.Words) * 8); err != nil {
		return err
	}
	return nil
}

// RunPartitionRange draws every window's runs from a generator seeded
// afresh, so it is only ever run as one whole window from iteration 0.
func (w *runWorkload) RunPartitionRange(ctx *workloads.Ctx, startIter, endIter, _, _ int) error {
	core := ctx.Core
	rng := rand.New(rand.NewSource(w.Seed))
	strides := []int{1, 3, 4, 8, 12, 16, 56, 64, 72, 128}
	var runs [4]cpu.LineRun
	for it := startIter; it < endIter; it++ {
		ctx.Mon.EnterRegion(w.region)
		for r := 0; r < w.N; r++ {
			nb := 1 + rng.Intn(len(runs))
			for b := 0; b < nb; b++ {
				stride := strides[rng.Intn(len(strides))]
				count := 1 + rng.Intn(60)
				maxBase := w.Words*8 - stride*count - 8
				runs[b] = cpu.LineRun{
					IP:     w.ip + uint64(b)*4,
					Base:   w.base + uint64(rng.Intn(maxBase)),
					Stride: stride,
					Size:   8,
					Count:  count,
					Store:  rng.Intn(3) == 0,
					Dep:    rng.Intn(4) == 0,
				}
			}
			core.IssueRuns(runs[:nb])
			if rng.Intn(2) == 0 {
				core.Compute(uint64(1 + rng.Intn(20)))
			}
		}
		ctx.Mon.ExitRegion(w.region)
	}
	return nil
}

// TestLineRunPropertyFastVsReference is the end-to-end property test for
// the run splitter: randomized line runs under randomized sampling must
// produce byte-identical traces on the batched and per-op paths.
func TestLineRunPropertyFastVsReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fastCfg, refCfg := comparableConfigs()
			// Vary the gate phases across seeds: period and mux quantum
			// drift so countdown and quantum boundaries land at different
			// offsets inside runs, including exactly on run boundaries.
			fastCfg.Monitor.PEBS.Period = 40 + uint64(seed*13)
			fastCfg.Monitor.PEBS.Seed = seed
			fastCfg.Monitor.MuxQuantumNs = 3_000 + uint64(seed)*501
			refCfg = fastCfg
			refCfg.Reference = true

			mk := func() *runWorkload { return &runWorkload{Seed: seed * 31, N: 120, Words: 1 << 16} }
			fast, fastFolded := sessionRun(t, fastCfg, mk(), 3)
			ref, _ := sessionRun(t, refCfg, mk(), 3)
			assertRunsIdentical(t, fast.MachineThread, ref.MachineThread)
			if len(fastFolded.Mem) == 0 {
				t.Fatal("no folded samples: equivalence test is vacuous")
			}
		})
	}
}
