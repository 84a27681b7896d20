package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/cpu"
	"repro/internal/extrae"
	"repro/internal/folding"
	"repro/internal/hpcg"
	"repro/internal/numa"
)

// outputs holds what one unit writes: the rendered report, the CSV series
// and the PRV/PCF trace. The buffers are reused across units, so after the
// warm-up unit no unit pays for growing them.
type outputs struct {
	report, csv, prv, pcf bytes.Buffer
}

func (o *outputs) reset() {
	o.report.Reset()
	o.csv.Reset()
	o.prv.Reset()
	o.pcf.Reset()
}

// counts is the simulated work of one unit, summed over its threads.
type counts struct {
	Instructions, Loads, Stores, Cycles uint64
	L1Misses, L2Misses, L3Misses        uint64
	Fired, Samples                      uint64
	Records                             uint64
	FoldedSamples, Instances, Phases    uint64
	LocalFills, RemoteFills             uint64
	PRVBytes                            uint64
}

// collect sums the counters of a unit's simulated threads.
func collect(cores []*cpu.Core, mons []*extrae.Monitor, folds []*folding.Folded, pl *numa.Placement, prvBytes int) counts {
	var c counts
	for _, core := range cores {
		pmu := core.PMU().TrueSnapshot()
		c.Instructions += pmu[cpu.CtrInstructions]
		c.Loads += pmu[cpu.CtrLoads]
		c.Stores += pmu[cpu.CtrStores]
		c.Cycles += pmu[cpu.CtrCycles]
		c.L1Misses += pmu[cpu.CtrL1DMiss]
		c.L2Misses += pmu[cpu.CtrL2Miss]
		c.L3Misses += pmu[cpu.CtrL3Miss]
	}
	for _, m := range mons {
		st := m.Engine().Stats()
		c.Fired += st.Fired
		c.Samples += st.Recorded
		c.Records += uint64(len(m.Records()))
	}
	for _, f := range folds {
		c.FoldedSamples += uint64(len(f.Mem))
		c.Instances += uint64(f.InstancesUsed)
		c.Phases += uint64(len(f.Phases))
	}
	if pl != nil {
		for _, st := range pl.Stats() {
			c.LocalFills += st.FillsLocal
			c.RemoteFills += st.FillsRemote
		}
	}
	c.PRVBytes = uint64(prvBytes)
	return c
}

// values fills the simulated-work metrics.
func (c counts) values(v map[string]float64) {
	v["cpu.instructions"] = float64(c.Instructions)
	v["cpu.mem_ops"] = float64(c.Loads + c.Stores)
	v["cpu.cycles"] = float64(c.Cycles)
	v["memhier.l1_misses"] = float64(c.L1Misses)
	v["memhier.l2_misses"] = float64(c.L2Misses)
	v["memhier.l3_misses"] = float64(c.L3Misses)
	v["pebs.samples"] = float64(c.Samples)
	v["extrae.records"] = float64(c.Records)
	v["folding.samples"] = float64(c.FoldedSamples)
	v["folding.instances"] = float64(c.Instances)
	v["folding.phases"] = float64(c.Phases)
	v["numa.local_fills"] = float64(c.LocalFills)
	v["numa.remote_fills"] = float64(c.RemoteFills)
}

// unitResult is what the batch loop keeps of one unit: its counts, a
// digest of everything it produced, and the independent checks, which
// hold the unit's state until they have run.
type unitResult struct {
	counts counts
	digest [32]byte
	// liveHeap is the live heap after the solve (traced units only).
	liveHeap uint64
	check    func(o *outputs) error
}

// digest hashes the unit's outputs and its solution, so later units can
// be checked against the first one cheaply.
func digest(o *outputs, cg *hpcg.CGResult, x []float64) [32]byte {
	h := sha256.New()
	for _, b := range []*bytes.Buffer{&o.report, &o.csv, &o.prv, &o.pcf} {
		h.Write(b.Bytes())
	}
	var w [8]byte
	put := func(v float64) {
		bits := math.Float64bits(v)
		for i := range w {
			w[i] = byte(bits >> (8 * i))
		}
		h.Write(w[:])
	}
	for _, v := range cg.Residuals {
		put(v)
	}
	put(cg.FinalError)
	for _, v := range x {
		put(v)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// batch runs one unit of a workload whose unit is one end-to-end run of
// the program: with a nil tracer through the program's one-shot entry
// point, with a tracer through the same public calls made one at a time
// between spans.
type batch func(ctx context.Context, o *outputs, tr *tracer) (*unitResult, error)

// batchReport is what a batch run measured.
type batchReport struct {
	setup      time.Duration
	units      []time.Duration // untraced units
	traced     []time.Duration // traced units, forced collections left out
	spans      [][]span        // per traced unit
	tracer     *tracer         // every traced unit's spans
	counts     counts
	liveHeap   []float64
	attempted  int
	failed     int
	checkError error
}

// runBatch runs one warm-up unit (part of set-up), then timed units until
// seconds have passed. With traceOn, units alternate traced and untraced,
// starting traced, and at least one of each runs. The first unit that
// completes is checked in full, and every unit must reproduce the warm-up
// unit's digest and counts exactly. A collection before each timed unit,
// outside its time, lets every unit start from the heap a one-shot run
// starts from instead of paying for its predecessor's garbage.
func runBatch(ctx context.Context, w batch, seconds time.Duration, traceOn bool) (*batchReport, error) {
	o := &outputs{}
	warm, err := w(ctx, o, nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up unit: %w", err)
	}
	warm.check = nil
	runtime.GC()
	rep := &batchReport{setup: time.Since(started), counts: warm.counts}
	if traceOn {
		rep.tracer = newTracer()
	}
	checked := false
	loopStart := time.Now()
	for i := 0; time.Since(loopStart) < seconds || (traceOn && i < 2) || i == 0; i++ {
		if i > 0 {
			runtime.GC()
		}
		traced := traceOn && i%2 == 0
		var utr *tracer
		if traced {
			utr = rep.tracer
			utr.startUnit(i + 1)
		}
		t0 := time.Now()
		res, err := w(ctx, o, utr)
		d := time.Since(t0)
		spans := utr.endUnit()
		fmt.Fprintf(os.Stderr, "unit %d (traced %v): %.3f s\n", i+1, traced, d.Seconds())
		rep.attempted++
		if err != nil {
			rep.failed++
			continue
		}
		if traced {
			rep.traced = append(rep.traced, tracedTime(spans))
			rep.spans = append(rep.spans, spans)
			rep.liveHeap = append(rep.liveHeap, float64(res.liveHeap))
		} else {
			rep.units = append(rep.units, d)
		}
		if !checked {
			if err := res.check(o); err != nil {
				rep.checkError = fmt.Errorf("unit %d: %w", i+1, err)
				return rep, nil
			}
			checked = true
		}
		if res.digest != warm.digest || res.counts != warm.counts {
			rep.checkError = fmt.Errorf("unit %d (traced %v): outputs differ from the warm-up unit's", i+1, traced)
			return rep, nil
		}
	}
	return rep, nil
}
