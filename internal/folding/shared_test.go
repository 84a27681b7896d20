package folding

import (
	"math"
	"slices"
	"testing"

	"repro/internal/cpu"
	"repro/internal/stats"
)

// perCounterCurves is the counter fold as it stood before the shared-cloud
// fit: one Smoother.Fit per counter on that counter's own cloud, then the
// monotone pinning and the rate scaling. Fold must reproduce it bit for bit.
func perCounterCurves(t *testing.T, kept []Instance, f *Folded, cfg Config) (cum, rates map[cpu.CounterID][]float64) {
	t.Helper()
	cum = map[cpu.CounterID][]float64{}
	rates = map[cpu.CounterID][]float64{}
	sm := stats.Smoother{Kernel: cfg.Kernel, Bandwidth: cfg.Bandwidth, Lo: 0, Hi: 1}
	for c := cpu.CounterID(0); c < cpu.NumCounters; c++ {
		xs, ys := foldCounter(kept, c, nil, nil)
		if len(xs) == 0 {
			cum[c] = make([]float64, len(f.Grid))
			rates[c] = make([]float64, len(f.Grid))
			continue
		}
		fit, err := sm.Fit(xs, ys, f.Grid)
		if err != nil {
			t.Fatal(err)
		}
		fit = stats.Isotonic(fit)
		stats.Clamp(fit, 0, 1)
		fit[0] = 0
		fit[len(fit)-1] = 1
		cum[c] = fit
		d, err := stats.Derivative(f.Grid, fit)
		if err != nil {
			t.Fatal(err)
		}
		scale := f.MeanTotals[c] / (f.MeanDurationNs / 1e9)
		rate := make([]float64, len(d))
		for i, v := range d {
			if v < 0 {
				v = 0
			}
			rate[i] = v * scale
		}
		rates[c] = rate
	}
	return cum, rates
}

// TestFoldSharedCloudMatchesPerCounterFit folds instances where some
// counters share one sigma cloud and others do not. Instructions and
// branches drop the same sample (its value lies past the instance's total,
// so its fraction is out of range) and share a cloud; cycles drop a
// different sample, so their cloud has the same length but other sigmas;
// L1D misses do not increment in one instance, which then adds no points to
// their cloud. Every counter's Cumulative and Rates curve must be
// bit-identical to the per-counter fit's.
func TestFoldSharedCloudMatchesPerCounterFit(t *testing.T) {
	instances := synthInstances(14)
	for k := range instances {
		in := &instances[k]
		// Per-instance curvature: samples tied in sigma across instances
		// (equal sample counts) carry different fractions, so the order of
		// tied samples shows in the low bits of the fit.
		p := 1 + float64(k%5)/4
		for _, s := range sampleEvents(in) {
			sigma := float64(s.TimeNs-in.T0) / float64(in.DurationNs())
			s.Counters[cpu.CtrCycles] = uint64(math.Pow(sigma, p) * float64(in.C1[cpu.CtrCycles]))
		}
	}
	quiet := &instances[3]
	quiet.C1[cpu.CtrL1DMiss] = quiet.C0[cpu.CtrL1DMiss]
	for _, s := range sampleEvents(quiet) {
		s.Counters[cpu.CtrL1DMiss] = 0
	}
	for _, c := range []cpu.CounterID{cpu.CtrInstructions, cpu.CtrBranches} {
		sampleEvents(&instances[2])[7].Counters[c] = 2 * instances[2].C1[c]
	}
	sampleEvents(&instances[4])[9].Counters[cpu.CtrCycles] = 2 * instances[4].C1[cpu.CtrCycles]

	cfg := DefaultConfig()
	f, err := Fold(instances, cfg)
	if err != nil {
		t.Fatal(err)
	}
	kept := filterOutliers(instances, cfg.OutlierFactor)

	// The input must exercise both paths: at least two counters on the
	// shared cloud and a differing cloud as long as the shared one, which
	// only a comparison of the sigmas themselves tells apart.
	var ref []float64
	var sharing, sameLength int
	for c := cpu.CounterID(0); c < cpu.NumCounters; c++ {
		xs, _ := foldCounter(kept, c, nil, nil)
		switch {
		case len(xs) == 0:
		case ref == nil:
			ref = xs
			sharing++
		case slices.Equal(xs, ref):
			sharing++
		case len(xs) == len(ref):
			sameLength++
		}
	}
	if sharing < 2 || sameLength < 1 {
		t.Fatalf("fixture has %d sharing counters and %d same-length differing clouds, want >= 2 and >= 1", sharing, sameLength)
	}

	cum, rates := perCounterCurves(t, kept, f, cfg)
	for c := cpu.CounterID(0); c < cpu.NumCounters; c++ {
		for name, pair := range map[string][2][]float64{
			"Cumulative": {f.Cumulative[c], cum[c]},
			"Rates":      {f.Rates[c], rates[c]},
		} {
			got, want := pair[0], pair[1]
			if len(got) != len(want) {
				t.Fatalf("%v %s: %d points, want %d", c, name, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%v %s[%d] = %v, per-counter fit %v", c, name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestExtractSamplesCapacityCapped pins the instances' view of the log:
// each instance's Events is a capacity-capped span, so appending to one
// cannot overwrite the log (the instance's exit event, the next instance's
// samples).
func TestExtractSamplesCapacityCapped(t *testing.T) {
	log := logOf(
		regionEv(100, 7, 0),
		sampleEv(150, 0x10),
		regionEv(200, 0, 10),
		regionEv(300, 7, 10),
		sampleEv(350, 0x20),
		regionEv(400, 0, 20),
	)
	ins, err := Extract(log, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 2 || len(ins[0].Events) != 1 || len(ins[0].Events[0]) != 1 || ins[1].NumSamples() != 1 {
		t.Fatalf("extracted %+v", ins)
	}
	_ = append(ins[0].Events[0], sampleEv(160, 0xbad))
	if got := sampleEvents(&ins[1])[0].Addr; got != 0x20 {
		t.Fatalf("second instance's sample overwritten: addr %#x", got)
	}
	if got := log.Flatten()[2]; got != regionEv(200, 0, 10) {
		t.Fatalf("first instance's exit overwritten: %+v", got)
	}
}
