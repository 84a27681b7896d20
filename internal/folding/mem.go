package folding

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cpu"
	"repro/internal/stats"
)

// SweepDir classifies the address-space traversal direction of a phase.
type SweepDir int

const (
	// SweepFlat means no clear linear trend in the referenced addresses.
	SweepFlat SweepDir = iota
	// SweepForward means addresses grow over the phase (the paper's
	// "forward sweep", lower to upper addresses).
	SweepForward
	// SweepBackward means addresses shrink over the phase ("backward
	// sweep").
	SweepBackward
)

func (d SweepDir) String() string {
	switch d {
	case SweepFlat:
		return "flat"
	case SweepForward:
		return "forward"
	case SweepBackward:
		return "backward"
	}
	return fmt.Sprintf("SweepDir(%d)", int(d))
}

// Phase is one detected computation phase of the folded region: a segment
// of normalized time dominated by one code location, optionally split into
// sweep sub-phases (the paper's a1/a2 forward/backward halves of SYMGS).
type Phase struct {
	// Name is assigned by LabelPhases ("" until then).
	Name string
	// Lo and Hi delimit the phase on the normalized time axis.
	Lo, Hi float64
	// DominantIP is the median sampled instruction pointer of the phase.
	DominantIP uint64
	// Direction is the address sweep direction.
	Direction SweepDir
	// AddrLo and AddrHi are the 5th and 95th percentiles of the sampled
	// addresses (a robust traversal span).
	AddrLo, AddrHi uint64
	// Loads and Stores count the folded samples in the phase.
	Loads, Stores int
	// DurationNs is the phase share of the mean instance duration.
	DurationNs float64
	// MIPSMean is the mean folded instruction rate over the phase, in
	// millions of instructions per second.
	MIPSMean float64
	// PerInstr holds mean per-instruction ratios over the phase for the
	// miss and branch counters.
	PerInstr map[cpu.CounterID]float64
	// SpanBandwidth estimates the traversal bandwidth in bytes/second as
	// address span / phase duration — the paper's "approximation for the
	// memory bandwidth while traversing the structure".
	SpanBandwidth float64
}

// samplesIn returns the folded memory samples with Sigma in [lo, hi).
func samplesIn(mem []MemPoint, lo, hi float64) []MemPoint {
	i := sort.Search(len(mem), func(i int) bool { return mem[i].Sigma >= lo })
	j := sort.Search(len(mem), func(i int) bool { return mem[i].Sigma >= hi })
	return mem[i:j]
}

// detectPhases segments the folded region. The primary signal is the
// sampled instruction pointer over normalized time (distinct code regions
// occupy distinct IP ranges); phases are then split at address-sweep
// reversals, which separates the forward and backward halves of symmetric
// Gauss–Seidel even though both halves execute the same code.
func detectPhases(f *Folded, cfg Config) []Phase {
	if len(f.Lines) == 0 {
		return nil
	}
	// Median IP per grid cell.
	n := cfg.GridPoints
	xs := make([]float64, 0, n)
	ys := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		lo := float64(i) / float64(n)
		hi := float64(i+1) / float64(n)
		cell := linesIn(f.Lines, lo, hi)
		if len(cell) == 0 {
			continue
		}
		ips := make([]float64, len(cell))
		for k, lp := range cell {
			ips[k] = float64(lp.IP)
		}
		xs = append(xs, (lo+hi)/2)
		ys = append(ys, stats.Quantile(ips, 0.5))
	}
	if len(xs) == 0 {
		return nil
	}
	segs := stats.SegmentByThreshold(xs, ys, cfg.PhaseTol)
	segs = stats.MergeShortSegments(segs, cfg.MinPhaseWidth)
	// Extend the first and last segments to the domain edges.
	segs[0].Lo = 0
	segs[len(segs)-1].Hi = 1

	var phases []Phase
	for _, seg := range segs {
		phases = append(phases, f.splitSweeps(seg.Lo, seg.Hi, cfg)...)
	}
	for i := range phases {
		f.finishPhase(&phases[i])
	}
	return f.mergeSliverPhases(phases, cfg)
}

// mergeSliverPhases absorbs narrow transition slivers into an adjacent
// phase of the same code region (dominant IPs within one function's
// range). Phase boundaries land a little off the true transition when the
// segmenter's cells straddle it; the slivers this produces would otherwise
// surface as spurious paper phases with nonsense bandwidths.
func (f *Folded) mergeSliverPhases(phases []Phase, cfg Config) []Phase {
	const sameFuncIPRange = 16 * 16 // fallback: IPs within 16 source lines
	narrow := func(p *Phase) bool { return p.Hi-p.Lo < 2*cfg.MinPhaseWidth }
	sameFunc := func(a, b *Phase) bool {
		if cfg.FuncOf != nil {
			fa, fb := cfg.FuncOf(a.DominantIP), cfg.FuncOf(b.DominantIP)
			return fa != "" && fa == fb
		}
		d := int64(a.DominantIP) - int64(b.DominantIP)
		if d < 0 {
			d = -d
		}
		return d < sameFuncIPRange
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(phases); i++ {
			p := &phases[i]
			if !narrow(p) {
				continue
			}
			var into int
			switch {
			case i > 0 && sameFunc(p, &phases[i-1]) && !narrow(&phases[i-1]):
				into = i - 1
			case i+1 < len(phases) && sameFunc(p, &phases[i+1]) && !narrow(&phases[i+1]):
				into = i + 1
			default:
				continue
			}
			merged := Phase{Lo: minf(p.Lo, phases[into].Lo), Hi: maxf(p.Hi, phases[into].Hi)}
			f.finishPhase(&merged)
			phases[into] = merged
			phases = append(phases[:i], phases[i+1:]...)
			changed = true
			break
		}
	}
	return phases
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func linesIn(lines []LinePoint, lo, hi float64) []LinePoint {
	i := sort.Search(len(lines), func(i int) bool { return lines[i].Sigma >= lo })
	j := sort.Search(len(lines), func(i int) bool { return lines[i].Sigma >= hi })
	return lines[i:j]
}

// splitSweeps splits [lo, hi) at a persistent address-trend reversal,
// producing one or two phases. At most one split is attempted, which
// matches the fwd+bwd structure of symmetric sweeps.
func (f *Folded) splitSweeps(lo, hi float64, cfg Config) []Phase {
	mem := samplesIn(f.Mem, lo, hi)
	if len(mem) < 8 {
		return []Phase{{Lo: lo, Hi: hi}}
	}
	// Median address per sub-cell.
	const cells = 24
	medians := make([]float64, 0, cells)
	centers := make([]float64, 0, cells)
	for i := 0; i < cells; i++ {
		clo := lo + (hi-lo)*float64(i)/cells
		chi := lo + (hi-lo)*float64(i+1)/cells
		cell := samplesIn(mem, clo, chi)
		if len(cell) == 0 {
			continue
		}
		addrs := make([]float64, len(cell))
		for k, mp := range cell {
			addrs[k] = float64(mp.Addr)
		}
		medians = append(medians, stats.Quantile(addrs, 0.5))
		centers = append(centers, (clo+chi)/2)
	}
	if len(medians) < 6 {
		return []Phase{{Lo: lo, Hi: hi}}
	}
	// Locate the extremum of the median-address path; a genuine sweep
	// reversal puts it strictly inside with opposite trends on both sides.
	// The reversal of a symmetric sweep sits near the middle, so restrict
	// the candidate window to the central 70% — this rejects the spurious
	// splits that boundary noise would otherwise produce.
	n := len(medians)
	best := n / 2
	for i := n * 15 / 100; i < n*85/100; i++ {
		if math.Abs(medians[i]-medians[0]) > math.Abs(medians[best]-medians[0]) {
			best = i
		}
	}
	if best < 2 || best > n-3 {
		return []Phase{{Lo: lo, Hi: hi}}
	}
	s1, _, err1 := stats.LinearFit(centers[:best+1], medians[:best+1])
	s2, _, err2 := stats.LinearFit(centers[best:], medians[best:])
	if err1 != nil || err2 != nil || s1*s2 >= 0 {
		return []Phase{{Lo: lo, Hi: hi}}
	}
	// Require both trends to be substantial relative to the address spread,
	// so noise in a flat phase does not fabricate a reversal.
	spread := stats.Quantile(medians, 0.95) - stats.Quantile(medians, 0.05)
	span := hi - lo
	if spread <= 0 || math.Abs(s1)*span/2 < spread/4 || math.Abs(s2)*span/2 < spread/4 {
		return []Phase{{Lo: lo, Hi: hi}}
	}
	mid := centers[best]
	return []Phase{{Lo: lo, Hi: mid}, {Lo: mid, Hi: hi}}
}

// finishPhase fills the phase's measured fields.
func (f *Folded) finishPhase(p *Phase) {
	p.DurationNs = (p.Hi - p.Lo) * f.MeanDurationNs
	mem := samplesIn(f.Mem, p.Lo, p.Hi)
	if len(mem) > 0 {
		addrs := make([]float64, len(mem))
		sigmas := make([]float64, len(mem))
		ips := make([]float64, len(mem))
		for i, mp := range mem {
			addrs[i] = float64(mp.Addr)
			sigmas[i] = mp.Sigma
			ips[i] = float64(mp.PhaseIP)
			if mp.Store {
				p.Stores++
			} else {
				p.Loads++
			}
		}
		p.DominantIP = uint64(stats.Quantile(ips, 0.5))
		q := stats.Quantiles(addrs, 0.05, 0.95)
		lo5, hi95 := q[0], q[1]
		p.AddrLo, p.AddrHi = uint64(lo5), uint64(hi95)
		p.Direction = classifySweep(sigmas, addrs, hi95-lo5)
		if p.DurationNs > 0 {
			span := hi95 - lo5
			// Scale the 5–95 span back to the full traversal extent.
			p.SpanBandwidth = span / 0.9 / (p.DurationNs / 1e9)
		}
	}
	// Mean rates over the grid cells inside the phase.
	p.PerInstr = make(map[cpu.CounterID]float64)
	mips := f.MIPS()
	var sum float64
	var cnt int
	for i, g := range f.Grid {
		if g < p.Lo || g >= p.Hi {
			continue
		}
		sum += mips[i]
		cnt++
	}
	if cnt > 0 {
		p.MIPSMean = sum / float64(cnt)
	}
	// CtrRemoteDRAM folds to all-zero on non-NUMA stacks (their records
	// never carry the counter); consumers key its presence on capability.
	for _, c := range []cpu.CounterID{cpu.CtrBranches, cpu.CtrL1DMiss, cpu.CtrL2Miss, cpu.CtrL3Miss, cpu.CtrRemoteDRAM} {
		ratio := f.PerInstruction(c)
		var s float64
		var n int
		for i, g := range f.Grid {
			if g < p.Lo || g >= p.Hi {
				continue
			}
			s += ratio[i]
			n++
		}
		if n > 0 {
			p.PerInstr[c] = s / float64(n)
		}
	}
}

// classifySweep decides the traversal direction from a linear fit of
// address on sigma: the trend must explain at least a quarter of the
// address spread (the 5–95 % quantile distance of addrs) to count as a
// sweep.
func classifySweep(sigmas, addrs []float64, spread float64) SweepDir {
	if len(sigmas) < 4 {
		return SweepFlat
	}
	slope, _, err := stats.LinearFit(sigmas, addrs)
	if err != nil {
		return SweepFlat
	}
	width := sigmas[len(sigmas)-1] - sigmas[0]
	if spread <= 0 || width <= 0 {
		return SweepFlat
	}
	trend := math.Abs(slope) * width
	if trend < spread/4 {
		return SweepFlat
	}
	if slope > 0 {
		return SweepForward
	}
	return SweepBackward
}

// LabelPhases assigns names to the detected phases using a code resolver
// (IP → function name), appending the sweep direction when a function
// appears in consecutive sweep phases, e.g. "ComputeSYMGS_ref[forward]".
func (f *Folded) LabelPhases(funcOf func(ip uint64) string) {
	if funcOf == nil {
		return
	}
	for i := range f.Phases {
		p := &f.Phases[i]
		name := funcOf(p.DominantIP)
		if name == "" {
			name = fmt.Sprintf("ip_%#x", p.DominantIP)
		}
		if p.Direction != SweepFlat {
			name = fmt.Sprintf("%s[%s]", name, p.Direction)
		}
		p.Name = name
	}
}

// PhaseAt returns the phase containing sigma, if any.
func (f *Folded) PhaseAt(sigma float64) (Phase, bool) {
	for _, p := range f.Phases {
		if sigma >= p.Lo && sigma < p.Hi {
			return p, true
		}
	}
	return Phase{}, false
}
