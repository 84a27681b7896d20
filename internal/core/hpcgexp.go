package core

import (
	"fmt"
	"strings"

	"repro/internal/folding"
	"repro/internal/hpcg"
	"repro/internal/objects"
	"repro/internal/report"
)

// PaperPhase is a detected phase mapped onto the paper's Figure 1 labels:
// A (a1, a2), B, C, D (d1, d2), E.
type PaperPhase struct {
	// Label is the paper's letter ("a1", "B", …); auxiliary phases that
	// the paper does not letter (dot products, vector updates) get "-".
	Label string
	Phase folding.Phase
}

// HPCGRun bundles the full HPCG reproduction.
type HPCGRun struct {
	Session *Session
	Problem *hpcg.Problem
	CG      *hpcg.CGResult
	// Folded is the folded CG_iteration region.
	Folded *folding.Folded
	// Paper maps the detected phases onto the paper's labels.
	Paper []PaperPhase
	// Partial marks a run stopped before completion; Folded may be nil if
	// no iteration finished.
	Partial bool
}

// LabelPaperPhases walks the detected phases of a folded HPCG iteration and
// assigns the paper's letters. Consecutive phases sharing a function form
// one occurrence; the first SYMGS occurrence is A (its forward/backward
// sweeps a1/a2), then the first SpMV is B, the MG coarse region is C, the
// second SYMGS is D (d1/d2) and the second SpMV is E.
func LabelPaperPhases(f *folding.Folded, funcOf func(ip uint64) string) []PaperPhase {
	out := make([]PaperPhase, 0, len(f.Phases))
	type group struct {
		fn         string
		start, end int // phase index range [start, end)
	}
	var groups []group
	for i, p := range f.Phases {
		fn := funcOf(p.DominantIP)
		if len(groups) > 0 && groups[len(groups)-1].fn == fn {
			groups[len(groups)-1].end = i + 1
			continue
		}
		groups = append(groups, group{fn: fn, start: i, end: i + 1})
	}
	symgsSeen, spmvSeen := 0, 0
	for _, g := range groups {
		var letter string
		switch {
		case strings.Contains(g.fn, "SYMGS"):
			symgsSeen++
			if symgsSeen == 1 {
				letter = "A"
			} else {
				letter = "D"
			}
		case strings.Contains(g.fn, "SPMV"):
			spmvSeen++
			if spmvSeen == 1 {
				letter = "B"
			} else {
				letter = "E"
			}
		case strings.Contains(g.fn, "MG"):
			letter = "C"
		default:
			letter = "-"
		}
		n := g.end - g.start
		for k := 0; k < n; k++ {
			label := letter
			if letter != "-" && n > 1 {
				label = fmt.Sprintf("%s%d", strings.ToLower(letter), k+1)
			}
			out = append(out, PaperPhase{Label: label, Phase: f.Phases[g.start+k]})
		}
	}
	return out
}

// PhaseByLabel returns the first phase with the given paper label.
func (r *HPCGRun) PhaseByLabel(label string) (folding.Phase, bool) {
	for _, pp := range r.Paper {
		if pp.Label == label {
			return pp.Phase, true
		}
	}
	return folding.Phase{}, false
}

// Figure1 assembles the report inputs for the run.
func (r *HPCGRun) Figure1() *report.Figure1 {
	return &report.Figure1{
		Folded:  r.Folded,
		Binary:  r.Session.Bin,
		Objects: r.Session.Mon.Registry().Objects(),
	}
}

// BandwidthRow is one line of the paper's in-text bandwidth comparison.
type BandwidthRow struct {
	Label     string
	Direction folding.SweepDir
	// MBps is the traversal-bandwidth approximation in MB/s.
	MBps float64
}

// BandwidthTable extracts the paper's bandwidth comparison (regions a1, a2
// and B) from the labeled phases.
func (r *HPCGRun) BandwidthTable() []BandwidthRow {
	var rows []BandwidthRow
	for _, want := range []string{"a1", "a2", "A", "B", "d1", "d2", "D", "E"} {
		if p, ok := r.PhaseByLabel(want); ok {
			rows = append(rows, BandwidthRow{
				Label:     want,
				Direction: p.Direction,
				MBps:      p.SpanBandwidth / 1e6,
			})
		}
	}
	return rows
}

// MatrixGroup returns the "124_GenerateProblem_ref.cpp" object (the wrapped
// matrix allocations), or nil if missing.
func (r *HPCGRun) MatrixGroup() *objects.Object {
	return r.objectByName("124_GenerateProblem_ref.cpp")
}

// MapGroup returns the "205_GenerateProblem_ref.cpp" object.
func (r *HPCGRun) MapGroup() *objects.Object {
	return r.objectByName("205_GenerateProblem_ref.cpp")
}

func (r *HPCGRun) objectByName(name string) *objects.Object {
	for _, o := range r.Session.Mon.Registry().Objects() {
		if o.Name == name {
			return o
		}
	}
	return nil
}
