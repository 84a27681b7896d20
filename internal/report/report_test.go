package report

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/folding"
	"repro/internal/interval"
	"repro/internal/memhier"
	"repro/internal/objects"
	"repro/internal/prog"
	"repro/internal/stats"
	"repro/internal/trace"
)

func TestCanvasPlotAndWeights(t *testing.T) {
	c := NewCanvas(10, 4)
	c.Plot(2, 1, '.')
	c.Plot(2, 1, '#') // heavier wins
	c.Plot(2, 1, '.') // lighter does not overwrite
	if c.Row(1)[2] != '#' {
		t.Errorf("cell = %q, want '#'", c.Row(1)[2])
	}
	// Out of range ignored.
	c.Plot(-1, 0, '#')
	c.Plot(10, 0, '#')
	c.Plot(0, 4, '#')
	if strings.Count(c.Row(0), "#") != 0 {
		t.Error("out-of-range plot landed")
	}
}

func TestCanvasMapping(t *testing.T) {
	c := NewCanvas(100, 20)
	if c.XForSigma(0) != 0 || c.XForSigma(1) != 99 {
		t.Errorf("XForSigma ends = %d, %d", c.XForSigma(0), c.XForSigma(1))
	}
	if c.XForSigma(-0.5) != 0 {
		t.Error("negative sigma not clamped")
	}
	if c.YForValue(10, 0, 10) != 0 {
		t.Errorf("max value should map to top row, got %d", c.YForValue(10, 0, 10))
	}
	if c.YForValue(0, 0, 10) != 19 {
		t.Errorf("min value should map to bottom row, got %d", c.YForValue(0, 0, 10))
	}
	if c.YForValue(5, 5, 5) != 19 {
		t.Error("degenerate range should map to bottom")
	}
}

func TestCanvasWriteTo(t *testing.T) {
	c := NewCanvas(20, 3)
	c.Plot(5, 1, '*')
	var buf bytes.Buffer
	if err := c.WriteTo(&buf, func(row int) string { return "L" }); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "*") || !strings.Contains(out, "L |") {
		t.Errorf("canvas output:\n%s", out)
	}
}

// synthFigure builds a small folded result plus matching binary/objects.
func synthFigure(t *testing.T) *Figure1 {
	t.Helper()
	bin := prog.NewBinary()
	fa, _ := bin.AddFunction("kernelA", "a.c", 10, 10)
	ipA, _ := fa.IPForLine(12)
	var instances []folding.Instance
	for k := 0; k < 8; k++ {
		in := folding.Instance{T0: uint64(k) * 1000, T1: uint64(k)*1000 + 500}
		in.C1[cpu.CtrInstructions] = 10000
		in.C1[cpu.CtrCycles] = 20000
		in.C1[cpu.CtrBranches] = 500
		in.C1[cpu.CtrL1DMiss] = 300
		var samples []trace.Event
		for i := 0; i < 30; i++ {
			sigma := (float64(i) + 0.5) / 30
			s := trace.Event{
				Kind:   trace.KindSample,
				TimeNs: in.T0 + uint64(sigma*500),
				Addr:   0x10000 + uint64(sigma*8000),
				IP:     ipA,
				Store:  i%3 == 0,
				Source: uint8(memhier.SrcL2),
			}
			s.Counters[cpu.CtrInstructions] = uint64(sigma * 10000)
			s.Counters[cpu.CtrCycles] = uint64(sigma * 20000)
			s.Counters[cpu.CtrBranches] = uint64(sigma * 500)
			s.Counters[cpu.CtrL1DMiss] = uint64(sigma * 300)
			samples = append(samples, s)
		}
		in.Events = [][]trace.Event{samples}
		instances = append(instances, in)
	}
	f, err := folding.Fold(instances, folding.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	obj := &objects.Object{
		Name: "124_GenerateProblem_ref.cpp", Kind: objects.KindGroup,
		Range: interval.Interval{Lo: 0x10000, Hi: 0x18000},
		Bytes: 0x8000, Refs: 100, Loads: 70, Stores: 30,
	}
	return &Figure1{Folded: f, Binary: bin, Objects: []*objects.Object{obj},
		Width: 60, Height: 10}
}

func TestFigure1Render(t *testing.T) {
	fig := synthFigure(t)
	var buf bytes.Buffer
	if err := fig.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Figure 1 (top)", "Figure 1 (middle)", "Figure 1 (bottom)",
		"kernelA", "124_GenerateProblem_ref.cpp", "MIPS",
		"Detected phases", "Data objects",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestFigure1EmptySamples(t *testing.T) {
	fig := synthFigure(t)
	fig.Folded.Lines = nil
	fig.Folded.Mem = nil
	var buf bytes.Buffer
	if err := fig.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "(no samples)") {
		t.Error("empty panels not flagged")
	}
}

func TestCSVOutputs(t *testing.T) {
	fig := synthFigure(t)
	var lines, mem, ctrs, phases bytes.Buffer
	if err := WriteLinesCSV(&lines, fig); err != nil {
		t.Fatal(err)
	}
	if err := WriteMemCSV(&mem, fig, func(addr uint64) string { return "obj" }); err != nil {
		t.Fatal(err)
	}
	if err := WriteCountersCSV(&ctrs, fig.Folded); err != nil {
		t.Fatal(err)
	}
	if err := WritePhasesCSV(&phases, fig.Folded); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(lines.String(), "sigma,ip,function,file,line") {
		t.Errorf("lines header: %q", firstLine(lines.String()))
	}
	if !strings.Contains(lines.String(), "kernelA") {
		t.Error("lines CSV missing function")
	}
	if !strings.Contains(mem.String(), "store") || !strings.Contains(mem.String(), "obj") {
		t.Error("mem CSV missing fields")
	}
	// Counters CSV has one row per grid point plus header.
	rows := strings.Count(ctrs.String(), "\n")
	if rows != len(fig.Folded.Grid)+1 {
		t.Errorf("counters CSV rows = %d, want %d", rows, len(fig.Folded.Grid)+1)
	}
	if !strings.Contains(phases.String(), "forward") && !strings.Contains(phases.String(), "flat") {
		t.Error("phases CSV missing direction")
	}
	// Nil object resolver is allowed.
	if err := WriteMemCSV(&bytes.Buffer{}, fig, nil); err != nil {
		t.Fatal(err)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

func TestRenderSeriesDegenerate(t *testing.T) {
	var buf bytes.Buffer
	// Constant series must not divide by zero.
	grid := stats.UniformGrid(0, 1, 10)
	ys := make([]float64, 10)
	if err := renderSeries(&buf, "flat", grid, ys, 40, 5); err != nil {
		t.Fatal(err)
	}
	if err := renderSeries(&buf, "empty", nil, nil, 40, 5); err != nil {
		t.Fatal(err)
	}
}
