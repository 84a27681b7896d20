package stats

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// fitOracle is the single-response Fit as it stood before FitMulti: one
// reflected (x, y) point cloud sorted with sort.Slice, and one windowed
// weighted sum per grid point. FitMulti must reproduce it bit for bit.
func fitOracle(s Smoother, xs, ys, grid []float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrNoSamples
	}
	if len(xs) != len(ys) {
		return nil, ErrLengths
	}
	if len(grid) < 2 {
		return nil, ErrBadGrid
	}
	h := s.Bandwidth
	if h == 0 {
		h = silverman(xs)
	}
	if h <= 0 {
		return nil, ErrBadBandwidth
	}
	reflect := s.Hi > s.Lo
	n := len(xs)
	if reflect {
		n *= 3
	}
	// Sorted working copy, with reflected samples materialized so the
	// windowed pass treats them like any other sample.
	type pt struct{ x, y float64 }
	pts := make([]pt, 0, n)
	for j, x := range xs {
		pts = append(pts, pt{x, ys[j]})
		if reflect {
			// Reflect about both boundaries to correct edge bias.
			pts = append(pts, pt{2*s.Lo - x, ys[j]}, pt{2*s.Hi - x, ys[j]})
		}
	}
	sort.Slice(pts, func(a, b int) bool { return pts[a].x < pts[b].x })
	cut := s.Kernel.support() * h

	out := make([]float64, len(grid))
	for i, g := range grid {
		lo := sort.Search(len(pts), func(j int) bool { return pts[j].x >= g-cut })
		hi := sort.Search(len(pts), func(j int) bool { return pts[j].x > g+cut })
		var num, den float64
		for j := lo; j < hi; j++ {
			w := s.Kernel.weight((g - pts[j].x) / h)
			num += w * pts[j].y
			den += w
		}
		if den == 0 {
			if s.Kernel == Gaussian {
				// The Gaussian is unbounded — the 8-bandwidth window only
				// drops terms below the noise floor. For a grid point beyond
				// it from every sample the regression limit is the nearest
				// sample's value (its weight dominates exponentially), so
				// return that rather than NaN, which downstream folding
				// (Isotonic, Derivative) cannot digest.
				j := lo
				if j >= len(pts) || (j > 0 && g-pts[j-1].x <= pts[j].x-g) {
					j--
				}
				out[i] = pts[j].y
				continue
			}
			out[i] = math.NaN()
			continue
		}
		out[i] = num / den
	}
	return out, nil
}

// randomCloud draws n abscissae in [0,1]. Most trials quantize them to a
// few distinct values, so ties in x are heavy and the summation order of
// tied samples decides the low bits of every fitted value.
func randomCloud(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	levels := 0
	if rng.Intn(4) != 0 {
		levels = 1 + rng.Intn(12)
	}
	// Some clouds sit in a narrow band, so grids over [0,1] already reach
	// far past every sample.
	lo, span := 0.0, 1.0
	if rng.Intn(3) == 0 {
		lo, span = 0.4+0.1*rng.Float64(), 0.05
	}
	for i := range xs {
		u := rng.Float64()
		if levels > 0 {
			u = float64(rng.Intn(levels+1)) / float64(levels)
		}
		xs[i] = lo + span*u
	}
	return xs
}

// TestFitMultiMatchesPerResponseFit pins FitMulti to the pre-FitMulti
// single-response fit, bit for bit, on random clouds with heavy ties, 1–9
// responses, every kernel, with and without boundary reflection, and grids
// that reach past the samples (the Gaussian nearest-sample fallback and the
// compact kernels' NaN).
func TestFitMultiMatchesPerResponseFit(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	kernels := []Kernel{Gaussian, Epanechnikov, Uniform}
	var sawNaN, sawFar int
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(300)
		xs := randomCloud(rng, n)
		ys := make([][]float64, 1+rng.Intn(9))
		for r := range ys {
			ys[r] = make([]float64, n)
			for j := range ys[r] {
				// Quantized responses too: equal y on tied x must not hide
				// an order difference, so most responses stay continuous.
				ys[r][j] = rng.NormFloat64()
				if r%3 == 2 {
					ys[r][j] = float64(rng.Intn(4))
				}
			}
		}
		sm := Smoother{Kernel: kernels[trial%len(kernels)]}
		if rng.Intn(2) == 0 {
			sm.Lo, sm.Hi = 0, 1
		}
		if rng.Intn(5) != 0 {
			sm.Bandwidth = 0.002 + 0.08*rng.Float64()
		}
		gLo, gHi := 0.0, 1.0
		if rng.Intn(2) == 0 {
			gLo, gHi = -2-rng.Float64(), 3+rng.Float64()
		}
		grid := UniformGrid(gLo, gHi, 2+rng.Intn(120))

		got, err := sm.FitMulti(xs, ys, grid)
		if err != nil {
			t.Fatalf("trial %d: FitMulti: %v", trial, err)
		}
		if len(got) != len(ys) {
			t.Fatalf("trial %d: %d curves for %d responses", trial, len(got), len(ys))
		}
		for r := range ys {
			want, err := fitOracle(sm, xs, ys[r], grid)
			if err != nil {
				t.Fatalf("trial %d: oracle: %v", trial, err)
			}
			single, err := sm.Fit(xs, ys[r], grid)
			if err != nil {
				t.Fatalf("trial %d: Fit: %v", trial, err)
			}
			for i := range grid {
				wb := math.Float64bits(want[i])
				if gb := math.Float64bits(got[r][i]); gb != wb {
					t.Fatalf("trial %d (%v, n=%d, reflect=%v): response %d at grid %g: FitMulti %v (%#x), oracle %v (%#x)",
						trial, sm.Kernel, n, sm.Hi > sm.Lo, r, grid[i], got[r][i], gb, want[i], wb)
				}
				if sb := math.Float64bits(single[i]); sb != wb {
					t.Fatalf("trial %d: response %d at grid %g: Fit %v, oracle %v", trial, r, grid[i], single[i], want[i])
				}
				if math.IsNaN(want[i]) {
					sawNaN++
				}
			}
		}
		if sm.Kernel == Gaussian {
			sawFar += beyondSupport(sm, xs, grid)
		}
	}
	// The trials must reach both empty-window paths, or the property
	// says nothing about them.
	if sawNaN == 0 {
		t.Error("no trial produced a compact-kernel NaN")
	}
	if sawFar == 0 {
		t.Error("no trial reached the Gaussian nearest-sample fallback")
	}
}

// beyondSupport counts the grid points farther than the Gaussian's cut
// from every (reflected) sample.
func beyondSupport(sm Smoother, xs, grid []float64) int {
	h := sm.Bandwidth
	if h == 0 {
		h = silverman(xs)
	}
	cut := Gaussian.support() * h
	far := 0
	for _, g := range grid {
		near := false
		for _, x := range xs {
			cands := []float64{x}
			if sm.Hi > sm.Lo {
				cands = append(cands, 2*sm.Lo-x, 2*sm.Hi-x)
			}
			for _, c := range cands {
				if math.Abs(g-c) <= cut {
					near = true
				}
			}
		}
		if !near {
			far++
		}
	}
	return far
}

func TestFitMultiErrors(t *testing.T) {
	sm := Smoother{Bandwidth: 0.1}
	xs := []float64{0.1, 0.5, 0.9}
	good := []float64{1, 2, 3}
	grid := UniformGrid(0, 1, 5)
	for _, bad := range [][]float64{{1, 2}, {1, 2, 3, 4}, nil} {
		if _, err := sm.FitMulti(xs, [][]float64{good, bad}, grid); !errors.Is(err, ErrLengths) {
			t.Errorf("response of length %d: err = %v, want ErrLengths", len(bad), err)
		}
	}
	if _, err := sm.FitMulti(nil, [][]float64{nil}, grid); !errors.Is(err, ErrNoSamples) {
		t.Errorf("no samples: err = %v", err)
	}
	if _, err := sm.FitMulti(xs, [][]float64{good}, grid[:1]); !errors.Is(err, ErrBadGrid) {
		t.Errorf("bad grid: err = %v", err)
	}
	sm.Bandwidth = -1
	if _, err := sm.FitMulti(xs, [][]float64{good}, grid); !errors.Is(err, ErrBadBandwidth) {
		t.Errorf("negative bandwidth: err = %v", err)
	}
}
