// Package stats provides the numerical machinery used by the Folding
// mechanism: kernel (Nadaraya–Watson) regression as a stand-in for the
// Kriging interpolation used by the original BSC Folding tool, isotonic
// regression to enforce monotonicity of folded cumulative counters, linear
// fits, histograms, and segmented-slope phase detection.
package stats

import (
	"errors"
	"math"
	"slices"
	"sort"
)

// Kernel identifies a smoothing kernel shape.
type Kernel int

const (
	// Gaussian is the unbounded exp(-u²/2) kernel (default).
	Gaussian Kernel = iota
	// Epanechnikov is the compact parabolic kernel 3/4(1-u²) for |u|<1.
	Epanechnikov
	// Uniform is the boxcar kernel over |u|<1.
	Uniform
)

func (k Kernel) String() string {
	switch k {
	case Gaussian:
		return "gaussian"
	case Epanechnikov:
		return "epanechnikov"
	case Uniform:
		return "uniform"
	}
	return "unknown"
}

// weight evaluates the kernel at normalized distance u.
func (k Kernel) weight(u float64) float64 {
	switch k {
	case Gaussian:
		return math.Exp(-0.5 * u * u)
	case Epanechnikov:
		if u < -1 || u > 1 {
			return 0
		}
		return 0.75 * (1 - u*u)
	case Uniform:
		if u < -1 || u > 1 {
			return 0
		}
		return 0.5
	}
	return 0
}

// Errors returned by the regression helpers.
var (
	ErrNoSamples    = errors.New("stats: no samples")
	ErrBadBandwidth = errors.New("stats: bandwidth must be positive")
	ErrBadGrid      = errors.New("stats: grid must have at least 2 points")
	ErrLengths      = errors.New("stats: x and y length mismatch")
)

// Smoother performs Nadaraya–Watson kernel regression of scattered (x, y)
// samples, evaluated on an arbitrary grid. It is the replacement for the
// Kriging interpolation of the original Folding implementation: on the dense
// folded sample clouds produced by combining hundreds of region instances the
// two estimators produce equivalent smooth curves, and kernel regression
// needs no covariance-model fitting.
type Smoother struct {
	// Kernel selects the kernel shape; zero value is Gaussian.
	Kernel Kernel
	// Bandwidth is the kernel bandwidth in x units. If zero, a Silverman
	// rule-of-thumb bandwidth is derived from the sample spread.
	Bandwidth float64
	// Boundary reflects samples at the domain edges [Lo, Hi] to reduce edge
	// bias. Enabled when Hi > Lo.
	Lo, Hi float64
}

// silverman computes the rule-of-thumb bandwidth for the sample xs.
func silverman(xs []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0.1
	}
	mean := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / (n - 1))
	if sd == 0 {
		return 0.05
	}
	return 1.06 * sd * math.Pow(n, -0.2)
}

// support returns the kernel's effective half-width in normalized units:
// distances beyond it contribute nothing detectable. Compact kernels cut at
// their true support; the Gaussian is cut at 8 bandwidths, where the weight
// (exp(-32) ≈ 1.3e-14) is far below the noise floor of any folded curve.
func (k Kernel) support() float64 {
	if k == Gaussian {
		return 8
	}
	return 1
}

// Fit evaluates the regression of ys on xs at each grid point. xs need not
// be sorted. The returned slice is aligned with grid. It is FitMulti with
// one response.
func (s Smoother) Fit(xs, ys, grid []float64) ([]float64, error) {
	out, err := s.FitMulti(xs, [][]float64{ys}, grid)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// FitMulti evaluates the regression of every response ys[r] on the shared
// abscissae xs at each grid point; out[r] is aligned with grid. xs need not
// be sorted.
//
// The evaluation sorts the samples once (materializing the boundary
// reflections as explicit samples) and restricts every grid point to the
// samples within the kernel support, turning the naive
// O(len(grid)·len(xs)) kernel evaluation — the wall-clock bottleneck of
// folding large traces — into O(len(grid)·window). The sort and each
// window's weights and denominator depend on xs alone, so they are computed
// once for all responses; only the numerators are per response. Each
// numerator sums its terms in the same order as a fit of that response on
// its own, so out[r] is bit-identical to Fit(xs, ys[r], grid).
func (s Smoother) FitMulti(xs []float64, ys [][]float64, grid []float64) ([][]float64, error) {
	if len(xs) == 0 {
		return nil, ErrNoSamples
	}
	for _, y := range ys {
		if len(y) != len(xs) {
			return nil, ErrLengths
		}
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
	// windowed pass treats them like any other sample; src is the index of
	// the sample's response value.
	type pt struct {
		x   float64
		src int
	}
	pts := make([]pt, 0, n)
	for j, x := range xs {
		pts = append(pts, pt{x, j})
		if reflect {
			// Reflect about both boundaries to correct edge bias.
			pts = append(pts, pt{2*s.Lo - x, j}, pt{2*s.Hi - x, j})
		}
	}
	// The permutation depends only on the comparisons of x, and
	// slices.SortFunc runs the same pdqsort as sort.Slice, so samples tied
	// in x keep the order a sort of (x, y) points gives them.
	slices.SortFunc(pts, func(a, b pt) int {
		switch {
		case a.x < b.x:
			return -1
		case a.x > b.x:
			return 1
		}
		return 0
	})
	cut := s.Kernel.support() * h

	out := make([][]float64, len(ys))
	for r := range out {
		out[r] = make([]float64, len(grid))
	}
	var w []float64 // the current window's weights
	for i, g := range grid {
		lo := sort.Search(len(pts), func(j int) bool { return pts[j].x >= g-cut })
		hi := sort.Search(len(pts), func(j int) bool { return pts[j].x > g+cut })
		win := pts[lo:hi]
		w = w[:0]
		var den float64
		for _, p := range win {
			wj := s.Kernel.weight((g - p.x) / h)
			w = append(w, wj)
			den += wj
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
				for r, y := range ys {
					out[r][i] = y[pts[j].src]
				}
				continue
			}
			for r := range ys {
				out[r][i] = math.NaN()
			}
			continue
		}
		for r, y := range ys {
			var num float64
			for k, p := range win {
				num += w[k] * y[p.src]
			}
			out[r][i] = num / den
		}
	}
	return out, nil
}

// UniformGrid returns n evenly spaced points covering [lo, hi] inclusive.
func UniformGrid(lo, hi float64, n int) []float64 {
	if n < 2 {
		n = 2
	}
	g := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range g {
		g[i] = lo + float64(i)*step
	}
	g[n-1] = hi
	return g
}

// Derivative computes the centered finite-difference derivative of ys over
// the (uniform or non-uniform) grid xs. Endpoints use one-sided differences.
func Derivative(xs, ys []float64) ([]float64, error) {
	if len(xs) != len(ys) {
		return nil, ErrLengths
	}
	n := len(xs)
	if n < 2 {
		return nil, ErrBadGrid
	}
	d := make([]float64, n)
	d[0] = (ys[1] - ys[0]) / (xs[1] - xs[0])
	d[n-1] = (ys[n-1] - ys[n-2]) / (xs[n-1] - xs[n-2])
	for i := 1; i < n-1; i++ {
		d[i] = (ys[i+1] - ys[i-1]) / (xs[i+1] - xs[i-1])
	}
	return d, nil
}

// Isotonic performs in-place pool-adjacent-violators (PAVA) isotonic
// regression, returning the non-decreasing least-squares fit of ys. Folded
// cumulative-counter curves are physically non-decreasing; applying PAVA
// before differentiation prevents negative instantaneous rates caused by
// sampling noise.
func Isotonic(ys []float64) []float64 {
	n := len(ys)
	out := make([]float64, n)
	copy(out, ys)
	if n < 2 {
		return out
	}
	// Blocks represented by value and weight (count).
	vals := make([]float64, 0, n)
	wts := make([]float64, 0, n)
	for _, y := range out {
		vals = append(vals, y)
		wts = append(wts, 1)
		for len(vals) > 1 && vals[len(vals)-2] > vals[len(vals)-1] {
			v2, w2 := vals[len(vals)-1], wts[len(wts)-1]
			v1, w1 := vals[len(vals)-2], wts[len(wts)-2]
			vals = vals[:len(vals)-1]
			wts = wts[:len(wts)-1]
			vals[len(vals)-1] = (v1*w1 + v2*w2) / (w1 + w2)
			wts[len(wts)-1] = w1 + w2
		}
	}
	i := 0
	for b := range vals {
		for k := 0; k < int(wts[b]); k++ {
			out[i] = vals[b]
			i++
		}
	}
	return out
}

// Clamp limits every element of ys to [lo, hi] in place and returns ys.
func Clamp(ys []float64, lo, hi float64) []float64 {
	for i, y := range ys {
		if y < lo {
			ys[i] = lo
		} else if y > hi {
			ys[i] = hi
		}
	}
	return ys
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance (0 for n < 2).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

// Quantiles returns the qs-quantiles of xs, each equal to Quantile(xs, q),
// sorting one copy of xs for all of them. xs is not modified.
func Quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	for i, q := range qs {
		out[i] = sortedQuantile(s, q)
	}
	return out
}

// sortedQuantile is Quantile over an already sorted, non-empty s.
func sortedQuantile(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i]*(1-frac) + s[i+1]*frac
}

// LinearFit returns the least-squares slope and intercept of y = a*x + b.
func LinearFit(xs, ys []float64) (slope, intercept float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, ErrLengths
	}
	if len(xs) < 2 {
		return 0, 0, ErrNoSamples
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy float64
	for i := range xs {
		dx := xs[i] - mx
		sxx += dx * dx
		sxy += dx * (ys[i] - my)
	}
	if sxx == 0 {
		return 0, my, nil
	}
	slope = sxy / sxx
	return slope, my - slope*mx, nil
}
