package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestQuantilesMatchQuantile pins Quantiles bit-identical to one Quantile
// call per q, over random inputs full of ties and with qs at, inside and
// past [0, 1], and checks it leaves its input unchanged.
func TestQuantilesMatchQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(40)
		xs := make([]float64, n)
		distinct := 1 + rng.Intn(6) // few distinct values: many ties
		for i := range xs {
			xs[i] = float64(rng.Intn(distinct)) * math.Pow(10, float64(rng.Intn(12)))
			if rng.Intn(5) == 0 {
				xs[i] = -xs[i]
			}
		}
		qs := make([]float64, 1+rng.Intn(5))
		for i := range qs {
			switch rng.Intn(5) {
			case 0:
				qs[i] = float64(rng.Intn(2))
			case 1:
				qs[i] = rng.Float64()*3 - 1
			default:
				qs[i] = []float64{0.05, 0.5, 0.95}[rng.Intn(3)]
			}
		}
		in := slices.Clone(xs)
		got := Quantiles(xs, qs...)
		if !slices.Equal(xs, in) {
			t.Fatalf("trial %d: input modified", trial)
		}
		if len(got) != len(qs) {
			t.Fatalf("trial %d: %d quantiles for %d qs", trial, len(got), len(qs))
		}
		for i, q := range qs {
			want := Quantile(xs, q)
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("trial %d: Quantiles(%v, %v)[%d] = %v, Quantile = %v", trial, xs, qs, i, got[i], want)
			}
		}
	}
}
