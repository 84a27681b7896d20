package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/trace"
)

// The checks below recompute what the program reports from its raw
// outputs (the solution vector, the PRV text, the fill counters) with code
// of their own, or test properties the method must have. They take plain
// data so the tests can hand them corrupted copies.

// residualTol is the relative distance allowed between the true residual
// ‖b − A·x‖₂ and the CG solver's last recursively updated residual norm.
// After three iterations the two differ only by rounding: 1e-15 relative
// was seen at 16³ and 32³.
const residualTol = 1e-12

// stencilResidual returns ‖b − A·x‖₂ and ‖b‖₂ for HPCG's 27-point operator
// on an nx×ny×nz box (diagonal 26, every in-box neighbour −1, b = A·1),
// computed from the stencil alone. Rows are numbered x fastest, then y,
// then z.
func stencilResidual(nx, ny, nz int, x []float64) (res, normB float64) {
	var rr, bb float64
	for iz := 0; iz < nz; iz++ {
		for iy := 0; iy < ny; iy++ {
			for ix := 0; ix < nx; ix++ {
				row := (iz*ny+iy)*nx + ix
				var ax, b float64
				for dz := -1; dz <= 1; dz++ {
					z := iz + dz
					if z < 0 || z >= nz {
						continue
					}
					for dy := -1; dy <= 1; dy++ {
						y := iy + dy
						if y < 0 || y >= ny {
							continue
						}
						for dx := -1; dx <= 1; dx++ {
							xx := ix + dx
							if xx < 0 || xx >= nx {
								continue
							}
							col := (z*ny+y)*nx + xx
							if col == row {
								ax += 26 * x[col]
								b += 26
							} else {
								ax -= x[col]
								b--
							}
						}
					}
				}
				rr += (b - ax) * (b - ax)
				bb += b * b
			}
		}
	}
	return math.Sqrt(rr), math.Sqrt(bb)
}

// checkSolution checks a finished CG solve against its returned x: the
// true residual matches the last reported residual and is below ‖b‖, and
// FinalError is max|xᵢ − 1| (the exact solution is all ones).
func checkSolution(nx, ny, nz int, x, residuals []float64, finalError float64) error {
	if len(x) != nx*ny*nz {
		return fmt.Errorf("x has %d entries, the %d×%d×%d box has %d rows", len(x), nx, ny, nz, nx*ny*nz)
	}
	if len(residuals) == 0 {
		return errors.New("solve reported no residuals")
	}
	res, normB := stencilResidual(nx, ny, nz, x)
	last := residuals[len(residuals)-1]
	if rel := math.Abs(res-last) / res; !(rel <= residualTol) {
		return fmt.Errorf("true residual %.17g differs from reported %.17g by %.3g relative (allowed %g)", res, last, rel, residualTol)
	}
	if !(res < normB) {
		return fmt.Errorf("true residual %.6g is not below ‖b‖ = %.6g", res, normB)
	}
	var maxErr float64
	for _, v := range x {
		maxErr = max(maxErr, math.Abs(v-1))
	}
	if maxErr != finalError {
		return fmt.Errorf("FinalError %.17g, but max|x-1| is %.17g", finalError, maxErr)
	}
	return nil
}

// prvSamples is what the benchmark reads back from a PRV trace.
type prvSamples struct {
	// Samples counts PEBS sample records (those carrying an address).
	Samples uint64
	// Loads and Stores count the samples whose address falls in the probed
	// range.
	Loads, Stores uint64
}

// readPRV parses a PRV trace with the program's own reader and counts its
// sample records, splitting those inside [lo, hi) into loads and stores.
func readPRV(prv []byte, lo, hi uint64) (prvSamples, error) {
	var out prvSamples
	r, err := trace.NewReader(bytes.NewReader(prv))
	if err != nil {
		return out, err
	}
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		addr, ok := rec.Get(trace.TypeSampleAddr)
		if !ok {
			continue
		}
		out.Samples++
		if uint64(addr) < lo || uint64(addr) >= hi {
			continue
		}
		if store, _ := rec.Get(trace.TypeSampleStore); store != 0 {
			out.Stores++
		} else {
			out.Loads++
		}
	}
}

// checkSampleCount checks that the PRV carries one sample record per
// sample the PEBS engines report recorded.
func checkSampleCount(got prvSamples, recorded uint64) error {
	if got.Samples != recorded {
		return fmt.Errorf("PRV carries %d sample records, PEBS engines recorded %d", got.Samples, recorded)
	}
	return nil
}

// checkMatrixReadOnly checks the paper's key observation: the matrix
// object is loaded but never stored to during the solve.
func checkMatrixReadOnly(m prvSamples) error {
	if m.Loads == 0 {
		return errors.New("no load samples fall in the matrix object")
	}
	if m.Stores != 0 {
		return fmt.Errorf("%d store samples fall in the matrix object", m.Stores)
	}
	return nil
}

// checkPaperLetters checks that the folded phase labels carry all five of
// the paper's letters A–E (sub-phases a1/a2 and d1/d2 count as A and D).
func checkPaperLetters(labels []string) error {
	seen := map[byte]bool{}
	for _, l := range labels {
		if l == "" || l == "-" {
			continue
		}
		seen[l[0]|0x20] = true
	}
	for c := byte('a'); c <= 'e'; c++ {
		if !seen[c] {
			return fmt.Errorf("paper letter %c missing from phases %v", c-0x20, labels)
		}
	}
	return nil
}

// checkFired checks deterministic period sampling: with multiplexing and
// randomisation off, loads and stores count down separately, so each
// event fires once per period.
func checkFired(loads, stores, period, fired uint64) error {
	if want := loads/period + stores/period; fired != want {
		return fmt.Errorf("fired %d samples, %d loads and %d stores at period %d give %d", fired, loads, stores, period, want)
	}
	return nil
}

// threadFills is one simulated thread's DRAM fill accounting.
type threadFills struct {
	Socket      int
	Fills       uint64
	RemoteFills uint64
}

// nodeFills is one memory node's controller accounting.
type nodeFills struct {
	Local, Remote uint64
}

// checkFills checks the NUMA layer's books against the threads' own:
// every fill a thread took is served by exactly one node, locally when the
// node is the thread's socket. So node n's local fills are the fills of
// socket n's threads less their remote ones, and on two sockets node n's
// remote fills are the remote fills of the other socket's threads.
func checkFills(threads []threadFills, nodes []nodeFills) error {
	var threadTotal, threadRemote, nodeTotal, nodeRemote uint64
	local := make([]uint64, len(nodes))
	remoteFrom := make([]uint64, len(nodes))
	for _, t := range threads {
		if t.Socket < 0 || t.Socket >= len(nodes) {
			return fmt.Errorf("thread on socket %d, machine has %d nodes", t.Socket, len(nodes))
		}
		threadTotal += t.Fills
		threadRemote += t.RemoteFills
		local[t.Socket] += t.Fills - t.RemoteFills
		remoteFrom[t.Socket] += t.RemoteFills
	}
	for n, st := range nodes {
		nodeTotal += st.Local + st.Remote
		nodeRemote += st.Remote
		if st.Local != local[n] {
			return fmt.Errorf("node %d served %d local fills, its socket's threads took %d", n, st.Local, local[n])
		}
		if len(nodes) == 2 && st.Remote != remoteFrom[1-n] {
			return fmt.Errorf("node %d served %d remote fills, the other socket's threads took %d", n, st.Remote, remoteFrom[1-n])
		}
	}
	if threadTotal != nodeTotal {
		return fmt.Errorf("threads took %d DRAM fills, nodes served %d", threadTotal, nodeTotal)
	}
	if threadRemote != nodeRemote {
		return fmt.Errorf("threads took %d remote fills, nodes served %d", threadRemote, nodeRemote)
	}
	return nil
}
