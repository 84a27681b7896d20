package scenario

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/hpcg"
	"repro/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the golden metrics files")

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".json")
}

// TestGoldenMetrics is the regression harness: every registered scenario
// must reproduce its pinned golden JSON byte for byte, on both the fast
// and the per-op reference simulation paths. Refresh with
// `go test ./internal/scenario -update` (or `simrun -update-golden`) and
// justify the diff in the PR that carries it — a changed golden is a
// changed simulation result.
//
// The goldens were generated on amd64. Go may fuse a*b+c into FMA on
// architectures with fused multiply-add (arm64, ppc64), which perturbs the
// float64 reductions feeding the metrics (CG residuals, folded curves), so
// the byte-exact comparison is scoped to amd64; run-to-run determinism
// (TestRunDeterminism) holds on every architecture.
func TestGoldenMetrics(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		if *update {
			t.Fatalf("refusing to regenerate goldens on %s: they must be amd64-generated (FMA fusion perturbs float64 reductions and amd64 CI would reject the result)", runtime.GOARCH)
		}
		t.Skipf("goldens are amd64-generated; FMA fusion on %s perturbs float64 reductions", runtime.GOARCH)
	}
	for _, sc := range All() {
		t.Run(sc.Name, func(t *testing.T) {
			m, err := Run(sc, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.JSON()
			if err != nil {
				t.Fatal(err)
			}
			path := goldenPath(sc.Name)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("fast path diverges from golden %s:\n%s", path, firstDiff(got, want))
			}

			ref, err := Run(sc, Options{Reference: true})
			if err != nil {
				t.Fatal(err)
			}
			gotRef, err := ref.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotRef, want) {
				t.Errorf("reference path diverges from golden %s:\n%s", path, firstDiff(gotRef, want))
			}
		})
	}
}

// firstDiff renders the first differing line of two serializations.
func firstDiff(got, want []byte) string {
	gl := bytes.Split(got, []byte("\n"))
	wl := bytes.Split(want, []byte("\n"))
	n := len(gl)
	if len(wl) < n {
		n = len(wl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("length differs: got %d lines, want %d", len(gl), len(wl))
}

// TestRunDeterminism pins the harness's core property directly: two runs of
// the same scenario are byte-identical, including a multi-thread Machine
// scenario under the sequential schedule.
func TestRunDeterminism(t *testing.T) {
	for _, name := range []string{"stream_triad_4t", "hpcg_8_mux_1t"} {
		sc, ok := Get(name)
		if !ok {
			t.Fatalf("scenario %s not registered", name)
		}
		a, err := Run(sc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(sc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		aj, _ := a.JSON()
		bj, _ := b.JSON()
		if !bytes.Equal(aj, bj) {
			t.Errorf("%s: repeated runs differ:\n%s", name, firstDiff(aj, bj))
		}
	}
}

// TestRegistryShape pins the matrix's advertised coverage: at least 8
// scenarios, every workload family present, both Machine thread counts and
// every named hierarchy exercised.
func TestRegistryShape(t *testing.T) {
	all := All()
	if len(all) < 8 {
		t.Fatalf("registry has %d scenarios, want >= 8", len(all))
	}
	multi := false
	hier := map[string]bool{}
	families := map[string]bool{}
	for _, sc := range all {
		if sc.Threads > 1 {
			multi = true
		}
		hier[sc.Hierarchy] = true
		if sc.HPCG != nil {
			families["hpcg"] = true
		} else {
			families[sc.Workload().Name()] = true
		}
	}
	if !multi {
		t.Error("no multi-thread scenario registered")
	}
	for _, h := range HierarchyNames() {
		if !hier[h] {
			t.Errorf("hierarchy %q not exercised by any scenario", h)
		}
	}
	for _, f := range []string{"stream_triad", "random_access", "pointer_chase", "matmul", "spmv_csr", "hpcg"} {
		if !families[f] {
			t.Errorf("workload family %q not in the matrix", f)
		}
	}
}

// TestThreadsOverride checks the -threads override path used by simrun.
func TestThreadsOverride(t *testing.T) {
	sc, ok := Get("stream_triad_1t")
	if !ok {
		t.Fatal("stream_triad_1t not registered")
	}
	m, err := Run(sc, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.Threads != 2 || len(m.PerThread) != 2 {
		t.Fatalf("threads=%d per_thread=%d, want 2/2", m.Threads, len(m.PerThread))
	}
	if m.SharedL3 == nil {
		t.Error("multi-thread run missing shared L3 metrics")
	}
}

// TestHPCGMultiThreadRejected documents why HPCG goldens are single-thread.
func TestHPCGMultiThreadRejected(t *testing.T) {
	sc, ok := Get("hpcg_8_1t")
	if !ok {
		t.Fatal("hpcg_8_1t not registered")
	}
	if _, err := Run(sc, Options{Threads: 2}); err == nil {
		t.Error("multi-thread HPCG scenario should be rejected (no deterministic schedule)")
	}
}

// TestRegisterValidation covers the registry's error paths.
func TestRegisterValidation(t *testing.T) {
	if err := Register(Scenario{}); err == nil {
		t.Error("empty scenario accepted")
	}
	if err := Register(Scenario{Name: "stream_triad_1t", Threads: 1}); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := Register(Scenario{Name: "x_no_body", Threads: 1}); err == nil {
		t.Error("scenario without workload or HPCG accepted")
	}
	if err := Register(Scenario{Name: "x_bad_hier", Threads: 1, Hierarchy: "nope",
		Workload: func() workloads.Workload { return workloads.NewStream(8) }}); err == nil {
		t.Error("unknown hierarchy accepted")
	}
	if err := Register(Scenario{Name: "x_hpcg_4t", Threads: 4,
		HPCG: &hpcg.Params{NX: 8, NY: 8, NZ: 8, MGLevels: 2, MaxIters: 1}}); err == nil {
		t.Error("multi-thread HPCG scenario accepted at registration")
	}
}
