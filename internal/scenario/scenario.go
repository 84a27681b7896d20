// Package scenario is the deterministic scenario matrix of the repository:
// a registry of named, fully-reproducible runs — workload × cache hierarchy
// × thread count × sampling configuration — each producing a canonical
// Metrics struct with a stable JSON serialization. The golden files under
// testdata/golden pin every scenario's metrics; the regression tests replay
// each scenario on both the fast and the reference simulation paths and
// require byte-identical output, turning every combination into a diffable
// reproduction artifact in the spirit of the paper's Figure 1 tables.
//
// Determinism is by construction: sampling randomization is seeded, the
// simulated clocks are integer cycle counters, and multi-thread scenarios
// run under core.RunWorkload's fixed schedule (thread t completes before
// thread t+1 starts), which fixes the shared-L3 fill order that a
// goroutine schedule would leave to the Go runtime. cmd/simrun is the CLI
// front end; hpcgrepro remains the concurrent-schedule reproduction tool.
package scenario

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/folding"
	"repro/internal/hpcg"
	"repro/internal/machspec"
	"repro/internal/memhier"
	"repro/internal/numa"
	"repro/internal/pebs"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// Scenario is one registered, deterministic experiment configuration.
type Scenario struct {
	// Name is the registry key (unique).
	Name string
	// Description is the one-line -list summary.
	Description string
	// Hierarchy names the cache configuration (see HierarchyNames).
	Hierarchy string
	// Threads is the simulated hardware thread count (>= 1).
	Threads int
	// Iters is the instrumented iteration count (workload scenarios).
	Iters int
	// Period is the PEBS sampling period.
	Period uint64
	// MuxQuantumNs enables load/store multiplexing (0: sample both always).
	MuxQuantumNs uint64
	// Randomize perturbs sampling gaps (deterministically, from Seed).
	Randomize bool
	// Seed drives the randomized gaps.
	Seed int64
	// LatencyThreshold drops load samples below the threshold.
	LatencyThreshold uint64
	// Sockets > 0 routes the run through a NUMA Machine with that many
	// sockets (0 keeps the historical flat-DRAM stack).
	Sockets int
	// Placement names the page placement policy for NUMA scenarios
	// ("first-touch", "interleave"; "" = first-touch).
	Placement string
	// Workload builds the kernel; nil for HPCG scenarios.
	Workload func() workloads.Workload
	// HPCG, when non-nil, makes this an HPCG reproduction scenario.
	HPCG *hpcg.Params
}

// Options adjusts a scenario run without changing its identity.
type Options struct {
	// Reference selects the per-operation reference simulation path. The
	// metrics must be identical to the fast path's — the golden tests pin
	// both.
	Reference bool
	// Threads overrides the scenario's thread count when > 0.
	Threads int
	// Sockets overrides the scenario's socket count when > 0 (simrun
	// -sockets).
	Sockets int
	// Placement overrides the scenario's placement policy when non-empty
	// (simrun -placement).
	Placement string
	// Context cancels the run at the next instance boundary (nil: never).
	// A cancelled run returns partial, Partial-marked metrics alongside a
	// *core.RunError.
	Context context.Context
	// CheckpointEvery snapshots the full simulation state every N completed
	// instances (0: never).
	CheckpointEvery int
	// CheckpointSink receives each snapshot.
	CheckpointSink func(*checkpoint.Snapshot) error
	// CheckpointDemand, when non-nil, is polled at every instance boundary;
	// returning true snapshots there, feeds the snapshot to CheckpointSink,
	// and stops the run with core.ErrCheckpointDemanded — the drain
	// primitive of the simulation server.
	CheckpointDemand func() bool
	// Resume restores a snapshot (validated against the scenario's
	// fingerprint) and continues from its cursor; the completed run is
	// byte-identical to an uninterrupted one.
	Resume *checkpoint.Snapshot
	// Progress, when non-nil, receives live instance/cycle/cache counters
	// at the run's existing instance boundaries (atomic stores only — see
	// core.Machine.ObserveProgress). Progress never appears in Metrics, so
	// observed and unobserved runs produce byte-identical golden output.
	Progress *telemetry.Progress
	// Machine, when non-nil, replaces the scenario's named hierarchy and
	// NUMA topology with a declarative machine spec (simrun -machine,
	// cmd/sweep): the spec's cache levels, socket count, placement and
	// page size become the run's machine, and its sampling section (if
	// present) overrides the scenario's sampling identity. The explicit
	// Sockets/Placement overrides still apply on top of the spec.
	Machine *machspec.Spec
	// Sampling overrides individual sampling knobs (set fields win over
	// both the scenario and the spec — the sweep engine's sampling axis).
	Sampling *machspec.Sampling
}

// HierarchyNames lists the named cache configurations of the matrix.
func HierarchyNames() []string { return []string{"haswell", "small", "noprefetch"} }

// HierarchyConfig resolves a named cache configuration. The names are
// checked-in machine spec files embedded in internal/machspec — the same
// resolution path a -machine file takes — pinned byte-identical to the
// legacy Go-struct values by TestNamedSpecsMatchLegacyConfigs.
func HierarchyConfig(name string) (memhier.Config, error) {
	if name == "" {
		name = "haswell"
	}
	sp, err := machspec.Named(name)
	if err != nil {
		return memhier.Config{}, fmt.Errorf("scenario: unknown hierarchy %q (have %v)", name, HierarchyNames())
	}
	return sp.Memhier(), nil
}

// Config assembles the core configuration for a run of the scenario.
func (sc Scenario) Config(reference bool) (core.Config, error) {
	return sc.configWith(reference, nil)
}

// configWith assembles the core configuration, resolving the machine from
// the spec when one is given (the scenario's named hierarchy otherwise).
// The caller has already folded the spec's topology into sc.Sockets /
// sc.Placement; the spec contributes the cache levels, page size and
// remote latency here.
func (sc Scenario) configWith(reference bool, spec *machspec.Spec) (core.Config, error) {
	var cache memhier.Config
	if spec != nil {
		cache = spec.Memhier()
	} else {
		var err error
		if cache, err = HierarchyConfig(sc.Hierarchy); err != nil {
			return core.Config{}, err
		}
	}
	cfg := core.DefaultConfig()
	cfg.Cache = cache
	cfg.Reference = reference
	cfg.Monitor.PEBS.Period = sc.Period
	if cfg.Monitor.PEBS.Period == 0 {
		cfg.Monitor.PEBS.Period = 200
	}
	cfg.Monitor.PEBS.Events = pebs.SampleLoads | pebs.SampleStores
	cfg.Monitor.PEBS.Randomize = sc.Randomize
	cfg.Monitor.PEBS.Seed = sc.Seed
	cfg.Monitor.PEBS.LatencyThreshold = sc.LatencyThreshold
	cfg.Monitor.MuxQuantumNs = sc.MuxQuantumNs
	if sc.Sockets > 0 {
		policy, err := numa.ParsePolicy(sc.Placement)
		if err != nil {
			return core.Config{}, err
		}
		cfg.NUMA = numa.Config{Sockets: sc.Sockets, Policy: policy}
		if spec != nil {
			cfg.NUMA.PageSize = spec.PageSize
			cfg.NUMA.RemoteDRAMLatency = spec.DRAM.RemoteLatency
		}
	}
	return cfg, nil
}

// applySampling folds a sampling override into the scenario identity (set
// fields win, nil fields inherit).
func applySampling(sc *Scenario, sp *machspec.Sampling) {
	if sp == nil {
		return
	}
	if sp.Period != nil {
		sc.Period = *sp.Period
	}
	if sp.MuxQuantumNs != nil {
		sc.MuxQuantumNs = *sp.MuxQuantumNs
	}
	if sp.Randomize != nil {
		sc.Randomize = *sp.Randomize
	}
	if sp.Seed != nil {
		sc.Seed = *sp.Seed
	}
	if sp.LatencyThreshold != nil {
		sc.LatencyThreshold = *sp.LatencyThreshold
	}
}

// SkipReason reports why a global override combination cannot apply to a
// scenario — the matrix driver (simrun -run all, the sweep engine) skips
// such points with a notice instead of aborting a half-finished matrix.
// Empty string: the combination is runnable.
func SkipReason(sc Scenario, opts Options) string {
	threads := sc.Threads
	if opts.Threads > 0 {
		threads = opts.Threads
	}
	if sc.HPCG != nil && threads > 1 {
		return "HPCG scenarios are single-thread (no deterministic parallel schedule); -threads override ignored"
	}
	sockets := sc.Sockets
	if opts.Machine != nil {
		sockets = opts.Machine.Sockets
	}
	if opts.Sockets > 0 {
		sockets = opts.Sockets
	}
	if opts.Placement != "" && sockets == 0 {
		return fmt.Sprintf("placement %q requires a NUMA topology (no socket override and the machine has none)", opts.Placement)
	}
	return ""
}

// registry holds the scenarios in registration order; names is the
// uniqueness index.
var (
	registry []Scenario
	names    = map[string]int{}
)

// Register adds a scenario to the registry.
func Register(sc Scenario) error {
	if sc.Name == "" {
		return fmt.Errorf("scenario: empty name")
	}
	if _, dup := names[sc.Name]; dup {
		return fmt.Errorf("scenario: duplicate name %q", sc.Name)
	}
	if (sc.Workload == nil) == (sc.HPCG == nil) {
		return fmt.Errorf("scenario %q: exactly one of Workload and HPCG must be set", sc.Name)
	}
	if sc.Threads < 1 {
		return fmt.Errorf("scenario %q: Threads must be >= 1", sc.Name)
	}
	if sc.HPCG != nil && sc.Threads != 1 {
		// Run would reject this on every invocation; fail at registration
		// like the other invariants.
		return fmt.Errorf("scenario %q: HPCG scenarios are single-thread (no deterministic parallel schedule)", sc.Name)
	}
	if sc.Sockets < 0 {
		return fmt.Errorf("scenario %q: negative socket count", sc.Name)
	}
	if sc.Sockets > 0 {
		if _, err := numa.ParsePolicy(sc.Placement); err != nil {
			return fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
	} else if sc.Placement != "" {
		return fmt.Errorf("scenario %q: placement %q without sockets", sc.Name, sc.Placement)
	}
	if _, err := HierarchyConfig(sc.Hierarchy); err != nil {
		return err
	}
	names[sc.Name] = len(registry)
	registry = append(registry, sc)
	return nil
}

// mustRegister is Register for the built-in table.
func mustRegister(sc Scenario) {
	if err := Register(sc); err != nil {
		panic(err)
	}
}

// All returns the registered scenarios sorted by name.
func All() []Scenario {
	out := append([]Scenario(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Get looks a scenario up by name.
func Get(name string) (Scenario, bool) {
	i, ok := names[name]
	if !ok {
		return Scenario{}, false
	}
	return registry[i], true
}

// Run executes the scenario deterministically and collects its canonical
// metrics. Every scenario runs on a Machine under a deterministic schedule
// (the thread-major workload schedule, or the one-thread HPCG solve), so
// repeated runs — and the fast vs. reference paths — are byte-identical.
func Run(sc Scenario, opts Options) (*Metrics, error) {
	spec := opts.Machine
	if spec != nil {
		// The spec replaces the whole machine: hierarchy, topology and (if
		// it carries a sampling section) the sampling identity. Explicit
		// Sockets/Placement overrides still apply on top below.
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
		sc.Sockets = spec.Sockets
		sc.Placement = spec.Placement
		applySampling(&sc, spec.Sampling)
	}
	applySampling(&sc, opts.Sampling)
	threads := sc.Threads
	if opts.Threads > 0 {
		threads = opts.Threads
	}
	if opts.Sockets > 0 {
		sc.Sockets = opts.Sockets
	}
	if opts.Placement != "" {
		sc.Placement = opts.Placement
		if err := machspec.ValidateTopology(sc.Sockets, sc.Placement, 0); err != nil {
			// The shared topology validation (machspec, simrun and
			// hpcgrepro surface the same message): a placement with no
			// NUMA topology is inert and must not silently run.
			return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
	}
	cfg, err := sc.configWith(opts.Reference, spec)
	if err != nil {
		return nil, err
	}
	levelNames := make([]string, len(cfg.Cache.Levels))
	for i, lv := range cfg.Cache.Levels {
		levelNames[i] = lv.Name
	}
	hierarchy := sc.Hierarchy
	if hierarchy == "" {
		hierarchy = "haswell"
	}
	if spec != nil {
		hierarchy = spec.Name
		if hierarchy == "" {
			hierarchy = "custom"
		}
	}
	numaOn := sc.Sockets > 0

	m := &Metrics{
		Scenario:  sc.Name,
		Hierarchy: hierarchy,
		Threads:   threads,
		Iters:     sc.Iters,
	}
	if numaOn {
		m.Sockets = sc.Sockets
		// sc.Config already parsed sc.Placement into cfg.NUMA.
		m.Placement = cfg.NUMA.Policy.String()
		m.PageSize = cfg.NUMA.PageSize
		if m.PageSize == 0 {
			m.PageSize = numa.DefaultPageSize
		}
	}

	var ck *core.Checkpointer
	if opts.CheckpointEvery > 0 || opts.Resume != nil || opts.CheckpointDemand != nil || opts.Progress != nil {
		tagName := sc.Name
		if spec != nil {
			// A machine-spec override changes the simulated hardware: make
			// the snapshot tag reject resuming under a different machine.
			tagName = sc.Name + "|machine:" + hierarchy
		}
		ck = &core.Checkpointer{
			Every:    opts.CheckpointEvery,
			Tag:      core.CheckpointTag(tagName, threads, cfg),
			Sink:     opts.CheckpointSink,
			Resume:   opts.Resume,
			Demand:   opts.CheckpointDemand,
			Progress: opts.Progress,
		}
	}
	if opts.Progress != nil {
		if sc.HPCG != nil {
			opts.Progress.SetTotal(uint64(sc.HPCG.MaxIters))
		} else {
			opts.Progress.SetTotal(uint64(threads * sc.Iters))
		}
	}

	if sc.HPCG != nil {
		if threads != 1 {
			return nil, fmt.Errorf("scenario %q: HPCG golden scenarios are single-thread (the barrier-coupled parallel solve has no deterministic schedule); use hpcgrepro -threads for the concurrent run", sc.Name)
		}
		m.Workload = "hpcg"
		m.Iters = sc.HPCG.MaxIters
		run, err := core.RunHPCGCheckpointed(opts.Context, cfg, *sc.HPCG, ck)
		if err != nil {
			if rerr := asRunError(err); rerr != nil && run != nil {
				markPartial(m, rerr)
				if run.CG != nil && len(run.CG.Residuals) > 0 {
					m.CG = cgMetrics(run.CG)
				}
				return m, err
			}
			return nil, err
		}
		s := run.Session
		m.CG = cgMetrics(run.CG)
		m.PerThread, m.SharedL3, m.NUMA = machineMetrics(s.Machine, func(int) *folding.Folded { return run.Folded }, levelNames)
		m.PerThread[0].Phases = paperPhaseMetrics(run.Paper, s.Hier.RemoteDRAMPossible())
		m.Objects = objectMetrics(s.Mon.Registry().Objects(), s.Placement)
		return m, nil
	}

	w := sc.Workload()
	m.Workload = w.Name()
	res, err := core.RunWorkload(opts.Context, cfg, w, sc.Iters, threads, ck)
	if err != nil {
		if rerr := asRunError(err); rerr != nil && res != nil {
			markPartial(m, rerr)
			return m, err
		}
		return nil, err
	}
	folded := func(thread int) *folding.Folded { return res.Threads[thread-1].Folded }
	m.PerThread, m.SharedL3, m.NUMA = machineMetrics(res.Machine, folded, levelNames)
	m.Objects = objectMetrics(res.Machine.Primary().Mon.Registry().Objects(), res.Machine.Placement)
	return m, nil
}

// asRunError unwraps a clean instance-boundary stop (nil for hard
// failures).
func asRunError(err error) *core.RunError {
	var rerr *core.RunError
	if errors.As(err, &rerr) {
		return rerr
	}
	return nil
}

// markPartial stamps metrics from an interrupted run: consumers (and the
// JSON artifact) see explicitly that these numbers cover only a prefix of
// the schedule. The fields are omitempty, so completed runs serialize
// exactly as before.
func markPartial(m *Metrics, rerr *core.RunError) {
	m.Partial = true
	m.Fault = rerr.Cause.Error()
	m.FaultCursor = fmt.Sprintf("thread %d, iter %d", rerr.Cursor.Thread, rerr.Cursor.Iter)
}

// cgMetrics flattens a CG solve result.
func cgMetrics(cg *hpcg.CGResult) *CGMetrics {
	return &CGMetrics{
		Iterations:    cg.Iterations,
		Residuals:     cg.Residuals,
		FinalError:    cg.FinalError,
		FinalResidual: cg.Residuals[len(cg.Residuals)-1],
	}
}

// RunByName resolves and runs a registered scenario.
func RunByName(name string, opts Options) (*Metrics, error) {
	sc, ok := Get(name)
	if !ok {
		return nil, fmt.Errorf("scenario: unknown scenario %q (run -list for the registry)", name)
	}
	return Run(sc, opts)
}
