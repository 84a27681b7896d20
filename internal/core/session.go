// Package core is the top-level facade of the library: it assembles the
// simulated machine (cache hierarchy, core, address space, synthetic
// binary), the monitoring runtime (Extrae-like tracing with PEBS memory
// sampling) and the Folding analysis into ready-to-run experiment
// pipelines. The cmd/ tools, the examples and the benchmark harness all
// drive the reproduction through this package.
package core

import (
	"fmt"
	"math/rand"

	"repro/internal/cpu"
	"repro/internal/extrae"
	"repro/internal/folding"
	"repro/internal/memhier"
	"repro/internal/numa"
	"repro/internal/prog"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// defaultHeapBase mirrors the 0x2adf… heap addresses visible in the
// paper's Figure 1.
const defaultHeapBase = 0x2adf00000000

// Config assembles the full stack's configuration.
type Config struct {
	// Cache configures the memory hierarchy.
	Cache memhier.Config
	// CPU configures the core model.
	CPU cpu.Config
	// Monitor configures the Extrae-like runtime (PEBS, multiplexing,
	// tracking threshold, drain overhead).
	Monitor extrae.Config
	// Folding configures the analysis.
	Folding folding.Config
	// NUMA configures the multi-socket topology of a Machine. Sockets == 0
	// (the default) builds the flat single-L3 machine with no placement
	// layer — the historical configuration, byte-identical to every
	// pre-NUMA run. Sockets >= 1 routes all DRAM fills through a
	// page-granular placement: cores are grouped into contiguous socket
	// blocks, each socket gets its own shared L3 and memory node, and
	// fills whose home node is another socket are charged the remote
	// latency and labelled SrcDRAMRemote. A 1-socket routed Machine is
	// byte-identical to the flat Machine (pinned by the partition suite).
	// Sessions ignore this field: NUMA runs go through a Machine.
	NUMA numa.Config
	// HeapBase is the simulated heap base address.
	HeapBase uint64
	// ASLRSeed, when nonzero, randomizes the heap base per session —
	// simulating address-space layout randomization across runs, the
	// reason the paper multiplexes loads and stores in a single run
	// instead of running twice.
	ASLRSeed int64
	// Reference selects the straightforward per-operation simulation path
	// (per-op monitor observation and per-op stream issue) instead of the
	// fast path (countdown-gated sampling and batched stream issue). The
	// two paths must produce identical results; the fast-path equivalence
	// tests run every experiment both ways and compare byte for byte.
	Reference bool
}

// DefaultConfig returns the paper-like stack configuration.
func DefaultConfig() Config {
	return Config{
		Cache:    memhier.DefaultConfig(),
		CPU:      cpu.DefaultConfig(),
		Monitor:  extrae.DefaultConfig(),
		Folding:  folding.DefaultConfig(),
		HeapBase: defaultHeapBase,
	}
}

// Session is an assembled simulated machine with monitoring attached.
type Session struct {
	Cfg  Config
	Hier *memhier.Hierarchy
	Core *cpu.Core
	Bin  *prog.Binary
	AS   *prog.AddressSpace
	Mon  *extrae.Monitor
}

// applyReference expands the Reference shorthand into the concrete
// per-operation knobs of the sub-configurations (shared by Session and
// Machine so the two assemble identical reference stacks).
func applyReference(cfg Config) Config {
	if cfg.Reference {
		cfg.CPU.PerOpStreams = true
		cfg.Monitor.PerOpObserve = true
	}
	return cfg
}

// NewSession builds the stack.
func NewSession(cfg Config) (*Session, error) {
	cfg = applyReference(cfg)
	hier, err := memhier.New(cfg.Cache)
	if err != nil {
		return nil, err
	}
	c, err := cpu.New(cfg.CPU, hier)
	if err != nil {
		return nil, err
	}
	bin := prog.NewBinary()
	as := prog.NewAddressSpace(heapBase(cfg))
	mon, err := extrae.New(cfg.Monitor, c, bin, as)
	if err != nil {
		return nil, err
	}
	return &Session{Cfg: cfg, Hier: hier, Core: c, Bin: bin, AS: as, Mon: mon}, nil
}

// heapBase resolves the configured heap base, randomizing it by up to
// 1 TiB in page steps when an ASLR seed is set — like Linux ASLR does for
// the heap of a PIE binary.
func heapBase(cfg Config) uint64 {
	base := cfg.HeapBase
	if base == 0 {
		base = defaultHeapBase
	}
	if cfg.ASLRSeed != 0 {
		rng := rand.New(rand.NewSource(cfg.ASLRSeed))
		base += uint64(rng.Int63n(1<<40)) &^ 0xfff
	}
	return base
}

// Ctx returns the workload-facing view of the session.
func (s *Session) Ctx() *workloads.Ctx {
	return &workloads.Ctx{Core: s.Core, Mon: s.Mon, Bin: s.Bin}
}

// FuncOf resolves an instruction pointer to its function name ("" when
// unknown); used to label folded phases.
func (s *Session) FuncOf(ip uint64) string {
	if loc, ok := s.Bin.Lookup(ip); ok {
		return loc.Function
	}
	return ""
}

// foldInstances is the shared folding tail of Session.Fold and
// Machine.Fold: bind the config defaults — FuncOf resolves through the
// binary, PhaseIP attributes samples taken under an instrumented call
// frame to the outermost frame of the emitting monitor's stack table
// (e.g. the multigrid coarse-level smoother runs the same code as the
// fine smoother, but belongs to ComputeMG_ref) — then fold and label.
func foldInstances(instances []folding.Instance, cfg folding.Config, region extrae.Region,
	funcOf func(ip uint64) string, mon *extrae.Monitor) (*folding.Folded, error) {
	if cfg.FuncOf == nil {
		cfg.FuncOf = funcOf
	}
	if cfg.PhaseIP == nil {
		cfg.PhaseIP = func(smp *trace.Event) uint64 {
			if frames := mon.Stacks().Frames(smp.StackID); len(frames) > 0 {
				return frames[len(frames)-1]
			}
			return smp.IP
		}
	}
	folded, err := folding.Fold(instances, cfg)
	if err != nil {
		return nil, err
	}
	folded.Region = int64(region)
	folded.LabelPhases(funcOf)
	return folded, nil
}

// Fold extracts and folds the named region from the monitor's trace.
func (s *Session) Fold(region extrae.Region) (*folding.Folded, error) {
	instances, err := folding.Extract(s.Mon.Log(), int64(region))
	if err != nil {
		return nil, err
	}
	if len(instances) == 0 {
		return nil, fmt.Errorf("core: no instances of region %q in trace", s.Mon.RegionName(region))
	}
	return foldInstances(instances, s.Cfg.Folding, region, s.FuncOf, s.Mon)
}

// RunWorkloadResult bundles a monitored workload run with its folding.
type RunWorkloadResult struct {
	Session *Session
	Folded  *folding.Folded
	// Partial marks a run stopped before completion; Folded may be nil if
	// no instance finished.
	Partial bool
}

// RunWorkload sets up, monitors and folds a synthetic workload: the
// quickstart pipeline.
func RunWorkload(cfg Config, w workloads.Workload, iters int) (*RunWorkloadResult, error) {
	s, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	ctx := s.Ctx()
	if err := w.Setup(ctx); err != nil {
		return nil, err
	}
	s.Mon.Start()
	if err := w.Run(ctx, iters); err != nil {
		return nil, err
	}
	s.Mon.Stop()
	folded, err := s.Fold(w.Region())
	if err != nil {
		return nil, err
	}
	return &RunWorkloadResult{Session: s, Folded: folded}, nil
}

// WriteTrace serializes the session's trace and labels to the writers
// (PRV-style text and PCF).
func (s *Session) WriteTrace(prv, pcf interface {
	Write(p []byte) (int, error)
}) error {
	log := s.Mon.Log()
	var dur uint64
	if log.Len() > 0 {
		dur = log.Last().TimeNs
	}
	w, err := trace.NewWriter(prv, 1, 1, dur)
	if err != nil {
		return err
	}
	rec := trace.Record{Task: s.Mon.Task(), Thread: s.Mon.Thread()}
	for _, c := range log.Chunks() {
		for i := range c {
			if err := writeEvent(w, &rec, &c[i]); err != nil {
				return err
			}
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	return s.Mon.Labels().WritePCF(pcf)
}

// writeEvent renders e into rec, whose task and thread are set and whose
// pair buffer is reused from event to event, and writes it.
func writeEvent(w *trace.Writer, rec *trace.Record, e *trace.Event) error {
	rec.TimeNs = e.TimeNs
	rec.Pairs = e.AppendPairs(rec.Pairs[:0])
	return w.Write(*rec)
}
