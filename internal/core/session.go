// Package core is the top-level facade of the library: it assembles the
// simulated machine (cache hierarchy, core, address space, synthetic
// binary), the monitoring runtime (Extrae-like tracing with PEBS memory
// sampling) and the Folding analysis into ready-to-run experiment
// pipelines. The cmd/ tools, the examples and the benchmark harness all
// drive the reproduction through this package.
package core

import (
	"math/rand"

	"repro/internal/cpu"
	"repro/internal/extrae"
	"repro/internal/folding"
	"repro/internal/memhier"
	"repro/internal/numa"
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
	// (the default) builds the flat machine with no placement layer — the
	// historical configuration, byte-identical to every pre-NUMA run: one
	// shared L3, or a private one when the machine has a single thread.
	// Sockets >= 1 routes all DRAM fills through a page-granular
	// placement: cores are grouped into contiguous socket blocks, each
	// socket gets its own shared L3 and memory node, and fills whose home
	// node is another socket are charged the remote latency and labelled
	// SrcDRAMRemote. A 1-socket routed Machine is byte-identical to the
	// flat Machine (pinned by the partition suite).
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

// Session is a one-thread Machine seen as a single simulated core: the
// machine's binary, address space and trace writer next to its only
// thread's hierarchy, core and monitor.
type Session struct {
	*Machine
	*MachineThread
}

// applyReference expands the Reference shorthand into the concrete
// per-operation knobs of the sub-configurations.
func applyReference(cfg Config) Config {
	if cfg.Reference {
		cfg.CPU.PerOpStreams = true
		cfg.Monitor.PerOpObserve = true
	}
	return cfg
}

// NewSession builds the stack: a one-thread Machine.
func NewSession(cfg Config) (*Session, error) {
	m, err := NewMachine(cfg, 1)
	if err != nil {
		return nil, err
	}
	return &Session{m, m.Primary()}, nil
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

// Fold extracts and folds the named region from the session's trace.
func (s *Session) Fold(region extrae.Region) (*folding.Folded, error) {
	return s.Machine.Fold(region, 1)
}
