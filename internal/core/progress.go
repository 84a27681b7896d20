package core

import (
	"repro/internal/cpu"
	"repro/internal/telemetry"
)

// Progress observation publishes a run's instantaneous counters into a
// telemetry.Progress mailbox. It happens only at the existing instance
// boundaries — the same quiescent points as the cancellation poll, after the
// sampling engine has flushed — so observed and unobserved runs execute the
// identical instruction stream. The readers below are plain accessor calls
// and atomic stores: no allocation, no wall clock.

// ObserveProgress publishes machine-wide totals: cycles and instructions
// summed over threads, and per-level hit/fill counts summed over each
// thread's view of its hierarchy (the shared-L3 level reports each thread's
// own accesses, so the sum is the machine total), plus the
// completed-instance count.
//
//repro:noalloc
func (m *Machine) ObserveProgress(p *telemetry.Progress, done uint64) {
	p.SetInstances(done)
	var cycles, instr uint64
	for _, th := range m.Threads {
		cycles += th.Core.Cycles()
		instr += th.Core.PMU().True(cpu.CtrInstructions)
	}
	p.SetCPU(cycles, instr)
	n := m.Primary().Hier.Levels()
	if n > telemetry.ProgressLevels {
		n = telemetry.ProgressLevels
	}
	p.SetLevelCount(n)
	for i := 0; i < n; i++ {
		var hits, fills uint64
		for _, th := range m.Threads {
			if i >= th.Hier.Levels() {
				continue
			}
			st := th.Hier.LevelStats(i)
			hits += st.Hits
			fills += st.Misses
		}
		p.SetLevel(i, hits, fills)
	}
}

// observe publishes the machine's progress when a mailbox is attached;
// safe on a nil receiver so the run loop calls it unconditionally.
//
//repro:noalloc
func (ck *Checkpointer) observe(m *Machine, done int) {
	if ck != nil && ck.Progress != nil {
		m.ObserveProgress(ck.Progress, uint64(done))
	}
}
