package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/memhier"
	"repro/internal/numa"
	"repro/internal/workloads"
)

// ctxFor builds a thread's workload context on machine m.
func ctxFor(th *MachineThread, m *Machine) *workloads.Ctx {
	return &workloads.Ctx{Core: th.Core, Mon: th.Mon, Bin: m.Bin}
}

// numaConfig returns the deterministic test configuration routed through a
// NUMA placement.
func numaConfig(sockets int, policy numa.Policy) Config {
	cfg := testConfig()
	cfg.NUMA = numa.Config{Sockets: sockets, Policy: policy}
	return cfg
}

// TestNUMASingleSocketIdenticalToMachine is the NUMA equivalence gate: a
// 1-socket NUMA-routed Machine — every DRAM fill resolved through the page
// placement, pages first-touched or interleaved onto the only node — must
// be byte-identical to the flat (unrouted) Machine for every partitioned
// workload, including the serialized PRV/PCF trace (which also pins the
// label and counter set: a single-node stack must not grow the remote
// source value or the REMOTE_DRAM counter). At one thread the routed
// machine's L3 is shared and the flat machine's private, so this also
// pins the private L3 to the shared-cache model.
func TestNUMASingleSocketIdenticalToMachine(t *testing.T) {
	const iters = 4
	for name, mk := range partitionedWorkloads() {
		t.Run(name, func(t *testing.T) {
			for _, policy := range []numa.Policy{numa.FirstTouch, numa.Interleave} {
				t.Run(policy.String(), func(t *testing.T) {
					for _, threads := range []int{1, 2} {
						assertRoutedIdenticalToFlat(t, mustRunWorkload(t, testConfig(), mk(), iters, threads),
							mustRunWorkload(t, numaConfig(1, policy), mk(), iters, threads))
					}
				})
			}
		})
	}
}

// assertRoutedIdenticalToFlat compares a flat machine run with the same
// run on a 1-socket routed machine, thread by thread and as PRV/PCF bytes.
func assertRoutedIdenticalToFlat(t *testing.T, flat, routed *MachineWorkloadResult) {
	t.Helper()
	threads := flat.Machine.NThreads()
	for th := 0; th < threads; th++ {
		a := flat.Machine.Threads[th]
		b := routed.Machine.Threads[th]
		if x, y := a.Core.PMU().TrueSnapshot(), b.Core.PMU().TrueSnapshot(); x != y {
			t.Errorf("%d threads, thread %d PMU: flat %v, routed %v", threads, th+1, x, y)
		}
		if x, y := a.Core.Cycles(), b.Core.Cycles(); x != y {
			t.Errorf("%d threads, thread %d cycles: flat %d, routed %d", threads, th+1, x, y)
		}
		if x, y := a.Hier.Levels(), b.Hier.Levels(); x != y {
			t.Fatalf("%d threads, thread %d levels: flat %d, routed %d", threads, th+1, x, y)
		}
		for lvl := 0; lvl < a.Hier.Levels(); lvl++ {
			if x, y := a.Hier.LevelStats(lvl), b.Hier.LevelStats(lvl); x != y {
				t.Errorf("%d threads, thread %d level %d: flat %+v, routed %+v", threads, th+1, lvl, x, y)
			}
		}
		if b.Hier.RemoteDRAMAccesses() != 0 {
			t.Errorf("%d threads, thread %d: 1-socket machine recorded remote fills", threads, th+1)
		}
		ra, rb := a.Mon.Records(), b.Mon.Records()
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("%d threads, thread %d trace records differ (%d vs %d)", threads, th+1, len(ra), len(rb))
		}
	}
	prvA, pcfA := traceBytes(t, flat.Machine)
	prvB, pcfB := traceBytes(t, routed.Machine)
	if !bytes.Equal(prvA, prvB) {
		t.Errorf("%d threads: PRV trace bytes differ", threads)
	}
	if !bytes.Equal(pcfA, pcfB) {
		t.Errorf("%d threads: PCF label bytes differ:\nflat:\n%s\nrouted:\n%s", threads, pcfA, pcfB)
	}
}

// TestNUMATwoSocketInterleaveRemoteFills pins the policy axis end to end
// on a 2-socket STREAM run: under interleave every thread sees remote
// fills; under first-touch (disjoint blocks, sequential schedule) remote
// fills only occur on the handful of partition-straddling pages. The PMU's
// REMOTE_DRAM counter must agree with the hierarchy's remote fill count,
// and the node controllers must conserve the fills the sockets issued.
func TestNUMATwoSocketInterleaveRemoteFills(t *testing.T) {
	const iters, threads = 4, 4
	run := func(policy numa.Policy) (*MachineWorkloadResult, uint64, uint64) {
		res := mustRunWorkload(t, numaConfig(2, policy), partitionedWorkloads()["stream"](), iters, threads)
		var total, remote uint64
		for _, th := range res.Machine.Threads {
			total += th.Hier.DRAMAccesses()
			remote += th.Hier.RemoteDRAMAccesses()
			if got := th.Core.PMU().True(cpu.CtrRemoteDRAM); got != th.Hier.RemoteDRAMAccesses() {
				// The PMU counts remote loads/stores; every remote fill is
				// exactly one line-resolving op, so the two must agree.
				t.Errorf("%s: thread %d REMOTE_DRAM=%d, hier remote=%d",
					policy, th.Mon.Thread(), got, th.Hier.RemoteDRAMAccesses())
			}
		}
		return res, total, remote
	}

	il, ilTotal, ilRemote := run(numa.Interleave)
	if ilRemote == 0 {
		t.Fatal("interleave produced no remote fills")
	}
	// Node controllers conserve the traffic the sockets issued.
	var served, servedRemote uint64
	for _, st := range il.Machine.Placement.Stats() {
		served += st.FillsLocal + st.FillsRemote
		servedRemote += st.FillsRemote
	}
	if served != ilTotal || servedRemote != ilRemote {
		t.Errorf("node fills served %d/%d remote, sockets issued %d/%d",
			served, servedRemote, ilTotal, ilRemote)
	}

	_, ftTotal, ftRemote := run(numa.FirstTouch)
	if ftTotal == 0 {
		t.Fatal("first-touch run issued no DRAM fills")
	}
	if ftRemote*4 >= ilRemote {
		t.Errorf("first-touch remote fills (%d) not well below interleave (%d)", ftRemote, ilRemote)
	}

	// The remote source must be labelled in the 2-socket PCF.
	var prv, pcf bytes.Buffer
	if err := il.Machine.WriteTrace(&prv, &pcf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(pcf.Bytes(), []byte("RemoteDRAM")) {
		t.Error("2-socket PCF missing the RemoteDRAM source label")
	}
	if !bytes.Contains(pcf.Bytes(), []byte("REMOTE_DRAM")) {
		t.Error("2-socket PCF missing the REMOTE_DRAM counter label")
	}
}

// TestNUMAConcurrentPlacement runs a 4-thread team solve on 2 sockets
// (concurrent first-touch assignment, concurrent per-node accounting, LLC
// writeback routing under the shard locks): the -race coverage for the
// NUMA layer. Totals must still conserve regardless of the schedule.
func TestNUMAConcurrentPlacement(t *testing.T) {
	for _, policy := range []numa.Policy{numa.FirstTouch, numa.Interleave} {
		t.Run(policy.String(), func(t *testing.T) {
			params := testHPCGParams()
			params.MaxIters = 2
			res, err := RunHPCGParallel(nil, numaConfig(2, policy), params, 4)
			if err != nil {
				t.Fatal(err)
			}
			var total, remote uint64
			for _, th := range res.Machine.Threads {
				total += th.Hier.DRAMAccesses()
				remote += th.Hier.RemoteDRAMAccesses()
			}
			var served, servedRemote uint64
			for _, st := range res.Machine.Placement.Stats() {
				served += st.FillsLocal + st.FillsRemote
				servedRemote += st.FillsRemote
			}
			if served != total || servedRemote != remote {
				t.Errorf("%s: nodes served %d/%d, sockets issued %d/%d",
					policy, served, servedRemote, total, remote)
			}
		})
	}
}

// TestNUMABindOverridesPolicy exercises the explicit per-object bind: the
// STREAM arrays bound to node 1 before the run produce node-1 fills even
// under a first-touch policy with all threads on socket 0.
func TestNUMABindOverridesPolicy(t *testing.T) {
	cfg := numaConfig(2, numa.FirstTouch)
	m, err := NewMachine(cfg, 1) // one thread on socket 0; socket 1 is memory-only
	if err != nil {
		t.Fatal(err)
	}
	w := partitionedWorkloads()["stream"]()
	primary := m.Primary()
	if err := w.Setup(ctxFor(primary, m)); err != nil {
		t.Fatal(err)
	}
	// Bind the whole heap onto node 1: every fill is now remote.
	if err := m.Placement.Bind(0x2adf00000000, 0x2ae000000000, 1); err != nil {
		t.Fatal(err)
	}
	m.StartAll()
	if err := w.RunPartitionRange(ctxFor(primary, m), 0, 2, 0, w.Elements()); err != nil {
		t.Fatal(err)
	}
	m.StopAll()
	hier := primary.Hier
	if hier.DRAMAccesses() == 0 {
		t.Fatal("no DRAM fills")
	}
	if hier.RemoteDRAMAccesses() != hier.DRAMAccesses() {
		t.Errorf("bound-remote run: %d of %d fills remote",
			hier.RemoteDRAMAccesses(), hier.DRAMAccesses())
	}
	st := m.Placement.Stats()
	if st[1].FillsRemote != hier.DRAMAccesses() || st[0].FillsLocal != 0 {
		t.Errorf("node stats: %+v", st)
	}
}

// TestNUMASlowDRAMDefaultRemoteLatency pins the default clamp: a valid
// flat config whose local DRAM latency exceeds the 370-cycle default must
// still build a NUMA machine (the defaulted remote latency clamps up to
// the local cost instead of failing the remote >= local validation).
func TestNUMASlowDRAMDefaultRemoteLatency(t *testing.T) {
	cfg := numaConfig(2, numa.Interleave)
	cfg.Cache.DRAMLatency = 400
	m, err := NewMachine(cfg, 2)
	if err != nil {
		t.Fatalf("slow-DRAM NUMA machine rejected: %v", err)
	}
	if got := m.Primary().Hier.SourceLatency(memhier.SrcDRAMRemote); got != 400 {
		t.Errorf("defaulted remote latency = %d, want clamped 400", got)
	}
	// An explicit below-local override still fails loudly.
	cfg.NUMA.RemoteDRAMLatency = 300
	if _, err := NewMachine(cfg, 2); err == nil {
		t.Error("explicit remote latency below local accepted")
	}
	// A remote latency on a single-socket machine is inert and rejected.
	single := numaConfig(1, numa.FirstTouch)
	single.NUMA.RemoteDRAMLatency = 500
	if _, err := NewMachine(single, 2); err == nil {
		t.Error("remote latency on a 1-socket machine accepted")
	}
}

// TestNUMARemoteLatencyCharged pins the cost model: the remote fill stall
// uses the remote latency (the default 370 > 230 local), visible as a
// higher SourceLatency and in remote samples' PEBS weight.
func TestNUMARemoteLatencyCharged(t *testing.T) {
	m, err := NewMachine(numaConfig(2, numa.Interleave), 2)
	if err != nil {
		t.Fatal(err)
	}
	hier := m.Primary().Hier
	if got := hier.SourceLatency(memhier.SrcDRAMRemote); got != numa.DefaultRemoteDRAMLatency {
		t.Errorf("remote latency = %d, want %d", got, numa.DefaultRemoteDRAMLatency)
	}
	if got := hier.SourceLatency(memhier.SrcDRAM); got != m.Cfg.Cache.DRAMLatency {
		t.Errorf("local latency = %d, want %d", got, m.Cfg.Cache.DRAMLatency)
	}
}
