package paraver_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/memhier"
	"repro/internal/numa"
	"repro/internal/pebs"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// These goldens pin the PRV/PCF trace emission byte-exactly — the
// multi-thread output format introduced with the Machine is an interchange
// surface (Paraver, cmd/folding, cmd/memview all parse it), so format
// drift must be a deliberate, reviewed diff. Refresh with
// `go test ./internal/paraver -update`.

var update = flag.Bool("update", false, "rewrite the golden trace files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
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
		t.Errorf("%s drifted from golden (%d vs %d bytes);\ngot:\n%s", name, len(got), len(want), got)
	}
}

// prvCase is one synthetic record stream with its writer geometry.
type prvCase struct {
	name     string
	nTasks   int
	nThreads int
	dur      uint64
	records  []trace.Record
}

func prvCases() []prvCase {
	sample := []trace.TypeValue{
		{Type: trace.TypeSampleAddr, Value: 0x2adf00001040},
		{Type: trace.TypeSampleLatency, Value: 230},
		{Type: trace.TypeSampleSource, Value: 3},
		{Type: trace.TypeSampleStore, Value: 0},
		{Type: trace.TypeSampleIP, Value: 0x400404},
		{Type: trace.TypeSampleStack, Value: 1},
		{Type: trace.TypeSampleSize, Value: 8},
		{Type: trace.TypeCounterBase, Value: 1500},
		{Type: trace.TypeCounterBase + 1, Value: 4200},
	}
	return []prvCase{
		{
			name: "single_thread", nTasks: 1, nThreads: 1, dur: 100,
			records: []trace.Record{
				{TimeNs: 0, Task: 1, Thread: 1, Pairs: []trace.TypeValue{{Type: trace.TypeRegion, Value: 5}}},
				{TimeNs: 40, Task: 1, Thread: 1, Pairs: sample},
				{TimeNs: 100, Task: 1, Thread: 1, Pairs: []trace.TypeValue{{Type: trace.TypeRegion, Value: 0}}},
			},
		},
		{
			// Two threads interleaved in merge order, with same-timestamp
			// collisions (ordered by task then thread) and an allocation
			// record.
			name: "two_threads", nTasks: 1, nThreads: 2, dur: 120,
			records: []trace.Record{
				{TimeNs: 0, Task: 1, Thread: 1, Pairs: []trace.TypeValue{{Type: trace.TypeRegion, Value: 5}}},
				{TimeNs: 0, Task: 1, Thread: 2, Pairs: []trace.TypeValue{{Type: trace.TypeRegion, Value: 5}}},
				{TimeNs: 30, Task: 1, Thread: 1, Pairs: sample},
				{TimeNs: 30, Task: 1, Thread: 2, Pairs: []trace.TypeValue{
					{Type: trace.TypeAllocAddr, Value: 0x2adf00002000},
					{Type: trace.TypeAllocSize, Value: 65536},
					{Type: trace.TypeAllocStack, Value: 2},
				}},
				{TimeNs: 90, Task: 1, Thread: 1, Pairs: []trace.TypeValue{{Type: trace.TypeRegion, Value: 0}}},
				{TimeNs: 120, Task: 1, Thread: 2, Pairs: []trace.TypeValue{{Type: trace.TypeRegion, Value: 0}}},
			},
		},
	}
}

// TestPRVGolden pins the PRV text emission for hand-built streams.
func TestPRVGolden(t *testing.T) {
	for _, tc := range prvCases() {
		t.Run(tc.name, func(t *testing.T) {
			var prv bytes.Buffer
			w, err := trace.NewWriter(&prv, tc.nTasks, tc.nThreads, tc.dur)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range tc.records {
				if err := w.Write(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.name+".prv.golden", prv.Bytes())
		})
	}
}

// TestPCFGolden pins the PCF label emission (type and value tables, sorted
// sections).
func TestPCFGolden(t *testing.T) {
	l := trace.NewLabels()
	l.SetType(trace.TypeRegion, "User function")
	l.SetValue(trace.TypeRegion, 0, "End")
	l.SetValue(trace.TypeRegion, 5, "stream_triad")
	l.SetType(trace.TypeSampleAddr, "Sampled address")
	l.SetType(trace.TypeSampleSource, "Sample data source")
	l.SetValue(trace.TypeSampleSource, 0, "L1")
	l.SetValue(trace.TypeSampleSource, 3, "DRAM")
	var pcf bytes.Buffer
	if err := l.WritePCF(&pcf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "labels.pcf.golden", pcf.Bytes())
}

// TestMachineTraceGolden pins the full multi-thread emission end to end: a
// deterministic 2-thread Machine STREAM run (sequential schedule) written
// through Machine.WriteTrace. This is the PR-2 output surface — per-thread
// streams merged into one PRV with a 2-thread header plus the shared PCF.
func TestMachineTraceGolden(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Monitor.MuxQuantumNs = 0
	cfg.Monitor.PEBS.Events = pebs.SampleLoads | pebs.SampleStores
	cfg.Monitor.PEBS.Period = 600
	cfg.Monitor.PEBS.Randomize = false
	cfg.Monitor.PEBS.LatencyThreshold = 0
	res, err := core.RunWorkload(nil, cfg, workloads.NewStream(1<<12), 3, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var prv, pcf bytes.Buffer
	if err := res.Machine.WriteTrace(&prv, &pcf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "machine_stream_2t.prv.golden", prv.Bytes())
	checkGolden(t, "machine_stream_2t.pcf.golden", pcf.Bytes())
}

// TestNUMATraceGolden pins the NUMA trace-format extension end to end: a
// deterministic 2-socket, 2-thread (one core per socket) interleaved
// STREAM run. The PRV must carry RemoteDRAM samples (source value 4) and
// the REMOTE_DRAM counter pair on every record, and the PCF must label
// both — the extension surface that single-socket traces (pinned above,
// byte-identical to the pre-NUMA format) never emit.
func TestNUMATraceGolden(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Monitor.MuxQuantumNs = 0
	cfg.Monitor.PEBS.Events = pebs.SampleLoads | pebs.SampleStores
	cfg.Monitor.PEBS.Period = 600
	// Randomized (seeded, deterministic) gaps: a fixed period divisible by
	// the 8-element line run would alias in lockstep with the sweep and
	// never sample the line-resolving first op of a line — the exact
	// aliasing pathology the randomization models.
	cfg.Monitor.PEBS.Randomize = true
	cfg.Monitor.PEBS.Seed = 3
	cfg.Monitor.PEBS.LatencyThreshold = 0
	// The undersized hierarchy keeps the sweep DRAM-bound, so sampled ops
	// land on remote line fills often enough for source-4 records to
	// appear in a short trace.
	cfg.Cache.Levels = []memhier.LevelConfig{
		{Name: "L1D", Size: 8 << 10, LineSize: 64, Assoc: 4, HitLatency: 4},
		{Name: "L2", Size: 32 << 10, LineSize: 64, Assoc: 8, HitLatency: 12},
		{Name: "L3", Size: 128 << 10, LineSize: 64, Assoc: 8, HitLatency: 36},
	}
	cfg.NUMA = numa.Config{Sockets: 2, Policy: numa.Interleave}
	res, err := core.RunWorkload(nil, cfg, workloads.NewStream(1<<13), 3, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var remote uint64
	for _, th := range res.Machine.Threads {
		remote += th.Hier.RemoteDRAMAccesses()
	}
	if remote == 0 {
		t.Fatal("interleaved 2-socket run produced no remote fills")
	}
	var prv, pcf bytes.Buffer
	if err := res.Machine.WriteTrace(&prv, &pcf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(prv.Bytes(), []byte(":32000003:4:")) {
		t.Error("PRV carries no RemoteDRAM-sourced sample (source value 4)")
	}
	checkGolden(t, "machine_stream_numa_2s2t.prv.golden", prv.Bytes())
	checkGolden(t, "machine_stream_numa_2s2t.pcf.golden", pcf.Bytes())
}
