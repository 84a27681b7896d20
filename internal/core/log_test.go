package core

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"slices"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/cpu"
	"repro/internal/extrae"
	"repro/internal/folding"
	"repro/internal/memhier"
	"repro/internal/trace"
)

// recordSample and recordInstance are folding.Sample and folding.Instance
// as they were when extraction copied every sample out of the records.
type recordSample struct {
	TimeNs   uint64
	Counters [cpu.NumCounters]uint64
	Addr     uint64
	Latency  uint64
	Source   memhier.DataSource
	Store    bool
	IP       uint64
	StackID  uint32
	Size     int
}

type recordInstance struct {
	T0, T1  uint64
	C0, C1  [cpu.NumCounters]uint64
	Samples []recordSample
}

// recordExtract is folding's extract over a chronological record stream,
// as it stood before instances became spans of the log, copied verbatim
// but for the type names: the oracle span extraction must match.
func recordExtract(records []trace.Record, region int64, task, thread int) ([]recordInstance, error) {
	mine := func(rec *trace.Record) bool {
		return task == 0 || (rec.Task == task && rec.Thread == thread)
	}
	n := 0
	for i := range records {
		if rec := &records[i]; mine(rec) && rec.Has(trace.TypeSampleAddr) {
			n++
		}
	}
	samples := make([]recordSample, 0, n)
	var out []recordInstance
	var cur *recordInstance
	first := 0 // index in samples of the current instance's first sample
	depth := 0 // nested sub-regions opened inside the current instance
	for i := range records {
		rec := &records[i]
		if !mine(rec) {
			continue
		}
		if v, ok := rec.Get(trace.TypeRegion); ok {
			switch {
			case v == region:
				if cur != nil {
					return nil, fmt.Errorf("folding: nested instance of region %d at %d ns", region, rec.TimeNs)
				}
				cur = &recordInstance{T0: rec.TimeNs, C0: countersOf(rec)}
				first = len(samples)
				depth = 0
			case v > 0 && cur != nil:
				depth++
			case v == 0 && cur != nil:
				if depth > 0 {
					depth--
					continue
				}
				cur.T1 = rec.TimeNs
				cur.C1 = countersOf(rec)
				cur.Samples = samples[first:len(samples):len(samples)]
				out = append(out, *cur)
				cur = nil
			}
			continue
		}
		if cur == nil {
			continue
		}
		if addr, ok := rec.Get(trace.TypeSampleAddr); ok {
			s := recordSample{TimeNs: rec.TimeNs, Addr: uint64(addr), Counters: countersOf(rec)}
			if v, ok := rec.Get(trace.TypeSampleLatency); ok {
				s.Latency = uint64(v)
			}
			if v, ok := rec.Get(trace.TypeSampleSource); ok {
				s.Source = memhier.DataSource(v)
			}
			if v, ok := rec.Get(trace.TypeSampleStore); ok {
				s.Store = v == 1
			}
			if v, ok := rec.Get(trace.TypeSampleIP); ok {
				s.IP = uint64(v)
			}
			if v, ok := rec.Get(trace.TypeSampleStack); ok {
				s.StackID = uint32(v)
			}
			if v, ok := rec.Get(trace.TypeSampleSize); ok {
				s.Size = int(v)
			}
			samples = append(samples, s)
		}
	}
	return out, nil
}

func countersOf(rec *trace.Record) [cpu.NumCounters]uint64 {
	var c [cpu.NumCounters]uint64
	for i := cpu.CounterID(0); i < cpu.NumCounters; i++ {
		if v, ok := rec.Get(trace.TypeCounterBase + uint32(i)); ok {
			c[i] = uint64(v)
		}
	}
	return c
}

// readPRV parses a PRV trace back into records.
func readPRV(t *testing.T, prv []byte) []trace.Record {
	t.Helper()
	r, err := trace.NewReader(bytes.NewReader(prv))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := trace.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// checkSpansMatchRecords extracts region from mon's log and compares the
// instances with recordExtract's over the rendered records.
func checkSpansMatchRecords(t *testing.T, mon *extrae.Monitor, records []trace.Record, region extrae.Region, task, thread int) {
	t.Helper()
	want, err := recordExtract(records, int64(region), task, thread)
	if err != nil {
		t.Fatal(err)
	}
	got, err := folding.Extract(mon.Log(), int64(region))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("thread %d: %d span instances, %d record instances", thread, len(got), len(want))
	}
	samples := 0
	for i := range want {
		g, w := &got[i], &want[i]
		if g.T0 != w.T0 || g.T1 != w.T1 || g.C0 != w.C0 || g.C1 != w.C1 {
			t.Fatalf("thread %d instance %d: span bounds %d..%d %v..%v, records %d..%d %v..%v",
				thread, i, g.T0, g.T1, g.C0, g.C1, w.T0, w.T1, w.C0, w.C1)
		}
		var gs []recordSample
		for _, seg := range g.Events {
			for k := range seg {
				if e := &seg[k]; e.Kind == trace.KindSample {
					gs = append(gs, recordSample{TimeNs: e.TimeNs, Counters: e.Counters, Addr: e.Addr,
						Latency: uint64(e.Latency), Source: memhier.DataSource(e.Source), Store: e.Store,
						IP: e.IP, StackID: e.StackID, Size: int(e.Size)})
				}
			}
		}
		if !slices.Equal(gs, w.Samples) || g.NumSamples() != len(w.Samples) {
			t.Fatalf("thread %d instance %d: %d span samples differ from %d record samples", thread, i, len(gs), len(w.Samples))
		}
		samples += len(gs)
	}
	if samples == 0 {
		t.Fatalf("thread %d: no samples in any instance", thread)
	}
}

// TestSpanExtractMatchesRecordExtract checks folding.Extract over the
// monitors' logs against the record-copying extraction over the PRV the
// same run writes: for a Session, and for each thread of a Machine.
func TestSpanExtractMatchesRecordExtract(t *testing.T) {
	cfg, _ := comparableConfigs() // multiplexed, randomized sampling
	params := testHPCGParams()
	params.MaxIters = 3
	sess := runHPCG(t, cfg, params)
	prv, _ := traceBytes(t, sess.Session)
	checkSpansMatchRecords(t, sess.Session.Mon, readPRV(t, prv), sess.Problem.RegionIteration, 0, 0)

	mach, err := RunHPCGParallel(nil, cfg, params, 2)
	if err != nil {
		t.Fatal(err)
	}
	prv, _ = traceBytes(t, mach.Machine)
	records := readPRV(t, prv)
	for _, th := range mach.Machine.Threads {
		checkSpansMatchRecords(t, th.Mon, records, mach.Problem.RegionIteration, th.Mon.Task(), th.Mon.Thread())
	}
}

// TestWriteTraceAllocsIndependentOfLength pins the PRV path's steady
// state: Session and Machine WriteTrace allocate the same for a short and a
// long run, so rendering a record allocates nothing.
func TestWriteTraceAllocsIndependentOfLength(t *testing.T) {
	if raceEnabled {
		t.Skip("the PCF writer's fmt calls allocate a varying amount under the race detector")
	}
	cfg := testConfig()
	writeAllocs := func(wt interface {
		WriteTrace(prv, pcf interface {
			Write(p []byte) (int, error)
		}) error
	}) float64 {
		return testing.AllocsPerRun(3, func() {
			if err := wt.WriteTrace(io.Discard, io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	params := testHPCGParams()
	var sessionAllocs, machineAllocs, records []float64
	for _, iters := range []int{1, 4} {
		params.MaxIters = iters
		sess := runHPCG(t, cfg, params)
		mach, err := RunHPCGParallel(nil, cfg, params, 2)
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, float64(sess.Session.Mon.Log().Len()))
		sessionAllocs = append(sessionAllocs, writeAllocs(sess.Session))
		machineAllocs = append(machineAllocs, writeAllocs(mach.Machine))
	}
	if records[1] < 2*records[0] {
		t.Fatalf("runs too alike to tell: %v records", records)
	}
	if sessionAllocs[0] != sessionAllocs[1] {
		t.Errorf("Session.WriteTrace allocates %v for %v records", sessionAllocs, records)
	}
	if machineAllocs[0] != machineAllocs[1] {
		t.Errorf("Machine.WriteTrace allocates %v for %v records per thread", machineAllocs, records)
	}
}

// appendOrder rewrites a snapshot's logs into the order a monitor logged
// them in when each drained sample was appended at the end of the log:
// samples that fired before a region entry but drained after it follow
// that entry. Each such sample's time is below the entry's, so a stable
// sort by time restores the log.
func appendOrder(t *testing.T, snap *checkpoint.Snapshot) {
	t.Helper()
	moved := 0
	for i := range snap.Threads {
		events := snap.Threads[i].Mon.Events
		out := make([]trace.Event, 0, len(events))
		var pending []trace.Event
		for _, e := range events {
			switch {
			case e.Kind == trace.KindSample:
				pending = append(pending, e)
			case e.Kind == trace.KindRegion && e.Addr != 0 && len(pending) > 0 && pending[len(pending)-1].TimeNs < e.TimeNs:
				out = append(out, e)
				moved += len(pending)
			default:
				out = append(append(out, pending...), e)
				pending = pending[:0]
			}
		}
		snap.Threads[i].Mon.Events = append(out, pending...)
	}
	if moved == 0 {
		t.Fatal("no sample moved: the snapshot's logs cannot show logging order")
	}
}

// TestResumeAppendOrderSnapshot resumes HPCG from a snapshot whose log is
// in logging order, as snapshots were written before the log kept itself
// in time order, and must reproduce the uninterrupted run's PRV, PCF and
// residual history byte for byte.
func TestResumeAppendOrderSnapshot(t *testing.T) {
	cfg := testConfig()
	params := testHPCGParams()
	params.MaxIters = 6
	tag := CheckpointTag("hpcg", 1, cfg)
	golden, err := RunHPCGCheckpointed(nil, cfg, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	goldenPRV, goldenPCF := traceBytes(t, golden.Session)

	var snap *checkpoint.Snapshot
	ck := &Checkpointer{Every: 3, Tag: tag, Sink: func(s *checkpoint.Snapshot) error { snap = s; return nil }}
	if _, err := RunHPCGCheckpointed(nil, cfg, params, ck); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no snapshot emitted")
	}
	appendOrder(t, snap)
	var buf bytes.Buffer
	if err := checkpoint.Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	old, err := checkpoint.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	byTime := func(a, b trace.Event) int { return cmp.Compare(a.TimeNs, b.TimeNs) }
	if slices.IsSortedFunc(old.Threads[0].Mon.Events, byTime) {
		t.Fatal("decoded snapshot log is in time order; the test needs logging order")
	}
	var before bytes.Buffer
	if err := checkpoint.Write(&before, old); err != nil {
		t.Fatal(err)
	}
	resumed, err := RunHPCGCheckpointed(nil, cfg, params, &Checkpointer{Tag: tag, Resume: old})
	if err != nil {
		t.Fatal(err)
	}
	prv, pcf := traceBytes(t, resumed.Session)
	checkByteExact(t, goldenPRV, goldenPCF, prv, pcf)
	// Resuming leaves the snapshot as it was: it can be resumed again.
	var after bytes.Buffer
	if err := checkpoint.Write(&after, old); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Error("resuming reordered the snapshot's log")
	}
	if got, want := fmt.Sprintf("%x", resumed.CG.Residuals), fmt.Sprintf("%x", golden.CG.Residuals); got != want {
		t.Errorf("resumed residuals %s, uninterrupted %s", got, want)
	}
}
