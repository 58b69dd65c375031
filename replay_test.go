package tcsim_test

import (
	"reflect"
	"testing"

	"tcsim"
)

// TestReplayStaysAllocationFree is the CI benchmark guard for the trace
// store's replay path, the sibling of TestCycleLoopStaysAllocationFree:
// the steady-state cycle loop of a replayed run must not allocate.
func TestReplayStaysAllocationFree(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard skipped in -short mode")
	}
	r := testing.Benchmark(BenchmarkReplayCycleLoop)
	if allocs := r.AllocsPerOp(); allocs != 0 {
		t.Errorf("BenchmarkReplayCycleLoop allocates %d allocs/op, want 0", allocs)
	}
}

// TestWorkloadRunsAreCaptureThenReplay: the first run of a (workload,
// budget) pair captures into the store it is handed, later runs replay —
// observable only through the store counters, because the results
// themselves are bit-for-bit identical (to each other AND to a
// live-emulated run that bypasses the store entirely).
func TestWorkloadRunsAreCaptureThenReplay(t *testing.T) {
	cfg := tcsim.DefaultConfig()
	cfg.MaxInsts = 7321
	st := tcsim.NewTraceStore(0)

	first, err := tcsim.RunWorkloadContextIn(t.Context(), cfg, "li", st)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Stats(); got.Captures != 1 || got.ReplayHits != 0 {
		t.Errorf("cold run: %d captures, %d replay hits; want 1, 0", got.Captures, got.ReplayHits)
	}
	second, err := tcsim.RunWorkloadContextIn(t.Context(), cfg, "li", st)
	if err != nil {
		t.Fatal(err)
	}
	after := st.Stats()
	if after.Captures != 1 || after.ReplayHits != 1 {
		t.Errorf("cold then warm: %d captures, %d replay hits; want 1, 1", after.Captures, after.ReplayHits)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("capture-run and replay-run results differ")
	}

	// The live path, bypassing the store: still identical.
	prog, err := tcsim.BuildWorkload("li")
	if err != nil {
		t.Fatal(err)
	}
	live, err := tcsim.RunContext(t.Context(), cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, live) {
		t.Error("store-served run differs from live-emulated run")
	}
	if st.Stats() != after {
		t.Error("RunContext(prog) went through the trace store; it must emulate live")
	}
}

// TestWorkloadRunNeedsStore: there is no process-wide fallback store, so
// a workload run without one is an error, not a panic.
func TestWorkloadRunNeedsStore(t *testing.T) {
	cfg := tcsim.DefaultConfig()
	cfg.MaxInsts = 1000
	if _, err := tcsim.RunWorkloadContextIn(t.Context(), cfg, "li", nil); err == nil {
		t.Error("workload run with a nil store succeeded")
	}
}

// TestCaptureTimelineEvent: a traced cold run carries the capture-phase
// timeline event; the traced warm replay does not (its timeline matches
// a live run's exactly — the equivalence suite pins that).
func TestCaptureTimelineEvent(t *testing.T) {
	cfg := tcsim.DefaultConfig()
	cfg.MaxInsts = 6733
	cfg.Timeline = true

	countCaptureEvents := func(r tcsim.Result) int {
		n := 0
		for _, e := range r.Timeline.Events {
			if e.Kind.String() == "capture" {
				n++
			}
		}
		return n
	}

	st := tcsim.NewTraceStore(0)
	cold, err := tcsim.RunWorkloadContextIn(t.Context(), cfg, "perl", st)
	if err != nil {
		t.Fatal(err)
	}
	if got := countCaptureEvents(cold); got != 1 {
		t.Errorf("cold run has %d capture events, want 1", got)
	}
	ev := cold.Timeline.Events[0]
	if ev.Kind.String() != "capture" || ev.Cycle != 0 || ev.A == 0 || ev.B != cfg.MaxInsts {
		t.Errorf("capture event = %+v, want cycle-0 event with records and budget %d", ev, cfg.MaxInsts)
	}

	warm, err := tcsim.RunWorkloadContextIn(t.Context(), cfg, "perl", st)
	if err != nil {
		t.Fatal(err)
	}
	if got := countCaptureEvents(warm); got != 0 {
		t.Errorf("warm run has %d capture events, want 0", got)
	}
}
