package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"tcsim"
)

// exactInsts is the per-program budget of the exact sweep: small enough
// that a run fits several sweeps, so each program's time is the best of
// several (see geomeanRate).
const exactInsts = 100_000

// exactConfig is the machine every exact-sweep program runs: the paper's
// baseline plus the default combined pass spec.
func exactConfig() tcsim.Config {
	cfg := tcsim.DefaultConfig()
	cfg.Passes = tcsim.DefaultPassSpec()
	cfg.MaxInsts = exactInsts
	return cfg
}

// sweepStats accumulates one phase of exact sweeps.
type sweepStats struct {
	segs     map[string][][]float64 // program -> one probe split per sweep (see probe)
	walls    []float64              // seconds per sweep
	retired  uint64
	mallocs  uint64
	bytes    uint64
	last     map[string]tcsim.Result
	attempts []error
}

// sweepFor runs whole sweeps over every bundled program, replaying the
// traces in st, until d has passed.
func sweepFor(ctx context.Context, st *tcsim.TraceStore, d time.Duration, g *golden) (*sweepStats, error) {
	s := &sweepStats{segs: map[string][][]float64{}, last: map[string]tcsim.Result{}}
	cfg := exactConfig()
	var m0, m1 runtime.MemStats
	start := time.Now()
	for time.Since(start) < d {
		t0 := time.Now()
		for _, w := range tcsim.Workloads() {
			p := newProbe(ctx)
			runtime.ReadMemStats(&m0)
			r0 := time.Now()
			res, err := tcsim.RunWorkloadContextIn(p, cfg, w, st)
			r1 := time.Now()
			runtime.ReadMemStats(&m1)
			if err != nil {
				return nil, fmt.Errorf("exact %s: %w", w, err)
			}
			s.mallocs += m1.Mallocs - m0.Mallocs
			s.bytes += m1.TotalAlloc - m0.TotalAlloc
			s.retired += res.Retired
			s.segs[w] = append(s.segs[w], p.segments(r0, r1))
			s.last[w] = res
			s.attempts = append(s.attempts, g.checkExact(w, res))
		}
		s.walls = append(s.walls, time.Since(t0).Seconds())
	}
	return s, nil
}

// geomeanRate is the geometric mean over programs of retired insts per
// host second of each program's best time in the phase. Best, not
// median: on a shared host the speed of identical sweeps drifts by +-15%
// over tens of seconds, interference only ever slows a sweep, and so the
// fastest is the least disturbed estimate of the simulator's own speed.
// The best time is taken segment by segment (see bestTime): an exact run
// simulates on the calling goroutine, so its probe's polls fall at the
// same cycles in every sweep.
func (s *sweepStats) geomeanRate() float64 {
	var rates []float64
	for _, w := range tcsim.Workloads() {
		rates = append(rates, float64(s.last[w].Retired)/bestTime(s.segs[w]))
	}
	return geomean(rates)
}

// runExactSweep is the exact-sweep workload: every bundled program, one
// after another, in exact detailed simulation, replaying traces captured
// during set-up.
func runExactSweep(ctx context.Context, o options, stderr io.Writer) (*report, error) {
	rep := newReport(o.trace)
	var st *tcsim.TraceStore
	var captureS []float64
	setup, err := timeSetup(func() error {
		st = tcsim.NewTraceStore(0)
		for _, w := range tcsim.Workloads() {
			t0 := time.Now()
			if _, _, err := st.Get(w, exactInsts); err != nil {
				return fmt.Errorf("capture %s: %w", w, err)
			}
			captureS = append(captureS, time.Since(t0).Seconds())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setup)

	plain, err := sweepFor(ctx, st, o.phase(), o.golden)
	if err != nil {
		return nil, err
	}
	for _, e := range plain.attempts {
		rep.op(e, stderr)
	}
	rep.set("sim_inst_per_s", plain.geomeanRate())
	if !o.trace {
		return rep, nil
	}

	var traced *sweepStats
	f, err := profiled(func() error {
		var err error
		traced, err = sweepFor(ctx, st, o.phase(), o.golden)
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, e := range traced.attempts {
		rep.op(e, stderr)
	}
	rep.setLayerTimes(f, traced.retired)
	// Nothing is emulated here (every run replays), so emulation time is
	// per retired instruction: any that creeps in shows.
	rep.set("emu.ns_per_inst", perInst(f.under(emuStep), traced.retired))
	rep.set("tracestore.replay_ns_per_inst", perInst(f.under(sourceFuncs...), traced.retired))
	kinst := float64(plain.retired) / 1000
	rep.set("pipeline.allocs_per_kinst", float64(plain.mallocs)/kinst)
	rep.set("pipeline.alloc_bytes_per_kinst", float64(plain.bytes)/kinst)
	ts := st.Stats()
	rep.set("tracestore.capture_s", median(captureS))
	rep.set("tracestore.resident_mb", float64(ts.ResidentBytes)/1e6)
	rep.set("tracestore.captures", float64(ts.Captures))
	rep.set("tracestore.replay_hits", float64(ts.ReplayHits))
	rep.set("obs.trace_overhead_pct", overheadPct(median(plain.walls), median(traced.walls)))

	var cycles, retired uint64
	var hit, mis, byp float64
	for _, w := range tcsim.Workloads() {
		res := traced.last[w]
		cycles += res.Cycles
		retired += res.Retired
		hit += res.TraceCacheHitRate
		mis += res.MispredictRate
		byp += res.BypassDelayRate
	}
	n := float64(len(tcsim.Workloads()))
	rep.set("model.cycles", float64(cycles))
	rep.set("model.ipc", float64(retired)/float64(cycles))
	rep.set("trace.hit_rate", hit/n)
	rep.set("bpred.mispredict_rate", mis/n)
	rep.set("exec.bypass_delay_rate", byp/n)
	return rep, nil
}
