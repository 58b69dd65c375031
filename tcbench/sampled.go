package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"tcsim"
	"tcsim/internal/tracestore"
)

// sampledInsts is the sampled-long budget: above the trace store's
// full-capture limit, so warm mode emulates live and seek mode runs over
// a checkpoint log.
const sampledInsts = 5_000_000

// sampledPrograms are the sampled-long programs.
var sampledPrograms = []string{"gcc", "vortex"}

func sampledConfig(seek bool) tcsim.Config {
	cfg := exactConfig()
	cfg.MaxInsts = sampledInsts
	cfg.Sampling = tcsim.DefaultSamplingFor(sampledInsts)
	cfg.Sampling.Seek = seek
	return cfg
}

func sampledKey(program string, seek bool) string {
	if seek {
		return program + "/seek"
	}
	return program + "/warm"
}

// samplePhase accumulates sampled-long rounds; a round runs every program
// once in warm mode and once in seek mode, each from a cold trace store.
type samplePhase struct {
	segs                 map[string][][]float64 // sampledKey -> one probe split per round (see probe)
	rounds               []float64              // seconds per round
	attempts             []error
	detailed, ffwd       uint64
	emulated             uint64
	windows, seeks       uint64
	seekRuns, runs       int
	captureS             []float64
	residentMax          int64
	captures, replayHits uint64
}

func sampleFor(ctx context.Context, d time.Duration, g *golden) (*samplePhase, error) {
	p := &samplePhase{segs: map[string][][]float64{}}
	start := time.Now()
	for time.Since(start) < d {
		r0 := time.Now()
		for _, w := range sampledPrograms {
			for _, isSeek := range []bool{false, true} {
				// Each run starts from a collected heap, as in a fresh
				// process: the previous run's checkpoint log and stores
				// are garbage, and collecting them inside the next run
				// would make its time, and the process's peak memory,
				// depend on where the collector happened to start.
				runtime.GC()
				st := tcsim.NewTraceStore(0)
				pr := newProbe(ctx)
				t0 := time.Now()
				if isSeek {
					// Timed separately so capture cost is visible; the run
					// below then finds the log resident.
					if _, _, err := st.GetCheckpointLog(pr, w, sampledInsts); err != nil {
						return nil, fmt.Errorf("checkpoint log %s: %w", w, err)
					}
					p.captureS = append(p.captureS, time.Since(t0).Seconds())
				}
				res, err := tcsim.RunWorkloadContextIn(pr, sampledConfig(isSeek), w, st)
				t1 := time.Now()
				if err != nil {
					return nil, fmt.Errorf("sampled %s: %w", sampledKey(w, isSeek), err)
				}
				p.attempts = append(p.attempts, g.checkSampled(sampledKey(w, isSeek), res))
				p.segs[sampledKey(w, isSeek)] = append(p.segs[sampledKey(w, isSeek)], pr.segments(t0, t1))
				s := res.Sampled
				if s == nil {
					return nil, fmt.Errorf("sampled %s: no sampled statistics", sampledKey(w, isSeek))
				}
				p.runs++
				p.detailed += s.InstsWarmup + s.InstsDetailed
				p.ffwd += s.InstsFFwd
				p.windows += uint64(s.Windows)
				// Warm mode emulates the whole budget live; seek mode emulates
				// it once to capture the log, then again inside each window.
				p.emulated += sampledInsts
				if isSeek {
					p.emulated += s.InstsWarmup + s.InstsDetailed
					p.seeks += s.Seeks
					p.seekRuns++
				}
				ts := st.Stats()
				p.residentMax = max(p.residentMax, ts.ResidentBytes)
				p.captures += ts.Captures
				p.replayHits += ts.ReplayHits
			}
		}
		p.rounds = append(p.rounds, time.Since(r0).Seconds())
	}
	return p, nil
}

// rate is the budget covered per host second in one mode: both
// programs' budgets over the sum of their best run times in the phase.
// Best, not median, for the reason given at sweepStats.geomeanRate; a
// sampled run polls its probe every 4096 cycles in a detailed window and
// every 8192 instructions of fast-forward, all on the calling goroutine
// while windows run serially, so its best time too is taken segment by
// segment.
func (p *samplePhase) rate(seek bool) float64 {
	var secs float64
	for _, w := range sampledPrograms {
		secs += bestTime(p.segs[sampledKey(w, seek)])
	}
	return float64(sampledInsts*uint64(len(sampledPrograms))) / secs
}

// geomeanRate is the geometric mean over the four runs of a round
// (each program in each mode) of the budget over the run's best time in
// the phase.
func (p *samplePhase) geomeanRate() float64 {
	var rates []float64
	for _, w := range sampledPrograms {
		for _, seek := range []bool{false, true} {
			rates = append(rates, float64(sampledInsts)/bestTime(p.segs[sampledKey(w, seek)]))
		}
	}
	return geomean(rates)
}

// runSampledLong is the sampled-long workload: two programs above the
// full-capture limit, each sampled in warm and in seek mode from a cold
// trace store.
func runSampledLong(ctx context.Context, o options, stderr io.Writer) (*report, error) {
	if sampledInsts <= tracestore.FullCaptureLimit {
		return nil, fmt.Errorf("budget %d is not above the full-capture limit %d", sampledInsts, tracestore.FullCaptureLimit)
	}
	rep := newReport(o.trace)
	// Set-up builds the programs and runs each briefly, so one-time lazy
	// initialisation and heap growth stay out of the measured rounds.
	setup, err := timeSetup(func() error {
		for _, w := range sampledPrograms {
			if _, err := tcsim.BuildWorkload(w); err != nil {
				return err
			}
			if _, err := tcsim.RunWorkloadContextIn(ctx, exactConfig(), w, tcsim.NewTraceStore(0)); err != nil {
				return fmt.Errorf("warm-up %s: %w", w, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setup)

	plain, err := sampleFor(ctx, o.phase(), o.golden)
	if err != nil {
		return nil, err
	}
	for _, e := range plain.attempts {
		rep.op(e, stderr)
	}
	rep.set("sim_inst_per_s", plain.geomeanRate())
	rep.set("sampled_warm_inst_per_s", plain.rate(false))
	rep.set("sampled_seek_inst_per_s", plain.rate(true))
	if !o.trace {
		return rep, nil
	}

	var traced *samplePhase
	f, err := profiled(func() error {
		var err error
		traced, err = sampleFor(ctx, o.phase(), o.golden)
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, e := range traced.attempts {
		rep.op(e, stderr)
	}
	rep.setLayerTimes(f, traced.detailed)
	rep.set("pipeline.ffwd_ns_per_inst", perInst(f.under(ffwd), traced.ffwd))
	rep.set("emu.ns_per_inst", perInst(f.under(emuStep), traced.emulated))
	rep.set("tracestore.replay_ns_per_inst", perInst(f.under(sourceFuncs...), traced.detailed))
	if traced.seeks > 0 {
		rep.set("tracestore.seek_ms", float64(f.under(seekFuncs...))/1e6/float64(traced.seeks))
	}
	rep.set("tracestore.capture_s", median(traced.captureS))
	rep.set("tracestore.resident_mb", float64(traced.residentMax)/1e6)
	rep.set("tracestore.captures", float64(traced.captures))
	rep.set("tracestore.replay_hits", float64(traced.replayHits))
	rep.set("sample.windows", float64(traced.windows)/float64(traced.runs))
	rep.set("sample.seeks", float64(traced.seeks)/float64(traced.seekRuns))
	rep.set("sample.detailed_frac", float64(traced.detailed)/float64(uint64(traced.runs)*sampledInsts))
	rep.set("obs.trace_overhead_pct", overheadPct(median(plain.rounds), median(traced.rounds)))
	return rep, nil
}
