package tcsim

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"strconv"
	"strings"

	"tcsim/internal/asm"
	"tcsim/internal/core"
	"tcsim/internal/exec"
	"tcsim/internal/obs"
	"tcsim/internal/pipeline"
	"tcsim/internal/replace"
	"tcsim/internal/trace"
	"tcsim/internal/tracestore"
	"tcsim/internal/workload"
)

// ErrCanceled is returned by the *Context run functions when the
// simulation stops early because its context was cancelled or timed out.
// Callers should match it with errors.Is; the context's own error is
// attached as well.
var ErrCanceled = pipeline.ErrCanceled

// PassStat is one optimization pass's counters from a run: segments
// processed and touched, instructions rewritten, dependency edges
// removed, and (with Config.TimePasses) wall time spent in the pass.
type PassStat = core.PassStats

// PassDesc describes one registered fill-unit optimization pass.
type PassDesc struct {
	Name string // spec / -passes name
	Desc string // one-line description
	// Default marks passes in the paper's combined configuration (the
	// dead-write extension is registered but not Default).
	Default bool
}

// Passes lists every registered optimization pass in canonical order.
func Passes() []PassDesc {
	var out []PassDesc
	for _, pi := range core.RegisteredPasses() {
		out = append(out, PassDesc{Name: pi.Name, Desc: pi.Desc, Default: pi.Default})
	}
	return out
}

// DefaultPassSpec returns the paper's combined pipeline spec: every
// Default pass in canonical order. Set Config.Passes to it to run the
// paper's combined machine.
func DefaultPassSpec() []string { return core.DefaultPassSpec() }

// PolicyDesc describes one registered cache replacement policy
// (selectable via Config.TCPolicy / Config.ICPolicy).
type PolicyDesc struct {
	Name string // Config.TCPolicy / -tc-policy name
	Desc string // one-line description
	// Default marks the policy "" resolves to (LRU).
	Default bool
	// Oracle marks policies that consult future knowledge of the
	// reference stream (the Belady headroom bound). They only run over
	// captured workload traces (RunWorkloadContextIn), never live programs.
	Oracle bool
}

// Policies lists every registered replacement policy in canonical order.
func Policies() []PolicyDesc {
	var out []PolicyDesc
	for _, pi := range replace.Registered() {
		out = append(out, PolicyDesc{Name: pi.Name, Desc: pi.Desc, Default: pi.Default, Oracle: pi.Oracle})
	}
	return out
}

// DefaultPolicy returns the name an empty policy field resolves to.
func DefaultPolicy() string { return replace.Default() }

// Config describes one simulated machine. Zero values select the
// paper's baseline; construct with DefaultConfig and override fields.
type Config struct {
	// Passes selects and orders the fill-unit optimization pipeline by
	// registered pass name (see Passes). Empty is the baseline: no pass
	// runs; DefaultPassSpec is the paper's combined configuration.
	// Illegal orders are rejected at simulator construction, never
	// silently reordered.
	Passes []string
	// TimePasses collects per-pass wall time into Result.PassStats
	// (off by default: it adds two clock reads per pass per segment).
	TimePasses bool
	// FillLatency is the fill pipeline depth in cycles (paper: 1/5/10).
	FillLatency int
	// TracePacking packs instructions across block boundaries (default on).
	TracePacking bool
	// Promotion embeds static predictions for strongly biased branches
	// (default on).
	Promotion bool
	// InactiveIssue issues non-predicted trace-line blocks inactively
	// (default on).
	InactiveIssue bool
	// UseTraceCache enables the trace cache front end (default on;
	// disable for the instruction-cache-only ablation).
	UseTraceCache bool
	// TCPolicy selects the trace cache's replacement policy by registered
	// name (see Policies; "" = the default, LRU). The "belady" oracle
	// needs future knowledge of the reference stream and therefore only
	// runs under RunWorkloadContextIn (which replays a captured trace);
	// RunContext rejects it.
	TCPolicy string
	// ICPolicy selects the L1 instruction cache's replacement policy
	// ("" = LRU). Data-side caches always use LRU: the replacement lab
	// targets the fetch path.
	ICPolicy string
	// Clusters x FUsPerCluster organizes the 16 functional units
	// (paper: 4 x 4).
	Clusters      int
	FUsPerCluster int
	// MaxInsts stops the simulation after this many retired
	// instructions (0 = run until the program halts).
	MaxInsts uint64
	// MaxCycles aborts a non-halting simulation (0 = a very large bound).
	MaxCycles uint64

	// Sampling enables SMARTS-style sampled timing: detailed
	// cycle-accurate windows at each Period boundary (a Warmup prefix is
	// timed but discarded), functional fast-forward — or, with Seek, a
	// checkpoint seek — in between, and a sampled-IPC estimate with a
	// 95% confidence interval in Result.Sampled. The zero value runs
	// exact simulation, bit-for-bit identical to earlier releases.
	// DefaultSamplingFor builds a sensible plan for a budget.
	Sampling SamplingConfig

	// Timeline records a cycle-level event timeline (fetch source,
	// segment finalization, per-pass rewrites, issue/retire occupancy)
	// into Result.Timeline. Recording observes the run without touching
	// timing: a run with Timeline on is bit-for-bit identical to the same
	// run with it off. Off (the default) costs nothing — the cycle loop
	// stays allocation-free.
	Timeline bool
	// TimelineEvents bounds the timeline ring buffer; when full the
	// oldest events are dropped (Result.Timeline.Dropped counts them).
	// 0 selects the default capacity (65536 events); at most 1<<22
	// (4194304) events, since the whole ring is allocated up front.
	TimelineEvents int
}

// maxTimelineEvents caps Config.TimelineEvents: at 40 bytes an event
// the ring is 160 MiB at the cap.
const maxTimelineEvents = 1 << 22

// Validate checks a configuration without running it: the pass spec
// (names registered, no duplicates, legal order), the replacement
// policy names, the backend geometry bound, the sampling plan, and that
// no count field is negative (zero selects the default) or, for
// TimelineEvents, above its cap. RunContext and RunWorkloadContextIn
// call it first; call it yourself to fail fast on CLI flags or wire
// requests.
func (c Config) Validate() error {
	switch {
	case c.FillLatency < 0:
		return fmt.Errorf("tcsim: fill latency %d is negative (0 selects the default)", c.FillLatency)
	case c.Clusters < 0 || c.FUsPerCluster < 0:
		return fmt.Errorf("tcsim: backend geometry %d x %d is negative (0 selects the default 4 x 4)", c.Clusters, c.FUsPerCluster)
	case c.TimelineEvents < 0 || c.TimelineEvents > maxTimelineEvents:
		return fmt.Errorf("tcsim: timeline capacity %d events is outside [0, %d]", c.TimelineEvents, maxTimelineEvents)
	}
	if err := core.ValidateSpec(c.Passes); err != nil {
		return err
	}
	if err := exec.ValidateGeometry(c.Clusters, c.FUsPerCluster); err != nil {
		return err
	}
	for _, p := range []string{c.TCPolicy, c.ICPolicy} {
		if err := replace.Validate(p); err != nil {
			return err
		}
	}
	return c.Sampling.Validate()
}

// DefaultConfig returns the paper's baseline machine with no fill-unit
// optimizations enabled.
func DefaultConfig() Config {
	return Config{
		FillLatency:   1,
		TracePacking:  true,
		Promotion:     true,
		InactiveIssue: true,
		UseTraceCache: true,
		Clusters:      4,
		FUsPerCluster: 4,
	}
}

func (c Config) pipelineConfig() pipeline.Config {
	pc := pipeline.DefaultConfig()
	pc.Fill.Passes = c.Passes
	pc.Fill.TimePasses = c.TimePasses
	if c.FillLatency > 0 {
		pc.Fill.FillLatency = c.FillLatency
	}
	pc.Fill.TracePacking = c.TracePacking
	pc.Fill.Promotion = c.Promotion
	pc.InactiveIssue = c.InactiveIssue
	pc.UseTraceCache = c.UseTraceCache
	pc.TCache.Policy = c.TCPolicy
	pc.Cache.L1IPolicy = c.ICPolicy
	if c.Clusters > 0 {
		pc.Exec.Clusters = c.Clusters
		pc.Fill.Clusters = c.Clusters
	}
	if c.FUsPerCluster > 0 {
		pc.Exec.FUsPerCluster = c.FUsPerCluster
		pc.Fill.FUsPerCluster = c.FUsPerCluster
	}
	pc.MaxInsts = c.MaxInsts
	if c.MaxCycles > 0 {
		pc.MaxCycles = c.MaxCycles
	}
	pc.Sampling = c.Sampling
	return pc
}

// SamplingConfig selects sampled timing (see Config.Sampling). It is an
// alias of the pipeline type: Period (retired instructions per sampling
// period; 0 = exact), WindowLen (measured detailed window), Warmup
// (discarded detailed prefix per window), Seek (skip gaps via
// checkpoint seek instead of functional warming; needs a seekable
// source, i.e. a workload run).
type SamplingConfig = pipeline.SamplingConfig

// SampledStats is the sampled-timing estimate attached to Result when
// sampling ran: the window-mean IPC with its 95% confidence interval,
// per-window IPCs, and the instruction accounting across warm-up,
// measured, fast-forwarded and seek-skipped portions.
type SampledStats = pipeline.SampledStats

// DefaultSamplingFor returns the standard sampling plan for an
// instruction budget (10k windows, 20k warm-up, ~50 windows per run).
func DefaultSamplingFor(budget uint64) SamplingConfig {
	return pipeline.DefaultSamplingFor(budget)
}

// ParseSamplingSpec parses the -sample CLI flag shared by cmd/tcsim and
// cmd/tcexp into a sampling plan. The spec is a comma list: either
// "auto" (the DefaultSamplingFor plan at the given budget) or an
// explicit "period,window,warmup" triple, optionally followed by
// "seek" to skip gaps via checkpoint seek. "" and "off" disable
// sampling. The returned plan is validated.
func ParseSamplingSpec(spec string, budget uint64) (SamplingConfig, error) {
	var sc SamplingConfig
	var nums []uint64
	for _, f := range strings.Split(spec, ",") {
		switch f = strings.TrimSpace(f); f {
		case "", "off":
		case "auto":
			d := DefaultSamplingFor(budget)
			sc.Period, sc.WindowLen, sc.Warmup = d.Period, d.WindowLen, d.Warmup
		case "seek":
			sc.Seek = true
		default:
			n, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				return sc, fmt.Errorf("tcsim: bad -sample element %q (want auto, seek, off, or a period,window,warmup triple)", f)
			}
			nums = append(nums, n)
		}
	}
	switch len(nums) {
	case 0:
	case 3:
		if sc.Period != 0 {
			return sc, errors.New("tcsim: -sample cannot mix auto with an explicit period,window,warmup triple")
		}
		sc.Period, sc.WindowLen, sc.Warmup = nums[0], nums[1], nums[2]
	default:
		return sc, fmt.Errorf("tcsim: -sample needs exactly three numbers (period,window,warmup), got %d", len(nums))
	}
	if sc.Seek && !sc.Enabled() {
		return sc, errors.New("tcsim: -sample seek needs a plan (auto or period,window,warmup)")
	}
	if err := sc.Validate(); err != nil {
		return sc, err
	}
	return sc, nil
}

// Program is a loadable TCR executable.
type Program struct {
	p *asm.Program
}

// Assemble builds a Program from TCR assembly text (see internal/asm for
// the syntax: MIPS-flavored, with .data/.text sections and label-based
// control flow).
func Assemble(source string) (*Program, error) {
	p, err := asm.AssembleText(source)
	if err != nil {
		return nil, err
	}
	return &Program{p: p}, nil
}

// Listing disassembles the program with symbol annotations.
func (p *Program) Listing() string { return p.p.Listing() }

// Result is what one simulation run produced.
type Result struct {
	IPC     float64
	Cycles  uint64
	Retired uint64

	TraceCacheHitRate float64
	MispredictRate    float64
	BypassDelayRate   float64 // fraction of eligible instructions delayed by cross-cluster bypass (Fig 7)

	// Fill-unit transformation coverage at retirement (Table 2).
	MovesPct, ReassocPct, ScaledPct, OptimizedPct float64

	// PassStats holds the fill unit's per-pass counters in pipeline run
	// order (empty on the baseline, which runs no passes).
	PassStats []PassStat

	// SegLengths is the finalized-segment length distribution:
	// SegLengths[n] counts segments finalized with exactly n
	// instructions. Trailing zero counts are trimmed; nil when no
	// segment was finalized.
	SegLengths []uint64

	// TraceReuse decants trace-cache line reuse by segment shape: one row
	// per (instruction-mix, loop-back) class that retired at least one
	// line generation, in canonical class order. Lines still resident at
	// end of run are included.
	TraceReuse []TraceReuseRow
	// TCBypasses counts fills the replacement policy rejected outright
	// (always zero except under a bypass-capable policy like "belady").
	TCBypasses uint64

	// Sampled is the sampled-timing estimate (nil unless Config.Sampling
	// was enabled). When present, IPC above is the sampled estimate, not
	// retired/cycles — most retired instructions never passed through
	// the cycle-accurate core.
	Sampled *SampledStats

	// Timeline is the recorded event timeline (nil unless
	// Config.Timeline was set). Write it out with WriteChromeTrace for
	// chrome://tracing / Perfetto.
	Timeline *Timeline

	// Output is the program's OUT byte stream.
	Output []byte
}

// Timeline is a recorded cycle-level event timeline (Config.Timeline).
// It serializes to JSON directly, or to the Chrome trace-event format
// via WriteChromeTrace.
type Timeline = obs.Timeline

// TimelineEvent is one recorded event; see the obs package for the
// event kinds and field meanings.
type TimelineEvent = obs.Event

// TraceReuseRow is one reuse-decanting class: trace-cache line
// generations whose segments share an instruction-mix class and
// loop-back shape, histogrammed by the demand hits each generation took
// before eviction (or end of run).
type TraceReuseRow struct {
	// Mix is the segment's instruction-mix class: "alu", "mem" or
	// "branchy".
	Mix string
	// Loop marks segments containing a loop-back edge.
	Loop bool
	// Lines is the number of line generations in this class.
	Lines uint64
	// Hits[n] counts generations that took exactly n demand hits; the
	// last bucket (index trace.ReuseCap) aggregates n >= cap. Trailing
	// zeros are trimmed.
	Hits []uint64
}

func reuseRows(rs trace.ReuseStats) []TraceReuseRow {
	var rows []TraceReuseRow
	for class := 0; class < trace.NumReuseClasses; class++ {
		lines := rs.Lines(class)
		if lines == 0 {
			continue
		}
		mix, loop := trace.ReuseClassLabel(class)
		last := -1
		for i, n := range rs.Counts[class] {
			if n != 0 {
				last = i
			}
		}
		row := TraceReuseRow{Mix: mix.String(), Loop: loop, Lines: lines}
		row.Hits = append(row.Hits, rs.Counts[class][:last+1]...)
		rows = append(rows, row)
	}
	return rows
}

func resultFrom(st pipeline.Stats, out []byte) Result {
	pct := func(n uint64) float64 {
		if st.Retired == 0 {
			return 0
		}
		return 100 * float64(n) / float64(st.Retired)
	}
	var segLens []uint64
	last := -1
	for i, n := range st.Fill.SegLen {
		if n != 0 {
			last = i
		}
	}
	if last >= 0 {
		segLens = append(segLens, st.Fill.SegLen[:last+1]...)
	}
	return Result{
		IPC:               st.IPC,
		Cycles:            st.Cycles,
		Retired:           st.Retired,
		TraceCacheHitRate: st.TCHitRate,
		MispredictRate:    st.MispredictRate,
		BypassDelayRate:   st.BypassDelayRate(),
		MovesPct:          pct(st.RetiredMoves),
		ReassocPct:        pct(st.RetiredReassoc),
		ScaledPct:         pct(st.RetiredScaled),
		OptimizedPct:      pct(st.RetiredAnyOpt),
		PassStats:         st.Passes,
		SegLengths:        segLens,
		TraceReuse:        reuseRows(st.TCReuse),
		TCBypasses:        st.TCBypasses,
		Sampled:           st.Sampled,
		Output:            out,
	}
}

// RunContext simulates a program on the configured machine, emulating
// it live. The cycle loop polls ctx periodically and aborts with an
// error matching both ErrCanceled and the context's own error when it
// is cancelled or its deadline passes.
func RunContext(ctx context.Context, cfg Config, prog *Program) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	return runContext(ctx, cfg, tracestore.RunSource{Prog: prog.p})
}

// runContext runs the pipeline over src.Prog, drawing the correct-path
// stream from src (a replayed capture or live emulation; the two are
// bit-for-bit identical). src.Future, when set, is the future-reference
// index oracle replacement policies consult; without it they are
// rejected at construction. A non-zero src.Captured marks a run that
// triggered a capture — a cold run — and emits the capture-phase
// timeline event (warm replays and live runs carry none, so their
// timelines match each other exactly).
func runContext(ctx context.Context, cfg Config, src tracestore.RunSource) (Result, error) {
	pc := cfg.pipelineConfig()
	pc.Oracle = src.Oracle
	if src.Future != nil {
		pc.Future = src.Future
	}
	if ctx.Done() != nil {
		pc.Cancelled = func() bool { return ctx.Err() != nil }
	}
	var rec *obs.Recorder
	if cfg.Timeline {
		rec = obs.NewRecorder(cfg.TimelineEvents)
		pc.Recorder = rec
		if src.Captured > 0 {
			rec.Emit(0, obs.KCapture, src.Captured, cfg.MaxInsts, 0)
		}
	}
	sim, err := pipeline.New(pc, src.Prog)
	if err != nil {
		return Result{}, err
	}
	// Label the run so profiles split its time by where the
	// correct-path stream came from: capture, replay or live emulation.
	var st pipeline.Stats
	pprof.Do(ctx, pprof.Labels("phase", src.Phase()), func(context.Context) {
		st, err = sim.Run()
	})
	if err != nil {
		if cerr := ctx.Err(); cerr != nil && err == pipeline.ErrCanceled {
			err = fmt.Errorf("%w: %w", pipeline.ErrCanceled, cerr)
		}
		return Result{}, err
	}
	res := resultFrom(st, sim.Output())
	if rec != nil {
		res.Timeline = rec.Timeline()
	}
	return res, nil
}

// Workloads lists the bundled benchmark names in the paper's Table 1
// order.
func Workloads() []string { return workload.Names() }

// BuildWorkload constructs one of the bundled benchmark programs.
func BuildWorkload(name string) (*Program, error) {
	w, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("tcsim: unknown workload %q (have %v)", name, workload.Names())
	}
	return &Program{p: w.Build()}, nil
}

// RunWorkloadContextIn builds and runs a bundled benchmark (see
// RunContext for cancellation). When cfg.MaxInsts is zero the
// workload's default instruction budget applies. The run draws its
// correct-path stream from st: the first run of a (workload, budget)
// pair captures it, every later run replays it — bit-for-bit identical,
// minus the emulation cost. st must not be nil.
func RunWorkloadContextIn(ctx context.Context, cfg Config, name string, st *TraceStore) (Result, error) {
	w, ok := workload.ByName(name)
	if !ok {
		return Result{}, fmt.Errorf("tcsim: unknown workload %q", name)
	}
	if st == nil {
		return Result{}, errors.New("tcsim: RunWorkloadContextIn needs a trace store (see NewTraceStore)")
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.MaxInsts == 0 {
		cfg.MaxInsts = w.DefaultInsts
	}
	pc := cfg.pipelineConfig()
	src, err := st.Source(ctx, name, cfg.MaxInsts, cfg.Sampling.Enabled() && cfg.Sampling.Seek, pipeline.MaxOracleLead(pc))
	if err != nil {
		return Result{}, err
	}
	return runContext(ctx, cfg, src)
}

// WorkloadDefaultInsts reports the bundled benchmark's default
// retired-instruction budget — what a zero Config.MaxInsts resolves to
// in RunWorkloadContextIn. The serving layer uses it to canonicalize job specs so
// "default budget" and "explicit default budget" hash identically.
func WorkloadDefaultInsts(name string) (uint64, bool) {
	w, ok := workload.ByName(name)
	if !ok {
		return 0, false
	}
	return w.DefaultInsts, true
}
