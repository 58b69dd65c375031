// Package experiments regenerates every table and figure of the paper's
// evaluation: per-optimization IPC improvements (Figures 3-6), the bypass
// delay reduction (Figure 7), the combined result across fill latencies
// (Figure 8), the transformation coverage table (Table 2), the benchmark
// roster (Table 1), and the ablations DESIGN.md calls out.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"

	"tcsim"
	"tcsim/internal/core"
	"tcsim/internal/workload"
)

// Runner executes simulations with singleflight memoization so the
// figures can share baseline runs: when two figures concurrently ask for
// the same workload/variant pair, one simulation runs and both wait on
// it. Simulations are throttled by a worker pool sized GOMAXPROCS (or
// Parallel). Every simulation is a tcsim.RunWorkloadContextIn call over
// the Runner's own trace store — the run path tcsim, tcserved and
// tcbench share — so each workload is emulated once per Runner, not
// once per variant. Create one with NewRunner; it is safe for
// concurrent use.
type Runner struct {
	// Insts overrides every workload's instruction budget when non-zero.
	Insts uint64
	// Workloads restricts the set (nil = all 15).
	Workloads []string
	// Parallel caps concurrent simulations (0 = GOMAXPROCS). Read once,
	// when the first simulation starts.
	Parallel int

	store   *tcsim.TraceStore
	mu      sync.Mutex
	flights map[string]*flight
	workers chan struct{} // worker-pool slots, built lazily from Parallel

	simCount atomic.Uint64 // simulations actually executed (not memo hits)
}

// flight is one singleflight cell: the first caller for a key simulates
// and closes done; everyone else blocks on done and reads res/err.
type flight struct {
	done chan struct{}
	res  tcsim.Result
	err  error
}

// NewRunner returns a Runner with an instruction budget override
// (0 keeps each workload's default).
func NewRunner(insts uint64) *Runner {
	return &Runner{Insts: insts, store: tcsim.NewTraceStore(0), flights: make(map[string]*flight)}
}

func (r *Runner) workloads() []workload.Workload {
	if r.Workloads == nil {
		return workload.All()
	}
	var out []workload.Workload
	for _, n := range r.Workloads {
		if w, ok := workload.ByName(n); ok {
			out = append(out, w)
		}
	}
	return out
}

// ConfigVariant names a machine configuration for caching and reporting.
// Mut edits the paper's baseline machine (tcsim.DefaultConfig, with
// MaxInsts already set to the Runner's budget).
type ConfigVariant struct {
	Name string
	Mut  func(*tcsim.Config)
}

// VariantFromPasses builds a variant that runs exactly the named passes
// in the given order (a pass spec; illegal specs surface as errors from
// tcsim's Config.Validate).
func VariantFromPasses(name string, passes []string) ConfigVariant {
	return ConfigVariant{Name: name, Mut: func(c *tcsim.Config) { c.Passes = passes }}
}

// VariantForPass is the one-optimization-at-a-time variant for a single
// registered pass, named after it (Figures 3-7 sweep these). Unknown
// passes are a programmer error and panic.
func VariantForPass(pass string) ConfigVariant {
	if _, ok := core.LookupPass(pass); !ok {
		panic(fmt.Sprintf("experiments: unknown pass %q", pass))
	}
	return VariantFromPasses(pass, []string{pass})
}

// SinglePassVariants generates the one-pass-at-a-time sweep from the
// pass registry, in canonical order: one variant per registered pass.
// A newly registered pass joins the sweep with no edits here.
func SinglePassVariants() []ConfigVariant {
	var out []ConfigVariant
	for _, name := range core.PassNames() {
		out = append(out, VariantForPass(name))
	}
	return out
}

// Standard variants, generated from the pass registry: each single-pass
// variant runs exactly that pass; AllOpts runs the paper's combined
// pipeline (every Default pass in canonical order).
var (
	Baseline    = ConfigVariant{Name: "baseline", Mut: func(*tcsim.Config) {}}
	MovesOnly   = VariantForPass("moves")
	ReassocOnly = VariantForPass("reassoc")
	ScaledOnly  = VariantForPass("scadd")
	PlaceOnly   = VariantForPass("place")
	AllOpts     = VariantFromPasses("all", core.DefaultPassSpec())
)

// AllOptsLatency returns the combined configuration with a specific fill
// latency (Figure 8 sweeps 1, 5 and 10 cycles).
func AllOptsLatency(lat int) ConfigVariant {
	return ConfigVariant{
		Name: fmt.Sprintf("all@lat%d", lat),
		Mut: func(c *tcsim.Config) {
			c.Passes = core.DefaultPassSpec()
			c.FillLatency = lat
		},
	}
}

// Run simulates one workload under one variant, memoized.
func (r *Runner) Run(w workload.Workload, v ConfigVariant) (tcsim.Result, error) {
	return r.RunContext(context.Background(), w, v)
}

// RunContext is Run with cancellation: the simulation polls ctx and
// aborts early when it is cancelled. A cancelled flight is forgotten so
// a later caller can rerun the pair; completed results are memoized for
// the Runner's lifetime.
func (r *Runner) RunContext(ctx context.Context, w workload.Workload, v ConfigVariant) (tcsim.Result, error) {
	key := w.Name + "/" + v.Name
	for {
		r.mu.Lock()
		if f, ok := r.flights[key]; ok {
			r.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return tcsim.Result{}, ctx.Err()
			}
			if isCancel(f.err) {
				// The owning caller was cancelled before finishing; its
				// result is not a real answer for this key. Drop the
				// cell and race to become the new owner.
				r.forget(key, f)
				continue
			}
			return f.res, f.err
		}
		f := &flight{done: make(chan struct{})}
		r.flights[key] = f
		r.mu.Unlock()

		f.res, f.err = r.simulate(ctx, w, v)
		if isCancel(f.err) {
			r.forget(key, f)
		}
		close(f.done)
		return f.res, f.err
	}
}

func isCancel(err error) bool {
	return err != nil && (errors.Is(err, tcsim.ErrCanceled) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// forget removes a flight cell if it is still the one registered for key.
func (r *Runner) forget(key string, f *flight) {
	r.mu.Lock()
	if r.flights[key] == f {
		delete(r.flights, key)
	}
	r.mu.Unlock()
}

// sem returns the worker-pool slot channel, sizing it from Parallel (or
// GOMAXPROCS) on first use.
func (r *Runner) sem() chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.workers == nil {
		par := r.Parallel
		if par <= 0 {
			par = runtime.GOMAXPROCS(0)
		}
		r.workers = make(chan struct{}, par)
	}
	return r.workers
}

// simulate runs one actual simulation inside a worker-pool slot.
func (r *Runner) simulate(ctx context.Context, w workload.Workload, v ConfigVariant) (tcsim.Result, error) {
	sem := r.sem()
	select {
	case sem <- struct{}{}:
	case <-ctx.Done():
		return tcsim.Result{}, ctx.Err()
	}
	defer func() { <-sem }()
	if err := ctx.Err(); err != nil {
		return tcsim.Result{}, err
	}
	return r.execute(ctx, w, v)
}

// execute runs w under v through tcsim.RunWorkloadContextIn over the
// Runner's trace store: every variant of a workload replays one
// capture, so a sweep pays emulation per workload, not per (workload ×
// variant). The run is labelled with its workload and variant, on top
// of the phase label tcsim gives every run, so profiles split sweep
// time by all three.
func (r *Runner) execute(ctx context.Context, w workload.Workload, v ConfigVariant) (tcsim.Result, error) {
	r.simCount.Add(1)
	cfg := tcsim.DefaultConfig()
	cfg.MaxInsts = r.Insts // 0 = the workload's default
	v.Mut(&cfg)
	var res tcsim.Result
	var err error
	pprof.Do(ctx, pprof.Labels("workload", w.Name, "variant", v.Name), func(ctx context.Context) {
		res, err = tcsim.RunWorkloadContextIn(ctx, cfg, w.Name, r.store)
	})
	if err != nil {
		return tcsim.Result{}, fmt.Errorf("%s/%s: %w", w.Name, v.Name, err)
	}
	return res, nil
}

// SimCount reports how many simulations have actually executed (memo
// hits and singleflight waiters excluded) — a test and reporting hook.
func (r *Runner) SimCount() uint64 { return r.simCount.Load() }

// runAll executes the variant over every selected workload, in parallel.
// The worker pool inside simulate bounds concurrency, so one goroutine
// per workload is cheap; the first real error cancels the rest.
func (r *Runner) runAll(v ConfigVariant) (map[string]tcsim.Result, error) {
	ws := r.workloads()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	var mu sync.Mutex
	out := make(map[string]tcsim.Result, len(ws))
	var firstErr error
	for _, w := range ws {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := r.RunContext(ctx, w, v)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				// Cancellation fallout from a sibling's failure is not
				// the root cause; record only real errors.
				if firstErr == nil && !isCancel(err) {
					firstErr = err
					cancel()
				}
				return
			}
			out[w.Name] = res
		}()
	}
	wg.Wait()
	if firstErr == nil {
		if err := ctx.Err(); err != nil {
			return out, err
		}
	}
	return out, firstErr
}

// BenchRow is one benchmark's entry in a figure: baseline and optimized
// IPC, the improvement, and the paper's approximate reported improvement
// where the text quotes one (NaN-free: 0 means "not individually quoted").
type BenchRow struct {
	Name       string
	BaseIPC    float64
	OptIPC     float64
	ImprovePct float64
	PaperPct   float64
}

// FigureResult is a reproduced per-optimization figure.
type FigureResult struct {
	ID       string
	Title    string
	Rows     []BenchRow
	AvgPct   float64 // arithmetic mean of per-benchmark improvements
	PaperAvg float64
}

// improvementFigure runs baseline vs. variant over all workloads.
func (r *Runner) improvementFigure(id, title string, v ConfigVariant, paperAvg float64, paperPer map[string]float64) (*FigureResult, error) {
	base, err := r.runAll(Baseline)
	if err != nil {
		return nil, err
	}
	opt, err := r.runAll(v)
	if err != nil {
		return nil, err
	}
	res := &FigureResult{ID: id, Title: title, PaperAvg: paperAvg}
	sum := 0.0
	for _, w := range r.workloads() {
		b, o := base[w.Name], opt[w.Name]
		imp := 0.0
		if b.IPC > 0 {
			imp = 100 * (o.IPC - b.IPC) / b.IPC
		}
		sum += imp
		res.Rows = append(res.Rows, BenchRow{
			Name: w.Name, BaseIPC: b.IPC, OptIPC: o.IPC,
			ImprovePct: imp, PaperPct: paperPer[w.Name],
		})
	}
	if len(res.Rows) > 0 {
		res.AvgPct = sum / float64(len(res.Rows))
	}
	return res, nil
}

// Figure3 reproduces the register-move figure (paper avg: ~5%).
func (r *Runner) Figure3() (*FigureResult, error) {
	return r.improvementFigure("fig3", "IPC improvement of register move handling", MovesOnly, 5,
		nil)
}

// Figure4 reproduces the reassociation figure (paper: 1-2% for ten of
// fifteen; m88ksim and chess 23%; ijpeg 6%; gs 8%).
func (r *Runner) Figure4() (*FigureResult, error) {
	return r.improvementFigure("fig4", "IPC improvement of fill unit reassociation", ReassocOnly, 5.5,
		map[string]float64{"m88ksim": 23, "chess": 23, "ijpeg": 6, "gs": 8})
}

// Figure5 reproduces the scaled-add figure (paper: 1%..8%, avg 3.7%).
func (r *Runner) Figure5() (*FigureResult, error) {
	return r.improvementFigure("fig5", "IPC improvement of scaled add instructions", ScaledOnly, 3.7,
		map[string]float64{"go": 8, "tex": 8, "li": 1, "vortex": 1, "pgp": 1, "plot": 1})
}

// Figure6 reproduces the instruction-placement figure (paper avg 5%;
// ijpeg 11%; tex 1%).
func (r *Runner) Figure6() (*FigureResult, error) {
	return r.improvementFigure("fig6", "IPC improvement of fill unit instruction placement", PlaceOnly, 5,
		map[string]float64{"ijpeg": 11, "tex": 1})
}

// BypassRow is one benchmark's Figure 7 entry: the percentage of on-path
// instructions whose last-arriving operand was delayed by the bypass
// network, baseline vs. placement.
type BypassRow struct {
	Name         string
	BaselinePct  float64
	PlacementPct float64
}

// Figure7Result reproduces the bypass-delay reduction figure.
type Figure7Result struct {
	Rows        []BypassRow
	BaseAvg     float64
	PlaceAvg    float64
	PaperBase   float64 // ~35%
	PaperPlaced float64 // ~29%
}

// Figure7 reproduces the bypass-delay figure.
func (r *Runner) Figure7() (*Figure7Result, error) {
	base, err := r.runAll(Baseline)
	if err != nil {
		return nil, err
	}
	place, err := r.runAll(PlaceOnly)
	if err != nil {
		return nil, err
	}
	res := &Figure7Result{PaperBase: 35, PaperPlaced: 29}
	var sb, sp float64
	for _, w := range r.workloads() {
		row := BypassRow{
			Name:         w.Name,
			BaselinePct:  100 * base[w.Name].BypassDelayRate,
			PlacementPct: 100 * place[w.Name].BypassDelayRate,
		}
		sb += row.BaselinePct
		sp += row.PlacementPct
		res.Rows = append(res.Rows, row)
	}
	if n := float64(len(res.Rows)); n > 0 {
		res.BaseAvg, res.PlaceAvg = sb/n, sp/n
	}
	return res, nil
}

// Figure8Row is one benchmark's combined result across fill latencies.
type Figure8Row struct {
	Name       string
	BaseIPC    float64
	IPCLat1    float64
	IPCLat5    float64
	IPCLat10   float64
	ImprovePct float64 // at the 5-cycle fill unit, as the paper reports
	PaperPct   float64
}

// Figure8Result reproduces the combined-optimizations figure.
type Figure8Result struct {
	Rows     []Figure8Row
	AvgPct   float64
	PaperAvg float64 // ~18%
}

// Figure8 reproduces the combined figure with 1-, 5- and 10-cycle fill
// units (paper: ~18% average, m88ksim 44%, chess 38%, compress/gcc/go/
// plot 13-14%, latency impact negligible).
func (r *Runner) Figure8() (*Figure8Result, error) {
	base, err := r.runAll(Baseline)
	if err != nil {
		return nil, err
	}
	lat1, err := r.runAll(AllOptsLatency(1))
	if err != nil {
		return nil, err
	}
	lat5, err := r.runAll(AllOptsLatency(5))
	if err != nil {
		return nil, err
	}
	lat10, err := r.runAll(AllOptsLatency(10))
	if err != nil {
		return nil, err
	}
	paper := map[string]float64{"m88ksim": 44, "chess": 38, "compress": 13.5,
		"gcc": 13.5, "go": 13.5, "plot": 13.5}
	res := &Figure8Result{PaperAvg: 18}
	sum := 0.0
	for _, w := range r.workloads() {
		b := base[w.Name]
		row := Figure8Row{
			Name:     w.Name,
			BaseIPC:  b.IPC,
			IPCLat1:  lat1[w.Name].IPC,
			IPCLat5:  lat5[w.Name].IPC,
			IPCLat10: lat10[w.Name].IPC,
			PaperPct: paper[w.Name],
		}
		if b.IPC > 0 {
			row.ImprovePct = 100 * (row.IPCLat5 - b.IPC) / b.IPC
		}
		sum += row.ImprovePct
		res.Rows = append(res.Rows, row)
	}
	if len(res.Rows) > 0 {
		res.AvgPct = sum / float64(len(res.Rows))
	}
	return res, nil
}

// Table2Row is one benchmark's transformation coverage.
type Table2Row struct {
	Name                                  string
	MovesPct, ReassocPct, ScaledPct       float64
	TotalPct                              float64
	PaperMoves, PaperReassoc, PaperScaled float64
	PaperTotal                            float64
}

// Table2Result reproduces the percentage-of-instructions-transformed
// table.
type Table2Result struct {
	Rows          []Table2Row
	AvgTotal      float64
	PaperAvgTotal float64 // "slightly more than 13%"
}

// Table2 measures, under the combined configuration, the percentage of
// retired instructions carrying each transformation.
func (r *Runner) Table2() (*Table2Result, error) {
	all, err := r.runAll(AllOpts)
	if err != nil {
		return nil, err
	}
	res := &Table2Result{PaperAvgTotal: 13.3}
	sum := 0.0
	for _, w := range r.workloads() {
		a := all[w.Name]
		row := Table2Row{
			Name:         w.Name,
			MovesPct:     a.MovesPct,
			ReassocPct:   a.ReassocPct,
			ScaledPct:    a.ScaledPct,
			TotalPct:     a.OptimizedPct,
			PaperMoves:   w.Table2[0],
			PaperReassoc: w.Table2[1],
			PaperScaled:  w.Table2[2],
			PaperTotal:   w.Table2[0] + w.Table2[1] + w.Table2[2],
		}
		sum += row.TotalPct
		res.Rows = append(res.Rows, row)
	}
	if len(res.Rows) > 0 {
		res.AvgTotal = sum / float64(len(res.Rows))
	}
	return res, nil
}

// AblationResult compares design-choice ablations beyond the paper's
// figures: promotion, trace packing, inactive issue, the trace cache
// itself, and the cluster organization.
type AblationResult struct {
	Variants []string
	// Names is the row order: the selected workloads.
	Names []string
	// IPC[workload][variant index]
	IPC map[string][]float64
}

// Ablations runs the ablation matrix.
func (r *Runner) Ablations() (*AblationResult, error) {
	variants := []ConfigVariant{
		Baseline,
		{Name: "no-promotion", Mut: func(c *tcsim.Config) { c.Promotion = false }},
		{Name: "no-packing", Mut: func(c *tcsim.Config) { c.TracePacking = false }},
		{Name: "no-inactive", Mut: func(c *tcsim.Config) { c.InactiveIssue = false }},
		{Name: "no-tcache", Mut: func(c *tcsim.Config) { c.UseTraceCache = false }},
		// Every registered pass in canonical order: the combined
		// configuration plus the dead-write extension — and any custom
		// pass the embedding program registers, with no edits here.
		VariantFromPasses("all+dwe", core.AllPassSpec()),
		{Name: "1x16", Mut: func(c *tcsim.Config) { c.Clusters, c.FUsPerCluster = 1, 16 }},
		{Name: "8x2", Mut: func(c *tcsim.Config) { c.Clusters, c.FUsPerCluster = 8, 2 }},
	}
	res := &AblationResult{Names: r.WorkloadNames(), IPC: make(map[string][]float64)}
	for _, v := range variants {
		res.Variants = append(res.Variants, v.Name)
		stats, err := r.runAll(v)
		if err != nil {
			return nil, err
		}
		for _, w := range r.workloads() {
			res.IPC[w.Name] = append(res.IPC[w.Name], stats[w.Name].IPC)
		}
	}
	return res, nil
}

// WorkloadNames returns the selected workload names in order.
func (r *Runner) WorkloadNames() []string {
	var ns []string
	for _, w := range r.workloads() {
		ns = append(ns, w.Name)
	}
	return ns
}

// CacheKeys lists memoized runs — completed, successful flights only
// (test hook).
func (r *Runner) CacheKeys() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ks []string
	for k, f := range r.flights {
		select {
		case <-f.done:
			if f.err == nil {
				ks = append(ks, k)
			}
		default:
		}
	}
	sort.Strings(ks)
	return ks
}

// Experiment ids beyond the paper's evaluation: this simulator's own
// extensions. Reproduce accepts them, but the "all" sweep (PaperIDs)
// leaves them out so its output stays the paper's.
const (
	// PoliciesID is the registry-generated replacement policy x
	// workload figure (IPC and trace-cache hit rate under every
	// registered policy, the Belady oracle as the upper-bound column).
	PoliciesID = "policies"
	// SamplingID is the sampled-timing validation figure (sampled vs
	// exact IPC with CI coverage, plus a long-budget headline sweep) at
	// its default budgets and plan; call Sampling to choose them.
	SamplingID = "sampling"
)

// catalog maps every experiment id, in presentation order, to the
// function that reproduces it and formats the result: the paper's
// evaluation first, then the two extensions (PaperIDs relies on this).
var catalog = []struct {
	id  string
	run func(*Runner) (string, error)
}{
	{"table1", func(r *Runner) (string, error) { return FormatTable1(r.Insts), nil }},
	{"fig3", formatted((*Runner).Figure3)},
	{"fig4", formatted((*Runner).Figure4)},
	{"fig5", formatted((*Runner).Figure5)},
	{"fig6", formatted((*Runner).Figure6)},
	{"fig7", formatted((*Runner).Figure7)},
	{"fig8", formatted((*Runner).Figure8)},
	{"table2", formatted((*Runner).Table2)},
	{"ablations", formatted((*Runner).Ablations)},
	{PoliciesID, formatted((*Runner).PolicyLab)},
	{SamplingID, formatted(func(r *Runner) (*SamplingResult, error) { return r.Sampling(0, 0, tcsim.SamplingConfig{}) })},
}

// formatted turns a figure's driver into a catalog entry.
func formatted[T interface{ Format() string }](fig func(*Runner) (T, error)) func(*Runner) (string, error) {
	return func(r *Runner) (string, error) {
		res, err := fig(r)
		if err != nil {
			return "", err
		}
		return res.Format(), nil
	}
}

// IDs lists every id Reproduce accepts: PaperIDs, then PoliciesID and
// SamplingID.
func IDs() []string {
	ids := make([]string, len(catalog))
	for i, e := range catalog {
		ids[i] = e.id
	}
	return ids
}

// PaperIDs lists the paper's tables and figures (plus the ablations) in
// the order the "all" sweep reproduces them.
func PaperIDs() []string { return IDs()[:len(catalog)-2] }

// Reproduce regenerates one table or figure by id (see IDs) and returns
// it formatted. It reuses every simulation the Runner has already run,
// so callers reproducing several figures should share one Runner.
func (r *Runner) Reproduce(id string) (string, error) {
	for _, e := range catalog {
		if e.id == id {
			return e.run(r)
		}
	}
	return "", fmt.Errorf("experiments: unknown experiment %q", id)
}
