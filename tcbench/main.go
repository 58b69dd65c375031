// Command tcbench is the repository benchmark: it runs one named
// workload against tcsim's public entry points, checks every simulated
// result against a golden record, and prints the metrics as one JSON
// line. See README.md for the workloads and metrics, and run.sh for how
// to build and run it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"tcsim"
)

// Each workload performs its set-up at least setupMinReps times, and on
// until setupMinSeconds of set-up have passed or setupMaxReps were run;
// setup_s is the median, and the last set-up's state is what gets
// measured. A short set-up (exact-sweep's takes about 0.12 s) thus gets
// about 25 samples, a long one (service-mix's, about 1.2 s) seven. The
// 3 s keep set-up to a small share of a run, so that most of the time
// the benchmark is given goes to measured work.
const (
	setupMinReps    = 7
	setupMaxReps    = 40
	setupMinSeconds = 3.0
)

// options carries the command line into a workload.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	golden  *golden
}

// phase is how long one measured phase lasts. A traced run splits its
// time between an untraced phase and a traced one, so it takes as long
// as an untraced run.
func (o options) phase() time.Duration {
	if o.trace {
		return o.seconds / 2
	}
	return o.seconds
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line the benchmark prints last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	trace bool // a traced run: report per-layer metrics, not end-to-end ones
}

// units names every metric the benchmark can report, with its unit.
// Workload code sets values by name through report.set.
var units = map[string]string{
	// End to end, reported by every workload.
	"setup_s":        "s",
	"peak_rss_mb":    "MB",
	"sim_inst_per_s": "inst/s",

	// Per layer: each workload's own breakdown of its end-to-end figures,
	// from the traced run's untraced half.
	"sampled_warm_inst_per_s": "inst/s",
	"sampled_seek_inst_per_s": "inst/s",
	"svc_jobs_per_s":          "1/s",
	"svc_p50_ms":              "ms",
	"svc_p99_ms":              "ms",
	"svc_hit_p50_ms":          "ms",
	"svc_replay_p50_ms":       "ms",
	"svc_capture_p50_ms":      "ms",
	"svc_sampled_p50_ms":      "ms",

	// Per layer: host time from the traced run's CPU profile.
	"exec.cycle_ns_per_inst":          "ns/inst",
	"pipeline.resolve_ns_per_inst":    "ns/inst",
	"pipeline.issue_ns_per_inst":      "ns/inst",
	"pipeline.fetch_ns_per_inst":      "ns/inst",
	"pipeline.retire_ns_per_inst":     "ns/inst",
	"pipeline.fill_drain_ns_per_inst": "ns/inst",
	"pipeline.prune_ns_per_inst":      "ns/inst",
	"pipeline.ffwd_ns_per_inst":       "ns/inst",
	"core.ns_per_inst":                "ns/inst",
	"trace.ns_per_inst":               "ns/inst",
	"bpred.ns_per_inst":               "ns/inst",
	"cache.ns_per_inst":               "ns/inst",
	"rename.ns_per_inst":              "ns/inst",
	"emu.ns_per_inst":                 "ns/inst",
	"tracestore.replay_ns_per_inst":   "ns/inst",
	"tracestore.seek_ms":              "ms",
	// Per layer: counts and allocations measured around the calls.
	"pipeline.allocs_per_kinst":      "count/kinst",
	"pipeline.alloc_bytes_per_kinst": "B/kinst",
	"tracestore.capture_s":           "s",
	"tracestore.resident_mb":         "MB",
	"tracestore.captures":            "count",
	"tracestore.replay_hits":         "count",
	"sample.windows":                 "count",
	"sample.seeks":                   "count",
	"sample.detailed_frac":           "ratio",
	// Per layer: the service hops, from /debug/spans and /metrics.
	"server.queue_wait_ms":        "ms",
	"server.cache_lookup_ms":      "ms",
	"server.singleflight_wait_ms": "ms",
	"server.trace_capture_ms":     "ms",
	"server.cdn_fetch_ms":         "ms",
	"server.run_ms":               "ms",
	"server.cache_hit_ratio":      "ratio",
	"server.rejected_429":         "count",
	"cluster.attempt_ms":          "ms",
	"cluster.gateway_self_ms":     "ms",
	"cluster.retries":             "count",
	"cluster.rehashes":            "count",
	"client.misclassified_jobs":   "count",
	"obs.spans_lost":              "count",
	"obs.trace_overhead_pct":      "%",
	// Per layer: the simulated machine (model, not host time).
	"model.cycles":           "count",
	"model.ipc":              "inst/cycle",
	"trace.hit_rate":         "ratio",
	"bpred.mispredict_rate":  "ratio",
	"exec.bypass_delay_rate": "ratio",
}

// endToEnd lists the end-to-end metrics: reported by untraced runs of
// every workload (run fails a report that lacks one). Every other name in
// units is per-layer and reported by traced runs, where a layer a
// workload does not exercise reads 0.
var endToEnd = []string{"setup_s", "peak_rss_mb", "sim_inst_per_s"}

func isEndToEnd(name string) bool {
	for _, n := range endToEnd {
		if n == name {
			return true
		}
	}
	return false
}

func newReport(trace bool) *report {
	r := &report{Metrics: map[string]metric{}, trace: trace}
	if trace {
		for name, unit := range units {
			if !isEndToEnd(name) {
				r.Metrics[name] = metric{Unit: unit}
			}
		}
	}
	return r
}

// set records a metric. Traced runs keep only per-layer metrics and
// untraced runs only end-to-end ones, so each workload can set both
// unconditionally.
func (r *report) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("tcbench: unknown metric " + name)
	}
	if isEndToEnd(name) == r.trace {
		return
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// complete checks that an untraced report holds every end-to-end metric,
// each positive: a workload that could not measure one has no result.
func (r *report) complete() error {
	if r.trace {
		return nil
	}
	for _, name := range endToEnd {
		if m, ok := r.Metrics[name]; !ok || !(m.Value > 0) {
			return fmt.Errorf("end-to-end metric %s not measured", name)
		}
	}
	return nil
}

// op counts one checked operation.
func (r *report) op(err error, stderr io.Writer) {
	r.Attempted++
	if err != nil {
		r.Failed++
		fmt.Fprintf(stderr, "tcbench: FAIL %v\n", err)
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(ctx context.Context, o options, stderr io.Writer) (*report, error){
	"exact-sweep":  runExactSweep,
	"sampled-long": runSampledLong,
	"service-mix":  runServiceMix,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: exact-sweep, sampled-long or service-mix")
	seed := fs.Int64("seed", 1, "seed for the workload's generated inputs")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	record := fs.String("record", "", "write a fresh golden record to this file instead of running a workload")
	mix := fs.Bool("derive-mix", false, "classify the jobs of a tcexp session replayed through the service, instead of running a workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx := context.Background()
	if *record != "" {
		if err := recordGolden(ctx, *record, stderr); err != nil {
			fmt.Fprintf(stderr, "tcbench: record: %v\n", err)
			return 1
		}
		return 0
	}
	if *mix {
		if err := deriveMix(ctx, stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "tcbench: derive-mix: %v\n", err)
			return 1
		}
		return 0
	}
	runner, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "tcbench: need -workload exact-sweep|sampled-long|service-mix, -seconds >= 1, -trace 0|1\n")
		return 2
	}
	g, err := loadGolden()
	if err != nil {
		fmt.Fprintf(stderr, "tcbench: %v\n", err)
		return 1
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, golden: g}
	rep, err := runner(ctx, o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "tcbench: %s: %v\n", *name, err)
		return 1
	}
	rep.set("peak_rss_mb", peakRSSMB())
	if err := rep.complete(); err != nil {
		fmt.Fprintf(stderr, "tcbench: %s: %v\n", *name, err)
		return 1
	}
	rep.Correct = rep.Failed == 0
	prov := provenance(*name, o)
	pb, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Fprintln(stdout, string(pb))
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "tcbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// provenance records what produced a result.
func provenance(workload string, o options) map[string]any {
	return map[string]any{
		"workload":      workload,
		"commit":        commit(),
		"go":            runtime.Version(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"seed":          o.seed,
		"seconds":       o.seconds.Seconds(),
		"trace":         o.trace,
		"exact_insts":   exactInsts,
		"sampled_insts": sampledInsts,
		"svc_insts":     svcInsts,
		"svc_sampled":   svcSampledInsts,
		"pass_spec":     tcsim.DefaultPassSpec(),
	}
}

// commit is the source revision the build stamped, marked "+dirty" for
// uncommitted changes; "unknown" when built outside a git checkout.
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// timeSetup runs setup repeatedly (see setupMinReps) and returns the
// median wall time in seconds. Each set-up replaces the previous one's
// state.
func timeSetup(setup func() error) (float64, error) {
	var walls []float64
	total := 0.0
	for len(walls) < setupMinReps || (total < setupMinSeconds && len(walls) < setupMaxReps) {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		total += walls[len(walls)-1]
	}
	return median(walls), nil
}

// profiled runs fn under the CPU profiler and folds the profile.
func profiled(fn func() error) (*profileFold, error) {
	var buf bytes.Buffer
	if err := profileInto(&buf, fn); err != nil {
		return nil, err
	}
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	f := p.fold()
	return f, f.checkStages()
}

// profileInto runs fn under the CPU profiler, writing the profile to w.
func profileInto(w io.Writer, fn func() error) error {
	if err := pprof.StartCPUProfile(w); err != nil {
		return err
	}
	err := fn()
	pprof.StopCPUProfile()
	return err
}

// overheadPct is the traced phase's extra wall time per unit of work
// over the untraced phase's, in percent.
func overheadPct(untraced, traced float64) float64 {
	if untraced <= 0 {
		return 0
	}
	return 100 * (traced - untraced) / untraced
}

// perInst divides a host-time total in ns by an instruction count.
func perInst(nanos int64, insts uint64) float64 {
	if insts == 0 {
		return 0
	}
	return float64(nanos) / float64(insts)
}

// setLayerTimes reports the Step-stage and package-API figures of a
// fold, per detailed instruction.
func (r *report) setLayerTimes(f *profileFold, detailed uint64) {
	for _, st := range stageNames {
		r.set(st+"_ns_per_inst", perInst(f.stages[st], detailed))
	}
	for _, pkg := range apiPackages {
		r.set(pkg+".ns_per_inst", perInst(f.pkgAPI[pkg], detailed))
	}
}
