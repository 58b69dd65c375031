package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"time"

	"tcsim"
	"tcsim/client"
	"tcsim/internal/obs"
	"tcsim/internal/server"
)

// Exposition sample names the checks and the summary line read.
const (
	sampleCacheHits   = `tcserved_cache_requests_total{result="hit"}`
	sampleCacheMisses = `tcserved_cache_requests_total{result="miss"}`
	sampleCaptures    = "tcserved_tracestore_captures_total"
	sampleReplays     = "tcserved_tracestore_replay_hits_total"
	sampleWindows     = "tcserved_sampling_windows_total"
	sampleFFwd        = `tcserved_sampling_insts_total{mode="ffwd"}`
	sampleRestores    = "tcserved_sampling_checkpoint_restores_total"
)

// selfcheckWorkloads keeps the check fast while still mixing control
// flow: pointer-chasing, integer-heavy and branchy benchmarks.
var selfcheckWorkloads = []string{"m88ksim", "compress", "li", "go", "ijpeg", "gcc"}

// selfcheckConfigs are the machine variants crossed with the workloads.
// The Workload and Insts fields are filled per case.
var selfcheckConfigs = []client.JobRequest{
	{},                                   // baseline
	{Preset: client.PresetAll},           // paper's combined pipeline
	{Passes: []string{"moves", "place"}}, // explicit partial pipeline
	{Preset: client.PresetAll, FillLatency: 5}, // latency sweep point
}

// checkFailure accumulates assertion failures without stopping the run,
// so one report lists everything wrong.
type checkFailure struct {
	mu   sync.Mutex
	errs []string
}

func (c *checkFailure) failf(format string, args ...any) {
	c.mu.Lock()
	c.errs = append(c.errs, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

// startDaemon serves an in-process tcserved on an ephemeral loopback
// port and returns its client plus a shutdown function.
func startDaemon(scfg server.Config) (*server.Server, *client.Client, func(ctx context.Context) error, error) {
	srv := server.New(scfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	cl := client.New("http://" + ln.Addr().String())
	shutdown := func(ctx context.Context) error {
		if err := httpSrv.Shutdown(ctx); err != nil {
			return err
		}
		return srv.Shutdown(ctx)
	}
	return srv, cl, shutdown, nil
}

// runSelfcheck is the end-to-end load check the CI gate runs: a mixed,
// duplicate-heavy job storm whose every response must be bit-for-bit
// identical to a direct tcsim.Run, a sweep cross-checked against the
// same references, a cache-effectiveness assertion, and a saturation
// phase that must produce 429s rather than unbounded queueing.
func runSelfcheck(stdout, stderr io.Writer, scfg server.Config, jobs int, insts uint64, flightDir string) int {
	t0 := time.Now()
	if jobs < 50 {
		jobs = 50
	}
	var fails checkFailure
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	// Phase 1+2 daemon: a roomy queue so the storm exercises dedup and
	// caching, not backpressure.
	scfg.Engine.Queue = 2 * jobs
	srv, cl, shutdown, err := startDaemon(scfg)
	if err != nil {
		fmt.Fprintf(stderr, "tcserved selfcheck: %v\n", err)
		return 1
	}

	if err := cl.Health(ctx); err != nil {
		fmt.Fprintf(stderr, "tcserved selfcheck: health: %v\n", err)
		return 1
	}
	passes, err := cl.Passes(ctx)
	if err != nil || len(passes) == 0 {
		fails.failf("GET /v1/passes: got %d passes, err %v", len(passes), err)
	}

	// Build the unique cases and their direct-run reference results.
	type testCase struct {
		req      client.JobRequest
		key      string
		expected tcsim.Result
	}
	var unique []testCase
	for _, w := range selfcheckWorkloads {
		for _, cfg := range selfcheckConfigs {
			req := cfg
			req.Workload = w
			req.Insts = insts
			dcfg, key, err := server.ResolveConfig(&req, server.Limits{})
			if err != nil {
				fmt.Fprintf(stderr, "tcserved selfcheck: resolve %s: %v\n", w, err)
				return 1
			}
			expected, err := tcsim.Run(dcfg, mustProgram(w))
			if err != nil {
				fmt.Fprintf(stderr, "tcserved selfcheck: direct run %s: %v\n", w, err)
				return 1
			}
			unique = append(unique, testCase{req: req, key: key, expected: expected})
		}
	}

	// The storm: every unique case at least twice (duplicates are the
	// point — they must dedup or hit cache), shuffled deterministically.
	storm := make([]testCase, 0, jobs)
	for len(storm) < jobs {
		storm = append(storm, unique...)
	}
	storm = storm[:jobs]
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(storm), func(i, j int) { storm[i], storm[j] = storm[j], storm[i] })

	// Submit with bounded client concurrency, alternating sync and
	// async+poll so both lifecycles are exercised.
	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	for i, tc := range storm {
		i, tc := i, tc
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var job *client.Job
			var err error
			if i%3 == 0 {
				job, err = cl.SubmitJobAsync(ctx, &tc.req)
				if err == nil {
					job, err = cl.WaitJob(ctx, job.ID, 5*time.Millisecond)
				}
			} else {
				job, err = cl.SubmitJob(ctx, &tc.req)
			}
			if err != nil {
				fails.failf("job %d (%s): %v", i, tc.req.Workload, err)
				return
			}
			if job.State != client.StateDone || job.Result == nil {
				fails.failf("job %d (%s): state %q, error %q", i, tc.req.Workload, job.State, job.Error)
				return
			}
			if job.Key != tc.key {
				fails.failf("job %d: server key %s != client-computed key %s", i, job.Key, tc.key)
			}
			if !reflect.DeepEqual(*job.Result, tc.expected) {
				fails.failf("job %d (%s, key %s): served result differs from direct tcsim.Run (IPC %v vs %v)",
					i, tc.req.Workload, tc.key, job.Result.IPC, tc.expected.IPC)
			}
		}()
	}
	wg.Wait()

	// Sweep phase: cross three workloads with two configs and verify
	// each cell against the same direct references.
	sweepWLs := selfcheckWorkloads[:3]
	sweep, err := cl.Sweep(ctx, &client.SweepRequest{
		Workloads: sweepWLs,
		Configs:   []client.JobRequest{{}, {Preset: client.PresetAll}},
		Insts:     insts,
	})
	if err != nil {
		fails.failf("sweep: %v", err)
		sweep = &client.SweepResponse{}
	} else {
		if sweep.Cells != len(sweepWLs)*2 || len(sweep.Rows) != sweep.Cells {
			fails.failf("sweep: %d cells, %d rows (want %d)", sweep.Cells, len(sweep.Rows), len(sweepWLs)*2)
		}
		byKey := make(map[string]tcsim.Result)
		for _, tc := range unique {
			byKey[tc.key] = tc.expected
		}
		for _, row := range sweep.Rows {
			ref, ok := byKey[row.Key]
			if !ok {
				fails.failf("sweep cell %s: key %s not among the job-phase keys — sweep and job hashing disagree",
					row.Workload, row.Key)
				continue
			}
			if row.IPC != ref.IPC || row.Cycles != ref.Cycles || row.Retired != ref.Retired {
				fails.failf("sweep cell %s/%s: IPC %v cycles %d != direct %v/%d",
					row.Workload, row.Key, row.IPC, row.Cycles, ref.IPC, ref.Cycles)
			}
		}
	}

	// Policy phase: the served registry must match the in-process one,
	// an explicit default policy must hash (and cache) identically to an
	// absent one, and non-default policies must split the cache key while
	// still matching a direct run bit-for-bit.
	polUnique := checkPolicies(ctx, cl, insts, &fails)

	// Cache effectiveness: the storm repeated every config, so hits and
	// joins together must cover jobs-unique, and hits must be nonzero.
	met, err := cl.Metrics(ctx)
	if err != nil {
		fails.failf("metrics: %v", err)
	}
	if met[sampleCacheHits] == 0 {
		fails.failf("cache hit counter is zero after %d submissions of %d unique configs", jobs, len(unique))
	}
	if misses := met[sampleCacheMisses]; misses > float64(len(unique)+polUnique) {
		fails.failf("%v cache misses for %d unique configs: canonical hashing is splitting identical jobs",
			misses, len(unique)+polUnique)
	}
	if done := met[`tcserved_jobs_total{event="completed"}`]; done < float64(jobs) {
		fails.failf("jobs_completed %v < submitted %d", done, jobs)
	}

	// Observability phase: the Prometheus exposition must parse, carry
	// the trace store's exact counts, stay monotone across scrapes, and
	// request IDs must round-trip through both raw HTTP and the client.
	checkObservability(ctx, cl, &fails)

	// Sampled-timing phase: warm-mode and seek-mode sampled jobs must be
	// bit-for-bit a direct run's, and the sampling counters must surface
	// on /metrics. Runs after the observability phase because its seek
	// job uses a fresh (workload, budget) pair, which would break that
	// phase's exact capture-count assertion.
	samp := checkSampling(ctx, cl, insts, &fails)

	if err := shutdown(ctx); err != nil {
		fails.failf("graceful shutdown: %v", err)
	}

	// Saturation phase: a deliberately tiny daemon (1 worker, 1 queue
	// slot) under a burst of distinct slow jobs must reject with 429 +
	// Retry-After instead of queueing without bound.
	satCfg := scfg
	satCfg.Engine.Workers = 1
	satCfg.Engine.Queue = 1
	_, satCl, satShutdown, err := startDaemon(satCfg)
	if err != nil {
		fmt.Fprintf(stderr, "tcserved selfcheck: saturation daemon: %v\n", err)
		return 1
	}
	slowInsts := insts * 8
	var rejected, retryAfterOK int
	for i := 0; i < 6; i++ {
		req := client.JobRequest{Workload: "m88ksim", Insts: slowInsts + uint64(i)} // distinct keys: no dedup
		if _, err := satCl.SubmitJobAsync(ctx, &req); err != nil {
			var apiErr *client.APIError
			if errors.As(err, &apiErr) && apiErr.Code == "queue_full" && apiErr.Status == http.StatusTooManyRequests {
				rejected++
				if apiErr.RetryAfter() > 0 {
					retryAfterOK++
				}
			} else {
				fails.failf("saturation submit %d: unexpected error %v", i, err)
			}
		}
	}
	if rejected == 0 {
		fails.failf("saturated queue (1 worker + 1 slot, 6 async jobs) produced no 429")
	}
	if rejected > 0 && retryAfterOK == 0 {
		fails.failf("429 responses carried no Retry-After hint")
	}
	// Drain waits for the admitted slow jobs — graceful shutdown under load.
	if err := satShutdown(ctx); err != nil {
		fails.failf("saturation drain: %v", err)
	}

	if len(fails.errs) > 0 {
		fmt.Fprintf(stderr, "tcserved selfcheck: %d failure(s):\n", len(fails.errs))
		for _, e := range fails.errs {
			fmt.Fprintf(stderr, "  - %s\n", e)
		}
		dumpFlights(stderr, flightDir, srv.Flight())
		return 1
	}
	fmt.Fprintf(stdout,
		"tcserved selfcheck ok: %d jobs (%d unique) bit-for-bit identical to direct runs; "+
			"cache hits %d, misses %d, dedup joins %d; sweep %d cells (%d simulated); "+
			"trace store %d captures / %d replays; "+
			"sampling %d windows, %d insts fast-forwarded, %d checkpoint restores; "+
			"%d/6 saturation submissions rejected with 429; %.1fs\n",
		jobs, len(unique), int(met[sampleCacheHits]), int(met[sampleCacheMisses]),
		int(met[`tcserved_cache_requests_total{result="join"}`]),
		sweep.Cells, sweep.Simulations,
		int(met[sampleCaptures]), int(met[sampleReplays]),
		int(samp[sampleWindows]), int(samp[sampleFFwd]), int(samp[sampleRestores]),
		rejected, time.Since(t0).Seconds())
	return 0
}

// checkSampling is the sampled-timing phase: a warm-mode sampled job at
// the shared budget (fast-forward through the gaps) and a seek-mode job
// above tracestore.FullCaptureLimit (checkpoint-log oracle, so seeks
// must restore capture-time checkpoints instead of re-emulating the
// whole gap). Both must match a direct run of the resolved config
// bit-for-bit, and every sampling counter on /metrics must be non-zero.
// Returns the final /metrics samples for the summary line (nil on
// failure).
func checkSampling(ctx context.Context, cl *client.Client, insts uint64, fails *checkFailure) map[string]float64 {
	warm := client.JobRequest{Workload: "m88ksim", Insts: insts,
		SamplePeriod: insts / 4, SampleWindow: insts / 20, SampleWarmup: insts / 20}
	// The seek job's budget must exceed the full-capture limit so the
	// daemon serves it from a checkpoint log; its sparse plan keeps the
	// detailed portion tiny while every seek crosses checkpoints.
	seek := client.JobRequest{Workload: "m88ksim", Insts: 5_000_000,
		SamplePeriod: 1_000_000, SampleWindow: 5_000, SampleWarmup: 5_000, SampleSeek: true}

	for _, req := range []client.JobRequest{warm, seek} {
		req := req
		dcfg, key, err := server.ResolveConfig(&req, server.Limits{})
		if err != nil {
			fails.failf("sampling phase: resolve (seek=%v): %v", req.SampleSeek, err)
			return nil
		}
		expected, err := tcsim.RunWorkload(dcfg, req.Workload)
		if err != nil {
			fails.failf("sampling phase: direct run (seek=%v): %v", req.SampleSeek, err)
			return nil
		}
		if expected.Sampled == nil || expected.Sampled.Windows == 0 {
			fails.failf("sampling phase: direct run (seek=%v) produced no sampled windows", req.SampleSeek)
			return nil
		}
		if req.SampleSeek && expected.Sampled.CheckpointRestores == 0 {
			fails.failf("sampling phase: seek-mode run above the full-capture limit restored no checkpoints: %+v",
				expected.Sampled)
		}
		job, err := cl.SubmitJob(ctx, &req)
		if err != nil {
			fails.failf("sampling phase: submit (seek=%v): %v", req.SampleSeek, err)
			return nil
		}
		if job.Key != key {
			fails.failf("sampling phase: server key %s != client-computed key %s", job.Key, key)
		}
		if job.Result == nil || !reflect.DeepEqual(*job.Result, expected) {
			fails.failf("sampling phase (seek=%v, key %s): served sampled result differs from direct run",
				req.SampleSeek, key)
		}
	}

	met, err := cl.Metrics(ctx)
	if err != nil {
		fails.failf("sampling phase: metrics: %v", err)
		return nil
	}
	for _, name := range []string{sampleWindows, sampleFFwd, `tcserved_sampling_insts_total{mode="skipped"}`,
		"tcserved_sampling_seeks_total", sampleRestores} {
		if met[name] == 0 {
			fails.failf("sampling aggregate %s is zero after warm+seek jobs", name)
		}
	}
	return met
}

// checkPolicies is the replacement-policy phase: GET /v1/policies must
// mirror the registry exactly; "" and the explicit default name must
// resolve to one cache key (the explicit job must therefore hit the
// cache warmed by the storm); and each non-default policy must produce a
// distinct key whose served result is bit-for-bit a direct run's. It
// returns how many fresh unique configs it submitted, so the caller can
// widen its cache-miss bound.
func checkPolicies(ctx context.Context, cl *client.Client, insts uint64, fails *checkFailure) int {
	served, err := cl.Policies(ctx)
	if err != nil {
		fails.failf("GET /v1/policies: %v", err)
	} else {
		reg := tcsim.Policies()
		if len(served) != len(reg) {
			fails.failf("GET /v1/policies returned %d policies, registry has %d", len(served), len(reg))
		} else {
			for i, p := range reg {
				got := served[i]
				if got.Name != p.Name || got.Desc != p.Desc || got.Default != p.Default || got.Oracle != p.Oracle {
					fails.failf("/v1/policies[%d] = %+v, registry has %+v", i, got, p)
				}
			}
		}
	}

	base := client.JobRequest{Workload: "m88ksim", Insts: insts, Preset: client.PresetAll}
	_, defKey, err := server.ResolveConfig(&base, server.Limits{})
	if err != nil {
		fails.failf("policy phase: resolve default config: %v", err)
		return 0
	}

	// Explicit default == implicit default: same key, and the storm
	// already ran this config, so the job must be served from cache.
	explicit := base
	explicit.TCPolicy = tcsim.DefaultPolicy()
	if _, key, err := server.ResolveConfig(&explicit, server.Limits{}); err != nil {
		fails.failf("policy phase: resolve explicit-default config: %v", err)
	} else if key != defKey {
		fails.failf("explicit policy %q hashes to %s, implicit default to %s — canonical resolution split them",
			explicit.TCPolicy, key, defKey)
	}
	if job, err := cl.SubmitJob(ctx, &explicit); err != nil {
		fails.failf("explicit-default policy job: %v", err)
	} else if !job.Cached {
		fails.failf("explicit-default policy job missed the cache although the storm ran the same config (key %s)", job.Key)
	}

	// Non-default policies: distinct keys, bit-for-bit served results.
	fresh := 0
	for _, pol := range []string{"srrip", "belady"} {
		req := base
		req.TCPolicy = pol
		dcfg, key, err := server.ResolveConfig(&req, server.Limits{})
		if err != nil {
			fails.failf("policy %s: resolve: %v", pol, err)
			continue
		}
		if key == defKey {
			fails.failf("policy %s hashes to the default policy's key %s — the policy is not in the canonical config", pol, key)
			continue
		}
		fresh++
		// The oracle policy needs the captured trace stream, so the
		// reference run goes through the workload path like the server's.
		expected, err := tcsim.RunWorkload(dcfg, req.Workload)
		if err != nil {
			fails.failf("policy %s: direct run: %v", pol, err)
			continue
		}
		job, err := cl.SubmitJob(ctx, &req)
		if err != nil {
			fails.failf("policy %s: submit: %v", pol, err)
			continue
		}
		if job.Key != key {
			fails.failf("policy %s: server key %s != client-computed key %s", pol, job.Key, key)
		}
		if job.Result == nil || !reflect.DeepEqual(*job.Result, expected) {
			fails.failf("policy %s (key %s): served result differs from direct run", pol, key)
		}
	}
	return fresh
}

// checkObservability validates the daemon's observability surface:
// GET /metrics serves a parseable Prometheus exposition with the right
// Content-Type whose counters never move backwards between scrapes,
// histograms are populated and internally coherent (the parser enforces
// bucket monotonicity and +Inf == _count), the trace store's counters
// show capture-once/replay-many exactly, and the X-Request-ID a caller
// pins round-trips through the response header — including onto
// APIError for failing calls.
func checkObservability(ctx context.Context, cl *client.Client, fails *checkFailure) {
	scrape := func() map[string]float64 {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, cl.Base()+"/metrics", nil)
		if err != nil {
			fails.failf("build /metrics request: %v", err)
			return nil
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			fails.failf("GET /metrics: %v", err)
			return nil
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != obs.ExpoContentType {
			fails.failf("GET /metrics Content-Type %q, want %q", ct, obs.ExpoContentType)
		}
		if resp.Header.Get("X-Request-ID") == "" {
			fails.failf("GET /metrics response carries no X-Request-ID")
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			fails.failf("read /metrics body: %v", err)
			return nil
		}
		samples, err := obs.ParseExposition(body)
		if err != nil {
			fails.failf("/metrics is not a valid Prometheus exposition: %v", err)
			return nil
		}
		return samples
	}

	m1 := scrape()
	if m1 == nil {
		return
	}
	// The storm executed simulations and finalized segments, so the
	// latency and distribution histograms cannot be empty.
	for _, h := range []string{"tcserved_job_duration_seconds", "tcserved_segment_length_insts",
		"tcserved_queue_wait_seconds", "tcserved_cache_hit_age_seconds"} {
		if m1[h+"_count"] == 0 {
			fails.failf("/metrics histogram %s has zero observations after the job storm", h)
		}
	}

	// Trace-store phase: every server simulation goes through the shared
	// capture-once store, so each (workload, budget) pair must have been
	// captured exactly once and every repeat config served by replay. The
	// direct reference runs bypass the store (tcsim.Run takes a Program),
	// so they must not inflate the capture count.
	captures, replays := m1[sampleCaptures], m1[sampleReplays]
	if want := float64(len(selfcheckWorkloads)); captures != want {
		fails.failf("trace store captured %v streams, want exactly %v (one per workload at the shared budget)",
			captures, want)
	}
	if replays < captures {
		fails.failf("trace store replay hits %v < captures %v: repeat configs are re-emulating instead of replaying",
			replays, captures)
	}
	resident, evictions := m1["tcserved_tracestore_resident_traces"], m1["tcserved_tracestore_evictions_total"]
	if resident != float64(len(selfcheckWorkloads)) || evictions != 0 {
		fails.failf("trace store holds %v traces with %v evictions, want %d resident and none evicted",
			resident, evictions, len(selfcheckWorkloads))
	}
	if secs := m1["tcserved_tracestore_capture_seconds_total"]; captures > 0 && secs <= 0 {
		fails.failf("trace store reports %v captures but %v capture seconds", captures, secs)
	}
	for _, o := range []string{"load", "save", "reject"} {
		name := `tcserved_tracestore_disk_total{outcome="` + o + `"}`
		if v, ok := m1[name]; !ok {
			fails.failf("/metrics is missing sample %s", name)
		} else if v != 0 {
			fails.failf("trace store shows %v disk %ss with no -tracedir", v, o)
		}
	}

	m2 := scrape()
	if m2 == nil {
		return
	}
	for name, v1 := range m1 {
		if !strings.Contains(name, "_total") && !strings.HasSuffix(name, "_count") &&
			!strings.Contains(name, "_bucket{") {
			continue // gauges may move either way
		}
		if v2, ok := m2[name]; !ok {
			fails.failf("counter %s disappeared between scrapes", name)
		} else if v2 < v1 {
			fails.failf("counter %s moved backwards: %v -> %v", name, v1, v2)
		}
	}

	// Request-ID round-trip, raw: a caller-supplied ID is echoed.
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, cl.Base()+"/healthz", nil)
	req.Header.Set("X-Request-ID", "selfcheck-raw-rid")
	if resp, err := http.DefaultClient.Do(req); err != nil {
		fails.failf("healthz with request ID: %v", err)
	} else {
		resp.Body.Close()
		if got := resp.Header.Get("X-Request-ID"); got != "selfcheck-raw-rid" {
			fails.failf("X-Request-ID not echoed: sent %q, got %q", "selfcheck-raw-rid", got)
		}
	}

	// And through the client: a pinned ID surfaces on the APIError a
	// failing call returns, tying the failure to the daemon's log lines.
	ridCtx := client.WithRequestID(ctx, "selfcheck-client-rid")
	_, err := cl.SubmitJob(ridCtx, &client.JobRequest{Workload: "no-such-workload"})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		fails.failf("invalid-workload submit: %v, want APIError", err)
	} else if apiErr.RequestID != "selfcheck-client-rid" {
		fails.failf("APIError.RequestID %q, want the pinned %q", apiErr.RequestID, "selfcheck-client-rid")
	}
}

// dumpFlights writes each flight recorder to dir, so a failing check
// leaves its recent spans and job events behind as CI artifacts. A
// no-op without a -flight-dir.
func dumpFlights(stderr io.Writer, dir string, recs ...*obs.FlightRecorder) {
	if dir == "" {
		return
	}
	for _, fr := range recs {
		if fr == nil {
			continue
		}
		path, err := fr.DumpToDir(dir)
		if err != nil {
			fmt.Fprintf(stderr, "  flight dump %s: %v\n", fr.Service(), err)
			continue
		}
		fmt.Fprintf(stderr, "  flight recorder dumped: %s\n", path)
	}
}

// mustProgram builds a bundled workload or dies; selfcheck workloads
// are a fixed known-good list.
func mustProgram(name string) *tcsim.Program {
	p, err := tcsim.BuildWorkload(name)
	if err != nil {
		panic(err)
	}
	return p
}
