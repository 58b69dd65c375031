package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"tcsim"
	"tcsim/client"
)

// testInsts keeps end-to-end simulations cheap (a few ms each).
const testInsts = 5000

// newTestServer starts a Server behind httptest and returns it with a
// wired client. A failed test logs the server's flight recorder.
func newTestServer(t *testing.T, cfg Config) (*Server, *client.Client) {
	t.Helper()
	srv := New(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if t.Failed() {
			var b strings.Builder
			srv.Flight().WriteJSON(&b)
			t.Logf("flight recorder %s:\n%s", srv.Flight().Service(), b.String())
		}
	})
	return srv, client.New(hs.URL)
}

// runDirect runs cfg in-process over a fresh trace store: the reference
// a served result must match bit-for-bit.
func runDirect(t *testing.T, cfg tcsim.Config, workload string) tcsim.Result {
	t.Helper()
	res, err := tcsim.RunWorkloadContextIn(context.Background(), cfg, workload, tcsim.NewTraceStore(0))
	if err != nil {
		t.Fatalf("direct run of %s: %v", workload, err)
	}
	return res
}

// TestEndToEndJobDeterminism is the core serving contract: a job
// submitted over HTTP — sync, async+poll, and a cached repeat — returns
// bit-for-bit the result of a direct run of the same config,
// across the real JSON round trip.
func TestEndToEndJobDeterminism(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()
	req := &client.JobRequest{Workload: "m88ksim", Insts: testInsts, Preset: client.PresetAll}

	dcfg, wantKey, err := ResolveConfig(req, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	expected := runDirect(t, dcfg, req.Workload)

	// Sync.
	job, err := cl.SubmitJob(ctx, req)
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if job.State != client.StateDone || job.Result == nil {
		t.Fatalf("sync job state %q, error %q", job.State, job.Error)
	}
	if job.Key != wantKey {
		t.Errorf("server key %s != ResolveConfig key %s", job.Key, wantKey)
	}
	if !reflect.DeepEqual(*job.Result, expected) {
		t.Errorf("served result differs from direct run:\nserved %+v\ndirect %+v", *job.Result, expected)
	}

	// Cached repeat.
	again, err := cl.SubmitJob(ctx, req)
	if err != nil {
		t.Fatalf("repeat SubmitJob: %v", err)
	}
	if !again.Cached {
		t.Error("repeat submission not served from cache")
	}
	if !reflect.DeepEqual(*again.Result, expected) {
		t.Error("cached result differs from direct run")
	}

	// Async + poll, different config so it actually runs.
	areq := &client.JobRequest{Workload: "m88ksim", Insts: testInsts} // baseline
	sub, err := cl.SubmitJobAsync(ctx, areq)
	if err != nil {
		t.Fatalf("SubmitJobAsync: %v", err)
	}
	if sub.ID == "" {
		t.Fatal("async submission carries no job id")
	}
	done, err := cl.WaitJob(ctx, sub.ID, 2*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	adcfg, _, _ := ResolveConfig(areq, Limits{})
	aexp := runDirect(t, adcfg, areq.Workload)
	if !reflect.DeepEqual(*done.Result, aexp) {
		t.Error("async served result differs from direct run")
	}

	// Metrics reflect the traffic.
	met, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := met[`tcserved_cache_requests_total{result="hit"}`], met[`tcserved_cache_requests_total{result="miss"}`]
	if done := met[`tcserved_jobs_total{event="completed"}`]; hits == 0 || misses == 0 || done != 3 {
		t.Errorf("metrics: hits %v misses %v completed %v, want >0, >0, 3", hits, misses, done)
	}
	if _, ok := met[`tcserved_pass_segments_total{pass="moves"}`]; !ok {
		t.Error("metrics: no per-pass aggregate after an optimized run")
	}
}

// TestValidationErrors maps malformed requests to structured 400s.
func TestValidationErrors(t *testing.T) {
	_, cl := newTestServer(t, Config{Engine: EngineConfig{Limits: Limits{MaxInsts: 100_000}}})
	ctx := context.Background()
	bad := []*client.JobRequest{
		{},
		{Workload: "nosuch"},
		{Workload: "m88ksim", Passes: []string{"bogus"}},
		{Workload: "m88ksim", Passes: []string{"place", "moves"}},
		{Workload: "m88ksim", Preset: "turbo"},
		{Workload: "m88ksim", Insts: 1 << 40},
	}
	for i, req := range bad {
		_, err := cl.SubmitJob(ctx, req)
		apiErr, ok := err.(*client.APIError)
		if !ok {
			t.Fatalf("case %d: error %v is not an APIError", i, err)
		}
		if apiErr.Status != http.StatusBadRequest || apiErr.Code != "invalid_argument" {
			t.Errorf("case %d: got %d/%s, want 400/invalid_argument", i, apiErr.Status, apiErr.Code)
		}
		if apiErr.Message == "" {
			t.Errorf("case %d: empty error message", i)
		}
	}

	// Unknown job id is a structured 404.
	if _, err := cl.GetJob(ctx, "jdeadbeef"); err == nil {
		t.Error("GET unknown job: no error")
	} else if apiErr, ok := err.(*client.APIError); !ok || apiErr.Status != http.StatusNotFound {
		t.Errorf("GET unknown job: %v, want 404", err)
	}

	// Malformed body (unknown field) is a 400, not a 500.
	resp, err := http.Post(strings.TrimSuffix(cl.Base(), "/")+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload":"m88ksim","warp_speed":9}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}
}

// TestQueueFullBackpressure saturates a 1-worker, 1-slot daemon with
// gated fake simulations: the next submission must be rejected with
// 429 + Retry-After immediately (no queueing, no hang), and the queue
// must serve again once it drains.
func TestQueueFullBackpressure(t *testing.T) {
	srv, cl := newTestServer(t, Config{Engine: EngineConfig{Workers: 1, Queue: 1}})
	fake := &fakeSim{release: make(chan struct{})}
	fake.install(srv.engine)
	ctx := context.Background()

	// Fill the worker and the wait line with distinct configs.
	ids := make([]string, 0, 2)
	for i := 0; i < 2; i++ {
		job, err := cl.SubmitJobAsync(ctx, &client.JobRequest{Workload: "m88ksim", Insts: uint64(1000 + i)})
		if err != nil {
			t.Fatalf("async submit %d: %v", i, err)
		}
		ids = append(ids, job.ID)
	}

	// Saturated: this must 429 with a Retry-After hint.
	_, err := cl.SubmitJob(ctx, &client.JobRequest{Workload: "m88ksim", Insts: 3000})
	apiErr, ok := err.(*client.APIError)
	if !ok {
		t.Fatalf("saturated submit: %v, want APIError", err)
	}
	if apiErr.Status != http.StatusTooManyRequests || apiErr.Code != "queue_full" {
		t.Fatalf("saturated submit: %d/%s, want 429/queue_full", apiErr.Status, apiErr.Code)
	}
	if apiErr.RetryAfter() <= 0 {
		t.Error("429 without a Retry-After hint")
	}

	// A cache-resident config is still served during saturation: hits
	// bypass admission. (Nothing cached yet here, so just verify the
	// counters; the rejection was counted.)
	met, _ := cl.Metrics(ctx)
	if met[`tcserved_jobs_total{event="rejected"}`] == 0 {
		t.Error("jobs_rejected counter is zero after a 429")
	}

	// Drain the queue; everything admitted completes.
	close(fake.release)
	for _, id := range ids {
		if job, err := cl.WaitJob(ctx, id, 2*time.Millisecond); err != nil || job.State != client.StateDone {
			t.Fatalf("job %s after drain: state %v err %v", id, job, err)
		}
	}
	// And the daemon accepts work again.
	if _, err := cl.SubmitJob(ctx, &client.JobRequest{Workload: "m88ksim", Insts: 3000}); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
}

// TestGracefulShutdownDrains: Shutdown waits for an admitted async job
// to finish, and its result remains correct.
func TestGracefulShutdownDrains(t *testing.T) {
	srv := New(Config{Engine: EngineConfig{Workers: 1}})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	cl := client.New(hs.URL)
	fake := &fakeSim{release: make(chan struct{})}
	fake.install(srv.engine)
	ctx := context.Background()

	job, err := cl.SubmitJobAsync(ctx, &client.JobRequest{Workload: "m88ksim", Insts: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the job is actually running.
	deadline := time.Now().Add(2 * time.Second)
	for fake.startedCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}

	done := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- srv.Shutdown(sctx)
	}()
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned %v while a job was in flight", err)
	case <-time.After(30 * time.Millisecond):
	}
	// New work is refused while draining.
	if _, err := cl.SubmitJob(ctx, &client.JobRequest{Workload: "m88ksim", Insts: 2000}); err == nil {
		t.Error("submission during drain succeeded")
	} else if apiErr, ok := err.(*client.APIError); !ok || apiErr.Code != "draining" {
		t.Errorf("submission during drain: %v, want draining", err)
	}

	close(fake.release)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The drained job's record survives and is done.
	final, err := cl.GetJob(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != client.StateDone {
		t.Errorf("drained job state %q, want done", final.State)
	}
}

// TestSweepEndpoint: a sweep crosses workloads x configs, every cell
// agrees bit-for-bit with the /v1/jobs result of the same request (same
// key, same statistics — sampling plans and replacement policies
// included), and a repeated sweep is served entirely from the cache.
func TestSweepEndpoint(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	_, jobs := newTestServer(t, Config{}) // an independent daemon for the job-path references
	ctx := context.Background()
	req := &client.SweepRequest{
		Workloads: []string{"m88ksim", "gcc"},
		Configs: []client.JobRequest{
			{},
			{Preset: client.PresetAll},
			{Insts: 200_000, SamplePeriod: 50_000, SampleWindow: 5_000, SampleWarmup: 5_000},
			{TCPolicy: "srrip"},
		},
		Insts: testInsts,
	}
	cells := len(req.Workloads) * len(req.Configs)
	resp, err := cl.Sweep(ctx, req)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if resp.Cells != cells || len(resp.Rows) != cells {
		t.Fatalf("sweep: %d cells / %d rows, want %d/%d", resp.Cells, len(resp.Rows), cells, cells)
	}
	if resp.Simulations != uint64(cells) {
		t.Errorf("first sweep simulated %d cells, want %d", resp.Simulations, cells)
	}
	// Rows come back in cell order: configs outer, workloads inner.
	i := 0
	for _, cfg := range req.Configs {
		for _, w := range req.Workloads {
			jr := cfg
			jr.Workload = w
			if jr.Insts == 0 {
				jr.Insts = req.Insts
			}
			row := resp.Rows[i]
			i++
			job, err := jobs.SubmitJob(ctx, &jr)
			if err != nil {
				t.Fatalf("job %+v: %v", jr, err)
			}
			r := job.Result
			if row.Workload != w || row.Key != job.Key {
				t.Errorf("row %s/%s: job path resolved %s/%s", row.Workload, row.Key, w, job.Key)
				continue
			}
			if row.IPC != r.IPC || row.Cycles != r.Cycles || row.Retired != r.Retired ||
				row.TCHitRate != r.TraceCacheHitRate || row.MispredictRate != r.MispredictRate {
				t.Errorf("sweep cell %s/%s disagrees with its job: %+v vs IPC %v cycles %d retired %d tc %v mispredict %v",
					w, row.Key, row, r.IPC, r.Cycles, r.Retired, r.TraceCacheHitRate, r.MispredictRate)
			}
		}
	}

	// The same sweep again: all cached, zero new simulations.
	resp2, err := cl.Sweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Simulations != 0 {
		t.Errorf("repeated sweep simulated %d cells, want 0 (cached)", resp2.Simulations)
	}

	// Validation: configs naming workloads are rejected.
	if _, err := cl.Sweep(ctx, &client.SweepRequest{
		Configs: []client.JobRequest{{Workload: "m88ksim"}},
	}); err == nil {
		t.Error("sweep config naming a workload was accepted")
	}
}

// TestSweepRespectsWorkerBound: sweep cells run in the engine's worker
// slots like jobs, so a one-worker daemon simulates a sweep's cells one
// at a time, and each simulated cell counts once on /metrics.
func TestSweepRespectsWorkerBound(t *testing.T) {
	srv, cl := newTestServer(t, Config{Engine: EngineConfig{Workers: 1}})
	var mu sync.Mutex
	calls, running, peak := 0, 0, 0
	srv.engine.runSim = func(ctx context.Context, cfg tcsim.Config, w string) (tcsim.Result, error) {
		mu.Lock()
		calls++
		running++
		peak = max(peak, running)
		mu.Unlock()
		time.Sleep(5 * time.Millisecond) // hold the slot long enough for any overlap to show
		mu.Lock()
		running--
		mu.Unlock()
		return tcsim.Result{Retired: cfg.MaxInsts, Cycles: cfg.MaxInsts, IPC: 1}, nil
	}
	resp, err := cl.Sweep(context.Background(), &client.SweepRequest{
		Workloads: []string{"m88ksim", "compress"},
		Configs:   []client.JobRequest{{}, {Preset: client.PresetAll}},
		Insts:     testInsts,
	})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 4 || peak != 1 {
		t.Errorf("sweep made %d runSim calls with up to %d in flight, want 4 with at most 1", calls, peak)
	}
	if resp.Simulations != 4 {
		t.Errorf("sweep reports %d simulations, want 4", resp.Simulations)
	}
	m, _ := scrapeMetrics(t, cl.Base())
	if got := m["tcserved_sweep_simulations_total"]; got != 4 {
		t.Errorf("tcserved_sweep_simulations_total = %v, want 4", got)
	}
	if got := m[`tcserved_cache_requests_total{result="miss"}`]; got != 4 {
		t.Errorf("sweep cells made %v cache misses, want 4", got)
	}
}

// TestPassesAndHealth covers the registry and liveness endpoints.
func TestPassesAndHealth(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()
	if err := cl.Health(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	passes, err := cl.Passes(ctx)
	if err != nil {
		t.Fatalf("passes: %v", err)
	}
	if len(passes) < 5 {
		t.Fatalf("registry lists %d passes, want >= 5", len(passes))
	}
	names := make(map[string]bool)
	defaults := 0
	for _, p := range passes {
		names[p.Name] = true
		if p.Default {
			defaults++
		}
	}
	for _, want := range []string{"moves", "reassoc", "scadd", "place"} {
		if !names[want] {
			t.Errorf("pass %q missing from /v1/passes", want)
		}
	}
	if defaults == 0 {
		t.Error("no default passes reported")
	}
}

// TestNarrowClusterJob: a machine with fewer functional units than the
// fetch width (2 clusters x 1 FU) is a valid job. It must run to done
// and leave the daemon serving.
func TestNarrowClusterJob(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()
	req := &client.JobRequest{Workload: "li", Insts: 20000, Clusters: 2, FUsPerCluster: 1}
	job, err := cl.SubmitJobAsync(ctx, req)
	if err != nil {
		t.Fatalf("async submit: %v", err)
	}
	done, err := cl.WaitJob(ctx, job.ID, 2*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if done.State != client.StateDone || done.Result == nil || done.Result.Retired != req.Insts {
		t.Fatalf("narrow-geometry job: state %q, error %q, result %+v", done.State, done.Error, done.Result)
	}
	if err := cl.Health(ctx); err != nil {
		t.Fatalf("healthz after the narrow job: %v", err)
	}
	if _, err := cl.SubmitJob(ctx, &client.JobRequest{Workload: "m88ksim", Insts: testInsts}); err != nil {
		t.Fatalf("submit after the narrow job: %v", err)
	}
}

// TestPassSecondsMetric: a time_passes job's per-pass wall time reaches
// /metrics as tcserved_pass_seconds_total, positive for every pass the
// run applied.
func TestPassSecondsMetric(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()
	job, err := cl.SubmitJob(ctx, &client.JobRequest{Workload: "m88ksim", Insts: testInsts,
		Preset: client.PresetAll, TimePasses: true})
	if err != nil {
		t.Fatal(err)
	}
	if job.Result == nil || len(job.Result.PassStats) == 0 {
		t.Fatalf("time_passes job reported no passes: %+v", job.Result)
	}
	met, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, ps := range job.Result.PassStats {
		name := `tcserved_pass_seconds_total{pass="` + ps.Name + `"}`
		if got := met[name]; !(got > 0) {
			t.Errorf("%s = %v, want > 0", name, got)
		}
	}
}

// TestSimulationPanicFailsJob: a panicking simulation fails its job
// with a typed 500 instead of killing the daemon (async jobs run on
// their own goroutine) or wedging its key's singleflight cell: a repeat
// of the key runs again. The flight recorder keeps each run's stack,
// the 5xx dump is written, and the one worker slot and the in-flight
// gauge are released.
func TestSimulationPanicFailsJob(t *testing.T) {
	dir := t.TempDir()
	srv, cl := newTestServer(t, Config{Engine: EngineConfig{Workers: 1}, FlightDir: dir})
	srv.engine.runSim = func(context.Context, tcsim.Config, string) (tcsim.Result, error) {
		panic("induced simulation fault")
	}
	ctx := context.Background()
	req := &client.JobRequest{Workload: "m88ksim", Insts: testInsts}

	var apiErr *client.APIError
	if _, err := cl.SubmitJob(ctx, req); !errors.As(err, &apiErr) ||
		apiErr.Status != http.StatusInternalServerError || apiErr.Code != "internal" {
		t.Fatalf("panicking sync job = %v, want 500 internal", err)
	}
	rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if _, err := cl.SubmitJob(rctx, req); !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError {
		t.Fatalf("repeat of the panicked key = %v, want a prompt 500 from a second run", err)
	}

	// A distinct key needs the single worker slot the panic held.
	sub, err := cl.SubmitJobAsync(ctx, &client.JobRequest{Workload: "m88ksim", Insts: testInsts + 1})
	if err != nil {
		t.Fatal(err)
	}
	done, err := cl.WaitJob(rctx, sub.ID, 2*time.Millisecond)
	if err != nil {
		t.Fatalf("async panicking job: %v", err)
	}
	if done.State != client.StateFailed || !strings.Contains(done.Error, "induced simulation fault") {
		t.Fatalf("async panicking job = state %q, error %q, want failed with the panic", done.State, done.Error)
	}

	met, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := met["tcserved_jobs_in_flight"]; got != 0 {
		t.Errorf("tcserved_jobs_in_flight = %v after the panics, want 0", got)
	}
	if got := met[`tcserved_jobs_total{event="failed"}`]; got != 3 {
		t.Errorf(`tcserved_jobs_total{event="failed"} = %v, want 3`, got)
	}
	panics := 0
	for _, ev := range srv.Flight().Events() {
		if strings.Contains(ev.Msg, "job panicked") && strings.Contains(ev.Msg, "induced simulation fault") {
			panics++
		}
	}
	if panics != 3 {
		t.Errorf("flight recorder holds %d panic notes, want 3 (one per run: a failed key is not cached)", panics)
	}
	if _, err := os.Stat(filepath.Join(dir, "flight-tcserved-last5xx.json")); err != nil {
		t.Errorf("no flight dump after the 500: %v", err)
	}

	fake := &fakeSim{}
	fake.install(srv.engine)
	if _, err := cl.SubmitJob(ctx, &client.JobRequest{Workload: "m88ksim", Insts: testInsts + 2}); err != nil {
		t.Fatalf("submit after the panics: %v", err)
	}
}

// TestCapturePanicFailsJob: a panic inside the trace store's capture
// (here the peer fetch) fails that job with a 500 and retires the
// capture's flight, so a later job on the same workload under another
// config captures afresh instead of blocking on the dead capture.
func TestCapturePanicFailsJob(t *testing.T) {
	st := tcsim.NewTraceStore(0)
	var once sync.Once
	st.SetFetcher(func(_, _ string, _ uint64) ([]byte, error) {
		once.Do(func() { panic("induced fetch fault") })
		return nil, errors.New("no peer holds this trace")
	})
	_, cl := newTestServer(t, Config{Engine: EngineConfig{Store: st}})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	var apiErr *client.APIError
	req := &client.JobRequest{Workload: "m88ksim", Insts: testInsts}
	if _, err := cl.SubmitJob(ctx, req); !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError {
		t.Fatalf("job whose capture panicked = %v, want 500", err)
	}
	again := &client.JobRequest{Workload: "m88ksim", Insts: testInsts, Preset: client.PresetAll}
	dcfg, _, err := ResolveConfig(again, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	// Async, so a job wedged on the capture fails the wait below instead
	// of holding an HTTP handler that would block the server's Close.
	job, err := cl.SubmitJobAsync(ctx, again)
	if err == nil {
		job, err = cl.WaitJob(ctx, job.ID, 2*time.Millisecond)
	}
	if err != nil {
		t.Fatalf("job on the same workload after the panicked capture: %v", err)
	}
	if want := runDirect(t, dcfg, again.Workload); job.Result == nil || !reflect.DeepEqual(*job.Result, want) {
		t.Errorf("job after the panicked capture differs from a direct run")
	}
	if got := st.Stats().Captures; got != 1 {
		t.Errorf("trace store captures = %d after the retry, want 1", got)
	}
}
