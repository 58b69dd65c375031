package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"tcsim"
	"tcsim/client"
)

// testInsts keeps end-to-end simulations cheap (a few ms each).
const testInsts = 5000

// newTestServer starts a Server behind httptest and returns it with a
// wired client.
func newTestServer(t *testing.T, cfg Config) (*Server, *client.Client) {
	t.Helper()
	srv := New(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, client.New(hs.URL)
}

// TestEndToEndJobDeterminism is the core serving contract: a job
// submitted over HTTP — sync, async+poll, and a cached repeat — returns
// bit-for-bit the result of a direct tcsim.Run of the same config,
// across the real JSON round trip.
func TestEndToEndJobDeterminism(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()
	req := &client.JobRequest{Workload: "m88ksim", Insts: testInsts, Preset: client.PresetAll}

	dcfg, wantKey, err := ResolveConfig(req, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	expected, err := tcsim.RunWorkload(dcfg, req.Workload)
	if err != nil {
		t.Fatal(err)
	}

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
		t.Errorf("served result differs from direct tcsim.Run:\nserved %+v\ndirect %+v", *job.Result, expected)
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
	aexp, _ := tcsim.RunWorkload(adcfg, areq.Workload)
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

// TestSweepEndpoint: a sweep crosses workloads x configs, its cells
// agree with direct runs, and a repeated sweep is fully memoized.
func TestSweepEndpoint(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()
	req := &client.SweepRequest{
		Workloads: []string{"m88ksim", "compress"},
		Configs:   []client.JobRequest{{}, {Preset: client.PresetAll}},
		Insts:     testInsts,
	}
	resp, err := cl.Sweep(ctx, req)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if resp.Cells != 4 || len(resp.Rows) != 4 {
		t.Fatalf("sweep: %d cells / %d rows, want 4/4", resp.Cells, len(resp.Rows))
	}
	if resp.Simulations != 4 {
		t.Errorf("first sweep simulated %d cells, want 4", resp.Simulations)
	}
	// Cells agree with direct runs of the same config.
	jr := client.JobRequest{Workload: "m88ksim", Insts: testInsts, Preset: client.PresetAll}
	dcfg, key, _ := ResolveConfig(&jr, Limits{})
	direct, err := tcsim.RunWorkload(dcfg, "m88ksim")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range resp.Rows {
		if row.Workload == "m88ksim" && row.Key == key {
			found = true
			if row.IPC != direct.IPC || row.Cycles != direct.Cycles || row.Retired != direct.Retired {
				t.Errorf("sweep cell disagrees with direct run: %+v vs IPC %v cycles %d",
					row, direct.IPC, direct.Cycles)
			}
		}
	}
	if !found {
		t.Errorf("no sweep row with the job-path key %s: hashing diverged between paths", key)
	}

	// The same sweep again: all memoized, zero new simulations.
	resp2, err := cl.Sweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Simulations != 0 {
		t.Errorf("repeated sweep simulated %d cells, want 0 (memoized)", resp2.Simulations)
	}

	// Validation: configs naming workloads are rejected.
	if _, err := cl.Sweep(ctx, &client.SweepRequest{
		Configs: []client.JobRequest{{Workload: "m88ksim"}},
	}); err == nil {
		t.Error("sweep config naming a workload was accepted")
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
