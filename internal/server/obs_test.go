package server

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"

	"tcsim/client"
	"tcsim/internal/obs"
)

// scrapeMetrics fetches GET /metrics and returns the parsed exposition
// plus the raw response for header checks.
func scrapeMetrics(t *testing.T, base string) (map[string]float64, *http.Response) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseExposition(body)
	if err != nil {
		t.Fatalf("/metrics is not a valid exposition: %v\n%s", err, body)
	}
	return samples, resp
}

// TestPrometheusExposition: GET /metrics renders a valid, parseable
// Prometheus exposition whose counters agree with the daemon's traffic,
// never move backwards across scrapes, and carry populated histograms
// after a job has executed.
func TestPrometheusExposition(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()
	req := &client.JobRequest{Workload: "m88ksim", Insts: testInsts, Preset: client.PresetAll}
	if _, err := cl.SubmitJob(ctx, req); err != nil {
		t.Fatal(err)
	}
	if job, err := cl.SubmitJob(ctx, req); err != nil || !job.Cached {
		t.Fatalf("repeat submission: cached=%v err=%v", job != nil && job.Cached, err)
	}

	m1, resp := scrapeMetrics(t, cl.Base())
	if ct := resp.Header.Get("Content-Type"); ct != obs.ExpoContentType {
		t.Errorf("Content-Type %q, want %q", ct, obs.ExpoContentType)
	}
	want := map[string]float64{
		`tcserved_jobs_total{event="completed"}`:       2,
		`tcserved_jobs_total{event="failed"}`:          0,
		`tcserved_cache_requests_total{result="hit"}`:  1,
		`tcserved_cache_requests_total{result="miss"}`: 1,
		"tcserved_cache_hit_ratio":                     0.5,
		"tcserved_cache_entries":                       1,
		"tcserved_jobs_in_flight":                      0,
		"tcserved_job_duration_seconds_count":          1,
		"tcserved_queue_wait_seconds_count":            1,
		"tcserved_cache_hit_age_seconds_count":         1,
	}
	for key, wv := range want {
		if got, ok := m1[key]; !ok {
			t.Errorf("missing sample %s", key)
		} else if got != wv {
			t.Errorf("%s = %v, want %v", key, got, wv)
		}
	}
	if m1["tcserved_segment_length_insts_count"] == 0 {
		t.Error("segment-length histogram empty after an executed job")
	}
	if m1["tcserved_sim_insts_total"] == 0 {
		t.Error("sim_insts_total is zero after an executed job")
	}
	if _, ok := m1[`tcserved_pass_segments_total{pass="moves"}`]; !ok {
		t.Error("no per-pass counters after an optimized run")
	}

	// Counters are monotone between scrapes.
	m2, _ := scrapeMetrics(t, cl.Base())
	for name, v1 := range m1 {
		isCounter := strings.Contains(name, "_total") ||
			strings.HasSuffix(name, "_count") || strings.Contains(name, "_bucket{")
		if !isCounter {
			continue
		}
		if v2, ok := m2[name]; !ok {
			t.Errorf("counter %s disappeared between scrapes", name)
		} else if v2 < v1 {
			t.Errorf("counter %s moved backwards: %v -> %v", name, v1, v2)
		}
	}
}

// TestRequestIDMiddleware: valid caller IDs are adopted and echoed,
// unsafe ones replaced, absent ones generated.
func TestRequestIDMiddleware(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	get := func(rid string) string {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, cl.Base()+"/healthz", nil)
		if rid != "" {
			req.Header.Set("X-Request-ID", rid)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.Header.Get("X-Request-ID")
	}
	if got := get("trace-abc.123_z"); got != "trace-abc.123_z" {
		t.Errorf("valid ID not echoed: sent %q, got %q", "trace-abc.123_z", got)
	}
	if got := get("bad id\twith spaces"); got == "bad id\twith spaces" || got == "" {
		t.Errorf("unsafe ID handling: got %q, want a fresh generated ID", got)
	}
	if got := get(strings.Repeat("x", 65)); len(got) > 64 || got == "" {
		t.Errorf("over-long ID handling: got %q (len %d)", got, len(got))
	}
	if got := get(""); got == "" {
		t.Error("no ID generated when the caller sent none")
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing log output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestStructuredLogging: the daemon logs job lifecycle events and one
// access line per request, all correlated by the echoed request ID.
func TestStructuredLogging(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	_, cl := newTestServer(t, Config{Logger: logger})
	ctx := client.WithRequestID(context.Background(), "log-test-rid")
	if _, err := cl.SubmitJob(ctx, &client.JobRequest{Workload: "m88ksim", Insts: testInsts}); err != nil {
		t.Fatal(err)
	}
	// Sync submission: all lifecycle lines are flushed before the
	// response returns; only the access line may still be in flight, and
	// it precedes the next request's lines.
	if _, err := cl.Metrics(ctx); err != nil {
		t.Fatal(err)
	}
	logs := buf.String()
	for _, want := range []string{"job accepted", "job started", "job completed", "msg=request"} {
		if !strings.Contains(logs, want) {
			t.Errorf("log output missing %q:\n%s", want, logs)
		}
	}
	if n := strings.Count(logs, "request_id=log-test-rid"); n < 4 {
		t.Errorf("pinned request ID appears %d times, want >= 4 (lifecycle + access lines):\n%s", n, logs)
	}
}

// TestTimelineJob: a request with timeline=true returns a recorded
// timeline, hashes to a different cache key than the untraced job, and
// produces identical simulation statistics (recording never perturbs
// timing).
func TestTimelineJob(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()
	plain, err := cl.SubmitJob(ctx, &client.JobRequest{Workload: "m88ksim", Insts: testInsts})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := cl.SubmitJob(ctx, &client.JobRequest{Workload: "m88ksim", Insts: testInsts, Timeline: true})
	if err != nil {
		t.Fatal(err)
	}
	if traced.Key == plain.Key {
		t.Error("traced and untraced jobs share a cache key")
	}
	if traced.Cached {
		t.Error("traced job served from the untraced job's cache entry")
	}
	tl := traced.Result.Timeline
	if tl == nil || len(tl.Events) == 0 {
		t.Fatal("timeline=true job returned no timeline events")
	}
	if plain.Result.Timeline != nil {
		t.Error("untraced job carries a timeline")
	}
	if a, b := plain.Result, traced.Result; a.IPC != b.IPC || a.Cycles != b.Cycles || a.Retired != b.Retired {
		t.Errorf("recording changed the simulation: IPC %v/%v cycles %d/%d retired %d/%d",
			a.IPC, b.IPC, a.Cycles, b.Cycles, a.Retired, b.Retired)
	}
}
