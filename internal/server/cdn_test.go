package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"
	"testing"
	"time"

	"tcsim"
	"tcsim/client"
	"tcsim/internal/tracestore"
)

// TestReadinessDrainOrdering pins the graceful-drain contract: the
// moment BeginDrain is called readiness answers 503 — so the gateway
// and any LB stop routing — while liveness stays green and new work is
// STILL accepted and served. Only the later full Shutdown refuses work.
func TestReadinessDrainOrdering(t *testing.T) {
	srv, cl := newTestServer(t, Config{})
	ctx := context.Background()

	if err := cl.Health(ctx); err != nil {
		t.Fatalf("liveness before drain: %v", err)
	}
	if err := cl.Ready(ctx); err != nil {
		t.Fatalf("readiness before drain: %v", err)
	}

	srv.BeginDrain()

	err := cl.Ready(ctx)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable || ae.Code != "draining" {
		t.Fatalf("readiness during drain = %v, want 503 draining", err)
	}
	if ae.RetryAfterSecs < 1 {
		t.Errorf("draining readiness carried no Retry-After hint")
	}
	if err := cl.Health(ctx); err != nil {
		t.Fatalf("liveness during drain: %v (a draining node is still alive)", err)
	}
	// Routing stops before work does: a job submitted after the
	// readiness flip still runs to completion.
	job, err := cl.SubmitJob(ctx, &client.JobRequest{Workload: "compress", Insts: testInsts})
	if err != nil {
		t.Fatalf("job during drain: %v (drain must not refuse work before shutdown)", err)
	}
	if job.State != client.StateDone {
		t.Fatalf("job during drain finished %q", job.State)
	}

	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// A fresh config (cache hits are served even while draining, by
	// design) is refused once shutdown completes.
	_, err = cl.SubmitJob(ctx, &client.JobRequest{Workload: "compress", Insts: testInsts * 2})
	if !errors.As(err, &ae) || ae.Code != "draining" {
		t.Fatalf("job after shutdown = %v, want draining rejection", err)
	}
}

// TestTraceCDNEndpoint drives GET/HEAD /v1/traces/{sha} against an
// engine with its own store: misses 404, bad budgets 400, and a
// captured trace round-trips as validated bytes with the CDN headers,
// counting serves for GET only.
func TestTraceCDNEndpoint(t *testing.T) {
	st := tcsim.NewTraceStore(0)
	srv, cl := newTestServer(t, Config{Engine: EngineConfig{Store: st}})
	ctx := context.Background()
	sha, ok := tracestore.WorkloadHash("compress")
	if !ok {
		t.Fatal("no content hash for compress")
	}
	url := func(sha string, budget string) string {
		u := cl.Base() + "/v1/traces/" + sha
		if budget != "" {
			u += "?budget=" + budget
		}
		return u
	}
	get := func(u string) *http.Response {
		t.Helper()
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if resp := get(url("0123deadbeef", strconv.Itoa(testInsts))); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown hash status = %d, want 404", resp.StatusCode)
	}
	if resp := get(url(sha, "")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing budget status = %d, want 400", resp.StatusCode)
	}
	if resp := get(url(sha, "zero")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed budget status = %d, want 400", resp.StatusCode)
	}
	// Known workload, nothing captured yet: a CDN miss.
	if resp := get(url(sha, strconv.Itoa(testInsts))); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cold-store status = %d, want 404", resp.StatusCode)
	}

	if _, err := cl.SubmitJob(ctx, &client.JobRequest{Workload: "compress", Insts: testInsts}); err != nil {
		t.Fatal(err)
	}

	head, err := http.Head(url(sha, strconv.Itoa(testInsts)))
	if err != nil {
		t.Fatal(err)
	}
	if head.StatusCode != http.StatusOK {
		t.Fatalf("HEAD after capture = %d, want 200", head.StatusCode)
	}
	resp := get(url(sha, strconv.Itoa(testInsts)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET after capture = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != ContentTypeTrace {
		t.Errorf("Content-Type = %q, want %q", got, ContentTypeTrace)
	}
	if got := resp.Header.Get("X-Trace-Workload"); got != "compress" {
		t.Errorf("X-Trace-Workload = %q", got)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := tracestore.Validate(body, "compress", testInsts); err != nil {
		t.Fatalf("served trace fails validation: %v", err)
	}
	if stats := st.Stats(); stats.CDNServes != 1 {
		t.Fatalf("CDN serves = %d, want 1 (HEAD and misses must not count)", stats.CDNServes)
	}
	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := m[`tcserved_tracestore_cdn_total{outcome="serve"}`]; got != 1 {
		t.Fatalf("metrics cdn serves = %v, want 1", got)
	}
	_ = srv
}
