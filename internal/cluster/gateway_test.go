package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"tcsim"
	"tcsim/client"
	"tcsim/internal/obs"
	"tcsim/internal/server"
	"tcsim/internal/tracestore"
)

// testInsts keeps cluster tests fast while exercising real simulation.
const testInsts = 5000

// testNode is one in-process backend: a real server.Server with its own
// trace store, mounted on an httptest listener.
type testNode struct {
	name  string
	store *tcsim.TraceStore
	srv   *server.Server
	ts    *httptest.Server
}

// testCluster boots n in-process nodes and a gateway over them. Each
// node gets an isolated trace store so per-node CDN counters mean
// something. Probes run on a tight interval.
func testCluster(t *testing.T, n int) (*Gateway, *httptest.Server, []*testNode) {
	t.Helper()
	nodes := make([]*testNode, n)
	cfgNodes := make([]Node, n)
	for i := range nodes {
		st := tcsim.NewTraceStore(0)
		srv := server.New(server.Config{Engine: server.EngineConfig{Workers: 2, Store: st}})
		ts := httptest.NewServer(srv.Handler())
		nodes[i] = &testNode{name: fmt.Sprintf("node%d", i), store: st, srv: srv, ts: ts}
		cfgNodes[i] = Node{Name: nodes[i].name, URL: ts.URL}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			ts.Close()
		})
	}
	g, err := New(Config{
		Nodes:         cfgNodes,
		ProbeInterval: 50 * time.Millisecond,
		ProbeTimeout:  time.Second,
		Retry:         client.RetryPolicy{MaxAttempts: 2, BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		g.Shutdown(ctx)
	})
	gts := httptest.NewServer(g.Handler())
	t.Cleanup(gts.Close)
	return g, gts, nodes
}

// TestGatewayJobAffinity: jobs proxy through the gateway bit-for-bit
// identically to a direct run, identical configs land on the same node
// (second submission is that node's cache hit), and async IDs poll back
// through the node-index namespace.
func TestGatewayJobAffinity(t *testing.T) {
	g, gts, nodes := testCluster(t, 3)
	ctx := context.Background()
	cl := client.New(gts.URL)

	req := &client.JobRequest{Workload: "compress", Insts: testInsts}
	cfg, _, err := server.ResolveConfig(req, server.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := tcsim.RunWorkload(cfg, "compress")
	if err != nil {
		t.Fatal(err)
	}
	job, err := cl.SubmitJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != client.StateDone || job.Result == nil {
		t.Fatalf("gateway job state %q", job.State)
	}
	if !reflect.DeepEqual(*job.Result, direct) {
		t.Fatalf("gateway result differs from direct run:\n gateway %+v\n direct  %+v", *job.Result, direct)
	}
	owner, _, ok := splitID(job.ID)
	if !ok {
		t.Fatalf("gateway job ID %q lacks the node namespace", job.ID)
	}

	// Same config again: must route to the same node and hit its cache.
	const hits = `tcserved_cache_requests_total{result="hit"}`
	before := mustMetrics(t, nodes[owner])[hits]
	if _, err := cl.SubmitJob(ctx, req); err != nil {
		t.Fatal(err)
	}
	if after := mustMetrics(t, nodes[owner])[hits]; after != before+1 {
		t.Fatalf("owner cache hits %v -> %v, want +1 (affinity broken?)", before, after)
	}

	// Async: the prefixed ID round-trips through GET /v1/jobs/{id}.
	aj, err := cl.SubmitJobAsync(ctx, &client.JobRequest{Workload: "gcc", Insts: testInsts})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := splitID(aj.ID); !ok {
		t.Fatalf("async ID %q not namespaced", aj.ID)
	}
	done, err := cl.WaitJob(ctx, aj.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != client.StateDone || done.ID != aj.ID {
		t.Fatalf("polled job = (%q, %q), want done under the same ID", done.State, done.ID)
	}
	_ = g
}

// TestGatewayBadRequests: invalid jobs and unknown job IDs fail fast at
// the gateway with the node's exact error vocabulary.
func TestGatewayBadRequests(t *testing.T) {
	_, gts, _ := testCluster(t, 1)
	cl := client.New(gts.URL)
	ctx := context.Background()

	var ae *client.APIError
	_, err := cl.SubmitJob(ctx, &client.JobRequest{Workload: "no-such-benchmark"})
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || ae.Code != "invalid_argument" {
		t.Fatalf("bad workload via gateway = %v, want 400 invalid_argument", err)
	}
	_, err = cl.GetJob(ctx, "j123") // un-namespaced: can't belong to this gateway
	if !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
		t.Fatalf("unknown ID = %v, want 404", err)
	}
	_, err = cl.GetJob(ctx, "n99.j123") // namespaced beyond the node list
	if !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
		t.Fatalf("out-of-range node ID = %v, want 404", err)
	}
}

// TestGatewayFailover: when a key's owner dies, the job re-hashes to
// the next ring replica and still succeeds; the dead node is demoted
// and /v1/cluster says so.
func TestGatewayFailover(t *testing.T) {
	g, gts, nodes := testCluster(t, 3)
	ctx := context.Background()
	cl := client.New(gts.URL)

	// Find the owner of this config's canonical key, then kill it.
	req := &client.JobRequest{Workload: "compress", Insts: testInsts}
	_, key, err := server.ResolveConfig(req, server.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	owner := g.ring.Owner(key)
	nodes[owner].ts.Close()

	job, err := cl.SubmitJob(ctx, req)
	if err != nil {
		t.Fatalf("job after owner death: %v", err)
	}
	if job.State != client.StateDone {
		t.Fatalf("failover job state %q", job.State)
	}
	served, _, _ := splitID(job.ID)
	if served == owner {
		t.Fatalf("job claims to have run on the dead owner %d", owner)
	}
	if want := g.ring.Order(key)[1]; served != want {
		t.Fatalf("failover landed on node %d, ring successor is %d", served, want)
	}
	if g.met.rehashes.Load() == 0 {
		t.Fatal("failover did not count a rehash")
	}

	status, err := cl.Cluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if status.Healthy != 2 || len(status.Nodes) != 3 {
		t.Fatalf("cluster status = %d/%d healthy", status.Healthy, len(status.Nodes))
	}
	dead := status.Nodes[owner]
	if dead.Healthy || dead.Demotions == 0 || dead.LastError == "" {
		t.Fatalf("dead node status = %+v, want demoted with an error", dead)
	}
}

// TestGatewaySweepFanout: a sweep through the gateway returns rows
// bit-for-bit identical (and identically ordered) to a single node
// running the same sweep, while the cells spread across the cluster.
func TestGatewaySweepFanout(t *testing.T) {
	g, gts, nodes := testCluster(t, 3)
	ctx := context.Background()
	cl := client.New(gts.URL)

	req := &client.SweepRequest{
		Workloads: []string{"compress", "gcc"},
		Configs: []client.JobRequest{
			{},
			{NoPacking: true},
		},
		Insts: testInsts,
	}
	got, err := cl.Sweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: one standalone node runs the identical sweep directly.
	refSrv := server.New(server.Config{Engine: server.EngineConfig{Store: tcsim.NewTraceStore(0)}})
	refTS := httptest.NewServer(refSrv.Handler())
	defer refTS.Close()
	defer refSrv.Shutdown(ctx)
	want, err := client.New(refTS.URL).Sweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cells != want.Cells || len(got.Rows) != len(want.Rows) {
		t.Fatalf("gateway sweep shape (%d cells, %d rows) != direct (%d, %d)",
			got.Cells, len(got.Rows), want.Cells, len(want.Rows))
	}
	for i := range want.Rows {
		if got.Rows[i] != want.Rows[i] {
			t.Fatalf("row %d differs:\n gateway %+v\n direct  %+v", i, got.Rows[i], want.Rows[i])
		}
	}
	// The fan-out genuinely sharded: every ring-designated owner (and
	// only owners) captured traces into its isolated store.
	cells, err := server.ResolveSweepCells(req, server.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	owners := map[int]bool{}
	for _, c := range cells {
		owners[g.ring.Owner(c.Key)] = true
	}
	if len(owners) < 2 {
		t.Fatalf("test vacuous: all %d cells hash to one node; vary the workloads", len(cells))
	}
	for i, n := range nodes {
		captured := n.store.Stats().Captures > 0
		if captured != owners[i] {
			t.Errorf("node %d captured=%v, ring owner=%v — cells did not follow the ring", i, captured, owners[i])
		}
	}
}

// TestGatewayTraceCDN: a trace captured on one node is served through
// the gateway's /v1/traces proxy, validates fail-closed, and a second
// node wired with the gateway fetcher replays it instead of emulating.
func TestGatewayTraceCDN(t *testing.T) {
	_, gts, nodes := testCluster(t, 2)
	ctx := context.Background()
	cl := client.New(gts.URL)

	job, err := cl.SubmitJob(ctx, &client.JobRequest{Workload: "compress", Insts: testInsts})
	if err != nil {
		t.Fatal(err)
	}
	owner, _, _ := splitID(job.ID)
	sha, _ := tracestore.WorkloadHash("compress")

	resp, err := http.Get(fmt.Sprintf("%s/v1/traces/%s?budget=%d", gts.URL, sha, testInsts))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway trace GET = %d", resp.StatusCode)
	}
	if err := tracestore.Validate(body, "compress", testInsts); err != nil {
		t.Fatalf("proxied trace fails validation: %v", err)
	}
	if node := resp.Header.Get("X-Trace-Node"); node != nodes[owner].name {
		t.Errorf("X-Trace-Node = %q, want %q", node, nodes[owner].name)
	}

	// Unknown program: a clean cluster-wide 404.
	resp, err = http.Get(gts.URL + "/v1/traces/feedfacecafebeef?budget=1000")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace via gateway = %d, want 404", resp.StatusCode)
	}

	// Wire the peer's store to the gateway CDN: its capture for the same
	// (workload, budget) must be a fetch, not an emulation.
	peer := 1 - owner
	nodes[peer].store.SetFetcher(TraceFetcher(gts.URL, nil))
	if _, _, err := nodes[peer].store.Get("compress", testInsts); err != nil {
		t.Fatal(err)
	}
	st := nodes[peer].store.Stats()
	if st.CDNFetches != 1 || st.CDNRejects != 0 {
		t.Fatalf("peer stats = %+v, want one CDN fetch", st)
	}
	if emulated := st.Captures - st.DiskLoads - st.CDNFetches; emulated != 0 {
		t.Fatalf("peer emulated %d captures, want 0 — CDN fetch should have replayed", emulated)
	}
}

// TestGatewayReadiness: ready only while >= 1 node is routable and the
// gateway is not draining.
func TestGatewayReadiness(t *testing.T) {
	g, gts, nodes := testCluster(t, 1)
	ctx := context.Background()
	cl := client.New(gts.URL)

	if err := cl.Ready(ctx); err != nil {
		t.Fatalf("ready with live node: %v", err)
	}
	nodes[0].ts.Close()
	g.probeAll(ctx) // deterministic: force the round instead of sleeping
	var ae *client.APIError
	if err := cl.Ready(ctx); !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("ready with dead cluster = %v, want 503", err)
	}
	if err := cl.Health(ctx); err != nil {
		t.Fatalf("gateway liveness must not depend on nodes: %v", err)
	}
	g.BeginDrain()
	if err := cl.Ready(ctx); !errors.As(err, &ae) || ae.Code != "draining" {
		t.Fatalf("ready while draining = %v, want draining", err)
	}
}

// TestGatewayPromotion: a demoted node that comes back is promoted by
// the next probe round and serves again.
func TestGatewayPromotion(t *testing.T) {
	g, _, nodes := testCluster(t, 2)
	ctx := context.Background()

	g.health[1].markDown(errors.New("induced"))
	if g.Healthy() != 1 {
		t.Fatal("markDown did not demote")
	}
	g.probeAll(ctx)
	if g.Healthy() != 2 {
		t.Fatal("probe round did not promote a live node")
	}
	if g.met.promotions.Load() == 0 {
		t.Fatal("promotion not counted")
	}
	_ = nodes
}

// TestGatewayMetricsExposition: the aggregated /metrics endpoint parses
// as valid Prometheus text and carries both gateway counters and
// node-labeled families, each row equal to the node's own sample.
func TestGatewayMetricsExposition(t *testing.T) {
	_, gts, nodes := testCluster(t, 2)
	ctx := context.Background()
	cl := client.New(gts.URL)
	// Five gateway submissions of one config, then two other configs of
	// the same workload straight to its owner, leave the owner with
	// distinct counts (hits 4, misses 3, replays 2, captures 1), so a row
	// read from the wrong sample shows up as a mismatch below.
	req := &client.JobRequest{Workload: "compress", Insts: testInsts}
	var owner int
	for i := 0; i < 5; i++ {
		job, err := cl.SubmitJob(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		owner, _, _ = splitID(job.ID)
	}
	for _, cfg := range []client.JobRequest{{Preset: client.PresetAll}, {Passes: []string{"moves"}}} {
		cfg.Workload, cfg.Insts = req.Workload, req.Insts
		if _, err := client.New(nodes[owner].ts.URL).SubmitJob(ctx, &cfg); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(gts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	samples, err := obs.ParseExposition(body)
	if err != nil {
		t.Fatalf("gateway exposition does not parse: %v\n%s", err, body)
	}
	if got := samples[`tcgate_nodes`]; got != 2 {
		t.Errorf("tcgate_nodes = %v, want 2", got)
	}
	if got := samples[`tcgate_nodes_healthy`]; got != 2 {
		t.Errorf("tcgate_nodes_healthy = %v, want 2", got)
	}
	if got := samples[`tcgate_jobs_proxied_total{outcome="ok"}`]; got != 5 {
		t.Errorf(`jobs_proxied{ok} = %v, want 5`, got)
	}
	for _, want := range []string{
		`tcgate_node_up{node="node0"}`,
		`tcgate_node_up{node="node1"}`,
		`tcgate_node_queue_depth{node="node0"}`,
		`tcgate_node_tracestore_total{node="node0",outcome="capture"}`,
		`tcgate_node_tracestore_total{node="node1",outcome="cdn_fetch"}`,
	} {
		if _, ok := samples[want]; !ok {
			t.Errorf("exposition lacks %s", want)
		}
	}
	captures := samples[`tcgate_node_tracestore_total{node="node0",outcome="capture"}`] +
		samples[`tcgate_node_tracestore_total{node="node1",outcome="capture"}`]
	if captures != 1 {
		t.Errorf("cluster-wide captures = %v, want exactly 1", captures)
	}

	// Every per-node row is the node's own sample under a node label.
	// Nothing runs between the gateway's scrape and these, so the
	// values must match exactly.
	nodeSamples := []struct{ row, sample string }{
		{"tcgate_node_queue_depth{%s}", "tcserved_queue_depth"},
		{"tcgate_node_in_flight{%s}", "tcserved_jobs_in_flight"},
		{`tcgate_node_cache_total{%s,outcome="hit"}`, `tcserved_cache_requests_total{result="hit"}`},
		{`tcgate_node_cache_total{%s,outcome="miss"}`, `tcserved_cache_requests_total{result="miss"}`},
		{`tcgate_node_tracestore_total{%s,outcome="capture"}`, "tcserved_tracestore_captures_total"},
		{`tcgate_node_tracestore_total{%s,outcome="replay"}`, "tcserved_tracestore_replay_hits_total"},
		{`tcgate_node_tracestore_total{%s,outcome="disk_load"}`, `tcserved_tracestore_disk_total{outcome="load"}`},
		{`tcgate_node_tracestore_total{%s,outcome="cdn_serve"}`, `tcserved_tracestore_cdn_total{outcome="serve"}`},
		{`tcgate_node_tracestore_total{%s,outcome="cdn_fetch"}`, `tcserved_tracestore_cdn_total{outcome="fetch"}`},
		{`tcgate_node_tracestore_total{%s,outcome="cdn_reject"}`, `tcserved_tracestore_cdn_total{outcome="reject"}`},
	}
	premise := mustMetrics(t, nodes[owner])
	for sample, want := range map[string]float64{
		`tcserved_cache_requests_total{result="hit"}`:  4,
		`tcserved_cache_requests_total{result="miss"}`: 3,
		"tcserved_tracestore_replay_hits_total":        2,
		"tcserved_tracestore_captures_total":           1,
	} {
		if premise[sample] != want {
			t.Errorf("owner %s = %v, want %v", sample, premise[sample], want)
		}
	}
	for _, n := range nodes {
		own := mustMetrics(t, n)
		for _, ns := range nodeSamples {
			row := fmt.Sprintf(ns.row, `node="`+n.name+`"`)
			got, ok := samples[row]
			want, wok := own[ns.sample]
			if !ok || !wok || got != want {
				t.Errorf("%s = %v (present %v), node's own %s = %v (present %v)", row, got, ok, ns.sample, want, wok)
			}
		}
	}
}

// TestGatewayConfigValidation: duplicate names and empty node lists are
// construction-time errors, not runtime surprises.
func TestGatewayConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty node list accepted")
	}
	_, err := New(Config{Nodes: []Node{{Name: "a", URL: "http://x"}, {Name: "a", URL: "http://y"}}})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate names = %v, want duplicate-name error", err)
	}
	if _, err := New(Config{Nodes: []Node{{Name: "a"}}}); err == nil {
		t.Error("node without URL accepted")
	}
}

func mustMetrics(t *testing.T, n *testNode) map[string]float64 {
	t.Helper()
	m, err := client.New(n.ts.URL).Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return m
}
