package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"reflect"
	"sync"
	"time"

	"tcsim"
	"tcsim/client"
	"tcsim/internal/cluster"
	"tcsim/internal/obs"
	"tcsim/internal/server"
	"tcsim/internal/tracestore"
)

// clusterNode is one in-process backend of the selfcheck cluster: a
// full server.Server with an isolated trace store (wired to the
// gateway's trace CDN) and a persistent trace directory that survives
// the kill/restart the check performs.
type clusterNode struct {
	name    string
	addr    string // host:port, stable across restart (the ring identity is name, but reusing the addr exercises rebinding)
	dir     string
	store   *tcsim.TraceStore
	srv     *server.Server
	httpSrv *http.Server
}

// startClusterNode boots one node on addr ("127.0.0.1:0" = ephemeral).
// Every node resolves capture misses through the gateway CDN first.
func startClusterNode(scfg server.Config, name, addr, dir, gwURL string) (*clusterNode, error) {
	st := tcsim.NewTraceStore(0)
	st.SetDir(dir)
	st.SetFetcher(cluster.TraceFetcher(gwURL, nil))
	cfg := scfg
	cfg.Engine.Store = st
	cfg.Service = name // span services are node names: a collated tree shows which node ran what
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("node %s: %w", name, err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	return &clusterNode{
		name: name, addr: ln.Addr().String(), dir: dir,
		store: st, srv: srv, httpSrv: httpSrv,
	}, nil
}

// kill closes the node's listener and every open connection — a crash,
// not a drain. The server object is abandoned (shut down asynchronously
// for goroutine hygiene); its counters are gone, like a real process's.
func (n *clusterNode) kill() {
	n.httpSrv.Close()
	go func(s *server.Server) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}(n.srv)
}

// emulatedCaptures is how many correct-path streams a store actually
// emulated: total captures minus the ones satisfied from disk or
// fetched from a cluster peer.
func emulatedCaptures(st tcsim.TraceStoreStats) uint64 {
	return st.Captures - st.DiskLoads - st.CDNFetches
}

// runClusterSelfcheck boots a 3-node cluster behind a tcgate gateway
// and drives it the way the single-node check drives one daemon —
// thousands of mixed sync/async jobs plus a sweep, every response
// bit-for-bit DeepEqual to a direct run — while also killing and
// restarting a node mid-load, and asserting the cluster's economics:
// each workload's trace is emulated exactly once cluster-wide (all
// other nodes fetch it through the content-addressed CDN), re-hash
// failover masks the dead node, and the gateway's aggregated metrics
// agree with the nodes' own counters.
func runClusterSelfcheck(stdout, stderr io.Writer, scfg server.Config, jobs int, insts uint64, flightDir string) int {
	t0 := time.Now()
	if jobs < 2000 {
		jobs = 2000
	}
	var fails checkFailure
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Minute)
	defer cancel()

	// The storm repeats 24 unique configs; nodes need queue room, and
	// the per-node request log would drown the report.
	scfg.Engine.Queue = 4096
	scfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))

	fatal := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "tcserved cluster selfcheck: "+format+"\n", args...)
		return 1
	}

	// Reserve the gateway's address first: nodes need its URL for their
	// CDN fetchers before the gateway (which needs their URLs) exists.
	gwLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fatal("%v", err)
	}
	gwURL := "http://" + gwLn.Addr().String()

	names := []string{"node0", "node1", "node2"}
	nodes := make([]*clusterNode, len(names))
	cfgNodes := make([]cluster.Node, len(names))
	for i, name := range names {
		dir, err := os.MkdirTemp("", "tcsim-cluster-"+name+"-*")
		if err != nil {
			return fatal("%v", err)
		}
		defer os.RemoveAll(dir)
		n, err := startClusterNode(scfg, name, "127.0.0.1:0", dir, gwURL)
		if err != nil {
			return fatal("%v", err)
		}
		nodes[i] = n
		cfgNodes[i] = cluster.Node{Name: name, URL: "http://" + n.addr}
	}
	g, err := cluster.New(cluster.Config{
		Nodes:         cfgNodes,
		ProbeInterval: 50 * time.Millisecond,
		ProbeTimeout:  2 * time.Second,
		Logger:        scfg.Logger,
	})
	if err != nil {
		return fatal("%v", err)
	}
	g.Start()
	gwHTTP := &http.Server{Handler: g.Handler()}
	go gwHTTP.Serve(gwLn)
	gcl := client.New(gwURL)
	defer func() {
		sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer scancel()
		gwHTTP.Shutdown(sctx)
		g.Shutdown(sctx)
		for _, n := range nodes {
			n.httpSrv.Shutdown(sctx)
			n.srv.Shutdown(sctx)
		}
	}()

	if err := gcl.Ready(ctx); err != nil {
		return fatal("gateway readiness: %v", err)
	}

	// Direct-run references, exactly like the single-node phase. The
	// reference runs take a Program, bypassing every trace store, so
	// they cannot perturb the cluster's capture accounting.
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
				return fatal("resolve %s: %v", w, err)
			}
			expected, err := tcsim.RunContext(ctx, dcfg, mustProgram(w))
			if err != nil {
				return fatal("direct run %s: %v", w, err)
			}
			unique = append(unique, testCase{req: req, key: key, expected: expected})
		}
	}

	// Warm phase: one baseline job per workload, sequentially, so each
	// workload's trace is emulated exactly once — on its ring owner —
	// before concurrent load starts. Everything after either replays
	// locally or fetches through the CDN; emulating again is a failure.
	ring := cluster.NewRing(names, 0)
	baselineKey := map[string]string{}
	for _, w := range selfcheckWorkloads {
		req := selfcheckConfigs[0]
		req.Workload = w
		req.Insts = insts
		_, key, err := server.ResolveConfig(&req, server.Limits{})
		if err != nil {
			return fatal("resolve warm %s: %v", w, err)
		}
		baselineKey[w] = key
		job, err := gcl.SubmitJob(ctx, &req)
		if err != nil {
			return fatal("warm job %s: %v", w, err)
		}
		if job.State != client.StateDone {
			return fatal("warm job %s finished %q", w, job.State)
		}
	}

	// wave fires n mixed sync/async jobs from the shuffled storm and
	// waits for all of them; every response must match its reference.
	rng := rand.New(rand.NewSource(2))
	wave := func(label string, n int) {
		var wg sync.WaitGroup
		sem := make(chan struct{}, 16)
		for i := 0; i < n; i++ {
			tc := unique[rng.Intn(len(unique))]
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				var job *client.Job
				var err error
				if i%3 == 0 {
					job, err = gcl.SubmitJobAsync(ctx, &tc.req)
					if err == nil {
						job, err = gcl.WaitJob(ctx, job.ID, 2*time.Millisecond)
					}
				} else {
					job, err = gcl.SubmitJob(ctx, &tc.req)
				}
				if err != nil {
					fails.failf("%s job %d (%s): %v", label, i, tc.req.Workload, err)
					return
				}
				if job.State != client.StateDone || job.Result == nil {
					fails.failf("%s job %d (%s): state %q, error %q", label, i, tc.req.Workload, job.State, job.Error)
					return
				}
				if job.Key != tc.key {
					fails.failf("%s job %d: server key %s != client key %s", label, i, job.Key, tc.key)
				}
				if !reflect.DeepEqual(*job.Result, tc.expected) {
					fails.failf("%s job %d (%s, key %s): cluster result differs from direct run (IPC %v vs %v)",
						label, i, tc.req.Workload, tc.key, job.Result.IPC, tc.expected.IPC)
				}
			}()
		}
		wg.Wait()
	}

	wave("full-cluster", jobs/2)

	// Kill the node that owns the first workload's baseline trace — it
	// is guaranteed to have originated at least one capture — and keep
	// loading: everything it owned must re-hash to its ring successors.
	victim := ring.Owner(baselineKey[selfcheckWorkloads[0]])
	victimSnap := nodes[victim].store.Stats()
	nodes[victim].kill()

	// The victim may have been the only holder of some workloads'
	// traces (their every config key hashed to it). Those are "lost":
	// the surviving owner legitimately emulates each once more. Count
	// them now, then re-warm sequentially so the concurrent wave can
	// never race two survivors into emulating the same lost trace twice.
	lost := 0
	for _, w := range selfcheckWorkloads {
		avail := false
		for i, n := range nodes {
			if i == victim {
				continue
			}
			if _, err := n.store.ExportBytes(w, insts, false); err == nil {
				avail = true
				break
			}
		}
		if !avail {
			lost++
		}
	}
	for _, w := range selfcheckWorkloads {
		req := selfcheckConfigs[0]
		req.Workload = w
		req.Insts = insts
		if job, err := gcl.SubmitJob(ctx, &req); err != nil {
			fails.failf("re-warm job %s on degraded cluster: %v", w, err)
		} else if job.State != client.StateDone {
			fails.failf("re-warm job %s finished %q", w, job.State)
		}
	}

	wave("degraded", jobs/4)

	status, err := gcl.Cluster(ctx)
	if err != nil {
		fails.failf("GET /v1/cluster: %v", err)
	} else {
		if status.Healthy != len(names)-1 {
			fails.failf("degraded cluster reports %d healthy nodes, want %d", status.Healthy, len(names)-1)
		}
		if vs := status.Nodes[victim]; vs.Healthy || vs.Demotions == 0 {
			fails.failf("killed node %s status = %+v, want demoted", names[victim], vs)
		}
	}

	// Restart the victim on its old address with a FRESH store (its
	// counters died with it) but the same trace directory: captures must
	// come back from disk or the CDN, never by re-emulating.
	restarted, err := startClusterNode(scfg, names[victim], nodes[victim].addr, nodes[victim].dir, gwURL)
	if err != nil {
		return fatal("restart %s: %v", names[victim], err)
	}
	nodes[victim] = restarted
	promoted := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if s, err := gcl.Cluster(ctx); err == nil && s.Healthy == len(names) {
			promoted = true
			break
		}
	}
	if !promoted {
		fails.failf("restarted node %s was not promoted back within 10s", names[victim])
	}

	wave("restored", jobs/4)

	// Sweep through the gateway: rows must be bit-for-bit the job-phase
	// references, in cell order.
	sweepWLs := selfcheckWorkloads[:3]
	sweep, err := gcl.Sweep(ctx, &client.SweepRequest{
		Workloads: sweepWLs,
		Configs:   []client.JobRequest{{}, {Preset: client.PresetAll}},
		Insts:     insts,
	})
	if err != nil {
		fails.failf("cluster sweep: %v", err)
		sweep = &client.SweepResponse{}
	} else {
		if sweep.Cells != len(sweepWLs)*2 || len(sweep.Rows) != sweep.Cells {
			fails.failf("cluster sweep: %d cells, %d rows (want %d)", sweep.Cells, len(sweep.Rows), len(sweepWLs)*2)
		}
		byKey := make(map[string]tcsim.Result)
		for _, tc := range unique {
			byKey[tc.key] = tc.expected
		}
		for _, row := range sweep.Rows {
			ref, ok := byKey[row.Key]
			if !ok {
				fails.failf("cluster sweep cell %s: key %s not among the job-phase keys", row.Workload, row.Key)
				continue
			}
			if row.IPC != ref.IPC || row.Cycles != ref.Cycles || row.Retired != ref.Retired {
				fails.failf("cluster sweep cell %s/%s: IPC %v cycles %d != direct %v/%d",
					row.Workload, row.Key, row.IPC, row.Cycles, ref.IPC, ref.Cycles)
			}
		}
	}

	// Error passthrough: a bad request must fail fast at the gateway
	// with the node vocabulary, not a 502.
	var apiErr *client.APIError
	if _, err := gcl.SubmitJob(ctx, &client.JobRequest{Workload: "no-such-workload"}); !errors.As(err, &apiErr) ||
		apiErr.Status != http.StatusBadRequest || apiErr.Code != "invalid_argument" {
		fails.failf("invalid workload via gateway = %v, want 400 invalid_argument", err)
	}

	// Sampled job through the gateway: the sampling plan is part of the
	// canonical key, so the gateway must route it like any job and the
	// estimate must come back bit-for-bit a direct run's. Warm-mode only:
	// a seek job above the full-capture limit would emulate a fresh
	// checkpoint log on its owner and break the capture-once accounting
	// below. The direct reference runs over its own trace store, never
	// touching any node's counters.
	sreq := client.JobRequest{Workload: selfcheckWorkloads[0], Insts: insts,
		SamplePeriod: insts / 4, SampleWindow: insts / 20, SampleWarmup: insts / 20}
	if sdcfg, skey, err := server.ResolveConfig(&sreq, server.Limits{}); err != nil {
		fails.failf("cluster sampled job: resolve: %v", err)
	} else if sexp, err := tcsim.RunWorkloadContextIn(ctx, sdcfg, sreq.Workload, tcsim.NewTraceStore(0)); err != nil {
		fails.failf("cluster sampled job: direct run: %v", err)
	} else if job, err := gcl.SubmitJob(ctx, &sreq); err != nil {
		fails.failf("cluster sampled job: submit: %v", err)
	} else {
		if job.Key != skey {
			fails.failf("cluster sampled job: gateway key %s != client key %s", job.Key, skey)
		}
		if job.Result == nil || !reflect.DeepEqual(*job.Result, sexp) {
			fails.failf("cluster sampled job (key %s): gateway result differs from direct run", skey)
		}
		if job.Result != nil && (job.Result.Sampled == nil || job.Result.Sampled.Windows == 0) {
			fails.failf("cluster sampled job: result carries no sampled windows")
		}
	}

	// Trace CDN probes through the gateway.
	checkClusterCDN(ctx, gwURL, insts, &fails)

	// Capture-once economics, the cluster's core claim: across every
	// store that ever lived (the dead victim's counters were snapshotted
	// at kill time), each workload was EMULATED exactly once; every
	// other capture came from disk or a CDN peer.
	total := emulatedCaptures(victimSnap)
	var cdnFetches, cdnRejects uint64
	for i, n := range nodes {
		st := n.store.Stats()
		total += emulatedCaptures(st)
		cdnFetches += st.CDNFetches
		cdnRejects += st.CDNRejects
		if i == victim && emulatedCaptures(st) != 0 {
			fails.failf("restarted node re-emulated %d captures; disk and CDN should have covered all of them",
				emulatedCaptures(st))
		}
	}
	cdnFetches += victimSnap.CDNFetches
	cdnRejects += victimSnap.CDNRejects
	if want := uint64(len(selfcheckWorkloads) + lost); total != want {
		fails.failf("cluster emulated %d captures, want exactly %d (one per workload cluster-wide, +%d whose only copy died with the victim)",
			total, want, lost)
	}
	if cdnFetches == 0 {
		fails.failf("no node fetched a trace through the CDN — the cluster is not sharing captures")
	}
	if cdnRejects != 0 {
		fails.failf("CDN fail-closed validation rejected %d bodies from trusted peers", cdnRejects)
	}

	// Gateway aggregation: the exposition must parse, see all nodes
	// healthy, have counted the kill (demotion + re-hashes) and the
	// recovery (promotion), and its per-node capture samples must sum to
	// the live stores' own counters.
	checkGatewayMetrics(ctx, gwURL, nodes, &fails)

	// Distributed-tracing phase: force a failover on a dedicated
	// mini-cluster and assert the collated span tree is connected across
	// gateway and nodes, with the dead-owner retry visible.
	checkFailoverTrace(ctx, stderr, scfg, insts, flightDir, &fails)

	if len(fails.errs) > 0 {
		fmt.Fprintf(stderr, "tcserved cluster selfcheck: %d failure(s):\n", len(fails.errs))
		for _, e := range fails.errs {
			fmt.Fprintf(stderr, "  - %s\n", e)
		}
		flights := []*obs.FlightRecorder{g.Flight()}
		for _, n := range nodes {
			flights = append(flights, n.srv.Flight())
		}
		dumpFlights(stderr, flightDir, flights...)
		return 1
	}
	fmt.Fprintf(stdout,
		"tcserved cluster selfcheck ok: %d jobs across 3 nodes (+1 kill/restart) bit-for-bit identical to direct runs; "+
			"%d workloads emulated once cluster-wide (+%d re-captured after the kill orphaned them), "+
			"%d CDN fetches, 0 rejects; sweep %d cells; failover span tree connected; %.1fs\n",
		jobs, len(selfcheckWorkloads), lost, cdnFetches, sweep.Cells, time.Since(t0).Seconds())
	return 0
}

// checkFailoverTrace is the distributed-tracing assertion: a dedicated
// two-node mini-cluster whose readiness probes are effectively frozen
// (an hour apart), so killing a node leaves it on the ring and the next
// request addressed to it MUST fail over inside the request itself —
// producing a failed attempt span, a successful retry attempt span, and
// a node-side serve/run subtree, all under one gateway root. The check
// then collates GET /v1/trace/{id} and asserts the tree is CONNECTED:
// one root (at the gateway), every parent present, both services on
// record, and the run span carrying its capture/replay phase attribute.
func checkFailoverTrace(ctx context.Context, stderr io.Writer, scfg server.Config, insts uint64, flightDir string, fails *checkFailure) {
	before := len(fails.errs)

	gwLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fails.failf("failover trace: %v", err)
		return
	}
	gwURL := "http://" + gwLn.Addr().String()

	names := []string{"ft-node0", "ft-node1"}
	nodes := make([]*clusterNode, len(names))
	cfgNodes := make([]cluster.Node, len(names))
	for i, name := range names {
		dir, err := os.MkdirTemp("", "tcsim-ft-"+name+"-*")
		if err != nil {
			gwLn.Close()
			fails.failf("failover trace: %v", err)
			return
		}
		defer os.RemoveAll(dir)
		n, err := startClusterNode(scfg, name, "127.0.0.1:0", dir, gwURL)
		if err != nil {
			gwLn.Close()
			fails.failf("failover trace: %v", err)
			return
		}
		nodes[i] = n
		cfgNodes[i] = cluster.Node{Name: name, URL: "http://" + n.addr}
	}
	g, err := cluster.New(cluster.Config{
		Nodes: cfgNodes,
		// Probes must NOT notice the kill: demotion would reorder the
		// candidate walk and the dead owner would never be attempted. An
		// hour between probes freezes the health view for the check.
		ProbeInterval: time.Hour,
		ProbeTimeout:  2 * time.Second,
		Logger:        scfg.Logger,
	})
	if err != nil {
		gwLn.Close()
		fails.failf("failover trace: %v", err)
		return
	}
	g.Start()
	gwHTTP := &http.Server{Handler: g.Handler()}
	go gwHTTP.Serve(gwLn)
	gcl := client.New(gwURL)
	defer func() {
		sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer scancel()
		gwHTTP.Shutdown(sctx)
		g.Shutdown(sctx)
		for _, n := range nodes {
			n.httpSrv.Shutdown(sctx)
			n.srv.Shutdown(sctx)
		}
		if len(fails.errs) > before {
			flights := []*obs.FlightRecorder{g.Flight()}
			for _, n := range nodes {
				flights = append(flights, n.srv.Flight())
			}
			dumpFlights(stderr, flightDir, flights...)
		}
	}()

	if err := gcl.Ready(ctx); err != nil {
		fails.failf("failover trace: gateway readiness: %v", err)
		return
	}

	// Kill the ring owner of the job's key, then submit that exact job:
	// the gateway walks owner-first, so the request must retry onto the
	// survivor while the trace records the failed first attempt.
	req := client.JobRequest{Workload: selfcheckWorkloads[0], Insts: insts}
	_, key, err := server.ResolveConfig(&req, server.Limits{})
	if err != nil {
		fails.failf("failover trace: resolve: %v", err)
		return
	}
	ring := cluster.NewRing(names, 0)
	victim := ring.Owner(key)
	survivor := names[1-victim]
	nodes[victim].kill()

	rid := "selfcheck-failover-trace"
	job, err := gcl.SubmitJob(client.WithRequestID(ctx, rid), &req)
	if err != nil {
		fails.failf("failover trace: submit through degraded mini-cluster: %v", err)
		return
	}
	if job.State != client.StateDone || job.Result == nil {
		fails.failf("failover trace: job finished %q (error %q)", job.State, job.Error)
		return
	}

	// Collate. The node commits its serve span when the response is
	// written, strictly before the gateway's attempt span finishes, and
	// the gateway commits its root before answering the client — so one
	// immediate scrape should already be connected; the short retry loop
	// only absorbs scheduling noise.
	getTree := func() (obs.SpanTree, error) {
		var tree obs.SpanTree
		hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, gwURL+"/v1/trace/"+rid, nil)
		if err != nil {
			return tree, err
		}
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			return tree, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return tree, fmt.Errorf("GET /v1/trace/%s answered %s", rid, resp.Status)
		}
		if err := json.NewDecoder(resp.Body).Decode(&tree); err != nil {
			return tree, err
		}
		return tree, nil
	}
	var tree obs.SpanTree
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		tree, err = getTree()
		if err == nil && tree.Connected {
			break
		}
		if time.Now().After(deadline) {
			if err != nil {
				fails.failf("failover trace: collation: %v", err)
			} else {
				fails.failf("failover trace %s never became a connected tree: %d spans, %d roots, services %v",
					rid, tree.SpanCount, len(tree.Roots), tree.Services)
			}
			return
		}
	}

	if len(tree.Roots) != 1 || tree.Roots[0].Service != "tcgate" {
		fails.failf("failover trace: want a single gateway root, got %d roots (first service %q)",
			len(tree.Roots), tree.Roots[0].Service)
		return
	}
	hasService := func(s string) bool {
		for _, svc := range tree.Services {
			if svc == s {
				return true
			}
		}
		return false
	}
	if !hasService("tcgate") || !hasService(survivor) {
		fails.failf("failover trace: services %v, want both tcgate and the surviving node %s", tree.Services, survivor)
	}
	var attempts, failedAttempts, okAttempts int
	var runSeen bool
	var runPhase string
	tree.Walk(func(n *obs.SpanNode) {
		switch n.Name {
		case "attempt":
			attempts++
			if n.Error != "" {
				failedAttempts++
			}
			if n.Attrs["outcome"] == "ok" {
				okAttempts++
			}
		case "run":
			runSeen = true
			runPhase = n.Attrs["phase"]
		}
	})
	if attempts < 2 {
		fails.failf("failover trace: %d attempt spans, want >= 2 (the dead owner plus the survivor)", attempts)
	}
	if failedAttempts == 0 {
		fails.failf("failover trace: no attempt span records the dead owner's failure")
	}
	if okAttempts == 0 {
		fails.failf("failover trace: no attempt span records the successful retry")
	}
	if !runSeen {
		fails.failf("failover trace: the survivor's run span is missing from the collated tree")
	} else if runPhase != "capture" && runPhase != "replay" {
		fails.failf("failover trace: run span phase %q, want capture or replay", runPhase)
	}
}

// checkClusterCDN probes the gateway's /v1/traces proxy: a captured
// workload serves validated bytes, unknown programs 404, malformed
// budgets 400.
func checkClusterCDN(ctx context.Context, gwURL string, insts uint64, fails *checkFailure) {
	w := selfcheckWorkloads[1]
	sha, ok := tracestore.WorkloadHash(w)
	if !ok {
		fails.failf("no content hash for workload %s", w)
		return
	}
	get := func(url string) (int, []byte) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			fails.failf("build CDN request: %v", err)
			return 0, nil
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			fails.failf("CDN GET %s: %v", url, err)
			return 0, nil
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}
	if code, body := get(fmt.Sprintf("%s/v1/traces/%s?budget=%d", gwURL, sha, insts)); code != http.StatusOK {
		fails.failf("gateway trace GET = %d", code)
	} else if err := tracestore.Validate(body, w, insts); err != nil {
		fails.failf("gateway-served trace fails validation: %v", err)
	}
	if code, _ := get(gwURL + "/v1/traces/deadbeefdeadbeef?budget=1000"); code != http.StatusNotFound {
		fails.failf("unknown program via gateway = %d, want 404", code)
	}
	if code, _ := get(fmt.Sprintf("%s/v1/traces/%s?budget=never", gwURL, sha)); code != http.StatusBadRequest {
		fails.failf("malformed budget via gateway = %d, want 400", code)
	}
}

// checkGatewayMetrics scrapes the gateway's aggregated exposition and
// cross-checks it against the nodes' live stores.
func checkGatewayMetrics(ctx context.Context, gwURL string, nodes []*clusterNode, fails *checkFailure) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, gwURL+"/metrics", nil)
	if err != nil {
		fails.failf("build gateway /metrics request: %v", err)
		return
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fails.failf("gateway /metrics: %v", err)
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.ExpoContentType {
		fails.failf("gateway /metrics Content-Type %q, want %q", ct, obs.ExpoContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fails.failf("read gateway /metrics: %v", err)
		return
	}
	samples, err := obs.ParseExposition(body)
	if err != nil {
		fails.failf("gateway /metrics is not a valid exposition: %v", err)
		return
	}
	if got := samples["tcgate_nodes_healthy"]; got != float64(len(nodes)) {
		fails.failf("tcgate_nodes_healthy = %v after recovery, want %d", got, len(nodes))
	}
	for name, why := range map[string]string{
		"tcgate_demotions_total":  "the kill was never noticed",
		"tcgate_promotions_total": "the restart was never promoted",
		"tcgate_rehashes_total":   "no request ever re-hashed off a dead owner",
	} {
		if samples[name] == 0 {
			fails.failf("%s is zero — %s", name, why)
		}
	}
	for _, n := range nodes {
		sample := fmt.Sprintf("tcgate_node_tracestore_total{node=%q,outcome=%q}", n.name, "capture")
		got, ok := samples[sample]
		if !ok {
			fails.failf("gateway exposition is missing %s", sample)
			continue
		}
		if want := float64(n.store.Stats().Captures); got != want {
			fails.failf("%s = %v, node's own store reports %v", sample, got, want)
		}
	}
	if samples[`tcgate_jobs_proxied_total{outcome="ok"}`] == 0 {
		fails.failf("gateway proxied-jobs counter is zero after the storm")
	}
}
