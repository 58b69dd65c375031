package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"tcsim"
	"tcsim/client"
	"tcsim/internal/server"
	"tcsim/internal/tracestore"
)

// stormWorkloads mix control flow: pointer-chasing, integer-heavy and
// branchy benchmarks.
var stormWorkloads = []string{"m88ksim", "compress", "li", "go", "ijpeg", "gcc"}

// stormConfigs are the machine variants crossed with stormWorkloads; the
// workload and budget are filled per case.
var stormConfigs = []client.JobRequest{
	{},                                   // baseline
	{Preset: client.PresetAll},           // paper's combined pipeline
	{Passes: []string{"moves", "place"}}, // explicit partial pipeline
	{Preset: client.PresetAll, FillLatency: 5}, // latency sweep point
}

const (
	stormJobs  = 2000   // jobs across the three waves
	stormInsts = 20_000 // retired-instruction budget per job
)

// TestClusterKillRestartStorm drives a 3-node cluster the way a deployed
// one runs: every node persists its traces and fetches capture misses
// through the gateway's trace CDN. Thousands of mixed sync/async jobs
// must each be bit-for-bit a direct run's while the owner of a
// workload's traces is killed mid-load and later restarted on the same
// address with a fresh store over the same directory. The references
// are live-emulated runs, so every replayed, disk-loaded or
// CDN-fetched stream is checked against live emulation. The cluster's
// economics must hold across the crash: each workload is emulated once
// cluster-wide, plus once more for each trace whose only copy died with
// the victim; the restarted node emulates nothing; the gateway counts
// the demotion, the re-hashes and the promotion; and its per-node
// capture rows agree with the nodes' own stores.
func TestClusterKillRestartStorm(t *testing.T) {
	g, gts, nodes := testClusterWith(t, 3, clusterOpts{queue: 4096, persist: true})
	ctx := context.Background()
	gcl := client.New(gts.URL)

	type stormCase struct {
		req  client.JobRequest
		key  string
		want tcsim.Result
	}
	var unique []stormCase
	for _, w := range stormWorkloads {
		for _, cfg := range stormConfigs {
			req := cfg
			req.Workload, req.Insts = w, stormInsts
			dcfg, key, err := server.ResolveConfig(&req, server.Limits{})
			if err != nil {
				t.Fatalf("resolve %s %+v: %v", w, cfg, err)
			}
			prog, err := tcsim.BuildWorkload(w)
			if err != nil {
				t.Fatal(err)
			}
			want, err := tcsim.RunContext(ctx, dcfg, prog)
			if err != nil {
				t.Fatalf("live run of %s: %v", w, err)
			}
			unique = append(unique, stormCase{req: req, key: key, want: want})
		}
	}

	// warm submits one baseline job per workload, one at a time, so no
	// two nodes can race into emulating the same trace.
	warm := func(label string) {
		for _, w := range stormWorkloads {
			job, err := gcl.SubmitJob(ctx, &client.JobRequest{Workload: w, Insts: stormInsts})
			if err != nil {
				t.Fatalf("%s job %s: %v", label, w, err)
			}
			if job.State != client.StateDone {
				t.Fatalf("%s job %s finished %q", label, w, job.State)
			}
		}
	}
	// wave fires n jobs drawn from unique, 16 at a time and every third
	// async, and checks each against its direct run.
	rng := rand.New(rand.NewSource(2))
	wave := func(label string, n int) {
		var wg sync.WaitGroup
		sem := make(chan struct{}, 16)
		for i := 0; i < n; i++ {
			tc := unique[rng.Intn(len(unique))]
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
					t.Errorf("%s job %d (%s): %v", label, i, tc.req.Workload, err)
					return
				}
				if job.State != client.StateDone || job.Result == nil {
					t.Errorf("%s job %d (%s): state %q, error %q", label, i, tc.req.Workload, job.State, job.Error)
					return
				}
				if job.Key != tc.key {
					t.Errorf("%s job %d: server key %s != client key %s", label, i, job.Key, tc.key)
				}
				if !reflect.DeepEqual(*job.Result, tc.want) {
					t.Errorf("%s job %d (%s, key %s): cluster result differs from direct run (IPC %v vs %v)",
						label, i, tc.req.Workload, tc.key, job.Result.IPC, tc.want.IPC)
				}
			}()
		}
		wg.Wait()
	}

	warm("warm")
	wave("full-cluster", stormJobs/2)

	// Kill the owner of the first workload's baseline trace: it has
	// emulated at least one capture. Its counters die with it, so keep a
	// snapshot for the cluster-wide accounting.
	victim := g.ring.Owner(unique[0].key) // stormConfigs[0] is the baseline
	victimSnap := nodes[victim].store.Stats()
	victimAddr := nodes[victim].ts.Listener.Addr().String()
	nodes[victim].kill()

	// A workload whose every config hashed to the victim had its only
	// trace there: the surviving owner legitimately emulates it once more.
	lost := 0
	for _, w := range stormWorkloads {
		held := false
		for i, n := range nodes {
			if i != victim {
				if _, err := n.store.ExportBytes(w, stormInsts, false); err == nil {
					held = true
				}
			}
		}
		if !held {
			lost++
		}
	}
	warm("re-warm")
	wave("degraded", stormJobs/4)

	status, err := gcl.Cluster(ctx)
	if err != nil {
		t.Fatalf("GET /v1/cluster: %v", err)
	}
	if status.Healthy != len(nodes)-1 {
		t.Errorf("degraded cluster reports %d healthy nodes, want %d", status.Healthy, len(nodes)-1)
	}
	if vs := status.Nodes[victim]; vs.Healthy || vs.Demotions == 0 {
		t.Errorf("killed node %s status = %+v, want demoted", nodes[victim].name, vs)
	}

	// Restart with a fresh store over the same trace directory: its
	// captures must come from disk or the CDN, never from emulation.
	nodes[victim].start(t, victimAddr)
	promoted := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if s, err := gcl.Cluster(ctx); err == nil && s.Healthy == len(nodes) {
			promoted = true
			break
		}
	}
	if !promoted {
		t.Fatalf("restarted node %s was not promoted back within 10s", nodes[victim].name)
	}
	wave("restored", stormJobs/4)

	// A bad request fails fast at the gateway with the node vocabulary.
	var apiErr *client.APIError
	if _, err := gcl.SubmitJob(ctx, &client.JobRequest{Workload: "no-such-workload"}); !errors.As(err, &apiErr) ||
		apiErr.Status != http.StatusBadRequest || apiErr.Code != "invalid_argument" {
		t.Errorf("invalid workload via gateway = %v, want 400 invalid_argument", err)
	}

	// A sampled job routes like any other and matches a direct run. Warm
	// mode only: a seek job above the full-capture limit would emulate a
	// checkpoint log and break the capture accounting below.
	sreq := client.JobRequest{Workload: stormWorkloads[0], Insts: stormInsts,
		SamplePeriod: stormInsts / 4, SampleWindow: stormInsts / 20, SampleWarmup: stormInsts / 20}
	sdcfg, skey, err := server.ResolveConfig(&sreq, server.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	swant, err := tcsim.RunWorkloadContextIn(ctx, sdcfg, sreq.Workload, tcsim.NewTraceStore(0))
	if err != nil {
		t.Fatal(err)
	}
	if job, err := gcl.SubmitJob(ctx, &sreq); err != nil {
		t.Errorf("sampled job via gateway: %v", err)
	} else if job.Key != skey || job.Result == nil || !reflect.DeepEqual(*job.Result, swant) {
		t.Errorf("sampled job via gateway (key %s, want %s): result differs from direct run", job.Key, skey)
	} else if job.Result.Sampled == nil || job.Result.Sampled.Windows == 0 {
		t.Errorf("sampled job via gateway carries no sampled windows")
	}

	// A malformed CDN budget is the caller's error, not a miss.
	sha, _ := tracestore.WorkloadHash(stormWorkloads[1])
	resp, err := http.Get(fmt.Sprintf("%s/v1/traces/%s?budget=never", gts.URL, sha))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed budget via gateway = %d, want 400", resp.StatusCode)
	}

	emulated := func(st tcsim.TraceStoreStats) uint64 { return st.Captures - st.DiskLoads - st.CDNFetches }
	total := emulated(victimSnap)
	fetches, rejects := victimSnap.CDNFetches, victimSnap.CDNRejects
	for i, n := range nodes {
		st := n.store.Stats()
		total += emulated(st)
		fetches += st.CDNFetches
		rejects += st.CDNRejects
		if i == victim && emulated(st) != 0 {
			t.Errorf("restarted node emulated %d captures; disk and CDN should have covered all of them", emulated(st))
		}
	}
	if want := uint64(len(stormWorkloads) + lost); total != want {
		t.Errorf("cluster emulated %d captures, want exactly %d (one per workload, +%d whose only copy died with the victim)",
			total, want, lost)
	}
	if fetches == 0 {
		t.Error("no node fetched a trace through the CDN: the cluster is not sharing captures")
	}
	if rejects != 0 {
		t.Errorf("CDN validation rejected %d bodies from trusted peers", rejects)
	}

	samples, err := gcl.Metrics(ctx)
	if err != nil {
		t.Fatalf("gateway /metrics: %v", err)
	}
	if got := samples["tcgate_nodes_healthy"]; got != float64(len(nodes)) {
		t.Errorf("tcgate_nodes_healthy = %v after recovery, want %d", got, len(nodes))
	}
	for name, why := range map[string]string{
		"tcgate_demotions_total":                  "the kill was never noticed",
		"tcgate_promotions_total":                 "the restart was never promoted",
		"tcgate_rehashes_total":                   "no request re-hashed off the dead owner",
		`tcgate_jobs_proxied_total{outcome="ok"}`: "no job was proxied",
	} {
		if samples[name] == 0 {
			t.Errorf("%s is zero: %s", name, why)
		}
	}
	for _, n := range nodes {
		row := fmt.Sprintf("tcgate_node_tracestore_total{node=%q,outcome=%q}", n.name, "capture")
		if got, ok := samples[row]; !ok || got != float64(n.store.Stats().Captures) {
			t.Errorf("%s = %v (present %v), node's own store reports %d", row, got, ok, n.store.Stats().Captures)
		}
	}
}
