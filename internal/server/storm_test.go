package server

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"tcsim"
	"tcsim/client"
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
	stormJobs  = 56     // submissions, every unique config at least twice
	stormInsts = 20_000 // retired-instruction budget per job
)

// TestJobStorm is the serving contract under load. A shuffled,
// duplicate-heavy storm of every workload x config comes from 8
// concurrent clients, every third job async and polled. Each result must
// be bit-for-bit a live-emulated direct run's under the client-computed
// key, so every replay the daemon serves is checked against live
// emulation, not against another replay. Then the
// replacement-policy surface is checked on the warm daemon, and /metrics
// must show what the storm implies: cache hits, at most one miss per
// unique config, and exactly one trace capture per workload with every
// repeat replayed and nothing evicted or touching disk.
func TestJobStorm(t *testing.T) {
	srv, cl := newTestServer(t, Config{Engine: EngineConfig{Queue: 2 * stormJobs}})
	ctx := context.Background()

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
			dcfg, key, err := ResolveConfig(&req, Limits{})
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
	storm := make([]stormCase, 0, stormJobs)
	for len(storm) < stormJobs {
		storm = append(storm, unique...)
	}
	storm = storm[:stormJobs]
	rand.New(rand.NewSource(1)).Shuffle(len(storm), func(i, j int) { storm[i], storm[j] = storm[j], storm[i] })

	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	for i, tc := range storm {
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
				t.Errorf("job %d (%s): %v", i, tc.req.Workload, err)
				return
			}
			if job.State != client.StateDone || job.Result == nil {
				t.Errorf("job %d (%s): state %q, error %q", i, tc.req.Workload, job.State, job.Error)
				return
			}
			if job.Key != tc.key {
				t.Errorf("job %d: server key %s != client-computed key %s", i, job.Key, tc.key)
			}
			if !reflect.DeepEqual(*job.Result, tc.want) {
				t.Errorf("job %d (%s, key %s): served result differs from direct run (IPC %v vs %v)",
					i, tc.req.Workload, tc.key, job.Result.IPC, tc.want.IPC)
			}
		}()
	}
	wg.Wait()

	// Policies: the served registry mirrors the in-process one.
	served, err := cl.Policies(ctx)
	if err != nil {
		t.Fatalf("GET /v1/policies: %v", err)
	}
	reg := tcsim.Policies()
	if len(served) != len(reg) {
		t.Errorf("GET /v1/policies returned %d policies, registry has %d", len(served), len(reg))
	} else {
		for i, p := range reg {
			if got := served[i]; got.Name != p.Name || got.Desc != p.Desc || got.Default != p.Default || got.Oracle != p.Oracle {
				t.Errorf("/v1/policies[%d] = %+v, registry has %+v", i, got, p)
			}
		}
	}
	// An explicit default policy hashes like an absent one, so the storm
	// already cached it.
	base := client.JobRequest{Workload: "m88ksim", Insts: stormInsts, Preset: client.PresetAll}
	_, defKey, err := ResolveConfig(&base, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	explicit := base
	explicit.TCPolicy = tcsim.DefaultPolicy()
	if job, err := cl.SubmitJob(ctx, &explicit); err != nil {
		t.Errorf("explicit-default policy job: %v", err)
	} else if job.Key != defKey || !job.Cached {
		t.Errorf("explicit policy %q: key %s cached %v, want the implicit default's key %s served from cache",
			explicit.TCPolicy, job.Key, job.Cached, defKey)
	}
	// Other policies split the key and match a direct run over the
	// daemon's own store (the oracle policy reads its captured stream).
	for _, pol := range []string{"srrip", "belady"} {
		req := base
		req.TCPolicy = pol
		dcfg, key, err := ResolveConfig(&req, Limits{})
		if err != nil {
			t.Fatalf("policy %s: resolve: %v", pol, err)
		}
		if key == defKey {
			t.Errorf("policy %s hashes to the default policy's key %s", pol, key)
		}
		want, err := tcsim.RunWorkloadContextIn(ctx, dcfg, req.Workload, srv.engine.Store())
		if err != nil {
			t.Fatalf("policy %s: direct run: %v", pol, err)
		}
		job, err := cl.SubmitJob(ctx, &req)
		if err != nil {
			t.Fatalf("policy %s: submit: %v", pol, err)
		}
		if job.Key != key {
			t.Errorf("policy %s: server key %s != client-computed key %s", pol, job.Key, key)
		}
		if job.Result == nil || !reflect.DeepEqual(*job.Result, want) {
			t.Errorf("policy %s (key %s): served result differs from direct run", pol, key)
		}
	}

	met, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	const policyKeys = 2 // srrip and belady
	if met[`tcserved_cache_requests_total{result="hit"}`] == 0 {
		t.Errorf("cache hit counter is zero after %d submissions of %d unique configs", stormJobs, len(unique))
	}
	if misses := met[`tcserved_cache_requests_total{result="miss"}`]; misses > float64(len(unique)+policyKeys) {
		t.Errorf("%v cache misses for %d unique configs: canonical hashing is splitting identical jobs",
			misses, len(unique)+policyKeys)
	}
	if done := met[`tcserved_jobs_total{event="completed"}`]; done < stormJobs {
		t.Errorf("jobs completed %v < submitted %d", done, stormJobs)
	}
	// Every simulation went through the daemon's capture-once store and
	// the live references bypassed it, so the daemon captured each
	// workload exactly once and replayed it for every other config.
	captures, replays := met["tcserved_tracestore_captures_total"], met["tcserved_tracestore_replay_hits_total"]
	if captures != float64(len(stormWorkloads)) {
		t.Errorf("trace store captured %v streams, want exactly %d (one per workload)", captures, len(stormWorkloads))
	}
	if replays < captures {
		t.Errorf("trace store replay hits %v < captures %v: repeat configs re-emulated", replays, captures)
	}
	if resident, evictions := met["tcserved_tracestore_resident_traces"], met["tcserved_tracestore_evictions_total"]; resident != float64(len(stormWorkloads)) || evictions != 0 {
		t.Errorf("trace store holds %v traces with %v evictions, want %d resident and none evicted",
			resident, evictions, len(stormWorkloads))
	}
	if secs := met["tcserved_tracestore_capture_seconds_total"]; secs <= 0 {
		t.Errorf("trace store reports %v captures but %v capture seconds", captures, secs)
	}
	for _, o := range []string{"load", "save", "reject"} {
		name := `tcserved_tracestore_disk_total{outcome="` + o + `"}`
		if v, ok := met[name]; !ok {
			t.Errorf("/metrics is missing sample %s", name)
		} else if v != 0 {
			t.Errorf("trace store shows %v disk %ss with no trace directory", v, o)
		}
	}
}
