package server

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"tcsim/client"
	"tcsim/internal/tracestore"
)

// TestSamplingCacheKeys pins the cache-key contract for sampled jobs:
// an exact request's canonical JSON carries no sampling fields at all
// (so exact keys are bit-for-bit identical to pre-sampling releases),
// while any enabled plan splits the cache — a sampled estimate must
// never be served for an exact request or vice versa.
func TestSamplingCacheKeys(t *testing.T) {
	lim := Limits{DefaultTimeout: time.Minute}
	resolve := func(req client.JobRequest) jobSpec {
		spec, err := resolveSpec(&req, lim)
		if err != nil {
			t.Fatalf("resolveSpec(%+v): %v", req, err)
		}
		return spec
	}

	exact := resolve(client.JobRequest{Workload: "m88ksim"})
	b, err := json.Marshal(exact)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "sample") {
		t.Errorf("exact spec's canonical JSON mentions sampling (breaks key compatibility with pre-sampling releases): %s", b)
	}

	plan := client.JobRequest{Workload: "m88ksim",
		SamplePeriod: 2000, SampleWindow: 500, SampleWarmup: 500}
	sampled := resolve(plan)
	if exact.Key() == sampled.Key() {
		t.Error("exact and sampled requests hash identically")
	}
	seekPlan := plan
	seekPlan.SampleSeek = true
	if sampled.Key() == resolve(seekPlan).Key() {
		t.Error("warm-mode and seek-mode plans hash identically")
	}
	otherPeriod := plan
	otherPeriod.SamplePeriod = 2500
	if sampled.Key() == resolve(otherPeriod).Key() {
		t.Error("different sampling periods hash identically")
	}
	if sampled.Key() != resolve(plan).Key() {
		t.Error("identical sampled requests hash differently")
	}
}

// TestSamplingValidation maps malformed sampling plans to badRequest.
func TestSamplingValidation(t *testing.T) {
	lim := Limits{DefaultTimeout: time.Minute}
	bad := []client.JobRequest{
		// window/warmup/seek without a period
		{Workload: "m88ksim", SampleWindow: 500},
		{Workload: "m88ksim", SampleWarmup: 500},
		{Workload: "m88ksim", SampleSeek: true},
		// period enabled but no window
		{Workload: "m88ksim", SamplePeriod: 2000},
		// period must exceed warmup+window
		{Workload: "m88ksim", SamplePeriod: 1000, SampleWindow: 600, SampleWarmup: 500},
	}
	for i, req := range bad {
		if _, err := resolveSpec(&req, lim); err == nil {
			t.Errorf("case %d (%+v): no error", i, req)
		} else if _, ok := err.(*badRequest); !ok {
			t.Errorf("case %d: error %v is not a badRequest", i, err)
		}
	}
}

// TestEndToEndSampledJob runs sampled jobs through the real HTTP
// surface and requires bit-for-bit agreement with a direct run of the
// resolved config, plus sampled aggregates in the daemon metrics. The
// plans cover warm mode (fast-forward through the gaps), seek mode over
// a full trace, and seek mode above tracestore.FullCaptureLimit, where
// the store serves a checkpoint log and every seek must restore a
// capture-time checkpoint instead of re-emulating the gap.
func TestEndToEndSampledJob(t *testing.T) {
	defer func(old uint64) { tracestore.FullCaptureLimit = old }(tracestore.FullCaptureLimit)
	tracestore.FullCaptureLimit = 100_000 // make a 300k budget a "big" one cheaply

	_, cl := newTestServer(t, Config{})
	ctx := context.Background()

	for _, req := range []*client.JobRequest{
		{Workload: "m88ksim", Insts: 20_000, SamplePeriod: 5_000, SampleWindow: 1_000, SampleWarmup: 1_000},
		{Workload: "m88ksim", Insts: 20_000, SamplePeriod: 5_000, SampleWindow: 1_000, SampleWarmup: 1_000, SampleSeek: true},
		{Workload: "m88ksim", Insts: 300_000, SamplePeriod: 60_000, SampleWindow: 5_000, SampleWarmup: 5_000, SampleSeek: true},
	} {
		seek, big := req.SampleSeek, req.Insts > tracestore.FullCaptureLimit
		dcfg, key, err := ResolveConfig(req, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		expected := runDirect(t, dcfg, req.Workload)
		if expected.Sampled == nil || expected.Sampled.Windows == 0 {
			t.Fatalf("seek=%v big=%v: direct sampled run carries no windows: %+v", seek, big, expected.Sampled)
		}
		if seek && expected.Sampled.Seeks == 0 {
			t.Errorf("big=%v: seek mode performed no seeks: %+v", big, expected.Sampled)
		}
		if big && expected.Sampled.CheckpointRestores == 0 {
			t.Errorf("seek mode above the full-capture limit restored no checkpoints: %+v", expected.Sampled)
		}

		job, err := cl.SubmitJob(ctx, req)
		if err != nil {
			t.Fatalf("seek=%v big=%v SubmitJob: %v", seek, big, err)
		}
		if job.State != client.StateDone || job.Result == nil {
			t.Fatalf("seek=%v big=%v job state %q, error %q", seek, big, job.State, job.Error)
		}
		if job.Key != key {
			t.Errorf("seek=%v big=%v: server key %s != client-computed key %s", seek, big, job.Key, key)
		}
		if !reflect.DeepEqual(*job.Result, expected) {
			t.Errorf("seek=%v big=%v: served sampled result differs from direct run:\nserved %+v\ndirect %+v",
				seek, big, *job.Result, expected)
		}
	}

	met, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tcserved_sampling_windows_total",
		`tcserved_sampling_insts_total{mode="ffwd"}`, `tcserved_sampling_insts_total{mode="skipped"}`,
		"tcserved_sampling_seeks_total", "tcserved_sampling_checkpoint_restores_total"} {
		if met[name] == 0 {
			t.Errorf("sampling metrics not aggregated: %s = 0", name)
		}
	}
}
