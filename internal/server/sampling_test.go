package server

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"tcsim"
	"tcsim/client"
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

// TestEndToEndSampledJob runs warm-mode and seek-mode sampled jobs
// through the real HTTP surface and requires bit-for-bit agreement with
// a direct run of the resolved config, plus sampled aggregates in the
// daemon metrics.
func TestEndToEndSampledJob(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()

	for _, seek := range []bool{false, true} {
		req := &client.JobRequest{Workload: "m88ksim", Insts: testInsts,
			SamplePeriod: 2000, SampleWindow: 500, SampleWarmup: 500, SampleSeek: seek}
		dcfg, _, err := ResolveConfig(req, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		expected, err := tcsim.RunWorkload(dcfg, req.Workload)
		if err != nil {
			t.Fatal(err)
		}
		if expected.Sampled == nil || expected.Sampled.Windows == 0 {
			t.Fatalf("seek=%v: direct sampled run carries no windows: %+v", seek, expected.Sampled)
		}
		if seek && expected.Sampled.Seeks == 0 {
			t.Errorf("seek mode performed no seeks: %+v", expected.Sampled)
		}

		job, err := cl.SubmitJob(ctx, req)
		if err != nil {
			t.Fatalf("seek=%v SubmitJob: %v", seek, err)
		}
		if job.State != client.StateDone || job.Result == nil {
			t.Fatalf("seek=%v job state %q, error %q", seek, job.State, job.Error)
		}
		if !reflect.DeepEqual(*job.Result, expected) {
			t.Errorf("seek=%v: served sampled result differs from direct run:\nserved %+v\ndirect %+v",
				seek, *job.Result, expected)
		}
	}

	met, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tcserved_sampling_windows_total",
		`tcserved_sampling_insts_total{mode="ffwd"}`, "tcserved_sampling_seeks_total"} {
		if met[name] == 0 {
			t.Errorf("sampling metrics not aggregated: %s = 0", name)
		}
	}
}
