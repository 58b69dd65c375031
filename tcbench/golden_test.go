package main

import (
	"context"
	"strings"
	"testing"

	"tcsim"
)

// TestGoldenGateIsLive runs one exact-sweep program, checks it passes
// the golden record, then alters the record field by field and checks
// each alteration is rejected.
func TestGoldenGateIsLive(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	const program = "vortex"
	res, err := tcsim.RunWorkloadContextIn(context.Background(), exactConfig(), program, tcsim.NewTraceStore(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.checkExact(program, res); err != nil {
		t.Fatalf("unaltered golden record rejected the result: %v", err)
	}
	want := g.Exact[program]
	for name, alter := range map[string]func(r *exactGolden){
		"cycles":  func(r *exactGolden) { r.Cycles++ },
		"retired": func(r *exactGolden) { r.Retired-- },
		"ipc":     func(r *exactGolden) { r.IPC *= 1.0000001 },
		"output":  func(r *exactGolden) { r.OutputSHA = strings.Repeat("0", 16) },
		"passes": func(r *exactGolden) {
			r.Passes = append([]tcsim.PassStat(nil), r.Passes...)
			r.Passes[0].Rewritten++
		},
	} {
		rec := want
		alter(&rec)
		g.Exact[program] = rec
		if err := g.checkExact(program, res); err == nil {
			t.Errorf("golden record with altered %s accepted the result", name)
		}
	}
	g.Exact[program] = want

	// A sampled record: a result built from the golden values passes,
	// and one bound moved by one ulp fails.
	sk := sampledKey("gcc", true)
	sg := g.Sampled[sk]
	sres := tcsim.Result{Sampled: &tcsim.SampledStats{IPC: sg.IPC, CILow: sg.CILow, CIHigh: sg.CIHigh, Windows: sg.Windows}}
	if err := g.checkSampled(sk, sres); err != nil {
		t.Fatal(err)
	}
	sres.Sampled.CIHigh *= 1.0000001
	if err := g.checkSampled(sk, sres); err == nil {
		t.Errorf("altered sampled CI accepted")
	}

	// A service digest: the recorded digest of a result passes, any
	// other fails, and an unknown key fails.
	key := "test-key"
	g.Service[key] = resultDigest(&res)
	if err := g.checkService(key, &res); err != nil {
		t.Fatal(err)
	}
	g.Service[key] = strings.Repeat("f", 16)
	if err := g.checkService(key, &res); err == nil {
		t.Errorf("altered service digest accepted")
	}
	if err := g.checkService("no-such-key", &res); err == nil {
		t.Errorf("unknown job key accepted")
	}
}

func TestGoldenBudgetsMustMatch(t *testing.T) {
	if _, err := parseGolden([]byte(`{"exact_insts": 1, "sampled_insts": 5000000, "svc_insts": 20000}`)); err == nil {
		t.Fatalf("a golden record for another budget was accepted")
	}
}

// TestGoldenCoversCatalogue checks every request the service mix can
// send has a golden digest, keyed by its canonical job key.
func TestGoldenCoversCatalogue(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	cat := newCatalogue()
	n := len(cat.warm)
	for _, pool := range cat.pools {
		n += len(pool)
	}
	if len(g.Service) != n {
		t.Fatalf("golden record has %d service digests, the catalogue %d requests", len(g.Service), n)
	}
	if len(g.Exact) != len(tcsim.Workloads()) || len(g.Sampled) != 2*len(sampledPrograms) {
		t.Fatalf("golden record has %d exact and %d sampled entries", len(g.Exact), len(g.Sampled))
	}
}
