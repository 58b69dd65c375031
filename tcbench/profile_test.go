package main

import (
	"context"
	"flag"
	"os"
	"testing"
	"time"

	"tcsim"
)

var update = flag.Bool("update", false, "regenerate testdata/cpu.pb.gz from a short profiled exact run")

const fixture = "testdata/cpu.pb.gz"

// TestProfileFixture folds a small CPU profile of an exact simulation
// checked into testdata.
func TestProfileFixture(t *testing.T) {
	if *update {
		writeFixture(t)
	}
	data, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	p, err := parseCPUProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) < 20 {
		t.Fatalf("fixture has only %d samples", len(p.samples))
	}
	f := p.fold()
	if err := f.checkStages(); err != nil {
		t.Fatal(err)
	}
	if f.step == 0 {
		t.Fatalf("no time under Step")
	}
	for st, v := range f.stages {
		if v > f.stages["exec.cycle"] {
			t.Errorf("stage %s (%d ns) outweighs Engine.Cycle (%d ns)", st, v, f.stages["exec.cycle"])
		}
	}
	if f.pkgAPI["core"] == 0 {
		t.Errorf("no time attributed to the fill unit (package core)")
	}
	if f.under(stepFunc) != f.step {
		t.Errorf("under(Step) = %d, fold says %d", f.under(stepFunc), f.step)
	}
}

func writeFixture(t *testing.T) {
	st := tcsim.NewTraceStore(0)
	if _, _, err := st.Get("gcc", exactInsts); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(fixture)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	start := time.Now()
	err = profileInto(f, func() error {
		for time.Since(start) < 2*time.Second {
			if _, err := tcsim.RunWorkloadContextIn(context.Background(), exactConfig(), "gcc", st); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFoldAttribution checks the fold's arithmetic on hand-built stacks.
func TestFoldAttribution(t *testing.T) {
	const (
		run     = pkgPrefix + "pipeline.(*Simulator).runDetailedUntil"
		cycle   = pkgPrefix + "exec.(*Engine).Cycle"
		resolve = pkgPrefix + "pipeline.(*Simulator).resolveBranches"
		access  = pkgPrefix + "cache.(*Cache).Access"
		probe   = pkgPrefix + "cache.(*Cache).probe"
		hierLd  = pkgPrefix + "cache.(*Hierarchy).Load"
	)
	p := &cpuProfile{samples: []profSample{
		{frames: []string{probe, access, hierLd, cycle, stepFunc, run}, nanos: 10},
		{frames: []string{cycle, stepFunc, run}, nanos: 20},
		{frames: []string{resolve, stepFunc, run}, nanos: 30},
		{frames: []string{stepFunc, run}, nanos: 1},
		{frames: []string{"runtime.mallocgc"}, nanos: 100},
	}}
	f := p.fold()
	if f.step != 61 {
		t.Fatalf("Step time %d, want 61", f.step)
	}
	if f.stages["exec.cycle"] != 30 || f.stages["pipeline.resolve"] != 30 {
		t.Fatalf("stages %v", f.stages)
	}
	// Only the entry from another package counts, once per sample.
	if f.pkgAPI["cache"] != 10 {
		t.Fatalf("cache API time %d, want 10", f.pkgAPI["cache"])
	}
	if err := f.checkStages(); err != nil {
		t.Fatalf("1 ns of 61 outside the stages should pass: %v", err)
	}
	p.samples[3].nanos = 20
	if err := p.fold().checkStages(); err == nil {
		t.Fatalf("20 ns of 80 outside the stages passed the check")
	}
}

func TestSplitFunc(t *testing.T) {
	for _, tc := range []struct{ in, pkg, ident string }{
		{pkgPrefix + "pipeline.(*Simulator).Step", "pipeline", "Step"},
		{pkgPrefix + "core.New", "core", "New"},
		{pkgPrefix + "core.(*FillUnit).Drain.func1", "core", "Drain"},
		{pkgPrefix + "cluster.tryNodes[...]", "cluster", "tryNodes"},
		{"runtime.mallocgc", "runtime", "mallocgc"},
	} {
		pkg, ident := splitFunc(tc.in)
		if pkg != tc.pkg || ident != tc.ident {
			t.Errorf("splitFunc(%q) = %q, %q; want %q, %q", tc.in, pkg, ident, tc.pkg, tc.ident)
		}
	}
}

func TestStageNamesMatchTable(t *testing.T) {
	want := map[string]bool{}
	for _, st := range stepStages {
		want[st] = true
	}
	if len(stageNames) != len(want) {
		t.Fatalf("stageNames has %d stages, stepStages %d", len(stageNames), len(want))
	}
	for _, st := range stageNames {
		if !want[st] {
			t.Errorf("stage %s is in stageNames but not in stepStages", st)
		}
		if _, ok := units[st+"_ns_per_inst"]; !ok {
			t.Errorf("stage %s has no metric", st)
		}
	}
}
