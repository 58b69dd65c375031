package tcsim_test

import (
	"strings"
	"testing"

	"tcsim"
)

func TestWorkloadsList(t *testing.T) {
	ws := tcsim.Workloads()
	if len(ws) != 15 {
		t.Fatalf("workloads = %d, want 15", len(ws))
	}
	if ws[0] != "compress" || ws[14] != "tex" {
		t.Errorf("order wrong: %v", ws)
	}
}

func TestRunWorkload(t *testing.T) {
	cfg := tcsim.DefaultConfig()
	cfg.MaxInsts = 10_000
	st := tcsim.NewTraceStore(0)
	r, err := tcsim.RunWorkloadContextIn(t.Context(), cfg, "compress", st)
	if err != nil {
		t.Fatal(err)
	}
	if r.Retired != 10_000 || r.IPC <= 0 {
		t.Errorf("result = %+v", r)
	}
	if _, err := tcsim.RunWorkloadContextIn(t.Context(), cfg, "bogus", st); err == nil {
		t.Error("unknown workload should fail")
	}
}

func TestBuildWorkload(t *testing.T) {
	p, err := tcsim.BuildWorkload("m88ksim")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Listing(), "main:") {
		t.Error("listing missing main")
	}
	if _, err := tcsim.BuildWorkload("bogus"); err == nil {
		t.Error("unknown workload should fail")
	}
}

const apiTestProgram = `
main:
    li   t0, 64
    li   s0, 0
loop:
    move t1, t0
    add  s0, s0, t1
    addi t0, t0, -1
    bgtz t0, loop
    halt
`

func TestAssembleAndRun(t *testing.T) {
	p, err := tcsim.Assemble(apiTestProgram)
	if err != nil {
		t.Fatal(err)
	}
	r, err := tcsim.RunContext(t.Context(), tcsim.DefaultConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	// 2 + 64*4 + 1 instructions.
	if r.Retired != 2+64*4+1 {
		t.Errorf("retired = %d", r.Retired)
	}
	if _, err := tcsim.Assemble("bogus instruction"); err == nil {
		t.Error("bad source should fail")
	}
}

func TestOptionsChangeResults(t *testing.T) {
	p, err := tcsim.Assemble(apiTestProgram)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tcsim.DefaultConfig()
	cfg.Passes = tcsim.DefaultPassSpec()
	r, err := tcsim.RunContext(t.Context(), cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.MovesPct == 0 {
		t.Error("the move in the loop should be marked")
	}
	if r.OptimizedPct < r.MovesPct {
		t.Error("optimized% must cover moves%")
	}
}

func TestConfigKnobs(t *testing.T) {
	p, _ := tcsim.Assemble(apiTestProgram)
	cfg := tcsim.DefaultConfig()
	cfg.UseTraceCache = false
	r, err := tcsim.RunContext(t.Context(), cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.TraceCacheHitRate != 0 {
		t.Error("trace cache used despite being disabled")
	}
	cfg = tcsim.DefaultConfig()
	cfg.Clusters, cfg.FUsPerCluster = 1, 16
	if _, err := tcsim.RunContext(t.Context(), cfg, p); err != nil {
		t.Fatal(err)
	}
}

// TestGeometryBound: every backend geometry the experiments use is
// accepted, and an unbounded or negative one is an error from
// validation and from construction — never a panic, a huge allocation
// or a silent fall back to the default machine.
func TestGeometryBound(t *testing.T) {
	geom := func(c, f int) tcsim.Config {
		cfg := tcsim.DefaultConfig()
		cfg.Clusters, cfg.FUsPerCluster = c, f
		return cfg
	}
	for _, g := range [][2]int{{1, 1}, {2, 1}, {4, 4}, {8, 2}, {1, 16}, {0, 0}} {
		if err := geom(g[0], g[1]).Validate(); err != nil {
			t.Errorf("geometry %dx%d rejected: %v", g[0], g[1], err)
		}
	}
	for _, g := range [][2]int{{65, 1}, {1, 257}, {32, 16}, {1 << 31, 1 << 31}, {-3, -2}, {-1, 4}, {4, -1}} {
		if err := geom(g[0], g[1]).Validate(); err == nil {
			t.Errorf("geometry %dx%d accepted", g[0], g[1])
		}
	}
	p, err := tcsim.Assemble(apiTestProgram)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range [][2]int{{1 << 31, 1 << 31}, {-3, -2}} {
		cfg := geom(g[0], g[1])
		cfg.MaxInsts = 1000
		if _, err := tcsim.RunContext(t.Context(), cfg, p); err == nil {
			t.Errorf("RunContext accepted a %d x %d backend", g[0], g[1])
		}
		if _, err := tcsim.RunWorkloadContextIn(t.Context(), cfg, "m88ksim", tcsim.NewTraceStore(0)); err == nil {
			t.Errorf("RunWorkloadContextIn accepted a %d x %d backend", g[0], g[1])
		}
	}
}

// TestConfigValidate: Validate is the one check for every Config field
// with a legal range. Zero counts select defaults; negative counts, an
// oversized timeline ring, unknown passes or policies, illegal pass
// orders and malformed sampling plans are rejected — the timeline case
// before the recorder would try to allocate the ring.
func TestConfigValidate(t *testing.T) {
	ok := tcsim.DefaultConfig()
	ok.FillLatency, ok.TimelineEvents = 0, 0
	ok.Passes = tcsim.DefaultPassSpec()
	ok.TCPolicy = "belady"
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	ok.TimelineEvents = 1 << 22
	if err := ok.Validate(); err != nil {
		t.Fatalf("timeline ring at the cap rejected: %v", err)
	}
	for name, mut := range map[string]func(*tcsim.Config){
		"negative fill latency":    func(c *tcsim.Config) { c.FillLatency = -7 },
		"negative timeline events": func(c *tcsim.Config) { c.TimelineEvents = -1 },
		"timeline events over cap": func(c *tcsim.Config) { c.TimelineEvents = 1<<22 + 1 },
		"unknown pass":             func(c *tcsim.Config) { c.Passes = []string{"bogus"} },
		"illegal pass order":       func(c *tcsim.Config) { c.Passes = []string{"place", "moves"} },
		"unknown tc policy":        func(c *tcsim.Config) { c.TCPolicy = "nosuch" },
		"unknown ic policy":        func(c *tcsim.Config) { c.ICPolicy = "nosuch" },
		"bad sampling plan": func(c *tcsim.Config) {
			c.Sampling = tcsim.SamplingConfig{Period: 10_000, WindowLen: 8_000, Warmup: 4_000}
		},
	} {
		cfg := tcsim.DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	p, err := tcsim.Assemble(apiTestProgram)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tcsim.DefaultConfig()
	cfg.Timeline, cfg.TimelineEvents = true, 1<<50
	if _, err := tcsim.RunContext(t.Context(), cfg, p); err == nil {
		t.Error("RunContext accepted a 2^50-event timeline ring")
	}
}

// TestParseSamplingSpec covers the CLI sampling-plan grammar both
// binaries share.
func TestParseSamplingSpec(t *testing.T) {
	auto := tcsim.DefaultSamplingFor(10_000_000)
	cases := []struct {
		spec string
		want tcsim.SamplingConfig
		ok   bool
	}{
		{"", tcsim.SamplingConfig{}, true},
		{"off", tcsim.SamplingConfig{}, true},
		{"auto", auto, true},
		{"auto,seek", tcsim.SamplingConfig{Period: auto.Period, WindowLen: auto.WindowLen, Warmup: auto.Warmup, Seek: true}, true},
		{"100000,10000,5000", tcsim.SamplingConfig{Period: 100_000, WindowLen: 10_000, Warmup: 5_000}, true},
		{"100000,10000,5000,seek", tcsim.SamplingConfig{Period: 100_000, WindowLen: 10_000, Warmup: 5_000, Seek: true}, true},
		{" 100000 , 10000 , 5000 ", tcsim.SamplingConfig{Period: 100_000, WindowLen: 10_000, Warmup: 5_000}, true},
		{"100000,10000", tcsim.SamplingConfig{}, false},           // two numbers
		{"1,2,3,4", tcsim.SamplingConfig{}, false},                // four numbers
		{"auto,100000,10000,5000", tcsim.SamplingConfig{}, false}, // auto mixed with a triple
		{"seek", tcsim.SamplingConfig{}, false},                   // seek without a plan
		{"100000,bogus,5000", tcsim.SamplingConfig{}, false},      // not a number
		{"10000,8000,4000", tcsim.SamplingConfig{}, false},        // period <= warmup+window
		{"100000,0,5000", tcsim.SamplingConfig{}, false},          // zero window with enabled period
	}
	for _, tc := range cases {
		got, err := tcsim.ParseSamplingSpec(tc.spec, 10_000_000)
		if tc.ok != (err == nil) {
			t.Errorf("ParseSamplingSpec(%q): err = %v, want ok=%v", tc.spec, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseSamplingSpec(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
}
