package workload

import (
	"testing"

	"tcsim/internal/core"
	"tcsim/internal/pipeline"
)

// TestTable2Shape locks in the qualitative structure of the paper's
// Table 2: for the signature benchmarks, the *dominant* transformation
// category must match the paper's. (Exact percentages are tracked in
// EXPERIMENTS.md; this test guards the shape against regressions.)
func TestTable2Shape(t *testing.T) {
	type row struct{ moves, reassoc, scaled float64 }
	results := make(map[string]row)
	for _, name := range []string{"m88ksim", "chess", "plot", "vortex", "go", "tex", "pgp"} {
		w, _ := ByName(name)
		cfg := pipeline.DefaultConfig()
		cfg.MaxInsts = 40_000
		cfg.Fill.Passes = core.DefaultPassSpec()
		sim, err := pipeline.New(cfg, w.Build())
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		ret := float64(st.Retired)
		results[name] = row{
			moves:   float64(st.RetiredMoves) / ret,
			reassoc: float64(st.RetiredReassoc) / ret,
			scaled:  float64(st.RetiredScaled) / ret,
		}
	}

	// Reassociation-dominant benchmarks (paper: m88ksim 12.9%, chess 10.4%).
	if r := results["m88ksim"]; r.reassoc < r.moves || r.reassoc < r.scaled {
		t.Errorf("m88ksim should be reassociation-dominant: %+v", r)
	}
	if r := results["chess"]; r.reassoc < 0.02 {
		t.Errorf("chess reassociation = %.3f, want >2%%", r.reassoc)
	}
	// Move-dominant benchmarks (paper: plot 11.3%, vortex 9.4%).
	for _, n := range []string{"plot", "vortex"} {
		if r := results[n]; r.moves < r.reassoc || r.moves < r.scaled {
			t.Errorf("%s should be move-dominant: %+v", n, r)
		}
	}
	// Scaled-add-dominant benchmarks (paper: go 9.6%, tex 5.2%).
	for _, n := range []string{"go", "tex"} {
		if r := results[n]; r.scaled < r.moves || r.scaled < r.reassoc {
			t.Errorf("%s should be scaled-add-dominant: %+v", n, r)
		}
	}
	// pgp barely scales or reassociates (paper: 1.0% / 4.0%) but moves a lot.
	if r := results["pgp"]; r.scaled > r.moves {
		t.Errorf("pgp should not be scaled-dominant: %+v", r)
	}
}

// TestWorkloadMispredictRatesReasonable: the noise machinery should give
// every branchy workload a non-degenerate mispredict rate — neither
// perfectly predictable nor hostile.
func TestWorkloadMispredictRatesReasonable(t *testing.T) {
	for _, name := range []string{"compress", "li", "python", "go"} {
		w, _ := ByName(name)
		cfg := pipeline.DefaultConfig()
		cfg.MaxInsts = 40_000
		sim, err := pipeline.New(cfg, w.Build())
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if st.MispredictRate <= 0.001 {
			t.Errorf("%s mispredict rate %.4f: suspiciously perfect", name, st.MispredictRate)
		}
		if st.MispredictRate > 0.4 {
			t.Errorf("%s mispredict rate %.4f: hostile, not realistic", name, st.MispredictRate)
		}
	}
}
