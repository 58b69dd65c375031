package workload

import (
	"testing"

	"tcsim/internal/core"
	"tcsim/internal/emu"
	"tcsim/internal/pipeline"
)

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 15 {
		t.Fatalf("registered %d workloads, want 15 (paper Table 1)", len(all))
	}
	want := []string{"compress", "gcc", "go", "ijpeg", "li", "m88ksim", "perl",
		"vortex", "chess", "gs", "pgp", "plot", "python", "ss", "tex"}
	for i, n := range want {
		if all[i].Name != n {
			t.Errorf("workload %d = %s, want %s (paper order)", i, all[i].Name, n)
		}
	}
	if _, ok := ByName("compress"); !ok {
		t.Error("ByName failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName should fail for unknown")
	}
	if len(SortedNames()) != 15 {
		t.Error("SortedNames wrong length")
	}
	for _, w := range all {
		if w.DefaultInsts == 0 || w.Description == "" || w.PaperName == "" {
			t.Errorf("workload %s metadata incomplete", w.Name)
		}
		if w.Table2[0] <= 0 || w.Table2[1] <= 0 || w.Table2[2] <= 0 {
			t.Errorf("workload %s missing paper Table 2 row", w.Name)
		}
	}
}

func TestWorkloadsExecuteFunctionally(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			p := w.Build()
			m := emu.New(p)
			for i := 0; i < 50_000; i++ {
				if _, err := m.Step(); err != nil {
					t.Fatalf("%s: %v at step %d", w.Name, err, i)
				}
				if m.Halted {
					t.Fatalf("%s halted after only %d instructions", w.Name, i)
				}
			}
		})
	}
}

func TestWorkloadsAreDeterministic(t *testing.T) {
	for _, w := range []string{"compress", "python", "chess"} {
		wl, _ := ByName(w)
		p1 := wl.Build()
		p2 := wl.Build()
		if len(p1.Text) != len(p2.Text) {
			t.Fatalf("%s: nondeterministic text length", w)
		}
		for i := range p1.Text {
			if p1.Text[i] != p2.Text[i] {
				t.Fatalf("%s: nondeterministic instruction %d", w, i)
			}
		}
	}
}

func TestWorkloadsRunOnPipeline(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			cfg := pipeline.DefaultConfig()
			cfg.MaxInsts = 20_000
			sim, err := pipeline.New(cfg, w.Build())
			if err != nil {
				t.Fatal(err)
			}
			st, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			if st.Retired != 20_000 {
				t.Errorf("retired %d", st.Retired)
			}
			if st.IPC <= 0.3 {
				t.Errorf("IPC %.3f suspiciously low", st.IPC)
			}
		})
	}
}

func TestWorkloadsRunOptimized(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			cfg := pipeline.DefaultConfig()
			cfg.MaxInsts = 20_000
			cfg.Fill.Passes = core.DefaultPassSpec()
			sim, err := pipeline.New(cfg, w.Build())
			if err != nil {
				t.Fatal(err)
			}
			st, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			if st.RetiredAnyOpt == 0 {
				t.Errorf("%s: no instructions optimized", w.Name)
			}
		})
	}
}
