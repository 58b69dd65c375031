package core

import (
	"strings"
	"testing"

	"tcsim/internal/asm"
	"tcsim/internal/emu"
	"tcsim/internal/isa"
	"tcsim/internal/trace"
)

// fillProgram assembles and executes a program, feeding every retired
// instruction through a fill unit built from cfg, and returns the fill
// unit (for stats inspection) along with the finished segments.
func fillProgram(t *testing.T, cfg Config, build func(*asm.Builder)) (*FillUnit, []*trace.Segment) {
	t.Helper()
	b := asm.NewBuilder()
	build(b)
	p, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(p)
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var segs []*trace.Segment
	cycle := uint64(0)
	for !m.Halted {
		rec, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		f.Collect(rec, cycle)
		cycle++
		segs = append(segs, f.Drain(cycle)...)
		if cycle > 100000 {
			t.Fatal("program did not halt")
		}
	}
	segs = append(segs, f.Flush(cycle)...)
	return f, segs
}

func TestRegistryLookup(t *testing.T) {
	for _, name := range []string{"reassoc", "moves", "scadd", "deadwrite", "place"} {
		pi, ok := LookupPass(name)
		if !ok {
			t.Fatalf("pass %q not registered", name)
		}
		if pi.Name != name || pi.New == nil || pi.Desc == "" {
			t.Errorf("pass %q registration incomplete: %+v", name, pi)
		}
	}
	if _, ok := LookupPass("nosuchpass"); ok {
		t.Error("LookupPass found an unregistered pass")
	}
}

func TestRegisteredPassesCanonicalOrder(t *testing.T) {
	names := PassNames()
	want := []string{"reassoc", "moves", "scadd", "deadwrite", "place"}
	// The built-ins must appear in canonical order (other tests may have
	// registered extra passes; check relative order only).
	last := -1
	for _, w := range want {
		idx := -1
		for i, n := range names {
			if n == w {
				idx = i
				break
			}
		}
		if idx < 0 {
			t.Fatalf("pass %q missing from %v", w, names)
		}
		if idx <= last {
			t.Fatalf("pass %q out of canonical order in %v", w, names)
		}
		last = idx
	}
}

// TestDefaultPassSpecIsPaperCombined pins the default spec to the
// paper's combined configuration: the four §4 passes in canonical order,
// with the dead-write extension excluded.
func TestDefaultPassSpecIsPaperCombined(t *testing.T) {
	if got := strings.Join(DefaultPassSpec(), ","); got != "reassoc,moves,scadd,place" {
		t.Errorf("default spec = %q, want reassoc,moves,scadd,place", got)
	}
}

func TestValidateSpecRejections(t *testing.T) {
	cases := []struct {
		name string
		spec []string
		want string // substring of the error
	}{
		{"unknown pass", []string{"moves", "frobnicate"}, "unknown pass"},
		{"duplicate", []string{"moves", "moves"}, "appears twice"},
		{"moves before reassoc", []string{"moves", "reassoc"}, `"reassoc" must run before "moves"`},
		{"place not last", []string{"place", "moves"}, `"place" must be the last pass`},
		{"place mid-spec", []string{"reassoc", "place", "moves"}, `"place" must be the last pass`},
	}
	for _, c := range cases {
		err := ValidateSpec(c.spec)
		if err == nil {
			t.Errorf("%s: spec %v accepted", c.name, c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
	for _, ok := range [][]string{
		nil,
		{},
		{"place"},
		{"reassoc", "moves"},
		{"deadwrite", "scadd", "reassoc", "moves", "place"},
	} {
		if err := ValidateSpec(ok); err != nil {
			t.Errorf("legal spec %v rejected: %v", ok, err)
		}
	}
}

func TestNewRejectsIllegalSpec(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Passes = []string{"moves", "reassoc"}
	if _, err := New(cfg, nil); err == nil {
		t.Error("New accepted an illegal pass order")
	}
	cfg.Passes = []string{"nosuchpass"}
	if _, err := New(cfg, nil); err == nil {
		t.Error("New accepted an unknown pass")
	}
}

func TestEmptySpecRunsNoPasses(t *testing.T) {
	f := MustNew(DefaultConfig(), nil)
	if got := f.PassSpec(); len(got) != 0 {
		t.Errorf("empty spec runs %v, want no passes", got)
	}
}

func TestExplicitSpecRunsAsWritten(t *testing.T) {
	for _, spec := range [][]string{
		{"moves"},
		{"moves", "deadwrite", "place"},
		{"scadd", "reassoc", "moves", "place"},
	} {
		cfg := DefaultConfig()
		cfg.Passes = spec
		f := MustNew(cfg, nil)
		if got, want := strings.Join(f.PassSpec(), ","), strings.Join(spec, ","); got != want {
			t.Errorf("pipeline spec = %q, want %q", got, want)
		}
	}
}

// TestPipelineCountersAccumulate drives a fill unit directly and checks
// the per-pass counters agree with the lumped Stats fields.
func TestPipelineCountersAccumulate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Passes = []string{"reassoc", "moves", "scadd", "deadwrite", "place"}
	cfg.CheckPasses = true
	f, segs := fillProgram(t, cfg, func(b *asm.Builder) {
		b.Addi(isa.T0, isa.S0, 4)
		b.Move(isa.T1, isa.T0)
		b.Addi(isa.T2, isa.T1, 8)
		b.Slli(isa.T3, isa.T2, 2)
		b.Add(isa.T4, isa.T3, isa.S1)
		b.Halt()
	})
	if len(segs) == 0 {
		t.Fatal("no segments built")
	}
	byName := map[string]PassStats{}
	for _, ps := range f.PassStats() {
		byName[ps.Name] = ps
	}
	if got := byName["moves"].Rewritten; got != f.Stats.MovesMarked {
		t.Errorf("moves rewritten %d != MovesMarked %d", got, f.Stats.MovesMarked)
	}
	if got := byName["moves"].EdgesRemoved; got != f.Stats.RewiredByMoves {
		t.Errorf("moves edges %d != RewiredByMoves %d", got, f.Stats.RewiredByMoves)
	}
	if got := byName["reassoc"].Rewritten; got != f.Stats.Reassociated {
		t.Errorf("reassoc rewritten %d != Reassociated %d", got, f.Stats.Reassociated)
	}
	if got := byName["scadd"].Rewritten; got != f.Stats.ScaledCreated {
		t.Errorf("scadd rewritten %d != ScaledCreated %d", got, f.Stats.ScaledCreated)
	}
	if got := byName["place"].Rewritten; got != f.Stats.PlacedNonIdent {
		t.Errorf("place rewritten %d != PlacedNonIdent %d", got, f.Stats.PlacedNonIdent)
	}
	if byName["place"].Segments == 0 {
		t.Error("place processed no segments")
	}
	if byName["scadd"].Rewritten == 0 {
		t.Error("program contains a scaled-add pair but none was created")
	}
	if byName["moves"].Rewritten == 0 {
		t.Error("program contains a move but none was marked")
	}
}

// countPass is a registered-from-a-test custom pass (the
// examples/custompass scenario).
type countPass struct{}

func (countPass) Name() string                   { return "test-count" }
func (countPass) Run(*trace.Segment, *PassStats) {}

func TestCustomPassRegistration(t *testing.T) {
	if _, already := LookupPass("test-count"); !already {
		RegisterPass(PassInfo{
			Name:  "test-count",
			Desc:  "test-only pass counting segments",
			Order: 50,
			New:   func(*FillUnit) OptPass { return countPass{} },
		})
	}
	cfg := DefaultConfig()
	cfg.Passes = []string{"reassoc", "test-count", "place"}
	f, _ := fillProgram(t, cfg, func(b *asm.Builder) {
		b.Addi(isa.T0, isa.T0, 1)
		b.Halt()
	})
	st := f.PassStats()
	if len(st) != 3 || st[1].Name != "test-count" {
		t.Fatalf("pass stats = %+v", st)
	}
	if st[1].Segments == 0 {
		t.Error("custom pass saw no segments")
	}
}
