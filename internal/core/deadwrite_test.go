package core

import (
	"testing"

	"tcsim/internal/asm"
	"tcsim/internal/isa"
)

func deadCfg() Config {
	cfg := DefaultConfig()
	cfg.Passes = []string{"deadwrite"}
	return cfg
}

func TestDeadWriteEliminated(t *testing.T) {
	segs, _, _, _ := runFill(t, deadCfg(), nil, 100, func(b *asm.Builder) {
		b.Addi(isa.T0, isa.S0, 1) // dead: overwritten below, never read
		b.Addi(isa.T0, isa.S1, 2) // killer
		b.Add(isa.T1, isa.T0, isa.T0)
		b.Halt()
	})
	s := segs[0]
	if !s.Insts[0].DeadBit {
		t.Fatal("dead write not eliminated")
	}
	if s.Insts[1].DeadBit || s.Insts[2].DeadBit {
		t.Error("live instructions marked dead")
	}
	if s.NDead != 1 {
		t.Errorf("NDead = %d", s.NDead)
	}
}

func TestDeadWriteConsumedNotEliminated(t *testing.T) {
	segs, _, _, _ := runFill(t, deadCfg(), nil, 100, func(b *asm.Builder) {
		b.Addi(isa.T0, isa.S0, 1)
		b.Add(isa.T1, isa.T0, isa.S1) // reads it first
		b.Addi(isa.T0, isa.S1, 2)     // then overwrites
		b.Halt()
	})
	if segs[0].Insts[0].DeadBit {
		t.Error("consumed write must not be eliminated")
	}
}

func TestDeadWriteCrossBlockNotEliminated(t *testing.T) {
	segs, _, _, _ := runFill(t, deadCfg(), nil, 100, func(b *asm.Builder) {
		b.Addi(isa.T0, isa.S0, 1)
		b.Beq(isa.R0, isa.R0, "next") // branch between write and killer
		b.Nop()
		b.Label("next")
		b.Addi(isa.T0, isa.S1, 2)
		b.Halt()
	})
	if segs[0].Insts[0].DeadBit {
		t.Error("cross-block elimination requires recovery support; must be skipped")
	}
}

func TestDeadWriteLiveOutNotEliminated(t *testing.T) {
	segs, _, _, _ := runFill(t, deadCfg(), nil, 100, func(b *asm.Builder) {
		b.Addi(isa.T0, isa.S0, 1) // live-out: never overwritten in segment
		b.Add(isa.T1, isa.S1, isa.S2)
		b.Halt()
	})
	if segs[0].Insts[0].DeadBit {
		t.Error("live-out write eliminated")
	}
}

func TestDeadWriteMemControlExcluded(t *testing.T) {
	segs, _, _, _ := runFill(t, deadCfg(), nil, 100, func(b *asm.Builder) {
		b.Lw(isa.T0, isa.GP, 0) // load result overwritten: still not eliminated
		b.Addi(isa.T0, isa.S1, 2)
		b.Halt()
	})
	if segs[0].Insts[0].DeadBit {
		t.Error("memory ops must not be eliminated")
	}
}

func TestDeadWriteDisabledByDefault(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Passes = DefaultPassSpec()
	for _, name := range cfg.Passes {
		if name == "deadwrite" {
			t.Fatal("deadwrite must not be part of DefaultPassSpec")
		}
	}
	segs, _, _, _ := runFill(t, cfg, nil, 100, func(b *asm.Builder) {
		b.Addi(isa.T0, isa.S0, 1)
		b.Addi(isa.T0, isa.S1, 2)
		b.Halt()
	})
	if segs[0].Insts[0].DeadBit {
		t.Error("eliminated while disabled")
	}
}

// The master equivalence property must hold with the extension on.
func TestDeadWriteSemanticEquivalence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Passes = []string{"reassoc", "moves", "scadd", "deadwrite", "place"}
	cfg.ReassocCrossBlockOnly = false
	checkSemanticEquivalence(t, cfg, mixedProgram, 20000)
}
