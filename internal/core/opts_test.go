package core

import (
	"testing"

	"tcsim/internal/asm"
	"tcsim/internal/bpred"
	"tcsim/internal/isa"
	"tcsim/internal/trace"
)

func onlyPass(name string) Config {
	cfg := DefaultConfig()
	cfg.Passes = []string{name}
	return cfg
}

func TestMoveMarking(t *testing.T) {
	cfg := onlyPass("moves")
	segs, _, _, _ := runFill(t, cfg, nil, 100, func(b *asm.Builder) {
		b.Addi(isa.T0, isa.S0, 4) // 0: producer
		b.Move(isa.T1, isa.T0)    // 1: move (addi t1 <- t0+0)
		b.Addi(isa.T2, isa.T1, 8) // 2: consumer of the move
		b.Halt()
	})
	s := segs[0]
	if !s.Insts[1].MoveBit {
		t.Fatal("move not marked")
	}
	if s.Insts[0].MoveBit || s.Insts[2].MoveBit {
		t.Error("non-moves marked")
	}
	// Consumer must be rewired past the move to instruction 0.
	if s.Insts[2].SrcProducer[0] != 0 {
		t.Errorf("consumer producer = %d, want 0", s.Insts[2].SrcProducer[0])
	}
	if s.NMoves != 1 {
		t.Errorf("NMoves = %d", s.NMoves)
	}
}

func TestMoveLiveInRewiring(t *testing.T) {
	cfg := onlyPass("moves")
	segs, _, _, _ := runFill(t, cfg, nil, 100, func(b *asm.Builder) {
		b.Move(isa.T1, isa.S0)    // 0: move of live-in s0
		b.Addi(isa.T2, isa.T1, 8) // 1: consumer -> should become live-in s0
		b.Halt()
	})
	s := segs[0]
	c := &s.Insts[1]
	if c.SrcProducer[0] != trace.NoProducer || c.SrcReg[0] != isa.S0 {
		t.Errorf("consumer deps = prod %d reg %v", c.SrcProducer[0], c.SrcReg[0])
	}
}

func TestMoveLiveInRewiringUnsafe(t *testing.T) {
	cfg := onlyPass("moves")
	segs, _, _, _ := runFill(t, cfg, nil, 100, func(b *asm.Builder) {
		b.Move(isa.T1, isa.S0)    // 0: move of live-in s0
		b.Addi(isa.S0, isa.S0, 1) // 1: overwrites s0!
		b.Addi(isa.T2, isa.T1, 8) // 2: consumer must NOT rewire to live-in s0
		b.Halt()
	})
	s := segs[0]
	c := &s.Insts[2]
	if c.SrcProducer[0] != 0 {
		t.Errorf("unsafe rewiring applied: producer = %d", c.SrcProducer[0])
	}
}

func TestMoveChain(t *testing.T) {
	cfg := onlyPass("moves")
	segs, _, _, _ := runFill(t, cfg, nil, 100, func(b *asm.Builder) {
		b.Addi(isa.T0, isa.S0, 4)     // 0
		b.Move(isa.T1, isa.T0)        // 1
		b.Move(isa.T2, isa.T1)        // 2
		b.Add(isa.T3, isa.T2, isa.T2) // 3: both operands through the chain
		b.Halt()
	})
	s := segs[0]
	if !s.Insts[1].MoveBit || !s.Insts[2].MoveBit {
		t.Fatal("chain moves not marked")
	}
	for k := 0; k < 2; k++ {
		if s.Insts[3].SrcProducer[k] != 0 {
			t.Errorf("operand %d producer = %d, want 0", k, s.Insts[3].SrcProducer[k])
		}
	}
}

func TestMoveLoadZero(t *testing.T) {
	cfg := onlyPass("moves")
	segs, _, _, _ := runFill(t, cfg, nil, 100, func(b *asm.Builder) {
		b.Move(isa.T0, isa.R0)        // li 0 idiom
		b.Add(isa.T1, isa.T0, isa.S0) // consumer
		b.Halt()
	})
	s := segs[0]
	if !s.Insts[0].MoveBit {
		t.Fatal("zero move not marked")
	}
	c := &s.Insts[1]
	// Consumer's first operand (t0) should now be live-in R0: always ready.
	if c.SrcProducer[0] != trace.NoProducer || c.SrcReg[0] != isa.R0 {
		t.Errorf("consumer deps = %d %v", c.SrcProducer[0], c.SrcReg[0])
	}
}

func TestReassocBasicPair(t *testing.T) {
	cfg := onlyPass("reassoc")
	// The pair must cross a block boundary: put a branch between.
	segs, _, _, _ := runFill(t, cfg, nil, 100, func(b *asm.Builder) {
		b.Addi(isa.T0, isa.S0, 4) // 0: block 0
		b.Beq(isa.R0, isa.R0, "next")
		b.Nop()
		b.Label("next")
		b.Addi(isa.T1, isa.T0, 4) // block 1: reassociable
		b.Halt()
	})
	s := segs[0]
	c := &s.Insts[2]
	if !c.ReassocBit {
		t.Fatal("pair not reassociated")
	}
	if c.Inst.Imm != 8 || c.Inst.Rs != isa.S0 {
		t.Errorf("rewritten inst = %v", c.Inst)
	}
	if c.SrcProducer[0] != trace.NoProducer || c.SrcReg[0] != isa.S0 {
		t.Errorf("rewired deps = %d %v", c.SrcProducer[0], c.SrcReg[0])
	}
	// The original encoding must be preserved for verification.
	if c.Orig.Imm != 4 || c.Orig.Rs != isa.T0 {
		t.Errorf("orig clobbered: %v", c.Orig)
	}
}

func TestReassocSameBlockRejected(t *testing.T) {
	cfg := onlyPass("reassoc")
	segs, _, _, _ := runFill(t, cfg, nil, 100, func(b *asm.Builder) {
		b.Addi(isa.T0, isa.S0, 4)
		b.Addi(isa.T1, isa.T0, 4) // same block: compiler territory
		b.Halt()
	})
	if segs[0].Insts[1].ReassocBit {
		t.Error("same-block pair reassociated despite CrossBlockOnly")
	}

	cfg.ReassocCrossBlockOnly = false
	segs, _, _, _ = runFill(t, cfg, nil, 100, func(b *asm.Builder) {
		b.Addi(isa.T0, isa.S0, 4)
		b.Addi(isa.T1, isa.T0, 4)
		b.Halt()
	})
	if !segs[0].Insts[1].ReassocBit {
		t.Error("same-block pair should reassociate with the restriction lifted")
	}
}

func TestReassocChainCollapses(t *testing.T) {
	cfg := onlyPass("reassoc")
	cfg.ReassocCrossBlockOnly = false
	segs, _, _, _ := runFill(t, cfg, nil, 100, func(b *asm.Builder) {
		b.Addi(isa.T0, isa.S0, 4)
		b.Addi(isa.T1, isa.T0, 4)
		b.Addi(isa.T2, isa.T1, 4)
		b.Halt()
	})
	s := segs[0]
	last := &s.Insts[2]
	if !last.ReassocBit || last.Inst.Rs != isa.S0 || last.Inst.Imm != 12 {
		t.Errorf("chain tail = %v (bit %v)", last.Inst, last.ReassocBit)
	}
}

func TestReassocImmediateOverflowRejected(t *testing.T) {
	cfg := onlyPass("reassoc")
	cfg.ReassocCrossBlockOnly = false
	segs, _, _, _ := runFill(t, cfg, nil, 100, func(b *asm.Builder) {
		b.Addi(isa.T0, isa.S0, 30000)
		b.Addi(isa.T1, isa.T0, 30000) // sum 60000 does not fit 16 bits
		b.Halt()
	})
	if segs[0].Insts[1].ReassocBit {
		t.Error("overflowing pair reassociated")
	}
}

func TestReassocMemDisp(t *testing.T) {
	cfg := onlyPass("reassoc")
	cfg.ReassocCrossBlockOnly = false
	build := func(b *asm.Builder) {
		b.Addi(isa.T0, isa.GP, 16)
		b.Lw(isa.T1, isa.T0, 8)  // load base produced by addi
		b.Sw(isa.T1, isa.T0, 12) // store base too
		b.Halt()
	}
	segs, _, _, _ := runFill(t, cfg, nil, 100, build)
	s := segs[0]
	lw, sw := &s.Insts[1], &s.Insts[2]
	if !lw.ReassocBit || lw.Inst.Imm != 24 || lw.Inst.Rs != isa.GP {
		t.Errorf("lw folding = %v (bit %v)", lw.Inst, lw.ReassocBit)
	}
	if !sw.ReassocBit || sw.Inst.Imm != 28 || sw.Inst.Rs != isa.GP {
		t.Errorf("sw folding = %v (bit %v)", sw.Inst, sw.ReassocBit)
	}

	cfg.ReassocMemDisp = false
	segs, _, _, _ = runFill(t, cfg, nil, 100, build)
	if segs[0].Insts[1].ReassocBit {
		t.Error("mem-disp folding applied despite being disabled")
	}
}

func TestReassocLiveInSafety(t *testing.T) {
	cfg := onlyPass("reassoc")
	cfg.ReassocCrossBlockOnly = false
	segs, _, _, _ := runFill(t, cfg, nil, 100, func(b *asm.Builder) {
		b.Addi(isa.T0, isa.S0, 4) // 0: s0 live-in
		b.Addi(isa.S0, isa.S0, 1) // 1: s0 overwritten
		b.Addi(isa.T1, isa.T0, 4) // 2: folding to live-in s0 is unsafe
		b.Halt()
	})
	if segs[0].Insts[2].ReassocBit {
		t.Error("unsafe live-in folding applied")
	}
}

func TestReassocSkipsStoreData(t *testing.T) {
	cfg := onlyPass("reassoc")
	cfg.ReassocCrossBlockOnly = false
	segs, _, _, _ := runFill(t, cfg, nil, 100, func(b *asm.Builder) {
		b.Addi(isa.T0, isa.S0, 4)
		b.Sw(isa.T0, isa.GP, 0) // t0 is the *data*, not the base
		b.Halt()
	})
	if segs[0].Insts[1].ReassocBit {
		t.Error("store-data operand folded")
	}
}

func TestScaledAddBasic(t *testing.T) {
	cfg := onlyPass("scadd")
	segs, _, _, _ := runFill(t, cfg, nil, 100, func(b *asm.Builder) {
		b.Slli(isa.T0, isa.S0, 2)     // 0: short shift
		b.Add(isa.T1, isa.T0, isa.S1) // 1: dependent add
		b.Halt()
	})
	s := segs[0]
	c := &s.Insts[1]
	if c.ScaleAmt != 2 || c.ScaleSrc != isa.ScaleRs {
		t.Fatalf("scaled add = amt %d src %v", c.ScaleAmt, c.ScaleSrc)
	}
	// Dependence on the shift replaced by dependence on s0 (live-in).
	if c.SrcProducer[0] != trace.NoProducer || c.SrcReg[0] != isa.S0 {
		t.Errorf("rewired deps = %d %v", c.SrcProducer[0], c.SrcReg[0])
	}
	if s.NScaled != 1 {
		t.Errorf("NScaled = %d", s.NScaled)
	}
}

func TestScaledAddRtOperand(t *testing.T) {
	cfg := onlyPass("scadd")
	segs, _, _, _ := runFill(t, cfg, nil, 100, func(b *asm.Builder) {
		b.Slli(isa.T0, isa.S0, 3)
		b.Add(isa.T1, isa.S1, isa.T0) // shift feeds Rt
		b.Halt()
	})
	c := &segs[0].Insts[1]
	if c.ScaleAmt != 3 || c.ScaleSrc != isa.ScaleRt {
		t.Errorf("scaled = amt %d src %v", c.ScaleAmt, c.ScaleSrc)
	}
}

func TestScaledMemoryOps(t *testing.T) {
	cfg := onlyPass("scadd")
	segs, _, _, _ := runFill(t, cfg, nil, 100, func(b *asm.Builder) {
		b.Slli(isa.T0, isa.S0, 2)
		b.Lwx(isa.T1, isa.GP, isa.T0) // index scaled
		b.Slli(isa.T2, isa.S1, 2)
		b.Lw(isa.T3, isa.T2, 8) // displacement base scaled
		b.Slli(isa.T4, isa.S2, 1)
		b.Swx(isa.T3, isa.GP, isa.T4) // store index scaled
		b.Halt()
	})
	s := segs[0]
	if s.Insts[1].ScaleAmt != 2 || s.Insts[1].ScaleSrc != isa.ScaleRt {
		t.Errorf("lwx = %d %v", s.Insts[1].ScaleAmt, s.Insts[1].ScaleSrc)
	}
	if s.Insts[3].ScaleAmt != 2 || s.Insts[3].ScaleSrc != isa.ScaleRs {
		t.Errorf("lw = %d %v", s.Insts[3].ScaleAmt, s.Insts[3].ScaleSrc)
	}
	if s.Insts[5].ScaleAmt != 1 || s.Insts[5].ScaleSrc != isa.ScaleRt {
		t.Errorf("swx = %d %v", s.Insts[5].ScaleAmt, s.Insts[5].ScaleSrc)
	}
}

func TestScaledAddLongShiftRejected(t *testing.T) {
	cfg := onlyPass("scadd")
	segs, _, _, _ := runFill(t, cfg, nil, 100, func(b *asm.Builder) {
		b.Slli(isa.T0, isa.S0, 4) // too far
		b.Add(isa.T1, isa.T0, isa.S1)
		b.Halt()
	})
	if segs[0].Insts[1].ScaleAmt != 0 {
		t.Error("4-bit shift collapsed")
	}
}

func TestScaledAddOnlyOneOperand(t *testing.T) {
	cfg := onlyPass("scadd")
	segs, _, _, _ := runFill(t, cfg, nil, 100, func(b *asm.Builder) {
		b.Slli(isa.T0, isa.S0, 2)
		b.Slli(isa.T1, isa.S1, 2)
		b.Add(isa.T2, isa.T0, isa.T1) // both operands from shifts
		b.Halt()
	})
	c := &segs[0].Insts[2]
	if c.ScaleAmt == 0 {
		t.Fatal("no operand scaled")
	}
	// Exactly one operand rewired; the other still depends on its shift.
	rewired := 0
	for k := 0; k < c.NSrc; k++ {
		if c.SrcProducer[k] == trace.NoProducer {
			rewired++
		}
	}
	if rewired != 1 {
		t.Errorf("rewired %d operands, want 1", rewired)
	}
}

func TestScaledStoreDataNotScaled(t *testing.T) {
	cfg := onlyPass("scadd")
	segs, _, _, _ := runFill(t, cfg, nil, 100, func(b *asm.Builder) {
		b.Slli(isa.T0, isa.S0, 2)
		b.Sw(isa.T0, isa.GP, 0) // t0 is store *data*
		b.Halt()
	})
	if segs[0].Insts[1].ScaleAmt != 0 {
		t.Error("store data operand scaled")
	}
}

func TestPlacementCoClustersDependents(t *testing.T) {
	cfg := onlyPass("place")
	segs, _, _, _ := runFill(t, cfg, nil, 100, func(b *asm.Builder) {
		// Two independent dependence chains of length 4.
		b.Addi(isa.T0, isa.S0, 1)
		b.Addi(isa.S4, isa.S1, 1)
		b.Addi(isa.T1, isa.T0, 1)
		b.Addi(isa.S5, isa.S4, 1)
		b.Addi(isa.T2, isa.T1, 1)
		b.Addi(isa.S6, isa.S5, 1)
		b.Addi(isa.T3, isa.T2, 1)
		b.Addi(isa.S7, isa.S6, 1)
		b.Halt()
	})
	s := segs[0]
	cluster := func(i int) int { return s.Insts[i].Slot / 4 }
	// Chain A = insts 0,2,4,6; chain B = 1,3,5,7. Each chain must live
	// in a single cluster.
	for _, chain := range [][]int{{0, 2, 4, 6}, {1, 3, 5, 7}} {
		c0 := cluster(chain[0])
		for _, i := range chain[1:] {
			if cluster(i) != c0 {
				t.Errorf("chain member %d in cluster %d, head in %d", i, cluster(i), c0)
			}
		}
	}
	if s.NPlaced == 0 {
		t.Error("placement did not move anything")
	}
}

func TestPlacementIsPermutation(t *testing.T) {
	cfg := onlyPass("place")
	segs, _, _, _ := runFill(t, cfg, nil, 1000, straightLine(40))
	for _, s := range segs {
		seen := map[int]bool{}
		for i := range s.Insts {
			sl := s.Insts[i].Slot
			if sl < 0 || sl >= trace.MaxInsts || seen[sl] {
				t.Fatalf("bad slot assignment %d", sl)
			}
			seen[sl] = true
		}
	}
}

func TestPlacementIdentityWhenDisabled(t *testing.T) {
	segs, _, _, _ := runFill(t, DefaultConfig(), nil, 1000, straightLine(20))
	for _, s := range segs {
		for i := range s.Insts {
			if s.Insts[i].Slot != i {
				t.Fatalf("slot %d != index %d with placement off", s.Insts[i].Slot, i)
			}
		}
	}
}

func TestCombinedOptimizationsProduceValidSegments(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Passes = DefaultPassSpec()
	segs, _, _, _ := runFill(t, cfg, bias4(), 20000, mixedProgram)
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	var moves, reassoc, scaled int
	for _, s := range segs {
		moves += s.NMoves
		reassoc += s.NReassoc
		scaled += s.NScaled
	}
	if moves == 0 || scaled == 0 {
		t.Errorf("combined run found moves=%d reassoc=%d scaled=%d", moves, reassoc, scaled)
	}
}

// mixedProgram exercises every optimization: moves, cross-block addi
// pairs, shift+add pairs, and multiple dependence chains.
func mixedProgram(b *asm.Builder) {
	b.DataLabel("arr")
	for i := 0; i < 64; i++ {
		b.Word(int32(i * 3))
	}
	b.Li(isa.S0, 12) // loop count
	b.La(isa.S1, "arr")
	b.Label("loop")
	b.Move(isa.T0, isa.S0)        // move
	b.Slli(isa.T1, isa.T0, 2)     // shift
	b.Lwx(isa.T2, isa.S1, isa.T1) // scaled-add candidate
	b.Addi(isa.T3, isa.S1, 4)     // addi pair producer
	b.Bgtz(isa.T2, "skip")        // block boundary
	b.Nop()
	b.Label("skip")
	b.Addi(isa.T4, isa.T3, 4) // cross-block reassociable
	b.Lw(isa.T5, isa.T4, 0)
	b.Add(isa.T6, isa.T6, isa.T5)
	b.Addi(isa.S0, isa.S0, -1)
	b.Bgtz(isa.S0, "loop")
	b.Halt()
}

// bias4 returns a low-threshold bias table so promotion kicks in within
// short test runs.
func bias4() *bpred.BiasTable { return bpred.NewBiasTable(1024, 4) }
