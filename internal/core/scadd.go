package core

import (
	"tcsim/internal/isa"
	"tcsim/internal/trace"
)

// createScaledAdds implements the paper's scaled-add optimization (§4.4),
// an application of instruction collapsing: a short immediate left shift
// feeding a dependent add (or the address computation of a load/store)
//
//	SLLI rw <- rx << k        (k <= 3)
//	ADD  ry <- rw + rz
//
// is transformed so the consumer executes as a scaled operation,
//
//	SCALED_ADD ry <- (rx << k) + rz,
//
// in a single cycle: the consumer's dependence on the shift disappears
// (it now depends on rx directly), shortening the dependence chain. The
// shift itself still executes — its result may be live elsewhere. The
// shift distance is limited to 3 bits so the extra ALU path is ~2 gate
// delays, and the trace cache stores only 2 extra bits per instruction.
// scaddPass adapts createScaledAdds to the pass-manager interface.
// Each collapsed pair rewrites one consumer and removes one dependency
// edge (the consumer depends on the shift's source, not the shift).
type scaddPass struct{ f *FillUnit }

func (p *scaddPass) Name() string { return "scadd" }

func (p *scaddPass) Run(seg *trace.Segment, ps *PassStats) {
	n0 := p.f.Stats.ScaledCreated
	p.f.createScaledAdds(seg)
	d := p.f.Stats.ScaledCreated - n0
	ps.Rewritten += d
	ps.EdgesRemoved += d
}

func init() {
	RegisterPass(PassInfo{
		Name:    "scadd",
		Desc:    "collapse short shift + add/load/store pairs into scaled operations (paper §4.4)",
		Order:   30,
		Default: true,
		New:     func(f *FillUnit) OptPass { return &scaddPass{f} },
	})
}

func (f *FillUnit) createScaledAdds(seg *trace.Segment) {
	for j := range seg.Insts {
		cj := &seg.Insts[j]
		if cj.MoveBit || cj.ScaleAmt != 0 {
			continue
		}
		for k := 0; k < cj.NSrc; k++ {
			p := cj.SrcProducer[k]
			if p == trace.NoProducer {
				continue
			}
			prod := &seg.Insts[p]
			// The producer must be the original short shift; a shift
			// that was itself rewritten (reassociated) no longer
			// computes rx << k.
			if prod.MoveBit || prod.ReassocBit || !prod.Inst.IsShortShift() {
				continue
			}
			// The operand must still resolve through the shift's
			// destination register (not rewired by an earlier pass).
			shiftDest, _ := prod.Inst.Dest()
			if cj.SrcReg[k] != shiftDest {
				continue
			}
			// Which operand positions can be scaled depends on the
			// consumer's form; the stored-data operand of a store may not
			// be. Only one operand may be scaled (the ALU shifts a
			// single input).
			use := scalableField(cj.Inst.Op, cj.SrcField[k])
			if use == isa.NotScalable {
				continue
			}
			// The consumer now depends on the shift's source.
			np, nr := prod.SrcProducer[0], prod.SrcReg[0]
			if prod.NSrc == 0 {
				np, nr = trace.NoProducer, isa.R0
			}
			if np == trace.NoProducer && nr != isa.R0 && !liveInRewireSafe(seg, nr, j) {
				continue
			}
			cj.ScaleAmt = uint8(prod.Inst.Imm)
			cj.ScaleSrc = use
			rewireOperand(seg, j, k, np, nr)
			f.Stats.ScaledCreated++
			seg.NScaled++
			break
		}
	}
}

// scalableField classifies whether the operand occupying the given
// encoding field of op may absorb a pre-shift: the addends of a plain
// add, the base/index of memory address computations, and the base of
// displacement-mode accesses. Store data operands never scale.
func scalableField(op isa.Op, field isa.OperandField) isa.ScaledUse {
	switch op {
	case isa.ADD, isa.LWX:
		if field == isa.FieldRs {
			return isa.ScaleRs
		}
		if field == isa.FieldRt {
			return isa.ScaleRt
		}
	case isa.SWX:
		// Rd holds the stored data.
		if field == isa.FieldRs {
			return isa.ScaleRs
		}
		if field == isa.FieldRt {
			return isa.ScaleRt
		}
	case isa.ADDI, isa.LB, isa.LBU, isa.LH, isa.LHU, isa.LW,
		isa.SB, isa.SH, isa.SW:
		// Rt of the stores holds the data; only the Rs base scales.
		if field == isa.FieldRs {
			return isa.ScaleRs
		}
	}
	return isa.NotScalable
}
