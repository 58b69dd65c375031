package core

import (
	"tcsim/internal/isa"
	"tcsim/internal/trace"
)

// reassociate implements the paper's reassociation optimization (§4.3).
//
// For a dependent pair of add-immediates
//
//	ADDI rx <- ry + a
//	ADDI rz <- rx + b
//
// the fill unit recomputes the consumer as ADDI rz <- ry + (a+b),
// removing one step from the dependency chain. With ReassocMemDisp the
// same folding applies to displacement-mode loads and stores whose base
// register is produced by an ADDI. The recombined immediate must still
// fit the 16-bit field (the instruction format stored in the trace cache
// is unchanged), and — matching the paper's methodology — pairs are only
// reassociated when they cross a basic-block boundary, since the
// compiler already reassociates within blocks.
// reassocPass adapts reassociate to the pass-manager interface. Each
// fold rewrites one consumer and removes one dependency-chain edge (the
// consumer no longer waits on the folded producer).
type reassocPass struct{ f *FillUnit }

func (p *reassocPass) Name() string { return "reassoc" }

func (p *reassocPass) Run(seg *trace.Segment, ps *PassStats) {
	n0 := p.f.Stats.Reassociated
	p.f.reassociate(seg)
	d := p.f.Stats.Reassociated - n0
	ps.Rewritten += d
	ps.EdgesRemoved += d
}

func init() {
	RegisterPass(PassInfo{
		Name:    "reassoc",
		Desc:    "combine immediates of dependent ADDIs across block boundaries (paper §4.3)",
		Order:   10,
		Default: true,
		// A marked move is no longer a pairable ADDI and its consumers
		// have been rewired past it, so reassociation must see the
		// segment before move marking does.
		Before: []string{"moves"},
		New:    func(f *FillUnit) OptPass { return &reassocPass{f} },
	})
}

func (f *FillUnit) reassociate(seg *trace.Segment) {
	for j := range seg.Insts {
		cj := &seg.Insts[j]
		if cj.MoveBit || cj.NSrc == 0 {
			continue
		}
		// The foldable operand is always the base register Rs, which is
		// source operand 0 whenever it exists; skip operands rewired by
		// an earlier pass (their architectural register no longer
		// matches the encoding).
		if cj.SrcReg[0] != cj.Inst.Rs || cj.Inst.Rs == isa.R0 {
			continue
		}
		use := cj.Inst.ReassocUse(cj.Inst.Rs)
		if use == isa.NotReassociable {
			continue
		}
		if use == isa.ReassocMemDisp && !f.cfg.ReassocMemDisp {
			continue
		}
		p := cj.SrcProducer[0]
		if p == trace.NoProducer {
			continue
		}
		prod := &seg.Insts[p]
		if prod.MoveBit || !prod.Inst.IsPairableImmediate() {
			continue
		}
		if f.cfg.ReassocCrossBlockOnly && prod.CFBlock == cj.CFBlock {
			continue
		}
		sum := int64(prod.Inst.Imm) + int64(cj.Inst.Imm)
		if sum < -32768 || sum > 32767 {
			f.Stats.ReassocRejected++
			continue
		}
		// The consumer inherits the producer's own base dependence. An
		// in-segment producer index is exact; a live-in register is
		// resolved architecturally by rename, which is only safe when
		// nothing earlier in the segment writes it.
		np, nr := prod.SrcProducer[0], prod.SrcReg[0]
		if prod.NSrc == 0 {
			// Producer is "li rx, a" (base R0): the consumer becomes a
			// constant-based instruction.
			np, nr = trace.NoProducer, isa.R0
		}
		if np == trace.NoProducer && nr != isa.R0 && !liveInRewireSafe(seg, nr, j) {
			f.Stats.ReassocRejected++
			continue
		}
		cj.Inst.Imm = int32(sum)
		cj.Inst.Rs = nr
		rewireOperand(seg, j, 0, np, nr)
		cj.ReassocBit = true
		f.Stats.Reassociated++
		seg.NReassoc++
	}
}
