package core

import "tcsim/internal/trace"

// eliminateDeadWrites implements the extension the paper's conclusion
// sketches: "Dead code elimination, for example, could be used if the
// proper recovery mechanisms were in place to handle the cases in which
// the correct path of execution only follows a portion of the trace
// cache line."
//
// This implementation needs no new recovery mechanism because it only
// eliminates a write when its killer (the later overwrite of the same
// register) sits in the *same checkpoint block*: no branch separates the
// two, so any squash or partial-line activation removes both together
// and the architectural value can never be needed. Within that window
// the explicit dependency information makes the safety check exact: the
// instruction is dead iff no later instruction in the segment names it
// as a producer and its destination is not live-out.
//
// Eliminated instructions are marked rather than removed (the line's
// layout and the 4-bit placement fields are unchanged); like marked
// moves they complete at issue without visiting a functional unit.
// deadwritePass adapts eliminateDeadWrites to the pass-manager
// interface. A marked dead write is a rewritten instruction; no
// dependency edges are removed (nothing consumed the value — that is
// what made it dead).
type deadwritePass struct{ f *FillUnit }

func (p *deadwritePass) Name() string { return "deadwrite" }

func (p *deadwritePass) Run(seg *trace.Segment, ps *PassStats) {
	n0 := p.f.Stats.DeadWritesElim
	p.f.eliminateDeadWrites(seg)
	ps.Rewritten += p.f.Stats.DeadWritesElim - n0
}

func init() {
	RegisterPass(PassInfo{
		Name:  "deadwrite",
		Desc:  "eliminate same-block dead register writes (extension, paper §5)",
		Order: 40,
		// Not Default: the paper's combined figures exclude the
		// conclusion's proposed extension.
		New: func(f *FillUnit) OptPass { return &deadwritePass{f} },
	})
}

func (f *FillUnit) eliminateDeadWrites(seg *trace.Segment) {
	for i := range seg.Insts {
		si := &seg.Insts[i]
		if si.MoveBit || si.DeadBit || si.LiveOut {
			continue
		}
		op := si.Inst.Op
		if op.IsMem() || op.IsControl() || op.IsSerializing() {
			continue
		}
		d, ok := si.Inst.Dest()
		if !ok {
			continue
		}
		// Find a killer in the same checkpoint block. (A killer that later
		// turns out dead itself is fine: its own killer is in the same
		// block too, so the register is still overwritten before any
		// branch could divert execution.)
		killed := false
		for j := i + 1; j < len(seg.Insts); j++ {
			sj := &seg.Insts[j]
			if sj.Block != si.Block {
				break
			}
			if dj, ok := sj.Inst.Dest(); ok && dj == d {
				killed = true
				break
			}
		}
		if !killed {
			continue
		}
		// No later instruction may consume this instruction's value.
		consumed := false
		for j := i + 1; j < len(seg.Insts) && !consumed; j++ {
			sj := &seg.Insts[j]
			for k := 0; k < sj.NSrc; k++ {
				if sj.SrcProducer[k] == i {
					consumed = true
					break
				}
			}
		}
		if consumed {
			continue
		}
		si.DeadBit = true
		f.Stats.DeadWritesElim++
		seg.NDead++
	}
}
