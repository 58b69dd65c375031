package core

import (
	"tcsim/internal/trace"
)

// markMoves implements the paper's register-move optimization (§4.2).
//
// Instructions that merely copy one register to another (ADDI rx<-ry+0
// and friends — the TCR ISA, like MIPS and Alpha, has no architected
// move) are marked with a single bit. The rename logic executes a marked
// move by copying the source's mapping into the destination's RAT entry:
// the move never visits a reservation station or a functional unit.
//
// Because reading the source mapping before writing the destination
// mapping pipelines over two cycles, in-trace consumers of the move's
// result would see an extra cycle of delay; the fill unit therefore
// re-points such consumers directly at the move's own source (paper:
// "The fill unit handles this by modifying instructions within the trace
// cache line which are dependent upon the move operation to be dependent
// upon the source of the move instead.").
// movesPass adapts markMoves to the pass-manager interface. Every
// marked move is a rewritten instruction; every consumer re-pointed
// past a move is a removed dependency edge (the consumer no longer
// serializes behind the move's rename-stage copy).
type movesPass struct{ f *FillUnit }

func (p *movesPass) Name() string { return "moves" }

func (p *movesPass) Run(seg *trace.Segment, ps *PassStats) {
	m0, r0 := p.f.Stats.MovesMarked, p.f.Stats.RewiredByMoves
	p.f.markMoves(seg)
	ps.Rewritten += p.f.Stats.MovesMarked - m0
	ps.EdgesRemoved += p.f.Stats.RewiredByMoves - r0
}

func init() {
	RegisterPass(PassInfo{
		Name:    "moves",
		Desc:    "mark register moves for rename-stage execution (paper §4.2)",
		Order:   20,
		Default: true,
		New:     func(f *FillUnit) OptPass { return &movesPass{f} },
	})
}

func (f *FillUnit) markMoves(seg *trace.Segment) {
	for i := range seg.Insts {
		si := &seg.Insts[i]
		src, ok := si.Inst.MoveSource()
		if !ok {
			continue
		}
		si.MoveBit = true
		f.Stats.MovesMarked++
		seg.NMoves++

		// The move's value dependence: operand 0 when the source is a
		// real register, or nothing when it loads the constant zero.
		moveProd := trace.NoProducer
		moveReg := src
		if si.NSrc > 0 {
			moveProd = si.SrcProducer[0]
			moveReg = si.SrcReg[0]
		}

		// Re-point in-segment consumers of the move at its source.
		for j := i + 1; j < len(seg.Insts); j++ {
			cj := &seg.Insts[j]
			for k := 0; k < cj.NSrc; k++ {
				if cj.SrcProducer[k] != i {
					continue
				}
				if moveProd != trace.NoProducer {
					rewireOperand(seg, j, k, moveProd, moveReg)
					f.Stats.RewiredByMoves++
				} else if liveInRewireSafe(seg, moveReg, j) {
					rewireOperand(seg, j, k, trace.NoProducer, moveReg)
					f.Stats.RewiredByMoves++
				}
				// Otherwise the consumer keeps its dependence on the
				// move and pays the one-cycle rename pipelining delay —
				// rename still produces the correct value.
			}
		}
	}
}
