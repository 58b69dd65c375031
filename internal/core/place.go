package core

import "tcsim/internal/trace"

// placeInstructions implements the paper's instruction placement
// optimization (§4.5).
//
// The backend is clustered: results forward back-to-back within a
// cluster but pay an extra cycle crossing clusters. Because the trace
// line's dependencies are explicit, instruction order no longer conveys
// them, so the fill unit is free to steer instructions to issue slots
// (slot s feeds functional unit s, cluster s/FUsPerCluster). The paper's
// heuristic, verbatim: "For each issue slot the fill unit looks for an
// instruction that is dependent upon an instruction already placed in
// that cluster. If no dependent instruction is found, the first unplaced
// instruction is put in that issue slot."
//
// Marked moves never visit a functional unit, so they are skipped by the
// dependence search and placed last in whatever slots remain.
// placePass adapts placeInstructions to the pass-manager interface.
// Every instruction steered away from its fetch slot counts as
// rewritten (its 4-bit placement field changed).
type placePass struct{ f *FillUnit }

func (p *placePass) Name() string { return "place" }

func (p *placePass) Run(seg *trace.Segment, ps *PassStats) {
	n0 := p.f.Stats.PlacedNonIdent
	p.f.placeInstructions(seg)
	ps.Rewritten += p.f.Stats.PlacedNonIdent - n0
}

func init() {
	RegisterPass(PassInfo{
		Name:    "place",
		Desc:    "cluster-aware issue-slot assignment (paper §4.5)",
		Order:   90,
		Default: true,
		// Placement assigns slots from the final dependence structure;
		// any later rewrite would invalidate the assignment.
		Last: true,
		New:  func(f *FillUnit) OptPass { return &placePass{f} },
	})
}

func (f *FillUnit) placeInstructions(seg *trace.Segment) {
	n := len(seg.Insts)
	fus := f.cfg.Clusters * f.cfg.FUsPerCluster
	if fus > trace.MaxInsts {
		fus = trace.MaxInsts
	}

	slotCluster := func(slot int) int { return slot / f.cfg.FUsPerCluster }

	var assignedArr [trace.MaxInsts]int // n <= MaxInsts: stack scratch
	assigned := assignedArr[:n]         // inst -> slot, -1 = unplaced
	for i := range assigned {
		assigned[i] = -1
	}
	clusterOf := func(i int) int {
		if assigned[i] < 0 {
			return -1
		}
		return slotCluster(assigned[i])
	}
	// dependsOnCluster reports whether instruction i has an in-segment
	// producer already placed in cluster c.
	dependsOnCluster := func(i, c int) bool {
		si := &seg.Insts[i]
		for k := 0; k < si.NSrc; k++ {
			if p := si.SrcProducer[k]; p != trace.NoProducer && clusterOf(p) == c {
				return true
			}
		}
		return false
	}

	placed := 0
	for slot := 0; slot < fus && placed < n; slot++ {
		c := slotCluster(slot)
		pick := -1
		for i := 0; i < n; i++ {
			if assigned[i] >= 0 || seg.Insts[i].MoveBit || seg.Insts[i].DeadBit {
				continue
			}
			if dependsOnCluster(i, c) {
				pick = i
				break
			}
		}
		if pick < 0 {
			for i := 0; i < n; i++ {
				if assigned[i] < 0 && !seg.Insts[i].MoveBit && !seg.Insts[i].DeadBit {
					pick = i
					break
				}
			}
		}
		if pick < 0 {
			break // only moves and dead writes remain
		}
		assigned[pick] = slot
		placed++
	}
	// Moves (and any overflow if the machine is configured narrower than
	// the line) take the remaining slots in order.
	next := 0
	for i := 0; i < n; i++ {
		if assigned[i] >= 0 {
			continue
		}
		for ; ; next++ {
			taken := false
			for j := 0; j < n; j++ {
				if assigned[j] == next {
					taken = true
					break
				}
			}
			if !taken {
				break
			}
		}
		assigned[i] = next
	}
	for i := 0; i < n; i++ {
		seg.Insts[i].Slot = assigned[i]
		if assigned[i] != i {
			f.Stats.PlacedNonIdent++
			seg.NPlaced++
		}
	}
}
