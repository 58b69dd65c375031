package pipeline

import (
	"tcsim/internal/exec"
	"tcsim/internal/isa"
	"tcsim/internal/obs"
	"tcsim/internal/trace"
)

// fetchGroup is one cycle's worth of fetched instructions, waiting in
// the fetch/issue latch. The simulator owns a single group whose backing
// slices are reused across cycles: a group is either issued wholesale or
// dropped (squash) before the next fetch refills it.
type fetchGroup struct {
	uops       []*exec.UOp
	segInsts   []*trace.SegInst // parallel to uops; nil entries on the IC path
	fromTC     bool
	readyCycle uint64
	nextPC     uint32
	seg        *trace.Segment // source trace line (TC path), for aliasing checks

	guard         *exec.UOp // branch at the prediction/trace divergence
	firstInactive int       // index of the first inactive uop, or -1
}

// reset clears the group for refill, keeping the backing arrays.
func (g *fetchGroup) reset() {
	for i := range g.uops {
		g.uops[i] = nil
		g.segInsts[i] = nil
	}
	g.uops = g.uops[:0]
	g.segInsts = g.segInsts[:0]
	g.fromTC = false
	g.readyCycle = 0
	g.nextPC = 0
	g.seg = nil
	g.guard = nil
	g.firstInactive = -1
}

// fetchCycle runs the fetch stage: trace cache first, instruction cache
// path on a miss.
func (s *Simulator) fetchCycle(c uint64) {
	if s.fetchBuf != nil || s.serializeWait || s.fetchHold || c < s.fetchStallUntil {
		return
	}
	pc := s.fetchPC
	var g *fetchGroup
	if s.cfg.UseTraceCache {
		if seg := s.tc.Lookup(pc, s.pathMatch); seg != nil {
			g = s.buildTCGroup(seg, c)
		} else {
			s.fill.NoteMiss(pc)
			if s.rec != nil {
				s.rec.Emit(c, obs.KTCMiss, uint64(pc), 0, 0)
			}
		}
	}
	if g == nil {
		g = s.buildICGroup(pc, c)
	}
	if len(g.uops) == 0 {
		// Nothing fetchable (e.g. unmapped wrong-path target): wait for
		// the redirecting event.
		s.fetchStallUntil = c + 1
		return
	}
	if s.rec != nil {
		k := obs.KFetchIC
		var inact uint64
		if g.fromTC {
			k = obs.KFetchTC
			if g.firstInactive >= 0 {
				inact = uint64(len(g.uops) - g.firstInactive)
			}
		}
		s.rec.Emit(c, k, uint64(pc), uint64(len(g.uops)), inact)
	}
	s.stats.FetchedInsts += uint64(len(g.uops))
	if g.fromTC {
		s.stats.FetchedTC += uint64(len(g.uops))
	}
	for _, u := range g.uops {
		if u.Inactive {
			s.stats.InactiveIssued++
		}
		if u.Inst.Op.IsSerializing() {
			s.serializeWait = true
		}
	}
	s.fetchBuf = g
	s.fetchPC = g.nextPC
}

// pathMatch scores a trace segment for way selection: the number of
// instructions that would issue active under the current predictions
// (the longest prefix of the embedded path consistent with the
// multiple-branch predictor).
func (s *Simulator) pathMatch(seg *trace.Segment) int {
	n := 0
	for i := range seg.Insts {
		si := &seg.Insts[i]
		n++
		if i == len(seg.Insts)-1 || !si.Inst.Op.IsControl() {
			continue
		}
		embedded := seg.Insts[i+1].PC
		var predicted uint32
		switch {
		case si.IsCondBranch():
			taken := si.PromotedDir
			if !si.Promoted {
				taken, _ = s.pred.Peek(si.BrSlot, si.PC)
			}
			if taken {
				predicted = si.Orig.BranchTarget(si.PC)
			} else {
				predicted = si.PC + isa.InstBytes
			}
		case si.Inst.Op.IsUncondJump():
			predicted = si.Orig.BranchTarget(si.PC)
		default: // indirect call mid-line
			predicted, _ = s.pred.ITB.Predict(si.PC)
		}
		if predicted != embedded {
			break
		}
	}
	return n
}

// newUOp draws a uop from the pool and fills the common fields.
func (s *Simulator) newUOp(pc uint32, in, orig isa.Inst) *exec.UOp {
	s.nextSeq++
	u := s.uops.Get()
	u.Seq = s.nextSeq
	u.PC = pc
	u.Inst = in
	u.Orig = orig
	return u
}

// markOracle compares the fetched instruction against the correct-path
// oracle stream. tracking points at the cursor flag to use (the main
// fetch flag, or the tentative suffix flag during inactive issue).
func (s *Simulator) markOracle(u *exec.UOp, tracking *bool) {
	if !*tracking {
		return
	}
	rec, ok := s.oracle.At(s.oracleIdx)
	if !ok || rec.PC != u.PC {
		*tracking = false
		return
	}
	u.OnPath = true
	u.OracleIdx = s.oracleIdx
	u.ActualTaken = rec.Taken
	u.ActualNext = rec.NextPC
	if u.IsMem() {
		u.EA = rec.EA
	}
	s.oracleIdx++
}

// predictControl fills the prediction fields of a control-transfer uop.
// active indicates the uop is on the predicted path (fetch-directing);
// inactive-region control flow predicts along the trace's embedded path.
func (s *Simulator) predictControl(u *exec.UOp, si *trace.SegInst, seg *trace.Segment, idx int, active bool) {
	op := u.Inst.Op
	switch {
	case op.IsCondBranch():
		switch {
		case si != nil && si.Promoted:
			u.Promoted = true
			u.PredTaken = si.PromotedDir
		case active:
			slot := 0
			if si != nil {
				slot = si.BrSlot
			} else {
				slot = u.BrSlot
			}
			u.PredTaken, u.PredTok = s.pred.Peek(slot, u.PC)
			u.PredValid = true
			s.pred.PushOutcome(u.PredTaken)
		default:
			// Inactive region: the trace's embedded direction stands in
			// for a prediction; activation verifies it at execution.
			if tdir, ok := seg.TakenInTrace(idx); ok {
				u.PredTaken = tdir
			}
		}
		if u.PredTaken {
			u.PredNext = u.Orig.BranchTarget(u.PC)
		} else {
			u.PredNext = u.PC + isa.InstBytes
		}
	case op.IsUncondJump():
		u.PredNext = u.Orig.BranchTarget(u.PC)
		if op == isa.JAL && active {
			s.pred.RAS.Push(u.PC + isa.InstBytes)
		}
	case op.IsIndirect():
		if u.Orig.IsReturn() {
			if active {
				u.PredNext = s.pred.RAS.Pop()
			}
		} else {
			if tgt, ok := s.pred.ITB.Predict(u.PC); ok {
				u.PredNext = tgt
			}
			if op == isa.JALR && active {
				s.pred.RAS.Push(u.PC + isa.InstBytes)
			}
		}
	}
}

// needsCheckpoint reports whether the uop allocates checkpoint storage:
// non-promoted conditional branches and indirect transfers (returns
// included). Promoted branches recover via a retirement flush instead —
// that is where promotion's checkpoint saving comes from.
func needsCheckpoint(u *exec.UOp) bool {
	op := u.Inst.Op
	return (op.IsCondBranch() && !u.Promoted) || op.IsIndirect()
}

// buildTCGroup turns a trace cache line into a fetch group, splitting it
// into the active prefix (follows the predictions) and the inactive
// suffix past the first divergence (issued inactively when inactive
// issue is enabled, dropped otherwise).
func (s *Simulator) buildTCGroup(seg *trace.Segment, c uint64) *fetchGroup {
	g := &s.fg
	g.reset()
	g.fromTC = true
	g.readyCycle = c + 1
	g.seg = seg
	active := true
	suffixTracking := false
	for i := range seg.Insts {
		si := &seg.Insts[i]
		if !active && !s.cfg.InactiveIssue {
			break
		}
		u := s.newUOp(si.PC, si.Inst, si.Orig)
		u.FromTC = true
		u.MoveBit = si.MoveBit
		u.DeadBit = si.DeadBit
		u.ReassocBit = si.ReassocBit
		u.ScaleAmt = si.ScaleAmt
		u.FU = si.Slot % s.eng.FUs()
		u.BrSlot = si.BrSlot
		u.IsBranch = u.Inst.Op.IsControl()
		if !active {
			u.Inactive = true
			u.GuardSeq = g.guard.Seq
		}

		if active {
			s.markOracle(u, &s.fetchOnPath)
		} else {
			s.markOracle(u, &suffixTracking)
		}

		if u.IsBranch {
			s.predictControl(u, si, seg, i, active)
			u.CkRAS = s.pred.RAS.Snapshot()
			u.CkHist = s.pred.History()
		}

		g.uops = append(g.uops, u)
		g.segInsts = append(g.segInsts, si)

		// Divergence check: the predicted continuation leaves the
		// embedded path (a conditional branch predicted against the
		// trace direction, or an indirect call whose predicted callee
		// differs from the embedded one).
		if active && u.IsBranch && i < len(seg.Insts)-1 {
			if u.PredNext != seg.Insts[i+1].PC {
				active = false
				g.guard = u
				g.firstInactive = len(g.uops)
				// The inactive suffix follows the actual path exactly
				// when this on-path branch was mispredicted.
				suffixTracking = u.OnPath && u.ActualNext != u.PredNext
			}
		}
	}

	// Next fetch address follows the predicted path.
	if g.guard != nil {
		g.nextPC = g.guard.PredNext
		if g.guard.OnPath && g.guard.ActualTaken != g.guard.PredTaken {
			// Fetch now leaves the correct path (the trace's suffix
			// consumed the oracle cursor).
			s.fetchOnPath = false
		}
	} else {
		last := g.uops[len(g.uops)-1]
		switch {
		case last.Inst.Op.IsControl():
			g.nextPC = last.PredNext
		default:
			g.nextPC = last.PC + isa.InstBytes
		}
	}
	if g.firstInactive >= len(g.uops) {
		g.firstInactive = -1
		g.guard = nil
	}
	return g
}

// buildICGroup fetches up to FetchWidth sequential instructions through
// the instruction cache: the group ends at a predicted-taken branch, any
// indirect or serializing instruction, the third conditional branch, or
// an undecodable word.
func (s *Simulator) buildICGroup(pc uint32, c uint64) *fetchGroup {
	g := &s.fg
	g.reset()
	var extraLat int
	var lastLine uint32 = ^uint32(0)
	cond := 0
	next := pc

	for len(g.uops) < s.cfg.FetchWidth {
		line := next &^ uint32(s.hier.L1I.LineBytes()-1)
		if line != lastLine {
			if lat := s.hier.InstFetch(next); lat > extraLat {
				extraLat = lat
			}
			lastLine = line
		}
		in := s.decodeAt(next)
		u := s.newUOp(next, in, in)
		u.FU = len(g.uops) % s.eng.FUs()
		u.IsBranch = in.Op.IsControl()
		s.markOracle(u, &s.fetchOnPath)
		stop := false
		switch {
		case in.Op == isa.BAD:
			stop = true
		case in.Op.IsCondBranch():
			u.BrSlot = cond
			cond++
			s.predictControl(u, nil, nil, 0, true)
			u.CkRAS = s.pred.RAS.Snapshot()
			u.CkHist = s.pred.History()
			if u.PredTaken {
				next = u.PredNext
				stop = true
			} else {
				next += isa.InstBytes
				stop = cond >= trace.MaxCondBranch
			}
		case in.Op.IsUncondJump():
			s.predictControl(u, nil, nil, 0, true)
			next = u.PredNext
			stop = true
		case in.Op.IsIndirect():
			s.predictControl(u, nil, nil, 0, true)
			u.CkRAS = s.pred.RAS.Snapshot()
			u.CkHist = s.pred.History()
			next = u.PredNext
			stop = true
		case in.Op.IsSerializing():
			next += isa.InstBytes
			stop = true
		default:
			next += isa.InstBytes
		}
		g.uops = append(g.uops, u)
		g.segInsts = append(g.segInsts, nil)
		if stop {
			break
		}
	}
	g.nextPC = next
	g.readyCycle = c + 1 + uint64(extraLat)
	return g
}

// decodeAt returns the static instruction at pc, BAD outside the text
// image (wrong-path fetches into data or unmapped space).
func (s *Simulator) decodeAt(pc uint32) isa.Inst {
	if pc < s.textBase || pc >= s.textEnd || pc%isa.InstBytes != 0 {
		return isa.Inst{Op: isa.BAD}
	}
	return s.text[(pc-s.textBase)/isa.InstBytes]
}
