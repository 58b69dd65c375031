// Package core implements the paper's contribution: the trace-cache fill
// unit and its four dynamic trace optimizations.
//
// When a timeline recorder (internal/obs) is attached via
// Config.Recorder, the fill unit emits segment-finalization and per-pass
// rewrite events; a nil recorder costs one pointer compare per segment.
//
// The fill unit collects instructions as they retire, packs them into
// multi-block trace segments (trace packing, branch promotion), marks
// explicit dependency information, and — because it sits off the critical
// path — runs optimization passes over each finished segment before it is
// written into the trace cache:
//
//  1. register-move marking (moves execute inside rename),
//  2. reassociation of dependent immediate instructions across basic
//     block boundaries,
//  3. collapsing short shift + add/load/store pairs into scaled
//     operations, and
//  4. cluster-aware instruction placement to reduce operand bypass
//     delays.
package core

import (
	"tcsim/internal/obs"
	"tcsim/internal/trace"
)

// Config parameterizes the fill unit.
type Config struct {
	// Passes selects and orders the optimization pipeline by registered
	// pass name (see RegisterPass; built-ins: reassoc, moves, scadd,
	// deadwrite, place). Empty is the baseline: no pass runs.
	// DefaultPassSpec is the paper's combined configuration. Illegal
	// orders are rejected by New, never silently reordered.
	Passes []string

	// TimePasses records per-pass wall time in the pipeline's PassStats.
	// Off by default: the two clock reads per pass per segment are
	// measurable on the fill path.
	TimePasses bool

	// CheckPasses validates the segment's structural invariants after
	// every pass and panics, naming the offending pass, on a violation.
	// A test/debug configuration.
	CheckPasses bool

	// FillLatency is the number of cycles a finished segment spends in
	// the fill pipeline before it becomes visible in the trace cache.
	// The paper evaluates 1, 5 and 10 and finds the impact negligible.
	FillLatency int

	// TracePacking packs instructions across natural block boundaries
	// until the line is full (paper baseline: on). When off, segments
	// end at the block boundary that would otherwise be split.
	TracePacking bool

	// FillOnMiss aligns segment construction with the fetch stream: the
	// fill unit sits idle until the retire stream reaches an address the
	// front end reported as a trace-cache miss (NoteMiss), then captures
	// one segment. Without it the fill unit collects continuously, which
	// phase-locks segment starts to retirement counts and can build lines
	// the fetch unit never probes (a classic trace-cache pitfall). The
	// pipeline always runs with this on; continuous mode remains for
	// unit-level analysis of the optimization passes.
	FillOnMiss bool

	// Promotion embeds static predictions for strongly biased branches
	// (paper baseline: on). Promoted branches do not consume one of the
	// three conditional-branch slots.
	Promotion bool

	// ReassocCrossBlockOnly restricts reassociation to pairs that span a
	// basic-block boundary, as the paper does to isolate the fill unit's
	// contribution from the compiler's. Default on.
	ReassocCrossBlockOnly bool

	// ReassocMemDisp additionally folds ADDI immediates into the
	// displacement of dependent loads/stores. Default on.
	ReassocMemDisp bool

	// Clusters and FUsPerCluster describe the backend for the placement
	// heuristic. Paper: 4 clusters of 4 universal function units.
	Clusters      int
	FUsPerCluster int

	// Recorder, when non-nil, receives timeline events: one KSegFinal
	// per finalized segment and one KPass per pass that changed it.
	// Nil (the default) keeps the fill path free of any tracing cost
	// beyond a pointer compare.
	Recorder *obs.Recorder
}

// DefaultConfig returns the paper's baseline fill unit (all four
// optimizations off; packing and promotion on; 1-cycle fill latency).
func DefaultConfig() Config {
	return Config{
		FillLatency:           1,
		TracePacking:          true,
		Promotion:             true,
		ReassocCrossBlockOnly: true,
		ReassocMemDisp:        true,
		Clusters:              4,
		FUsPerCluster:         4,
	}
}

func (c Config) normalize() Config {
	d := DefaultConfig()
	if c.FillLatency <= 0 {
		c.FillLatency = d.FillLatency
	}
	if c.Clusters <= 0 {
		c.Clusters = d.Clusters
	}
	if c.FUsPerCluster <= 0 {
		c.FUsPerCluster = d.FUsPerCluster
	}
	return c
}

// Stats counts the fill unit's activity.
type Stats struct {
	SegmentsBuilt   uint64
	InstsCollected  uint64
	MovesMarked     uint64 // instructions with the move bit set
	Reassociated    uint64 // consumers whose immediate was recombined
	ScaledCreated   uint64 // consumers converted to scaled operations
	PlacedNonIdent  uint64 // instructions steered away from their fetch slot
	DeadWritesElim  uint64 // writes eliminated by the dead-code extension
	PromotedInLine  uint64 // branch occurrences embedded with static predictions
	RewiredByMoves  uint64 // consumer operands re-pointed past a move
	ReassocRejected uint64 // candidate pairs rejected (overflow/safety)

	// SegLen counts finalized segments by instruction count (index =
	// length; index 0 is unused). Always collected — one array increment
	// per segment — and the source of the serving layer's segment-length
	// histogram.
	SegLen [trace.MaxInsts + 1]uint64

	// SegClass counts finalized segments by reuse-decanting class
	// (trace.ReuseClass: instruction-type mix × loop-back presence).
	// Always collected, like SegLen; the per-class reuse histograms the
	// trace cache accumulates use the same class indices.
	SegClass [trace.NumReuseClasses]uint64
}
