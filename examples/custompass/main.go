// Custompass: extend the fill unit with your own optimization pass.
//
// The pass manager (internal/core/pass.go) holds a registry of named
// passes; anything registered there can be scheduled by name through
// the public -passes / Config.Passes surface with no changes to the
// simulator. This example registers "edgecount", an analysis-only pass
// that counts the intra-segment dependency edges left over after the
// paper's transforms ran, and schedules it between scadd and place.
//
// Examples live in the tcsim module, so they may import internal/core
// directly. An out-of-tree pass would live in a fork or in this
// directory.
package main

import (
	"context"
	"fmt"
	"log"

	"tcsim"
	"tcsim/internal/core"
	"tcsim/internal/trace"
)

// edgeCountPass tallies how many source operands of each segment still
// resolve to an in-segment producer. The standard counters are generic:
// an analysis pass reports through them like any transform would
// (EdgesRemoved is "edges seen" here; it performs no rewrites).
type edgeCountPass struct{}

func (edgeCountPass) Name() string { return "edgecount" }

func (edgeCountPass) Run(seg *trace.Segment, st *core.PassStats) {
	edges := uint64(0)
	for i := range seg.Insts {
		si := &seg.Insts[i]
		for s := 0; s < si.NSrc; s++ {
			if si.SrcProducer[s] != trace.NoProducer {
				edges++
			}
		}
	}
	if edges > 0 {
		st.Touched++
	}
	st.EdgesRemoved += edges
}

func init() {
	core.RegisterPass(core.PassInfo{
		Name:  "edgecount",
		Desc:  "count residual intra-segment dependency edges (analysis only)",
		Order: 80, // between scadd (30) and place (90)
		New:   func(*core.FillUnit) core.OptPass { return edgeCountPass{} },
	})
}

func main() {
	// The registered pass is now part of the roster…
	fmt.Println("registered passes:")
	for _, p := range tcsim.Passes() {
		fmt.Printf("  %-10s %s\n", p.Name, p.Desc)
	}

	// …and schedulable by name like any built-in.
	cfg := tcsim.DefaultConfig()
	cfg.Passes = []string{"reassoc", "moves", "scadd", "edgecount", "place"}
	cfg.TimePasses = true
	cfg.MaxInsts = 100_000

	res, err := tcsim.RunWorkloadContextIn(context.Background(), cfg, "m88ksim", tcsim.NewTraceStore(0))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nm88ksim, %d instructions, IPC %.3f\n", res.Retired, res.IPC)
	fmt.Printf("%-10s %9s %9s %9s %13s %8s\n",
		"pass", "segments", "touched", "rewritten", "edges", "ms")
	for _, ps := range res.PassStats {
		fmt.Printf("%-10s %9d %9d %9d %13d %8.2f\n",
			ps.Name, ps.Segments, ps.Touched, ps.Rewritten, ps.EdgesRemoved,
			float64(ps.Nanos)/1e6)
	}
}
