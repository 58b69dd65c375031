// Filllatency: demonstrate the paper's latency-tolerance claim — the
// fill unit sits off the critical path, so growing its pipeline from 1
// to 10 cycles barely moves IPC (Figure 8's latency axis). This is what
// licenses putting optimization logic in the fill unit at all.
package main

import (
	"context"
	"fmt"
	"log"

	"tcsim"
)

func main() {
	// One store for every run: each workload is emulated once and its
	// stream replayed under every fill latency.
	st := tcsim.NewTraceStore(0)
	for _, name := range []string{"compress", "m88ksim", "tex"} {
		fmt.Printf("%s:\n", name)
		var first float64
		for _, lat := range []int{1, 5, 10, 20} {
			cfg := tcsim.DefaultConfig()
			cfg.Passes = tcsim.DefaultPassSpec()
			cfg.FillLatency = lat
			cfg.MaxInsts = 80_000
			r, err := tcsim.RunWorkloadContextIn(context.Background(), cfg, name, st)
			if err != nil {
				log.Fatal(err)
			}
			if lat == 1 {
				first = r.IPC
			}
			fmt.Printf("  fill latency %2d cycles: IPC %.3f (%+.1f%% vs 1-cycle)\n",
				lat, r.IPC, 100*(r.IPC-first)/first)
		}
	}
}
