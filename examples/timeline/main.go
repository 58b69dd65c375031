// Timeline: run a short simulation with the cycle-level event recorder
// attached and write a Chrome trace-event file. Open the output in
// chrome://tracing or https://ui.perfetto.dev to see fetch activity,
// fill-unit segment finalization (with per-pass rewrite markers), and
// issue/retire occupancy on a shared cycle axis.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"tcsim"
)

func main() {
	cfg := tcsim.DefaultConfig()
	cfg.MaxInsts = 50_000
	cfg.Passes = tcsim.DefaultPassSpec()
	cfg.Timeline = true // attach the recorder; the run itself is unchanged

	res, err := tcsim.RunWorkloadContextIn(context.Background(), cfg, "m88ksim", tcsim.NewTraceStore(0))
	if err != nil {
		log.Fatal(err)
	}

	f, err := os.Create("timeline.json")
	if err != nil {
		log.Fatal(err)
	}
	if err := res.Timeline.WriteChromeTrace(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("simulated %d instructions in %d cycles (IPC %.3f)\n",
		res.Retired, res.Cycles, res.IPC)
	fmt.Printf("recorded %d events", len(res.Timeline.Events))
	if res.Timeline.Dropped > 0 {
		fmt.Printf(" (%d dropped; raise Config.TimelineEvents to keep more)", res.Timeline.Dropped)
	}
	fmt.Println(" -> timeline.json")
	fmt.Println("open it in chrome://tracing or https://ui.perfetto.dev")
}
