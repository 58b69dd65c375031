// Quickstart: run one benchmark on the baseline machine and on the
// machine with every fill-unit optimization enabled, and compare IPC —
// the paper's headline experiment in a dozen lines.
package main

import (
	"context"
	"fmt"
	"log"

	"tcsim"
)

func main() {
	base := tcsim.DefaultConfig()
	base.MaxInsts = 100_000

	opt := base
	opt.Passes = tcsim.DefaultPassSpec()

	// Both runs share one trace store: the first captures the program's
	// instruction stream, the second replays it.
	ctx, st := context.Background(), tcsim.NewTraceStore(0)
	name := "m88ksim" // the paper's biggest winner (+44% in Figure 8)
	b, err := tcsim.RunWorkloadContextIn(ctx, base, name, st)
	if err != nil {
		log.Fatal(err)
	}
	o, err := tcsim.RunWorkloadContextIn(ctx, opt, name, st)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s on the paper's machine (%d instructions)\n", name, b.Retired)
	fmt.Printf("  baseline fill unit:   IPC %.3f\n", b.IPC)
	fmt.Printf("  optimizing fill unit: IPC %.3f  (moves %.1f%%, reassoc %.1f%%, scaled %.1f%% of instructions)\n",
		o.IPC, o.MovesPct, o.ReassocPct, o.ScaledPct)
	fmt.Printf("  improvement:          %+.1f%%\n", 100*(o.IPC-b.IPC)/b.IPC)
}
