// Optsweep: measure each fill-unit optimization's individual
// contribution on a set of benchmarks — a miniature of the paper's
// Figures 3 through 6.
package main

import (
	"context"
	"fmt"
	"log"

	"tcsim"
)

func main() {
	benchmarks := []string{"compress", "m88ksim", "chess", "ijpeg", "vortex"}
	variants := []struct {
		name   string
		passes []string
	}{
		{"moves (Fig 3)", []string{"moves"}},
		{"reassociation (Fig 4)", []string{"reassoc"}},
		{"scaled adds (Fig 5)", []string{"scadd"}},
		{"placement (Fig 6)", []string{"place"}},
		{"combined (Fig 8)", tcsim.DefaultPassSpec()},
	}

	cfg := tcsim.DefaultConfig()
	cfg.MaxInsts = 80_000
	// One store for the whole sweep: each benchmark is emulated once and
	// its stream replayed under every variant.
	ctx, st := context.Background(), tcsim.NewTraceStore(0)

	fmt.Printf("%-22s", "optimization")
	for _, b := range benchmarks {
		fmt.Printf(" %10s", b)
	}
	fmt.Println()

	base := map[string]float64{}
	for _, b := range benchmarks {
		r, err := tcsim.RunWorkloadContextIn(ctx, cfg, b, st)
		if err != nil {
			log.Fatal(err)
		}
		base[b] = r.IPC
	}
	fmt.Printf("%-22s", "baseline IPC")
	for _, b := range benchmarks {
		fmt.Printf(" %10.3f", base[b])
	}
	fmt.Println()

	for _, v := range variants {
		c := cfg
		c.Passes = v.passes
		fmt.Printf("%-22s", v.name)
		for _, b := range benchmarks {
			r, err := tcsim.RunWorkloadContextIn(ctx, c, b, st)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %+9.2f%%", 100*(r.IPC-base[b])/base[b])
		}
		fmt.Println()
	}
}
