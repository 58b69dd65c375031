// Customworkload: write a program in TCR assembly, run it through the
// simulator, and watch the fill unit transform it. The kernel below is
// the paper's own motivating idiom: array accesses through shift+add
// address arithmetic, dependent add-immediates across a branch, and a
// register move — all four optimizations fire on it.
package main

import (
	"context"
	"fmt"
	"log"

	"tcsim"
)

const source = `
.data
table:  .word 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3
sum:    .word 0

.text
main:
    la   s1, table
    li   s0, 20000        ; iterations
    li   s2, 0            ; accumulator
loop:
    andi t0, s0, 15       ; index
    slli t1, t0, 2        ; byte offset        <- collapses into the load
    lwx  t2, t1(s1)       ; table[index]
    move t3, t2           ; staging move       <- executes in rename
    addi t4, s1, 4        ; neighbor pointer   <- producer half of a pair
    bgtz t2, skip
    xori t3, t3, 1
skip:
    lw   t5, 4(t4)        ; folds into the addi across the branch
    add  s2, s2, t3
    add  s2, s2, t5
    addi s0, s0, -1
    bgtz s0, loop
    la   t6, sum
    sw   s2, 0(t6)
    halt
`

func main() {
	prog, err := tcsim.Assemble(source)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("assembled kernel:")
	fmt.Println(prog.Listing())

	ctx := context.Background()
	base, err := tcsim.RunContext(ctx, tcsim.DefaultConfig(), prog)
	if err != nil {
		log.Fatal(err)
	}
	cfg := tcsim.DefaultConfig()
	cfg.Passes = tcsim.DefaultPassSpec()
	opt, err := tcsim.RunContext(ctx, cfg, prog)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("baseline:  IPC %.3f over %d cycles\n", base.IPC, base.Cycles)
	fmt.Printf("optimized: IPC %.3f over %d cycles (%+.1f%%)\n",
		opt.IPC, opt.Cycles, 100*(opt.IPC-base.IPC)/base.IPC)
	fmt.Printf("transformed instructions: moves %.1f%%, reassociated %.1f%%, scaled %.1f%%\n",
		opt.MovesPct, opt.ReassocPct, opt.ScaledPct)
}
