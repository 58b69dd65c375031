// Package tcsim is a cycle-level simulator of a trace cache
// microprocessor whose fill unit performs dynamic trace optimizations,
// reproducing Friendly, Patel & Patt, "Putting the Fill Unit to Work:
// Dynamic Optimizations for Trace Cache Microprocessors" (MICRO-31,
// 1998).
//
// The machine: a 16-wide fetch engine with a 2K-entry 4-way trace cache
// (16 instructions / 3 conditional branches per line, branch promotion,
// trace packing, inactive issue), a three-table multiple-branch
// predictor, register renaming with checkpoint repair, and a 16-unit
// execution core arranged as four clusters with a one-cycle cross-cluster
// bypass penalty.
//
// The contribution under study is the fill unit: as instructions retire
// it packs them into multi-block trace segments, marks explicit
// dependency information, and — being off the critical path — optimizes
// each segment before it enters the trace cache:
//
//   - register moves are marked and executed inside rename,
//   - dependent add-immediates are reassociated across basic-block
//     boundaries,
//   - short shift + add/load/store pairs collapse into scaled ops, and
//   - instructions are steered to issue slots so dependent operations
//     share a cluster.
//
// This package is the public face: configure a machine, run one of the
// fifteen bundled benchmark programs (synthetic stand-ins for the
// paper's SPECint95 + UNIX suite) with RunWorkloadContextIn or your own
// TCR assembly with RunContext, and read the statistics the paper's
// figures are built from. Workload runs capture each program's
// instruction stream once into the TraceStore they are handed and
// replay it afterwards. Config.Validate checks a machine without
// running it. The cmd/tcexp tool regenerates every table and figure;
// each of its simulations is a RunWorkloadContextIn call.
package tcsim
