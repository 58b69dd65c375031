package pipeline

import (
	"testing"

	"tcsim/internal/asm"
	"tcsim/internal/bpred"
	"tcsim/internal/core"
	"tcsim/internal/exec"
	"tcsim/internal/isa"
	"tcsim/internal/trace"
)

// TestMidProgramOut exercises the serializing OUT instruction inside a
// loop: fetch must stall until it retires, every time, and output must
// still be exact.
func TestMidProgramOut(t *testing.T) {
	p := buildProgram(t, func(b *asm.Builder) {
		b.Li(isa.S0, 5)
		b.Label("loop")
		b.Li(isa.A0, 'x')
		b.Out(isa.A0)
		b.Addi(isa.S0, isa.S0, -1)
		b.Bgtz(isa.S0, "loop")
		b.Halt()
	})
	sim, err := New(DefaultConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if string(sim.Output()) != "xxxxx" {
		t.Errorf("output = %q", sim.Output())
	}
}

// TestPromotedMispredictRecovery forces a promoted branch to flip after
// a long biased run: the retirement flush must recover correctly and the
// program must still retire exactly.
func TestPromotedMispredictRecovery(t *testing.T) {
	p := buildProgram(t, func(b *asm.Builder) {
		// 200 taken iterations promote the branch (threshold 64), then
		// it falls through once (mispromotion), then a second phase.
		b.Li(isa.S0, 200)
		b.Label("loop1")
		b.Addi(isa.T0, isa.T0, 1)
		b.Addi(isa.S0, isa.S0, -1)
		b.Bgtz(isa.S0, "loop1")
		b.Li(isa.S0, 200)
		b.Label("loop2")
		b.Addi(isa.T1, isa.T1, 1)
		b.Addi(isa.S0, isa.S0, -1)
		b.Bgtz(isa.S0, "loop2")
		b.Halt()
	})
	st := runSim(t, DefaultConfig(), p)
	if st.PromotedRetired == 0 {
		t.Error("branch never promoted")
	}
	if st.PromotedMispred == 0 {
		t.Error("loop exit should mispredict the promoted branch")
	}
}

// TestIndirectCallMidTrace: an indirect call inside a hot loop whose
// target alternates — exercises the mid-line JALR divergence machinery.
func TestIndirectCallMidTrace(t *testing.T) {
	p := buildProgram(t, func(b *asm.Builder) {
		b.La(isa.S1, "fa")
		b.La(isa.S2, "fb")
		b.Li(isa.S0, 300)
		b.Label("loop")
		b.Andi(isa.T0, isa.S0, 1)
		b.Move(isa.T9, isa.S1)
		b.Beq(isa.T0, isa.R0, "pick")
		b.Move(isa.T9, isa.S2)
		b.Label("pick")
		b.Jalr(isa.RA, isa.T9)
		b.Add(isa.S3, isa.S3, isa.V0)
		b.Addi(isa.S0, isa.S0, -1)
		b.Bgtz(isa.S0, "loop")
		b.Halt()
		b.Label("fa")
		b.Li(isa.V0, 1)
		b.Ret()
		b.Label("fb")
		b.Li(isa.V0, 2)
		b.Ret()
	})
	st := runSim(t, DefaultConfig(), p)
	if st.IndirectRetired < 600 { // 300 calls + 300 returns
		t.Errorf("indirect retired = %d", st.IndirectRetired)
	}
}

// TestTinyWindowConfig: a deliberately starved machine (tiny window, one
// checkpoint at a time) must still complete correctly — no deadlocks
// under resource pressure.
func TestTinyWindowConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Exec.WindowSize = 24
	cfg.Exec.RSPerFU = 2
	cfg.Checkpoints = 4
	p := buildProgram(t, simpleLoop(300))
	st := runSim(t, cfg, p)
	if st.IPC <= 0 {
		t.Error("starved machine produced no progress")
	}
}

// TestNarrowClusterConfigs sweeps cluster organizations, including ones
// with fewer functional units than the fetch width (2x1, 1x1), whose
// instruction-cache fetch groups must fold slots onto the available
// units. runSim checks retired count and output against the functional
// emulator.
func TestNarrowClusterConfigs(t *testing.T) {
	p := buildProgram(t, simpleLoop(300))
	for _, org := range []struct{ c, f int }{{1, 16}, {2, 8}, {8, 2}, {16, 1}, {2, 1}, {1, 1}} {
		cfg := DefaultConfig()
		cfg.Exec.Clusters, cfg.Exec.FUsPerCluster = org.c, org.f
		cfg.Fill.Clusters, cfg.Fill.FUsPerCluster = org.c, org.f
		runSim(t, cfg, p)
	}
	// A single cluster never pays bypass penalties.
	cfg := DefaultConfig()
	cfg.Exec.Clusters, cfg.Exec.FUsPerCluster = 1, 16
	cfg.Fill.Clusters, cfg.Fill.FUsPerCluster = 1, 16
	st := runSim(t, cfg, p)
	if st.BypassDelayed != 0 {
		t.Errorf("single cluster reported %d bypass delays", st.BypassDelayed)
	}
}

// TestDeepCallChain exercises the RAS through nested calls with stack
// traffic.
func TestDeepCallChain(t *testing.T) {
	p := buildProgram(t, func(b *asm.Builder) {
		b.Li(isa.S0, 50)
		b.Label("loop")
		b.Jal("f1")
		b.Addi(isa.S0, isa.S0, -1)
		b.Bgtz(isa.S0, "loop")
		b.Halt()
		b.Label("f1")
		b.Addi(isa.SP, isa.SP, -4)
		b.Sw(isa.RA, isa.SP, 0)
		b.Jal("f2")
		b.Lw(isa.RA, isa.SP, 0)
		b.Addi(isa.SP, isa.SP, 4)
		b.Ret()
		b.Label("f2")
		b.Addi(isa.SP, isa.SP, -4)
		b.Sw(isa.RA, isa.SP, 0)
		b.Jal("f3")
		b.Lw(isa.RA, isa.SP, 0)
		b.Addi(isa.SP, isa.SP, 4)
		b.Ret()
		b.Label("f3")
		b.Addi(isa.V0, isa.V0, 1)
		b.Ret()
	})
	st := runSim(t, DefaultConfig(), p)
	// 3 returns per outer iteration; RAS should keep them cheap.
	if st.IndirectMispred > st.IndirectRetired/4 {
		t.Errorf("too many return mispredicts: %d/%d", st.IndirectMispred, st.IndirectRetired)
	}
}

// TestFillUnitSeesRetiredStreamOnly: fill-unit statistics must account
// only retired (on-path) instructions even under heavy misprediction.
func TestFillUnitSeesRetiredStreamOnly(t *testing.T) {
	p := buildProgram(t, func(b *asm.Builder) {
		b.Li(isa.S0, 400)
		b.Li(isa.S1, 987)
		b.Label("loop")
		b.Li(isa.T9, 1103)
		b.Mul(isa.S1, isa.S1, isa.T9)
		b.Addi(isa.S1, isa.S1, 35)
		b.Andi(isa.T0, isa.S1, 8)
		b.Beq(isa.T0, isa.R0, "even")
		b.Addi(isa.S2, isa.S2, 1)
		b.Label("even")
		b.Addi(isa.S0, isa.S0, -1)
		b.Bgtz(isa.S0, "loop")
		b.Halt()
	})
	sim, err := New(DefaultConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Fill.InstsCollected > st.Retired {
		t.Errorf("fill unit collected %d > retired %d", st.Fill.InstsCollected, st.Retired)
	}
}

// TestOptimizationsPreserveBehaviorUnderPressure combines every stressor:
// tiny window, all optimizations, mispredicting branches, memory traffic.
func TestOptimizationsPreserveBehaviorUnderPressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Exec.WindowSize = 32
	cfg.Checkpoints = 6
	cfg.Fill.Opt = core.AllOptimizations()
	p := buildProgram(t, func(b *asm.Builder) {
		b.DataLabel("buf")
		b.Space(256)
		b.Li(isa.S0, 300)
		b.Li(isa.S1, 55)
		b.Label("loop")
		b.Li(isa.T9, 77)
		b.Mul(isa.S1, isa.S1, isa.T9)
		b.Addi(isa.S1, isa.S1, 13)
		b.Andi(isa.T0, isa.S1, 0xFC)
		b.Slli(isa.T1, isa.T0, 0) // move idiom
		b.Move(isa.T2, isa.T1)
		b.Andi(isa.T3, isa.T2, 4)
		b.Beq(isa.T3, isa.R0, "skip")
		b.Swx(isa.S1, isa.GP, isa.T0)
		b.Label("skip")
		b.Lwx(isa.T4, isa.GP, isa.T0)
		b.Add(isa.S2, isa.S2, isa.T4)
		b.Addi(isa.S0, isa.S0, -1)
		b.Bgtz(isa.S0, "loop")
		b.Halt()
	})
	runSim(t, cfg, p)
}

// TestStatsShape sanity-checks derived statistics fields.
func TestStatsShape(t *testing.T) {
	p := buildProgram(t, simpleLoop(500))
	cfg := DefaultConfig()
	cfg.Fill.Opt = core.AllOptimizations()
	st := runSim(t, cfg, p)
	if st.OptimizedFraction() < 0 || st.OptimizedFraction() > 1 {
		t.Errorf("optimized fraction = %f", st.OptimizedFraction())
	}
	if st.BypassDelayRate() < 0 || st.BypassDelayRate() > 1 {
		t.Errorf("bypass rate = %f", st.BypassDelayRate())
	}
	if st.TCLookups < st.TCHits {
		t.Error("hits exceed lookups")
	}
	_ = trace.MaxInsts
	_ = exec.GlobalCluster
	_ = bpred.Token{}
}
