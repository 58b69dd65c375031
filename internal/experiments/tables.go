package experiments

import (
	"fmt"
	"strings"

	"tcsim/internal/workload"
)

// FormatTable1 renders the benchmark roster (paper Table 1) with the
// substitution each synthetic workload makes.
func FormatTable1(insts uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: benchmarks (paper roster -> synthetic stand-ins)\n")
	fmt.Fprintf(&b, "%-10s %-18s %-10s %-12s %-12s %s\n",
		"name", "paper name", "paper cnt", "paper input", "sim budget", "synthetic kernel")
	for _, w := range workload.All() {
		budget := w.DefaultInsts
		if insts > 0 {
			budget = insts
		}
		in := w.PaperInput
		if in == "" {
			in = "-"
		}
		fmt.Fprintf(&b, "%-10s %-18s %-10s %-12s %-12s %s\n",
			w.Name, w.PaperName, w.PaperInsts, in, fmtInsts(budget), w.Description)
	}
	return b.String()
}

func fmtInsts(n uint64) string {
	switch {
	case n >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 1_000:
		return fmt.Sprintf("%.0fk", float64(n)/1e3)
	}
	return fmt.Sprintf("%d", n)
}

// Format renders a per-optimization figure.
func (f *FigureResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", strings.ToUpper(f.ID), f.Title)
	fmt.Fprintf(&b, "%-10s %10s %10s %10s %10s\n", "bench", "base IPC", "opt IPC", "impr %", "paper %")
	for _, r := range f.Rows {
		paper := "-"
		if r.PaperPct != 0 {
			paper = fmt.Sprintf("%.1f", r.PaperPct)
		}
		fmt.Fprintf(&b, "%-10s %10.3f %10.3f %10.2f %10s\n",
			r.Name, r.BaseIPC, r.OptIPC, r.ImprovePct, paper)
	}
	fmt.Fprintf(&b, "%-10s %10s %10s %10.2f %10.1f\n", "average", "", "", f.AvgPct, f.PaperAvg)
	return b.String()
}

// Format renders Figure 7.
func (f *Figure7Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIG7: %% of on-path instructions whose last-arriving source was delayed by the bypass network\n")
	fmt.Fprintf(&b, "%-10s %12s %12s\n", "bench", "baseline %", "placement %")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-10s %12.2f %12.2f\n", r.Name, r.BaselinePct, r.PlacementPct)
	}
	fmt.Fprintf(&b, "%-10s %12.2f %12.2f   (paper: %.0f%% -> %.0f%%)\n",
		"average", f.BaseAvg, f.PlaceAvg, f.PaperBase, f.PaperPlaced)
	return b.String()
}

// Format renders Figure 8.
func (f *Figure8Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIG8: IPC of the combined optimizations (fill latency 1/5/10 cycles)\n")
	fmt.Fprintf(&b, "%-10s %9s %9s %9s %9s %9s %9s\n",
		"bench", "base", "lat1", "lat5", "lat10", "impr %", "paper %")
	for _, r := range f.Rows {
		paper := "-"
		if r.PaperPct != 0 {
			paper = fmt.Sprintf("%.1f", r.PaperPct)
		}
		fmt.Fprintf(&b, "%-10s %9.3f %9.3f %9.3f %9.3f %9.2f %9s\n",
			r.Name, r.BaseIPC, r.IPCLat1, r.IPCLat5, r.IPCLat10, r.ImprovePct, paper)
	}
	fmt.Fprintf(&b, "%-10s %9s %9s %9s %9s %9.2f %9.1f\n", "average", "", "", "", "", f.AvgPct, f.PaperAvg)
	return b.String()
}

// Format renders Table 2 with the paper's values interleaved.
func (t *Table2Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE2: %% of retired instructions transformed (measured | paper)\n")
	fmt.Fprintf(&b, "%-10s %15s %15s %15s %15s\n", "bench", "moves", "reassoc", "scaled", "total")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-10s %6.1f | %5.1f %6.1f | %5.1f %6.1f | %5.1f %6.1f | %5.1f\n",
			r.Name,
			r.MovesPct, r.PaperMoves,
			r.ReassocPct, r.PaperReassoc,
			r.ScaledPct, r.PaperScaled,
			r.TotalPct, r.PaperTotal)
	}
	fmt.Fprintf(&b, "%-10s total avg %.1f%%   (paper: %.1f%%)\n", "average", t.AvgTotal, t.PaperAvgTotal)
	return b.String()
}

// Format renders the ablation matrix.
func (a *AblationResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ABLATIONS: IPC under design-choice ablations\n")
	fmt.Fprintf(&b, "%-10s", "bench")
	for _, v := range a.Variants {
		fmt.Fprintf(&b, " %12s", v)
	}
	fmt.Fprintln(&b)
	for _, n := range a.Names {
		fmt.Fprintf(&b, "%-10s", n)
		for _, ipc := range a.IPC[n] {
			fmt.Fprintf(&b, " %12.3f", ipc)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
