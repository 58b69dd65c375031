package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"tcsim"
	"tcsim/client"
)

// Budgets of the tcexp session deriveMix replays. The figures run at
// tcexp's default -insts. The sampling figure's budgets (2M validation,
// 50M headline) are scaled down so that its resident traces fit in
// memory. They stay distinct from the figures' budget, and the headline
// budget stays above the trace store's full-capture limit, as at full
// size. Which class a job falls in depends only on its key and on which
// traces are resident, not on the budget.
const (
	mixFigureInsts   = 200_000
	mixValidateInsts = 400_000
	mixHeadlineInsts = 5_000_000
)

// tcexpSession lists, in order, one job per simulation cell of a
// `tcexp -exp all` run followed by a `tcexp -exp sampling` run: the
// request stream the service receives when those sessions submit every
// cell as a job instead of memoizing cells in-process. The variants
// mirror internal/experiments: the paper figures (Figure3 to Ablations)
// and the sampling figure (Runner.Sampling).
func tcexpSession() []client.JobRequest {
	singlePass := func(p string) client.JobRequest { return client.JobRequest{Passes: []string{p}} }
	base := client.JobRequest{Preset: client.PresetBaseline}
	all := client.JobRequest{Preset: client.PresetAll}
	lat := func(l int) client.JobRequest { return client.JobRequest{Preset: client.PresetAll, FillLatency: l} }
	var every []string
	for _, p := range tcsim.Passes() {
		every = append(every, p.Name)
	}
	figures := [][]client.JobRequest{
		{base, singlePass("moves")},   // fig3
		{base, singlePass("reassoc")}, // fig4
		{base, singlePass("scadd")},   // fig5
		{base, singlePass("place")},   // fig6
		{base, singlePass("place")},   // fig7: bypass delay, baseline vs placement
		{base, lat(1), lat(5), lat(10)},
		{all}, // table2
		{ // ablations
			base,
			{Preset: client.PresetBaseline, NoPromotion: true},
			{Preset: client.PresetBaseline, NoPacking: true},
			{Preset: client.PresetBaseline, NoInactive: true},
			{Preset: client.PresetBaseline, NoTraceCache: true},
			{Passes: every},
			{Preset: client.PresetBaseline, Clusters: 1, FUsPerCluster: 16},
			{Preset: client.PresetBaseline, Clusters: 8, FUsPerCluster: 2},
		},
	}
	var out []client.JobRequest
	// Each figure sweeps its variants over every program (runAll).
	for _, fig := range figures {
		for _, v := range fig {
			for _, w := range tcsim.Workloads() {
				r := v
				r.Workload, r.Insts = w, mixFigureInsts
				out = append(out, r)
			}
		}
	}
	// The sampling figure: exact and sampled validation runs, then the
	// long sampled headline run, each over every program.
	val, head := tcsim.DefaultSamplingFor(mixValidateInsts), tcsim.DefaultSamplingFor(mixHeadlineInsts)
	for _, w := range tcsim.Workloads() {
		out = append(out, client.JobRequest{Workload: w, Insts: mixValidateInsts, Preset: client.PresetBaseline})
	}
	for _, step := range []struct {
		insts uint64
		plan  tcsim.SamplingConfig
	}{{mixValidateInsts, val}, {mixHeadlineInsts, head}} {
		for _, w := range tcsim.Workloads() {
			out = append(out, client.JobRequest{
				Workload: w, Insts: step.insts, Preset: client.PresetBaseline,
				SamplePeriod: step.plan.Period, SampleWindow: step.plan.WindowLen, SampleWarmup: step.plan.Warmup,
			})
		}
	}
	return out
}

// mixCounts is how many jobs of a replayed session fell in each class.
type mixCounts struct {
	Jobs    int `json:"jobs"`
	Hit     int `json:"hit"`
	Replay  int `json:"replay"`
	Capture int `json:"capture"`
	Sampled int `json:"sampled"`
}

// deriveMix submits the tcexp session's jobs one by one, as tcexp would,
// through a fresh in-process cluster and classifies each from outside: a
// hit comes back Cached, a sampled job carries a sampling plan, a capture
// made the nodes emulate a stream, and every other job is a replay. It
// prints the counts as one JSON line; service-mix's classShares are these
// counts reduced.
func deriveMix(ctx context.Context, stdout, log io.Writer) error {
	c, err := bootCluster(ctx)
	if err != nil {
		return err
	}
	defer c.close()
	cl := client.New(c.gwURL)
	var n mixCounts
	reqs := tcexpSession()
	for i := range reqs {
		e0 := c.emulated()
		job, err := cl.SubmitJob(ctx, &reqs[i])
		if err != nil {
			return fmt.Errorf("%+v: %w", reqs[i], err)
		}
		if job.State != client.StateDone {
			return fmt.Errorf("%+v: state %s: %s", reqs[i], job.State, job.Error)
		}
		n.Jobs++
		switch {
		case job.Cached:
			n.Hit++
		case reqs[i].SamplePeriod > 0:
			n.Sampled++
		case c.emulated() > e0:
			n.Capture++
		default:
			n.Replay++
		}
		if i%50 == 0 {
			fmt.Fprintf(log, "classified %d/%d jobs\n", i, len(reqs))
		}
	}
	b, err := json.Marshal(n)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(b))
	return nil
}
