package experiments

import (
	"strings"
	"sync"
	"testing"

	"tcsim"
	"tcsim/internal/tracestore"
)

// samplingFigure reproduces the estimator-validation figure once per
// test binary, so TestSamplingFigure and TestSamplingFigureMemoizes
// share one runner and its memo instead of each paying for the whole
// validation half.
var (
	samplingFigureOnce   sync.Once
	samplingFigureRunner *Runner
	samplingFigureResult *SamplingResult
	samplingFigureErr    error
)

func samplingFigure() (*Runner, *SamplingResult, error) {
	samplingFigureOnce.Do(func() {
		r := NewRunner(0)
		r.Workloads = []string{"compress", "li"}
		r.Parallel = 2
		samplingFigureRunner = r
		samplingFigureResult, samplingFigureErr = r.Sampling(300_000, 600_000, tcsim.SamplingConfig{})
	})
	return samplingFigureRunner, samplingFigureResult, samplingFigureErr
}

// TestSamplingFigure runs the estimator-validation figure at a small
// budget over a workload subset: the exact reference must fall inside
// the sampled CI corridor loosely (small-n CIs are wide), the headline
// half must actually sample, and the formatted output must carry the
// error and coverage columns the figure exists for.
func TestSamplingFigure(t *testing.T) {
	_, res, err := samplingFigure()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || len(res.Headline) != 2 {
		t.Fatalf("rows = %d, headline = %d, want 2 each", len(res.Rows), len(res.Headline))
	}
	for _, row := range res.Rows {
		if row.Windows == 0 {
			t.Errorf("%s: no measured windows", row.Name)
		}
		if relerr := row.ErrPct; relerr > 15 || relerr < -15 {
			t.Errorf("%s: sampled %v vs exact %v (%.1f%% error)", row.Name, row.SampledIPC, row.ExactIPC, row.ErrPct)
		}
	}
	for _, row := range res.Headline {
		if row.Windows == 0 || row.IPC == 0 {
			t.Errorf("headline %s: %+v", row.Name, row)
		}
		if row.InstsFFwd == 0 {
			t.Errorf("headline %s fast-forwarded nothing", row.Name)
		}
	}
	out := res.Format()
	for _, want := range []string{"err%", "in-ci", "geomean |err|", "HEADLINE", "Minst/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted figure missing %q:\n%s", want, out)
		}
	}
}

// TestSamplingFigureMemoizes: reproducing the figure again on the same
// runner must not redo the validation simulations; only the
// deliberately uncached headline rows run again.
func TestSamplingFigureMemoizes(t *testing.T) {
	r, res, err := samplingFigure()
	if err != nil {
		t.Fatal(err)
	}
	n := r.SimCount()
	if _, err := r.Sampling(300_000, 600_000, tcsim.SamplingConfig{}); err != nil {
		t.Fatal(err)
	}
	if got := r.SimCount() - n; got != uint64(len(res.Headline)) {
		t.Errorf("second reproduction ran %d simulations, want %d (headline only)", got, len(res.Headline))
	}
}

// TestSamplingFigureSeekPlan: a seek plan runs in both halves of the
// figure. The headline budget sits above the full-capture limit, so its
// runs must seek over a checkpoint log served by the runner's store
// rather than fail on an unseekable live oracle.
func TestSamplingFigureSeekPlan(t *testing.T) {
	defer func(old uint64) { tracestore.FullCaptureLimit = old }(tracestore.FullCaptureLimit)
	tracestore.FullCaptureLimit = 200_000 // make a 300k headline a "big" budget cheaply

	r := NewRunner(0)
	r.Workloads = []string{"compress"}
	plan := tcsim.SamplingConfig{Period: 60_000, WindowLen: 10_000, Warmup: 5_000, Seek: true}
	res, err := r.Sampling(150_000, 300_000, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Headline) != 1 {
		t.Fatalf("headline rows = %d, want 1", len(res.Headline))
	}
	if row := res.Headline[0]; row.Windows == 0 || row.CheckpointRestores == 0 {
		t.Errorf("seek headline should measure windows and restore checkpoints: %+v", row)
	}
}
