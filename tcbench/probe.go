package main

import (
	"bytes"
	"context"
	"runtime"
	"slices"
	"sync"
	"time"
)

// probe is a context that marks the time of every cancellation poll. The
// simulator polls its context at fixed points of its own work (every 4096
// cycles of detailed simulation, every 8192 instructions of
// fast-forward), so the polls split a run into segments
// that are the same simulated work in every repetition of it. A segment
// lasts a few tens of milliseconds: short enough that, over a run's
// repetitions, each segment is likely to have run at least once without
// interference from other work on the host.
//
// Only polls from one goroutine split a run alike every time: should
// several goroutines poll one probe (a run that simulates in parallel),
// their marks would interleave differently in each repetition, so the
// probe then treats the run as one segment.
//
// The probe never cancels by itself; it reports its parent's
// cancellation.
type probe struct {
	context.Context
	done chan struct{}

	mu      sync.Mutex
	marks   []time.Time
	poller  [64]byte // the first polling goroutine's stack header
	npoller int
	stack   [64]byte // scratch for each poll's stack header
	mixed   bool     // a second goroutine polled
}

// newProbe makes room for the marks of an exact-sweep run (about ten), so
// that its polls allocate nothing inside the allocation counts taken
// around the run.
func newProbe(parent context.Context) *probe {
	return &probe{Context: parent, done: make(chan struct{}), marks: make([]time.Time, 0, 64)}
}

// Done returns a channel that is never closed; it must be non-nil, or the
// simulator would not poll Err.
func (p *probe) Done() <-chan struct{} { return p.done }

func (p *probe) Err() error {
	now := time.Now()
	p.mu.Lock()
	g := goroutineHeader(p.stack[:])
	p.marks = append(p.marks, now)
	if len(p.marks) == 1 {
		p.npoller = copy(p.poller[:], g)
	} else if !bytes.Equal(p.poller[:p.npoller], g) {
		p.mixed = true
	}
	p.mu.Unlock()
	return p.Context.Err()
}

// goroutineHeader returns "goroutine N " from the calling goroutine's
// stack trace, which names it uniquely while it lives.
func goroutineHeader(buf []byte) []byte {
	b := buf[:runtime.Stack(buf, false)]
	if i := bytes.IndexByte(b, '['); i >= 0 {
		b = b[:i]
	}
	return b
}

// segments returns the durations in seconds between start, each mark,
// and end; a single segment if several goroutines polled.
func (p *probe) segments(start, end time.Time) []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.mixed {
		return []float64{end.Sub(start).Seconds()}
	}
	var out []float64
	prev := start
	for _, m := range append(p.marks, end) {
		out = append(out, m.Sub(prev).Seconds())
		prev = m
	}
	return out
}

// bestTime estimates the undisturbed time of a run repeated len(reps)
// times, given each repetition's segments: the sum over segment positions
// of the fastest repetition of that segment. Interference from other
// work only ever slows a segment, so this is the run's time with the
// interference taken out. Repetitions that were not split alike (their
// polls came at other points) cannot be matched segment by segment; the
// estimate is then the fastest whole repetition.
func bestTime(reps [][]float64) float64 {
	if len(reps) == 0 {
		return 0
	}
	n := len(reps[0])
	wholes := make([]float64, len(reps))
	for i, r := range reps {
		if len(r) != n {
			n = -1
		}
		for _, d := range r {
			wholes[i] += d
		}
	}
	if n < 0 {
		return slices.Min(wholes)
	}
	total := 0.0
	for k := 0; k < n; k++ {
		best := reps[0][k]
		for _, r := range reps[1:] {
			best = min(best, r[k])
		}
		total += best
	}
	return total
}
