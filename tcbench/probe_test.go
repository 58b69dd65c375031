package main

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestBestTimeTakesEachSegmentsFastest(t *testing.T) {
	reps := [][]float64{
		{1, 5, 2},
		{3, 1, 2},
		{2, 2, 1},
	}
	if got := bestTime(reps); got != 3 {
		t.Errorf("bestTime = %v, want 1+1+1 = 3", got)
	}
}

func TestBestTimeFallsBackToWholeRuns(t *testing.T) {
	// Splits that do not match cannot be compared segment by segment.
	reps := [][]float64{
		{1, 5, 2}, // 8
		{3, 3},    // 6
		{2, 2, 3}, // 7
	}
	if got := bestTime(reps); got != 6 {
		t.Errorf("bestTime = %v, want the fastest whole run, 6", got)
	}
	if got := bestTime(nil); got != 0 {
		t.Errorf("bestTime(nil) = %v, want 0", got)
	}
}

func TestProbeSplitsAtPolls(t *testing.T) {
	p := newProbe(context.Background())
	if p.Done() == nil {
		t.Fatal("Done is nil: the simulator would never poll")
	}
	start := time.Now()
	for i := 0; i < 3; i++ {
		if err := p.Err(); err != nil {
			t.Fatal(err)
		}
	}
	segs := p.segments(start, time.Now())
	if len(segs) != 4 {
		t.Fatalf("%d segments for 3 polls, want 4", len(segs))
	}
	for _, d := range segs {
		if d < 0 {
			t.Errorf("negative segment %v", d)
		}
	}
}

func TestProbeOneSegmentWhenPolledFromSeveralGoroutines(t *testing.T) {
	p := newProbe(context.Background())
	start := time.Now()
	p.Err()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.Err()
	}()
	wg.Wait()
	if segs := p.segments(start, time.Now()); len(segs) != 1 {
		t.Errorf("%d segments from two pollers, want 1", len(segs))
	}
}

func TestProbeReportsParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := newProbe(ctx)
	if p.Err() != nil {
		t.Fatal("cancelled before its parent")
	}
	cancel()
	if p.Err() == nil {
		t.Error("parent cancelled, probe not")
	}
}

func TestProbePollsDoNotAllocate(t *testing.T) {
	p := newProbe(context.Background())
	if n := testing.AllocsPerRun(20, func() { p.Err() }); n != 0 {
		t.Errorf("a poll allocates %v times", n)
	}
}
