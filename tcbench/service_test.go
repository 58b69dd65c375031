package main

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestServiceLoop drives a short closed loop from two clients at once
// while the scraper polls every process, then checks each job against
// the golden record and its class.
func TestServiceLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a cluster")
	}
	ctx := context.Background()
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	c, err := bootCluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	cat := newCatalogue()
	if err := c.warm(ctx, cat); err != nil {
		t.Fatal(err)
	}
	gens := []*generator{newGenerator(cat, 1, 0, 2), newGenerator(cat, 1, 1, 2)}
	scr := newScraper(c)
	if err := scr.baseline(ctx); err != nil {
		t.Fatal(err)
	}
	stop := scr.every(ctx, 50*time.Millisecond)
	p := c.loop(ctx, gens, 0, 40, "t", g)
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if len(p.jobs) < 40 {
		t.Fatalf("%d jobs completed, want 40", len(p.jobs))
	}
	for _, j := range p.jobs {
		if j.err != nil {
			t.Errorf("%s job: %v", classNames[j.class], j.err)
		}
	}
	if n := p.misclassified(); n != 0 {
		t.Errorf("%d jobs misclassified", n)
	}
	if n := scr.lost(); n != 0 {
		t.Errorf("%d spans lost", n)
	}
	// Once a pool runs out, the loop records a failed job that says so
	// and every client stops, long before minJobs.
	for _, g := range gens {
		for cl := range g.pools {
			g.pools[cl] = g.pools[cl][:g.next[cl]]
		}
	}
	ex := c.loop(ctx, gens, 0, 1000, "x", g)
	var exhausted int
	for _, j := range ex.jobs {
		if j.err != nil && strings.Contains(j.err.Error(), "catalogue exhausted") {
			exhausted++
		}
	}
	if exhausted == 0 || len(ex.jobs) >= 1000 {
		t.Errorf("exhausted catalogue: %d jobs, %d exhaustion failures", len(ex.jobs), exhausted)
	}

	hops := scr.hops("t-")
	for _, h := range []string{"run", "cache_lookup", "attempt", "gateway_self"} {
		if len(hops[h]) == 0 {
			t.Errorf("no %s spans folded", h)
		}
	}
}
