package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func take(g *generator, n int) []request {
	var out []request
	for i := 0; i < n; i++ {
		r, err := g.nextRequest()
		if err != nil {
			break
		}
		out = append(out, r)
	}
	return out
}

func TestGeneratorIsSeeded(t *testing.T) {
	cat := newCatalogue()
	a := take(newGenerator(cat, 7, 0, 2), 400)
	b := take(newGenerator(cat, 7, 0, 2), 400)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed gave different sequences")
	}
	c := take(newGenerator(cat, 8, 0, 2), 400)
	if reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds gave the same sequence")
	}
	d := take(newGenerator(cat, 7, 1, 2), 400)
	if reflect.DeepEqual(a, d) {
		t.Fatalf("two clients got the same sequence")
	}
}

func TestGeneratorSharesAndHistory(t *testing.T) {
	cat := newCatalogue()
	g := newGenerator(cat, 3, 0, 2)
	reqs := take(g, blockLen()*50)
	if len(reqs) != blockLen()*50 {
		t.Fatalf("generator stopped after %d requests", len(reqs))
	}
	var counts [numClasses]int
	seen := map[string]bool{}
	for _, w := range cat.warm {
		seen[key(w)] = true
	}
	for _, r := range reqs {
		counts[r.class]++
		k := key(r.req)
		if r.class == classHit {
			if !seen[k] {
				t.Fatalf("hit %s repeats no earlier request", k)
			}
			continue
		}
		if seen[k] {
			t.Fatalf("%s request %s was sent before", classNames[r.class], k)
		}
		seen[k] = true
	}
	for cl, n := range counts {
		if want := classShares[cl] * 50; n != want {
			t.Errorf("%s: %d requests, want %d", classNames[cl], n, want)
		}
	}
}

// TestCatalogueCoversMaxJobs checks that every client can send its share
// of svcMaxJobs requests, and that the one after the catalogue runs out
// is an error rather than a quiet end.
func TestCatalogueCoversMaxJobs(t *testing.T) {
	cat := newCatalogue()
	for id := 0; id < svcClients; id++ {
		g := newGenerator(cat, 5, id, svcClients)
		n := 0
		var err error
		for ; err == nil; n++ {
			_, err = g.nextRequest()
		}
		if want := svcMaxJobs / svcClients; n-1 < want {
			t.Errorf("client %d: catalogue ran out after %d requests, want at least %d", id, n-1, want)
		}
		if !strings.Contains(err.Error(), "catalogue exhausted") {
			t.Errorf("client %d: exhaustion error %q does not say so", id, err)
		}
	}
}

func TestClientsSplitPools(t *testing.T) {
	cat := newCatalogue()
	mine := map[string]bool{}
	for _, r := range take(newGenerator(cat, 1, 0, 2), 2000) {
		if r.class != classHit {
			mine[key(r.req)] = true
		}
	}
	for _, r := range take(newGenerator(cat, 1, 1, 2), 2000) {
		if r.class != classHit && mine[key(r.req)] {
			t.Fatalf("both clients send %s", key(r.req))
		}
	}
}

func key(r any) string {
	b, _ := json.Marshal(r)
	return string(b)
}
