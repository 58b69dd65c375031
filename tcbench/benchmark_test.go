package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatches keeps ../BENCHMARK.json, which declares the
// metrics to whoever runs the benchmark, in step with what it reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %s has no runner", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for _, d := range append(spec.EndToEnd, spec.PerLayer...) {
		if units[d.Name] != d.Unit {
			t.Errorf("metric %s declared in %q, reported in %q", d.Name, d.Unit, units[d.Name])
		}
		seen[d.Name] = true
	}
	for _, d := range spec.EndToEnd {
		if !isEndToEnd(d.Name) {
			t.Errorf("%s is declared end-to-end but reported per layer", d.Name)
		}
	}
	for name := range units {
		if !seen[name] {
			t.Errorf("reported metric %s is not declared", name)
		}
	}
}
