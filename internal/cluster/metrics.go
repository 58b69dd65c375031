package cluster

import (
	"context"
	"net/http"
	"sync"
	"time"

	"tcsim/internal/obs"
)

// scrapeTimeout bounds the per-node /metrics fetch during a
// gateway exposition. A slow node costs one scrape interval, not a
// hung dashboard.
const scrapeTimeout = 2 * time.Second

// handleMetrics implements GET /metrics: the gateway's own counters
// plus a live per-node scrape aggregated under a `node` label, so one
// Prometheus target observes the whole cluster — queue depths, cache
// hits, and the trace CDN's capture-once economics.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// A nil entry is a node whose exposition failed to fetch or parse.
	scrapes := make([]map[string]float64, len(g.nodes))
	var wg sync.WaitGroup
	for i := range g.nodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), scrapeTimeout)
			defer cancel()
			if m, err := g.probeClients[i].Metrics(ctx); err == nil {
				scrapes[i] = m
			}
		}(i)
	}
	wg.Wait()

	w.Header().Set("Content-Type", obs.ExpoContentType)
	e := obs.NewExpo(w)

	e.Gauge("tcgate_uptime_seconds", "Seconds since the gateway started.",
		time.Since(g.met.start).Seconds())
	e.Gauge("tcgate_nodes", "Configured backend nodes.", float64(len(g.nodes)))
	e.Gauge("tcgate_nodes_healthy", "Backend nodes currently routable.", float64(g.Healthy()))
	e.Gauge("tcgate_ring_points", "Virtual nodes on the consistent-hash ring.",
		float64(len(g.ring.points)))
	e.CounterVec("tcgate_jobs_proxied_total", "Jobs proxied through the gateway by outcome.",
		[]obs.LabeledValue{
			{Labels: [][2]string{{"outcome", "ok"}}, Value: float64(g.met.jobsOK.Load())},
			{Labels: [][2]string{{"outcome", "error"}}, Value: float64(g.met.jobsErr.Load())},
		})
	e.Counter("tcgate_sweep_cells_total", "Sweep cells fanned out across the cluster.",
		float64(g.met.sweepCells.Load()))
	e.Counter("tcgate_retries_total", "Same-node retry attempts (backoff, Retry-After honored).",
		float64(g.met.retries.Load()))
	e.Counter("tcgate_rehashes_total", "Requests re-hashed to a later ring replica.",
		float64(g.met.rehashes.Load()))
	e.Counter("tcgate_demotions_total", "Node demotions (probe or proxy failure).",
		float64(g.met.demotions.Load()))
	e.Counter("tcgate_promotions_total", "Node promotions back into rotation.",
		float64(g.met.promotions.Load()))
	e.CounterVec("tcgate_trace_proxy_total", "Trace CDN proxy lookups by outcome.",
		[]obs.LabeledValue{
			{Labels: [][2]string{{"outcome", "hit"}}, Value: float64(g.met.traceHits.Load())},
			{Labels: [][2]string{{"outcome", "miss"}}, Value: float64(g.met.traceMisses.Load())},
		})

	// Per-node families. tcgate_node_up reflects this scrape (a node the
	// gateway routes to but cannot scrape is down for dashboard purposes).
	up := make([]obs.LabeledValue, len(g.nodes))
	for i, n := range g.nodes {
		v := 0.0
		if scrapes[i] != nil {
			v = 1
		}
		up[i] = obs.LabeledValue{Labels: [][2]string{{"node", n.Name}}, Value: v}
	}
	e.GaugeVec("tcgate_node_up", "Whether the node answered this scrape.", up)

	// nodeFamily relabels tcserved samples, read by name from each
	// scraped node, under a `node` label, plus an `outcome` label where
	// the pair's outcome (its first element) is non-empty. Samples a
	// node does not expose are skipped, and a family with no rows is
	// omitted.
	nodeFamily := func(emit func(string, string, []obs.LabeledValue), name, help string, samples ...[2]string) {
		var rows []obs.LabeledValue
		for i, n := range g.nodes {
			for _, s := range samples {
				v, ok := scrapes[i][s[1]]
				if !ok {
					continue
				}
				l := [][2]string{{"node", n.Name}}
				if s[0] != "" {
					l = append(l, [2]string{"outcome", s[0]})
				}
				rows = append(rows, obs.LabeledValue{Labels: l, Value: v})
			}
		}
		if len(rows) > 0 {
			emit(name, help, rows)
		}
	}

	nodeFamily(e.GaugeVec, "tcgate_node_queue_depth", "Jobs admitted and waiting on the node.",
		[2]string{"", "tcserved_queue_depth"})
	nodeFamily(e.GaugeVec, "tcgate_node_in_flight", "Jobs simulating on the node right now.",
		[2]string{"", "tcserved_jobs_in_flight"})
	nodeFamily(e.CounterVec, "tcgate_node_cache_total", "Node result-cache traffic.",
		[2]string{"hit", `tcserved_cache_requests_total{result="hit"}`},
		[2]string{"miss", `tcserved_cache_requests_total{result="miss"}`})
	nodeFamily(e.CounterVec, "tcgate_node_tracestore_total", "Node trace-store traffic.",
		[2]string{"capture", "tcserved_tracestore_captures_total"},
		[2]string{"replay", "tcserved_tracestore_replay_hits_total"},
		[2]string{"disk_load", `tcserved_tracestore_disk_total{outcome="load"}`},
		[2]string{"cdn_serve", `tcserved_tracestore_cdn_total{outcome="serve"}`},
		[2]string{"cdn_fetch", `tcserved_tracestore_cdn_total{outcome="fetch"}`},
		[2]string{"cdn_reject", `tcserved_tracestore_cdn_total{outcome="reject"}`})
}
