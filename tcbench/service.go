package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tcsim"
	"tcsim/client"
	"tcsim/internal/cluster"
	"tcsim/internal/obs"
	"tcsim/internal/server"
)

// svcClients is the closed loop's size: each client waits for its reply
// before sending the next request, as tcexp and scripts do.
const svcClients = 2

// minTailSamples is how many samples must lie beyond a reported tail
// percentile; p99 therefore needs at least 1000 jobs.
const (
	minTailSamples = 10
	svcMinJobs     = 100 * minTailSamples
)

// svcCluster is an in-process tcgate over two tcserved nodes, each with
// its own trace store and one simulation worker, all on loopback.
type svcCluster struct {
	gwURL    string
	nodeURLs []string
	stores   []*tcsim.TraceStore
	servers  []*server.Server
	https    []*http.Server
	gw       *cluster.Gateway
	gwHTTP   *http.Server
}

func bootCluster(ctx context.Context) (*svcCluster, error) {
	// Listen first: the nodes need the gateway's URL for their trace CDN
	// before the gateway, which needs theirs, exists.
	var lns []net.Listener // gateway, then one per node
	for i := 0; i < 3; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	c := &svcCluster{gwURL: "http://" + lns[0].Addr().String()}
	var nodes []cluster.Node
	for i, ln := range lns[1:] {
		st := tcsim.NewTraceStore(0)
		st.SetFetcher(cluster.TraceFetcher(c.gwURL, nil))
		name := fmt.Sprintf("node%d", i)
		srv := server.New(server.Config{
			Engine:  server.EngineConfig{Workers: 1, Store: st},
			Logger:  quiet,
			Service: name,
		})
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		url := "http://" + ln.Addr().String()
		c.stores = append(c.stores, st)
		c.servers = append(c.servers, srv)
		c.https = append(c.https, hs)
		c.nodeURLs = append(c.nodeURLs, url)
		nodes = append(nodes, cluster.Node{Name: name, URL: url})
	}
	gw, err := cluster.New(cluster.Config{Nodes: nodes, Logger: quiet})
	if err != nil {
		lns[0].Close()
		c.close()
		return nil, err
	}
	gw.Start()
	c.gw = gw
	c.gwHTTP = &http.Server{Handler: gw.Handler()}
	go c.gwHTTP.Serve(lns[0])
	if err := client.New(c.gwURL).Ready(ctx); err != nil {
		c.close()
		return nil, fmt.Errorf("gateway readiness: %w", err)
	}
	return c, nil
}

// close shuts the gateway and the nodes down and waits for them.
func (c *svcCluster) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if c.gwHTTP != nil {
		c.gwHTTP.Shutdown(ctx)
		c.gw.Shutdown(ctx)
	}
	for i := range c.https {
		c.https[i].Shutdown(ctx)
		c.servers[i].Shutdown(ctx)
	}
}

// emulated is how many streams the nodes emulated: captures that were
// neither loaded from disk nor fetched from a peer.
func (c *svcCluster) emulated() uint64 {
	var n uint64
	for _, st := range c.stores {
		s := st.Stats()
		n += s.Captures - s.DiskLoads - s.CDNFetches
	}
	return n
}

// warm runs the catalogue's set-up requests one by one.
func (c *svcCluster) warm(ctx context.Context, cat *catalogue) error {
	cl := client.New(c.gwURL)
	for i := range cat.warm {
		if _, err := cl.SubmitJob(ctx, &cat.warm[i]); err != nil {
			return fmt.Errorf("warm %s: %w", cat.warm[i].Workload, err)
		}
	}
	return nil
}

// jobSample is one completed (or failed) service-mix job.
type jobSample struct {
	class  jobClass
	insts  uint64 // the request's instruction budget
	ms     float64
	cached bool
	err    error
}

// svcPhase is one closed-loop phase.
type svcPhase struct {
	jobs     []jobSample
	wall     float64
	emulated uint64 // streams the nodes emulated during the phase
}

// latencies returns the completed jobs' latencies in ms, of the given
// classes or of every class when none is given.
func (p *svcPhase) latencies(classes ...jobClass) []float64 {
	var xs []float64
	for _, j := range p.jobs {
		if j.err == nil && (len(classes) == 0 || slices.Contains(classes, j.class)) {
			xs = append(xs, j.ms)
		}
	}
	return xs
}

// instRate is the instruction budget of the completed jobs per second of
// the closed loop: how fast callers receive simulated instructions,
// whether a node simulated them or served them from its cache.
func (p *svcPhase) instRate() float64 {
	var n uint64
	for _, j := range p.jobs {
		if j.err == nil {
			n += j.insts
		}
	}
	return float64(n) / p.wall
}

// misclassified counts jobs whose observed behaviour contradicts their
// class: a hit must come back cached and nothing else may, and the nodes
// must have emulated exactly one stream per capture job.
func (p *svcPhase) misclassified() int {
	bad, captures := 0, 0
	for _, j := range p.jobs {
		if j.err != nil {
			continue
		}
		if j.cached != (j.class == classHit) {
			bad++
		}
		if j.class == classCapture {
			captures++
		}
	}
	d := int(p.emulated) - captures
	if d < 0 {
		d = -d
	}
	return bad + d
}

// loop drives the closed loop for d, and on until minJobs completed, with
// request IDs prefixed by tag so spans can be matched to the phase.
func (c *svcCluster) loop(ctx context.Context, gens []*generator, d time.Duration, minJobs int, tag string, g *golden) *svcPhase {
	p := &svcPhase{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var stopped atomic.Bool
	e0 := c.emulated()
	start := time.Now()
	hardStop := start.Add(max(3*d, time.Minute))
	for ci := range gens {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cl := client.New(c.gwURL)
			for n := 0; ; n++ {
				mu.Lock()
				done := len(p.jobs)
				mu.Unlock()
				if el := time.Since(start); (el >= d && done >= minJobs) || time.Now().After(hardStop) {
					return
				}
				if stopped.Load() {
					return
				}
				r, err := gens[ci].nextRequest()
				if err != nil {
					// Counted as a failed job, and the other clients stop
					// too, so the run fails rather than quietly measuring
					// fewer clients.
					stopped.Store(true)
					mu.Lock()
					p.jobs = append(p.jobs, jobSample{class: r.class, err: err})
					mu.Unlock()
					return
				}
				rctx := client.WithRequestID(ctx, fmt.Sprintf("%s-%d-%d", tag, ci, n))
				t0 := time.Now()
				job, err := cl.SubmitJob(rctx, &r.req)
				s := jobSample{class: r.class, insts: r.req.Insts, ms: float64(time.Since(t0).Nanoseconds()) / 1e6, err: err}
				if err == nil {
					s.cached = job.Cached
					if job.State != client.StateDone {
						s.err = fmt.Errorf("job %s (%s): state %s: %s", job.ID, r.req.Workload, job.State, job.Error)
					} else {
						s.err = g.checkService(job.Key, job.Result)
					}
				}
				mu.Lock()
				p.jobs = append(p.jobs, s)
				mu.Unlock()
			}
		}(ci)
	}
	wg.Wait()
	p.wall = time.Since(start).Seconds()
	p.emulated = c.emulated() - e0
	return p
}

// runServiceMix is the service-mix workload: a closed loop of clients
// against an in-process gateway over two nodes, mixing cache hits,
// replays, captures and sampled jobs in fixed shares.
func runServiceMix(ctx context.Context, o options, stderr io.Writer) (*report, error) {
	rep := newReport(o.trace)
	cat := newCatalogue()
	var c *svcCluster
	setup, err := timeSetup(func() error {
		if c != nil {
			c.close()
		}
		var err error
		if c, err = bootCluster(ctx); err != nil {
			return err
		}
		return c.warm(ctx, cat)
	})
	if err != nil {
		if c != nil {
			c.close()
		}
		return nil, err
	}
	defer c.close()
	rep.set("setup_s", setup)

	var gens []*generator
	for i := 0; i < svcClients; i++ {
		gens = append(gens, newGenerator(cat, o.seed, i, svcClients))
	}
	plain := c.loop(ctx, gens, o.phase(), svcMinJobs, "p", o.golden)
	for _, j := range plain.jobs {
		rep.op(j.err, stderr)
	}
	if len(plain.jobs) < svcMinJobs {
		return nil, fmt.Errorf("only %d jobs completed; p99 needs %d", len(plain.jobs), svcMinJobs)
	}
	rep.set("sim_inst_per_s", plain.instRate())
	rep.set("svc_jobs_per_s", float64(len(plain.jobs))/plain.wall)
	rep.set("svc_p50_ms", median(plain.latencies()))
	if p99, ok := tailPercentile(plain.latencies(), 99, minTailSamples); ok {
		rep.set("svc_p99_ms", p99)
	}
	for cl := jobClass(0); cl < numClasses; cl++ {
		rep.set("svc_"+classNames[cl]+"_p50_ms", median(plain.latencies(cl)))
	}
	if !o.trace {
		return rep, nil
	}

	scr := newScraper(c)
	m0, err := scr.metrics(ctx)
	if err != nil {
		return nil, err
	}
	if err := scr.baseline(ctx); err != nil {
		return nil, err
	}
	var traced *svcPhase
	f, err := profiled(func() error {
		stop := scr.every(ctx, 2*time.Second)
		traced = c.loop(ctx, gens, o.phase(), svcMinJobs, "t", o.golden)
		return stop()
	})
	if err != nil {
		return nil, err
	}
	m1, err := scr.metrics(ctx)
	if err != nil {
		return nil, err
	}
	for _, j := range traced.jobs {
		rep.op(j.err, stderr)
	}
	hops := scr.hops("t-")
	for _, name := range []string{"queue_wait", "cache_lookup", "singleflight_wait", "trace_capture", "cdn_fetch", "run"} {
		rep.set("server."+name+"_ms", median(hops[name]))
	}
	rep.set("cluster.attempt_ms", median(hops["attempt"]))
	rep.set("cluster.gateway_self_ms", median(hops["gateway_self"]))
	delta := func(sample string) float64 { return m1.sum(sample) - m0.sum(sample) }
	hits := delta(`tcserved_cache_requests_total{result="hit"}`)
	if lookups := hits + delta(`tcserved_cache_requests_total{result="miss"}`); lookups > 0 {
		rep.set("server.cache_hit_ratio", hits/lookups)
	}
	rep.set("server.rejected_429", delta(`tcserved_jobs_total{event="rejected"}`))
	rep.set("cluster.retries", delta("tcgate_retries_total"))
	rep.set("cluster.rehashes", delta("tcgate_rehashes_total"))
	rep.set("client.misclassified_jobs", float64(traced.misclassified()))
	rep.set("obs.spans_lost", float64(scr.lost()))

	var captures, replays uint64
	var resident int64
	for _, st := range c.stores {
		s := st.Stats()
		captures += s.Captures
		replays += s.ReplayHits
		resident += s.ResidentBytes
	}
	// Every emulated stream is a capture job's, about svcInsts long.
	rep.set("emu.ns_per_inst", perInst(f.under(emuStep), traced.emulated*svcInsts))
	rep.set("tracestore.captures", float64(captures))
	rep.set("tracestore.replay_hits", float64(replays))
	rep.set("tracestore.resident_mb", float64(resident)/1e6)
	rep.set("obs.trace_overhead_pct", overheadPct(plain.wall/float64(len(plain.jobs)), traced.wall/float64(len(traced.jobs))))
	return rep, nil
}

// scraper collects /debug/spans and /metrics from the gateway and the
// nodes, keeping every span it has seen by (service, span ID).
type scraper struct {
	urls  []string
	hc    *http.Client
	mu    sync.Mutex
	spans map[string]obs.Span
	held  map[string]uint64 // URL -> spans ever recorded (held + dropped) at the last scrape

	// Totals at the baseline scrape, so lost counts only later spans.
	baseHeld, baseSeen uint64
}

func newScraper(c *svcCluster) *scraper {
	return &scraper{
		urls:  append([]string{c.gwURL}, c.nodeURLs...),
		hc:    &http.Client{Timeout: 30 * time.Second},
		spans: map[string]obs.Span{},
		held:  map[string]uint64{},
	}
}

func (s *scraper) get(ctx context.Context, url string, out func(io.Reader) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return out(resp.Body)
}

// scrapeSpans pulls every process's span ring once.
func (s *scraper) scrapeSpans(ctx context.Context) error {
	for _, u := range s.urls {
		var dump obs.SpanDump
		err := s.get(ctx, u+"/debug/spans", func(r io.Reader) error { return json.NewDecoder(r).Decode(&dump) })
		if err != nil {
			return err
		}
		s.mu.Lock()
		for _, sp := range dump.Spans {
			s.spans[sp.Service+"/"+sp.SpanID] = sp
		}
		s.held[u] = uint64(len(dump.Spans)) + dump.Dropped
		s.mu.Unlock()
	}
	return nil
}

// every scrapes spans every interval until the returned stop is called;
// stop scrapes a last time and reports the first error.
func (s *scraper) every(ctx context.Context, interval time.Duration) (stop func() error) {
	done := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				errc <- nil
				return
			case <-t.C:
				if err := s.scrapeSpans(ctx); err != nil {
					errc <- err
					return
				}
			}
		}
	}()
	return func() error {
		close(done)
		if err := <-errc; err != nil {
			return err
		}
		return s.scrapeSpans(ctx)
	}
}

func (s *scraper) totals() (held, seen uint64) {
	for _, n := range s.held {
		held += n
	}
	return held, uint64(len(s.spans))
}

// baseline scrapes once and marks the point from which lost counts.
func (s *scraper) baseline(ctx context.Context) error {
	if err := s.scrapeSpans(ctx); err != nil {
		return err
	}
	s.mu.Lock()
	s.baseHeld, s.baseSeen = s.totals()
	s.mu.Unlock()
	return nil
}

// lost is how many spans the processes recorded after the baseline that
// no scrape saw before their rings overwrote them.
func (s *scraper) lost() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	held, seen := s.totals()
	recorded, scraped := held-s.baseHeld, seen-s.baseSeen
	if recorded > scraped {
		return int(recorded - scraped)
	}
	return 0
}

// hops folds the spans of requests whose ID starts with prefix into
// per-hop durations in ms. Node spans are keyed by their span name;
// cache_lookup is the time from the node's request span start to the
// lookup's outcome event (the event itself is instantaneous);
// gateway_self is each gateway root span minus its attempt spans.
func (s *scraper) hops(prefix string) map[string][]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string][]float64{}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	byID := map[string]obs.Span{}
	for _, sp := range s.spans {
		byID[sp.Service+"/"+sp.SpanID] = sp
	}
	attempts := map[string]time.Duration{} // gateway root span ID -> attempt time
	for _, sp := range s.spans {
		if !strings.HasPrefix(sp.TraceID, prefix) {
			continue
		}
		d := sp.End.Sub(sp.Start)
		switch sp.Name {
		case "queue-wait", "singleflight-wait", "trace-capture", "cdn-fetch", "run":
			name := strings.ReplaceAll(sp.Name, "-", "_")
			out[name] = append(out[name], ms(d))
		case "cache-lookup":
			if parent, ok := byID[sp.Service+"/"+sp.ParentID]; ok {
				out["cache_lookup"] = append(out["cache_lookup"], ms(sp.Start.Sub(parent.Start)))
			}
		case "attempt":
			out["attempt"] = append(out["attempt"], ms(d))
			attempts[sp.ParentID] += d
		}
	}
	for _, sp := range s.spans {
		if sp.Service == "tcgate" && sp.ParentID == "" && strings.HasPrefix(sp.TraceID, prefix) {
			if a, ok := attempts[sp.SpanID]; ok {
				out["gateway_self"] = append(out["gateway_self"], ms(sp.End.Sub(sp.Start)-a))
			}
		}
	}
	return out
}

// expo is a set of parsed /metrics expositions, one per process.
type expo []map[string]float64

func (e expo) sum(sample string) float64 {
	t := 0.0
	for _, m := range e {
		t += m[sample]
	}
	return t
}

// metrics scrapes /metrics from the nodes. The gateway's exposition is
// included for its own tcgate_ counters (it re-emits node counters under
// other names, so sums over tcserved_ names are not doubled).
func (s *scraper) metrics(ctx context.Context) (expo, error) {
	var out expo
	for _, u := range s.urls {
		var m map[string]float64
		err := s.get(ctx, u+"/metrics", func(r io.Reader) error {
			b, err := io.ReadAll(r)
			if err != nil {
				return err
			}
			m, err = obs.ParseExposition(b)
			return err
		})
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// recordService runs every catalogue request once through a fresh
// cluster, from svcClients clients at a time, and returns each canonical
// job key's result digest.
func recordService(ctx context.Context, log io.Writer) (map[string]string, error) {
	c, err := bootCluster(ctx)
	if err != nil {
		return nil, err
	}
	defer c.close()
	cat := newCatalogue()
	reqs := append([]client.JobRequest(nil), cat.warm...)
	for _, pool := range cat.pools {
		reqs = append(reqs, pool...)
	}
	out := map[string]string{}
	var mu sync.Mutex
	var firstErr error
	var next atomic.Int64
	var wg sync.WaitGroup
	for ci := 0; ci < svcClients; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := client.New(c.gwURL)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				job, err := cl.SubmitJob(ctx, &reqs[i])
				if err == nil && (job.State != client.StateDone || job.Result == nil) {
					err = fmt.Errorf("state %s: %s", job.State, job.Error)
				}
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("record %+v: %w", reqs[i], err)
					}
					next.Store(int64(len(reqs)))
				} else {
					out[job.Key] = resultDigest(job.Result)
				}
				mu.Unlock()
				if i%500 == 0 {
					fmt.Fprintf(log, "recorded %d/%d service jobs\n", i, len(reqs))
				}
			}
		}()
	}
	wg.Wait()
	return out, firstErr
}
