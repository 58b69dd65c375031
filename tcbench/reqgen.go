package main

import (
	"fmt"
	"math/rand"

	"tcsim"
	"tcsim/client"
	"tcsim/internal/server"
)

// Service-mix budgets. tcexp sends 200k-instruction figure jobs and 2M
// sampled validation jobs; service-mix scales both by 1/20. At 200k a
// replay job takes about 0.5 s on a node's single worker, so a 30 s run
// would complete about 120 jobs, far below the 1000 that a p99 with ten
// samples beyond it needs. Capture jobs run a few instructions more than
// svcInsts, so each is a new workload x budget.
const (
	svcInsts        = 10_000
	svcSampledInsts = 100_000
)

// svcMaxJobs is how many jobs one run (both phases, both clients) can
// send before the catalogue runs out: about six times the 2k a 30 s
// run completed on the 2-core host the benchmark was tuned on. A run
// that goes beyond fails with a message saying so.
const svcMaxJobs = 12_000

// jobClass is a service-mix request class.
type jobClass int

const (
	classHit     jobClass = iota // repeats an earlier request
	classReplay                  // new machine config on a resident workload x budget
	classCapture                 // first request of a new workload x budget
	classSampled                 // small seek-mode sampled job on a resident trace
	numClasses
)

var classNames = [numClasses]string{"hit", "replay", "capture", "sampled"}

// classShares fixes the mix: every block of blockLen requests holds
// exactly this many of each class, in a seeded order. They are the class
// counts of one `tcexp -exp all` and one `tcexp -exp sampling` session
// replayed cell by cell through the service (120 hits, 210 replays, 30
// captures and 30 sampled jobs of 390; see deriveMix), divided by 30.
var classShares = [numClasses]int{4, 7, 1, 1}

func blockLen() int {
	n := 0
	for _, k := range classShares {
		n += k
	}
	return n
}

// poolLen is how many requests of class cl the catalogue holds: enough
// for svcMaxJobs jobs, rounded up to whole rounds of one request per
// program per client.
func poolLen(cl jobClass) int {
	blocks := (svcMaxJobs + blockLen() - 1) / blockLen()
	round := len(tcsim.Workloads()) * svcClients
	return (blocks*classShares[cl] + round - 1) / round * round
}

// catalogue is the fixed universe of service-mix requests. A seed only
// chooses the order they are sent in, so the golden record can hold a
// digest for every one.
type catalogue struct {
	// warm requests run in set-up: they make the replay and sampled
	// traces resident and seed every client's hit history.
	warm  []client.JobRequest
	pools [numClasses][]client.JobRequest // classHit's pool is unused
}

// poolBuilder fills one pool with requests whose canonical job keys are
// new to the catalogue, one variant at a time across every program.
type poolBuilder struct {
	seen map[string]bool
}

func (b *poolBuilder) key(r client.JobRequest) string {
	_, k, err := server.ResolveConfig(&r, server.Limits{})
	if err != nil {
		panic(fmt.Sprintf("tcbench: catalogue request %+v: %v", r, err))
	}
	return k
}

// add appends variant v for every program unless the pool is full or one
// of them repeats an earlier key.
func (b *poolBuilder) add(pool *[]client.JobRequest, want int, v client.JobRequest) {
	if len(*pool) >= want {
		return
	}
	var batch []client.JobRequest
	for _, w := range tcsim.Workloads() {
		r := v
		r.Workload = w
		if b.seen[b.key(r)] {
			return
		}
		batch = append(batch, r)
	}
	for _, r := range batch {
		b.seen[b.key(r)] = true
	}
	*pool = append(*pool, batch...)
}

func newCatalogue() *catalogue {
	c := &catalogue{}
	b := &poolBuilder{seen: map[string]bool{}}
	for _, w := range tcsim.Workloads() {
		c.warm = append(c.warm,
			client.JobRequest{Workload: w, Insts: svcInsts, Preset: client.PresetAll},
			sampledJob(w, 25_000, 2_500, 2_500, ""))
	}
	for _, r := range c.warm {
		b.seen[b.key(r)] = true
	}
	// Replays vary the pass pipeline, as the figures do, and the fill
	// unit and trace cache around it.
	specs := [][]string{nil, tcsim.DefaultPassSpec()} // nil = baseline
	var every []string
	for _, p := range tcsim.Passes() {
		specs = append(specs, []string{p.Name})
		every = append(every, p.Name)
	}
	specs = append(specs, every)
	pool, want := &c.pools[classReplay], poolLen(classReplay)
	for _, fill := range []int{1, 3, 5, 10} {
		for _, tc := range []string{"", "srrip", "trrip"} {
			for _, spec := range specs {
				for flags := 0; flags < 8; flags++ {
					b.add(pool, want, client.JobRequest{
						Insts: svcInsts, Passes: spec, FillLatency: fill, TCPolicy: tc,
						NoPromotion: flags&1 != 0, NoPacking: flags&2 != 0, NoInactive: flags&4 != 0,
					})
				}
			}
		}
	}
	pool, want = &c.pools[classCapture], poolLen(classCapture)
	for k := uint64(1); len(*pool) < want; k++ {
		b.add(pool, want, client.JobRequest{Insts: svcInsts + 8*k, Preset: client.PresetAll})
	}
	pool, want = &c.pools[classSampled], poolLen(classSampled)
	for _, period := range []uint64{10_000, 12_500, 20_000, 25_000} {
		for _, window := range []uint64{1_000, 2_000, 3_000} {
			for _, warmup := range []uint64{1_000, 2_000, 4_000} {
				for _, tc := range []string{"", "srrip"} {
					b.add(pool, want, sampledJob("", period, window, warmup, tc))
				}
			}
		}
	}
	return c
}

func sampledJob(w string, period, window, warmup uint64, tc string) client.JobRequest {
	return client.JobRequest{
		Workload: w, Insts: svcSampledInsts, Preset: client.PresetAll, TCPolicy: tc,
		SamplePeriod: period, SampleWindow: window, SampleWarmup: warmup, SampleSeek: true,
	}
}

// request is one generated service-mix request.
type request struct {
	class jobClass
	req   client.JobRequest
}

// generator yields one client's request sequence. Clients split every
// pool between them (entry i belongs to client i mod clients), so no two
// clients ever send the same new request, and a hit repeats a request of
// the same client's own history, which has always completed. The seed
// shuffles each client's pool only within windows of one entry per
// workload: runs of any seed then send the same workloads in the same
// proportions, in a different order, so per-class latency does not
// swing with which programs a seed happened to draw.
type generator struct {
	rng     *rand.Rand
	block   []jobClass
	pools   [numClasses][]client.JobRequest
	next    [numClasses]int
	history []client.JobRequest
}

func newGenerator(c *catalogue, seed int64, clientID, clients int) *generator {
	g := &generator{
		rng:     rand.New(rand.NewSource(seed*7919 + int64(clientID))),
		history: append([]client.JobRequest(nil), c.warm...),
	}
	window := len(tcsim.Workloads())
	for cl := range c.pools {
		for i, r := range c.pools[cl] {
			if i%clients == clientID {
				g.pools[cl] = append(g.pools[cl], r)
			}
		}
		pool := g.pools[cl]
		for lo := 0; lo < len(pool); lo += window {
			w := pool[lo:min(lo+window, len(pool))]
			g.rng.Shuffle(len(w), func(i, j int) { w[i], w[j] = w[j], w[i] })
		}
	}
	return g
}

// nextRequest returns the next request, or an error once a pool is used
// up: the run then sent more than svcMaxJobs jobs.
func (g *generator) nextRequest() (request, error) {
	if len(g.block) == 0 {
		for cl, n := range classShares {
			for i := 0; i < n; i++ {
				g.block = append(g.block, jobClass(cl))
			}
		}
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	cl := g.block[0]
	g.block = g.block[1:]
	if cl == classHit {
		return request{class: cl, req: g.history[g.rng.Intn(len(g.history))]}, nil
	}
	if g.next[cl] >= len(g.pools[cl]) {
		return request{}, fmt.Errorf("service-mix catalogue exhausted: all %d %s requests of this client were sent; the run went past svcMaxJobs=%d jobs, so raise it and re-record golden.json",
			len(g.pools[cl]), classNames[cl], svcMaxJobs)
	}
	r := g.pools[cl][g.next[cl]]
	g.next[cl]++
	g.history = append(g.history, r)
	return request{class: cl, req: r}, nil
}
