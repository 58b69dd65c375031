package exec

import (
	"fmt"

	"tcsim/internal/cache"
	"tcsim/internal/isa"
)

// Config sizes the backend. Zero values take the paper's configuration.
type Config struct {
	Clusters            int // paper: 4
	FUsPerCluster       int // paper: 4
	RSPerFU             int // paper: 32
	WindowSize          int // in-flight instruction cap
	CrossClusterPenalty int // paper: 1 extra cycle
	IntLatency          int // simple ALU / branch / scaled-add
	MulLatency          int
	DivLatency          int
	AgenLatency         int // address generation before the D-cache access
}

// DefaultConfig is the paper's backend.
func DefaultConfig() Config {
	return Config{
		Clusters:            4,
		FUsPerCluster:       4,
		RSPerFU:             32,
		WindowSize:          512,
		CrossClusterPenalty: 1,
		IntLatency:          1,
		MulLatency:          3,
		DivLatency:          12,
		AgenLatency:         1,
	}
}

// maxClusters and maxFUs bound the backend geometry. The engine
// allocates per-FU state up front, so an unbounded product would ask
// for an arbitrary amount of memory (or overflow the slice length).
// The bounds sit far above any machine the paper or the experiments
// model (4 x 4 clusters; ablations up to 8 x 2 and 1 x 16).
const (
	maxClusters = 64
	maxFUs      = 256
)

// ValidateGeometry checks a clusters x fusPerCluster backend against
// maxClusters and maxFUs. Non-positive values select the default and
// are accepted.
func ValidateGeometry(clusters, fusPerCluster int) error {
	c := Config{Clusters: clusters, FUsPerCluster: fusPerCluster}.normalize()
	if c.Clusters > maxClusters || c.FUsPerCluster > maxFUs || c.Clusters*c.FUsPerCluster > maxFUs {
		return fmt.Errorf("exec: %d clusters x %d FUs per cluster exceeds the backend bound (at most %d clusters and %d FUs in total)",
			clusters, fusPerCluster, maxClusters, maxFUs)
	}
	return nil
}

func (c Config) normalize() Config {
	d := DefaultConfig()
	if c.Clusters <= 0 {
		c.Clusters = d.Clusters
	}
	if c.FUsPerCluster <= 0 {
		c.FUsPerCluster = d.FUsPerCluster
	}
	if c.RSPerFU <= 0 {
		c.RSPerFU = d.RSPerFU
	}
	if c.WindowSize <= 0 {
		c.WindowSize = d.WindowSize
	}
	if c.CrossClusterPenalty <= 0 {
		c.CrossClusterPenalty = d.CrossClusterPenalty
	}
	if c.IntLatency <= 0 {
		c.IntLatency = d.IntLatency
	}
	if c.MulLatency <= 0 {
		c.MulLatency = d.MulLatency
	}
	if c.DivLatency <= 0 {
		c.DivLatency = d.DivLatency
	}
	if c.AgenLatency <= 0 {
		c.AgenLatency = d.AgenLatency
	}
	return c
}

// Stats counts backend activity.
type Stats struct {
	Dispatched     uint64
	LoadsForwarded uint64
	LoadsAccessed  uint64
	LoadsBlocked   uint64 // load-cycles spent blocked behind unknown store addresses
}

// Engine is the out-of-order backend: the instruction window, the
// clustered reservation stations and functional units, and the memory
// scheduler.
//
// The window is a power-of-two ring buffer in fetch order, so the
// per-cycle head pruning is O(retired) instead of an O(window) memmove,
// and occupancy/RS/branch counts are maintained incrementally instead
// of recounted by scanning.
type Engine struct {
	cfg  Config
	hier *cache.Hierarchy

	buf  []*UOp // power-of-two ring; fetch (Seq) order
	head int
	n    int

	live         int // issued, not yet retired or dead
	inRS         int // uops currently holding a reservation-station entry
	movesWaiting int // marked moves that have not adopted a result yet
	inactive     int // live inactive-issued uops
	unresolved   int // live unresolved control transfers

	rsCount    []int
	dispatched []bool // per-FU per-cycle scratch
	rsNeed     []int  // per-FU scratch for RSSpaceFor

	stores    []*UOp // live stores in fetch order (compacted each prune)
	waitLoads []*UOp // loads past AGEN waiting on the memory scheduler

	Stats Stats
}

// NewEngine builds a backend over the given memory hierarchy.
func NewEngine(cfg Config, hier *cache.Hierarchy) *Engine {
	cfg = cfg.normalize()
	ringCap := 64
	for ringCap < 2*cfg.WindowSize {
		ringCap *= 2
	}
	nFU := cfg.Clusters * cfg.FUsPerCluster
	return &Engine{
		cfg:        cfg,
		hier:       hier,
		buf:        make([]*UOp, ringCap),
		rsCount:    make([]int, nFU),
		dispatched: make([]bool, nFU),
		rsNeed:     make([]int, nFU),
	}
}

// Config returns the normalized configuration.
func (e *Engine) Config() Config { return e.cfg }

// FUs returns the number of functional units (= issue slots).
func (e *Engine) FUs() int { return e.cfg.Clusters * e.cfg.FUsPerCluster }

// Len reports the window occupancy including not-yet-pruned retired and
// dead entries.
func (e *Engine) Len() int { return e.n }

// At returns the i-th window entry in fetch order (0 = oldest).
func (e *Engine) At(i int) *UOp { return e.buf[(e.head+i)&(len(e.buf)-1)] }

func (e *Engine) push(u *UOp) {
	if e.n == len(e.buf) {
		nb := make([]*UOp, 2*len(e.buf))
		mask := len(e.buf) - 1
		for i := 0; i < e.n; i++ {
			nb[i] = e.buf[(e.head+i)&mask]
		}
		e.buf = nb
		e.head = 0
	}
	e.buf[(e.head+e.n)&(len(e.buf)-1)] = u
	e.n++
}

// WindowSpace reports how many more uops fit in the window.
func (e *Engine) WindowSpace() int { return e.cfg.WindowSize - e.live }

// RSSpaceFor reports whether the reservation stations can absorb a group
// of uops destined for the given FU slots.
func (e *Engine) RSSpaceFor(slots []int) bool {
	for _, s := range slots {
		e.rsNeed[s]++
	}
	ok := true
	for _, s := range slots {
		if e.rsCount[s]+e.rsNeed[s] > e.cfg.RSPerFU {
			ok = false
			break
		}
	}
	for _, s := range slots {
		e.rsNeed[s] = 0
	}
	return ok
}

// Issue adds a renamed uop to the window (and its FU's reservation
// station when it needs one). The caller has already checked space.
func (e *Engine) Issue(u *UOp, cycle uint64) {
	u.IssueCycle = cycle
	u.Cluster = u.FU / e.cfg.FUsPerCluster
	switch {
	case u.MoveBit:
		// Executes in rename; result adopted from the producer.
		u.State = StateInRS // no RS entry; tracked for adoption
		e.tryAdoptMove(u)
		if !u.HasResult {
			e.movesWaiting++
		}
	case !u.NeedsFU():
		u.State = StateComplete
		u.Resolved = true // direct jumps never mispredict
		u.HasResult = true
		u.ResultTime = cycle
		u.ResultCluster = GlobalCluster
	default:
		u.State = StateInRS
		u.InRS = true
		e.rsCount[u.FU]++
		e.inRS++
	}
	e.live++
	if u.IsBranch && !u.Resolved {
		e.unresolved++
	}
	if u.Inactive {
		e.inactive++
	}
	if u.IsStore() {
		e.stores = append(e.stores, u)
	}
	e.push(u)
}

// tryAdoptMove completes a rename-executed move once its producer has a
// scheduled result: the move shares the producer's tag, so its value
// appears exactly when (and where) the producer's does.
func (e *Engine) tryAdoptMove(u *UOp) {
	if u.HasResult {
		return
	}
	if u.NSrc == 0 || u.SrcProd[0] == nil || u.SrcProd[0].Dead {
		u.HasResult = true
		u.ResultTime = u.IssueCycle
		u.ResultCluster = GlobalCluster
		u.State = StateComplete
		return
	}
	p := u.SrcProd[0]
	if p.HasResult {
		u.HasResult = true
		u.ResultTime = p.ResultTime
		if u.ResultTime < u.IssueCycle {
			u.ResultTime = u.IssueCycle
		}
		u.ResultCluster = p.ResultCluster
		u.State = StateComplete
	}
}

// latency returns the execution latency of a non-memory operation.
func (e *Engine) latency(op isa.Op) int {
	switch op {
	case isa.MUL:
		return e.cfg.MulLatency
	case isa.DIV:
		return e.cfg.DivLatency
	default:
		return e.cfg.IntLatency
	}
}

// Cycle advances the backend one cycle: adopts move results, dispatches
// ready uops (one per FU, oldest first), computes store data
// availability, and runs the memory scheduler.
func (e *Engine) Cycle(c uint64) {
	// Dispatch: oldest ready uop per FU. The window is in Seq order, so
	// the first ready candidate per FU is the oldest. The scan stops as
	// soon as every RS-resident uop has been considered.
	if e.inRS > 0 {
		d := e.dispatched
		for i := range d {
			d[i] = false
		}
		remaining := e.inRS
		for i := 0; i < e.n && remaining > 0; i++ {
			u := e.At(i)
			if u.Dead || !u.InRS {
				continue
			}
			remaining--
			if d[u.FU] {
				continue
			}
			ready, delayed, known := u.readyAt(u.Cluster, e.cfg.CrossClusterPenalty, u.IsMem())
			if !known || ready > c {
				continue
			}
			d[u.FU] = true
			u.InRS = false
			e.rsCount[u.FU]--
			e.inRS--
			u.DispatchCycle = c
			u.BypassDelayed = delayed
			u.HadOperands = u.NSrc > 0
			e.Stats.Dispatched++

			switch {
			case u.IsMem():
				u.AddrTime = c + uint64(e.cfg.AgenLatency)
				u.AddrKnown = true
				if u.IsLoad() {
					u.State = StateWaitMem
					// Keep the wait list in Seq order (loads dispatch out
					// of order): the memory scheduler must touch the data
					// cache oldest-load-first or same-cycle LRU updates
					// and allocations reorder and later misses shift.
					e.waitLoads = append(e.waitLoads, u)
					for j := len(e.waitLoads) - 1; j > 0 && e.waitLoads[j-1].Seq > u.Seq; j-- {
						e.waitLoads[j-1], e.waitLoads[j] = e.waitLoads[j], e.waitLoads[j-1]
					}
				} else {
					u.State = StateExecuting // store: waits for data
				}
			default:
				u.HasResult = true
				u.ResultTime = c + uint64(e.latency(u.Inst.Op))
				u.ResultCluster = u.Cluster
				u.State = StateComplete
			}
		}
	}

	// Move adoption after dispatch: a move whose producer scheduled this
	// cycle adopts the producer's result timing immediately.
	if e.movesWaiting > 0 {
		for i := 0; i < e.n; i++ {
			u := e.At(i)
			if u.MoveBit && !u.Dead && !u.HasResult {
				e.tryAdoptMove(u)
				if u.HasResult {
					e.movesWaiting--
				}
			}
		}
	}

	// Store data availability (data operands need not be ready at AGEN).
	for _, u := range e.stores {
		if u.Dead || u.Retired || !u.AddrKnown || u.State == StateComplete {
			continue
		}
		t, ok := e.storeDataAvail(u)
		if ok && t <= c {
			u.DataAvail = t
			u.State = StateComplete
		}
	}

	e.memSchedule(c)
}

// storeDataAvail returns when the store's data operands are available in
// its cluster.
func (e *Engine) storeDataAvail(u *UOp) (uint64, bool) {
	t := u.AddrTime
	for k := 0; k < u.NSrc; k++ {
		if u.SrcAddr[k] {
			continue
		}
		a, ok := u.operandAvail(k, u.Cluster, e.cfg.CrossClusterPenalty)
		if !ok {
			return 0, false
		}
		if a > t {
			t = a
		}
	}
	return t, true
}

// memSchedule implements the paper's memory scheduler: it "waits for
// addresses to be generated before scheduling memory operations", and
// "no memory operation can bypass a store with an unknown address".
// Loads with a known address either forward from the youngest older
// store to the same word (once its data is ready) or access the data
// cache.
//
// Rather than rescanning the whole window, the scheduler walks the live
// store list (fetch order) once to find the oldest store whose address
// is still unknown, then serves each waiting load against that bound.
func (e *Engine) memSchedule(c uint64) {
	if len(e.waitLoads) == 0 {
		return
	}
	minUnknown := ^uint64(0)
	for _, s := range e.stores {
		if s.Dead || s.Retired {
			continue
		}
		if !s.AddrKnown || s.AddrTime > c {
			minUnknown = s.Seq
			break // stores are in Seq order: the first unknown is the oldest
		}
	}
	kept := e.waitLoads[:0]
	for _, u := range e.waitLoads {
		if u.Dead || u.State != StateWaitMem {
			continue // completed or squashed: drop from the wait list
		}
		if u.AddrTime > c {
			kept = append(kept, u)
			continue
		}
		if minUnknown < u.Seq {
			e.Stats.LoadsBlocked++
			kept = append(kept, u)
			continue
		}
		var match *UOp
		for _, s := range e.stores {
			if s.Seq >= u.Seq {
				break
			}
			if s.Dead || s.Retired {
				continue
			}
			if s.EA>>2 == u.EA>>2 {
				match = s // youngest older matching store wins
			}
		}
		if match != nil {
			// Forward once the store's data is ready.
			t, ok := e.storeDataAvail(match)
			if !ok || t > c {
				kept = append(kept, u)
				continue
			}
			u.HasResult = true
			u.ResultTime = c + 1
			u.ResultCluster = u.Cluster
			u.State = StateComplete
			e.Stats.LoadsForwarded++
			continue
		}
		// Access the hierarchy. Wrong-path loads consume scheduler slots
		// but are not allowed to pollute the caches: their synthetic
		// addresses would displace real working-set lines.
		lat := e.hier.P.L1DLatency
		if u.OnPath {
			lat = e.hier.DataAccess(u.EA, false)
		}
		u.HasResult = true
		u.ResultTime = c + uint64(lat)
		u.ResultCluster = u.Cluster
		u.State = StateComplete
		e.Stats.LoadsAccessed++
	}
	for i := len(kept); i < len(e.waitLoads); i++ {
		e.waitLoads[i] = nil
	}
	e.waitLoads = kept
}

// CompletedBy reports whether the uop has finished all execution it owes
// by cycle c (the retirement condition, alongside program order).
func (u *UOp) CompletedBy(c uint64) bool {
	if u.IsStore() {
		return u.State == StateComplete && u.AddrTime <= c && u.DataAvail <= c
	}
	if u.MoveBit {
		return u.HasResult && u.ResultTime <= c
	}
	return u.State == StateComplete && (!u.HasResult || u.ResultTime <= c)
}

// RetireStore performs the store's architectural cache write (stores
// update the data cache at retirement, in order).
func (e *Engine) RetireStore(u *UOp) {
	if u.OnPath {
		e.hier.DataAccess(u.EA, true)
	}
}

// MarkRetired commits a uop: the caller (the pipeline's in-order retire
// stage) has verified completion. Occupancy is tracked here so
// WindowSpace stays O(1).
func (e *Engine) MarkRetired(u *UOp) {
	if u.Retired || u.Dead {
		return
	}
	u.Retired = true
	e.live--
}

// MarkResolved records that a branch finished execution and its
// direction is known.
func (e *Engine) MarkResolved(u *UOp) {
	if !u.Resolved {
		u.Resolved = true
		if u.IsBranch && !u.Dead && !u.Retired {
			e.unresolved--
		}
	}
}

// MarkActivated flips an inactive-issued uop to active (recovery found
// it on the actual path).
func (e *Engine) MarkActivated(u *UOp) {
	if u.Inactive {
		u.Inactive = false
		if !u.Dead && !u.Retired {
			e.inactive--
		}
	}
}

// HasUnresolvedBranches reports whether any live branch is still
// unresolved (cheap gate for the per-cycle resolution scan).
func (e *Engine) HasUnresolvedBranches() bool { return e.unresolved > 0 }

// HasInactive reports whether any live inactive-issued uops remain.
func (e *Engine) HasInactive() bool { return e.inactive > 0 }

// Window exposes the live window in fetch order (oldest first). It
// materializes a fresh slice per call; the cycle loop uses Len/At.
func (e *Engine) Window() []*UOp {
	out := make([]*UOp, e.n)
	for i := 0; i < e.n; i++ {
		out[i] = e.At(i)
	}
	return out
}

// Prune drops retired and dead uops from the head of the window.
func (e *Engine) Prune() { e.PruneRecycle(nil, 0) }

// PruneRecycle drops retired and dead uops from the head of the window,
// handing them to the pool (when non-nil) for deferred reuse. watermark
// must be the highest issued sequence number. It also purges dead and
// retired entries from the store and load scheduler lists so no stale
// pointer survives into a reclaimed uop's next life.
func (e *Engine) PruneRecycle(pool *Pool, watermark uint64) {
	e.compactMemLists()
	mask := len(e.buf) - 1
	for e.n > 0 {
		u := e.buf[e.head]
		if !u.Retired && !u.Dead {
			break
		}
		e.buf[e.head] = nil
		e.head = (e.head + 1) & mask
		e.n--
		if pool != nil {
			pool.Defer(u, watermark)
		}
	}
}

func (e *Engine) compactMemLists() {
	keptS := e.stores[:0]
	for _, s := range e.stores {
		if !s.Dead && !s.Retired {
			keptS = append(keptS, s)
		}
	}
	for i := len(keptS); i < len(e.stores); i++ {
		e.stores[i] = nil
	}
	e.stores = keptS

	keptL := e.waitLoads[:0]
	for _, u := range e.waitLoads {
		if !u.Dead && u.State == StateWaitMem {
			keptL = append(keptL, u)
		}
	}
	for i := len(keptL); i < len(e.waitLoads); i++ {
		e.waitLoads[i] = nil
	}
	e.waitLoads = keptL
}

// Kill marks a uop dead and releases its reservation-station entry.
func (e *Engine) Kill(u *UOp) {
	if u.Dead || u.Retired {
		return
	}
	u.Dead = true
	e.live--
	if u.InRS {
		u.InRS = false
		e.rsCount[u.FU]--
		e.inRS--
	}
	if u.IsBranch && !u.Resolved {
		e.unresolved--
	}
	if u.Inactive {
		e.inactive--
	}
	if u.MoveBit && !u.HasResult {
		e.movesWaiting--
	}
}

// SquashAfter kills every uop with Seq > cutoff for which keep returns
// false (keep lets recovery preserve activated inactive instructions —
// in practice keep is only consulted for uops in the guard's own fetch
// group). It returns the number killed.
func (e *Engine) SquashAfter(cutoff uint64, keep func(*UOp) bool) int {
	n := 0
	for i := 0; i < e.n; i++ {
		u := e.At(i)
		if u.Seq <= cutoff || u.Dead || u.Retired {
			continue
		}
		if keep != nil && keep(u) {
			continue
		}
		e.Kill(u)
		n++
	}
	return n
}

// RSOccupancy returns the occupied entry count for a FU (test hook).
func (e *Engine) RSOccupancy(fu int) int { return e.rsCount[fu] }
