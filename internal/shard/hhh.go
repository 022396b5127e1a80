// Sharded H-Memento: N independently-locked core.HHH instances fed
// disjoint slices of one stream. Batches, not packets, are the unit of
// partitioning, so ingest never hashes a packet. A PacketBatcher deals
// a staged batch whole into its own allotment of shards, re-derived
// once per window of dealt packets from every producer's rate, so a
// producer's shards stay in its core's cache; when they are all busy it
// takes whichever shard's lock is free instead of waiting. Every query
// reads the shards as one estimator — prefix bounds SUM the per-shard
// bounds (the merge the network-wide controller performs across
// measurement points, Section 4.3) and the HHH output is computed over
// the union of per-shard candidate sets — so nothing needs a flow to
// live in one shard.
//
// Every multi-shard read runs on the snapshot query plane: the
// shard's queryable state is captured under exactly one lock
// acquisition per shard (core.HHH.SnapshotInto, a few slab memmoves)
// and the merge — including the full HHH-set computation of Output —
// happens lock-free on the immutable copies. The previous design used
// the sharded instance itself as the hhhset.Estimator, so every
// Bounds call of the HHH-set scan locked all N shards: O(candidates ×
// levels × shards) lock round-trips per Output, stalling ingestion
// exactly when monitoring queries most.

package shard

import (
	"errors"
	"hash/maphash"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"memento/internal/audit"
	"memento/internal/core"
	"memento/internal/hierarchy"
	"memento/internal/obs"
)

// HHHConfig parameterizes a sharded H-Memento.
type HHHConfig struct {
	// Core holds the global parameters. Window is the GLOBAL window;
	// Counters the GLOBAL budget. Both are divided across shards.
	Core core.HHHConfig

	// Shards is N; zero defaults to runtime.GOMAXPROCS(0).
	Shards int

	// Hash is the accuracy plane's sampling hash: an audited
	// PacketBatcher tees each packet with Hash(p), and the auditor
	// audits the keys whose hash has its low bits zero. It routes
	// nothing. Nil selects hierarchy.PrefixHasher over the packet's
	// fully-specified prefix with a per-instance random salt; set it
	// for a replayable audit sample (the benchmark does).
	Hash func(hierarchy.Packet) uint64
}

// HHH is a concurrent H-Memento over N shards that each take whole
// batches. All methods are safe for concurrent use.
type HHH struct {
	shards []hhhSlot
	hash   func(hierarchy.Packet) uint64 // never nil after NewHHH; audit sampling only
	hier   hierarchy.Hierarchy
	window int     // global effective window: sum of shard windows
	comp   float64 // merged sampling compensation: sqrt(Σ compᵢ²)

	// next is the instance's round-robin cursor: where Update and
	// UpdateBatch start looking for a free shard, and where each new
	// PacketBatcher's own cursor starts.
	next atomic.Uint64

	// dealing clocks the epochs of home-first dealing and hands out
	// the PacketBatchers' allotments.
	dealing dealing

	// queryPool recycles the working state of multi-shard reads
	// (per-shard snapshots, skew corrections, HHH-set scratch) across
	// queries and concurrent callers, keeping the query path
	// allocation-free in steady state. lastQuery is a one-entry cache in
	// front of it: sync.Pool keeps an item per P, so a lone monitoring
	// goroutine that migrates between Ps would otherwise build a second
	// full set of snapshot slabs — and keep it, since queries produce
	// no garbage that would make the collector empty the pool.
	queryPool sync.Pool
	lastQuery atomic.Pointer[hhhQuery]

	// readLocks, when set (tests only), counts read-plane lock
	// acquisitions so the one-lock-pass-per-shard contract is
	// assertable. Nil in production: the probe is never consulted on
	// the ingest path.
	readLocks *atomic.Uint64

	// trackers, when set (EnableDeltaCheckpoints), are the per-shard
	// replication chain encoders behind WriteChain. Guarded by the
	// single-caller contract of WriteChain, not by the shard locks.
	trackers []*deltaTracker

	// queryHist is the query-plane SLO histogram: OutputTo wall time
	// in nanoseconds. Wait-free to observe; Instrument exports it as
	// memento_shard_query_{1d,2d}_ns split by the hierarchy's
	// dimensionality (the 2D glb fallback makes the two populations
	// structurally different — merging them would hide a 2D
	// regression under 1D volume).
	queryHist obs.Histogram

	// captureHist is the part of each OutputTo spent inside snapshotAll,
	// in nanoseconds: the only stretch of a query that holds shard locks,
	// so it is what a query costs ingest. Instrument exports it as
	// memento_shard_query_capture_ns.
	captureHist obs.Histogram

	// swept and admitted total the read plane's sweep counts over all
	// OutputTo calls (core.SnapshotSet.Selectivity), one wait-free add
	// each per query; Instrument exports them as
	// memento_shard_query_{swept_keys,admitted}_total. Admitted close to
	// swept means the filter has nothing to reject: θ·W − compensation
	// no longer clears the shards' summed absent-key defaults.
	swept, admitted obs.Counter
}

// hhhSlot pads each shard to a full 64-byte cache line (8B mutex + 8B
// pointer + 48B pad) so neighboring shards' locks don't false-share.
type hhhSlot struct {
	mu sync.Mutex
	hh *core.HHH // guarded by mu
	_  [48]byte
}

// hhhQuery is the pooled working state of one multi-shard read: a
// point-in-time snapshot of every shard, the point-probe scratch, and
// the Merger that turns the captured snapshots into a global HHH set.
type hhhQuery struct {
	shards []core.HHHSnapshot
	views  []*core.HHHSnapshot // stable pointers into shards, for the Merger
	scales []float64           // point-probe skew corrections

	// probes holds the per-shard results of one point query
	// (probeAll); point queries never copy slabs.
	probes []pointProbe

	// m owns the skew corrections and the read plane's scratch; the
	// same math merges agent snapshots in netwide and checkpoint files
	// in mementoctl.
	m Merger
}

// pointProbe is one shard's locked O(1) read for a point query. The
// effective window rides along so the skew correction never touches
// the shard outside its lock pass.
type pointProbe struct {
	upper, lower float64
	updates      uint64
	effWindow    int
}

// maxRetainedQueryCap bounds the candidate/entry capacity a pooled
// hhhQuery keeps between uses: one pathological query (e.g. during an
// overflow table blow-up) must not pin its high-water scratch forever.
const maxRetainedQueryCap = 1 << 14

// NewHHH validates cfg and builds a sharded H-Memento.
func NewHHH(cfg HHHConfig) (*HHH, error) {
	n := cfg.Shards
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		return nil, errors.New("shard: Shards must be at least 1")
	}
	if cfg.Core.Hierarchy == nil {
		return nil, errors.New("shard: HHHConfig.Hierarchy is required")
	}
	if cfg.Core.Window < n {
		return nil, errors.New("shard: Window smaller than shard count")
	}
	shardCfg := cfg.Core
	shardCfg.Window = (cfg.Core.Window + n - 1) / n
	h := cfg.Core.Hierarchy.H()
	if shardCfg.Counters > 0 {
		shardCfg.Counters = (shardCfg.Counters + n - 1) / n
		if shardCfg.Counters < minShardCounters*h {
			shardCfg.Counters = minShardCounters * h
		}
	}
	baseSeed := cfg.Core.Seed
	if baseSeed == 0 {
		baseSeed = defaultSeed
	}

	s := &HHH{
		shards: make([]hhhSlot, n),
		hash:   cfg.Hash,
		hier:   cfg.Core.Hierarchy,
	}
	if s.hash == nil {
		// Default audit sampling hash: the splitmix prefix hasher over
		// the flow's fully-specified prefix, salted per instance (stable
		// within a process, not across runs — provide Hash for a
		// replayable sample).
		salt := maphash.Comparable(maphash.MakeSeed(), uint64(0))
		ph := hierarchy.PrefixHasher(salt)
		hier := cfg.Core.Hierarchy
		s.hash = func(p hierarchy.Packet) uint64 { return ph(hier.Fully(p)) }
	}
	var varSum float64
	for i := range s.shards {
		shardCfg.Seed = baseSeed + uint64(i)*0x9e3779b97f4a7c15
		hh, err := core.NewHHH(shardCfg)
		if err != nil {
			return nil, err
		}
		//memento:allow lock "instance under construction; not yet shared"
		s.shards[i].hh = hh
		s.window += hh.EffectiveWindow()
		varSum += hh.Compensation() * hh.Compensation()
	}
	// Per-shard sampling errors are independent, so their variances
	// add: the merged compensation is the root sum of squares, which
	// equals the single-instance 2·Z·√(V·W) for the global window.
	s.comp = math.Sqrt(varSum)
	s.initPools()
	return s, nil
}

// initPools wires the query pool; shared by NewHHH and
// RestoreHHHFromSnapshots.
func (s *HHH) initPools() {
	n := len(s.shards)
	s.queryPool.New = func() any {
		q := &hhhQuery{
			shards: make([]core.HHHSnapshot, n),
			views:  make([]*core.HHHSnapshot, n),
			scales: make([]float64, n),
			probes: make([]pointProbe, n),
		}
		for i := range q.shards {
			q.views[i] = &q.shards[i]
		}
		return q
	}
}

// Shards returns N, the number of partitions.
func (s *HHH) Shards() int { return len(s.shards) }

// EffectiveWindow returns the global window actually maintained.
func (s *HHH) EffectiveWindow() int { return s.window }

// Compensation returns the merged sampling compensation (√Σ compᵢ²;
// 0 when no shard samples). With QueryBounds it makes the sharded
// instance an audit.Estimator: exact ≤ upper + Compensation and
// exact ≥ lower − Compensation, each with probability 1−δ.
func (s *HHH) Compensation() float64 { return s.comp }

// Hierarchy returns the configured prefix domain.
func (s *HHH) Hierarchy() hierarchy.Hierarchy { return s.hier }

// Update processes one packet: a batch of one, dealt like UpdateBatch.
//
//memento:noalloc
func (s *HHH) Update(p hierarchy.Packet) {
	one := [1]hierarchy.Packet{p}
	s.UpdateBatch(one[:])
}

// Observe implements the load balancer's measurement hook
// (lb.Observer), making a sharded H-Memento a drop-in concurrent
// observer for the testbed proxy.
func (s *HHH) Observe(p hierarchy.Packet) { s.Update(p) }

// UpdateBatch ingests ps whole into one shard through core.HHH's
// geometric-skip batch path, under one lock acquisition: the first
// free shard from the instance's round-robin cursor (see deal). A
// batch is one shard's slice of the stream, so keep batches well
// below the per-shard window W/N.
//
//memento:noalloc
func (s *HHH) UpdateBatch(ps []hierarchy.Packet) {
	if len(ps) == 0 {
		return
	}
	s.deal(ps, s.nextShard())
}

// nextShard advances the instance's round-robin cursor and returns
// the shard it pointed at.
func (s *HHH) nextShard() int { return int((s.next.Add(1) - 1) % uint64(len(s.shards))) }

// deal ingests ps into the first shard from start (in round-robin
// order) whose lock is free, and returns that shard's index. Only
// after a full cycle of busy shards does it wait, on start's own
// lock: a producer never queues behind another while a shard is idle.
func (s *HHH) deal(ps []hierarchy.Packet, start int) int {
	n := len(s.shards)
	for k := 0; k < n; k++ {
		if i := (start + k) % n; s.tryDeal(ps, i) {
			return i
		}
	}
	sl := &s.shards[start]
	sl.mu.Lock()
	sl.hh.UpdateBatch(ps)
	sl.mu.Unlock()
	return start
}

// tryDeal ingests ps into shard i if its lock is free, and reports
// whether it did.
func (s *HHH) tryDeal(ps []hierarchy.Packet, i int) bool {
	sl := &s.shards[i]
	if !sl.mu.TryLock() {
		return false
	}
	sl.hh.UpdateBatch(ps)
	sl.mu.Unlock()
	return true
}

// lockShardRead takes one read-plane lock, feeding the test probe.
// The ingest path locks directly: the probe costs it nothing.
//
//memento:locks sl.mu
func (s *HHH) lockShardRead(sl *hhhSlot) {
	sl.mu.Lock()
	if s.readLocks != nil {
		s.readLocks.Add(1)
	}
}

// getQuery returns pooled multi-shard read state.
func (s *HHH) getQuery() *hhhQuery {
	if q := s.lastQuery.Swap(nil); q != nil {
		return q
	}
	//memento:allow alloc "pool miss allocates the query scratch; steady state reuses"
	return s.queryPool.Get().(*hhhQuery)
}

// putQuery recycles q, capping every retained scratch capacity via
// the Merger's pool hygiene hook. (The per-shard snapshot slabs
// mirror the live sketches' own slab sizes — keyidx never shrinks —
// so they cannot outgrow what the sketch itself retains.)
func (s *HHH) putQuery(q *hhhQuery) {
	q.m.Trim(maxRetainedQueryCap)
	if s.lastQuery.CompareAndSwap(nil, q) {
		return
	}
	//memento:allow alloc "Pool.Put's per-P chain growth is a one-time cold cost"
	s.queryPool.Put(q)
}

// snapshotAll captures every shard — exactly one lock acquisition per
// shard, held only for the slab copy. The Merger derives each shard's
// skew correction from the captured update counts, so the whole read
// sees one consistent traffic split (the previous design re-read the
// global counter and re-locked shards per Bounds call, so a single
// query could mix several traffic splits).
func (s *HHH) snapshotAll(q *hhhQuery) {
	for i := range s.shards {
		sl := &s.shards[i]
		s.lockShardRead(sl)
		sl.hh.SnapshotInto(&q.shards[i])
		sl.mu.Unlock()
	}
}

// probeAll reads one prefix's bounds and each shard's update count in
// a single lock pass — the point-query analog of snapshotAll: no slab
// copies (a point probe is O(1) per shard, so capturing whole
// snapshots would cost more than the read), but the same
// skew-correction-from-one-pass semantics. Results land in q.probes.
func (s *HHH) probeAll(q *hhhQuery, p hierarchy.Prefix) {
	var total uint64
	for i := range s.shards {
		sl := &s.shards[i]
		s.lockShardRead(sl)
		u, l := sl.hh.QueryBounds(p)
		upd := sl.hh.Sketch().Updates()
		win := sl.hh.EffectiveWindow()
		sl.mu.Unlock()
		q.probes[i] = pointProbe{upper: u, lower: l, updates: upd, effWindow: win}
		total += upd
	}
	for i := range q.probes {
		q.scales[i] = scaleFrom(q.probes[i].updates, q.probes[i].effWindow, total, s.window)
	}
}

// Query returns the merged upper-bound estimate for prefix p: the sum
// of per-shard estimates (a prefix aggregates flows from every
// shard), each skew-corrected for its shard's traffic share. One lock
// pass per shard, held only for an O(1) probe.
func (s *HHH) Query(p hierarchy.Prefix) float64 {
	q := s.getQuery()
	s.probeAll(q, p)
	var total float64
	for i := range q.probes {
		total += q.probes[i].upper * q.scales[i]
	}
	s.putQuery(q)
	return total
}

// QueryBounds returns merged conservative bounds for prefix p (sums
// of the skew-corrected per-shard bounds), with the same one-lock-
// pass-per-shard probe as Query.
func (s *HHH) QueryBounds(p hierarchy.Prefix) (upper, lower float64) {
	q := s.getQuery()
	s.probeAll(q, p)
	for i := range q.probes {
		upper += q.probes[i].upper * q.scales[i]
		lower += q.probes[i].lower * q.scales[i]
	}
	s.putQuery(q)
	return upper, lower
}

// Bounds implements hhhset.Estimator over the merged shards. Callers
// issuing many Bounds calls should snapshot once instead (Output
// does); this per-call form re-captures every shard.
func (s *HHH) Bounds(p hierarchy.Prefix) (upper, lower float64) { return s.QueryBounds(p) }

// Output computes the global approximate HHH set for threshold theta:
// candidates are the union of per-shard tracked prefixes, estimated
// against the merged snapshot bounds with the root-sum-of-squares
// sampling compensation. Each shard is locked exactly once, for the
// duration of its snapshot copy; everything after — the sweep for
// heavy prefixes, their merged bounds, and the HHH-set computation,
// all owned by the pooled Merger — runs lock-free, so concurrent
// ingestion proceeds while the set is computed. The result is a fuzzy
// snapshot under concurrent writers, consistent per query.
// Steady-state calls allocate only the returned slice; OutputTo
// recycles even that.
func (s *HHH) Output(theta float64) []core.HeavyPrefix { return s.OutputTo(theta, nil) }

// OutputTo is Output appending to caller-provided dst: callers that
// recycle dst query without allocating. The merged window and
// compensation the Merger derives from the captured snapshots equal
// the construction-time globals (Σ per-shard windows, √Σ compᵢ²), so
// this is the same set the pre-Merger implementation computed.
//
//memento:noalloc
func (s *HHH) OutputTo(theta float64, dst []core.HeavyPrefix) []core.HeavyPrefix {
	start := time.Now()
	q := s.getQuery()
	captureStart := time.Now()
	s.snapshotAll(q)
	s.captureHist.Observe(uint64(time.Since(captureStart)))
	dst = q.m.Output(s.hier, q.views, theta, dst)
	swept, admitted := q.m.Selectivity()
	s.swept.Add(uint64(swept))
	s.admitted.Add(uint64(admitted))
	s.putQuery(q)
	s.queryHist.Observe(uint64(time.Since(start)))
	return dst
}

// Updates returns the total number of updates across shards.
func (s *HHH) Updates() uint64 {
	var total uint64
	for i := range s.shards {
		sl := &s.shards[i]
		sl.mu.Lock()
		total += sl.hh.Sketch().Updates()
		sl.mu.Unlock()
	}
	return total
}

// Reset returns every shard to its initial empty state.
func (s *HHH) Reset() {
	for i := range s.shards {
		sl := &s.shards[i]
		sl.mu.Lock()
		sl.hh.Reset()
		sl.mu.Unlock()
	}
}

// PacketBatcher is the per-goroutine ingestion buffer for HHH: Add
// stages packets in one buffer with no synchronization and no hash,
// and a full buffer is dealt whole to a shard. A batcher deals first
// to its allotment, the shards the instance gave it for this epoch,
// so its shards' state stays in its own core's cache; without one it
// deals to the first free shard from its own round-robin cursor. Not
// safe for concurrent use; call Flush before discarding.
type PacketBatcher struct {
	s    *HHH
	buf  []hierarchy.Packet //memento:reused (N·size packets, the budget of N per-shard buffers)
	next int                // shard the next round-robin deal starts at
	aud  *audit.Auditor     // optional accuracy-plane tee; nil when unaudited

	// Home-first dealing (DESIGN.md §4). The owner alone touches
	// epoch, home, credit and cursor.
	id     uint64    // creation order: where the batcher lies on the ring
	epoch  uint64    // the epoch home is for
	home   allotment // the shards this batcher deals to first; empty: round robin
	credit []int64   //memento:reused per home shard: packets owed × weight sum
	cursor int       // the home shard a tie goes to

	// dealt counts the packets this batcher has dealt; the boundary
	// reads it to measure the batcher's share of an epoch. joined,
	// share, offer and offerEpoch are read and written under the
	// instance's dealing.mu.
	dealt      atomic.Uint64
	joined     uint64    // dealt when the batcher joined the current epoch
	share      uint64    // packets dealt in the epoch a boundary closes
	offer      allotment // home for epoch offerEpoch, left by the boundary before it
	offerEpoch uint64
}

// dealing is the instance side of home-first dealing (DESIGN.md §4).
// An epoch is every global window of packets the batchers deal; at
// each boundary the batchers that dealt in the closing epoch are laid
// along the shard ring, in creation order, by their shares of it. dealt
// moves on every flush, so it has a cache line to itself, away from the
// instance fields every flush reads; the rest changes once per epoch.
type dealing struct {
	_     [64]byte
	dealt atomic.Uint64 // packets dealt by PacketBatchers
	_     [56]byte
	epoch atomic.Uint64 // epochs begun; a batcher re-joins when it moves
	ids   atomic.Uint64 // PacketBatchers created
	mu    sync.Mutex

	// active lists, in creation order, the batchers that dealt in the
	// current epoch, and grain sums their buffers: a boundary falls
	// between deals, so it measures their shares to that many packets.
	active []*PacketBatcher //memento:reused guarded by mu
	grain  uint64           // guarded by mu
}

// allotment is a batcher's run of shards for one epoch: the shards
// from first on, each dealt to in proportion to its weight. Empty
// means none: the batcher deals round robin over every shard.
type allotment struct {
	first  int
	weight []int64 //memento:reused (at most N entries; capacity N from NewBatcher)
	sum    int64   // Σ weight
}

// weightUnit is what a batcher's allotment weights sum to, up to
// rounding: fine enough for any shard count, small enough that a
// credit (weight × buffer) cannot overflow.
const weightUnit = 1 << 16

// lay sets a to the shards the ring interval [lo, hi) overlaps, in
// units where a shard is width wide, each weighted by its overlap. An
// empty interval, or the whole ring (a lone batcher), leaves a empty,
// so a lone batcher deals round robin exactly as one without an
// allotment does.
func (a *allotment) lay(lo, hi, width uint64, shards int) {
	a.reset()
	if lo == hi || hi-lo == uint64(shards)*width {
		return
	}
	for j := lo / width; j*width < hi; j++ {
		w := int64((min(hi, (j+1)*width) - max(lo, j*width)) * weightUnit / (hi - lo))
		if w == 0 {
			continue // a sliver at either end of the run
		}
		if len(a.weight) == 0 {
			a.first = int(j)
		}
		a.weight = append(a.weight, w)
		a.sum += w
	}
}

// reset empties a.
func (a *allotment) reset() { a.first, a.weight, a.sum = 0, a.weight[:0], 0 }

// set copies o into a.
func (a *allotment) set(o *allotment) {
	a.first, a.weight, a.sum = o.first, append(a.weight[:0], o.weight...), o.sum
}

// NewBatcher returns a packet ingestion buffer of N·size packets
// flushing into s, N the shard count. size <= 0 selects
// DefaultBatchSize. Its cursor starts where the instance's does, so
// batchers made one after another start on different shards. It has
// no allotment until a boundary finds it dealt in the epoch before.
func (s *HHH) NewBatcher(size int) *PacketBatcher {
	if size <= 0 {
		size = DefaultBatchSize
	}
	n := len(s.shards)
	return &PacketBatcher{
		s:      s,
		buf:    make([]hierarchy.Packet, 0, n*size),
		next:   s.nextShard(),
		id:     s.dealing.ids.Add(1),
		epoch:  math.MaxUint64, // none yet: the first flush joins
		home:   allotment{weight: make([]int64, 0, n)},
		credit: make([]int64, 0, n),
		offer:  allotment{weight: make([]int64, 0, n)},
	}
}

// Audit tees every packet this batcher ingests into a (the shadow
// oracle of the accuracy plane); nil detaches. The tee rides the
// batcher's single-writer contract — one auditor per batcher, and the
// auditor must not be shared across batchers. An audited Add hashes
// the packet once with HHHConfig.Hash, the auditor's sampling hash, so
// the per-packet overhead is that hash, one masked compare and, for
// sampled keys, a staged append (BenchmarkAuditedIngest gates it at 0
// allocs/op). Set HHHConfig.Hash for a replayable sample.
func (b *PacketBatcher) Audit(a *audit.Auditor) { b.aud = a }

// Add buffers one packet, dealing the buffer to a shard when full.
//
//memento:noalloc
func (b *PacketBatcher) Add(p hierarchy.Packet) {
	if b.aud != nil {
		b.aud.ObservePacket(p, b.s.hash(p))
	}
	b.buf = append(b.buf, p)
	if len(b.buf) == cap(b.buf) {
		b.Flush()
	}
}

// Flush deals the staged packets: into the batcher's allotment if it
// has one, else to the first free shard from its cursor, which moves
// past the shard that took them. The flush that completes an epoch
// derives every batcher's allotment for the next one.
//
//memento:noalloc
func (b *PacketBatcher) Flush() {
	if len(b.buf) == 0 {
		return
	}
	s := b.s
	if s.dealing.epoch.Load() != b.epoch {
		b.join()
	}
	var i int
	if len(b.home.weight) == 0 {
		i = s.deal(b.buf, b.next)
	} else {
		i = b.dealHome()
	}
	b.next = (i + 1) % len(s.shards)
	n := uint64(len(b.buf))
	b.buf = b.buf[:0]
	b.dealt.Add(n)
	w := uint64(s.window)
	if d := s.dealing.dealt.Add(n); (d-n)/w != d/w {
		s.nextEpoch()
	}
}

// dealHome deals the buffer within the allotment: to the home shard
// owed the most packets for its weight (ties in turn from the cursor),
// else to any free home shard, and only if all of them are busy by
// deal's full cycle, which blocks last, on the preferred one.
func (b *PacketBatcher) dealHome() int {
	h, s := &b.home, b.s
	n, run := int64(len(b.buf)), len(h.weight)
	for k, w := range h.weight {
		b.credit[k] += w * n
	}
	pick := b.cursor
	for k := 1; k < run; k++ {
		if j := (b.cursor + k) % run; b.credit[j] > b.credit[pick] {
			pick = j
		}
	}
	took := -1
	for k := 0; k < run && took < 0; k++ {
		if i := h.first + (pick+k)%run; s.tryDeal(b.buf, i) {
			took = i
		}
	}
	if took < 0 {
		took = s.deal(b.buf, h.first+pick)
	}
	if j := took - h.first; j >= 0 && j < run {
		b.credit[j] -= h.sum * n
		b.cursor = (j + 1) % run
	}
	return took
}

// join enters the batcher in the current epoch: it takes the allotment
// the last boundary left it, none if it did not deal in the epoch
// before, and is listed for the next boundary.
func (b *PacketBatcher) join() {
	d := &b.s.dealing
	d.mu.Lock()
	b.epoch = d.epoch.Load()
	if b.offerEpoch == b.epoch {
		b.home.set(&b.offer)
	} else {
		b.home.reset()
	}
	b.credit = b.credit[:len(b.home.weight)]
	clear(b.credit)
	b.cursor = 0
	b.joined = b.dealt.Load()
	d.grain += uint64(cap(b.buf))
	d.active = append(d.active, b)
	for k := len(d.active) - 1; k > 0 && d.active[k-1].id > b.id; k-- {
		d.active[k], d.active[k-1] = d.active[k-1], d.active[k]
	}
	d.mu.Unlock()
}

// nextEpoch closes the current epoch. It lays the batchers that dealt
// in it along the shard ring, batcher i over [N·Sᵢ₋₁, N·Sᵢ) in shard
// units, Sᵢ the running sum of their shares of what they dealt, so
// every shard is owed 1/N of the traffic; leaves each its allotment
// for the next epoch; and opens that epoch. An end of a run that lies
// within the shares' resolution of a shard edge moves onto it, so
// equal rates give disjoint runs wherever the boundary fell.
func (s *HHH) nextEpoch() {
	d := &s.dealing
	d.mu.Lock()
	e := d.epoch.Load() + 1
	var total uint64
	for _, b := range d.active {
		b.share = b.dealt.Load() - b.joined
		total += b.share
	}
	// With total 0 (batchers joined, no deal counted yet) nobody gets
	// an allotment.
	n := uint64(len(s.shards))
	var at, lo uint64 // ring positions, in units where a shard is total wide
	for _, b := range d.active {
		if total == 0 {
			break
		}
		at += n * b.share
		hi := at
		if edge := (at + total/2) / total * total; max(at, edge)-min(at, edge) <= n*d.grain {
			hi = edge
		}
		b.offer.lay(lo, hi, total, len(s.shards))
		b.offerEpoch = e
		lo = hi
	}
	clear(d.active)
	d.active, d.grain = d.active[:0], 0
	d.epoch.Store(e)
	d.mu.Unlock()
}
