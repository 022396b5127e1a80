// Sharded H-Memento: N independently-locked core.HHH instances fed
// disjoint slices of one stream. Batches, not packets, are the unit of
// partitioning: a staged batch goes whole to whichever shard's lock is
// free, so ingest never hashes a packet and a second producer takes a
// different shard instead of waiting. Every query reads the shards as
// one estimator — prefix bounds SUM the per-shard bounds (the merge
// the network-wide controller performs across measurement points,
// Section 4.3) and the HHH output is computed over the union of
// per-shard candidate sets — so nothing needs a flow to live in one
// shard.
//
// Every multi-shard read runs on the snapshot query plane: the
// shard's queryable state is captured under exactly one lock
// acquisition per shard (core.HHH.SnapshotInto, a few slab memmoves)
// and the merge — including the full HHH-set computation of Output —
// happens lock-free on the immutable copies. The previous design used
// the sharded instance itself as the hhhset.Estimator, so every
// Bounds call inside ComputeInto locked all N shards: O(candidates ×
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
	if shardCfg.Counters == 0 && shardCfg.EpsilonA > 0 {
		shardCfg.Counters = int(4*float64(h)/shardCfg.EpsilonA) + 1
	}
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

// initPools wires the query pool; shared by NewHHH and RestoreHHH.
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

// MustNewHHH is NewHHH for statically valid configurations.
func MustNewHHH(cfg HHHConfig) *HHH {
	s, err := NewHHH(cfg)
	if err != nil {
		panic(err)
	}
	return s
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
		i := (start + k) % n
		sl := &s.shards[i]
		if !sl.mu.TryLock() {
			continue
		}
		sl.hh.UpdateBatch(ps)
		sl.mu.Unlock()
		return i
	}
	sl := &s.shards[start]
	sl.mu.Lock()
	sl.hh.UpdateBatch(ps)
	sl.mu.Unlock()
	return start
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

// QueryLatency snapshots the query-plane SLO histogram (OutputTo wall
// nanoseconds).
func (s *HHH) QueryLatency() obs.HistSnapshot {
	var snap obs.HistSnapshot
	s.queryHist.Snapshot(&snap)
	return snap
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
// and a full buffer is dealt whole to the first free shard from the
// batcher's own round-robin cursor. Not safe for concurrent use; call
// Flush before discarding.
type PacketBatcher struct {
	s    *HHH
	buf  []hierarchy.Packet //memento:reused (N·size packets, the budget of N per-shard buffers)
	next int                // shard the next deal starts at
	aud  *audit.Auditor     // optional accuracy-plane tee; nil when unaudited
}

// NewBatcher returns a packet ingestion buffer of N·size packets
// flushing into s, N the shard count. size <= 0 selects
// DefaultBatchSize. Its cursor starts where the instance's does, so
// batchers made one after another start on different shards.
func (s *HHH) NewBatcher(size int) *PacketBatcher {
	if size <= 0 {
		size = DefaultBatchSize
	}
	return &PacketBatcher{
		s:    s,
		buf:  make([]hierarchy.Packet, 0, len(s.shards)*size),
		next: s.nextShard(),
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

// Flush deals the staged packets to the first free shard from the
// batcher's cursor, and moves the cursor past the shard that took
// them.
//
//memento:noalloc
func (b *PacketBatcher) Flush() {
	if len(b.buf) == 0 {
		return
	}
	b.next = (b.s.deal(b.buf, b.next) + 1) % len(b.s.shards)
	b.buf = b.buf[:0]
}
