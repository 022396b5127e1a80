// Sharded H-Memento: the hierarchical analog of Sketch. Packets are
// hash-partitioned by flow key across N independently-locked core.HHH
// instances; a prefix aggregates flows from every shard, so prefix
// queries SUM per-shard estimates (the same merge the network-wide
// controller performs across measurement points, Section 4.3) and the
// HHH output is computed over the union of per-shard candidate sets.
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

	// Hash overrides the packet→shard hash (nil: hierarchy.PrefixHasher
	// over the packet's fully-specified prefix with a per-instance
	// random salt — the same fast splitmix family the per-shard core
	// indexes use, and keyed by the flow identity the hierarchy
	// defines, so e.g. a 1D source hierarchy keeps all of a source's
	// packets on one shard regardless of destination).
	Hash func(hierarchy.Packet) uint64
}

// HHH is a concurrent, hash-partitioned H-Memento. All methods are
// safe for concurrent use.
type HHH struct {
	shards []hhhSlot
	hash   func(hierarchy.Packet) uint64 // never nil after NewHHH
	hier   hierarchy.Hierarchy
	window int     // global effective window: sum of shard windows
	comp   float64 // merged sampling compensation: sqrt(Σ compᵢ²)
	pool   sync.Pool

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

// hhhSlot pads to a full 64-byte cache line like slot.
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
// hhhQuery keeps between uses, mirroring maxRetainedBatchCap for the
// ingest-side pools: one pathological query (e.g. during an overflow
// table blow-up) must not pin its high-water scratch forever.
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
		// Default routing: the splitmix prefix hasher over the flow's
		// fully-specified prefix, salted per instance (stable within a
		// process, not across runs — provide Hash for replayable shard
		// assignment). Cheaper per packet than maphash.Comparable and
		// keyed by the hierarchy's flow identity.
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

// initPools wires the partition and query pools; shared by NewHHH and
// RestoreHHH.
func (s *HHH) initPools() {
	n := len(s.shards)
	s.pool.New = func() any {
		part := make([][]hierarchy.Packet, n)
		return &part
	}
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

// shardIndex maps a packet to its shard by flow key, so every prefix
// level of one flow's packets lands in the same shard.
func (s *HHH) shardIndex(p hierarchy.Packet) int {
	return shardOf(s.hash(p), len(s.shards))
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

// Update processes one packet, locking only its flow's shard.
//
//memento:noalloc
func (s *HHH) Update(p hierarchy.Packet) {
	sl := &s.shards[s.shardIndex(p)]
	sl.mu.Lock()
	sl.hh.Update(p)
	sl.mu.Unlock()
}

// Observe implements the load balancer's measurement hook
// (lb.Observer), making a sharded H-Memento a drop-in concurrent
// observer for the testbed proxy.
func (s *HHH) Observe(p hierarchy.Packet) { s.Update(p) }

// UpdateBatch partitions a batch by shard and ingests each slice
// through core.HHH's geometric-skip batch path under one lock
// acquisition per shard.
//
//memento:noalloc
func (s *HHH) UpdateBatch(ps []hierarchy.Packet) {
	if len(ps) == 0 {
		return
	}
	if len(s.shards) == 1 {
		sl := &s.shards[0]
		sl.mu.Lock()
		sl.hh.UpdateBatch(ps)
		sl.mu.Unlock()
		return
	}
	//memento:allow alloc "pool miss allocates the partition scratch; steady state reuses"
	part := s.pool.Get().(*[][]hierarchy.Packet)
	for _, p := range ps {
		i := s.shardIndex(p)
		//memento:allow alloc "appends into pooled per-shard scratch; growth amortized by the pool"
		(*part)[i] = append((*part)[i], p)
	}
	for i := range *part {
		sub := (*part)[i]
		if len(sub) == 0 {
			continue
		}
		sl := &s.shards[i]
		sl.mu.Lock()
		sl.hh.UpdateBatch(sub)
		sl.mu.Unlock()
	}
	s.putPartition(part)
}

// putPartition recycles a packet partition, dropping sub-buffers
// whose capacity ballooned past maxRetainedBatchCap (the packet
// analog of Sketch.putPartition).
func (s *HHH) putPartition(part *[][]hierarchy.Packet) {
	for i := range *part {
		if cap((*part)[i]) > maxRetainedBatchCap {
			(*part)[i] = nil
		} else {
			(*part)[i] = (*part)[i][:0]
		}
	}
	//memento:allow alloc "Pool.Put's per-P chain growth is a one-time cold cost"
	s.pool.Put(part)
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

// PacketBatcher is the per-goroutine ingestion buffer for HHH,
// mirroring Batcher: packets partition into per-shard sub-buffers at
// Add time and each sub-buffer flushes to its shard when full. Not
// safe for concurrent use; call Flush before discarding.
type PacketBatcher struct {
	s    *HHH
	bufs [][]hierarchy.Packet //memento:reused (one per shard, cap-bounded by size)
	size int
	aud  *audit.Auditor // optional accuracy-plane tee; nil when unaudited
}

// NewBatcher returns a packet ingestion buffer of the given per-shard
// size flushing into s. size <= 0 selects DefaultBatchSize.
func (s *HHH) NewBatcher(size int) *PacketBatcher {
	if size <= 0 {
		size = DefaultBatchSize
	}
	bufs := make([][]hierarchy.Packet, len(s.shards))
	for i := range bufs {
		bufs[i] = make([]hierarchy.Packet, 0, size)
	}
	return &PacketBatcher{s: s, bufs: bufs, size: size}
}

// Audit tees every packet this batcher ingests into a (the shadow
// oracle of the accuracy plane); nil detaches. The tee rides the
// batcher's single-writer contract — one auditor per batcher, and the
// auditor must not be shared across batchers. The audited Add path
// hashes each packet exactly once: the shard-routing hash doubles as
// the auditor's sampling hash, so the per-packet overhead is one
// masked compare and a staged append (BenchmarkAuditedIngest gates
// it at 0 allocs/op). The sampled key set therefore derives from the
// instance's routing hash — set HHHConfig.Hash for a replayable
// sample.
func (b *PacketBatcher) Audit(a *audit.Auditor) { b.aud = a }

// Add buffers one packet, flushing its shard's sub-buffer if full.
//
//memento:noalloc
func (b *PacketBatcher) Add(p hierarchy.Packet) {
	i := 0
	if b.aud != nil {
		h := b.s.hash(p)
		b.aud.ObservePacket(p, h)
		if len(b.bufs) > 1 {
			i = shardOf(h, len(b.bufs))
		}
	} else if len(b.bufs) > 1 {
		i = b.s.shardIndex(p)
	}
	b.bufs[i] = append(b.bufs[i], p)
	if len(b.bufs[i]) >= b.size {
		b.flushShard(i)
	}
}

// Flush drains every sub-buffer into the sharded instance.
//
//memento:noalloc
func (b *PacketBatcher) Flush() {
	for i := range b.bufs {
		if len(b.bufs[i]) > 0 {
			b.flushShard(i)
		}
	}
}

func (b *PacketBatcher) flushShard(i int) {
	sl := &b.s.shards[i]
	sl.mu.Lock()
	sl.hh.UpdateBatch(b.bufs[i])
	sl.mu.Unlock()
	b.bufs[i] = b.bufs[i][:0]
}
