// Package shard is the concurrent front-end over the single-threaded
// Memento structures in internal/core: an array of independently-locked
// sketches that makes the library usable from many goroutines at line
// rate.
//
// The design follows the paper's own scaling story. A Memento sketch
// is deliberately single-writer (constant-time updates, no atomics on
// the hot path); the network-wide setting (Section 4.3) already scales
// by splitting the stream across m measurement points and merging at
// query time. This package applies the same split inside one process:
// each of N shards maintains a sliding window of W/N of *its*
// substream — which, when every shard receives 1/N of the traffic,
// spans approximately the last W packets of the global stream — and
// queries merge across shards. The two fronts split differently:
//
//   - HHH deals whole batches: a staged batch goes to the first shard
//     whose lock is free, so ingest hashes nothing and producers do not
//     queue behind each other. Its queries read every shard anyway (a
//     prefix aggregates many flows), so a flow may span all of them.
//   - Sketch hash-partitions keys: a key's packets all land in one
//     shard, so a point Query touches a single lock; HeavyHitters and
//     Overflowed aggregate all shards against the global window.
//
// Neither split is exactly even: a flush that skipped a busy shard,
// or an elephant key's hash, gives one shard more than 1/N of the
// stream, and its fixed-size window then spans *fewer* global
// packets, deflating raw estimates. Queries therefore apply a skew
// correction (scaleFrom): each shard's estimate is rescaled by the
// share of traffic that shard received, which is exactly 1 for equal
// shares and restores the global-window interpretation otherwise,
// assuming the shard's mix is stationary across its window.
//
// Two mechanisms amortize synchronization:
//
//   - Batched ingestion. core.Sketch.UpdateBatch draws the geometric
//     "packets until the next Full update" count once per Full update
//     instead of flipping a Bernoulli coin per packet, and slides the
//     window in bulk between them. The shard layer takes a shard lock
//     once per batch, not once per packet.
//   - Per-goroutine Batchers. A Batcher (PacketBatcher for HHH)
//     accumulates a goroutine's stream locally (no synchronization at
//     all) and flushes it a batch at a time, the intended high-rate
//     ingestion path.
//
// Lock-per-flush is the only ingest engine. The common packet is a
// few-nanosecond Window update, so a cross-core hand-off has no
// per-packet work to offload; DESIGN.md §9 records the measurement
// and the rule a second engine would have to meet.
//
// The total counter budget is divided across shards, so a sharded
// sketch costs the same memory as the single-threaded configuration
// it replaces and keeps the same εa·W algorithmic error band: each
// shard has k/N counters over a W/N window.
package shard

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"memento/internal/core"
	"memento/internal/keyidx"
)

// Sketch is a concurrent, hash-partitioned Memento over keys of type
// K. All methods are safe for concurrent use.
//
// One hash function (caller-supplied or the keyidx default) is
// shared by shard routing and every per-shard index, and every path
// hashes a key exactly once: Update and point queries use the top
// bits to pick a shard and hand the same value down to the core
// sketch's flat key indexes via the *Hashed variants, and the batched
// paths carry (key, hash) pairs from partitioning into the core
// (UpdateBatchHashed), so the sampled τ-fraction of keys that reach a
// Full update is never rehashed.
//
// Multi-shard reads (HeavyHitters, Overflowed) run on the snapshot
// query plane: each shard's queryable state is captured under exactly
// one lock acquisition (core.Sketch.SnapshotInto, a few slab
// memmoves) and all estimation happens lock-free on the immutable
// copies, so monitoring never stalls ingestion for longer than the
// capture.
type Sketch[K comparable] struct {
	shards []slot[K]
	hash   func(K) uint64 // never nil after New
	window int            // global effective window: sum of shard windows
	pool   sync.Pool      // *partition[K] batch-partitioning scratch

	// snapPool recycles the per-shard snapshot sets backing
	// multi-shard reads, so steady-state queries allocate nothing.
	snapPool sync.Pool

	// ingested counts packets across all shards (one atomic add per
	// batch on the hot path). Point queries use it to correct for
	// traffic skew: a shard receiving fraction pᵢ of the stream has a
	// window spanning W·pᵢ·N global packets instead of W, so estimates
	// are rescaled by pᵢ·N — exactly 1 under uniform hashing.
	// Multi-shard reads instead derive the total from the captured
	// per-shard update counts, so one query uses one consistent
	// traffic split.
	ingested atomic.Uint64
}

// partition is the pooled scratch of one UpdateBatch call: per-shard
// key sub-buffers and the parallel hashes computed while routing.
type partition[K comparable] struct {
	keys   [][]K      //memento:reused (pooled batch scratch)
	hashes [][]uint64 //memento:reused (pooled batch scratch)
}

// maxRetainedBatchCap bounds the per-shard sub-buffer capacity a
// pooled partition (or per-goroutine scratch) keeps between uses. A
// bursty batch may grow a sub-buffer arbitrarily for its own
// duration; without the cap that high-water capacity would be pinned
// in the pool forever.
const maxRetainedBatchCap = 16 * DefaultBatchSize

// querySnap is the pooled working state of one multi-shard read: a
// point-in-time snapshot of every shard plus the skew corrections
// computed from the captured update counts.
type querySnap[K comparable] struct {
	shards []core.Snapshot[K]
	scales []float64
}

// slot pads each shard to a full 64-byte cache line (8B mutex + 8B
// pointer + 48B pad) so neighboring shards' locks don't false-share.
type slot[K comparable] struct {
	mu sync.Mutex
	s  *core.Sketch[K] // guarded by mu
	_  [48]byte
}

// SketchConfig parameterizes New.
type SketchConfig[K comparable] struct {
	// Core holds the global sketch parameters. Window is the GLOBAL
	// sliding window in packets; each shard maintains Window/Shards of
	// its substream. Counters (or the count derived from EpsilonA) is
	// the GLOBAL budget, divided across shards.
	Core core.Config

	// Shards is N, the number of independently-locked partitions.
	// Zero defaults to runtime.GOMAXPROCS(0).
	Shards int

	// Hash overrides the key→shard hash. Nil uses hash/maphash with a
	// per-Sketch random seed: stable within a process but not across
	// runs. Provide a fixed hash for run-to-run deterministic shard
	// assignment (tests, replayable benchmarks).
	Hash func(K) uint64
}

const defaultSeed = 0x73686172645f6d65 // "shard_me"

// minShardCounters floors the per-shard counter budget so extreme
// Shards/Counters ratios cannot degenerate the Space Saving stage.
const minShardCounters = 8

// New validates cfg and builds a sharded sketch.
func New[K comparable](cfg SketchConfig[K]) (*Sketch[K], error) {
	n := cfg.Shards
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		return nil, errors.New("shard: Shards must be at least 1")
	}
	if cfg.Core.Window < n {
		return nil, errors.New("shard: Window smaller than shard count")
	}
	shardCfg := cfg.Core
	shardCfg.Window = (cfg.Core.Window + n - 1) / n
	if shardCfg.Counters == 0 && shardCfg.EpsilonA > 0 {
		// Resolve the global budget before dividing it.
		shardCfg.Counters = int(4/shardCfg.EpsilonA) + 1
	}
	if shardCfg.Counters > 0 {
		shardCfg.Counters = (shardCfg.Counters + n - 1) / n
		if shardCfg.Counters < minShardCounters {
			shardCfg.Counters = minShardCounters
		}
	}
	baseSeed := cfg.Core.Seed
	if baseSeed == 0 {
		baseSeed = defaultSeed
	}

	hash := cfg.Hash
	if hash == nil {
		hash = keyidx.DefaultHasher[K]()
	}
	s := &Sketch[K]{
		shards: make([]slot[K], n),
		hash:   hash,
	}
	for i := range s.shards {
		// Decorrelate shard RNG streams with a golden-ratio stride.
		shardCfg.Seed = baseSeed + uint64(i)*0x9e3779b97f4a7c15
		sk, err := core.NewWithHash[K](shardCfg, hash)
		if err != nil {
			return nil, err
		}
		//memento:allow lock "instance under construction; not yet shared"
		s.shards[i].s = sk
		s.window += sk.EffectiveWindow()
	}
	s.pool.New = func() any {
		return &partition[K]{keys: make([][]K, n), hashes: make([][]uint64, n)}
	}
	s.snapPool.New = func() any {
		return &querySnap[K]{shards: make([]core.Snapshot[K], n), scales: make([]float64, n)}
	}
	return s, nil
}

// MustNew is New for statically valid configurations; panics on error.
func MustNew[K comparable](cfg SketchConfig[K]) *Sketch[K] {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// shardOf maps a key hash to a shard in [0, n) using the top 32 bits,
// independent of the bits the per-shard key indexes consume.
// Multiply-shift range reduction; bias ≤ n/2^32, negligible.
func shardOf(h uint64, n int) int {
	return int(((h >> 32) * uint64(n)) >> 32)
}

// shardFromHash maps a key hash to its shard.
func (s *Sketch[K]) shardFromHash(h uint64) int { return shardOf(h, len(s.shards)) }

// Shards returns N, the number of partitions.
func (s *Sketch[K]) Shards() int { return len(s.shards) }

// EffectiveWindow returns the global window actually maintained: the
// sum of the per-shard effective windows.
func (s *Sketch[K]) EffectiveWindow() int { return s.window }

// Update processes one packet, locking only the key's shard. The key
// is hashed once; the same hash routes to a shard and feeds the core
// sketch's indexes.
//
//memento:noalloc
func (s *Sketch[K]) Update(x K) {
	h := s.hash(x)
	sl := &s.shards[s.shardFromHash(h)]
	sl.mu.Lock()
	sl.s.UpdateHashed(x, h)
	sl.mu.Unlock()
	s.ingested.Add(1)
}

// UpdateBatch processes a batch of packets: the batch is partitioned
// by shard and each shard ingests its slice through the batched
// geometric-skip hot path under one lock acquisition. The hash
// computed to route each key rides along with it, so the sampled
// τ-fraction that reaches a Full update inside the core is not
// rehashed. This is the intended high-rate path; per-goroutine
// Batchers feed it.
//
//memento:noalloc
func (s *Sketch[K]) UpdateBatch(xs []K) {
	if len(xs) == 0 {
		return
	}
	s.ingested.Add(uint64(len(xs)))
	if len(s.shards) == 1 {
		// No routing, so no hashes to reuse: hashing every key here
		// would cost more than the τ-fraction the core hashes itself.
		sl := &s.shards[0]
		sl.mu.Lock()
		sl.s.UpdateBatch(xs)
		sl.mu.Unlock()
		return
	}
	//memento:allow alloc "pool miss allocates the partition scratch; steady state reuses"
	part := s.pool.Get().(*partition[K])
	for _, x := range xs {
		h := s.hash(x)
		i := shardOf(h, len(s.shards))
		part.keys[i] = append(part.keys[i], x)
		part.hashes[i] = append(part.hashes[i], h)
	}
	for i := range part.keys {
		sub := part.keys[i]
		if len(sub) == 0 {
			continue
		}
		sl := &s.shards[i]
		sl.mu.Lock()
		sl.s.UpdateBatchHashed(sub, part.hashes[i])
		sl.mu.Unlock()
	}
	s.putPartition(part)
}

// putPartition recycles a partition, dropping sub-buffers whose
// capacity ballooned past maxRetainedBatchCap so one bursty batch
// cannot pin its high-water memory in the pool forever.
func (s *Sketch[K]) putPartition(part *partition[K]) {
	for i := range part.keys {
		if cap(part.keys[i]) > maxRetainedBatchCap {
			part.keys[i] = nil
			part.hashes[i] = nil
		} else {
			part.keys[i] = part.keys[i][:0]
			part.hashes[i] = part.hashes[i][:0]
		}
	}
	//memento:allow alloc "Pool.Put's per-P chain growth is a one-time cold cost"
	s.pool.Put(part)
}

// scaleFrom returns the skew correction for one shard: the ratio
// between the substream packets that fall inside the global window
// (share·W, capped at what the shard has seen) and the span the
// shard's own window covers. When every shard's share is 1/N — a
// lone HHH producer deals exactly that — the scale is exactly 1; a
// shard that received more (a flush that skipped a busy shard, or an
// elephant key's hash in Sketch) gets scale > 1 (its window spans
// less global time than W), a cold shard gets scale < 1. updates and
// effWindow come either from a locked live shard (point queries) or
// from a captured snapshot (multi-shard reads); total is the global
// packet count the share is measured against.
func scaleFrom(updates uint64, effWindow int, total uint64, globalWindow int) float64 {
	if total == 0 || updates == 0 {
		return 1
	}
	span := float64(updates) / float64(total) * float64(globalWindow)
	if span > float64(updates) {
		span = float64(updates)
	}
	winLen := float64(effWindow)
	if float64(updates) < winLen {
		winLen = float64(updates)
	}
	if winLen <= 0 || span <= 0 {
		return 1
	}
	return span / winLen
}

// snapshotAll captures every shard — exactly one lock acquisition per
// shard, held only for the slab copy — and derives each shard's skew
// correction from the captured update counts, so the whole read that
// follows sees one consistent traffic split.
func (s *Sketch[K]) snapshotAll(q *querySnap[K]) {
	for i := range s.shards {
		sl := &s.shards[i]
		sl.mu.Lock()
		sl.s.SnapshotInto(&q.shards[i])
		sl.mu.Unlock()
	}
	var total uint64
	for i := range q.shards {
		total += q.shards[i].Updates()
	}
	for i := range q.shards {
		q.scales[i] = scaleFrom(q.shards[i].Updates(), q.shards[i].EffectiveWindow(), total, s.window)
	}
}

// Query returns the estimate of x's frequency within the GLOBAL
// window: the key's shard estimate, skew-corrected for the fraction
// of traffic that shard received (see scaleFrom). A key lives in
// exactly one shard, so this takes one lock — already a single lock
// pass — and the routing hash doubles as the index hash inside the
// core (QueryHashed).
func (s *Sketch[K]) Query(x K) float64 {
	total := s.ingested.Load()
	h := s.hash(x)
	sl := &s.shards[s.shardFromHash(h)]
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.s.QueryHashed(x, h) * scaleFrom(sl.s.Updates(), sl.s.EffectiveWindow(), total, s.window)
}

// QueryBounds returns conservative upper and lower bounds on x's
// global window frequency, skew-corrected like Query.
func (s *Sketch[K]) QueryBounds(x K) (upper, lower float64) {
	total := s.ingested.Load()
	h := s.hash(x)
	sl := &s.shards[s.shardFromHash(h)]
	sl.mu.Lock()
	defer sl.mu.Unlock()
	scale := scaleFrom(sl.s.Updates(), sl.s.EffectiveWindow(), total, s.window)
	upper, lower = sl.s.QueryBoundsHashed(x, h)
	return upper * scale, lower * scale
}

// HeavyHitters appends every key whose estimated global-window
// frequency is at least theta·EffectiveWindow() and returns dst. It
// runs on the snapshot plane: one lock acquisition per shard to
// capture, then the whole scan lock-free, so the result is a fuzzy
// snapshot that is consistent per query (all shards captured in one
// pass) rather than per shard-visit.
func (s *Sketch[K]) HeavyHitters(theta float64, dst []core.Item[K]) []core.Item[K] {
	threshold := theta * float64(s.window)
	q := s.snapPool.Get().(*querySnap[K])
	s.snapshotAll(q)
	for i := range q.shards {
		snap := &q.shards[i]
		// Rescale: core applies its threshold against the shard-local
		// window, so convert the global cut to shard-local terms and
		// undo the skew correction (uniform within a shard).
		scale := q.scales[i]
		shardTheta := threshold / scale / float64(snap.EffectiveWindow())
		before := len(dst)
		dst = snap.HeavyHitters(shardTheta, dst)
		for j := before; j < len(dst); j++ {
			dst[j].Estimate *= scale
		}
	}
	s.snapPool.Put(q)
	return dst
}

// Overflowed calls fn for every key in any shard's overflow table
// until fn returns false. Like HeavyHitters it iterates captured
// snapshots, so fn runs with no shard lock held: a slow consumer
// cannot stall ingestion, and fn may itself query the sketch.
func (s *Sketch[K]) Overflowed(fn func(key K, overflows int32) bool) {
	q := s.snapPool.Get().(*querySnap[K])
	s.snapshotAll(q)
	defer s.snapPool.Put(q)
	for i := range q.shards {
		stop := false
		q.shards[i].Overflowed(func(key K, n int32) bool {
			if !fn(key, n) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// Updates returns the total number of updates across shards.
func (s *Sketch[K]) Updates() uint64 {
	var total uint64
	for i := range s.shards {
		sl := &s.shards[i]
		sl.mu.Lock()
		total += sl.s.Updates()
		sl.mu.Unlock()
	}
	return total
}

// FullUpdates returns the total number of Full updates across shards.
func (s *Sketch[K]) FullUpdates() uint64 {
	var total uint64
	for i := range s.shards {
		sl := &s.shards[i]
		sl.mu.Lock()
		total += sl.s.FullUpdates()
		sl.mu.Unlock()
	}
	return total
}

// Reset returns every shard to its initial empty state.
func (s *Sketch[K]) Reset() {
	for i := range s.shards {
		sl := &s.shards[i]
		sl.mu.Lock()
		sl.s.Reset()
		sl.mu.Unlock()
	}
	s.ingested.Store(0)
}

// Batcher is a per-goroutine ingestion buffer: Add partitions keys
// into per-shard sub-buffers with no synchronization and hands a
// sub-buffer to its shard (one lock acquisition) when it fills. The
// routing hash rides alongside each key and feeds the core's
// UpdateBatchHashed, so keys are hashed and copied exactly once per
// packet across the whole ingest path. A Batcher must not be shared
// between goroutines; call Flush before discarding it or reading
// final results.
type Batcher[K comparable] struct {
	s    *Sketch[K]
	bufs [][]K      //memento:reused (one per shard, cap-bounded by size)
	hs   [][]uint64 //memento:reused (parallel routing hashes; nil for a single shard)
	size int
}

// DefaultBatchSize amortizes lock acquisition and sampler draws well
// in practice while keeping per-goroutine buffers small.
const DefaultBatchSize = 256

// NewBatcher returns an ingestion buffer of the given per-shard size
// flushing into s. size <= 0 selects DefaultBatchSize.
func (s *Sketch[K]) NewBatcher(size int) *Batcher[K] {
	if size <= 0 {
		size = DefaultBatchSize
	}
	bufs := make([][]K, len(s.shards))
	for i := range bufs {
		bufs[i] = make([]K, 0, size)
	}
	b := &Batcher[K]{s: s, bufs: bufs, size: size}
	if len(s.shards) > 1 {
		// A single shard never routes, so there is no hash to carry;
		// the core hashes only the sampled τ-fraction itself.
		b.hs = make([][]uint64, len(s.shards))
		for i := range b.hs {
			b.hs[i] = make([]uint64, 0, size)
		}
	}
	return b
}

// Add buffers one key, flushing its shard's sub-buffer if full.
//
//memento:noalloc
func (b *Batcher[K]) Add(x K) {
	i := 0
	if len(b.bufs) > 1 {
		h := b.s.hash(x)
		i = shardOf(h, len(b.bufs))
		b.hs[i] = append(b.hs[i], h)
	}
	b.bufs[i] = append(b.bufs[i], x)
	if len(b.bufs[i]) >= b.size {
		b.flushShard(i)
	}
}

// Flush drains every sub-buffer into the sharded sketch.
//
//memento:noalloc
func (b *Batcher[K]) Flush() {
	for i := range b.bufs {
		if len(b.bufs[i]) > 0 {
			b.flushShard(i)
		}
	}
}

func (b *Batcher[K]) flushShard(i int) {
	sl := &b.s.shards[i]
	sl.mu.Lock()
	if b.hs == nil {
		sl.s.UpdateBatch(b.bufs[i])
	} else {
		sl.s.UpdateBatchHashed(b.bufs[i], b.hs[i])
	}
	sl.mu.Unlock()
	b.s.ingested.Add(uint64(len(b.bufs[i])))
	b.bufs[i] = b.bufs[i][:0]
	if b.hs != nil {
		b.hs[i] = b.hs[i][:0]
	}
}
