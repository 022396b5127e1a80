// Package core implements the Memento family of sliding-window heavy
// hitter algorithms — the primary contribution of "Memento: Making
// Sliding Windows Efficient for Heavy Hitters" (Ben Basat et al.,
// CoNEXT 2018).
//
// # Memento (Section 4.1, Algorithm 1)
//
// Memento estimates per-flow frequencies over the last W packets. It
// decouples the expensive Full update (admit an item into the sketch)
// from the cheap Window update (slide the window): each packet triggers
// a Full update with probability τ and only a Window update otherwise.
// With τ = 1 Memento degenerates to WCSS [Ben Basat et al., INFOCOM'16],
// which the paper uses as its sliding-window baseline.
//
// Internally the window is split into k = ⌈4/εa⌉ blocks. A Space Saving
// instance y approximately counts items within the current frame; every
// time an item's counter crosses a multiple of the *sampled* block size
// (τ·W/k) the item is recorded in an overflow queue for the current
// block and in the overflow table B. Blocks expire as the window
// slides; expiry is de-amortized, forgetting at most one queued item
// per packet, which yields constant worst-case update time
// (Theorem A.18).
//
// A note on units: the paper's pseudocode is written for τ = 1, where
// block timing (W/k packets) and the overflow threshold (W/k counts)
// coincide. For τ < 1 the analysis (Corollary A.5) configures the
// underlying window algorithm for the sampled substream, so the
// overflow threshold here is τ·W/k sampled counts while block *timing*
// remains W/k real packets; estimates scale by 1/τ. This keeps the
// algorithmic error at εa·W independent of τ, matching Theorem 5.2
// (ε = εa + εs) and the empirical behaviour in Figure 5.
//
// Sketch is not safe for concurrent use; split the stream across
// independently-locked instances (internal/shard does, for H-Memento)
// or guard it with a mutex at a higher layer.
//
//memento:deterministic
package core

import (
	"errors"
	"fmt"
	"math"

	"memento/internal/keyidx"
	"memento/internal/rng"
	"memento/internal/spacesaving"
)

// Config parameterizes a Memento sketch.
type Config struct {
	// Window is W, the sliding window size in packets. Required.
	Window int

	// Counters is the counter count k; an algorithmic error bound εa
	// stands for k = 4/εa (the evaluation sweeps 64/512/4096 counters).
	// Required.
	Counters int

	// Tau is the Full-update sampling probability τ ∈ (0, 1]. Zero
	// defaults to 1 (WCSS behaviour).
	Tau float64

	// Scale overrides the query scale factor (estimates are multiplied
	// by Scale). Zero defaults to 1/Tau. H-Memento sets Scale = V while
	// driving Full/Window updates itself.
	Scale float64

	// Seed makes the sampling deterministic; 0 selects a fixed default
	// so runs are reproducible by default.
	Seed uint64
}

// Item is a reported heavy hitter.
type Item[K comparable] struct {
	Key K
	// Estimate is the (conservative, one-sided) window frequency
	// estimate in packets.
	Estimate float64
}

// Sketch is a Memento instance over keys of type K: the queryable
// table (every read is defined there, once) plus what only a live
// sketch needs — the block ring, the frame countdowns and the samplers.
type Sketch[K comparable] struct {
	table[K]
	frame
	ring blockRing[K]

	blockPackets uint64 // block length in real packets (W/k)
	tau          float64

	src  *rng.Source
	bern *rng.Bernoulli

	// Delta plane (nil until EnableDeltaTracking); see delta.go.
	track *deltaPlane[K]

	// Observability (nil until Instrument): block-granular counters,
	// so the per-packet paths only ever pay a nil compare.
	ins *Instruments
}

// frame is the live sketch's position and update breakdown, and — as a
// copy — the scalar half of a snapshot's restore plane. Position is
// tracked as countdowns so the per-packet path needs no division:
// untilBlock packets remain in the current block, blocksLeft blocks
// remain in the current frame. The position m of Algorithm 1 is
// (k-blocksLeft+1)·blockPackets − untilBlock, recoverable via
// position().
type frame struct {
	untilBlock   uint64 // packets until the next block boundary (1..blockPackets)
	blocksLeft   int    // blocks until the frame flush (1..k)
	fullCount    uint64 // Full updates performed (diagnostics)
	forcedDrains uint64 // leftover queue entries drained at rotation
}

// FullUpdates returns how many of the updates were Full updates. On a
// snapshot it is the source's count at capture time, meaningful only
// with the restore plane (CheckpointInto).
func (f *frame) FullUpdates() uint64 { return f.fullCount }

// ForcedDrains reports overflow-queue entries that were still pending
// when their block rotated out. The de-amortization guarantees this is
// zero under Algorithm 1's update pattern; it is exposed so tests can
// assert the invariant.
func (f *frame) ForcedDrains() uint64 { return f.forcedDrains }

// UntilBlock returns the frame position countdown (on a snapshot:
// valid only with the restore plane).
func (f *frame) UntilBlock() uint64 { return f.untilBlock }

// BlocksLeft returns the blocks-until-frame-flush countdown (on a
// snapshot: valid only with the restore plane).
func (f *frame) BlocksLeft() int { return f.blocksLeft }

const defaultSeed = 0x6d656d656e746f21 // "memento!"

// New validates cfg and returns a ready Sketch hashing its keys with
// keyidx.DefaultHasher.
func New[K comparable](cfg Config) (*Sketch[K], error) { return NewWithHash[K](cfg, nil) }

// NewWithHash is New with a caller-supplied key hasher (nil selects
// New's default): a sketch has exactly one, shared by the in-frame
// Space Saving index and the overflow table, so one hash computation
// per Full update or query serves both indexes. H-Memento passes its
// one prefix hasher (prefixHash) here.
func NewWithHash[K comparable](cfg Config, hash func(K) uint64) (*Sketch[K], error) {
	if hash == nil {
		hash = keyidx.DefaultHasher[K]()
	}
	if cfg.Window <= 0 {
		return nil, errors.New("core: Window must be positive")
	}
	k := cfg.Counters
	if k <= 0 {
		return nil, errors.New("core: Counters must be positive")
	}
	tau := cfg.Tau
	if tau == 0 {
		tau = 1
	}
	if tau < 0 || tau > 1 {
		return nil, fmt.Errorf("core: Tau %v outside (0, 1]", cfg.Tau)
	}
	scale := cfg.Scale
	if scale == 0 {
		scale = 1 / tau
	}
	if scale < 1 {
		return nil, fmt.Errorf("core: Scale %v below 1", cfg.Scale)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = defaultSeed
	}

	blockPackets := uint64((cfg.Window + k - 1) / k)
	if blockPackets == 0 {
		blockPackets = 1
	}
	window := blockPackets * uint64(k)
	// Overflow threshold in sampled counts; see the package comment on
	// units. Scale (= 1/τ or V) relates real and sampled units.
	blockCounts := uint64(math.Round(float64(window) / scale / float64(k)))
	if blockCounts == 0 {
		blockCounts = 1
	}

	y, err := spacesaving.NewWithHash[K](k, hash)
	if err != nil {
		return nil, err
	}
	// A window sees up to τ·W/blockCounts = k·τ·scale overflows, which
	// bounds B's population: k keys for plain Memento (scale = 1/τ),
	// but H·k under H-Memento's Scale: V, where the threshold drops to
	// W/(V·k) counts (DESIGN.md §4). B is reserved for that bound here,
	// so a filling table never rehashes inside an ingest critical
	// section; W/blockCounts caps it where the threshold clamps to one
	// count. Growth stays as the cold path for a stream that exceeds it
	// (the ring spans k+1 blocks, and the Full-update count is random).
	reserve := min(int(math.Ceil(float64(k)*tau*scale)), int(window/blockCounts))
	overflow, err := keyidx.NewCounts[K](max(reserve, 1), hash)
	if err != nil {
		return nil, err
	}
	s := &Sketch[K]{
		table: table[K]{
			overflow:    *overflow,
			y:           *y,
			k:           k,
			window:      window,
			blockCounts: blockCounts,
			scale:       scale,
			hash:        hash,
		},
		frame:        frame{untilBlock: blockPackets, blocksLeft: k},
		blockPackets: blockPackets,
		tau:          tau,
		src:          rng.New(seed),
	}
	s.ring.init(k + 1)
	s.bern = rng.NewBernoulli(s.src, tau)
	return s, nil
}

// Tau returns the configured sampling probability.
func (s *Sketch[K]) Tau() float64 { return s.tau }

// Update processes one packet: with probability τ a Full update,
// otherwise a Window update (Algorithm 1, lines 19-21).
//
//memento:noalloc
func (s *Sketch[K]) Update(x K) {
	if s.bern.Sample() {
		s.FullUpdate(x)
	} else {
		s.WindowUpdate()
	}
}

// WindowAdvance slides the window by n packets without admitting any
// item — equivalent to n WindowUpdate calls, but block boundaries and
// expiry are handled per chunk instead of per packet. External drivers
// (the network-wide controller covering the packets a report spans,
// H-Memento's batch path) use it as their bulk hot path.
//
//memento:noalloc
func (s *Sketch[K]) WindowAdvance(n int) {
	if n > 0 {
		s.windowAdvance(uint64(n))
	}
}

// windowAdvance is WindowAdvance without the signedness guard. It
// processes whole blocks at a time: within a block the only per-packet
// work is the de-amortized forgetting, which collapses into a bounded
// pop loop because nothing is pushed while the window merely slides.
func (s *Sketch[K]) windowAdvance(n uint64) {
	for n > 0 {
		// Packets up to and including the next block-boundary packet.
		rem := s.untilBlock
		if n < rem {
			// Entirely inside the current block: advance and pop up to
			// n expired entries, exactly as n single updates would.
			s.updates += n
			s.untilBlock -= n
			s.forget(n)
			return
		}
		s.updates += rem
		// The rem-1 pre-boundary packets pop from the outgoing oldest
		// queue; the boundary packet rotates first and pops from the
		// queue that becomes oldest, matching WindowUpdate's order.
		s.forget(rem - 1)
		s.endBlock()
		s.forget(1)
		n -= rem
	}
}

// forget is the de-amortized forgetting of n packets with no rotation
// between them: up to n expired entries leave the oldest queue and B.
func (s *Sketch[K]) forget(n uint64) {
	for ; n > 0; n-- {
		id, ok := s.ring.popOldest()
		if !ok {
			return
		}
		s.forgetOverflow(id)
	}
}

// WindowUpdate slides the window by one packet without admitting any
// item (Algorithm 1, lines 2-11): it advances the frame position,
// flushes the in-frame counter at frame boundaries, rotates the block
// ring at block boundaries, and forgets at most one expired overflow
// entry. The common case — mid-block, nothing queued — is a counter
// decrement and two compares: no division, no map, no pointers.
//
//memento:noalloc
func (s *Sketch[K]) WindowUpdate() {
	s.updates++
	s.untilBlock--
	if s.untilBlock == 0 { // new block (including frame start)
		s.endBlock()
	}
	// De-amortized forgetting: at most one pop per packet.
	if id, ok := s.ring.popOldest(); ok {
		s.forgetOverflow(id)
	}
}

// endBlock runs at a block's boundary packet: restart the countdown,
// flush the in-frame counter if the frame ended with the block, and
// rotate the ring.
func (s *Sketch[K]) endBlock() {
	s.untilBlock = s.blockPackets
	s.blocksLeft--
	flushed := s.blocksLeft == 0
	if flushed {
		s.blocksLeft = s.k
		s.y.Flush() // new frame
		if s.track != nil {
			s.track.flushes++
		}
	}
	// The oldest block's queue must be empty by now; drain
	// defensively so external update patterns cannot corrupt B.
	for {
		id, ok := s.ring.popOldest()
		if !ok {
			break
		}
		s.forgetOverflow(id)
		s.forcedDrains++
	}
	s.ring.rotate()
	s.noteBlock(flushed)
}

// forgetOverflow decrements B[id], deleting exhausted entries.
func (s *Sketch[K]) forgetOverflow(id K) {
	if s.overflow.Dec(id) && s.track != nil {
		s.track.log(id, -1)
	}
}

// FullUpdate slides the window and admits x (Algorithm 1, lines 12-18):
// x is counted by the in-frame Space Saving instance, and if its
// counter crosses a multiple of the sampled block size the overflow is
// recorded in the current block's queue and in B. x is hashed once;
// the value serves both the Space Saving index and the overflow table.
//
//memento:noalloc
func (s *Sketch[K]) FullUpdate(x K) {
	h := s.hash(x)
	s.WindowUpdate()
	s.fullCount++
	c := s.y.AddHashed(x, h)
	if c%s.blockCounts == 0 { // overflow
		s.ring.push(x)
		s.overflow.IncH(x, 1, h)
		if s.track != nil {
			s.track.log(x, 1)
		}
	}
}

// Reset returns the sketch to its initial empty state, reusing all
// allocated memory.
func (s *Sketch[K]) Reset() {
	s.y.Flush()
	s.overflow.Flush()
	s.ring.reset()
	s.frame = frame{untilBlock: s.blockPackets, blocksLeft: s.k}
	s.updates = 0
	if s.track != nil {
		// Everything the previous epoch knew is gone; the next delta
		// drain sees resets > 0 and must start a fresh chain base.
		s.track.over = s.track.over[:0]
		s.track.flushes++
		s.track.resets++
	}
}

// blockRing is the paper's "queue of queues" b: one FIFO of overflowed
// keys per block overlapping the window (k+1 of them), stored as a
// circular buffer of reusable slices. The oldest index is cached and a
// running entry count gates popOldest, so the per-packet de-amortized
// pop — by far the hottest instruction sequence in WindowUpdate — is
// one compare in the common empty case instead of a division and two
// slice-header loads.
type blockRing[K comparable] struct {
	queues [][]K //memento:reused (ring buffers persist across windows)
	heads  []int
	cur    int // index of the newest (current) block's queue
	old    int // index of the oldest block's queue ((cur+1) mod len)
	queued int // undrained entries across all queues
}

func (r *blockRing[K]) init(n int) {
	r.queues = make([][]K, n)
	r.heads = make([]int, n)
	r.reset()
}

func (r *blockRing[K]) reset() {
	for i := range r.queues {
		r.queues[i] = r.queues[i][:0]
		r.heads[i] = 0
	}
	r.cur = 0
	r.old = 1 % len(r.queues)
	r.queued = 0
}

// push records an overflow in the current block.
func (r *blockRing[K]) push(x K) {
	r.queues[r.cur] = append(r.queues[r.cur], x)
	r.queued++
}

// popOldest removes and returns the next entry of the oldest block's
// queue, if any.
func (r *blockRing[K]) popOldest() (K, bool) {
	if r.queued == 0 {
		var zero K
		return zero, false
	}
	i := r.old
	if r.heads[i] < len(r.queues[i]) {
		v := r.queues[i][r.heads[i]]
		r.heads[i]++
		r.queued--
		return v, true
	}
	var zero K
	return zero, false
}

// rotate discards the (drained) oldest queue and makes it the new
// current block's queue.
func (r *blockRing[K]) rotate() {
	i := r.old
	r.queued -= len(r.queues[i]) - r.heads[i] // normally 0; callers drain first
	r.queues[i] = r.queues[i][:0]
	r.heads[i] = 0
	r.cur = i
	r.old = i + 1
	if r.old == len(r.queues) {
		r.old = 0
	}
}

// copyInto captures the undrained queue contents into dst, ordered
// oldest block first (current block last), reusing dst's sub-slices.
// The checkpoint plane stores queues in this canonical order so the
// wire format is independent of the ring's in-memory rotation.
func (r *blockRing[K]) copyInto(dst *[][]K) {
	n := len(r.queues)
	if cap(*dst) < n {
		//memento:allow alloc "snapshot ring grows to the live ring's size once; reused across captures"
		grown := make([][]K, n)
		copy(grown, *dst)
		*dst = grown
	} else {
		*dst = (*dst)[:n]
	}
	for i := 0; i < n; i++ {
		src := (r.old + i) % n
		(*dst)[i] = append((*dst)[i][:0], r.queues[src][r.heads[src]:]...)
	}
}

// restoreFrom rebuilds the ring from queues captured in copyInto's
// oldest→current order. len(queues) must equal the ring size.
func (r *blockRing[K]) restoreFrom(queues [][]K) {
	r.reset()
	n := len(r.queues)
	for i, q := range queues {
		tgt := (r.old + i) % n
		r.queues[tgt] = append(r.queues[tgt][:0], q...)
		r.queued += len(q)
	}
}
