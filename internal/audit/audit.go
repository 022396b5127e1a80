// Package audit is the online (ε,δ) accuracy plane: a constant-memory
// shadow oracle that maintains EXACT sliding-window counts for a
// small, deterministic, hash-sampled set of keys and periodically
// compares them against the sketch's estimates. The observed error
// distribution, the guaranteed error bound and — the invariant the
// whole repo exists to uphold — a bound-violation counter that must
// stay zero are exported through the obs plane (DESIGN.md §11).
//
// Sampling is by key, not by packet: a key is audited iff the low
// SampleShift bits of its hash are zero, so every occurrence of an
// audited key is counted and the exact count is exact, not an
// estimate of an estimate. The oracle's memory is fixed at
// construction (an open-addressing key table plus an occurrence FIFO
// ring); when traffic concentrates so hard that either fills, the
// auditor taints itself for one full window instead of reporting
// counts it knows are short — a taint suppresses violation verdicts,
// never manufactures them.
//
// Concurrency contract: Observe/ObserveHashed/Flush belong to ONE
// goroutine (attach the auditor to a single shard.PacketBatcher or
// drive it from the generator loop); per packet they cost one
// position increment, one hash compare and a staged append, with the
// table/FIFO work amortized under an internal mutex every SyncEvery
// packets. Audit runs under the same mutex from any goroutine, off
// the hot path.
package audit

import (
	"errors"
	"math"
	"sync"

	"memento/internal/hierarchy"
	"memento/internal/obs"
)

// Estimator is the query surface the auditor compares against:
// conservative bounds for one prefix plus the additive sampling
// compensation. shard.HHH satisfies it directly; merged fleet views
// adapt through Funcs.
type Estimator interface {
	// QueryBounds returns conservative bounds for p's window count:
	// true ≤ upper (+compensation) and true ≥ lower (−compensation).
	QueryBounds(p hierarchy.Prefix) (upper, lower float64)
	// Compensation is the additive slack of sampled deployments (0
	// when every packet is processed).
	Compensation() float64
}

// Funcs adapts a closure-based bounds query (e.g. a prepared
// shard.Merger over controller-held fleet snapshots) to Estimator.
type Funcs struct {
	Bounds func(p hierarchy.Prefix) (upper, lower float64)
	Comp   float64
}

func (f Funcs) QueryBounds(p hierarchy.Prefix) (upper, lower float64) { return f.Bounds(p) }
func (f Funcs) Compensation() float64                                 { return f.Comp }

// Config parameterizes an Auditor.
type Config struct {
	// Hier is the audited instance's prefix domain; keys are its
	// fully-specified prefixes. Required.
	Hier hierarchy.Hierarchy
	// Window is the exact-count window W, in packets. Match the
	// audited instance's EffectiveWindow (the bound being audited is
	// over that window). Required.
	Window int
	// SampleShift sets the key sampling rate 2^-shift: a key is
	// audited iff the low shift bits of its hash are zero. 0 audits
	// every key (tests, small domains). Max 32.
	SampleShift uint
	// MaxKeys bounds the audited key set; 0 defaults to 1024.
	MaxKeys int
	// MaxOccurrences bounds the in-window occurrence FIFO; 0 defaults
	// to max(4·MaxKeys, 1<<16). If audited keys collectively occupy
	// more of the window than this, the auditor taints rather than
	// undercounts.
	MaxOccurrences int
	// SyncEvery is the staged-apply cadence in packets; 0 defaults to
	// 1024. Smaller values tighten the lag between the hot-path
	// position and the applied table at the cost of more mutex
	// traffic.
	SyncEvery int
	// Seed salts the default key hash (hierarchy.PrefixHasher). Fix it
	// for reproducible sample sets.
	Seed uint64
	// Hash overrides the key hash (tests force-sample keys with it).
	Hash func(hierarchy.Prefix) uint64
}

// staged is one sampled occurrence awaiting its amortized apply.
type staged struct {
	key hierarchy.Prefix
	h   uint64
	pos uint64
}

// occ is one in-window occurrence of an audited key.
type occ struct {
	key hierarchy.Prefix
	h   uint64
	pos uint64
}

// entry is one audited key's table slot.
type entry struct {
	key   hierarchy.Prefix
	h     uint64
	count uint64
	used  bool
}

// stageCap is the fixed hot-path staging buffer; a full stage forces
// a sync regardless of SyncEvery.
const stageCap = 256

// Auditor is the shadow oracle. The zero value is not usable; build
// with New. A nil *Auditor is a disabled instrument: Observe and
// Audit on it are no-ops.
type Auditor struct {
	// Hot-path state, owned by the single observing goroutine.
	pos       uint64 // packets observed (1-based position of the latest)
	lastSync  uint64 // pos at the last staged apply
	nstage    int
	stage     [stageCap]staged
	mask      uint64
	window    uint64
	syncEvery uint64
	hash      func(hierarchy.Prefix) uint64
	hier      hierarchy.Hierarchy

	mu sync.Mutex
	// Guarded by mu.
	table        []entry // open addressing, power-of-two, linear probe
	keys         int
	fifo         []occ // occurrence ring
	fifoHead     int
	fifoLen      int
	appliedPos   uint64
	taintedUntil uint64  // violation verdicts suppressed while appliedPos < this
	lastBound    float64 // max (band + comp) over keys in the last Audit pass

	// Instruments: always allocated so accessors and registry exports
	// share cells.
	sampled    *obs.Counter
	checks     *obs.Counter
	violations *obs.Counter
	overflows  *obs.Counter
	skipped    *obs.Counter
	errHist    obs.Histogram
}

// New validates cfg and builds an auditor. All memory is allocated
// here; the hot path never grows anything.
func New(cfg Config) (*Auditor, error) {
	if cfg.Hier == nil {
		return nil, errors.New("audit: Config.Hier is required")
	}
	if cfg.Window <= 0 {
		return nil, errors.New("audit: Config.Window must be positive")
	}
	if cfg.SampleShift > 32 {
		return nil, errors.New("audit: Config.SampleShift above 32")
	}
	maxKeys := cfg.MaxKeys
	if maxKeys <= 0 {
		maxKeys = 1024
	}
	maxOcc := cfg.MaxOccurrences
	if maxOcc <= 0 {
		maxOcc = max(4*maxKeys, 1<<16)
	}
	syncEvery := cfg.SyncEvery
	if syncEvery <= 0 {
		syncEvery = 1024
	}
	hash := cfg.Hash
	if hash == nil {
		hash = hierarchy.PrefixHasher(cfg.Seed)
	}
	// Table capacity: next power of two holding maxKeys at ≤1/2 load,
	// so linear probes stay short even at the key cap.
	tcap := 16
	for tcap < 2*maxKeys {
		tcap <<= 1
	}
	fcap := 1
	for fcap < maxOcc {
		fcap <<= 1
	}
	return &Auditor{
		mask:       (uint64(1) << cfg.SampleShift) - 1,
		window:     uint64(cfg.Window),
		syncEvery:  uint64(syncEvery),
		hash:       hash,
		hier:       cfg.Hier,
		table:      make([]entry, tcap),
		fifo:       make([]occ, fcap),
		sampled:    &obs.Counter{},
		checks:     &obs.Counter{},
		violations: &obs.Counter{},
		overflows:  &obs.Counter{},
		skipped:    &obs.Counter{},
	}, nil
}

// maxKeysCap returns how many keys the table admits (1/2 load).
func (a *Auditor) maxKeysCap() int { return len(a.table) / 2 }

// Observe feeds one packet: the position advances for every packet,
// and occurrences of sampled keys are staged for the amortized apply.
// Single-writer; see the package contract.
//
//memento:noalloc
func (a *Auditor) Observe(p hierarchy.Packet) {
	if a == nil {
		return
	}
	f := a.hier.Fully(p)
	a.ObserveHashed(f, a.hash(f))
}

// ObservePacket is the batcher tee's fast path: callers hand the
// packet plus any key-deterministic hash they already computed
// (shard.PacketBatcher reuses its shard-routing hash, so the audited
// hot path hashes each packet exactly once). The fully-specified key
// is only materialized for the 2^-shift sampled fraction, keeping the
// common case to one increment, one mask test and one cadence test.
//
// The sync cadence is evaluated when a sampled packet stages (and
// when the stage fills), not per packet: the unsampled fast path must
// inline into the batcher's Add, and the extra apply lag this costs —
// the expected gap between sampled packets, 2^shift positions — is
// noise against SyncEvery. Quiesced audits Flush first regardless.
//
//memento:noalloc
func (a *Auditor) ObservePacket(p hierarchy.Packet, h uint64) {
	if a == nil {
		return
	}
	a.pos++
	if h&a.mask == 0 {
		a.stagePacket(p, h)
	}
}

// stagePacket materializes the sampled packet's key and stages it.
//
//memento:noalloc
func (a *Auditor) stagePacket(p hierarchy.Packet, h uint64) {
	a.stageOcc(a.hier.Fully(p), h)
}

// ObserveHashed is ObservePacket for callers that already hold the
// fully-specified key.
//
//memento:noalloc
func (a *Auditor) ObserveHashed(key hierarchy.Prefix, h uint64) {
	if a == nil {
		return
	}
	a.pos++
	if h&a.mask == 0 {
		a.stageOcc(key, h)
	}
}

// stageOcc stages one sampled occurrence, applying when the stage
// fills or the sync cadence lapses.
//
//memento:noalloc
func (a *Auditor) stageOcc(key hierarchy.Prefix, h uint64) {
	a.sampled.Inc()
	a.stage[a.nstage] = staged{key: key, h: h, pos: a.pos}
	a.nstage++
	if a.nstage == stageCap || a.pos-a.lastSync >= a.syncEvery {
		a.sync()
	}
}

// Flush applies every staged occurrence now. Call it before Audit
// when the stream is quiesced so the oracle and the sketch describe
// the same window position. Owner goroutine only.
func (a *Auditor) Flush() {
	if a == nil {
		return
	}
	a.sync()
}

// sync applies the staged occurrences and evicts what slid out of the
// window, all under one mutex acquisition.
//
//memento:noalloc
func (a *Auditor) sync() {
	a.lastSync = a.pos
	a.mu.Lock()
	for i := 0; i < a.nstage; i++ {
		a.applyLocked(a.stage[i])
	}
	a.nstage = 0
	a.appliedPos = a.pos
	a.evictLocked()
	a.mu.Unlock()
}

// applyLocked inserts one occurrence into the table and FIFO, or
// taints the auditor when either is full (a short count must suppress
// verdicts, never fabricate a violation).
func (a *Auditor) applyLocked(s staged) {
	if a.fifoLen == len(a.fifo) {
		a.taintLocked(s.pos)
		return
	}
	mask := len(a.table) - 1
	i := int(s.h) & mask
	for a.table[i].used {
		if a.table[i].h == s.h && a.table[i].key == s.key {
			a.table[i].count++
			a.pushOccLocked(s)
			return
		}
		i = (i + 1) & mask
	}
	if a.keys >= a.maxKeysCap() {
		a.taintLocked(s.pos)
		return
	}
	a.table[i] = entry{key: s.key, h: s.h, count: 1, used: true}
	a.keys++
	a.pushOccLocked(s)
}

// pushOccLocked appends to the occurrence ring (capacity checked by
// the caller).
func (a *Auditor) pushOccLocked(s staged) {
	tail := (a.fifoHead + a.fifoLen) & (len(a.fifo) - 1)
	a.fifo[tail] = occ{key: s.key, h: s.h, pos: s.pos}
	a.fifoLen++
}

// taintLocked drops an occurrence and suppresses verdicts until the
// dropped position has slid fully out of the window, at which point
// the retained counts are exact again.
func (a *Auditor) taintLocked(pos uint64) {
	a.overflows.Inc()
	if until := pos + a.window; until > a.taintedUntil {
		a.taintedUntil = until
	}
}

// evictLocked pops occurrences that slid out of the window (position
// ≤ appliedPos − W) and decrements their keys' counts.
func (a *Auditor) evictLocked() {
	for a.fifoLen > 0 {
		o := &a.fifo[a.fifoHead]
		if o.pos+a.window > a.appliedPos {
			break
		}
		a.decrementLocked(o.key, o.h)
		a.fifoHead = (a.fifoHead + 1) & (len(a.fifo) - 1)
		a.fifoLen--
	}
}

// decrementLocked drops one occurrence from a key's count, deleting
// the entry at zero.
func (a *Auditor) decrementLocked(key hierarchy.Prefix, h uint64) {
	mask := len(a.table) - 1
	i := int(h) & mask
	for a.table[i].used {
		if a.table[i].h == h && a.table[i].key == key {
			a.table[i].count--
			if a.table[i].count == 0 {
				a.deleteSlotLocked(i)
				a.keys--
			}
			return
		}
		i = (i + 1) & mask
	}
	// Unreachable while the FIFO and table agree; tolerate silently —
	// the worst outcome of a miss is a skipped decrement, surfaced by
	// the exactness tests, never a panic on the apply path.
}

// deleteSlotLocked removes slot i with backward-shift deletion so
// linear probing never needs tombstones: subsequent entries whose
// probe path crossed i are moved back into it.
func (a *Auditor) deleteSlotLocked(i int) {
	mask := len(a.table) - 1
	j := i
	for {
		a.table[i].used = false
		for {
			j = (j + 1) & mask
			if !a.table[j].used {
				return
			}
			k := int(a.table[j].h) & mask // j's home slot
			// Move j back iff its home does not lie in (i, j] — i.e.
			// its probe path crossed the hole at i.
			if i <= j {
				if k <= i || k > j {
					break
				}
			} else if k <= i && k > j {
				break
			}
		}
		a.table[i] = a.table[j]
		i = j
	}
}

// Result is one Audit pass.
type Result struct {
	Pos        uint64  // applied stream position the counts describe
	Keys       int     // audited keys currently in window
	Checks     int     // keys compared (0 when tainted)
	Violations int     // comparisons outside the guaranteed bound
	MaxAbsErr  float64 // max |upper − exact| over audited keys
	Bound      float64 // max (upper − lower) + compensation over audited keys
	Tainted    bool    // verdicts suppressed (oracle overflowed within the last window)
}

// Audit compares every audited key's exact window count against est's
// bounds. Safe to call from any goroutine; runs off the hot path
// (Observe's amortized sync blocks for its duration). For exact
// agreement, quiesce the stream and Flush first — under concurrent
// ingestion the comparison is fuzzy by the sync lag plus in-flight
// batches, which the (ε,δ) band normally absorbs but does not
// guarantee.
func (a *Auditor) Audit(est Estimator) Result {
	if a == nil || est == nil {
		return Result{}
	}
	comp := est.Compensation()
	a.mu.Lock()
	defer a.mu.Unlock()
	res := Result{
		Pos:     a.appliedPos,
		Keys:    a.keys,
		Tainted: a.appliedPos < a.taintedUntil,
	}
	for i := range a.table {
		e := &a.table[i]
		if !e.used {
			continue
		}
		if res.Tainted {
			// A tainted oracle's counts may be short; recording their
			// errors would poison the histogram with artifacts of the
			// auditor's own overflow, not the sketch's accuracy.
			a.skipped.Inc()
			continue
		}
		upper, lower := est.QueryBounds(e.key)
		exact := float64(e.count)
		err := upper - exact
		if abs := math.Abs(err); abs > res.MaxAbsErr {
			res.MaxAbsErr = abs
		}
		band := (upper - lower) + comp
		if band > res.Bound {
			res.Bound = band
		}
		a.errHist.Observe(uint64(math.Abs(err)))
		res.Checks++
		a.checks.Inc()
		// The guarantee: lower − comp ≤ exact ≤ upper + comp, i.e.
		// err ∈ [−comp, band]. Outside it, the sketch broke its bound.
		if err < -comp || err > band {
			res.Violations++
			a.violations.Inc()
		}
	}
	a.lastBound = res.Bound
	return res
}

// Keys returns the number of audited keys currently in window.
func (a *Auditor) Keys() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.keys
}

// Count returns key's exact in-window count as of the last sync (0
// when not sampled or absent). It scans the table by key equality
// rather than probing by hash, because ObserveHashed admits any
// caller-supplied hash (the batcher tee reuses shard-routing hashes
// the auditor cannot recompute); Count is a test/debug read, never on
// a hot path.
func (a *Auditor) Count(key hierarchy.Prefix) uint64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := range a.table {
		if a.table[i].used && a.table[i].key == key {
			return a.table[i].count
		}
	}
	return 0
}

// Sampled returns how many sampled occurrences the hot path staged.
func (a *Auditor) Sampled() uint64 {
	if a == nil {
		return 0
	}
	return a.sampled.Load()
}

// Violations returns how many comparisons fell outside the bound.
// The repo's acceptance invariant is that this stays zero.
func (a *Auditor) Violations() uint64 {
	if a == nil {
		return 0
	}
	return a.violations.Load()
}

// Overflows returns how many occurrences were dropped (each taints
// one window).
func (a *Auditor) Overflows() uint64 {
	if a == nil {
		return 0
	}
	return a.overflows.Load()
}

// Skipped returns how many comparisons were suppressed by taint.
func (a *Auditor) Skipped() uint64 {
	if a == nil {
		return 0
	}
	return a.skipped.Load()
}

// Errors snapshots the observed-error histogram (|upper − exact| per
// audited key per pass).
func (a *Auditor) Errors() obs.HistSnapshot {
	var s obs.HistSnapshot
	if a != nil {
		a.errHist.Snapshot(&s)
	}
	return s
}

// Register exports the audit catalog (DESIGN.md §11):
// memento_audit_{observed_error,bound,bound_violations_total,
// checks_total,keys,sampled_total,overflows_total,skipped_total}.
func (a *Auditor) Register(r *obs.Registry) {
	if a == nil || r == nil {
		return
	}
	r.RegisterHistogram("memento_audit_observed_error", &a.errHist)
	r.RegisterCounter("memento_audit_bound_violations_total", a.violations)
	r.RegisterCounter("memento_audit_checks_total", a.checks)
	r.RegisterCounter("memento_audit_sampled_total", a.sampled)
	r.RegisterCounter("memento_audit_overflows_total", a.overflows)
	r.RegisterCounter("memento_audit_skipped_total", a.skipped)
	r.RegisterFunc("memento_audit_keys", func() float64 { return float64(a.Keys()) })
	r.RegisterFunc("memento_audit_bound", func() float64 {
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.lastBound
	})
}
