package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"memento/internal/core"
	"memento/internal/delta"
	"memento/internal/hhhset"
	"memento/internal/hierarchy"
	"memento/internal/keyidx"
	"memento/internal/lb"
	"memento/internal/netwide"
	"memento/internal/rng"
	"memento/internal/shard"
	"memento/internal/spacesaving"
)

// sliceLen is how many packets of the workload's flood-mixed trace each
// per-packet layer replays.
const sliceLen = 1 << 20

// tracedRounds is how many times a traced run's steady phase alternates an
// untraced and a traced stretch. The two kinds are pooled and compared to put
// a number on what the spans cost; alternating keeps the host's slow drift out
// of that number.
const tracedRounds = 2

// sink keeps replay loops from being optimised away.
var sink uint64

// replay runs the per-layer replays of one traced run: the same slice through
// each layer's public entry point in isolation, one span per (layer, slice).
type replay struct {
	sp    *spec
	seed  uint64
	slice []hierarchy.Packet
	tr    *tracer
	r     *result
	next  int // slice id of the next span
}

// perItem runs fn once inside a span named name and reports ns per item.
func (c *replay) perItem(name string, items int, fn func()) {
	s := c.tr.begin(name, -1, c.next)
	c.next++
	fn()
	c.tr.end(s)
	c.r.set(name, float64(c.tr.spans[s].dur().Nanoseconds())/float64(items))
}

// medianOf runs fn reps times, each in its own span, and returns the median
// duration in units of per (time.Microsecond or time.Millisecond).
func (c *replay) medianOf(name string, reps int, per time.Duration, fn func()) float64 {
	durs := make([]float64, reps)
	for i := range durs {
		s := c.tr.begin(name, -1, c.next)
		fn()
		c.tr.end(s)
		durs[i] = float64(c.tr.spans[s].dur()) / float64(per)
	}
	c.next++
	return median(durs)
}

// chunks calls fn on consecutive size-long pieces of the slice.
func (c *replay) chunks(size int, fn func([]hierarchy.Packet)) {
	for ps := c.slice; len(ps) > 0; ps = ps[min(size, len(ps)):] {
		fn(ps[:min(size, len(ps))])
	}
}

// leaves replays the innermost layers: hashing, prefix extraction, the skip
// sampler, the flat key index and Space Saving, the last two sized as one
// partition of the workload.
func (c *replay) leaves(k int) {
	hier, n := c.sp.Hier, len(c.slice)
	h := hier.H()
	hasher := hierarchy.PrefixHasher(c.seed)
	c.perItem("hierarchy.hash_ns", n, func() {
		for _, p := range c.slice {
			sink ^= hasher(hier.Fully(p))
		}
	})
	c.perItem("hierarchy.prefix_ns", n*h, func() {
		for _, p := range c.slice {
			for i := 0; i < h; i++ {
				sink ^= uint64(hier.Prefix(p, i).Src)
			}
		}
	})
	geo := rng.NewGeometric(rng.New(c.seed), c.sp.tau())
	c.perItem("rng.geometric_ns", n, func() {
		for i := 0; i < n; i++ {
			sink += uint64(geo.Next())
		}
	})

	// One prefix per packet, the pattern rotating, as a Full update picks it.
	pre := make([]hierarchy.Prefix, n)
	hs := make([]uint64, n)
	for j, p := range c.slice {
		pre[j] = hier.Prefix(p, j%h)
		hs[j] = hasher(pre[j])
	}
	idx := keyidx.MustNew[hierarchy.Prefix](k, hasher)
	for j := 0; j < n && idx.Len() < k; j++ {
		idx.PutH(pre[j], 1, hs[j])
	}
	c.perItem("keyidx.get_ns", n, func() {
		for j := range pre {
			v, _ := idx.GetH(pre[j], hs[j])
			sink += uint64(v)
		}
	})
	c.perItem("keyidx.inc_dec_ns", 2*n, func() {
		for j := range pre {
			idx.IncH(pre[j], 1, hs[j])
			idx.DecH(pre[j], hs[j])
		}
	})
	ss, err := spacesaving.NewWithHash[hierarchy.Prefix](k, hasher)
	if err != nil {
		panic(err) // k > 0: sized from a valid configuration
	}
	evicted := 0
	ss.SetEvictHook(func(hierarchy.Prefix) { evicted++ })
	c.perItem("spacesaving.add_ns", n, func() {
		for j := range pre {
			ss.AddHashed(pre[j], hs[j])
		}
	})
	c.r.set("spacesaving.evict_frac", float64(evicted)/float64(n))
}

// coreLayers replays one partition's H-Memento and returns the instances for
// the layers above to snapshot.
func (c *replay) coreLayers(cfg core.HHHConfig, batch int) (one, batched *core.HHH) {
	n := len(c.slice)
	one, batched, adv := core.MustNewHHH(cfg), core.MustNewHHH(cfg), core.MustNewHHH(cfg)
	c.perItem("core.update_ns", n, func() {
		for _, p := range c.slice {
			one.Update(p)
		}
	})
	c.perItem("core.update_batch_ns", n, func() { c.chunks(batch, batched.UpdateBatch) })
	full := one.Sketch().FullUpdates() + batched.Sketch().FullUpdates()
	c.r.set("core.full_update_frac", float64(full)/float64(one.Sketch().Updates()+batched.Sketch().Updates()))
	skip := max(c.sp.V/c.sp.Hier.H(), 1) // the mean gap between Full updates
	c.perItem("core.window_advance_ns", n, func() {
		for done := 0; done < n; done += skip {
			adv.WindowAdvance(skip)
		}
	})
	var snap core.HHHSnapshot
	c.r.set("core.snapshot_us", c.medianOf("core.snapshot_us", 20, time.Microsecond, func() { one.SnapshotInto(&snap) }))
	return one, batched
}

// shardLayers replays the sharded front-end of a device workload and returns
// the per-shard snapshots of the instance it filled.
func (c *replay) shardLayers() ([]*core.HHHSnapshot, error) {
	n, sp := len(c.slice), c.sp
	var devs [3]*device
	for i := range devs {
		d, err := newDevice(sp, c.seed)
		if err != nil {
			return nil, err
		}
		devs[i] = d
	}
	sh := devs[0].hhh
	c.perItem("shard.batcher_add_ns", n, func() {
		b := sh.NewBatcher(sp.Batch)
		for _, p := range c.slice {
			b.Add(p)
		}
		b.Flush()
	})
	c.perItem("shard.update_batch_ns", n, func() { c.chunks(sp.Batch, devs[1].hhh.UpdateBatch) })
	c.perItem("lb.observer_ns", n, func() {
		o := lb.NewBatchingObserver(devs[2].hhh, sp.Batch)
		for _, p := range c.slice {
			o.Observe(p)
		}
		o.Flush()
	})

	var buf bytes.Buffer
	var cpErr error
	c.r.set("shard.checkpoint_ms", c.medianOf("shard.checkpoint_ms", 5, time.Millisecond, func() {
		buf.Reset()
		if err := sh.Checkpoint(&buf); err != nil {
			cpErr = err
		}
	}))
	if cpErr != nil {
		return nil, cpErr
	}
	c.r.set("shard.checkpoint_bytes", float64(buf.Len()))
	snaps, err := shard.DecodeHHHCheckpoint(&buf)
	if err != nil {
		return nil, err
	}
	var most, total uint64
	for _, s := range snaps {
		most, total = max(most, s.Updates()), total+s.Updates()
	}
	c.r.set("shard.imbalance", float64(most)*float64(len(snaps))/float64(total))

	var out []core.HeavyPrefix
	c.r.set("shard.output_us", c.medianOf("shard.output_us", 10, time.Microsecond, func() { out = sh.OutputTo(sp.Theta, out[:0]) }))
	return snaps, nil
}

// mergeLayers times the merged read plane over captured snapshots: the whole
// Merger.Output, then the HHH-set scan alone over the candidate list the
// merged table yields.
func (c *replay) mergeLayers(snaps []*core.HHHSnapshot, mergerRuns bool) {
	sp := c.sp
	var m shard.Merger
	var out []core.HeavyPrefix
	if mergerRuns {
		c.r.set("shard.merger_output_us", c.medianOf("shard.merger_output_us", 10, time.Microsecond, func() {
			out = m.Output(sp.Hier, snaps, sp.Theta, out[:0])
		}))
	}
	m.Prepare(snaps)
	defer m.Release()
	threshold := sp.Theta * float64(m.Window())
	cut := threshold - m.Compensation() // the 1D pre-filter Merger.Output applies
	seen := make(map[hierarchy.Prefix]bool)
	var cands []hhhset.Candidate
	for _, s := range snaps {
		s.Sketch().ForEachEstimate(func(p hierarchy.Prefix, _, _ float64) bool {
			if !seen[p] {
				seen[p] = true
				if upper, lower := m.Bounds(p); sp.Hier.Dims() > 1 || upper >= cut {
					cands = append(cands, hhhset.Candidate{Prefix: p, Upper: upper, Lower: lower})
				}
			}
			return true
		})
	}
	var sc hhhset.Scratch
	var entries []hhhset.Entry
	c.r.set("hhhset.compute_us", c.medianOf("hhhset.compute_us", 10, time.Microsecond, func() {
		entries = hhhset.ComputeCandidates(sp.Hier, &m, cands, threshold, m.Compensation(), &sc, entries[:0])
	}))
	c.r.set("hhhset.candidates", float64(len(cands)))
	c.r.set("hhhset.output_len", float64(len(entries)))
}

// chainLayers replays the delta fleet's replication path on a standalone
// chain: an agent-sized sketch fed the slice at the agent cadence, each
// record captured, encoded, applied and materialised as the controller does.
func (c *replay) chainLayers(cfg core.HHHConfig, full *core.HHH) error {
	var snap core.HHHSnapshot
	full.SnapshotInto(&snap)
	var data []byte
	var err error
	c.r.set("codec.snapshot_encode_us", c.medianOf("codec.snapshot_encode_us", 10, time.Microsecond, func() {
		data, err = snap.AppendTo(data[:0])
	}))
	if err != nil {
		return err
	}
	c.r.set("codec.snapshot_bytes", float64(len(data)))
	c.r.set("codec.snapshot_decode_us", c.medianOf("codec.snapshot_decode_us", 10, time.Microsecond, func() {
		_, err = core.DecodeHHHSnapshot(data)
	}))
	if err != nil {
		return err
	}

	hh := core.MustNewHHH(cfg)
	tracker, err := delta.NewTracker(hh, delta.TrackerConfig{Chain: c.seed | 1, Floor: hh.Sketch().BlockCounts()})
	if err != nil {
		return err
	}
	state := delta.NewState()
	stages := map[string][]float64{}
	stage := func(name string, id int, fn func() error) error {
		s := c.tr.begin(name, -1, id)
		err := fn()
		c.tr.end(s)
		stages[name] = append(stages[name], float64(c.tr.spans[s].dur())/float64(time.Microsecond))
		return err
	}
	var rec []byte
	records, bases, total := 0, 0, 0
	c.chunks(c.sp.tickEvery()/agents, func(ps []hierarchy.Packet) {
		if err != nil {
			return
		}
		for _, p := range ps {
			hh.Update(p)
		}
		id := c.next + records
		err = stage("delta.capture_us", id, tracker.Capture)
		if err == nil {
			err = stage("delta.append_us", id, func() (e error) {
				var base bool
				if rec, base, e = tracker.AppendCaptured(rec[:0]); base {
					bases++
				}
				return e
			})
		}
		if err == nil {
			err = stage("delta.apply_us", id, func() error { return state.Apply(rec) })
		}
		if err == nil {
			err = stage("delta.materialize_us", id, func() error { _, e := state.Snapshot(); return e })
		}
		records++
		total += len(rec)
	})
	if err != nil {
		return err
	}
	c.next += records
	for name, durs := range stages {
		c.r.set(name, median(durs))
	}
	c.r.set("delta.bytes_per_record", float64(total)/float64(records))
	c.r.set("delta.base_frac", float64(bases)/float64(records))
	return nil
}

// aclLayers times the enforcement point with one verdict per flood subnet.
func (c *replay) aclLayers(subnets []uint32) {
	vs := make([]netwide.Verdict, len(subnets))
	for i, s := range subnets {
		vs[i] = netwide.Verdict{Subnet: s, PrefixBytes: 1, Act: netwide.ActionDeny}
	}
	acl := lb.NewACL()
	c.r.set("lb.acl_apply_us", c.medianOf("lb.acl_apply_us", 200, time.Microsecond, func() { acl.Apply(vs) }))
	c.perItem("lb.acl_lookup_ns", len(c.slice), func() {
		for _, p := range c.slice {
			sink += uint64(acl.Lookup(p.Src))
		}
	})
}

// runTraced is the traced run: set up once, detect and score, replay the slice
// through every layer, then run the steady phase in alternating untraced and
// traced stretches — the traced ones with harness-side spans around every call
// into a layer — and derive the ledger.
func runTraced(sp *spec, z sizing, opt options, r *result) error {
	it, err := setUp(sp, z, opt.seed)
	if err != nil {
		return err
	}
	defer it.sys.close()
	for _, d := range perLayer {
		r.set(d.Name, 0) // a layer this workload does not enter did no work
	}
	_, acc, err := detectAndScore(it, z, r)
	if err != nil {
		return err
	}
	r.set("core.est_nrmse", acc.NRMSE)
	tr := newTracer()
	c := &replay{sp: sp, seed: opt.seed, slice: it.in.mixed()[:min(sliceLen, len(it.in.mixed()))], tr: tr, r: r}
	cfg, _ := sp.partition(opt.seed)
	batch := max(sp.Batch, 256)
	c.leaves(cfg.Counters)
	one, _ := c.coreLayers(cfg, batch)
	c.aclLayers(it.in.subnets)
	outer := "core.update_ns"
	var snaps []*core.HHHSnapshot
	if !sp.Fleet {
		outer = "shard.batcher_add_ns"
		if snaps, err = c.shardLayers(); err != nil {
			return err
		}
	}

	runtime.GC() // the replays' garbage must not be collected on steady's clock
	dur := time.Duration(opt.seconds * float64(time.Second))
	plain, traced := &steady{}, &steady{}
	for i := 0; i < tracedRounds; i++ {
		plain.pool(it.runSteady(dur/(2*tracedRounds), nil))
		traced.pool(it.runSteady(dur/(2*tracedRounds), tr))
	}
	tally(r, it, plain.Failed+traced.Failed, plain.Ticks+traced.Ticks)
	led := r.Ledger

	switch {
	case sp.delta():
		snaps = it.flt.ctrl.MergedSnapshots(nil)
		if err := c.chainLayers(cfg, one); err != nil {
			return err
		}
	case sp.Fleet:
		var snap core.HHHSnapshot
		one.SnapshotInto(&snap)
		snaps = []*core.HHHSnapshot{&snap}
	}
	c.mergeLayers(snaps, !sp.sampled())

	// Control-plane layers: real nested spans sharing the tick id.
	ms := durationsMs(tr.spans)
	if !sp.Fleet {
		r.setSampled("shard.output_ms_p90", quantile(traced.Query.ms, 0.9), len(traced.Query.ms))
		r.setSampled("shard.output_cold_ms", quantile(traced.ColdMs, 0.5), len(traced.ColdMs))
	} else {
		r.setSampled("netwide.output_ms_p90", quantile(traced.Query.ms, 0.9), len(traced.Query.ms))
		r.setSampled("netwide.enforce_ms_p90", quantile(traced.Enforce.ms, 0.9), len(traced.Enforce.ms))
		var observing float64
		for _, d := range ms["netwide.observe"] {
			observing += d
		}
		r.set("netwide.observe_ns", observing*1e6/float64(traced.Packets))
		for _, name := range []string{"flush_to_covered", "output", "broadcast_to_verdict", "mitigate"} {
			durs := ms["netwide."+name]
			r.setSampled("netwide."+name+"_ms", quantile(durs, 0.5), len(durs))
		}
	}
	r.set("netwide.wire_bytes_per_pkt", float64(led.BytesIn)/float64(led.Sent))
	r.set("netwide.reports", float64(led.Reports))
	r.set("netwide.bytes_in", float64(led.BytesIn))
	r.set("netwide.dropped", float64(led.Dropped))
	r.set("netwide.resyncs", float64(led.Resyncs))

	if sp.sampled() {
		if err := httpLayer(it, min(5*time.Second, dur/2), r); err != nil {
			return err
		}
	}

	// The ledger: do the parts add up to the whole?
	busyNs := float64(traced.Busy.Nanoseconds()) / float64(traced.Packets)
	r.set("ledger.ingest_coverage", r.Metrics[outer].Value/busyNs)
	r.set("ledger.enforce_coverage", coverage(tr.spans, "tick"))
	r.setSampled("bench.gen_late_ms_p90", quantile(traced.LateMs, 0.9), len(traced.LateMs))
	plainRate, plainEnforce := median(plain.Rates), quantile(plain.Enforce.ms, 0.5)
	r.set("bench.trace_overhead_frac", (plainRate-median(traced.Rates))/plainRate)
	r.set("bench.trace_overhead_enforce_frac", (quantile(traced.Enforce.ms, 0.5)-plainEnforce)/plainEnforce)
	r.set("bench.failed_frac", float64(r.Failed)/float64(r.Attempted))

	if got, want := r.Metrics["core.full_update_frac"].Value, sp.tau(); !closeTo(got, want, 2*len(c.slice)) {
		r.problem("core.full_update_frac %.5f, want H/V = %.5f", got, want)
	}
	if err := tr.write(filepath.Join(opt.outDir, sp.Name+".trace.json")); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
