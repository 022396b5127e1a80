package delta

import (
	"testing"

	"memento/internal/core"
	"memento/internal/hierarchy"
	"memento/internal/trace"
)

// BenchmarkDeltaEncode measures one steady-state chain step — drain,
// slot diff against the live sketch, record encode — with a fixed
// update mix absorbed between steps. CI gates 0 allocs/op: the drain
// and the diff reuse the tracker's buffers and the encode appends to
// the caller's recycled buffer. Its 16 keys never evict; the churning
// case is BenchmarkDeltaEncodeChurn.
func BenchmarkDeltaEncode(b *testing.B) {
	hh := newHHH(b, 1<<12, 256, 31)
	tr, err := NewTracker(hh, TrackerConfig{Chain: 1})
	if err != nil {
		b.Fatal(err)
	}
	// A stable mix of heavy keys keeps every iteration emitting real
	// entries (the keys' counters advance each round).
	batch := make([]hierarchy.Packet, 256)
	for i := range batch {
		batch[i] = hierarchy.Packet{Src: hierarchy.IPv4(10, 0, 0, byte(1+i%16))}
	}
	var buf []byte
	// Warm up: first record is the base; a few rounds stabilize buffer
	// sizes.
	for i := 0; i < 3; i++ {
		hh.UpdateBatch(batch)
		if buf, _, err = tr.Append(buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hh.UpdateBatch(batch)
		buf, _, err = tr.Append(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(buf) == 0 {
		b.Fatal("empty record")
	}
}

// churnAgent is the delta fleet's agent as the repository benchmark
// sizes it (fleet-delta-flood): 2048 counters over a 2^19-packet 1D
// window with V = H, so every packet is a Full update, fed backbone
// traffic with a 70% flood mixed in, one chain record per 8192
// packets at the fidelity floor netwide defaults to. About half the
// updates evict, an interval passes ~10 000 distinct keys through the
// table, and a few hundred of them matter to the follower.
type churnAgent struct {
	hh      *core.HHH
	tr      *Tracker
	packets []hierarchy.Packet
	pos     int
}

const (
	churnStep   = 8192                // packets per record
	churnWarmup = 1<<19/churnStep + 2 // records until the table is saturated and buffers have their size
)

func newChurnAgent(b *testing.B) *churnAgent {
	b.Helper()
	hh, err := core.NewHHH(core.HHHConfig{Hierarchy: hierarchy.OneD{}, Window: 1 << 19, Counters: 2048, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := NewTracker(hh, TrackerConfig{Chain: 1, Floor: hh.Sketch().BlockCounts()})
	if err != nil {
		b.Fatal(err)
	}
	base := trace.MustNewGenerator(trace.Backbone, 1).Generate(1<<18, nil)
	fl, err := trace.Inject(base, trace.FloodConfig{Subnets: 10, Rate: 0.7, Start: 0, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	return &churnAgent{hh: hh, tr: tr, packets: fl.Packets}
}

// observe feeds the next interval's packets.
func (a *churnAgent) observe() {
	for _, p := range a.packets[a.pos : a.pos+churnStep] {
		a.hh.Update(p)
	}
	if a.pos += churnStep; a.pos+churnStep > len(a.packets) {
		a.pos = 0
	}
}

// BenchmarkDeltaEncodeChurn measures one chain step of a churning
// agent — the time is Append alone, the updates in between run with
// the timer stopped. CI gates 0 allocs/op.
func BenchmarkDeltaEncodeChurn(b *testing.B) {
	a := newChurnAgent(b)
	var buf []byte
	var err error
	for i := 0; i < churnWarmup; i++ {
		a.observe()
		if buf, _, err = a.tr.Append(buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a.observe()
		b.StartTimer()
		if buf, _, err = a.tr.Append(buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

// churnRecords returns a follower that has applied the churn agent's
// first records, up to a saturated table, and the n records after
// them.
func churnRecords(b *testing.B, n int) (*State, [][]byte) {
	b.Helper()
	a := newChurnAgent(b)
	st := NewState()
	next := func() []byte {
		a.observe()
		rec, _, err := a.tr.Append(nil)
		if err != nil {
			b.Fatal(err)
		}
		return rec
	}
	for i := 0; i < churnWarmup; i++ {
		if err := st.Apply(next()); err != nil {
			b.Fatal(err)
		}
	}
	records := make([][]byte, n)
	for i := range records {
		records[i] = next()
	}
	return st, records
}

// BenchmarkDeltaApply measures the controller's per-record path on the
// same chain: Apply one delta record into the live replica, which
// merged reads then query in place. CI gates 0 allocs/op: the record
// parses into reused scratch and patches the replica's slabs.
func BenchmarkDeltaApply(b *testing.B) {
	st, records := churnRecords(b, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for _, rec := range records {
		if err := st.Apply(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeltaApplyMaterialize is BenchmarkDeltaApply plus the
// canonical copy the tools take (Snapshot): mementoctl, shard chain
// restores and a controller's warm restart. The copy allocates its
// slabs by design (it is the caller's to keep), so CI pins allocs/op
// at a bound instead of 0.
func BenchmarkDeltaApplyMaterialize(b *testing.B) {
	st, records := churnRecords(b, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for _, rec := range records {
		if err := st.Apply(rec); err != nil {
			b.Fatal(err)
		}
		if _, err := st.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}
