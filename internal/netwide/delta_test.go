// Tests for the delta (chain-replication) report mode: the
// differential acceptance contract against the agents' own snapshots,
// the base/delta/resync handshake, and the controller warm-restart
// chain.

package netwide

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"memento/internal/codec"
	"memento/internal/core"
	"memento/internal/delta"
	"memento/internal/hhhset"
	"memento/internal/hierarchy"
	"memento/internal/rng"
	"memento/internal/shard"
)

// deltaFleet starts one controller and a fleet of delta agents over
// real TCP.
func deltaFleet(t *testing.T, hier hierarchy.Hierarchy, params Params, counters, agents int, floor int) (*Controller, []*Agent) {
	t.Helper()
	ctrl, err := NewController(ControllerConfig{
		Hier: hier, Params: params, Counters: counters, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ctrl.Serve(ln)
	t.Cleanup(func() { ctrl.Close() })
	addr := ln.Addr().String()
	var as []*Agent
	for i := 0; i < agents; i++ {
		a, err := DialAgent(addr, AgentConfig{
			Name:             fmt.Sprintf("agent-%d", i),
			Params:           params,
			Seed:             uint64(i + 1),
			Report:           ReportDelta,
			Hier:             hier,
			SnapshotWindow:   params.Window / agents,
			SnapshotCounters: 256,
			SnapshotEvery:    params.Window / agents / 2,
			DeltaFloor:       floor,
			QueueLen:         1 << 12,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		as = append(as, a)
	}
	waitFor(t, "agents to join", func() bool { return ctrl.Agents() == agents })
	return ctrl, as
}

// fleetStream returns the deterministic skewed stream both fleets
// consume.
func fleetStream(n int, seed uint64) []hierarchy.Packet {
	src := rng.New(seed)
	out := make([]hierarchy.Packet, n)
	for i := range out {
		if src.Float64() < 0.5 {
			out[i] = hierarchy.Packet{Src: hierarchy.IPv4(10, 0, 0, byte(1+src.Intn(8)))}
		} else {
			out[i] = hierarchy.Packet{Src: src.Uint32() | 1<<31}
		}
	}
	return out
}

// entriesEqual compares two HHH sets exactly (as sets).
func entriesEqual(t *testing.T, tag string, got, want []hhhset.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries vs %d\n got: %v\nwant: %v", tag, len(got), len(want), got, want)
	}
	m := map[hierarchy.Prefix]hhhset.Entry{}
	for _, e := range got {
		m[e.Prefix] = e
	}
	for _, e := range want {
		ge, ok := m[e.Prefix]
		if !ok || ge.Estimate != e.Estimate || ge.Conditioned != e.Conditioned {
			t.Fatalf("%s: entry %v mismatch: %+v vs %+v", tag, e.Prefix, ge, e)
		}
	}
}

// drainDelta waits until the expected number of chain frames has
// been processed — applied or answered with a resync request. An
// expected count (cadence divides the per-agent stream exactly in
// these tests) makes the condition deterministic; agent Sent()
// counters lag queued frames and would let the wait pass mid-flight.
func drainDelta(t *testing.T, ctrl *Controller, frames uint64) {
	t.Helper()
	waitFor(t, "delta chain to drain", func() bool {
		return ctrl.Deltas()+ctrl.Resyncs() >= frames
	})
}

// snapshotFleet is what a fleet shipping its whole sketch every
// cadence would carry, computed in process: each agent's local
// snapshot as of its latest cadence, and the wire bytes of those
// frames (the covered count, the encoded snapshot and the framing)
// plus every agent's handshake (its Hello frame).
type snapshotFleet struct {
	snaps []*core.HHHSnapshot
	bytes uint64
	buf   []byte
	m     shard.Merger
}

func newSnapshotFleet(as []*Agent) *snapshotFleet {
	f := &snapshotFleet{snaps: make([]*core.HHHSnapshot, len(as))}
	for i, a := range as {
		f.snaps[i] = new(core.HHHSnapshot)
		f.bytes += uint64(len(a.handshake))
	}
	return f
}

// capture takes every agent's local snapshot under its observe lock
// and charges one full-state frame for it.
func (f *snapshotFleet) capture(t *testing.T, as []*Agent) {
	t.Helper()
	for i, a := range as {
		a.mu.Lock()
		a.hh.SnapshotInto(f.snaps[i])
		a.mu.Unlock()
		rec, err := f.snaps[i].AppendTo(f.buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		f.buf = rec
		f.bytes += 8 + uint64(len(rec)) + 9
	}
}

// output merges the captured snapshots as OutputMerged does.
func (f *snapshotFleet) output(hier hierarchy.Hierarchy, theta float64) []hhhset.Entry {
	return f.m.Output(hier, f.snaps, theta, nil)
}

// driveCadences feeds packets round robin in chunks of one cadence per
// agent and captures the snapshot fleet after each chunk, where every
// agent has just shipped a record. len(packets) must be a multiple of
// the chunk.
func driveCadences(t *testing.T, as []*Agent, ref *snapshotFleet, cadence int, packets []hierarchy.Packet) {
	t.Helper()
	chunk := cadence * len(as)
	for lo := 0; lo < len(packets); lo += chunk {
		for i, p := range packets[lo : lo+chunk] {
			as[i%len(as)].Observe(p)
		}
		ref.capture(t, as)
	}
}

// TestDeltaMatchesSnapshotFleet is the subsystem's differential
// acceptance test: a controller following exact (Floor < 0) delta
// chains answers OutputMerged identically — same prefixes, same
// estimates, same conditioned frequencies — to a merge of the full
// snapshots the agents hold at every cadence, including after a forced
// epoch gap and the resync that heals it, and costs fewer bytes than
// shipping those snapshots would.
func TestDeltaMatchesSnapshotFleet(t *testing.T) {
	const window = 1 << 13
	const agents = 4
	params := Params{Budget: 0.5, BatchSize: 16, Window: window}
	chainCtrl, chainAgents := deltaFleet(t, hierarchy.OneD{}, params, 2048, agents, -1)
	ref := newSnapshotFleet(chainAgents)

	total := 0
	drive := func(n int, seed uint64) {
		driveCadences(t, chainAgents, ref, window/agents/2, fleetStream(n, seed))
		total += n
	}
	drive(1<<15, 9)

	// Force a chain break on one agent: advance its tracker and
	// discard the record, exactly what a report dropped under
	// backpressure does. The controller must detect the gap on the
	// next shipped record, request a resync, and the agent's next
	// capture after receiving it re-bases the chain.
	broken := chainAgents[1]
	broken.mu.Lock()
	if _, _, err := broken.tracker.Append(nil); err != nil {
		broken.mu.Unlock()
		t.Fatal(err)
	}
	broken.mu.Unlock()

	drive(1<<14, 10)
	// TCP delivers the broken agent's frames in order, so once the
	// controller has requested a resync, every pre-break record has
	// been applied — the agent's applied-record count is frozen until
	// the healing base lands.
	waitFor(t, "controller to request a resync", func() bool { return chainCtrl.Resyncs() >= 1 })
	deltasOf := func(name string) uint64 {
		for _, st := range chainCtrl.AgentStats() {
			if st.Name == name {
				return st.Deltas
			}
		}
		return 0
	}
	frozen := deltasOf(broken.Name())
	// Keep the fleet moving until the re-base applies; how many cadences that takes depends on when the
	// MsgResync round trip lands relative to the capture clock.
	for try := uint64(0); deltasOf(broken.Name()) <= frozen; try++ {
		if try > 200 {
			t.Fatal("chain never healed after resync")
		}
		drive(1<<12, 100+try)
	}
	// A full post-heal phase so every agent ends on fresh state.
	drive(1<<15, 11)
	for _, a := range chainAgents {
		a.Flush()
		if err := a.Err(); err != nil {
			t.Fatalf("agent %s: %v", a.Name(), err)
		}
	}
	// Every agent saw the same packet count; the cadence divides it
	// exactly, so the fleet ships a known frame total.
	frames := uint64(total / agents / (window / agents / 2) * agents)
	drainDelta(t, chainCtrl, frames)
	if chainCtrl.Resyncs() == 0 {
		t.Fatal("forced gap produced no resync")
	}
	// The healing base ships outside the cadence, so the frame count
	// can be reached one record early: wait for every agent's final
	// record itself, which carries its whole cumulative coverage.
	waitFor(t, "every chain agent's final record", func() bool {
		for _, st := range chainCtrl.AgentStats() {
			if st.Covered != uint64(total/agents) {
				return false
			}
		}
		return true
	})

	for _, theta := range []float64{0.02, 0.05, 0.15} {
		entriesEqual(t, fmt.Sprintf("theta %g", theta),
			chainCtrl.OutputMerged(theta), ref.output(hierarchy.OneD{}, theta))
	}
	if mergedWindow(chainCtrl) != ref.m.Window() {
		t.Fatalf("merged windows %d vs %d", mergedWindow(chainCtrl), ref.m.Window())
	}

	// The chain fleet must also be the cheaper one, even at exact
	// fidelity on this stream, and the ledger stays consistent.
	if chainCtrl.BytesIn() >= ref.bytes {
		t.Fatalf("delta fleet cost %d bytes vs snapshot %d", chainCtrl.BytesIn(), ref.bytes)
	}
	var ledger uint64
	for _, st := range chainCtrl.AgentStats() {
		if st.Deltas == 0 || st.Reports != 0 {
			t.Fatalf("delta agent ledger wrong: %+v", st)
		}
		ledger += st.Bytes
	}
	if ledger != chainCtrl.BytesIn() {
		t.Fatalf("per-agent bytes %d don't sum to BytesIn %d", ledger, chainCtrl.BytesIn())
	}
}

// TestDeltaFloorSavesBytes pins the default-floor operating point:
// same fleet shape, an order-of-magnitude fewer bytes than exact
// replication would need for the churning tail, with the heavy
// prefixes of the merged set unchanged.
func TestDeltaFloorSavesBytes(t *testing.T) {
	const window = 1 << 13
	const agents = 2
	params := Params{Budget: 0.5, BatchSize: 16, Window: window}
	floorCtrl, floorAgents := deltaFleet(t, hierarchy.Flows{}, params, 2048, agents, 0)
	ref := newSnapshotFleet(floorAgents)

	stream := fleetStream(1<<15, 21)
	driveCadences(t, floorAgents, ref, window/agents/2, stream)
	for _, a := range floorAgents {
		a.Flush()
		if err := a.Err(); err != nil {
			t.Fatalf("agent %s: %v", a.Name(), err)
		}
	}
	frames := uint64(len(stream)) / (window / agents / 2)
	drainDelta(t, floorCtrl, frames)

	if floorCtrl.BytesIn()*2 >= ref.bytes {
		t.Fatalf("floored delta fleet: %d bytes vs snapshot %d (want <1/2)",
			floorCtrl.BytesIn(), ref.bytes)
	}
	// Compare actionable heavy hitters (the Mitigate rule: estimate
	// itself reaches the threshold), not sampling-margin members whose
	// conditioned frequency rides the compensation term — those are
	// churn-dependent on both sides.
	const theta = 0.05
	threshold := theta * float64(window)
	actionable := func(entries []hhhset.Entry) map[hierarchy.Prefix]bool {
		out := map[hierarchy.Prefix]bool{}
		for _, e := range entries {
			if e.Estimate >= threshold {
				out[e.Prefix] = true
			}
		}
		return out
	}
	want := actionable(ref.output(hierarchy.Flows{}, theta))
	got := actionable(floorCtrl.OutputMerged(theta))
	if len(want) == 0 {
		t.Fatal("snapshot merge found no actionable heavy hitters")
	}
	for p := range want {
		if !got[p] {
			t.Fatalf("floored merge lost heavy prefix %v", p)
		}
	}
}

// TestControllerWarmRestartChain drives the controller's own
// replication chain through a simulated process generation: state is
// checkpointed as base+deltas, a fresh controller restores the chain,
// and both answer identically.
func TestControllerWarmRestartChain(t *testing.T) {
	params := Params{Budget: 4, BatchSize: 8, Window: 1 << 12}
	mk := func() *Controller {
		c, err := NewController(ControllerConfig{
			Hier: hierarchy.OneD{}, Params: params, Counters: 512, Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	ctrl := mk()
	if err := ctrl.EnableDeltaCheckpoints(77); err != nil {
		t.Fatal(err)
	}
	var chainFiles []*bytes.Buffer
	step := func(n int, seed uint64) {
		src := rng.New(seed)
		var b Batch
		b.Covered = uint64(n)
		for i := 0; i < n/8; i++ {
			b.Samples = append(b.Samples, hierarchy.Packet{Src: hierarchy.IPv4(10, 0, 0, byte(1+src.Intn(8)))})
		}
		ctrl.absorb(b)
		var buf bytes.Buffer
		if _, err := ctrl.WriteChain(&buf, false); err != nil {
			t.Fatal(err)
		}
		chainFiles = append(chainFiles, &buf)
	}
	for i := 0; i < 4; i++ {
		step(2048, uint64(i+1))
	}
	restored := mk()
	var deltas []*bytes.Buffer
	if len(chainFiles) > 1 {
		deltas = chainFiles[1:]
	}
	dr := make([]io.Reader, len(deltas))
	for i, d := range deltas {
		dr[i] = bytes.NewReader(d.Bytes())
	}
	if err := restored.RestoreChain(bytes.NewReader(chainFiles[0].Bytes()), dr...); err != nil {
		t.Fatal(err)
	}
	for _, theta := range []float64{0.05, 0.2} {
		entriesEqual(t, fmt.Sprintf("restart theta %g", theta),
			restored.Output(theta), ctrl.Output(theta))
	}
	// A config-skewed controller refuses the chain.
	skewed, err := NewController(ControllerConfig{
		Hier: hierarchy.OneD{}, Params: params, Counters: 1024, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer skewed.Close()
	if err := skewed.RestoreChain(bytes.NewReader(chainFiles[0].Bytes())); err == nil {
		t.Fatal("config-mismatched chain restored")
	}
}

// TestDecodeDeltaReportFraming pins the MsgDelta framing validation.
func TestDecodeDeltaReportFraming(t *testing.T) {
	for _, bad := range [][]byte{nil, make([]byte, 7), make([]byte, 8+15)} {
		if _, err := decodeDeltaReport(bad); err == nil {
			t.Fatalf("malformed delta report of %d bytes accepted", len(bad))
		}
	}
	ok := make([]byte, 8+16)
	rep, err := decodeDeltaReport(ok)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Record) != 16 {
		t.Fatalf("record length %d", len(rep.Record))
	}
}

// TestCorruptChainRecordNeverHalfApplied feeds the controller, over a
// raw connection, a chain whose third record goes bad partway through
// its body: its first entry is a valid heavy key, its second has an
// error term above its count. The controller drops the connection,
// and neither OutputMerged nor MergedSnapshots ever reflects the
// valid half — not while the record is being applied (a reader polls
// both the whole time) and not after, when the agent's last good state
// stays in the merge.
func TestCorruptChainRecordNeverHalfApplied(t *testing.T) {
	params := Params{Budget: 1, BatchSize: 4, Window: 1 << 12}
	if err := params.Normalize(1); err != nil {
		t.Fatal(err)
	}
	ctrl, addr := startController(t, params, 512)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello, err := encodeHello(Hello{Name: "torn", Tau: params.Tau(), Batch: uint32(params.BatchSize)})
	if err != nil {
		t.Fatal(err)
	}
	if err := sendFrame(conn, MsgHello, hello); err != nil {
		t.Fatal(err)
	}
	hh := core.MustNewHHH(core.HHHConfig{Hierarchy: hierarchy.OneD{}, Window: 1 << 10, Counters: 64, Seed: 5})
	tr, err := delta.NewTracker(hh, delta.TrackerConfig{Chain: 9})
	if err != nil {
		t.Fatal(err)
	}
	send := func(rec []byte, covered uint64) {
		t.Helper()
		payload, err := encodeDeltaReport(covered, rec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sendFrame(conn, MsgDelta, payload); err != nil {
			t.Fatal(err)
		}
	}
	stream := fleetStream(1<<11, 3)
	var last []byte
	for i, half := range [][]hierarchy.Packet{stream[:1<<10], stream[1<<10:]} {
		hh.UpdateBatch(half)
		if last, _, err = tr.Append(nil); err != nil {
			t.Fatal(err)
		}
		send(last, uint64(len(half)*(i+1)))
	}
	waitFor(t, "both records to apply", func() bool { return ctrl.Deltas() == 2 })

	// The next delta, by hand: the chain's header and position, then
	// one valid entry for a key heavy enough to top the HHH set, then a
	// corrupt one.
	h, body, err := codec.ReadHeader(last)
	if err != nil {
		t.Fatal(err)
	}
	heavy := hierarchy.Prefix{Src: hierarchy.IPv4(203, 0, 113, 7), SrcLen: 4}
	rec := codec.AppendHeader(nil, codec.Header{Version: codec.Version, Kind: codec.KindHHHDelta, Digest: h.Digest})
	rec = append(rec, body[:8]...) // chain
	rec = binary.BigEndian.AppendUint64(rec, binary.BigEndian.Uint64(body[8:16])+1)
	rec = binary.BigEndian.AppendUint64(rec, hh.Sketch().Updates())
	rec = binary.BigEndian.AppendUint64(rec, hh.Sketch().Items())
	rec = binary.AppendUvarint(rec, 2)
	rec = codec.PrefixKeys{}.AppendKey(rec, heavy)
	rec = binary.AppendUvarint(rec, 900) // count
	rec = binary.AppendUvarint(rec, 0)   // err
	rec = binary.AppendUvarint(rec, 50)  // overflows
	rec = codec.PrefixKeys{}.AppendKey(rec, hierarchy.Prefix{Src: 1, SrcLen: 4})
	rec = binary.AppendUvarint(rec, 5) // count
	rec = binary.AppendUvarint(rec, 9) // err ≥ count: corrupt
	rec = binary.AppendUvarint(rec, 0)

	const theta = 0.05
	reflects := func(out []hhhset.Entry, snaps []*core.HHHSnapshot) bool {
		for _, e := range out {
			if e.Prefix == heavy {
				return true
			}
		}
		for _, snap := range snaps {
			if snap.Sketch().SlotOf(heavy) >= 0 || snap.Sketch().OverflowCount(heavy) != 0 {
				return true
			}
		}
		return false
	}
	want := ctrl.OutputMerged(theta)
	if reflects(want, ctrl.MergedSnapshots(nil)) {
		t.Fatal("heavy key present before the corrupt record")
	}
	stop := make(chan struct{})
	saw := make(chan bool)
	go func() {
		for {
			if reflects(ctrl.OutputMerged(theta), ctrl.MergedSnapshots(nil)) {
				saw <- true
				return
			}
			select {
			case <-stop:
				saw <- false
				return
			default:
			}
		}
	}()
	send(rec, 1<<12)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after a corrupt record: %v, want the controller to close (EOF)", err)
	}
	close(stop)
	if <-saw {
		t.Fatal("a merged read reflected half of the corrupt record")
	}
	if ctrl.Deltas() != 2 {
		t.Fatalf("Deltas %d after the corrupt record, want 2", ctrl.Deltas())
	}
	snaps := ctrl.MergedSnapshots(nil)
	if len(snaps) != 1 {
		t.Fatalf("%d merged snapshots, want the agent's last good state", len(snaps))
	}
	entriesEqual(t, "after the corrupt record", ctrl.OutputMerged(theta), want)
}
