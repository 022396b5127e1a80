package main

import (
	"fmt"
	"math"
	"net"
	"time"

	"memento/internal/core"
	"memento/internal/hhhset"
	"memento/internal/hierarchy"
	"memento/internal/lb"
	"memento/internal/netwide"
	"memento/internal/shard"
)

// coverTimeout is how long a tick waits for the sink to cover every packet
// sent, and for a broadcast verdict to arrive, before it counts as failed.
const coverTimeout = 2 * time.Second

// tickStat is what one control tick measured.
type tickStat struct {
	enforce time.Duration // tick start (flush) to ACL deny for every verdict
	query   time.Duration // one HHH-set computation
	failed  int           // coverage or verdict wait timed out, or a verdict did not deny
}

// ledger is an instance's own account of what it took in.
type ledger struct {
	Sent     uint64 `json:"sent"`    // packets the harness handed over
	Covered  uint64 `json:"covered"` // packets the sink accounts for
	Dropped  uint64 `json:"dropped"`
	Rejected uint64 `json:"rejected"`
	Resyncs  uint64 `json:"resyncs"`
	Reports  uint64 `json:"reports"`
	BytesIn  uint64 `json:"bytes_in"`
}

// system is the instance under test as the shared phases (detect, accuracy)
// see it; the steady phases drive the concrete types.
type system interface {
	// observe feeds one packet from the single generator goroutine.
	observe(p hierarchy.Packet)
	// settle flushes staged packets and waits until the sink has covered
	// every packet sent; it reports whether that happened in time.
	settle() bool
	// tick runs one quiesced control tick: settle, compute the HHH set,
	// deliver verdicts and see them enforced by the ACL.
	tick(tr *tracer, id int) tickStat
	// bounds returns the quiesced point estimate of p and its lower bound.
	bounds(p hierarchy.Prefix) (upper, lower float64)
	// hhhSet returns the HHH set at the workload's theta.
	hhhSet() []hhhset.Entry
	ledger() ledger
	close()
}

// verdictsFrom appends a deny verdict for every source subnet of entries
// whose estimate itself reaches threshold (netwide.Controller.Mitigate's rule:
// never the whole internet, never a prefix that is in the set only through
// the sampling margin).
func verdictsFrom(entries []hhhset.Entry, threshold float64, dst []netwide.Verdict) []netwide.Verdict {
	for _, e := range entries {
		if p := e.Prefix; p.SrcLen > 0 && p.DstLen == 0 && e.Estimate >= threshold {
			dst = append(dst, netwide.Verdict{Subnet: p.Src, PrefixBytes: p.SrcLen, Act: netwide.ActionDeny})
		}
	}
	return dst
}

// notDenied reports how many of vs the ACL does not deny.
func notDenied(acl *lb.ACL, vs []netwide.Verdict) int {
	n := 0
	for _, v := range vs {
		if acl.Lookup(v.Subnet) != netwide.ActionDeny {
			n++
		}
	}
	return n
}

// device is a single-process sharded H-Memento with its ACL.
type device struct {
	sp      *spec
	hhh     *shard.HHH
	bat     *shard.PacketBatcher // the generator goroutine's staging
	acl     *lb.ACL
	sent    uint64
	out     []core.HeavyPrefix
	entries []hhhset.Entry
	vs      []netwide.Verdict
}

func newDevice(sp *spec, seed uint64) (*device, error) {
	hasher := hierarchy.PrefixHasher(seed + 3)
	hier := sp.Hier
	hhh, err := shard.NewHHH(shard.HHHConfig{
		Core:   core.HHHConfig{Hierarchy: hier, Window: sp.Window, Counters: sp.Counters, V: sp.V, Seed: seed + 2},
		Shards: sp.Shards,
		// Seeded routing: the default salt is random per instance.
		Hash: func(p hierarchy.Packet) uint64 { return hasher(hier.Fully(p)) },
	})
	if err != nil {
		return nil, err
	}
	return &device{sp: sp, hhh: hhh, bat: hhh.NewBatcher(sp.Batch), acl: lb.NewACL()}, nil
}

func (d *device) observe(p hierarchy.Packet) {
	d.bat.Add(p)
	d.sent++
}

func (d *device) settle() bool {
	d.bat.Flush()
	return d.hhh.Updates() == d.sent
}

func (d *device) tick(tr *tracer, id int) tickStat { return d.controlTick(tr, id, true) }

// controlTick is the device's control tick. With flush it is quiesced: the
// generator's staging is flushed and conservation is checked first. The
// steady phases run it unflushed beside producers that own their staging.
func (d *device) controlTick(tr *tracer, id int, flush bool) tickStat {
	var st tickStat
	root := tr.begin("tick", -1, id)
	t0 := time.Now()
	if flush {
		s := tr.begin("shard.flush", root, id)
		if !d.settle() {
			st.failed++
		}
		tr.end(s)
	}
	s := tr.begin("shard.output", root, id)
	tq := time.Now()
	d.out = d.hhh.OutputTo(d.sp.Theta, d.out[:0])
	st.query = time.Since(tq)
	tr.end(s)
	d.entries = toEntries(d.out, d.entries[:0])
	d.vs = verdictsFrom(d.entries, d.sp.Theta*float64(d.sp.Window), d.vs[:0])
	s = tr.begin("lb.acl_apply", root, id)
	d.acl.Apply(d.vs)
	st.failed += notDenied(d.acl, d.vs)
	tr.end(s)
	st.enforce = time.Since(t0)
	tr.end(root)
	return st
}

func (d *device) bounds(p hierarchy.Prefix) (float64, float64) { return d.hhh.QueryBounds(p) }

func (d *device) hhhSet() []hhhset.Entry { return toEntries(d.hhh.Output(d.sp.Theta), nil) }

// toEntries appends the single-device output to dst in the form the fleet
// outputs already have.
func toEntries(out []core.HeavyPrefix, dst []hhhset.Entry) []hhhset.Entry {
	for _, e := range out {
		dst = append(dst, hhhset.Entry(e))
	}
	return dst
}

func (d *device) ledger() ledger { return ledger{Sent: d.sent, Covered: d.hhh.Updates()} }

func (d *device) close() {}

// fleet is a netwide.Controller on loopback TCP with its agents and the ACL
// their verdicts feed.
type fleet struct {
	sp     *spec
	band   float64
	ctrl   *netwide.Controller
	agents []*netwide.Agent
	acl    *lb.ACL
	sent   []uint64 // per agent
	next   int
	merger shard.Merger
	got    [][]netwide.Verdict
	served chan struct{} // closed when the accept loop has returned
}

func agentName(i int) string { return fmt.Sprintf("agent-%d", i) }

func newFleet(sp *spec, seed uint64, band float64) (*fleet, error) {
	ctrl, err := netwide.NewController(netwide.ControllerConfig{
		Hier: sp.Hier, Params: sp.Params, Counters: sp.Counters, Seed: seed + 2,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &fleet{sp: sp, band: band, ctrl: ctrl, acl: lb.NewACL(), sent: make([]uint64, agents), served: make(chan struct{})}
	go func() {
		defer close(f.served)
		ctrl.Serve(ln) // returns once ctrl.Close has closed ln
	}()
	for i := 0; i < agents; i++ {
		a, err := netwide.DialAgent(ln.Addr().String(), netwide.AgentConfig{
			Name:   agentName(i),
			Params: sp.Params,
			Seed:   seed + 10 + uint64(i),
			// One tick's worth of sampled batches is K·tau/b = 68 frames;
			// the queue must hold them all, or Observe drops.
			QueueLen:         1024,
			Report:           sp.Mode,
			Hier:             sp.Hier,
			SnapshotWindow:   sp.Window / agents,
			SnapshotCounters: sp.Counters,
			SnapshotEvery:    sp.tickEvery() / 2,
			HeartbeatEvery:   -1,
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.agents = append(f.agents, a)
	}
	// A tick waits for one verdict frame per agent, so every agent must
	// be registered before the first broadcast.
	for deadline := time.Now().Add(coverTimeout); ctrl.Agents() < agents; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			f.close()
			return nil, fmt.Errorf("%s: only %d of %d agents joined", sp.Name, ctrl.Agents(), agents)
		}
	}
	return f, nil
}

func (f *fleet) observe(p hierarchy.Packet) {
	f.agents[f.next].Observe(p)
	f.sent[f.next]++
	f.next = (f.next + 1) % len(f.agents)
}

// covered reports whether the controller's ledger accounts for every packet
// each agent was handed.
func (f *fleet) covered() bool {
	n := 0
	for _, st := range f.ctrl.AgentStats() {
		for i := range f.agents {
			if st.Name == agentName(i) && st.Covered >= f.sent[i] {
				n++
			}
		}
	}
	return n == len(f.agents)
}

func (f *fleet) settle() bool {
	for _, a := range f.agents {
		a.Flush()
	}
	for t0 := time.Now(); !f.covered(); time.Sleep(20 * time.Microsecond) {
		if time.Since(t0) > coverTimeout {
			return false
		}
	}
	return true
}

func (f *fleet) tick(tr *tracer, id int) tickStat {
	var st tickStat
	theta := f.sp.Theta
	root := tr.begin("tick", -1, id)
	t0 := time.Now()

	s := tr.begin("netwide.flush_to_covered", root, id)
	if !f.settle() {
		st.failed++
	}
	tr.end(s)

	var vs []netwide.Verdict
	if f.sp.sampled() {
		s = tr.begin("netwide.mitigate", root, id)
		var err error
		if vs, err = f.ctrl.Mitigate(theta, netwide.ActionDeny); err != nil {
			st.failed++
		}
		tr.end(s)
	} else {
		s = tr.begin("netwide.output", root, id)
		tq := time.Now()
		entries := f.ctrl.OutputMerged(theta)
		st.query = time.Since(tq)
		tr.end(s)
		vs = verdictsFrom(entries, theta*float64(f.sp.Window), nil)
	}

	s = tr.begin("netwide.broadcast_to_verdict", root, id)
	f.got = f.got[:0]
	if len(vs) > 0 {
		if !f.sp.sampled() {
			if n, err := f.ctrl.Broadcast(vs); err != nil || n != len(f.agents) {
				st.failed++
			}
		}
		timeout := time.NewTimer(coverTimeout)
		for _, a := range f.agents {
			select {
			case got := <-a.Verdicts():
				f.got = append(f.got, got)
			case <-timeout.C:
				st.failed++
			}
		}
		timeout.Stop()
	}
	tr.end(s)

	s = tr.begin("lb.acl_apply", root, id)
	for _, got := range f.got {
		f.acl.Apply(got)
	}
	st.failed += notDenied(f.acl, vs)
	tr.end(s)
	st.enforce = time.Since(t0)
	tr.end(root)

	if f.sp.sampled() {
		// Mitigate stays inside the enforce clock untouched; the query
		// figure is a separate Output on the same state, off the clock.
		s = tr.begin("netwide.output", -1, id)
		tq := time.Now()
		f.ctrl.Output(theta)
		st.query = time.Since(tq)
		tr.end(s)
	}
	return st
}

func (f *fleet) bounds(p hierarchy.Prefix) (float64, float64) {
	if f.sp.sampled() {
		upper := f.ctrl.Estimate(p)
		return upper, math.Max(0, upper-f.band)
	}
	f.merger.Prepare(f.ctrl.MergedSnapshots(nil))
	defer f.merger.Release()
	return f.merger.Bounds(p)
}

func (f *fleet) hhhSet() []hhhset.Entry {
	if f.sp.sampled() {
		return f.ctrl.Output(f.sp.Theta)
	}
	return f.ctrl.OutputMerged(f.sp.Theta)
}

func (f *fleet) ledger() ledger {
	l := ledger{
		Rejected: f.ctrl.Rejected(),
		Resyncs:  f.ctrl.Resyncs(),
		Reports:  f.ctrl.Reports() + f.ctrl.Snapshots() + f.ctrl.Deltas(),
		BytesIn:  f.ctrl.BytesIn(),
	}
	for i, a := range f.agents {
		l.Sent += f.sent[i]
		l.Dropped += a.Dropped()
	}
	for _, st := range f.ctrl.AgentStats() {
		l.Covered += st.Covered
	}
	return l
}

func (f *fleet) close() {
	for _, a := range f.agents {
		a.Close()
	}
	f.ctrl.Close()
	<-f.served
}
