// Chaos acceptance test for the fleet fault-tolerance plane: a delta
// fleet driven through faultnet injectors — frame drops, a one-way
// partition, controller-side resets — must reconverge after heal to
// the exact merge of the agents' own final snapshots, which is what a
// fault-free snapshot fleet would answer on the same trace, with the
// coverage ledger accounting for every packet.

package netwide

import (
	"fmt"
	"net"
	"testing"
	"time"

	"memento/internal/faultnet"
	"memento/internal/hierarchy"
)

// chaosFleet is deltaFleet with a faultnet injector on the controller
// listener and one per agent dial path, plus tight liveness knobs so
// partitions resolve inside test time.
func chaosFleet(t *testing.T, params Params, agents int) (*Controller, []*Agent, *faultnet.Injector, []*faultnet.Injector) {
	t.Helper()
	ctrl, err := NewController(ControllerConfig{
		Hier: hierarchy.OneD{}, Params: params, Counters: 2048, Seed: 42,
		HandshakeTimeout: 300 * time.Millisecond,
		ReadTimeout:      500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctrlInj := faultnet.NewInjector(100)
	go ctrl.Serve(ctrlInj.WrapListener(ln))
	t.Cleanup(func() { ctrl.Close() })
	addr := ln.Addr().String()

	var as []*Agent
	var injs []*faultnet.Injector
	for i := 0; i < agents; i++ {
		inj := faultnet.NewInjector(uint64(200 + i))
		injs = append(injs, inj)
		a, err := DialAgent(addr, AgentConfig{
			Name:             fmt.Sprintf("agent-%d", i),
			Params:           params,
			Seed:             uint64(i + 1),
			Report:           ReportDelta,
			Hier:             hierarchy.OneD{},
			SnapshotWindow:   params.Window / agents,
			SnapshotCounters: 256,
			SnapshotEvery:    256,
			DeltaFloor:       -1, // exact chains: merged output must match snapshots bit-for-bit
			QueueLen:         1 << 12,
			Reconnect:        true,
			BackoffBase:      5 * time.Millisecond,
			BackoffMax:       50 * time.Millisecond,
			HeartbeatEvery:   25 * time.Millisecond,
			DegradedAfter:    2 * time.Second,
			Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
				c, err := net.DialTimeout("tcp", addr, timeout)
				if err != nil {
					return nil, err
				}
				return inj.WrapConn(c), nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		as = append(as, a)
	}
	waitFor(t, "chaos agents to join", func() bool { return ctrl.Agents() == agents })
	return ctrl, as, ctrlInj, injs
}

func TestChaosFleetConverges(t *testing.T) {
	const window = 1 << 13
	const agents = 4
	params := Params{Budget: 0.5, BatchSize: 16, Window: window}

	// The subject: a delta fleet with fault injection on every path.
	ctrl, as, ctrlInj, injs := chaosFleet(t, params, agents)

	perAgent := make([]uint64, agents)
	drive := func(n int, seed uint64) {
		for i, p := range fleetStream(n, seed) {
			as[i%agents].Observe(p)
			perAgent[i%agents]++
		}
	}
	settle := func() { time.Sleep(150 * time.Millisecond) } // let in-flight frames meet the faults

	// Scripted fault schedule. Each leg drives traffic while the
	// fleet's transport misbehaves.
	drive(2048, 9) // clean warm-up

	// Leg 1 — frame drops on two agents: whole frames vanish, so the
	// controller sees epoch gaps and must heal chains via MsgResync.
	injs[0].SetFault(faultnet.Fault{Drop: 0.4, Delay: 0.2, DelayBound: 2 * time.Millisecond})
	injs[1].SetFault(faultnet.Fault{Drop: 0.4, Partial: 0.3})
	drive(2048, 10)
	settle()
	injs[0].Heal()
	injs[1].Heal()

	// Leg 2 — one-way partition: agent 2 can hear the controller but
	// not reach it. Its reports and pings blackhole; the controller's
	// read timeout frees the name so the post-heal redial can reclaim it.
	injs[2].Partition(false, true)
	drive(2048, 11)
	settle()
	injs[2].Heal()

	// Leg 3 — controller-side resets: the controller's own writes
	// (pongs, verdicts) kill connections mid-frame.
	ctrlInj.SetFault(faultnet.Fault{Reset: 0.5})
	drive(1024, 12)
	settle()
	ctrlInj.Heal()

	// Post-heal tail on a clean network, then flush everything.
	drive(2048, 13)
	for _, a := range as {
		a.Flush()
	}

	// Convergence gate: the cumulative coverage ledger must land on
	// exactly the packets each agent observed — every frame lost to a
	// drop, partition or reset is repaid by a later base/delta, never
	// silently absorbed.
	covered := func(c *Controller, name string) uint64 {
		for _, st := range c.AgentStats() {
			if st.Name == name {
				return st.Covered
			}
		}
		return 0
	}
	for i, a := range as {
		i, a := i, a
		waitFor(t, fmt.Sprintf("%s coverage to converge", a.Name()), func() bool {
			return covered(ctrl, a.Name()) == perAgent[i]
		})
	}
	for _, a := range as {
		if err := a.Err(); err != nil {
			t.Fatalf("agent %s ended with error: %v", a.Name(), err)
		}
	}

	// The faults must actually have fired, and the plane must have
	// exercised its heal paths: chains re-based (resyncs) and
	// connections re-established (reconnects).
	for i, inj := range injs[:2] {
		if st := inj.Stats(); st.Drops == 0 {
			t.Fatalf("agent %d injector never dropped: %+v", i, st)
		}
	}
	if st := injs[2].Stats(); st.Blackholed == 0 {
		t.Fatalf("partition never blackholed: %+v", st)
	}
	if st := ctrlInj.Stats(); st.Resets == 0 {
		t.Fatalf("controller injector never reset: %+v", st)
	}
	if ctrl.Resyncs() == 0 {
		t.Fatal("dropped chain frames produced no resync")
	}
	var reconnects uint64
	for _, a := range as {
		reconnects += a.Stats().Reconnects
	}
	if reconnects == 0 {
		t.Fatal("partition and resets produced no reconnects")
	}

	// The acceptance bar: after heal, the chaos fleet's merged HHH
	// output is indistinguishable from a fault-free fleet's — the merge
	// of the snapshots its agents hold now that the stream is over.
	ref := newSnapshotFleet(as)
	ref.capture(t, as)
	for _, theta := range []float64{0.02, 0.05, 0.15} {
		entriesEqual(t, fmt.Sprintf("chaos theta %g", theta),
			ctrl.OutputMerged(theta), ref.output(hierarchy.OneD{}, theta))
	}
	if mergedWindow(ctrl) != ref.m.Window() {
		t.Fatalf("merged windows %d vs %d", mergedWindow(ctrl), ref.m.Window())
	}
}

// TestFaultSampledResetsCoverExactly: a sampled agent whose own writes
// are reset mid-write and split in two must leave the controller's
// coverage ledger at exactly the packets it observed. The writer ships
// each drained queue in one write; a reset reports the bytes that went
// out, the frames wholly inside them reached the controller, and only
// the rest may be sent again. A writer that re-sends a frame the
// controller already absorbed overshoots the ledger; one that credits a
// frame the reset cut leaves it short.
func TestFaultSampledResetsCoverExactly(t *testing.T) {
	params := Params{Budget: 8, BatchSize: 4, Window: 1 << 12} // τ = 0.4: a frame per ~10 packets
	ctrl, addr := startControllerCfg(t, ControllerConfig{
		Hier: hierarchy.OneD{}, Params: params, Counters: 512, Seed: 42,
	})
	inj := faultnet.NewInjector(300)
	a, err := DialAgent(addr, AgentConfig{
		Name:        "edge",
		Params:      params,
		Seed:        5,
		QueueLen:    1 << 12,
		Reconnect:   true,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		// Nothing flows back to the agent, so its reset closes cleanly
		// behind the bytes it wrote.
		HeartbeatEvery: -1,
		Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			// Redial only once the controller has let go of the old
			// connection: a Hello under a name still held is refused,
			// and the frames written behind it are lost (checked below).
			for deadline := time.Now().Add(5 * time.Second); ctrl.Agents() > 0 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			c, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				return nil, err
			}
			return inj.WrapConn(c), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	waitFor(t, "agent to join", func() bool { return ctrl.Agents() == 1 })

	covered := func() uint64 {
		for _, st := range ctrl.AgentStats() {
			if st.Name == a.Name() {
				return st.Covered
			}
		}
		return 0
	}
	inj.SetFault(faultnet.Fault{Reset: 0.15, Partial: 0.3})
	var observed uint64
	queueEmpty := func() bool {
		st := a.Stats()
		return st.Sent == st.Queued
	}
	for chunk := uint64(0); chunk < 40; chunk++ {
		// Each chunk queues ~200 frames faster than the writer drains
		// them, so writes carry many frames; waiting for the queue to
		// drain keeps a redial gap from overflowing it.
		for _, p := range fleetStream(2000, 100+chunk) {
			a.Observe(p)
			observed++
		}
		waitFor(t, "agent queue to drain", queueEmpty)
	}
	inj.Heal()
	a.Flush()
	waitFor(t, "agent queue to drain", queueEmpty)
	// Every report the agent counts as sent is one the controller must
	// absorb exactly once: it gets there only by absorbing them all,
	// and a re-sent frame takes it past.
	sent := a.Stats().Sent
	waitFor(t, "controller to absorb the sent reports", func() bool {
		return ctrl.Reports() >= sent || ctrl.Rejected() > 0
	})
	if n := ctrl.Rejected(); n > 0 {
		t.Fatalf("%d redials rejected as duplicate names; the frames behind them were lost", n)
	}
	if got := covered(); got != observed || ctrl.Reports() != sent {
		t.Fatalf("controller absorbed %d reports covering %d packets; the agent sent %d covering %d",
			ctrl.Reports(), got, sent, observed)
	}
	st := a.Stats()
	if st.Dropped != 0 || a.Err() != nil {
		t.Fatalf("agent dropped %d reports (err %v): the test needs every report queued", st.Dropped, a.Err())
	}
	fs := inj.Stats()
	t.Logf("faults %+v, %d reconnects", fs, st.Reconnects)
	if fs.Resets == 0 || fs.Partials == 0 || st.Reconnects == 0 {
		t.Fatalf("faults never fired: %+v, %d reconnects", fs, st.Reconnects)
	}
}
