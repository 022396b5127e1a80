// Fleet tests: state shipping end to end, mixed fleets, a 2D fleet,
// duplicate names and the Broadcast write-deadline fix.

package netwide

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"memento/internal/exact"
	"memento/internal/hierarchy"
	"memento/internal/obs"
	"memento/internal/rng"
	"memento/internal/trace"
)

// mergedWindow returns the merged effective window c's latest
// OutputMerged computed over (0 before any merge runs).
func mergedWindow(c *Controller) int {
	c.mergeMu.Lock()
	defer c.mergeMu.Unlock()
	return c.merger.Window()
}

// TestSnapshotShippingEndToEnd drives a fleet shipping its sketch
// state (as delta chains) over a skewed stream and pins the
// subsystem's reason to exist: the merged view of the agents' states
// reconstructs the heavy hitter set essentially exactly, at a byte
// cost the ledger accounts for.
func TestSnapshotShippingEndToEnd(t *testing.T) {
	const window = 1 << 13
	const agents = 4
	params := Params{Budget: 0.5, BatchSize: 16, Window: window}
	ctrl, addr := startController(t, params, 2048)

	var as []*Agent
	for i := 0; i < agents; i++ {
		a, err := DialAgent(addr, AgentConfig{
			Name:   string(rune('A' + i)),
			Params: params,
			Seed:   uint64(i + 1),
			Report: ReportDelta,
			Hier:   hierarchy.OneD{},
			// Split the network window across the fleet so the merged
			// window matches it, mirroring the shard layer. The counter
			// budget divides the per-agent window, so effective windows
			// don't round up and the merged window is exact.
			SnapshotWindow:   window / agents,
			SnapshotCounters: 256,
			SnapshotEvery:    window / agents / 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		as = append(as, a)
	}
	waitFor(t, "agents to join", func() bool { return ctrl.Agents() == agents })

	// A 30% /8 flood over backbone noise.
	gen := trace.MustNewGenerator(trace.Backbone, 7)
	src := rng.New(8)
	oracle := exact.MustNewSlidingWindow[hierarchy.Prefix](window)
	const n = 1 << 16
	for i := 0; i < n; i++ {
		p := gen.Next()
		if src.Float64() < 0.3 {
			p.Src = hierarchy.IPv4(10, byte(src.Uint32()), byte(src.Uint32()), byte(src.Uint32()))
		}
		as[i%agents].Observe(p)
		oracle.Add(hierarchy.Prefix{Src: hierarchy.MaskBytes(p.Src, 1), SrcLen: 1})
	}
	for _, a := range as {
		a.Flush()
		if a.Err() != nil {
			t.Fatalf("agent %s transport error: %v", a.Name(), a.Err())
		}
	}
	waitFor(t, "chain records to drain", func() bool {
		var sent uint64
		for _, a := range as {
			sent += a.Stats().Sent
		}
		return sent > 0 && ctrl.Deltas()+ctrl.Resyncs() >= sent
	})

	if got := mergedWindow(ctrl); got != 0 {
		t.Fatalf("merged window %d before any merge, want 0", got)
	}
	out := ctrl.OutputMerged(0.15)
	if len(out) == 0 {
		t.Fatal("merged output empty")
	}
	if got := mergedWindow(ctrl); got != window {
		t.Fatalf("merged window %d, want %d", got, window)
	}
	subnet := hierarchy.Prefix{Src: hierarchy.IPv4(10, 0, 0, 0), SrcLen: 1}
	var found bool
	for _, e := range out {
		if e.Prefix == subnet {
			found = true
			exactCount := float64(oracle.Count(subnet))
			// Full-fidelity heavy state: the merged estimate must sit within
			// the algorithmic band of the exact count, far tighter than
			// any sampled protocol at this budget.
			if e.Estimate < 0.8*exactCount || e.Estimate > 1.3*exactCount {
				t.Fatalf("merged estimate %v for heavy /8, exact %v", e.Estimate, exactCount)
			}
		}
	}
	if !found {
		t.Fatalf("merged output missing heavy subnet: %v", out)
	}

	// The ledger accounts for every shipped byte, per agent and total.
	stats := ctrl.AgentStats()
	if len(stats) != agents {
		t.Fatalf("AgentStats has %d entries, want %d", len(stats), agents)
	}
	var ledger uint64
	for _, st := range stats {
		if st.Deltas == 0 || st.Bytes == 0 {
			t.Fatalf("agent %s ledger empty: %+v", st.Name, st)
		}
		if st.Reports != 0 {
			t.Fatalf("agent %s has sampled reports in delta mode: %+v", st.Name, st)
		}
		ledger += st.Bytes
	}
	if ledger != ctrl.BytesIn() {
		t.Fatalf("per-agent bytes %d don't sum to BytesIn %d", ledger, ctrl.BytesIn())
	}
}

// TestBroadcastDropsStalledAgent pins the write-deadline fix: a
// stalled agent (nothing reading its side of a synchronous pipe) no
// longer blocks Broadcast — it is dropped while healthy agents still
// receive the verdicts.
func TestBroadcastDropsStalledAgent(t *testing.T) {
	params := Params{Budget: 4, BatchSize: 4, Window: 1 << 10}
	reg := obs.NewRegistry()
	c, err := NewController(ControllerConfig{
		Hier:     hierarchy.OneD{},
		Params:   params,
		Counters: 256,
		Obs:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Healthy agent: a real Agent whose reader consumes verdicts.
	healthyClient, healthyServer := net.Pipe()
	c.wg.Add(1)
	go c.handle(healthyServer)
	healthy, err := NewAgent(healthyClient, AgentConfig{Name: "healthy", Params: params})
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()

	// Stalled agent: performs the handshake, then never reads again. A
	// synchronous pipe makes the controller's verdict write block
	// until the deadline fires.
	stalledClient, stalledServer := net.Pipe()
	c.wg.Add(1)
	go c.handle(stalledServer)
	normalized := params
	if err := normalized.Normalize(1); err != nil {
		t.Fatal(err)
	}
	hello, err := encodeHello(Hello{Name: "stalled", Tau: normalized.Tau(), Batch: uint32(normalized.BatchSize)})
	if err != nil {
		t.Fatal(err)
	}
	if err := sendFrame(stalledClient, MsgHello, hello); err != nil {
		t.Fatal(err)
	}
	defer stalledClient.Close()
	waitFor(t, "both agents to join", func() bool { return c.Agents() == 2 })

	vs := []Verdict{{Subnet: hierarchy.IPv4(10, 0, 0, 0), PrefixBytes: 1, Act: ActionDeny}}
	start := time.Now()
	done := make(chan int, 1)
	go func() {
		n, err := c.Broadcast(vs)
		if err != nil {
			t.Errorf("broadcast: %v", err)
		}
		done <- n
	}()
	select {
	case n := <-done:
		if n != 1 {
			t.Fatalf("broadcast reached %d agents, want exactly the healthy one", n)
		}
	case <-time.After(writeTimeout + 5*time.Second):
		t.Fatal("broadcast still blocked on the stalled agent")
	}
	if elapsed := time.Since(start); elapsed > writeTimeout+2*time.Second {
		t.Fatalf("broadcast took %v despite the %v write deadline", elapsed, writeTimeout)
	}
	select {
	case got := <-healthy.Verdicts():
		if len(got) != 1 || got[0] != vs[0] {
			t.Fatalf("healthy agent received %v, want %v", got, vs)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("healthy agent never received the verdicts")
	}
	if n := reg.Counter("memento_controller_dropped_agents_total").Load(); n != 1 {
		t.Fatalf("memento_controller_dropped_agents_total = %d, want 1", n)
	}
	waitFor(t, "stalled agent to be dropped", func() bool { return c.Agents() == 1 })
}

// TestDuplicateAgentNameRejected pins the per-agent state contract:
// chain state and ledgers are keyed by name, so a second live
// connection claiming an in-use name is refused instead of silently
// overwriting the first agent's sketch.
func TestDuplicateAgentNameRejected(t *testing.T) {
	params := Params{Budget: 4, BatchSize: 8, Window: 1 << 10}
	ctrl, addr := startController(t, params, 256)
	first, err := DialAgent(addr, AgentConfig{Name: "twin", Params: params})
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	waitFor(t, "first agent to join", func() bool { return ctrl.Agents() == 1 })

	dup, err := DialAgent(addr, AgentConfig{Name: "twin", Params: params})
	if err != nil {
		t.Fatal(err) // the Hello write itself succeeds; rejection closes the conn
	}
	defer dup.Close()
	waitFor(t, "duplicate to be rejected", func() bool { return ctrl.Rejected() == 1 })
	if ctrl.Agents() != 1 {
		t.Fatalf("Agents() = %d after duplicate join, want 1", ctrl.Agents())
	}

	// After the original disconnects, the name is reusable (warm
	// reconnect), and its ledger survives.
	first.Close()
	waitFor(t, "first agent to leave", func() bool { return ctrl.Agents() == 0 })
	re, err := DialAgent(addr, AgentConfig{Name: "twin", Params: params})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	waitFor(t, "reconnect to join", func() bool { return ctrl.Agents() == 1 })
}

// TestMixedFleet verifies sampled and delta agents coexist on one
// controller: the sampled sketch and the merged chain view answer
// independently.
func TestMixedFleet(t *testing.T) {
	const window = 1 << 12
	params := Params{Budget: 4, BatchSize: 8, Window: window}
	ctrl, addr := startController(t, params, 1024)

	sampled, err := DialAgent(addr, AgentConfig{Name: "sampled", Params: params, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer sampled.Close()
	chainer, err := DialAgent(addr, AgentConfig{
		Name: "chainer", Params: params, Seed: 12,
		Report: ReportDelta, Hier: hierarchy.OneD{},
		SnapshotWindow: window, SnapshotEvery: window / 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer chainer.Close()
	waitFor(t, "agents to join", func() bool { return ctrl.Agents() == 2 })

	src := rng.New(13)
	var wg sync.WaitGroup
	for _, a := range []*Agent{sampled, chainer} {
		wg.Add(1)
		go func(a *Agent) {
			defer wg.Done()
			local := rng.New(uint64(len(a.Name())))
			for i := 0; i < 1<<14; i++ {
				a.Observe(hierarchy.Packet{Src: uint32(local.Intn(128))})
			}
			a.Flush()
		}(a)
	}
	wg.Wait()
	_ = src
	waitFor(t, "both report kinds to arrive", func() bool {
		return ctrl.Reports() > 0 && ctrl.Deltas() > 0
	})
	if out := ctrl.OutputMerged(0.001); len(out) == 0 {
		t.Fatal("merged output empty despite delta agent")
	}
	stats := ctrl.AgentStats()
	byName := map[string]AgentStat{}
	for _, st := range stats {
		byName[st.Name] = st
	}
	if byName["sampled"].Reports == 0 || byName["sampled"].Deltas != 0 {
		t.Fatalf("sampled ledger wrong: %+v", byName["sampled"])
	}
	if byName["chainer"].Deltas == 0 || byName["chainer"].Reports != 0 {
		t.Fatalf("chainer ledger wrong: %+v", byName["chainer"])
	}
}

// TestTwoDFleetJoinsByHier: a 2D fleet configured the obvious way —
// ControllerConfig{Hier: TwoD} and AgentConfig{Hier: TwoD}, no other
// hierarchy field — sizes a sample at 8 bytes on both sides, so agent
// and controller derive the same τ: every Hello is accepted and every
// observed packet is covered, in both report modes.
func TestTwoDFleetJoinsByHier(t *testing.T) {
	for _, mode := range []struct {
		name   string
		report ReportMode
	}{{"sampled", ReportSampled}, {"delta", ReportDelta}} {
		t.Run(mode.name, func(t *testing.T) {
			const agents, perAgent = 2, 1 << 10
			params := Params{Budget: 4, BatchSize: 8, Window: 1 << 12}
			ctrl, addr := startControllerCfg(t, ControllerConfig{
				Hier: hierarchy.TwoD{}, Params: params, Counters: 64 * hierarchy.TwoD{}.H(), Seed: 42,
			})
			var as []*Agent
			for i := 0; i < agents; i++ {
				a, err := DialAgent(addr, AgentConfig{
					Name: fmt.Sprintf("edge-%d", i), Params: params, Seed: uint64(i + 1),
					Report: mode.report, Hier: hierarchy.TwoD{},
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { a.Close() })
				as = append(as, a)
			}
			waitFor(t, "agents to join", func() bool { return ctrl.Agents() == agents })
			src := rng.New(7)
			for _, a := range as {
				for i := 0; i < perAgent; i++ {
					a.Observe(hierarchy.Packet{Src: src.Uint32() >> 8, Dst: src.Uint32() >> 8})
				}
				a.Flush()
			}
			waitFor(t, "every packet to be covered", func() bool {
				var covered uint64
				for _, st := range ctrl.AgentStats() {
					covered += st.Covered
				}
				return covered == agents*perAgent
			})
			if n := ctrl.Rejected(); n != 0 {
				t.Fatalf("controller rejected %d Hellos", n)
			}
			for _, a := range as {
				if err := a.Err(); err != nil {
					t.Fatalf("agent %s: %v", a.Name(), err)
				}
			}
			for _, st := range ctrl.AgentStats() {
				if mode.report == ReportDelta && st.Deltas == 0 || mode.report == ReportSampled && st.Reports == 0 {
					t.Fatalf("agent %s: no %s report applied: %+v", st.Name, mode.name, st)
				}
			}
		})
	}
}
