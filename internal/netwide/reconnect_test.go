// Tests for the fleet fault-tolerance plane: supervised reconnect,
// retry budgets, heartbeats and degraded mode, controller liveness
// deadlines, stale-agent quarantine and clock-injected shutdown.

package netwide

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memento/internal/hierarchy"
	"memento/internal/obs"
	"memento/internal/rng"
)

// startControllerCfg is startController with a caller-shaped config
// (liveness knobs vary per test).
func startControllerCfg(t *testing.T, cfg ControllerConfig) (*Controller, string) {
	t.Helper()
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go c.Serve(ln)
	t.Cleanup(func() { c.Close() })
	return c, ln.Addr().String()
}

// dropConn kills the agent's current connection out from under it,
// simulating a transport failure.
func dropConn(t *testing.T, a *Agent) {
	t.Helper()
	a.stateMu.Lock()
	g := a.cur
	a.stateMu.Unlock()
	if g == nil {
		t.Fatal("agent has no live connection to drop")
	}
	g.conn.Close()
}

func TestPingCodec(t *testing.T) {
	p := encodePing(0xdeadbeefcafe)
	seq, err := decodePing(p)
	if err != nil || seq != 0xdeadbeefcafe {
		t.Fatalf("round trip: seq %x err %v", seq, err)
	}
	for _, bad := range [][]byte{nil, {}, p[:7], append(append([]byte{}, p...), 0)} {
		if _, err := decodePing(bad); err == nil {
			t.Fatalf("decodePing accepted %d bytes", len(bad))
		}
	}
}

// TestFaultHeartbeatRoundTrip: pings flow agent→controller, pongs flow
// back, and both sides count them.
func TestFaultHeartbeatRoundTrip(t *testing.T) {
	params := Params{Budget: 4, BatchSize: 8, Window: 1 << 10}
	reg := obs.NewRegistry()
	_, addr := startControllerCfg(t, ControllerConfig{
		Hier: hierarchy.OneD{}, Params: params, Counters: 256, Seed: 42, Obs: reg,
	})
	pings := reg.Counter("memento_controller_pings_total")
	a, err := DialAgent(addr, AgentConfig{
		Name: "hb", Params: params, HeartbeatEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	waitFor(t, "heartbeats to round-trip", func() bool {
		return a.Stats().Pongs >= 3 && pings.Load() >= 3
	})
	if a.Err() != nil {
		t.Fatalf("agent error after heartbeats: %v", a.Err())
	}
}

// TestFaultReconnectHealsDeltaChain is the agent-resilience core: a
// delta agent whose transport dies mid-stream redials under
// supervision, re-bases its chain, and the controller's coverage
// ledger converges to exactly the packets observed — the outage costs
// nothing that a later report doesn't repay.
func TestFaultReconnectHealsDeltaChain(t *testing.T) {
	const window = 1 << 12
	params := Params{Budget: 0.5, BatchSize: 16, Window: window}
	ctrl, addr := startControllerCfg(t, ControllerConfig{
		Hier: hierarchy.OneD{}, Params: params, Counters: 2048, Seed: 42,
	})
	a, err := DialAgent(addr, AgentConfig{
		Name: "resilient", Params: params, Seed: 7,
		Report: ReportDelta, Hier: hierarchy.OneD{},
		SnapshotWindow: window, SnapshotCounters: 256, SnapshotEvery: 128,
		DeltaFloor:     -1,
		Reconnect:      true,
		BackoffBase:    5 * time.Millisecond,
		BackoffMax:     50 * time.Millisecond,
		HeartbeatEvery: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	waitFor(t, "agent to join", func() bool { return ctrl.Agents() == 1 })

	src := rng.New(9)
	observe := func(n int) {
		for i := 0; i < n; i++ {
			a.Observe(hierarchy.Packet{Src: uint32(src.Intn(64))})
		}
	}
	const before, during, after = 1024, 512, 1024
	observe(before)
	waitFor(t, "pre-outage deltas", func() bool { return ctrl.Deltas() > 0 })

	dropConn(t, a)
	observe(during) // reports queue (and maybe drop) while down
	waitFor(t, "reconnect", func() bool { return a.Stats().Reconnects >= 1 })
	observe(after)
	a.Flush()

	// Convergence: the cumulative coverage ledger lands on exactly the
	// observed packet count, whatever was lost in between.
	const total = before + during + after
	waitFor(t, "coverage ledger to converge", func() bool {
		for _, st := range ctrl.AgentStats() {
			if st.Name == "resilient" && st.Covered == total {
				return true
			}
		}
		return false
	})
	if err := a.Err(); err != nil {
		t.Fatalf("agent error after heal: %v", err)
	}
	st := a.Stats()
	if st.Generation < 2 || st.Disconnects < 1 {
		t.Fatalf("reconnect not recorded: %+v", st)
	}
	// The merged output serves the healed state.
	if out := ctrl.OutputMerged(0.05); len(out) == 0 {
		t.Fatal("merged output empty after heal")
	}
}

// TestFaultDegradedModeFlipsAndRecovers: losing the controller past
// DegradedAfter flips Degraded() on; contact flips it back off, with
// both transitions counted.
func TestFaultDegradedModeFlipsAndRecovers(t *testing.T) {
	params := Params{Budget: 4, BatchSize: 8, Window: 1 << 10}
	_, addr := startController(t, params, 256)
	allow := &atomic.Bool{}
	allow.Store(true)
	a, err := DialAgent(addr, AgentConfig{
		Name: "failover", Params: params,
		Reconnect:      true,
		BackoffBase:    5 * time.Millisecond,
		BackoffMax:     20 * time.Millisecond,
		HeartbeatEvery: 10 * time.Millisecond,
		DegradedAfter:  80 * time.Millisecond,
		Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			if !allow.Load() {
				return nil, errors.New("partitioned")
			}
			return net.DialTimeout("tcp", addr, timeout)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	waitFor(t, "healthy contact", func() bool { return a.Stats().Pongs >= 1 })
	if a.Degraded() {
		t.Fatal("degraded while healthy")
	}

	allow.Store(false)
	dropConn(t, a)
	waitFor(t, "degraded mode to engage", func() bool { return a.Degraded() })

	allow.Store(true)
	waitFor(t, "recovery", func() bool { return !a.Degraded() && a.Stats().Reconnects >= 1 })
	st := a.Stats()
	if st.DegradedEnters < 1 || st.DegradedExits < 1 {
		t.Fatalf("transitions not recorded: %+v", st)
	}
	if a.Err() != nil {
		t.Fatalf("transient outage surfaced as error: %v", a.Err())
	}
}

// TestFaultCloseDuringReconnect hammers Close against the redial loop
// and concurrent Observers (-race): no deadlock, verdicts closes.
func TestFaultCloseDuringReconnect(t *testing.T) {
	params := Params{Budget: 4, BatchSize: 8, Window: 1 << 10}
	ctrl, addr := startController(t, params, 256)
	a, err := DialAgent(addr, AgentConfig{
		Name: "racer", Params: params,
		Reconnect:   true,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Kill the controller so the redial loop spins on failures. Close
	// tears down the agent's live conn (registered pre-handshake), so
	// the disconnect needs no help from this side.
	ctrl.Close()
	waitFor(t, "disconnect", func() bool { return !a.Stats().Connected })

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			src := rng.New(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				a.Observe(hierarchy.Packet{Src: src.Uint32()})
				a.Flush()
				a.Stats()
				a.Degraded()
			}
		}(uint64(i + 1))
	}
	time.Sleep(20 * time.Millisecond) // let the redial loop cycle a few times
	if err := a.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
		t.Logf("close: %v", err) // closing a dead conn may error; must not hang
	}
	close(stop)
	wg.Wait()
	select {
	case _, ok := <-a.Verdicts():
		if ok {
			t.Fatal("verdict after close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("verdicts channel never closed")
	}
	// Idempotent.
	a.Close()
}

// TestFaultHandshakeDeadlineFreesHandler: a connection that never says
// Hello is cut loose by the handshake read deadline.
func TestFaultHandshakeDeadlineFreesHandler(t *testing.T) {
	params := Params{Budget: 4, BatchSize: 8, Window: 1 << 10}
	_, addr := startControllerCfg(t, ControllerConfig{
		Hier: hierarchy.OneD{}, Params: params, Counters: 256,
		HandshakeTimeout: 50 * time.Millisecond,
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Say nothing. The controller must close us, observable as EOF.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("mute connection was never closed")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("handshake deadline took %v", elapsed)
	}
}

// TestFaultNewAgentRejectsReconnect pins the constructor contract.
func TestFaultNewAgentRejectsReconnect(t *testing.T) {
	c1, _ := net.Pipe()
	defer c1.Close()
	if _, err := NewAgent(c1, AgentConfig{
		Name: "x", Params: Params{Budget: 4, BatchSize: 8, Window: 1 << 10},
		Reconnect: true,
	}); err == nil {
		t.Fatal("NewAgent accepted Reconnect")
	}
}

// TestFaultStaleAgentQuarantine: a dead agent's frozen window drops
// out of OutputMerged after the TTL and re-enters on its next report.
func TestFaultStaleAgentQuarantine(t *testing.T) {
	const window = 1 << 10
	params := Params{Budget: 0.5, BatchSize: 16, Window: window}
	ctrl, addr := startControllerCfg(t, ControllerConfig{
		Hier: hierarchy.OneD{}, Params: params, Counters: 1024, Seed: 42,
		StaleTTL: 120 * time.Millisecond,
	})
	a, err := DialAgent(addr, AgentConfig{
		Name: "mayfly", Params: params, Seed: 3,
		Report: ReportDelta, Hier: hierarchy.OneD{},
		SnapshotWindow: window, SnapshotCounters: 256, SnapshotEvery: 64,
		HeartbeatEvery: 10 * time.Millisecond, // liveness ≠ freshness: pings must not defeat the TTL
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	src := rng.New(4)
	ship := func() {
		for i := 0; i < 256; i++ {
			a.Observe(hierarchy.Packet{Src: uint32(src.Intn(8))})
		}
		a.Flush()
	}
	ship()
	waitFor(t, "first chain record", func() bool { return ctrl.Deltas() > 0 })
	if out := ctrl.OutputMerged(0.05); len(out) == 0 {
		t.Fatal("merged output empty while fresh")
	}
	// Go silent (but keep heartbeating): the window must quarantine.
	waitFor(t, "quarantine", func() bool {
		return ctrl.StaleAgents() == 1 && len(ctrl.OutputMerged(0.05)) == 0
	})
	stats := ctrl.AgentStats()
	if len(stats) != 1 || !stats[0].Stale {
		t.Fatalf("AgentStats not stale: %+v", stats)
	}
	// A fresh report re-admits the agent.
	ship()
	waitFor(t, "re-admission", func() bool {
		return ctrl.StaleAgents() == 0 && len(ctrl.OutputMerged(0.05)) > 0
	})
}

// autoClock is a deterministic Clock whose After advances time by the
// requested amount and fires immediately: waits consume virtual time
// only, so deadline-expiry paths run in microseconds.
type autoClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *autoClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *autoClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	c.now = c.now.Add(d)
	now := c.now
	c.mu.Unlock()
	ch := make(chan time.Time, 1)
	ch <- now
	return ch
}

// TestShutdownDrainDeadlineExpiry pins two contracts at once: the
// drain loop gives up at the deadline instead of waiting for a writer
// that cannot make progress, and it measures that deadline on the
// injected clock (virtual time here — wall-clock elapsed stays tiny).
func TestShutdownDrainDeadlineExpiry(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	// Swallow exactly the Hello, then stall: the writer's first report
	// write blocks forever on the synchronous pipe.
	hello := make(chan struct{})
	go func() {
		buf := make([]byte, 64)
		n := 0
		for n < 9 { // frame header + minimal payload reaches 9+ bytes
			m, err := server.Read(buf)
			if err != nil {
				return
			}
			n += m
		}
		close(hello)
	}()
	clk := &autoClock{now: time.Unix(1000, 0)}
	a, err := NewAgent(client, AgentConfig{
		Name: "stuck", Params: Params{Budget: 4, BatchSize: 8, Window: 1 << 10},
		Report: ReportDelta, Hier: hierarchy.OneD{},
		SnapshotWindow: 1 << 10, SnapshotCounters: 64, SnapshotEvery: 1,
		Clock:          clk,
		HeartbeatEvery: -1, // the instant-fire clock would spin the ticker hot
	})
	if err != nil {
		t.Fatal(err)
	}
	<-hello
	// Queue more than the writer can ship into the stalled pipe.
	for i := 0; i < 8; i++ {
		a.Observe(hierarchy.Packet{Src: 1})
	}
	start := time.Now()
	if err := a.Shutdown(500 * time.Millisecond); err != nil && !errors.Is(err, net.ErrClosed) {
		t.Logf("shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("virtual-time shutdown took %v of wall clock", elapsed)
	}
	if clk.Now().Sub(time.Unix(1000, 0)) < 500*time.Millisecond {
		t.Fatalf("drain gave up before the virtual deadline: clock advanced %v",
			clk.Now().Sub(time.Unix(1000, 0)))
	}
	if a.Stats().Sent >= a.Stats().Queued {
		t.Fatal("test premise broken: queue drained through a stalled pipe")
	}
}

// TestShutdownDrainsQueueHealthy: on a healthy transport Shutdown
// ships everything queued before closing.
func TestShutdownDrainsQueueHealthy(t *testing.T) {
	params := Params{Budget: 0.5, BatchSize: 16, Window: 1 << 10}
	ctrl, addr := startController(t, params, 1024)
	a, err := DialAgent(addr, AgentConfig{
		Name: "graceful", Params: params, Seed: 5,
		Report: ReportDelta, Hier: hierarchy.OneD{},
		SnapshotWindow: 1 << 10, SnapshotCounters: 256, SnapshotEvery: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(6)
	for i := 0; i < 1000; i++ {
		a.Observe(hierarchy.Packet{Src: src.Uint32()})
	}
	if err := a.Shutdown(5 * time.Second); err != nil && !errors.Is(err, net.ErrClosed) {
		t.Logf("shutdown: %v", err)
	}
	if sent, queued := a.Stats().Sent, a.Stats().Queued; sent != queued {
		t.Fatalf("shutdown left %d of %d reports unshipped", queued-sent, queued)
	}
	waitFor(t, "controller to absorb the tail", func() bool {
		return ctrl.Deltas()+ctrl.Resyncs() >= a.Stats().Sent
	})
}
