// Report-tracing interop: the trace context is negotiated in-band
// (a ping probe a v1 peer echoes back verbatim), so traced and
// untraced peers interoperate in every combination with no flag day.
// These tests pin all three quadrants that matter plus the traced
// round trip's observable ledger: capture→apply latency, per-agent
// freshness, and the report_span event stream.

package netwide

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"memento/internal/hierarchy"
	"memento/internal/obs"
	"memento/internal/rng"
)

// driveTraced dials one agent with the given trace preference, feeds
// it a stream, and waits for the controller to apply its reports. The
// controller must count them in a registry (ControllerConfig.Obs).
func driveTraced(t *testing.T, ctrl *Controller, addr string, trace bool) *Agent {
	t.Helper()
	params := Params{Budget: 4, BatchSize: 8, Window: 1 << 12}
	a, err := DialAgent(addr, AgentConfig{
		Name:         "edge-1",
		Params:       params,
		Seed:         3,
		TraceReports: trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	waitFor(t, "agent to join", func() bool { return ctrl.Agents() == 1 })
	if trace {
		// The probe's ack races the stream: without this wait a fast
		// enough agent ships every report before tracing is on.
		waitFor(t, "tracing to be negotiated", func() bool { return a.Stats().Traced })
	}
	src := rng.New(9)
	for i := 0; i < 50000; i++ {
		a.Observe(hierarchy.Packet{Src: src.Uint32() >> 12})
	}
	if a.Err() != nil {
		t.Fatalf("agent transport error: %v", a.Err())
	}
	waitFor(t, "reports to drain", func() bool {
		return drained(a, ctrl.Reports()) && tracedReports(ctrl.cfg.Obs) == a.Stats().TracedReports
	})
	return a
}

// tracedReports and captureApply read a controller's traced-report
// counter and capture→apply histogram by their memento_* names from
// reg, the registry its ControllerConfig.Obs names.
func tracedReports(reg *obs.Registry) uint64 {
	return reg.Counter("memento_controller_traced_reports_total").Load()
}

func captureApply(reg *obs.Registry) obs.HistSnapshot {
	var s obs.HistSnapshot
	reg.Histogram("memento_controller_capture_apply_ns").Snapshot(&s)
	return s
}

// drained reports whether everything a queued has been written and
// handled: the writer holds nothing (it counts a frame only once its
// write returns), and the controller has handled as many reports as
// were written.
func drained(a *Agent, handled uint64) bool {
	st := a.Stats()
	return st.Sent > 0 && st.Sent == st.Queued && handled >= st.Sent
}

// TestTracedReportingRoundTrip: a tracing agent against a tracing
// controller negotiates MsgTraced envelopes, and every applied report
// lands in the capture→apply histogram, the per-agent freshness
// ledger and the report_span event stream.
func TestTracedReportingRoundTrip(t *testing.T) {
	params := Params{Budget: 4, BatchSize: 8, Window: 1 << 12}
	tr := obs.NewTrace(256)
	reg := obs.NewRegistry()
	ctrl, addr := startControllerCfg(t, ControllerConfig{
		Hier: hierarchy.OneD{}, Params: params, Counters: 1024, Seed: 42,
		Trace: tr, Obs: reg,
	})
	a := driveTraced(t, ctrl, addr, true)

	st := a.Stats()
	if !st.Traced {
		t.Fatalf("agent did not negotiate tracing: %+v", st)
	}
	if st.TracedReports == 0 {
		t.Fatal("agent shipped no traced reports")
	}
	if got := tracedReports(reg); got != st.TracedReports {
		t.Fatalf("controller applied %d traced reports, agent shipped %d", got, st.TracedReports)
	}
	snap := captureApply(reg)
	if snap.Count != tracedReports(reg) {
		t.Fatalf("capture→apply histogram holds %d spans, want %d", snap.Count, tracedReports(reg))
	}
	if snap.Max() == 0 {
		t.Fatal("capture→apply latency recorded as zero")
	}
	if tr.Count(obs.EvReportSpan) == 0 {
		t.Fatal("no report_span events recorded")
	}

	stats := ctrl.AgentStats()
	if len(stats) != 1 {
		t.Fatalf("AgentStats has %d entries, want 1", len(stats))
	}
	if stats[0].TracedReports != st.TracedReports {
		t.Fatalf("ledger traced reports %d, want %d", stats[0].TracedReports, st.TracedReports)
	}
	if stats[0].Freshness <= 0 || stats[0].Freshness > time.Minute {
		t.Fatalf("implausible freshness %v", stats[0].Freshness)
	}
}

// preTracingPeer is a controller as it was before report tracing, as
// far as one agent can see: it reads the Hello, echoes every ping
// verbatim as a pong (the trace probe included, which is all a v1 peer
// knows to do with it) and decodes every report it receives. After
// echoing the probe it sends one ordinary pong, so an agent that has
// counted that pong has read the echo before it.
type preTracingPeer struct {
	batches, traced, bad atomic.Uint64
}

func startPreTracingPeer(t *testing.T) (*preTracingPeer, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &preTracingPeer{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fr := newFrameReader(conn)
		if typ, _, err := fr.next(); err != nil || typ != MsgHello {
			p.bad.Add(1)
			return
		}
		for {
			typ, payload, err := fr.next()
			if err != nil {
				return
			}
			switch typ {
			case MsgPing:
				seq, err := decodePing(payload)
				if err != nil || sendFrame(conn, MsgPong, payload) != nil {
					p.bad.Add(1)
					return
				}
				if seq == traceProbeSeq && sendFrame(conn, MsgPong, encodePing(1)) != nil {
					return
				}
			case MsgBatch:
				if _, err := decodeBatch(payload, nil); err != nil {
					p.bad.Add(1)
				}
				p.batches.Add(1)
			case MsgTraced:
				p.traced.Add(1)
			default:
				p.bad.Add(1)
			}
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	return p, ln.Addr().String()
}

// TestTracedAgentUntracedController: against a pre-tracing controller
// (probe echoed verbatim) the agent must fall back to bare reports
// that still decode — the no-flag-day contract.
func TestTracedAgentUntracedController(t *testing.T) {
	peer, addr := startPreTracingPeer(t)
	a, err := DialAgent(addr, AgentConfig{
		Name:           "edge-1",
		Params:         Params{Budget: 4, BatchSize: 8, Window: 1 << 12},
		Seed:           3,
		HeartbeatEvery: -1, // the probe is the only ping
		TraceReports:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Closing the agent ends the peer's read loop, so it runs before the
	// peer's own cleanup waits for that loop.
	t.Cleanup(func() { a.Close() })
	waitFor(t, "the probe echo to be read", func() bool { return a.Stats().Pongs == 1 })
	src := rng.New(9)
	for i := 0; i < 50000; i++ {
		a.Observe(hierarchy.Packet{Src: src.Uint32() >> 12})
	}
	a.Flush()
	waitFor(t, "reports to drain", func() bool {
		st := a.Stats()
		return st.Sent > 0 && st.Sent == st.Queued && peer.batches.Load()+peer.traced.Load() >= st.Sent
	})
	if a.Err() != nil {
		t.Fatalf("agent transport error: %v", a.Err())
	}

	st := a.Stats()
	if st.Traced || st.TracedReports != 0 {
		t.Fatalf("agent traced against a v1 controller: %+v", st)
	}
	if n := peer.traced.Load(); n != 0 {
		t.Fatalf("v1 controller received %d traced envelopes", n)
	}
	if n := peer.bad.Load(); n != 0 {
		t.Fatalf("v1 controller could not handle %d frames", n)
	}
	if got := peer.batches.Load(); got != st.Sent {
		t.Fatalf("v1 controller decoded %d bare reports, agent sent %d", got, st.Sent)
	}
}

// TestUntracedAgentTracedController: a v1 agent never sends the probe,
// so a tracing controller serves it bare reports untraced.
func TestUntracedAgentTracedController(t *testing.T) {
	params := Params{Budget: 4, BatchSize: 8, Window: 1 << 12}
	reg := obs.NewRegistry()
	ctrl, addr := startControllerCfg(t, ControllerConfig{
		Hier: hierarchy.OneD{}, Params: params, Counters: 1024, Seed: 42, Obs: reg,
	})
	a := driveTraced(t, ctrl, addr, false)

	st := a.Stats()
	if st.Traced || st.TracedReports != 0 {
		t.Fatalf("untraced agent reports tracing: %+v", st)
	}
	if n := tracedReports(reg); n != 0 {
		t.Fatalf("controller counted %d traced reports from a v1 agent", n)
	}
	if ctrl.Reports() == 0 {
		t.Fatal("v1 reports did not apply")
	}
	stats := ctrl.AgentStats()
	if len(stats) != 1 || stats[0].Freshness != 0 {
		t.Fatalf("untraced agent should report zero freshness: %+v", stats)
	}
}

// TestTracedDeltaGapCountsApplied: a traced chain record that lands on
// an epoch gap is answered with a resync, not applied, so it must not
// count as a traced report. The counter, the capture→apply histogram
// and the per-agent ledger stay in step through the gap and the heal.
func TestTracedDeltaGapCountsApplied(t *testing.T) {
	params := Params{Budget: 4, BatchSize: 8, Window: 1 << 12}
	reg := obs.NewRegistry()
	ctrl, addr := startControllerCfg(t, ControllerConfig{
		Hier: hierarchy.OneD{}, Params: params, Counters: 1024, Seed: 42, Obs: reg,
	})
	a, err := DialAgent(addr, AgentConfig{
		Name: "edge-gap", Params: params, Seed: 3,
		Report: ReportDelta, Hier: hierarchy.OneD{},
		SnapshotWindow: 1 << 12, SnapshotCounters: 256, SnapshotEvery: 256,
		TraceReports: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	waitFor(t, "tracing to be negotiated", func() bool { return a.Stats().Traced })
	src := rng.New(9)
	feed := func(n int) {
		for i := 0; i < n; i++ {
			a.Observe(hierarchy.Packet{Src: src.Uint32() >> 20})
		}
	}
	feed(2048)
	// Break the chain: advance the tracker past a record that never
	// ships, as a drop under backpressure does.
	a.mu.Lock()
	if _, _, err := a.tracker.Append(nil); err != nil {
		a.mu.Unlock()
		t.Fatal(err)
	}
	a.mu.Unlock()
	feed(2048)
	waitFor(t, "controller to request a resync", func() bool { return ctrl.Resyncs() >= 1 })
	feed(2048)
	a.Flush()
	waitFor(t, "chain to drain", func() bool {
		return drained(a, ctrl.Deltas()+ctrl.Resyncs()) &&
			tracedReports(reg)+ctrl.Resyncs() >= a.Stats().TracedReports
	})

	st := a.Stats()
	got := tracedReports(reg)
	if got != ctrl.Deltas() {
		t.Fatalf("controller counted %d traced reports, applied %d chain records", got, ctrl.Deltas())
	}
	if want := st.TracedReports - ctrl.Resyncs(); got != want {
		t.Fatalf("controller counted %d traced reports; agent shipped %d, %d of them into a gap",
			got, st.TracedReports, ctrl.Resyncs())
	}
	if n := captureApply(reg).Count; n != got {
		t.Fatalf("capture→apply histogram holds %d spans, traced reports %d", n, got)
	}
	var ledger uint64
	for _, as := range ctrl.AgentStats() {
		ledger += as.TracedReports
	}
	if ledger != got {
		t.Fatalf("per-agent ledger holds %d traced reports, TracedReports %d", ledger, got)
	}
}
