// Fault-plane observability test: the AgentStats ledgers on both sides
// of the wire must stay monotonic and tear-free while the transport
// flaps and the stale TTL quarantines and re-admits the agent. Under
// -race this pins the "readable mid-flight" contract of the obs-backed
// counters: concurrent scrapes never observe a counter going backwards
// or a half-written struct.

package netwide

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"memento/internal/faultnet"
	"memento/internal/hierarchy"
	"memento/internal/obs"
	"memento/internal/rng"
)

func TestFaultAgentStatsMonotonicUnderReconnect(t *testing.T) {
	const window = 1 << 10
	params := Params{Budget: 0.5, BatchSize: 16, Window: window}
	reg := obs.NewRegistry()
	tr := obs.NewTrace(256)
	ctrl, err := NewController(ControllerConfig{
		Hier: hierarchy.OneD{}, Params: params, Counters: 1024, Seed: 7,
		HandshakeTimeout: 300 * time.Millisecond,
		ReadTimeout:      500 * time.Millisecond,
		StaleTTL:         80 * time.Millisecond,
		Obs:              reg, Trace: tr,
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

	inj := faultnet.NewInjector(77)
	a, err := DialAgent(ln.Addr().String(), AgentConfig{
		Name: "flapper", Params: params, Seed: 3,
		Report: ReportDelta, Hier: hierarchy.OneD{},
		SnapshotWindow: window, SnapshotCounters: 256, SnapshotEvery: 64,
		QueueLen:       1 << 10,
		Reconnect:      true,
		BackoffBase:    5 * time.Millisecond,
		BackoffMax:     50 * time.Millisecond,
		HeartbeatEvery: 20 * time.Millisecond,
		DegradedAfter:  2 * time.Second,
		Obs:            reg, Trace: tr,
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

	// Concurrent readers: every ledger is scraped flat-out for the whole
	// run. A counter observed lower than a previous observation is a torn
	// or regressing read — both forbidden.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // controller-side per-agent ledger
		defer wg.Done()
		prev := map[string]AgentStat{}
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, st := range ctrl.AgentStats() {
				p := prev[st.Name]
				if st.Reports < p.Reports ||
					st.Deltas < p.Deltas || st.Resyncs < p.Resyncs ||
					st.Bytes < p.Bytes || st.Covered < p.Covered {
					t.Errorf("controller ledger regressed: %+v -> %+v", p, st)
					return
				}
				prev[st.Name] = st
			}
		}
	}()
	wg.Add(1)
	go func() { // agent-side fault-plane ledger
		defer wg.Done()
		var p AgentStats
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := a.Stats()
			if st.Generation < p.Generation || st.Reconnects < p.Reconnects ||
				st.Disconnects < p.Disconnects || st.Queued < p.Queued ||
				st.Sent < p.Sent || st.Dropped < p.Dropped ||
				st.SentBytes < p.SentBytes || st.Pings < p.Pings ||
				st.Pongs < p.Pongs || st.DegradedEnters < p.DegradedEnters ||
				st.DegradedExits < p.DegradedExits {
				t.Errorf("agent ledger regressed: %+v -> %+v", p, st)
				return
			}
			p = st
		}
	}()
	wg.Add(1)
	go func() { // registry scraper: races RegisterFunc closures with writers
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			reg.WritePrometheus(io.Discard)
			tr.Events(nil)
		}
	}()

	// Eight-key stream: every key holds ~12% of the window, so merged
	// output at theta 0.05 is non-empty exactly when the agent is fresh.
	src := rng.New(5)
	ship := func(n int) {
		for i := 0; i < n; i++ {
			a.Observe(hierarchy.Packet{Src: uint32(src.Intn(8))})
		}
		a.Flush()
	}
	ship(512)
	waitFor(t, "first chain record", func() bool { return ctrl.Deltas() > 0 })

	// Flap the transport: resets kill connections mid-frame while the
	// stream keeps flowing, forcing redials under scrape pressure.
	inj.SetFault(faultnet.Fault{Reset: 0.5})
	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().Reconnects == 0 && time.Now().Before(deadline) {
		ship(128)
		time.Sleep(5 * time.Millisecond)
	}
	inj.Heal()
	if a.Stats().Reconnects == 0 {
		t.Fatal("transport resets produced no reconnect")
	}

	// Go silent past the TTL (heartbeats keep running): the controller
	// must quarantine, then re-admit on the next report — and the trace
	// must record the edge, not the steady state.
	waitFor(t, "quarantine", func() bool {
		return ctrl.StaleAgents() == 1 && len(ctrl.OutputMerged(0.05)) == 0
	})
	// Keep shipping while polling: a single report's freshness only
	// lasts StaleTTL, so a one-shot ship could expire between the
	// snapshot landing and the poll observing it.
	readmitted := false
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ship(128)
		if ctrl.StaleAgents() == 0 && len(ctrl.OutputMerged(0.05)) > 0 {
			readmitted = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !readmitted {
		t.Fatal("quarantined agent was never re-admitted")
	}

	close(stop)
	wg.Wait()

	if got := tr.Count(obs.EvConnect); got < 2 {
		t.Errorf("trace saw %d connects, want >= 2 (dial + reconnect)", got)
	}
	if tr.Count(obs.EvQuarantine) == 0 {
		t.Error("quarantine left no trace event")
	}
	if tr.Count(obs.EvRequalify) == 0 {
		t.Error("re-admission left no requalify event")
	}
	if err := a.Err(); err != nil {
		t.Fatalf("agent ended with error: %v", err)
	}
}
