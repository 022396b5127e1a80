// The fleet-level (ε,δ) audit: the one place the shadow oracle checks
// the controller's merged bounds on every sampled key, not only on
// the true heavy hitters the repository benchmark's gate scores.

package netwide

import (
	"fmt"
	"testing"

	"memento/internal/audit"
	"memento/internal/core"
	"memento/internal/hierarchy"
	"memento/internal/obs"
	"memento/internal/shard"
)

// TestFleetAuditNoViolations drives a traced fleet of exact
// (DeltaFloor < 0) delta agents over loopback with an audit.Auditor
// teed on the same stream. At each checkpoint the fleet is quiesced —
// every agent force-ships a record of its live sketch and the
// controller applies everything written — so the oracle's exact window
// counts and the merged snapshots describe the same stream position,
// and the merged bounds are audited key by key.
func TestFleetAuditNoViolations(t *testing.T) {
	const (
		window      = 1 << 16
		agents      = 4
		packets     = 1 << 18
		counters    = 2048
		checkpoints = 4
	)
	hier := hierarchy.Flows{}
	params := Params{Budget: 0.5, BatchSize: 16, Window: window}

	// The oracle's window must equal the merged fleet window: probe the
	// per-agent effective window with a throwaway sketch built from the
	// configuration the agents use.
	probe, err := core.NewHHH(core.HHHConfig{Hierarchy: hier, Window: window / agents, Counters: counters})
	if err != nil {
		t.Fatal(err)
	}
	perAgent := probe.EffectiveWindow()
	aud, err := audit.New(audit.Config{
		Hier: hier, Window: perAgent * agents, SampleShift: 4, MaxKeys: 1 << 12, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	ctrl, addr := startControllerCfg(t, ControllerConfig{
		Hier: hier, Params: params, Counters: counters, Seed: 42, Obs: reg,
	})
	fleet := make([]*Agent, agents)
	for i := range fleet {
		a, err := DialAgent(addr, AgentConfig{
			Name:             fmt.Sprintf("audit-%d", i),
			Params:           params,
			Seed:             uint64(i + 1),
			Report:           ReportDelta,
			DeltaFloor:       -1,
			Hier:             hier,
			SnapshotWindow:   window / agents,
			SnapshotCounters: counters,
			SnapshotEvery:    perAgent / 2,
			TraceReports:     true,
			QueueLen:         1 << 12,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		// The probe's ack races the stream: wait, or a fast agent ships
		// its first reports bare.
		waitFor(t, "tracing to be negotiated", func() bool { return a.Stats().Traced })
		fleet[i] = a
	}

	// fleetStream: half the packets from eight heavy flows (W/16 each,
	// above the merged band of ≈ 1 700 here), half a uniform tail. The
	// oracle samples whole keys, and the tail's counts sit far inside
	// the band whatever the fleet answers: the audit can only fail on a
	// heavy flow, so one must be among the sampled keys (checked below).
	stream := fleetStream(packets, 77)
	var m shard.Merger
	for ck := 0; ck < checkpoints; ck++ {
		// Strict round-robin keeps the union of the agents' local
		// windows equal to the global tail the oracle maintains.
		lo, hi := ck*packets/checkpoints, (ck+1)*packets/checkpoints
		for i := lo; i < hi; i++ {
			fleet[i%agents].Observe(stream[i])
			aud.Observe(stream[i])
		}
		for _, a := range fleet {
			a.Flush()
			if err := a.Err(); err != nil {
				t.Fatalf("agent %s: %v", a.Name(), err)
			}
		}
		waitFor(t, "fleet to quiesce", func() bool {
			var sent uint64
			for _, a := range fleet {
				st := a.Stats()
				if st.Dropped > 0 {
					t.Fatalf("agent %s dropped %d reports under backpressure", a.Name(), st.Dropped)
				}
				if st.Sent < st.Queued {
					return false
				}
				sent += st.Sent
			}
			return ctrl.Deltas()+ctrl.Resyncs() >= sent
		})

		aud.Flush()
		snaps := ctrl.MergedSnapshots(nil)
		if len(snaps) != agents {
			t.Fatalf("checkpoint %d: merged %d snapshots, want %d", ck, len(snaps), agents)
		}
		m.Prepare(snaps)
		res := aud.Audit(audit.Funcs{Bounds: m.Bounds, Comp: m.Compensation()})
		m.Release()
		if res.Tainted {
			t.Fatalf("checkpoint %d: shadow oracle overflowed", ck)
		}
		if res.Checks == 0 {
			t.Fatalf("checkpoint %d: audit compared no keys", ck)
		}
		if res.Violations != 0 {
			t.Fatalf("checkpoint %d: %d of %d keys outside the merged bound (max |err| %.1f, bound %.1f)",
				ck, res.Violations, res.Checks, res.MaxAbsErr, res.Bound)
		}
	}
	heavyAudited := false
	for i := 1; i <= 8 && !heavyAudited; i++ {
		heavyAudited = aud.Count(hier.Fully(hierarchy.Packet{Src: hierarchy.IPv4(10, 0, 0, byte(i))})) > 0
	}
	if !heavyAudited {
		t.Fatal("no heavy flow among the audited keys; pick another oracle seed")
	}
	if v := aud.Violations(); v != 0 {
		t.Fatalf("bound_violations_total = %d, want 0", v)
	}
	if tracedReports(reg) == 0 {
		t.Fatal("controller applied no traced reports")
	}
	if fresh := captureApply(reg); fresh.P99() == 0 {
		t.Fatal("capture→apply p99 recorded as zero")
	}
}
