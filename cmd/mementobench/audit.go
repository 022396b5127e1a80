// -audit: the accuracy-scope benchmark. It drives a traced
// snapshot-shipping fleet (real TCP controller + agents, MsgTraced
// envelopes negotiated in-band) over the skewed report stream while a
// constant-memory shadow oracle (internal/audit) tees off the same
// packets. At interval checkpoints the fleet is quiesced — every
// agent force-ships its current sketch — so the oracle's exact window
// counts and the controller's merged snapshots describe the same
// stream position, and the merged (ε,δ) bounds are audited key by
// key. The emitted trajectory (observed error vs the guaranteed Nε
// bound, capture→apply freshness quantiles, bound_violations_total)
// lands in BENCH_query.json when combined with -queryload.

package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"text/tabwriter"
	"time"

	"memento/internal/audit"
	"memento/internal/core"
	"memento/internal/hierarchy"
	"memento/internal/netwide"
	"memento/internal/obs"
	"memento/internal/shard"
)

// auditConfig parameterizes the -audit benchmark.
type auditConfig struct {
	Window    int  // network-wide window W (split across the fleet)
	Packets   int  // stream length
	Agents    int  // measurement points
	Counters  int  // per-agent local sketch (and controller) counters
	Shift     uint // shadow-oracle sampling shift (audit 2^-shift of keys)
	Intervals int  // audit checkpoints across the run
	Seed      uint64
	JSON      bool
}

// auditPoint is one checkpoint of the accuracy trajectory.
type auditPoint struct {
	Pos        uint64  `json:"pos"`          // audited stream position
	Keys       int     `json:"keys"`         // oracle keys in window
	Checks     int     `json:"checks"`       // keys compared
	Violations int     `json:"violations"`   // comparisons outside the bound
	MaxAbsErr  float64 `json:"max_abs_err"`  // worst |upper − exact| this checkpoint
	Bound      float64 `json:"bound"`        // guaranteed Nε bound at this checkpoint
	FreshNs    uint64  `json:"freshness_ns"` // capture→apply p99 of the reports applied since the previous checkpoint
}

// auditReport is the accuracy-trajectory section of BENCH_query.json.
type auditReport struct {
	Mode         string       `json:"mode"`
	Window       int          `json:"window"` // merged effective window audited
	Packets      int          `json:"packets"`
	Agents       int          `json:"agents"`
	SampleShift  uint         `json:"sample_shift"`
	Trajectory   []auditPoint `json:"trajectory"`
	ErrP99       uint64       `json:"observed_err_p99"` // shadow-oracle |err| histogram p99
	ErrMax       uint64       `json:"observed_err_max"`
	Bound        float64      `json:"bound"` // final guaranteed Nε bound
	Violations   uint64       `json:"bound_violations_total"`
	Traced       uint64       `json:"traced_reports"`
	FreshP50Ns   uint64       `json:"freshness_ns_p50"`
	FreshP99Ns   uint64       `json:"freshness_ns_p99"`
	AuditedTotal uint64       `json:"sampled_occurrences"`
}

// runAudit executes the fleet audit and returns its report.
func runAudit(cfg auditConfig) (auditReport, error) {
	if cfg.Agents <= 0 {
		cfg.Agents = 4
	}
	if cfg.Intervals <= 0 {
		cfg.Intervals = 8
	}
	if cfg.Counters <= 0 {
		cfg.Counters = 2048
	}
	hier := hierarchy.Flows{}
	params := netwide.Params{Budget: 0.5, BatchSize: 16, Window: cfg.Window}
	if err := params.Normalize(1); err != nil {
		return auditReport{}, err
	}

	// The oracle's window must equal the merged fleet window: probe
	// the per-agent effective window with a throwaway sketch built
	// from the same config the agents will use.
	probe, err := core.NewHHH(core.HHHConfig{
		Hierarchy: hier, Window: cfg.Window / cfg.Agents, Counters: cfg.Counters,
	})
	if err != nil {
		return auditReport{}, err
	}
	perAgent := probe.EffectiveWindow()
	merged := perAgent * cfg.Agents

	aud, err := audit.New(audit.Config{
		Hier:        hier,
		Window:      merged,
		SampleShift: cfg.Shift,
		MaxKeys:     1 << 12,
		Seed:        cfg.Seed + 3,
	})
	if err != nil {
		return auditReport{}, err
	}

	ctrl, err := netwide.NewController(netwide.ControllerConfig{
		Hier:     hier,
		Params:   params,
		Counters: cfg.Counters,
		Seed:     cfg.Seed + 11,
	})
	if err != nil {
		return auditReport{}, err
	}
	defer ctrl.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return auditReport{}, err
	}
	go ctrl.Serve(ln)

	agents := make([]*netwide.Agent, cfg.Agents)
	for i := range agents {
		agents[i], err = netwide.DialAgent(ln.Addr().String(), netwide.AgentConfig{
			Name:             fmt.Sprintf("audit-%d", i),
			Params:           params,
			Seed:             cfg.Seed + uint64(i) + 1,
			Report:           netwide.ReportSnapshot,
			Hier:             hier,
			SnapshotWindow:   cfg.Window / cfg.Agents,
			SnapshotCounters: cfg.Counters,
			SnapshotEvery:    max(perAgent/2, 1),
			TraceReports:     true,
			QueueLen:         1 << 16,
		})
		if err != nil {
			return auditReport{}, err
		}
		defer agents[i].Close()
	}

	rep := auditReport{
		Mode: "audit", Window: merged, Packets: cfg.Packets,
		Agents: cfg.Agents, SampleShift: cfg.Shift,
	}
	stream := newReportStream(cfg.Seed + 77)
	var m shard.Merger
	chunk := cfg.Packets / cfg.Intervals
	pos := 0
	var prevSent uint64
	var prevFresh obs.HistSnapshot
	for ck := 0; ck < cfg.Intervals; ck++ {
		end := pos + chunk
		if ck == cfg.Intervals-1 {
			end = cfg.Packets
		}
		// Strict round-robin keeps the union of the agents' local
		// windows equal to the global tail the oracle maintains.
		for ; pos < end; pos++ {
			p := stream.next()
			agents[pos%cfg.Agents].Observe(p)
			aud.Observe(p)
		}
		// Quiesce: every agent force-ships its live sketch, so the
		// merged view and the oracle agree on the stream position. The
		// writer goroutines ship asynchronously — drained means every
		// written report was absorbed AND each agent's flush snapshot
		// (≥ one new report per agent) made it out.
		for _, a := range agents {
			a.Flush()
			if err := a.Err(); err != nil {
				return rep, fmt.Errorf("agent %s: %w", a.Name(), err)
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		drained := false
		for time.Now().Before(deadline) {
			var sent, dropped uint64
			for _, a := range agents {
				sent += a.Sent()
				dropped += a.Dropped()
			}
			if dropped > 0 {
				return rep, fmt.Errorf("checkpoint %d: %d reports dropped under backpressure; raise QueueLen", ck, dropped)
			}
			if sent >= prevSent+uint64(cfg.Agents) && ctrl.Snapshots() >= sent {
				prevSent = sent
				drained = true
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if !drained {
			return rep, fmt.Errorf("checkpoint %d: fleet did not quiesce (%d snapshots absorbed)",
				ck, ctrl.Snapshots())
		}

		aud.Flush()
		snaps := ctrl.MergedSnapshots(nil)
		if len(snaps) != cfg.Agents {
			return rep, fmt.Errorf("checkpoint %d: merged %d snapshots, want %d", ck, len(snaps), cfg.Agents)
		}
		m.Prepare(snaps)
		res := aud.Audit(audit.Funcs{Bounds: m.Bounds, Comp: m.Compensation()})
		m.Release()
		if res.Tainted {
			return rep, fmt.Errorf("checkpoint %d: shadow oracle overflowed; raise -audit-shift", ck)
		}
		fresh := ctrl.CaptureApply()
		interval := fresh
		interval.Sub(&prevFresh)
		prevFresh = fresh
		rep.Trajectory = append(rep.Trajectory, auditPoint{
			Pos: res.Pos, Keys: res.Keys, Checks: res.Checks,
			Violations: res.Violations, MaxAbsErr: res.MaxAbsErr, Bound: res.Bound,
			FreshNs: interval.P99(),
		})
		rep.Bound = res.Bound
	}

	errs := aud.Errors()
	fresh := ctrl.CaptureApply()
	rep.ErrP99 = errs.P99()
	rep.ErrMax = errs.Max()
	rep.Violations = aud.Violations()
	rep.Traced = ctrl.TracedReports()
	rep.FreshP50Ns = fresh.P50()
	rep.FreshP99Ns = fresh.P99()
	rep.AuditedTotal = aud.Sampled()
	return rep, nil
}

// runAuditStandalone renders the audit report on its own (the -audit
// flag without -queryload).
func runAuditStandalone(cfg auditConfig) error {
	rep, err := runAudit(cfg)
	if err != nil {
		return err
	}
	if cfg.JSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "metric\tvalue")
	fmt.Fprintf(w, "merged window\t%d\n", rep.Window)
	fmt.Fprintf(w, "audited keys (last)\t%d\n", rep.Trajectory[len(rep.Trajectory)-1].Keys)
	fmt.Fprintf(w, "sampled occurrences\t%d\n", rep.AuditedTotal)
	fmt.Fprintf(w, "observed err p99\t%d\n", rep.ErrP99)
	fmt.Fprintf(w, "observed err max\t%d\n", rep.ErrMax)
	fmt.Fprintf(w, "guaranteed bound\t%.1f\n", rep.Bound)
	fmt.Fprintf(w, "bound violations\t%d\n", rep.Violations)
	fmt.Fprintf(w, "traced reports\t%d\n", rep.Traced)
	fmt.Fprintf(w, "freshness p50\t%s\n", time.Duration(rep.FreshP50Ns))
	fmt.Fprintf(w, "freshness p99\t%s\n", time.Duration(rep.FreshP99Ns))
	return w.Flush()
}
