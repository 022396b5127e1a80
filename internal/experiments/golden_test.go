package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"memento/internal/baseline"
	"memento/internal/core"
	"memento/internal/hhhset"
	"memento/internal/hierarchy"
	"memento/internal/shard"
	"memento/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// TestFleetFiguresGolden pins every row of Figures 9 and 10 at the
// geometry `mementobench -figure9 -figure10 -packets 131072 -window
// 65536 -seed 1` builds (its other flags at their defaults), printed at
// full precision. The fleet protocol's sampling and absorb code run
// under both figures, so a change to them that moves any answer — a
// reordered random draw included — fails here. Re-pin with
// -update-golden only for an intended change, and say why.
func TestFleetFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both fleet figures at mementobench's small geometry")
	}
	const window, packets, seed = 65536, 131072, 1
	var out bytes.Buffer
	for _, prof := range []trace.Profile{trace.Backbone, trace.Datacenter, trace.Edge} {
		rows, err := Figure9(Fig9Config{
			Profile: prof, Window: window, Packets: packets,
			Points: 10, Budget: 1, BatchSize: 44,
			Counters: 4096, EvalEvery: 101, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			fmt.Fprintf(&out, "fig9 %s %s /%d %v\n", r.Trace, r.Method, 8*r.PrefixLen, r.RMSE)
		}
	}
	results, err := Figure10(Fig10Config{
		Profile: trace.Backbone, Window: window, Packets: packets,
		Subnets: 50, FloodRate: 0.7, FloodStart: -1,
		Theta: 0.01, Points: 10, Budget: 1,
		BatchSize: 44, Counters: 4096,
		CheckEvery: 1024, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		fmt.Fprintf(&out, "fig10 %s detected=%d missed=%d total=%d frac=%v delay=%v\n",
			r.Method, r.DetectedSubnets, r.MissedPackets, r.TotalAttackPackets, r.MissedFraction, r.MeanDelay)
		for _, pt := range r.Curve {
			fmt.Fprintf(&out, "fig10 %s curve %d %d\n", r.Method, pt.SinceStart, pt.Detected)
		}
	}

	checkGolden(t, "fleet_figures.golden", "fleet figures", out.Bytes())
}

// TestHHHSetsGolden pins the HHH set of every algorithm in the
// repository: H-Memento (core.HHH), the sharded front (two shards, one
// producer) and the MST, RHHH and window Baseline, each in one and two
// dimensions over one fixed Datacenter stream of 16 Ki packets, at
// θ ∈ {0.1, 0.02, 0.005}, every entry at full precision. δ = 0.49 keeps
// the sampling compensation small enough that the larger θs select
// only part of what is tracked; one more 2D H-Memento sizing, at the
// default δ, has a compensation above θ·W at every θ, so every prefix
// it tracks is admitted to the scan. A change to the level-by-level
// scan (hhhset) or to what any algorithm feeds it that moves one bit of
// one answer fails here. Re-pin with -update-golden only for an
// intended change, and say why.
func TestHHHSetsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every HHH algorithm over a 16 Ki-packet stream")
	}
	const packets, window, seed = 1 << 14, 1 << 13, 1
	stream := trace.MustNewGenerator(trace.Datacenter, seed).Generate(packets, nil)
	thetas := []float64{0.1, 0.02, 0.005}
	var out bytes.Buffer
	emit := func(name string, h hierarchy.Hierarchy, output func(theta float64) []hhhset.Entry) {
		for _, theta := range thetas {
			set := output(theta)
			fmt.Fprintf(&out, "%s %s θ=%v: %d\n", name, h, theta, len(set))
			for _, e := range set {
				fmt.Fprintf(&out, "  %v %v %v\n", e.Prefix, e.Estimate, e.Conditioned)
			}
		}
	}
	hmemento := func(h hierarchy.Hierarchy, counters int, delta float64) core.HHHConfig {
		return core.HHHConfig{Hierarchy: h, Window: window, Counters: counters, Delta: delta, Seed: seed}
	}
	for _, h := range []hierarchy.Hierarchy{hierarchy.OneD{}, hierarchy.TwoD{}} {
		H := h.H()
		cfg := hmemento(h, 16*H, 0.49)
		hh := core.MustNewHHH(cfg)
		hh.UpdateBatch(stream)
		emit("h-memento", h, hh.Output)

		s := must(shard.NewHHH(shard.HHHConfig{Core: cfg, Shards: 2}))
		b := s.NewBatcher(0)
		for _, p := range stream {
			b.Add(p)
		}
		b.Flush()
		emit("sharded", h, s.Output)

		mst := must(baseline.NewMST(h, 256))
		rhhh := must(baseline.NewRHHH(baseline.RHHHConfig{Hierarchy: h, CountersPerInstance: 256, Delta: 0.49, Seed: seed}))
		win := must(baseline.NewWindow(h, window, 256))
		for _, p := range stream {
			mst.Update(p)
			rhhh.Update(p)
			win.Update(p)
		}
		emit("mst", h, mst.Output)
		emit("rhhh", h, rhhh.Output)
		emit("window", h, win.Output)
	}
	admitAll := core.MustNewHHH(hmemento(hierarchy.TwoD{}, hierarchy.TwoD{}.H(), 0))
	if comp, floor := admitAll.Compensation(), thetas[0]*float64(admitAll.EffectiveWindow()); comp < floor {
		t.Fatalf("admit-all sizing: compensation %v below θ·W = %v", comp, floor)
	}
	admitAll.UpdateBatch(stream)
	emit("h-memento-admit-all", hierarchy.TwoD{}, admitAll.Output)

	checkGolden(t, "hhh_sets.golden", "HHH sets", out.Bytes())
}

// must returns v, panicking on err: for constructors the test knows
// are given valid configurations.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// checkGolden compares got with testdata/name, rewriting the file
// first under -update-golden; what names the pinned output in the
// failure.
func checkGolden(t *testing.T, name, what string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if !bytes.Equal(got, want) {
		gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range min(len(gotLines), len(wantLines)) {
			if !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Fatalf("%s moved at line %d:\n got  %s\n want %s", what, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("%s moved: %d lines, golden has %d", what, len(gotLines), len(wantLines))
	}
}
