package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

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

	path := filepath.Join("testdata", "fleet_figures.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		got, wantLines := bytes.Split(out.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range min(len(got), len(wantLines)) {
			if !bytes.Equal(got[i], wantLines[i]) {
				t.Fatalf("fleet figures moved at line %d:\n got  %s\n want %s", i+1, got[i], wantLines[i])
			}
		}
		t.Fatalf("fleet figures moved: %d lines, golden has %d", len(got), len(wantLines))
	}
}
