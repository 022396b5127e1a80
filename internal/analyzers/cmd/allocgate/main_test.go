package main

import (
	"strings"
	"testing"
)

func TestParseSpec(t *testing.T) {
	g, err := parseSpec("./internal/core:BenchmarkIngestSingle:200000x")
	if err != nil {
		t.Fatal(err)
	}
	if g.pkg != "./internal/core" || g.bench != "BenchmarkIngestSingle" || g.time != "200000x" || g.max != 0 {
		t.Fatalf("parsed %+v", g)
	}
	if g, err = parseSpec("./internal/delta:BenchmarkDeltaApplyMaterialize:200x:12"); err != nil || g.max != 12 {
		t.Fatalf("bounded spec: %+v, %v", g, err)
	}
	for _, bad := range []string{
		"",
		"pkg:BenchmarkX",
		"pkg:BenchmarkX:1x:extra",
		"pkg:BenchmarkX:1x:-1",
		"pkg:BenchmarkX:1x:3:4",
		"pkg::1x",
		"pkg:TestNotABenchmark:1x",
	} {
		if _, err := parseSpec(bad); err == nil {
			t.Errorf("parseSpec(%q) accepted", bad)
		}
	}
}

func TestCheckOutput(t *testing.T) {
	const clean = `goos: linux
BenchmarkIngestSingle-8   	  200000	        52.1 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	memento/internal/shard	0.1s
`
	allocs, err := checkOutput(clean, "BenchmarkIngestSingle")
	if err != nil || allocs != 0 {
		t.Fatalf("clean run: allocs=%d err=%v", allocs, err)
	}

	const dirty = `BenchmarkIngestSingle-8   	  200000	        52.1 ns/op	      24 B/op	       3 allocs/op
`
	allocs, err = checkOutput(dirty, "BenchmarkIngestSingle")
	if err != nil || allocs != 3 {
		t.Fatalf("dirty run: allocs=%d err=%v", allocs, err)
	}

	// A b.ReportMetric column between ns/op and B/op is skipped.
	const custom = `BenchmarkSnapshotCapture2D-2   	     200	    246278 ns/op	     92441 keys	       0 B/op	       0 allocs/op
`
	allocs, err = checkOutput(custom, "BenchmarkSnapshotCapture2D")
	if err != nil || allocs != 0 {
		t.Fatalf("custom-metric run: allocs=%d err=%v", allocs, err)
	}

	// A benchmark sharing the gated name as a prefix must not satisfy
	// the gate — this is exactly what the old shell pipeline got wrong.
	const prefixOnly = `BenchmarkIngestSingleLarge-8   	  1000	        99 ns/op	       0 B/op	       0 allocs/op
`
	if _, err := checkOutput(prefixOnly, "BenchmarkIngestSingle"); err == nil ||
		!strings.Contains(err.Error(), "no result line") {
		t.Fatalf("prefix match accepted: %v", err)
	}

	// Two result lines for one name is ambiguous, not a pass.
	const doubled = clean + clean
	if _, err := checkOutput(doubled, "BenchmarkIngestSingle"); err == nil ||
		!strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("ambiguous output accepted: %v", err)
	}
}
