// allocgate enforces the repo's allocation benchmark gates. Each
// positional argument is one gate spec:
//
//	<package>:<BenchmarkName>:<benchtime>[:<max allocs/op>]
//
// e.g. ./internal/core:BenchmarkIngestSingle:200000x. The bound
// defaults to 0 — the hot-path gates; a path that allocates by design
// (materializing a fresh snapshot) pins its count with an explicit
// bound instead. For every spec it runs
//
//	go test -run=NONE -bench ^<name>$ -benchmem -benchtime=<benchtime> <package>
//
// and parses the -benchmem result line exactly: the benchmark name
// must match <BenchmarkName> up to the -<GOMAXPROCS> suffix the
// testing package appends, exactly one result line must match (zero
// means the benchmark was renamed or deleted; several mean the anchor
// is ambiguous), and its allocs/op column must not exceed the bound.
// This replaces a
// shell prefix-match pipeline that would silently pass if a benchmark
// disappeared or a second benchmark shared the prefix.
//
// Exit status: 0 when every gate holds, 1 on any violation or parse
// failure, 2 on usage errors.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// gate is one parsed spec.
type gate struct {
	pkg   string
	bench string
	time  string
	max   int64 // allocs/op allowed
}

func parseSpec(s string) (gate, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 3 || len(parts) > 4 || parts[0] == "" || parts[1] == "" || parts[2] == "" {
		return gate{}, fmt.Errorf("spec %q: want <package>:<BenchmarkName>:<benchtime>[:<max allocs/op>]", s)
	}
	if !strings.HasPrefix(parts[1], "Benchmark") {
		return gate{}, fmt.Errorf("spec %q: %q does not name a benchmark", s, parts[1])
	}
	g := gate{pkg: parts[0], bench: parts[1], time: parts[2]}
	if len(parts) == 4 {
		max, err := strconv.ParseInt(parts[3], 10, 64)
		if err != nil || max < 0 {
			return gate{}, fmt.Errorf("spec %q: bound %q is not a non-negative integer", s, parts[3])
		}
		g.max = max
	}
	return g, nil
}

// resultLine matches one -benchmem benchmark result:
//
//	BenchmarkName-8  2000  512 ns/op  0 B/op  0 allocs/op
//
// The name group captures everything before the optional -N
// GOMAXPROCS suffix. b.ReportMetric columns ("92441 keys") sit
// between ns/op and B/op and are skipped.
var resultLine = regexp.MustCompile(`^(Benchmark\S*?)(?:-\d+)?\s+\d+\s+\S+ ns/op(?:\s+\S+ \S+)*?\s+(\d+) B/op\s+(\d+) allocs/op`)

// checkOutput scans `go test -benchmem` output for exactly one result
// line of the named benchmark and returns its allocs/op.
func checkOutput(out, bench string) (int64, error) {
	var allocs int64
	matches := 0
	for _, line := range strings.Split(out, "\n") {
		m := resultLine.FindStringSubmatch(line)
		if m == nil || m[1] != bench {
			continue
		}
		matches++
		n, err := strconv.ParseInt(m[3], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("unparseable allocs/op in %q: %v", line, err)
		}
		allocs = n
	}
	switch matches {
	case 0:
		return 0, fmt.Errorf("no result line for %s — renamed, deleted, or did not run", bench)
	case 1:
		return allocs, nil
	default:
		return 0, fmt.Errorf("%d result lines for %s — ambiguous gate", matches, bench)
	}
}

func runGate(g gate) error {
	cmd := exec.Command("go", "test", "-run=NONE",
		"-bench", "^"+g.bench+"$", "-benchmem", "-benchtime="+g.time, g.pkg)
	out, err := cmd.CombinedOutput()
	fmt.Print(string(out))
	if err != nil {
		return fmt.Errorf("%s: go test failed: %v", g.pkg, err)
	}
	allocs, err := checkOutput(string(out), g.bench)
	if err != nil {
		return fmt.Errorf("%s: %v", g.pkg, err)
	}
	if allocs > g.max {
		return fmt.Errorf("%s: %s allocates: %d allocs/op (want at most %d)", g.pkg, g.bench, allocs, g.max)
	}
	fmt.Printf("allocgate: %s %s: %d allocs/op (bound %d)\n", g.pkg, g.bench, allocs, g.max)
	return nil
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: allocgate <package>:<BenchmarkName>:<benchtime>[:<max allocs/op>] ...")
		os.Exit(2)
	}
	gates := make([]gate, 0, len(os.Args)-1)
	for _, a := range os.Args[1:] {
		g, err := parseSpec(a)
		if err != nil {
			fmt.Fprintln(os.Stderr, "allocgate:", err)
			os.Exit(2)
		}
		gates = append(gates, g)
	}
	failed := false
	for _, g := range gates {
		if err := runGate(g); err != nil {
			fmt.Fprintln(os.Stderr, "allocgate:", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}
