package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of -compare, one per workload × end-to-end metric.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares one end-to-end metric of a base run a with a candidate run
// b. A metric whose own segment spread, on either side, exceeds its bound
// cannot resolve a change of that size: it is reported as unresolved, never
// as unchanged. Otherwise the change is measured against a's value.
func judge(def metricDef, a, b value) (verdict string, change float64) {
	if a.Value != 0 {
		change = (b.Value - a.Value) / math.Abs(a.Value)
	}
	for _, v := range []value{a, b} {
		if v.Segments != nil && v.Segments.rel() > def.Bound {
			return verdictUnresolved, change
		}
	}
	gain := change
	if def.Better == "lower" {
		gain = -change
	}
	switch {
	case gain < -def.Bound:
		return verdictWorse, change
	case gain > def.Bound:
		return verdictBetter, change
	}
	return verdictWithin, change
}

// compareFiles prints the verdict table of two result files and returns an
// error when they cannot be compared or when any metric is worse.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResultSet(pathA)
	if err != nil {
		return err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return err
	}
	worse := 0
	fmt.Fprintf(w, "%-20s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, ra := range a.Results {
		if ra.Traced {
			continue // bounds apply to end-to-end metrics only
		}
		var rb *result
		for _, r := range b.Results {
			if r.Workload == ra.Workload && !r.Traced {
				rb = r
			}
		}
		if rb == nil {
			return fmt.Errorf("%s has no untraced result for %s", pathB, ra.Workload)
		}
		if ra.Host.NProc != rb.Host.NProc || ra.Host.GOMAXPROCS != rb.Host.GOMAXPROCS {
			return fmt.Errorf("refusing to compare %s: measured with nproc %d GOMAXPROCS %d against nproc %d GOMAXPROCS %d",
				ra.Workload, ra.Host.NProc, ra.Host.GOMAXPROCS, rb.Host.NProc, rb.Host.GOMAXPROCS)
		}
		for _, def := range endToEnd {
			va, okA := ra.Metrics[def.Name]
			vb, okB := rb.Metrics[def.Name]
			if !okA || !okB {
				return fmt.Errorf("%s: metric %s missing from a result", ra.Workload, def.Name)
			}
			verdict, change := judge(def, va, vb)
			if verdict == verdictWorse {
				worse++
			}
			fmt.Fprintf(w, "%-20s %-18s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n",
				ra.Workload, def.Name, va.Value, vb.Value, 100*change, 100*def.Bound, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metrics worse than their bound allows", worse)
	}
	return nil
}
