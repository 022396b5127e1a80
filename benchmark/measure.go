package main

import (
	"runtime"
	"time"
)

// options are the settings of one run.
type options struct {
	seed    uint64
	seconds float64 // steady-phase wall time
	traced  bool
	outDir  string // traced runs write <outDir>/<workload>.trace.json
	// minSamples is how many queries and ticks the steady phase must
	// yield for its quantiles to count. Only -check sets it: how many fit
	// in the run depends on the host, not on whether outputs are right.
	minSamples int
}

func newResult(sp *spec, z sizing, opt options) *result {
	return &result{
		Workload: sp.Name, Seed: opt.seed, Seconds: opt.seconds, Traced: opt.traced,
		Host: thisHost(), Sizing: z, Metrics: make(map[string]value),
	}
}

// run measures one workload: the end-to-end metrics untraced, or the
// per-layer ledger traced.
func run(sp *spec, opt options) (*result, error) {
	z, err := sp.size()
	if err != nil {
		return nil, err // degenerate: abort before timing anything
	}
	r := newResult(sp, z, opt)
	if opt.traced {
		err = runTraced(sp, z, opt, r)
	} else {
		err = runUntraced(sp, z, opt, r)
	}
	if err != nil {
		return nil, err
	}
	r.seal()
	return r, nil
}

// runUntraced is one linear run over one instance: setup, detect, steady.
func runUntraced(sp *spec, z sizing, opt options, r *result) error {
	var it *instance
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if it != nil {
			it.sys.close()
		}
		t0 := time.Now()
		var err error
		if it, err = setUp(sp, z, opt.seed); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer it.sys.close()
	r.setSegments("setup_s", median(setups), 0, setups)

	det, acc, err := detectAndScore(it, z, r)
	if err != nil {
		return err
	}
	r.set("detect_delay_pkts", det.DelayPkts)
	r.set("flood_missed_frac", det.MissedFrac)
	r.set("hhh_f1", acc.F1)

	st := it.runSteady(time.Duration(opt.seconds*float64(time.Second)), nil)
	tally(r, it, st.Failed, st.Ticks)
	r.set("heap_mb", (float64(heapInuse())-float64(it.heapBase))/(1<<20))
	steadyMetrics(r, st)
	if opt.minSamples > 0 {
		r.Problems = append(r.Problems, st.checkSamples(opt.minSamples)...)
	}
	return nil
}

// detectAndScore runs the detect phase, then scores the instance against the
// exact reference and applies the correctness gates to the outputs. Both the
// untraced and the traced run do this: a run whose outputs are wrong fails,
// whatever it was measuring.
func detectAndScore(it *instance, z sizing, r *result) (detection, accuracy, error) {
	sp := it.sp
	det := runDetect(it.sys, it.acl, it.in, sp.tickEvery())
	o, err := newOracle(sp.Hier, it.in.pkts, sp.Window, runtime.GOMAXPROCS(0))
	if err != nil {
		return det, accuracy{}, err
	}
	acc := score(it.sys, o, sp, z.Comp)
	// The oracle is hundreds of MB of maps: collect it now, or the
	// collector works through it during the first seconds of steady.
	o = nil
	runtime.GC()
	r.Detection, r.Accuracy = &det, &acc

	if sp.Hier.Dims() == 1 {
		if det.Denied != floodSubnets {
			r.problem("only %d of %d flood subnets denied by the end of detect", det.Denied, floodSubnets)
		}
	} else if acc.F1 < 0.8 {
		// 2D conditioning may legitimately report a src×dst pair in
		// place of a source subnet, so the set is gated, not the count.
		r.problem("hhh_f1 %.3f below 0.8", acc.F1)
	}
	if acc.Violations > 0 {
		r.problem("%d true HHHs outside the (epsilon, delta) bound of their exact count", acc.Violations)
	}
	return det, acc, nil
}

// tally settles the instance, reads its ledger and fills in the operation
// counts: attempted = packets + queries + ticks (every tick is also one
// query), failed = everything the issue lists, conservation misses included.
func tally(r *result, it *instance, steadyFailed, steadyTicks int) {
	failed := it.failed + r.Detection.TickFailed + steadyFailed
	if !it.sys.settle() {
		failed++
	}
	led := it.sys.ledger()
	r.Ledger = led
	r.Attempted = led.Sent + 2*uint64(r.Detection.Ticks+steadyTicks)
	r.Failed = uint64(failed) + led.Dropped + led.Rejected + led.Resyncs + absDiff(led.Covered, led.Sent)
	if led.Covered != led.Sent {
		r.problem("ingest conservation: sink covered %d of %d packets sent", led.Covered, led.Sent)
	}
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// steadyMetrics reports the steady phase: the rate as the median of its
// segments, latencies as the p50 over all samples with the per-segment p50s as
// spread. (The p90s did not repeat within any bound the contract allows on the
// build host, so they are per-layer metrics of the traced run.)
func steadyMetrics(r *result, st *steady) {
	r.setSegments("ingest_mpps", median(st.Rates), 0, st.Rates)
	for name, l := range map[string]*latencies{"query_ms": &st.Query, "enforce_ms": &st.Enforce} {
		r.setSegments(name+"_p50", quantile(l.ms, 0.5), len(l.ms), l.segmentP50s())
	}
}
