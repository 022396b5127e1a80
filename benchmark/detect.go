package main

import (
	"sync"

	"memento/internal/exact"
	"memento/internal/hhhset"
	"memento/internal/hierarchy"
	"memento/internal/lb"
	"memento/internal/netwide"
	"memento/internal/stats"
)

// detection is the outcome of the detect phase: 2·W packets from flood start,
// a quiesced control tick every K packets, everything clocked in packets.
type detection struct {
	DelayPkts   float64 `json:"detect_delay_pkts"` // mean over the flood subnets; never denied = 2·W
	MissedFrac  float64 `json:"flood_missed_frac"`
	Denied      int     `json:"subnets_denied"`
	FloodPkts   uint64  `json:"flood_pkts"`
	FloodPassed uint64  `json:"flood_passed"`
	Ticks       int     `json:"ticks"`
	TickFailed  int     `json:"tick_failures"`
}

// runDetect feeds the flood-mixed part of in to sys from this goroutine. Each
// packet is first looked up in the ACL, only to classify it as passed or
// blocked; it is observed either way so the mix stays stationary.
func runDetect(sys system, acl *lb.ACL, in *input, every int) detection {
	w := in.window
	var d detection
	deniedAt := make([]int, len(in.subnets))
	for i := range deniedAt {
		deniedAt[i] = -1
	}
	for i := w; i < len(in.pkts); i++ {
		p := in.pkts[i]
		if in.isFlood[i] {
			d.FloodPkts++
			if acl.Lookup(p.Src) != netwide.ActionDeny {
				d.FloodPassed++
			}
		}
		sys.observe(p)
		if n := i - w + 1; n%every == 0 {
			st := sys.tick(nil, d.Ticks)
			d.Ticks++
			d.TickFailed += st.failed
			for j, subnet := range in.subnets {
				// The /8's own address x.0.0.0 matches no narrower entry
				// unless that very /16 or /24 happens to be heavy.
				if deniedAt[j] < 0 && acl.Lookup(subnet) == netwide.ActionDeny {
					deniedAt[j] = n
				}
			}
		}
	}
	for _, at := range deniedAt {
		if at < 0 {
			at = 2 * w
		} else {
			d.Denied++
		}
		d.DelayPkts += float64(at) / float64(len(deniedAt))
	}
	d.MissedFrac = float64(d.FloodPassed) / float64(d.FloodPkts)
	return d
}

// oracle is the exact sliding-window reference: one exact.SlidingWindow per
// prefix pattern of the hierarchy, fed the same packets as the sketch.
type oracle struct {
	hier hierarchy.Hierarchy
	wins []*exact.SlidingWindow[hierarchy.Prefix]
}

// newOracle builds the reference state after pkts have been seen: the window
// holds the last w of them. Patterns are independent, so they are filled on
// as many goroutines as the host has processors.
func newOracle(hier hierarchy.Hierarchy, pkts []hierarchy.Packet, w, workers int) (*oracle, error) {
	o := &oracle{hier: hier, wins: make([]*exact.SlidingWindow[hierarchy.Prefix], hier.H())}
	for i := range o.wins {
		win, err := exact.NewSlidingWindow[hierarchy.Prefix](w)
		if err != nil {
			return nil, err
		}
		o.wins[i] = win
	}
	pkts = pkts[max(len(pkts)-w, 0):] // earlier packets have left the window
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(o.wins); i += workers {
				for _, p := range pkts {
					o.wins[i].Add(hier.Prefix(p, i))
				}
			}
		}()
	}
	wg.Wait()
	return o, nil
}

func (o *oracle) count(p hierarchy.Prefix) float64 {
	i := o.hier.PatternIndex(p)
	if i < 0 {
		return 0
	}
	return float64(o.wins[i].Count(p))
}

// Bounds makes the oracle an hhhset.Estimator with zero error.
func (o *oracle) Bounds(p hierarchy.Prefix) (upper, lower float64) {
	c := o.count(p)
	return c, c
}

// heavy returns every prefix, of any pattern, whose exact count reaches
// threshold.
func (o *oracle) heavy(threshold float64) []hierarchy.Prefix {
	var out []hierarchy.Prefix
	for _, win := range o.wins {
		win.Each(func(p hierarchy.Prefix, c int) bool {
			if float64(c) >= threshold {
				out = append(out, p)
			}
			return true
		})
	}
	return out
}

// hhh returns the exact HHH set at threshold: the shared level-by-level scan
// over exact counts with no compensation. Its candidates are heavy(threshold):
// only a prefix whose own count reaches the threshold can have a conditioned
// count that does.
func (o *oracle) hhh(heavy []hierarchy.Prefix, threshold float64) map[hierarchy.Prefix]bool {
	set := make(map[hierarchy.Prefix]bool)
	for _, e := range hhhset.Compute(o.hier, o, heavy, threshold, 0) {
		set[e.Prefix] = true
	}
	return set
}

// accuracy scores the instance against the oracle at the end of detect.
type accuracy struct {
	F1         float64 `json:"hhh_f1"`
	NRMSE      float64 `json:"est_nrmse"`
	Truth      int     `json:"exact_hhh"`
	Reported   int     `json:"reported_hhh"`
	TruePos    int     `json:"true_positives"`
	Heavy      int     `json:"heavy_prefixes"`   // prefixes with exact count >= theta·W
	Violations int     `json:"bound_violations"` // true HHHs outside [lower−comp, upper+comp]
}

// f1 scores reported against truth.
func f1(reported, truth map[hierarchy.Prefix]bool) (score float64, truePos int) {
	for p := range reported {
		if truth[p] {
			truePos++
		}
	}
	if truePos == 0 {
		return 0, 0
	}
	precision := float64(truePos) / float64(len(reported))
	recall := float64(truePos) / float64(len(truth))
	return 2 * precision * recall / (precision + recall), truePos
}

// score compares sys with the oracle: F1 of the reported HHH set (members
// whose estimate itself reaches the threshold — the rule verdicts follow)
// against the exact one, NRMSE of the point estimates over every heavy prefix,
// and the (epsilon, delta) contract on every true HHH.
func score(sys system, o *oracle, sp *spec, comp float64) accuracy {
	threshold := sp.Theta * float64(sp.Window)
	heavy := o.heavy(threshold)
	truth := o.hhh(heavy, threshold)
	reported := make(map[hierarchy.Prefix]bool)
	for _, e := range sys.hhhSet() {
		if e.Estimate >= threshold {
			reported[e.Prefix] = true
		}
	}
	a := accuracy{Truth: len(truth), Reported: len(reported)}
	a.F1, a.TruePos = f1(reported, truth)
	var rmse stats.RMSE
	for _, p := range heavy {
		upper, lower := sys.bounds(p)
		c := o.count(p)
		rmse.Add(upper, c)
		if truth[p] && (c > upper+comp || c < lower-comp) {
			a.Violations++
		}
	}
	a.Heavy = rmse.N()
	a.NRMSE = rmse.Value() / float64(sp.Window)
	return a
}
