package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"memento/internal/hhhset"
	"memento/internal/hierarchy"
	"memento/internal/netwide"
)

func TestMedianAndQuantile(t *testing.T) {
	if got := median([]float64{5, 1, 9, 3, 7}); got != 5 {
		t.Errorf("median of five segments = %v, want 5", got)
	}
	if got := median([]float64{4, 2}); got != 3 {
		t.Errorf("median of two = %v, want 3", got)
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // unsorted on purpose
	}
	if got := quantile(xs, 0.9); got != 180 {
		t.Errorf("p90 of 1..200 = %v, want 180", got)
	}
	if got := quantile(xs, 0.5); got != 100 {
		t.Errorf("p50 of 1..200 = %v, want 100", got)
	}
}

func TestSupportedQuantile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{200, 0.9, true}, {100, 0.9, true}, {99, 0.9, false},
		{200, 0.95, true}, {199, 0.95, false}, {200, 0.99, false},
	} {
		if got := supported(tc.n, tc.q); got != tc.want {
			t.Errorf("supported(%d, %v) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
}

func TestSegmenterRatesAndMedian(t *testing.T) {
	start := time.Unix(0, 0)
	seg := newSegmenter(start, 5*time.Second)
	// 1000 packets/s, except 100/s in the third segment; marks land 0.1 s
	// past each boundary and each segment is rated over what it spanned.
	work, rates := uint64(0), []uint64{1000, 1000, 100, 1000, 1000}
	done := false
	for i, rate := range rates {
		if done {
			t.Fatalf("phase over after %d segments", i)
		}
		work += rate
		// Not a boundary yet: must not close anything.
		seg.mark(start.Add(time.Duration(i)*time.Second+500*time.Millisecond), work/2, 0)
		done = seg.mark(start.Add(time.Duration(i+1)*time.Second), work, 0)
	}
	if !done || len(seg.rates) != numSegments {
		t.Fatalf("done=%v with %d segments closed", done, len(seg.rates))
	}
	for i, want := range rates {
		if math.Abs(seg.rates[i]-float64(want)) > 1e-6 {
			t.Errorf("segment %d rate = %v, want %d", i, seg.rates[i], want)
		}
	}
	if got := spreadOf(seg.rates); got.Median != 1000 || got.Min != 100 || got.Max != 1000 {
		t.Errorf("spread = %+v: one slow segment must cost one segment, not the median", got)
	}
}

func TestSegmenterExcludesIdle(t *testing.T) {
	start := time.Unix(0, 0)
	seg := newSegmenter(start, 5*time.Second)
	// 600 packets in a 1 s segment of which 0.4 s was spent in ticks.
	seg.mark(start.Add(time.Second), 600, 400*time.Millisecond)
	if got := seg.rates[0]; math.Abs(got-1000) > 1e-6 {
		t.Errorf("rate = %v, want 1000 over the busy 0.6 s", got)
	}
}

func TestSelfTimeAndCoverage(t *testing.T) {
	spans := []span{
		{Name: "tick", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0}, // overlaps a: 10..50 counted once
		{Name: "c", Start: 60, End: 70, Parent: 0},
		{Name: "d", Start: 62, End: 65, Parent: 3}, // grandchild: not the tick's child
		{Name: "tick", Start: 200, End: 300, Parent: -1},
		{Name: "a", Start: 200, End: 300, Parent: 5},
	}
	self := selfTimes(spans)
	for i, want := range []time.Duration{50, 20, 30, 7, 3, 0, 100} {
		if self[i] != want {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, self[i], want)
		}
	}
	// Ledger sum: children cover 50 of the first tick and all of the second.
	if got := coverage(spans, "tick"); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("coverage = %v, want 0.75", got)
	}
	if got := durationsMs(spans)["a"]; len(got) != 2 || got[0] != 20e-6 || got[1] != 100e-6 {
		t.Errorf("durations of a = %v", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.end(tr.begin("x", -1, 0)) // must not panic
	live := newTracer()
	root := live.begin("tick", -1, 7)
	live.end(live.begin("child", root, 7))
	live.end(root)
	if len(live.spans) != 2 || live.spans[1].Parent != root || live.spans[1].ID != 7 || live.spans[0].End < live.spans[1].End {
		t.Errorf("spans = %+v", live.spans)
	}
}

func TestVerdictFilter(t *testing.T) {
	entries := []hhhset.Entry{
		{Prefix: hierarchy.Prefix{Src: 10 << 24, SrcLen: 1}, Estimate: 100},                          // heavy /8: deny
		{Prefix: hierarchy.Prefix{Src: 11 << 24, SrcLen: 1}, Estimate: 99},                           // in the set only via the margin
		{Prefix: hierarchy.Prefix{}, Estimate: 1000},                                                 // the whole internet
		{Prefix: hierarchy.Prefix{Src: 12 << 24, SrcLen: 1, Dst: 9 << 24, DstLen: 1}, Estimate: 500}, // src×dst pair
		{Prefix: hierarchy.Prefix{Src: 13<<24 | 1<<16, SrcLen: 2}, Estimate: 100},                    // heavy /16: deny
	}
	got := verdictsFrom(entries, 100, nil)
	want := []netwide.Verdict{
		{Subnet: 10 << 24, PrefixBytes: 1, Act: netwide.ActionDeny},
		{Subnet: 13<<24 | 1<<16, PrefixBytes: 2, Act: netwide.ActionDeny},
	}
	if len(got) != len(want) {
		t.Fatalf("verdicts = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("verdict %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestF1(t *testing.T) {
	p := func(b byte) hierarchy.Prefix { return hierarchy.Prefix{Src: uint32(b) << 24, SrcLen: 1} }
	truth := map[hierarchy.Prefix]bool{p(1): true, p(2): true, p(3): true, p(4): true}
	reported := map[hierarchy.Prefix]bool{p(1): true, p(2): true, p(9): true}
	// precision 2/3, recall 2/4 -> F1 = 2·(2/3)(1/2)/((2/3)+(1/2)) = 4/7.
	if got, tp := f1(reported, truth); tp != 2 || math.Abs(got-4.0/7) > 1e-12 {
		t.Errorf("f1 = %v with %d true positives, want 4/7 with 2", got, tp)
	}
	if got, _ := f1(map[hierarchy.Prefix]bool{p(9): true}, truth); got != 0 {
		t.Errorf("f1 with no overlap = %v, want 0", got)
	}
}

// TestOracleExactHHH builds a stream whose exact HHH set is known by hand:
// over a window of 100, 10.1.1.1 sends 30 packets, twenty hosts of 10.2/16 send
// 1 each, and 70 - 20 = 50 come from fifty distinct /8s.
func TestOracleExactHHH(t *testing.T) {
	var pkts []hierarchy.Packet
	for i := 0; i < 40; i++ {
		pkts = append(pkts, hierarchy.Packet{Src: hierarchy.IPv4(99, 0, 0, byte(i))}) // slides out of the window
	}
	for i := 0; i < 30; i++ {
		pkts = append(pkts, hierarchy.Packet{Src: hierarchy.IPv4(10, 1, 1, 1)})
	}
	for i := 0; i < 20; i++ {
		pkts = append(pkts, hierarchy.Packet{Src: hierarchy.IPv4(10, 2, byte(i), 7)})
	}
	for i := 0; i < 50; i++ {
		pkts = append(pkts, hierarchy.Packet{Src: hierarchy.IPv4(byte(100+i), 0, 0, 1)})
	}
	o, err := newOracle(hierarchy.OneD{}, pkts, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	host := hierarchy.Prefix{Src: hierarchy.IPv4(10, 1, 1, 1), SrcLen: 4}
	net16 := hierarchy.Prefix{Src: hierarchy.IPv4(10, 2, 0, 0), SrcLen: 2}
	net8 := hierarchy.Prefix{Src: hierarchy.IPv4(10, 0, 0, 0), SrcLen: 1}
	for p, want := range map[hierarchy.Prefix]float64{host: 30, net16: 20, net8: 50, {}: 100,
		{Src: hierarchy.IPv4(99, 0, 0, 0), SrcLen: 1}: 0} {
		if got := o.count(p); got != want {
			t.Errorf("count(%v) = %v, want %v", p, got, want)
		}
	}
	// At threshold 15: the host (30), 10.2/16 (20), and the root, whose
	// conditioned count is 100 - 30 - 20 = 50. 10/8 is conditioned to 0.
	hhh := o.hhh(o.heavy(15), 15)
	want := map[hierarchy.Prefix]bool{host: true, net16: true, {}: true}
	if len(hhh) != len(want) {
		t.Errorf("exact HHH set = %v, want %v", hhh, want)
	}
	for p := range want {
		if !hhh[p] {
			t.Errorf("exact HHH set lacks %v", p)
		}
	}
}

// fakeSystem answers score from an oracle with a fixed estimation error.
type fakeSystem struct {
	system // only bounds and hhhSet are called
	o      *oracle
	err    float64
	report []hierarchy.Prefix
}

func (f fakeSystem) bounds(p hierarchy.Prefix) (float64, float64) {
	c := f.o.count(p)
	return c + f.err, c + f.err - 6
}

func (f fakeSystem) hhhSet() []hhhset.Entry {
	var out []hhhset.Entry
	for _, p := range f.report {
		out = append(out, hhhset.Entry{Prefix: p, Estimate: f.o.count(p) + f.err})
	}
	return out
}

// TestScoreAgainstHandBuiltSet scores a fake instance against the stream of
// TestOracleExactHHH, whose six heavy prefixes and three HHHs are known.
func TestScoreAgainstHandBuiltSet(t *testing.T) {
	var pkts []hierarchy.Packet
	for i := 0; i < 30; i++ {
		pkts = append(pkts, hierarchy.Packet{Src: hierarchy.IPv4(10, 1, 1, 1)})
	}
	for i := 0; i < 20; i++ {
		pkts = append(pkts, hierarchy.Packet{Src: hierarchy.IPv4(10, 2, byte(i), 7)})
	}
	for i := 0; i < 50; i++ {
		pkts = append(pkts, hierarchy.Packet{Src: hierarchy.IPv4(byte(100+i), 0, 0, 1)})
	}
	o, err := newOracle(hierarchy.OneD{}, pkts, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp := &spec{Hier: hierarchy.OneD{}, Window: 100, Theta: 0.15}
	host := hierarchy.Prefix{Src: hierarchy.IPv4(10, 1, 1, 1), SrcLen: 4}
	net16 := hierarchy.Prefix{Src: hierarchy.IPv4(10, 2, 0, 0), SrcLen: 2}
	// Every estimate 3 packets high over a window of 100: NRMSE 0.03 over
	// the six heavy prefixes; all three HHHs reported, none spurious.
	a := score(fakeSystem{o: o, err: 3, report: []hierarchy.Prefix{host, net16, {}}}, o, sp, 0)
	if a.Heavy != 6 || math.Abs(a.NRMSE-0.03) > 1e-12 || a.F1 != 1 || a.Truth != 3 || a.Violations != 0 {
		t.Errorf("accurate instance scored %+v", a)
	}
	// Estimates 10 low are no upper bounds: every true HHH violates the
	// contract unless the compensation covers it; and one HHH goes missing.
	low := fakeSystem{o: o, err: -10, report: []hierarchy.Prefix{host, {}}}
	if a := score(low, o, sp, 0); a.Violations != 3 || math.Abs(a.F1-0.8) > 1e-12 {
		t.Errorf("under-estimating instance scored %+v", a)
	}
	if a := score(low, o, sp, 10); a.Violations != 0 {
		t.Errorf("compensation 10 must cover an error of 10: %+v", a)
	}
}

func TestDegenerateConfigurationAborts(t *testing.T) {
	for _, sp := range specs() {
		z, err := sp.size()
		if err != nil || z.Margin <= 0 {
			t.Errorf("%s: margin %.0f, err %v", sp.Name, z.Margin, err)
		}
	}
	sp, err := specByName("dev2d-query")
	if err != nil {
		t.Fatal(err)
	}
	sp.Window = 1 << 18 // theta·W = 13107 < comp = 15830
	if _, err := run(sp, options{seed: 1, seconds: 1}); err == nil || !strings.Contains(err.Error(), "degenerate") {
		t.Errorf("run on a degenerate configuration returned %v, want an error before anything is timed", err)
	}
}

func TestSealChecksNamesAndCompleteness(t *testing.T) {
	r := &result{Metrics: map[string]value{}}
	for _, d := range endToEnd {
		r.set(d.Name, 1)
	}
	r.seal()
	if !r.Correct || r.Metrics["ingest_mpps"].Unit != "Mpkt/s" {
		t.Errorf("complete result: correct=%v problems=%v unit=%q", r.Correct, r.Problems, r.Metrics["ingest_mpps"].Unit)
	}
	r = &result{Metrics: map[string]value{}}
	for _, d := range endToEnd[1:] {
		r.set(d.Name, 1)
	}
	r.set("bad name!", 1)
	r.seal()
	if r.Correct || len(r.Problems) != 3 { // setup_s missing; bad name invalid and unknown
		t.Errorf("incomplete result: correct=%v problems=%v", r.Correct, r.Problems)
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("catalogue name %q is not valid", d.Name)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "query_ms_p50", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "ingest_mpps", Better: "higher", Bound: 0.1}
	noisy := spreadOf([]float64{80, 100, 120})
	steady := spreadOf([]float64{99, 100, 101})
	for _, tc := range []struct {
		def  metricDef
		a, b value
		want string
	}{
		{lower, value{Value: 100}, value{Value: 105}, verdictWithin},
		{lower, value{Value: 100}, value{Value: 120}, verdictWorse},
		{lower, value{Value: 100}, value{Value: 80}, verdictBetter},
		{higher, value{Value: 100}, value{Value: 80}, verdictWorse},
		{higher, value{Value: 100}, value{Value: 120}, verdictBetter},
		{higher, value{Value: 100, Segments: &steady}, value{Value: 95, Segments: &steady}, verdictWithin},
		{higher, value{Value: 100, Segments: &noisy}, value{Value: 100}, verdictUnresolved},
		{higher, value{Value: 100}, value{Value: 70, Segments: &noisy}, verdictUnresolved},
	} {
		if got, _ := judge(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("judge(%s, %v -> %v) = %q, want %q", tc.def.Name, tc.a.Value, tc.b.Value, got, tc.want)
		}
	}
}

func TestCompareRefusesDifferentHosts(t *testing.T) {
	mk := func(nproc int, mpps float64) *resultSet {
		r := &result{Workload: "dev1d-ingest", Host: host{NProc: nproc, GOMAXPROCS: nproc}, Metrics: map[string]value{}}
		for _, d := range endToEnd {
			r.set(d.Name, 1)
		}
		r.set("ingest_mpps", mpps)
		return &resultSet{Results: []*result{r}}
	}
	dir := t.TempDir()
	paths := map[string]*resultSet{"a": mk(2, 50), "same": mk(2, 51), "slow": mk(2, 30), "big": mk(8, 50)}
	for name, rs := range paths {
		if err := rs.write(filepath.Join(dir, name+".json")); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	if err := compareFiles(&out, filepath.Join(dir, "a.json"), filepath.Join(dir, "same.json")); err != nil {
		t.Errorf("comparing like with like: %v", err)
	}
	if got := strings.Count(out.String(), "\n"); got != 1+len(endToEnd) {
		t.Errorf("table has %d lines, want one row per metric plus the header:\n%s", got, out.String())
	}
	if err := compareFiles(&out, filepath.Join(dir, "a.json"), filepath.Join(dir, "slow.json")); err == nil {
		t.Error("a 40% slower ingest_mpps was not reported as worse")
	}
	if err := compareFiles(&out, filepath.Join(dir, "a.json"), filepath.Join(dir, "big.json")); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Errorf("comparing nproc 2 with nproc 8 returned %v, want a refusal", err)
	}
}

// TestContractMatchesCatalogue keeps BENCHMARK.json and the catalogue in step.
func TestContractMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var contract struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(specs()) {
		t.Fatalf("%d workloads in the contract, %d in the catalogue", len(contract.Workloads), len(specs()))
	}
	for i, sp := range specs() {
		if w := contract.Workloads[i]; w.Name != sp.Name || w.Why != sp.Why {
			t.Errorf("workload %d = %+v, catalogue has %s", i, w, sp.Name)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in the contract, %d in the catalogue", len(got), kind, len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s metric %d = %+v, catalogue has %+v", kind, i, g, d)
			}
		}
	}
	check("end-to-end", contract.EndToEnd, endToEnd)
	check("per-layer", contract.PerLayer, perLayer)
}

// TestDetectIsDeterministic runs set-up and the detect phase of dev1d-ingest
// twice in this process with one seed: every count must repeat exactly.
func TestDetectIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("feeds 3·2^22 packets twice")
	}
	sp, err := specByName("dev1d-ingest")
	if err != nil {
		t.Fatal(err)
	}
	z, err := sp.size()
	if err != nil {
		t.Fatal(err)
	}
	once := func() (detection, uint64) {
		it, err := setUp(sp, z, 42)
		if err != nil {
			t.Fatal(err)
		}
		defer it.sys.close()
		d := runDetect(it.sys, it.acl, it.in, sp.tickEvery())
		return d, it.sys.ledger().Covered
	}
	d1, covered1 := once()
	d2, covered2 := once()
	if d1 != d2 || covered1 != covered2 {
		t.Errorf("two runs with one seed differ:\n%+v covered %d\n%+v covered %d", d1, covered1, d2, covered2)
	}
	if d1.Denied != floodSubnets || d1.TickFailed != 0 || d1.Ticks != 2*ticksPerW {
		t.Errorf("detect phase: %+v", d1)
	}
}
