package trace

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"memento/internal/hierarchy"
)

func TestProfileByName(t *testing.T) {
	for _, want := range Profiles() {
		got, err := ProfileByName(want.Name)
		if err != nil || got.Name != want.Name {
			t.Fatalf("ProfileByName(%q): %v", want.Name, err)
		}
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Fatal("unknown profile should fail")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := MustNewGenerator(Backbone, 7)
	b := MustNewGenerator(Backbone, 7)
	for i := 0; i < 10000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
	c := MustNewGenerator(Backbone, 8)
	diff := 0
	for i := 0; i < 10000; i++ {
		if a.Next() != c.Next() {
			diff++
		}
	}
	if diff < 5000 {
		t.Fatalf("different seeds too similar: only %d/10000 differ", diff)
	}
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(Profile{Flows: 0}, 1); err == nil {
		t.Fatal("zero flows should fail")
	}
	if _, err := NewGenerator(Profile{Flows: 10, FlowSkew: -1}, 1); err == nil {
		t.Fatal("negative skew should fail")
	}
}

// topShare returns the traffic share of the top fraction of flows.
func topShare(pkts []hierarchy.Packet, frac float64) float64 {
	counts := map[hierarchy.Packet]int{}
	for _, p := range pkts {
		counts[p]++
	}
	all := make([]int, 0, len(counts))
	for _, c := range counts {
		all = append(all, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(all)))
	k := int(math.Ceil(frac * float64(len(all))))
	if k < 1 {
		k = 1
	}
	top := 0
	for _, c := range all[:k] {
		top += c
	}
	return float64(top) / float64(len(pkts))
}

func TestSkewOrdering(t *testing.T) {
	// The paper's observation: Datacenter is the most skewed trace.
	const n = 300000
	dc := topShare(MustNewGenerator(Datacenter, 1).Generate(n, nil), 0.01)
	bb := topShare(MustNewGenerator(Backbone, 1).Generate(n, nil), 0.01)
	ed := topShare(MustNewGenerator(Edge, 1).Generate(n, nil), 0.01)
	if !(dc > bb && dc > ed) {
		t.Fatalf("Datacenter must be most skewed: dc=%.3f bb=%.3f edge=%.3f", dc, bb, ed)
	}
	// All profiles must be meaningfully skewed (top 1% of flows well
	// above 1% of traffic).
	for name, share := range map[string]float64{"dc": dc, "bb": bb, "edge": ed} {
		if share < 0.05 {
			t.Fatalf("%s barely skewed: top 1%% share = %.3f", name, share)
		}
	}
}

func TestSubnetAggregation(t *testing.T) {
	// Octet skew must produce heavy /8s — the HHH experiments depend
	// on subnet structure existing at all prefix lengths.
	pkts := MustNewGenerator(Backbone, 3).Generate(200000, nil)
	counts := map[byte]int{}
	for _, p := range pkts {
		counts[byte(p.Src>>24)]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	share := float64(max) / float64(len(pkts))
	if share < 0.02 {
		t.Fatalf("heaviest /8 holds only %.4f of traffic; no subnet structure", share)
	}
	if share > 0.9 {
		t.Fatalf("heaviest /8 holds %.4f; degenerate aggregation", share)
	}
}

func TestGenerateAppends(t *testing.T) {
	g := MustNewGenerator(Edge, 5)
	buf := g.Generate(10, nil)
	buf = g.Generate(5, buf)
	if len(buf) != 15 {
		t.Fatalf("len = %d", len(buf))
	}
}

func TestInjectFlood(t *testing.T) {
	base := MustNewGenerator(Backbone, 11).Generate(100000, nil)
	f, err := Inject(base, FloodConfig{Subnets: 50, Rate: 0.7, Start: 20000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Subnets) != 50 {
		t.Fatalf("subnets = %d", len(f.Subnets))
	}
	if f.Start != 20000 {
		t.Fatalf("start = %d", f.Start)
	}
	// Distinct subnets, stored as /8 network addresses.
	seen := map[uint32]bool{}
	for _, s := range f.Subnets {
		if s&0x00ffffff != 0 {
			t.Fatalf("subnet %08x has host bits set", s)
		}
		if seen[s] {
			t.Fatalf("duplicate subnet %08x", s)
		}
		seen[s] = true
	}
	// Before start: identical to base and unflagged.
	for i := 0; i < f.Start; i++ {
		if f.Packets[i] != base[i] || f.IsFlood[i] {
			t.Fatalf("pre-flood packet %d modified", i)
		}
	}
	// After start: flood fraction ≈ Rate, every flagged packet sourced
	// from an attacking subnet.
	flood, total := 0, 0
	for i := f.Start; i < len(f.Packets); i++ {
		total++
		if f.IsFlood[i] {
			flood++
			if !seen[f.Packets[i].Src&0xff000000] {
				t.Fatalf("flood packet %d from non-attack subnet %08x", i, f.Packets[i].Src)
			}
		}
	}
	got := float64(flood) / float64(total)
	if math.Abs(got-0.7) > 0.02 {
		t.Fatalf("flood fraction %.3f, want ≈ 0.7", got)
	}
	// All original lines preserved in order.
	kept := make([]hierarchy.Packet, 0, len(base))
	for i, p := range f.Packets {
		if !f.IsFlood[i] {
			kept = append(kept, p)
		}
	}
	if len(kept) != len(base) {
		t.Fatalf("original lines: %d, want %d", len(kept), len(base))
	}
	for i := range kept {
		if kept[i] != base[i] {
			t.Fatalf("original line %d reordered", i)
		}
	}
}

func TestInjectValidation(t *testing.T) {
	base := make([]hierarchy.Packet, 10)
	if _, err := Inject(base, FloodConfig{Subnets: 0, Rate: 0.5}); err == nil {
		t.Fatal("zero subnets should fail")
	}
	if _, err := Inject(base, FloodConfig{Subnets: 5, Rate: 1.5}); err == nil {
		t.Fatal("bad rate should fail")
	}
	if _, err := Inject(nil, FloodConfig{Subnets: 5, Rate: 0.5, Start: -1}); err == nil {
		t.Fatal("empty base with random start should fail")
	}
}

func TestInjectRandomStart(t *testing.T) {
	base := MustNewGenerator(Edge, 12).Generate(5000, nil)
	f, err := Inject(base, FloodConfig{Subnets: 3, Rate: 0.5, Start: -1, StartMax: 1000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if f.Start < 0 || f.Start >= 1000 {
		t.Fatalf("random start %d outside [0, 1000)", f.Start)
	}
}

// TestFloodTraceGolden pins one seed's combined trace, the packets and
// their IsFlood marks, to a hash: a change to how the generator or the
// injector sizes or fills its output must leave the stream byte for
// byte as it was.
func TestFloodTraceGolden(t *testing.T) {
	base := MustNewGenerator(Backbone, 1).Generate(1<<17, nil)
	f, err := Inject(base, FloodConfig{Subnets: 50, Rate: 0.7, Start: -1, StartMax: 1 << 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var rec [9]byte
	for i, p := range f.Packets {
		binary.BigEndian.PutUint32(rec[0:], p.Src)
		binary.BigEndian.PutUint32(rec[4:], p.Dst)
		rec[8] = 0
		if f.IsFlood[i] {
			rec[8] = 1
		}
		h.Write(rec[:])
	}
	const want = 0xb454c2f319462953
	if len(f.IsFlood) != len(f.Packets) || h.Sum64() != want {
		t.Fatalf("flood trace: %d packets, %d marks, start %d, hash %#x; want hash %#x",
			len(f.Packets), len(f.IsFlood), f.Start, h.Sum64(), uint64(want))
	}
}
