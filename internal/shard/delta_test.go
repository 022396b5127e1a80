package shard

import (
	"bytes"
	"io"
	"os"
	"testing"

	"memento/internal/core"
	"memento/internal/delta"
	"memento/internal/hierarchy"
	"memento/internal/rng"
)

// chainPackets generates the usual skewed test mix.
func chainPackets(n int, seed uint64) []hierarchy.Packet {
	src := rng.New(seed)
	out := make([]hierarchy.Packet, n)
	for i := range out {
		if src.Float64() < 0.5 {
			out[i] = hierarchy.Packet{Src: hierarchy.IPv4(10, 0, 0, byte(1+src.Intn(8)))}
		} else {
			out[i] = hierarchy.Packet{Src: src.Uint32() | 1<<31}
		}
	}
	return out
}

// outputsEqual compares two HHH sets as sets with exact estimates.
func outputsEqual(t *testing.T, got, want []core.HeavyPrefix) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d entries vs %d", len(got), len(want))
	}
	m := map[hierarchy.Prefix]core.HeavyPrefix{}
	for _, e := range got {
		m[e.Prefix] = e
	}
	for _, e := range want {
		ge, ok := m[e.Prefix]
		if !ok || ge.Estimate != e.Estimate || ge.Conditioned != e.Conditioned {
			t.Fatalf("entry %v mismatch: %+v vs %+v", e.Prefix, ge, e)
		}
	}
}

// TestShardDeltaChainRestore drives a sharded instance through a
// base+delta chain written via the delta.Checkpointer and checks a
// chain-restored instance answers identically to the live one.
func TestShardDeltaChainRestore(t *testing.T) {
	s := mustNewHHH(HHHConfig{
		Core: core.HHHConfig{
			Hierarchy: hierarchy.Flows{}, Window: 1 << 12, Counters: 128, Seed: 5,
		},
		Shards: 4,
	})
	if err := s.EnableDeltaCheckpoints(31); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cp, err := delta.NewCheckpointer(dir, s, 8)
	if err != nil {
		t.Fatal(err)
	}
	packets := chainPackets(1<<14, 3)
	b := s.NewBatcher(0)
	for off := 0; off < len(packets); off += 1 << 11 {
		for _, p := range packets[off : off+1<<11] {
			b.Add(p)
		}
		b.Flush()
		if _, err := cp.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	chain, err := delta.FindChain(dir)
	if err != nil || chain == nil {
		t.Fatalf("chain discovery: %v (%v)", err, chain)
	}
	if len(chain.Deltas) == 0 {
		t.Fatal("chain has no delta steps")
	}
	base, err := os.Open(chain.Base)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	deltas := make([]io.Reader, 0, len(chain.Deltas))
	for _, path := range chain.Deltas {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		deltas = append(deltas, f)
	}
	restored, err := RestoreHHHChain(base, deltas...)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Shards() != s.Shards() || restored.EffectiveWindow() != s.EffectiveWindow() {
		t.Fatalf("restored shape %d/%d vs %d/%d",
			restored.Shards(), restored.EffectiveWindow(), s.Shards(), s.EffectiveWindow())
	}
	outputsEqual(t, restored.Output(0.05), s.Output(0.05))
	for i := 0; i < 8; i++ {
		p := hierarchy.Prefix{Src: hierarchy.IPv4(10, 0, 0, byte(1+i)), SrcLen: 4}
		if g, w := restored.Query(p), s.Query(p); g != w {
			t.Fatalf("query %v: %g vs %g", p, g, w)
		}
	}
}

// TestShardDeltaChainDetectsGap pins that a chain with a missing
// delta file refuses to apply past the hole.
func TestShardDeltaChainDetectsGap(t *testing.T) {
	s := mustNewHHH(HHHConfig{
		Core: core.HHHConfig{
			Hierarchy: hierarchy.Flows{}, Window: 1 << 10, Counters: 64, Seed: 9,
		},
		Shards: 2,
	})
	if err := s.EnableDeltaCheckpoints(32); err != nil {
		t.Fatal(err)
	}
	var baseBuf, d1, d2 bytes.Buffer
	step := func(w *bytes.Buffer, n int, seed uint64) {
		b := s.NewBatcher(0)
		for _, p := range chainPackets(n, seed) {
			b.Add(p)
		}
		b.Flush()
		if _, err := s.WriteChain(w, false); err != nil {
			t.Fatal(err)
		}
	}
	step(&baseBuf, 800, 1)
	step(&d1, 800, 2)
	step(&d2, 800, 3)
	// Applying base + d2 (skipping d1) must surface the gap.
	if _, err := RestoreHHHChain(bytes.NewReader(baseBuf.Bytes()), bytes.NewReader(d2.Bytes())); err == nil {
		t.Fatal("gap not detected")
	}
	// The full chain restores.
	if _, err := RestoreHHHChain(bytes.NewReader(baseBuf.Bytes()),
		bytes.NewReader(d1.Bytes()), bytes.NewReader(d2.Bytes())); err != nil {
		t.Fatal(err)
	}
}
