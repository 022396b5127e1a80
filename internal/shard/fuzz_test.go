package shard

import (
	"bytes"
	"runtime"
	"testing"

	"memento/internal/core"
	"memento/internal/delta"
	"memento/internal/hierarchy"
)

// FuzzApplyHHHDeltaSet pins the set reader that every warm restart
// and every mementoctl input goes through (readEnvelope, readBlob,
// ApplyHHHDeltaSet): arbitrary bytes, read as a first file and as the
// step after a real base, never panic and never allocate more than
// their own bytes can hold.
func FuzzApplyHHHDeltaSet(f *testing.F) {
	s := mustNewHHH(HHHConfig{
		Core:   core.HHHConfig{Hierarchy: hierarchy.OneD{}, Window: 1 << 10, Counters: 40, Seed: 3},
		Shards: 2,
	})
	ingest := func(seed uint64) {
		b := s.NewBatcher(0)
		for _, p := range chainPackets(800, seed) {
			b.Add(p)
		}
		b.Flush()
	}
	ingest(1)
	var ckpt, base, step bytes.Buffer
	if err := s.Checkpoint(&ckpt); err != nil {
		f.Fatal(err)
	}
	if err := s.EnableDeltaCheckpoints(5); err != nil {
		f.Fatal(err)
	}
	if _, err := s.WriteChain(&base, false); err != nil {
		f.Fatal(err)
	}
	ingest(2)
	if isBase, err := s.WriteChain(&step, false); err != nil || isBase {
		f.Fatalf("second step: base %v, %v", isBase, err)
	}
	f.Add(ckpt.Bytes())
	f.Add(base.Bytes())
	f.Add(step.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		apply := func(what string, sts []*delta.State) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			_, _ = ApplyHHHDeltaSet(bytes.NewReader(data), sts) // any error is fine; a panic is not
			runtime.ReadMemStats(&ms)
			// A record's buffer grows with the bytes present, so even a
			// hostile record length is bounded by them.
			if grew, limit := ms.TotalAlloc-before, uint64(allocPerByte*len(data)+1<<20); grew > limit {
				t.Fatalf("%s: %d bytes allocated for a %d-byte input, limit %d", what, grew, len(data), limit)
			}
		}
		apply("first file", nil)
		sts, err := ApplyHHHDeltaSet(bytes.NewReader(base.Bytes()), nil)
		if err != nil {
			t.Fatal(err)
		}
		apply("after a base", sts)
	})
}

// allocPerByte bounds what decoding a well-formed input allocates per
// input byte: the snapshot decoder sizes its tables by the entries the
// bytes carry, never by a declared count.
const allocPerByte = 64
