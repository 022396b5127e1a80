// Tests for sharded checkpoint/restore: answer-identical rehydration
// (the differential contract), the one-lock-pass capture discipline,
// config-mismatch rejection, and behavior under concurrent ingestion.

package shard

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"memento/internal/codec"
	"memento/internal/core"
	"memento/internal/hierarchy"
	"memento/internal/rng"
)

// hammerCfg is the configuration hammerHHH builds, restated so restore
// targets can be constructed identically.
func hammerCfg(seed uint64) HHHConfig {
	return HHHConfig{
		Core: core.HHHConfig{
			Hierarchy: hierarchy.OneD{}, Window: 1 << 13, Counters: 128 * 5, V: 10, Seed: seed,
		},
		Shards: 4,
	}
}

// sameHHHAnswers asserts two sharded instances agree on point
// queries, bounds, and the full HHH set across thresholds.
func sameHHHAnswers(t *testing.T, want, got *HHH) {
	t.Helper()
	probes := []hierarchy.Prefix{hierarchy.OneD{}.Root()}
	for a := uint32(0); a < 64; a++ {
		probes = append(probes,
			hierarchy.Prefix{Src: a, SrcLen: 4},
			hierarchy.Prefix{Src: hierarchy.MaskBytes(a, 2), SrcLen: 2})
	}
	for _, p := range probes {
		if w, g := want.Query(p), got.Query(p); w != g {
			t.Fatalf("Query(%v) = %g, want %g", p, g, w)
		}
		wu, wl := want.QueryBounds(p)
		gu, gl := got.QueryBounds(p)
		if wu != gu || wl != gl {
			t.Fatalf("QueryBounds(%v) = (%g,%g), want (%g,%g)", p, gu, gl, wu, wl)
		}
	}
	for _, theta := range []float64{0.002, 0.01, 0.05, 0.2} {
		w := want.Output(theta)
		g := got.Output(theta)
		if len(w) != len(g) {
			t.Fatalf("theta=%v: Output has %d entries, want %d\n%v\n%v", theta, len(g), len(w), g, w)
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("theta=%v: Output[%d] = %+v, want %+v", theta, i, g[i], w[i])
			}
		}
	}
	if len(want.Output(0.002)) == 0 {
		t.Fatal("test vacuous: no entries at the loosest threshold")
	}
}

// TestHHHCheckpointRestoreDifferential is the acceptance contract: a
// restored 4-shard instance answers Query, QueryBounds and Output
// exactly as the original did at capture time.
func TestHHHCheckpointRestoreDifferential(t *testing.T) {
	s := hammerHHH(t, 121)
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored := MustNewHHH(hammerCfg(999)) // different seed: RNG is not state
	if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	sameHHHAnswers(t, s, restored)

	// RestoreHHH constructs an equivalent instance from the stream
	// alone (config derived from the per-shard snapshots).
	fromFile, err := RestoreHHH(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if fromFile.Shards() != s.Shards() || fromFile.EffectiveWindow() != s.EffectiveWindow() {
		t.Fatalf("RestoreHHH shape: %d shards window %d, want %d/%d",
			fromFile.Shards(), fromFile.EffectiveWindow(), s.Shards(), s.EffectiveWindow())
	}
	sameHHHAnswers(t, s, fromFile)
}

// TestHHHCheckpointOneLockPassPerShard extends the read-plane lock
// contract to Checkpoint.
func TestHHHCheckpointOneLockPassPerShard(t *testing.T) {
	s := hammerHHH(t, 122)
	probe := new(atomic.Uint64)
	s.readLocks = probe
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if got, want := probe.Load(), uint64(s.Shards()); got != want {
		t.Fatalf("Checkpoint acquired %d shard locks, want exactly %d", got, want)
	}
}

func TestHHHRestoreRejectsMismatch(t *testing.T) {
	s := hammerHHH(t, 123)
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	wrongShards := MustNewHHH(HHHConfig{Core: hammerCfg(1).Core, Shards: 2})
	if err := wrongShards.Restore(bytes.NewReader(buf.Bytes())); !errors.Is(err, codec.ErrConfigMismatch) {
		t.Fatalf("shard-count mismatch: %v", err)
	}

	cfg := hammerCfg(1)
	cfg.Core.Window = 1 << 12
	wrongWindow := MustNewHHH(cfg)
	if err := wrongWindow.Restore(bytes.NewReader(buf.Bytes())); !errors.Is(err, codec.ErrConfigMismatch) {
		t.Fatalf("window mismatch: %v", err)
	}

	// Truncations fail with a typed error, never a panic, and leave
	// the target untouched.
	raw := buf.Bytes()
	for _, cut := range []int{0, 10, envelopeSize - 1, envelopeSize + 2, len(raw) / 2, len(raw) - 1} {
		target := MustNewHHH(hammerCfg(2))
		err := target.Restore(bytes.NewReader(raw[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		if target.Updates() != 0 {
			t.Fatalf("truncation at %d mutated the target", cut)
		}
	}
}

// TestCheckpointUnderIngestion pins, under -race, that Checkpoint is
// an ordinary read-plane citizen: batched writers at full rate while
// checkpoints stream out, and every captured stream restores into a
// working instance.
func TestCheckpointUnderIngestion(t *testing.T) {
	s := MustNewHHH(hammerCfg(141))
	const writers = 4
	const perWriter = 1 << 14
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			src := rng.New(uint64(id + 60))
			pb := s.NewBatcher(128)
			for i := 0; i < perWriter; i++ {
				pb.Add(hierarchy.Packet{Src: uint32(src.Intn(512))})
			}
			pb.Flush()
		}(w)
	}
	var checkpoints int
	var ckWg sync.WaitGroup
	ckWg.Add(1)
	go func() {
		defer ckWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := s.Checkpoint(&buf); err != nil {
				t.Errorf("checkpoint under ingestion: %v", err)
				return
			}
			restored := MustNewHHH(hammerCfg(142))
			if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
				t.Errorf("restore under ingestion: %v", err)
				return
			}
			checkpoints++
		}
	}()
	wg.Wait()
	close(stop)
	ckWg.Wait()
	if checkpoints == 0 {
		t.Fatal("test vacuous: no checkpoint completed during ingestion")
	}
	if got := s.Updates(); got != writers*perWriter {
		t.Fatalf("Updates() = %d, want %d", got, writers*perWriter)
	}
}

// TestMergerMatchesShardOutput pins the Merger refactor: merging the
// captured per-shard snapshots by hand is the same computation
// OutputTo runs, and merging two disjoint halves of a stream
// approximates the union instance.
func TestMergerMatchesShardOutput(t *testing.T) {
	s := hammerHHH(t, 151)
	q := s.getQuery()
	s.snapshotAll(q)
	var m Merger
	manual := m.Output(s.hier, q.views, 0.01, nil)
	direct := s.Output(0.01)
	if len(manual) != len(direct) {
		t.Fatalf("manual merge has %d entries, OutputTo %d", len(manual), len(direct))
	}
	for i := range direct {
		if manual[i] != direct[i] {
			t.Fatalf("entry %d: manual %+v, direct %+v", i, manual[i], direct[i])
		}
	}
	if m.Window() != s.EffectiveWindow() {
		t.Fatalf("merged window %d, want %d", m.Window(), s.EffectiveWindow())
	}
	if len(direct) == 0 {
		t.Fatal("test vacuous: empty output")
	}
	s.putQuery(q)
}
