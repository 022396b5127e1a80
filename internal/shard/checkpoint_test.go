// Tests for sharded checkpoint/restore: answer-identical rehydration
// (the differential contract), the one-lock-pass capture discipline,
// config-mismatch rejection, and behavior under concurrent ingestion.
// Chain steps beyond a base are in delta_test.go.

package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"memento/internal/codec"
	"memento/internal/core"
	"memento/internal/delta"
	"memento/internal/hierarchy"
	"memento/internal/rng"
)

// hammerCfg is the configuration hammerHHH builds, restated so tests
// can build instances of the same or a varied configuration.
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
	probes := []hierarchy.Prefix{{}} // the 1D root
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
// 4-shard instance restored from its checkpoint answers Query,
// QueryBounds and Output exactly as the original did at capture time,
// whether restored as a chain of one or from the decoded bases, and a
// second checkpoint of the same state writes the same bytes.
func TestHHHCheckpointRestoreDifferential(t *testing.T) {
	s := hammerHHH(t, 121)
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreHHHChain(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Shards() != s.Shards() || restored.EffectiveWindow() != s.EffectiveWindow() {
		t.Fatalf("restored shape: %d shards window %d, want %d/%d",
			restored.Shards(), restored.EffectiveWindow(), s.Shards(), s.EffectiveWindow())
	}
	sameHHHAnswers(t, s, restored)

	snaps, err := DecodeHHHCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fromBases, err := RestoreHHHFromSnapshots(snaps)
	if err != nil {
		t.Fatal(err)
	}
	sameHHHAnswers(t, s, fromBases)

	var again bytes.Buffer
	if err := s.Checkpoint(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("two checkpoints of one state differ")
	}
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

// TestCheckpointLeavesUpdatePathUntracked pins that a checkpoint
// builds no chain encoder: the shards' sketches take no delta marking
// on later updates.
func TestCheckpointLeavesUpdatePathUntracked(t *testing.T) {
	s := hammerHHH(t, 124)
	if err := s.Checkpoint(io.Discard); err != nil {
		t.Fatal(err)
	}
	if s.trackers != nil {
		t.Fatal("Checkpoint enabled delta checkpoints")
	}
	var dirty core.DirtySet[hierarchy.Prefix]
	for i := range s.shards {
		if err := s.shards[i].hh.DeltaDrainInto(&dirty); err == nil {
			t.Fatalf("shard %d tracks deltas after Checkpoint", i)
		}
	}
}

// TestHHHRestoreRejectsMismatch pins that a restore refuses a chain
// whose records disagree on configuration, and fails every truncation
// of a checkpoint with a typed error, never a panic.
func TestHHHRestoreRejectsMismatch(t *testing.T) {
	s := hammerHHH(t, 123)
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	// Shards over different hierarchies in one set.
	var mixed bytes.Buffer
	snaps := []*core.HHHSnapshot{new(core.HHHSnapshot), new(core.HHHSnapshot)}
	s.shards[0].hh.CheckpointInto(snaps[0])
	hammerHHH2D(t, 125).shards[0].hh.CheckpointInto(snaps[1])
	if err := writeSet(&mixed, 2, func(i int, dst []byte) ([]byte, error) {
		return delta.AppendBase(dst, snaps[i], checkpointChain, 1)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreHHHChain(&mixed); !errors.Is(err, codec.ErrConfigMismatch) {
		t.Fatalf("mixed hierarchies: %v", err)
	}

	// A step with another shard count than its base.
	two := mustNewHHH(HHHConfig{Core: hammerCfg(1).Core, Shards: 2})
	var step bytes.Buffer
	if err := two.Checkpoint(&step); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreHHHChain(bytes.NewReader(buf.Bytes()), &step); !errors.Is(err, codec.ErrConfigMismatch) {
		t.Fatalf("shard-count mismatch: %v", err)
	}

	// A delta that continues the chain position of a base of another
	// window.
	cfg := hammerCfg(1)
	cfg.Core.Window = 1 << 12
	var base, other, next bytes.Buffer
	for i, c := range []HHHConfig{hammerCfg(1), cfg} {
		h := mustNewHHH(c)
		if err := h.EnableDeltaCheckpoints(9); err != nil {
			t.Fatal(err)
		}
		w := &base
		if i == 1 {
			w = &other
		}
		if _, err := h.WriteChain(w, false); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			if _, err := h.WriteChain(&next, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := RestoreHHHChain(&base, &next); !errors.Is(err, codec.ErrConfigMismatch) {
		t.Fatalf("window mismatch: %v", err)
	}

	raw := buf.Bytes()
	for _, cut := range []int{0, 10, envelopeSize - 1, envelopeSize + 2, len(raw) / 2, len(raw) - 1} {
		if _, err := RestoreHHHChain(bytes.NewReader(raw[:cut])); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("truncation at %d: %v, want ErrCorrupt", cut, err)
		}
	}
}

// TestDecodeHHHCheckpointRejectsRetiredKind pins that a file of the
// retired sharded-checkpoint kind (4) fails loudly, with ErrKind.
func TestDecodeHHHCheckpointRejectsRetiredKind(t *testing.T) {
	const retired = 4
	old := codec.AppendHeader(nil, codec.Header{
		Version: codec.Version,
		Kind:    retired,
		Flags:   codec.FlagRestore,
		Digest:  codec.SetDigest(retired, 1),
	})
	old = binary.BigEndian.AppendUint32(old, 1)
	old = binary.BigEndian.AppendUint64(old, 0)
	old = append(old, 0, 0, 0, 1, 0)
	if _, err := DecodeHHHCheckpoint(bytes.NewReader(old)); !errors.Is(err, codec.ErrKind) {
		t.Fatalf("kind 4: %v, want ErrKind", err)
	}
}

// TestHostileRecordLengthAllocatesLittle pins readBlob's growth: a
// file of a few dozen bytes whose one record names codec.MaxRecord
// (64 MiB) is ErrCorrupt, and reading it allocates under 1 MiB.
func TestHostileRecordLengthAllocatesLittle(t *testing.T) {
	file := appendEnvelope(nil, 1)
	file = binary.BigEndian.AppendUint32(file, codec.MaxRecord)
	file = append(file, make([]byte, 16)...)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	_, err := ApplyHHHDeltaSet(bytes.NewReader(file), nil)
	runtime.ReadMemStats(&ms)
	if !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("%d-byte file naming a %d-byte record: %v, want ErrCorrupt", len(file), codec.MaxRecord, err)
	}
	if grew := ms.TotalAlloc - before; grew >= 1<<20 {
		t.Fatalf("%d-byte file allocated %d bytes", len(file), grew)
	}
}

// TestCheckpointUnderIngestion pins, under -race, that Checkpoint is
// an ordinary read-plane citizen: batched writers at full rate while
// checkpoints stream out, and every captured stream restores into a
// working instance.
func TestCheckpointUnderIngestion(t *testing.T) {
	s := mustNewHHH(hammerCfg(141))
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
			if _, err := RestoreHHHChain(&buf); err != nil {
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

// TestShardMembersMergeUnderOneHasher: the members a sharded instance
// hands the merged read plane — its shards' captures, the bases
// DecodeHHHCheckpoint decodes from its checkpoint, and the shards of
// the instance RestoreHHHFromSnapshots rehydrates from them — merge in
// one core.SnapshotSet exactly as a reference that probes each member
// through its own TrackedBounds, to the bit, on every prefix a member
// tracks and each of its ancestors. The set hashes a prefix once for
// every member, so a member indexed under another hasher would read
// as not tracking its own keys.
func TestShardMembersMergeUnderOneHasher(t *testing.T) {
	for _, s := range []*HHH{hammerHHH(t, 161), hammerHHH2D(t, 162)} {
		q := s.getQuery()
		s.snapshotAll(q)
		members := append([]*core.HHHSnapshot(nil), q.views...)
		var buf bytes.Buffer
		if err := s.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeHHHCheckpoint(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, decoded...)
		restored, err := RestoreHHHFromSnapshots(decoded)
		if err != nil {
			t.Fatal(err)
		}
		rq := restored.getQuery()
		restored.snapshotAll(rq)
		members = append(members, rq.views...)

		weights := make([]float64, len(members))
		var totalU, totalL float64
		for i, m := range members {
			weights[i] = 0.5 + float64(i)/8
			du, dl := m.AbsentBounds()
			totalU += du * weights[i]
			totalL += dl * weights[i]
		}
		var set core.SnapshotSet
		set.Reset(members, weights)
		var probes []hierarchy.Prefix
		tracked := make([]map[hierarchy.Prefix]bool, len(members))
		for i, m := range members {
			tracked[i] = map[hierarchy.Prefix]bool{}
			m.Sketch().ForEachEstimate(func(p hierarchy.Prefix, _, _ float64) bool {
				tracked[i][p] = true
				probes = p.Ancestors(append(probes, p))
				return true
			})
		}
		if len(probes) == 0 {
			t.Fatal("test vacuous: no member tracks a prefix")
		}
		for _, p := range probes {
			var wu, wl, defU, defL float64
			wok := false
			for i, m := range members {
				if !tracked[i][p] {
					continue
				}
				u, l := m.QueryBounds(p)
				wok = true
				du, dl := m.AbsentBounds()
				wu += u * weights[i]
				wl += l * weights[i]
				defU += du * weights[i]
				defL += dl * weights[i]
			}
			wu, wl = wu+(totalU-defU), wl+(totalL-defL)
			if gu, gl, gok := set.Tracked(p); gu != wu || gl != wl || gok != wok {
				t.Fatalf("%v: Tracked(%v) = (%v, %v, %v), per-member reference (%v, %v, %v)",
					s.hier, p, gu, gl, gok, wu, wl, wok)
			}
		}
		s.putQuery(q)
		restored.putQuery(rq)
	}
}
