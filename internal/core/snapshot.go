// Snapshot: the read plane's point-in-time capture of a Memento
// sketch. A Snapshot is taken under whatever lock guards the sketch
// (internal/shard holds its shard lock exactly for the duration of
// SnapshotInto) and then answers every query lock-free on immutable
// data: it is a copy of the sketch's table (flat-slab copies,
// keyidx/spacesaving CopyInto), so capture cost is a few memmoves
// regardless of how expensive the query that follows is, and every
// read it answers is the table method the live sketch runs.
//
// Snapshots are designed for reuse: SnapshotInto into the same
// Snapshot recycles its slabs, so a pooled Snapshot makes the whole
// query path allocation-free in steady state. A Snapshot must not be
// shared between concurrent queries (pool them like internal/shard
// does); distinct Snapshots are independent.

package core

// Snapshot is an immutable point-in-time copy of a Sketch's queryable
// state: its table — the overflow table B, the in-frame Space Saving
// counters, and the scale/window/update scalars. The zero value is
// empty and ready for SnapshotInto.
type Snapshot[K comparable] struct {
	table[K]

	// Restore plane: the frame position and update breakdown, and the
	// block ring, captured by CheckpointInto only (SnapshotInto leaves
	// it absent — the query plane never pays for it). Only snapshots
	// carrying it can rehydrate a live sketch (RestoreFrom) or encode
	// with codec.FlagRestore.
	full bool
	frame
	queues [][]K // ring queues oldest→current, undrained entries
}

// SnapshotInto captures the sketch's queryable state into snap,
// reusing snap's buffers. Call it under the lock guarding the sketch;
// everything snap answers afterwards is lock-free. Cost is O(k) slab
// copies — independent of the number of queries the snapshot serves.
//
//memento:noalloc
func (s *Sketch[K]) SnapshotInto(snap *Snapshot[K]) {
	s.copyInto(&snap.table)
	snap.full = false // query-plane capture; CheckpointInto adds the rest
}

// CheckpointInto is SnapshotInto plus the restore plane: the block
// ring's undrained queues, the frame position, and the update
// breakdown. A snapshot captured this way can rehydrate a live sketch
// (RestoreFrom) and encodes with codec.FlagRestore. Still a few slab
// copies — call it under the lock guarding the sketch.
//
//memento:noalloc
func (s *Sketch[K]) CheckpointInto(snap *Snapshot[K]) {
	s.copyInto(&snap.table)
	snap.full = true
	snap.frame = s.frame
	s.ring.copyInto(&snap.queues)
}

// Restorable reports whether the snapshot carries the restore plane
// (captured by CheckpointInto or built from a FlagRestore record).
func (snap *Snapshot[K]) Restorable() bool { return snap.full }

// Queues calls fn for each captured block-ring queue in canonical
// oldest→current order until fn returns false; valid only on
// restore-plane snapshots (no queues otherwise). The slices are the
// snapshot's own — treat them as read-only.
func (snap *Snapshot[K]) Queues(fn func(q []K) bool) {
	for _, q := range snap.queues {
		if !fn(q) {
			return
		}
	}
}
