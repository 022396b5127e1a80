// Describe: offline introspection of chain records, for tooling
// (cmd/mementoctl inspect) that reports on files it cannot — or need
// not — apply.

package delta

import (
	"fmt"

	"memento/internal/codec"
)

// Info summarizes one chain record without applying it.
type Info struct {
	// Base reports the record flavor.
	Base bool
	// Restore reports whether the restore plane is carried.
	Restore bool
	// Chain and Epoch position the record in its chain.
	Chain, Epoch uint64
	// ClearMonitored is the delta's structural flag.
	ClearMonitored bool
	// Entries is the per-key entry count (0 for bases).
	Entries int
	// Updates is the absolute replicated update count (0 for bases —
	// read the embedded record for base state).
	Updates uint64
	// EmbeddedBytes is the embedded snapshot record size (bases only).
	EmbeddedBytes int
}

// Describe parses a KindHHHDelta record's framing — header, chain
// position, entry count — without applying or fully decoding it.
func Describe(data []byte) (Info, error) {
	h, body, err := codec.ReadHeader(data)
	if err != nil {
		return Info{}, err
	}
	if h.Kind != codec.KindHHHDelta {
		return Info{}, fmt.Errorf("%w: kind %d, want hhh delta", codec.ErrKind, h.Kind)
	}
	c := codec.NewCursor(body)
	info := Info{
		Base:           h.Flags&codec.FlagBase != 0,
		Restore:        h.Flags&codec.FlagRestore != 0,
		ClearMonitored: h.Flags&codec.FlagClearMonitored != 0,
		Chain:          c.Uint64(),
		Epoch:          c.Uint64(),
	}
	if info.Base {
		info.EmbeddedBytes = c.Count(codec.MaxRecord, 1)
		return info, c.Err()
	}
	info.Updates = c.Uint64()
	c.Uint64() // items
	info.Entries = c.Count(codec.MaxRecord, prefixKeys.Width()+2)
	return info, c.Err()
}
