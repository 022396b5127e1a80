// Package codec defines the durable binary format shared by every
// layer that moves sketch state out of a process: shard.HHH checkpoint
// files and delta chains (internal/shard, internal/delta), snapshot
// and delta frames shipped over the network-wide protocol
// (internal/netwide), and the offline files cmd/mementoctl saves,
// merges and diffs.
//
// The format is versioned and self-describing. Every record starts
// with a fixed 16-byte header:
//
//	u32 magic   — 'M''S''K''T' (0x4D534B54)
//	u8  version — format version (Version; currently 1)
//	u8  kind    — record kind (KindHHH, KindHHHDelta, KindHHHDeltaSet)
//	u16 flags   — FlagRestore when the restore plane (block ring,
//	              frame position, update breakdown) is present; chain
//	              records add FlagBase and FlagClearMonitored
//	u64 digest  — seed-independent configuration digest; decoders
//	              verify it against the expected configuration before
//	              touching the body
//
// Big-endian throughout, matching the netwide wire protocol. Bodies
// use fixed-width scalars for the configuration plane and uvarints
// for per-entry fields. Decoding is strict: every count is validated
// against the bytes that remain *before* anything is allocated, so a
// hostile length field can neither panic a decoder nor balloon its
// memory, and all failures surface as (wrapped) typed errors —
// ErrBadMagic, ErrVersion, ErrKind, ErrCorrupt, ErrConfigMismatch —
// never panics. FuzzDecodeHHHSnapshot and friends pin that contract.
//
// The digest deliberately excludes seeds and hash-function identities:
// two processes with the same window/counter/scale configuration (and
// hierarchy, for HHH records) interoperate even though their in-memory
// table layouts differ. Decoders therefore rebuild key indexes by
// re-inserting entries under their own hash functions rather than
// trusting the source's slot layout.
//
//memento:deterministic
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"memento/internal/hierarchy"
	"memento/internal/keyidx"
)

// Magic identifies a Memento snapshot record ("MSKT").
const Magic = uint32(0x4D534B54)

// Version is the current format version. Decoders reject anything
// newer; the golden-file test pins version 1 byte-for-byte so older
// readers keep working.
const Version = 1

// Record kinds. Values 1, 3, 4 and 5 are retired (a keyed sketch, a
// keyed-sketch set, a sharded checkpoint of bare KindHHH records, a
// keyed-sketch delta) and must not be reused: a decoder refuses them
// with ErrKind.
const (
	// KindHHH is a single core.HHHSnapshot record.
	KindHHH = uint8(2)
	// KindHHHDelta is an epoch-stamped replication record for an
	// H-Memento instance: either a chain base (FlagBase, embedding a
	// full KindHHH record) or an incremental delta carrying only the
	// counters that changed since the previous epoch (internal/delta).
	KindHHHDelta = uint8(6)
	// KindHHHDeltaSet is a sharded checkpoint: one KindHHHDelta blob
	// per shard, the shards' chains advancing in lockstep (shard.HHH).
	KindHHHDeltaSet = uint8(7)
)

// Flags.
const (
	// FlagRestore marks a record carrying the restore plane (block
	// ring, frame position, update breakdown) in addition to the
	// queryable state; only such records can rehydrate a live sketch.
	FlagRestore = uint16(1 << 0)

	// FlagBase marks a Kind*Delta record that starts (or restarts) a
	// chain: its body embeds a full snapshot record instead of a diff.
	FlagBase = uint16(1 << 1)
	// FlagClearMonitored marks a delta whose interval included an
	// in-frame flush (frame boundary or Reset): the applier clears the
	// monitored counter set before installing the carried entries.
	FlagClearMonitored = uint16(1 << 2)
)

// HeaderSize is the fixed encoded size of a Header.
const HeaderSize = 16

// MaxRecord bounds a single snapshot blob (64 MiB), protecting
// decoders from hostile length prefixes in set records and streams.
const MaxRecord = 1 << 26

// MaxShards bounds the shard count of a set record.
const MaxShards = 1 << 16

// Typed decode errors. Decoders wrap these with context; test with
// errors.Is.
var (
	ErrBadMagic       = errors.New("codec: bad magic")
	ErrVersion        = errors.New("codec: unsupported format version")
	ErrKind           = errors.New("codec: unexpected record kind")
	ErrCorrupt        = errors.New("codec: corrupt or truncated record")
	ErrConfigMismatch = errors.New("codec: configuration digest mismatch")
	ErrNotRestorable  = errors.New("codec: record lacks the restore plane")
)

// Corruptf wraps ErrCorrupt with context, for decoders in other
// packages that share the typed-error contract.
func Corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// Header is the fixed preamble of every record.
type Header struct {
	Version uint8
	Kind    uint8
	Flags   uint16
	Digest  uint64
}

// AppendHeader appends h in wire order.
func AppendHeader(dst []byte, h Header) []byte {
	dst = binary.BigEndian.AppendUint32(dst, Magic)
	dst = append(dst, h.Version, h.Kind)
	dst = binary.BigEndian.AppendUint16(dst, h.Flags)
	return binary.BigEndian.AppendUint64(dst, h.Digest)
}

// ReadHeader parses and validates the magic and version, returning
// the header and the remaining body bytes.
func ReadHeader(data []byte) (Header, []byte, error) {
	if len(data) < HeaderSize {
		return Header{}, nil, Corruptf("record shorter than header: %d bytes", len(data))
	}
	if binary.BigEndian.Uint32(data) != Magic {
		return Header{}, nil, ErrBadMagic
	}
	h := Header{
		Version: data[4],
		Kind:    data[5],
		Flags:   binary.BigEndian.Uint16(data[6:8]),
		Digest:  binary.BigEndian.Uint64(data[8:16]),
	}
	if h.Version == 0 || h.Version > Version {
		return Header{}, nil, fmt.Errorf("%w: %d (max %d)", ErrVersion, h.Version, Version)
	}
	return h, data[HeaderSize:], nil
}

// Digest chains seed-independent configuration fields into the header
// digest via the SplitMix64 finalizer. Field order matters; both
// sides list fields identically.
func Digest(fields ...uint64) uint64 {
	d := uint64(Magic) ^ uint64(Version)<<32
	for _, f := range fields {
		d = keyidx.Mix64(d ^ f)
	}
	return d
}

// HHHDigest is the digest of an H-Memento configuration: the hierarchy
// identity, the effective window, counter budget k, overflow threshold
// in sampled counts, and the query scale factor. Seeds and hash
// identities are deliberately absent (see the package comment).
func HHHDigest(hierID uint8, window, counters, blockCounts uint64, scale float64) uint64 {
	return Digest(uint64(hierID), window, counters, blockCounts, math.Float64bits(scale))
}

// SetDigest is the digest of a sharded checkpoint envelope; per-shard
// blobs carry their own sketch digests.
func SetDigest(kind uint8, shards int) uint64 {
	return Digest(uint64(kind), uint64(shards))
}

// Hierarchy identifiers for HHH records.
const (
	HierOneD  = uint8(1)
	HierTwoD  = uint8(2)
	HierFlows = uint8(3)
)

// HierID maps a hierarchy to its wire identifier. Unknown
// (caller-defined) hierarchies cannot be serialized.
func HierID(h hierarchy.Hierarchy) (uint8, error) {
	switch h.(type) {
	case hierarchy.OneD:
		return HierOneD, nil
	case hierarchy.TwoD:
		return HierTwoD, nil
	case hierarchy.Flows:
		return HierFlows, nil
	default:
		return 0, fmt.Errorf("codec: hierarchy %v has no wire identifier", h)
	}
}

// HierByID inverts HierID.
func HierByID(id uint8) (hierarchy.Hierarchy, error) {
	switch id {
	case HierOneD:
		return hierarchy.OneD{}, nil
	case HierTwoD:
		return hierarchy.TwoD{}, nil
	case HierFlows:
		return hierarchy.Flows{}, nil
	default:
		return nil, Corruptf("unknown hierarchy id %d", id)
	}
}

// PrefixKeys encodes the sketches' keys, hierarchy.Prefix, with a fixed
// width, which is what lets decoders bound entry counts by the bytes
// that remain: 10 bytes (src, dst, srcLen, dstLen), rejecting
// non-canonical prefixes on decode.
type PrefixKeys struct{}

// Width is the encoded size of one key in bytes.
func (PrefixKeys) Width() int { return 10 }

// AppendKey appends p's encoding to dst.
func (PrefixKeys) AppendKey(dst []byte, p hierarchy.Prefix) []byte {
	dst = binary.BigEndian.AppendUint32(dst, p.Src)
	dst = binary.BigEndian.AppendUint32(dst, p.Dst)
	return append(dst, p.SrcLen, p.DstLen)
}

// DecodeKey reads one key from the first Width() bytes of src, which
// the caller guarantees are present, and returns a wrapped ErrCorrupt
// for a key no encoder writes.
func (PrefixKeys) DecodeKey(src []byte) (hierarchy.Prefix, error) {
	if len(src) < 10 {
		return hierarchy.Prefix{}, Corruptf("prefix key needs 10 bytes, have %d", len(src))
	}
	p := hierarchy.Prefix{
		Src:    binary.BigEndian.Uint32(src),
		Dst:    binary.BigEndian.Uint32(src[4:]),
		SrcLen: src[8],
		DstLen: src[9],
	}
	if p.SrcLen > hierarchy.AddrBytes || p.DstLen > hierarchy.AddrBytes {
		return hierarchy.Prefix{}, Corruptf("prefix length out of range: /%d,/%d", p.SrcLen, p.DstLen)
	}
	if !p.Canonical() {
		return hierarchy.Prefix{}, Corruptf("non-canonical prefix %v", p)
	}
	return p, nil
}

// Cursor is a bounds-checked reader over a record body. Every read
// either succeeds or records a wrapped ErrCorrupt; callers check
// Err() once at the end of a decode section (reads after an error are
// no-ops returning zero values), which keeps decode loops linear
// instead of festooned with error returns.
type Cursor struct {
	data []byte
	off  int
	err  error
}

// NewCursor returns a cursor over data.
func NewCursor(data []byte) *Cursor { return &Cursor{data: data} }

// Err returns the first read error, nil while healthy.
func (c *Cursor) Err() error { return c.err }

// Remaining returns the unread byte count.
func (c *Cursor) Remaining() int { return len(c.data) - c.off }

// fail records the first error.
func (c *Cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = Corruptf(format, args...)
	}
}

// take returns the next n bytes, or nil after recording an error.
func (c *Cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if c.Remaining() < n {
		c.fail("need %d bytes, have %d", n, c.Remaining())
		return nil
	}
	b := c.data[c.off : c.off+n]
	c.off += n
	return b
}

// Bytes reads the next n raw bytes, returning a subslice of the
// record (not a copy) — callers that retain it must copy. n < 0 is
// recorded as corruption.
func (c *Cursor) Bytes(n int) []byte {
	if n < 0 {
		c.fail("negative byte count %d", n)
		return nil
	}
	return c.take(n)
}

// Uint64 reads a fixed-width big-endian u64.
func (c *Cursor) Uint64() uint64 {
	b := c.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Byte reads one byte.
func (c *Cursor) Byte() byte {
	b := c.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Float64 reads a float64 (IEEE bits), rejecting NaN.
func (c *Cursor) Float64() float64 {
	f := math.Float64frombits(c.Uint64())
	if c.err == nil && math.IsNaN(f) {
		c.fail("NaN float field")
		return 0
	}
	return f
}

// Rest consumes and returns every unread byte (a subslice of the
// record, not a copy). Nil after a recorded error.
func (c *Cursor) Rest() []byte { return c.take(c.Remaining()) }

// Uvarint reads an unsigned varint.
func (c *Cursor) Uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.data[c.off:])
	if n <= 0 {
		c.fail("bad uvarint at offset %d", c.off)
		return 0
	}
	c.off += n
	return v
}

// Count reads a uvarint entry count and validates it against both an
// absolute limit and the bytes that remain (each entry occupies at
// least minEntryBytes), so a hostile count can never drive an
// allocation larger than the record itself.
func (c *Cursor) Count(limit int, minEntryBytes int) int {
	v := c.Uvarint()
	if c.err != nil {
		return 0
	}
	if v > uint64(limit) {
		c.fail("count %d exceeds limit %d", v, limit)
		return 0
	}
	if minEntryBytes > 0 && v > uint64(c.Remaining()/minEntryBytes) {
		c.fail("count %d needs %d+ bytes, have %d", v, uint64(minEntryBytes)*v, c.Remaining())
		return 0
	}
	return int(v)
}

// Key reads one prefix key.
func (c *Cursor) Key() hierarchy.Prefix {
	var kc PrefixKeys
	b := c.take(kc.Width())
	if b == nil {
		return hierarchy.Prefix{}
	}
	k, err := kc.DecodeKey(b)
	if err != nil {
		if c.err == nil {
			c.err = err
		}
		return hierarchy.Prefix{}
	}
	return k
}
