// Unit tests for the format primitives; the end-to-end behavior
// (round trips, rejection, goldens) lives with the encoders in
// internal/core and internal/shard.

package codec

import (
	"errors"
	"math"
	"testing"

	"memento/internal/hierarchy"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{Version: Version, Kind: KindHHH, Flags: FlagRestore, Digest: 0xdeadbeefcafef00d}
	buf := AppendHeader(nil, h)
	if len(buf) != HeaderSize {
		t.Fatalf("header encodes to %d bytes, want %d", len(buf), HeaderSize)
	}
	got, rest, err := ReadHeader(append(buf, 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip: %+v != %+v", got, h)
	}
	if len(rest) != 3 {
		t.Fatalf("rest has %d bytes, want 3", len(rest))
	}

	if _, _, err := ReadHeader(buf[:HeaderSize-1]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short header: %v", err)
	}
	bad := append([]byte{}, buf...)
	bad[0] ^= 0xff
	if _, _, err := ReadHeader(bad); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}
	future := AppendHeader(nil, Header{Version: Version + 1, Kind: KindHHH})
	if _, _, err := ReadHeader(future); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: %v", err)
	}
	zero := AppendHeader(nil, Header{Version: 0, Kind: KindHHH})
	if _, _, err := ReadHeader(zero); !errors.Is(err, ErrVersion) {
		t.Fatalf("zero version: %v", err)
	}
}

func TestDigestDistinguishesConfigs(t *testing.T) {
	base := HHHDigest(HierOneD, 1<<12, 64, 8, 1)
	for _, other := range []uint64{
		HHHDigest(HierOneD, 1<<13, 64, 8, 1),
		HHHDigest(HierOneD, 1<<12, 128, 8, 1),
		HHHDigest(HierOneD, 1<<12, 64, 16, 1),
		HHHDigest(HierOneD, 1<<12, 64, 8, 2),
		HHHDigest(HierTwoD, 1<<12, 64, 8, 1),
	} {
		if other == base {
			t.Fatalf("digest collision: %#x", base)
		}
	}
	if HHHDigest(HierOneD, 1<<12, 64, 8, 1) != base {
		t.Fatal("digest not deterministic")
	}
	// Field order matters: swapping two equal-width fields changes it.
	if Digest(1, 2) == Digest(2, 1) {
		t.Fatal("digest ignores field order")
	}
}

func TestHierIDRoundTrip(t *testing.T) {
	for _, h := range []hierarchy.Hierarchy{hierarchy.OneD{}, hierarchy.TwoD{}, hierarchy.Flows{}} {
		id, err := HierID(h)
		if err != nil {
			t.Fatal(err)
		}
		back, err := HierByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if back.String() != h.String() {
			t.Fatalf("round trip: %v -> %d -> %v", h, id, back)
		}
	}
	if _, err := HierByID(99); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown id: %v", err)
	}
}

func TestCursorBounds(t *testing.T) {
	buf := AppendHeader(nil, Header{Version: Version, Kind: KindHHH})[:0]
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 7) // u64 = 7
	buf = append(buf, 0x85, 0x02)             // uvarint 261
	c := NewCursor(buf)
	if v := c.Uint64(); v != 7 {
		t.Fatalf("Uint64 = %d", v)
	}
	if v := c.Uvarint(); v != 261 {
		t.Fatalf("Uvarint = %d", v)
	}
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
	// Reads past the end record an error and return zero values.
	if v := c.Uint64(); v != 0 || c.Err() == nil {
		t.Fatalf("overread: v=%d err=%v", v, c.Err())
	}
	// Subsequent reads stay at the first error.
	first := c.Err()
	_ = c.Byte()
	if c.Err() != first {
		t.Fatal("error not sticky")
	}
}

func TestCursorCountBounds(t *testing.T) {
	// A count claiming more entries than the remaining bytes can back
	// is rejected before any allocation decision.
	buf := []byte{0xff, 0xff, 0x03} // uvarint 65535
	c := NewCursor(append(buf, 1, 2, 3, 4))
	if n := c.Count(1<<20, 4); n != 0 || !errors.Is(c.Err(), ErrCorrupt) {
		t.Fatalf("oversized count accepted: n=%d err=%v", n, c.Err())
	}
	// Within both bounds it passes.
	c = NewCursor(append([]byte{3}, 1, 2, 3, 4, 5, 6))
	if n := c.Count(10, 2); n != 3 || c.Err() != nil {
		t.Fatalf("valid count: n=%d err=%v", n, c.Err())
	}
	// Above the absolute limit it fails regardless of bytes.
	c = NewCursor(append([]byte{9}, make([]byte, 100)...))
	if n := c.Count(8, 1); n != 0 || c.Err() == nil {
		t.Fatalf("limit ignored: n=%d", n)
	}
}

func TestCursorFloatRejectsNaN(t *testing.T) {
	var buf []byte
	for i := 0; i < 8; i++ {
		buf = append(buf, byte(math.Float64bits(math.NaN())>>(56-8*i)))
	}
	c := NewCursor(buf)
	if v := c.Float64(); !errors.Is(c.Err(), ErrCorrupt) {
		t.Fatalf("NaN accepted: %v (err %v)", v, c.Err())
	}
}

func TestPrefixKeysValidation(t *testing.T) {
	pk := PrefixKeys{}
	p := hierarchy.Prefix{Src: hierarchy.IPv4(10, 20, 0, 0), SrcLen: 2}
	buf := pk.AppendKey(nil, p)
	if len(buf) != pk.Width() {
		t.Fatalf("encoded %d bytes, want %d", len(buf), pk.Width())
	}
	back, err := pk.DecodeKey(buf)
	if err != nil || back != p {
		t.Fatalf("round trip: %v (%v)", back, err)
	}
	// Length out of range.
	bad := append([]byte{}, buf...)
	bad[8] = 5
	if _, err := pk.DecodeKey(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad length: %v", err)
	}
	// Non-canonical bits beyond the kept bytes.
	bad = append([]byte{}, buf...)
	bad[3] = 0xff // byte 4 of src, but SrcLen is 2
	if _, err := pk.DecodeKey(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("non-canonical: %v", err)
	}
}
