package codec

import (
	"errors"
	"testing"

	"memento/internal/hierarchy"
)

// TestDecodersRejectEveryTruncation feeds every proper prefix of a
// valid encoding to each exported decoder: each must return
// ErrCorrupt, never panic. A prefix is its own slice (length =
// capacity), so a length guard that admits fewer bytes than the
// decoder then reads panics here even where no caller can hand it
// such a buffer today.
func TestDecodersRejectEveryTruncation(t *testing.T) {
	prefix := hierarchy.Prefix{Src: hierarchy.IPv4(10, 20, 0, 0), SrcLen: 2, Dst: hierarchy.IPv4(192, 168, 7, 0), DstLen: 3}
	cases := []struct {
		name   string
		enc    []byte
		decode func([]byte) error
	}{
		{"ReadHeader", AppendHeader(nil, Header{Version: Version, Kind: KindHHH, Flags: FlagRestore, Digest: 0xdeadbeefcafef00d}),
			func(b []byte) error { _, _, err := ReadHeader(b); return err }},
		{"PrefixKeys.DecodeKey", PrefixKeys{}.AppendKey(nil, prefix),
			func(b []byte) error { _, err := PrefixKeys{}.DecodeKey(b); return err }},
		{"DecodeTraceContext", AppendTraceContext(nil, TraceContext{AgentID: "agent-7", Seq: 42, CaptureNanos: 1_700_000_000_000_000_000}),
			func(b []byte) error { _, _, err := DecodeTraceContext(b); return err }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.decode(c.enc); err != nil {
				t.Fatalf("full %d-byte encoding: %v", len(c.enc), err)
			}
			for n := 0; n < len(c.enc); n++ {
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%d-byte prefix panics: %v", n, r)
						}
					}()
					if err := c.decode(append([]byte(nil), c.enc[:n]...)); !errors.Is(err, ErrCorrupt) {
						t.Errorf("%d-byte prefix: err = %v, want ErrCorrupt", n, err)
					}
				}()
			}
		})
	}
}
