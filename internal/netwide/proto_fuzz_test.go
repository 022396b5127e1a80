// Fuzz targets for the wire-protocol decoders: adversarial inputs
// must never panic, and every allocation a decoder makes must be
// bounded by the input's own size (length fields are validated
// against the bytes actually present before anything is allocated).

package netwide

import (
	"bytes"
	"io"
	"math"
	"testing"
	"testing/iotest"

	"memento/internal/codec"
	"memento/internal/core"
	"memento/internal/delta"
	"memento/internal/hierarchy"
	"memento/internal/rng"
)

func FuzzDecodeHello(f *testing.F) {
	if p, err := encodeHello(Hello{Name: "lb-7", Tau: 0.0625, Batch: 16}); err == nil {
		f.Add(p)
	}
	f.Add([]byte{})
	f.Add([]byte{255})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := decodeHello(data)
		if err != nil {
			return
		}
		// Accepted hellos satisfy the documented invariants.
		if len(h.Name) > maxName {
			t.Fatalf("accepted %d-byte name", len(h.Name))
		}
		if !(h.Tau > 0 && h.Tau <= 1) {
			t.Fatalf("accepted tau %v", h.Tau)
		}
		if h.Batch == 0 {
			t.Fatal("accepted zero batch")
		}
		// Round trip is stable.
		p, err := encodeHello(h)
		if err != nil {
			t.Fatalf("re-encode of accepted hello failed: %v", err)
		}
		h2, err := decodeHello(p)
		if err != nil || h2 != h {
			t.Fatalf("round trip changed hello: %+v vs %+v (%v)", h2, h, err)
		}
	})
}

func FuzzDecodeBatch(f *testing.F) {
	if p, err := appendBatch(nil, Batch{Covered: 100, Samples: []hierarchy.Packet{{Src: 1, Dst: 2}}}); err == nil {
		f.Add(p)
	}
	f.Add([]byte{})
	f.Add(make([]byte, 12))
	for _, covered := range []uint64{1 << 62, math.MaxUint64} { // hostile: a slide no loop finishes
		if p, err := appendBatch(nil, Batch{Covered: covered, Samples: []hierarchy.Packet{{Src: 3}}}); err == nil {
			f.Add(p)
		}
	}
	ctrl, err := NewController(ControllerConfig{
		Hier: hierarchy.OneD{}, Params: Params{Budget: 1, Window: 1 << 8}, Counters: 40,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decodeBatch(data, nil)
		if err != nil {
			return
		}
		// Whatever decodes must absorb in bounded time: Covered is
		// unchecked beyond samples ≤ Covered, and absorb holds the
		// controller's ingest lock.
		ctrl.absorb(b)
		// The sample slice is the only allocation and must be fully
		// backed by input bytes: n samples require exactly 12+8n bytes.
		if len(b.Samples)*8+12 != len(data) {
			t.Fatalf("accepted %d samples from %d bytes", len(b.Samples), len(data))
		}
		if uint64(len(b.Samples)) > b.Covered {
			t.Fatalf("accepted %d samples covering %d packets", len(b.Samples), b.Covered)
		}
	})
}

func FuzzDecodeVerdicts(f *testing.F) {
	if p, err := encodeVerdicts([]Verdict{{Subnet: 0x0a000000, PrefixBytes: 1, Act: ActionDeny}}); err == nil {
		f.Add(p)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		vs, err := decodeVerdicts(data)
		if err != nil {
			return
		}
		if len(vs)*6+4 != len(data) {
			t.Fatalf("accepted %d verdicts from %d bytes", len(vs), len(data))
		}
		for _, v := range vs {
			if v.PrefixBytes > hierarchy.AddrBytes || v.Act > ActionTarpit {
				t.Fatalf("accepted invalid verdict %+v", v)
			}
		}
	})
}

func FuzzDecodeDeltaReport(f *testing.F) {
	// A real chain base and delta seed the corpus; the framing decoder
	// is thin, the applied-state pipeline behind it is what must never
	// panic on whatever the framing admits.
	hh := core.MustNewHHH(core.HHHConfig{Hierarchy: hierarchy.OneD{}, Window: 1 << 8, Counters: 16 * 5, Seed: 7})
	tr, err := delta.NewTracker(hh, delta.TrackerConfig{Chain: 3})
	if err != nil {
		f.Fatal(err)
	}
	src := rng.New(8)
	step := func() []byte {
		for i := 0; i < 1<<9; i++ {
			hh.Update(hierarchy.Packet{Src: uint32(src.Intn(64))})
		}
		record, _, err := tr.Append(nil)
		if err != nil {
			f.Fatal(err)
		}
		frame, err := encodeDeltaReport(1<<9, record, nil)
		if err != nil {
			f.Fatal(err)
		}
		return frame
	}
	f.Add(step())
	f.Add(step())
	f.Add([]byte{})
	f.Add(make([]byte, 8))
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := decodeDeltaReport(data)
		if err != nil {
			return
		}
		st := delta.NewState()
		if st.Apply(rep.Record) == nil {
			if snap, err := st.Snapshot(); err == nil {
				_ = snap.Query(hierarchy.Prefix{Src: 1, SrcLen: 4})
				_ = outputOf(snap, 0.1)
			}
		}
	})
}

func FuzzDecodePing(f *testing.F) {
	f.Add(encodePing(0))
	f.Add(encodePing(^uint64(0)))
	f.Add([]byte{})
	f.Add(make([]byte, 7))
	f.Add(make([]byte, 9))
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, err := decodePing(data)
		if err != nil {
			return
		}
		// The payload is a strict fixed-width integer: anything
		// accepted must round-trip bit-for-bit.
		if len(data) != 8 {
			t.Fatalf("accepted %d-byte ping", len(data))
		}
		rt := encodePing(seq)
		for i := range rt {
			if rt[i] != data[i] {
				t.Fatalf("round trip changed ping: % x vs % x", rt, data)
			}
		}
	})
}

// FuzzDecodeTracedReport covers the MsgTraced envelope a v2 peer
// wraps around report payloads after probe negotiation. A v1 peer
// never sees one (it would drop the unknown frame type), so the
// decoder's job is purely defensive: reject junk without panicking,
// and accept only envelopes whose inner type is a report and whose
// trace context round-trips exactly.
func FuzzDecodeTracedReport(f *testing.F) {
	inner, err := appendBatch(nil, Batch{Covered: 64, Samples: []hierarchy.Packet{{Src: 1, Dst: 2}}})
	if err != nil {
		f.Fatal(err)
	}
	tc := codec.TraceContext{AgentID: "edge-1", Seq: 7, CaptureNanos: 1 << 40}
	if wire, err := appendTracedHead(nil, MsgBatch, tc); err == nil {
		f.Add(append(wire, inner...))
	}
	if wire, err := appendTracedHead(nil, MsgDelta, codec.TraceContext{AgentID: "x"}); err == nil {
		f.Add(wire)
		// The same envelope around the retired snapshot type 4.
		f.Add(append([]byte{4}, wire[1:]...))
	}
	f.Add([]byte{})
	f.Add([]byte{MsgHello, 0})
	f.Add([]byte{MsgBatch})
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, got, payload, err := decodeTracedReport(data)
		if err != nil {
			return
		}
		switch typ {
		case MsgBatch, MsgDelta:
		default:
			t.Fatalf("accepted untraceable inner type %d", typ)
		}
		if got.AgentID == "" || len(got.AgentID) > maxName {
			t.Fatalf("accepted agent id %q", got.AgentID)
		}
		// The accepted envelope re-encodes to the identical wire form.
		rt, err := appendTracedHead(nil, typ, got)
		rt = append(rt, payload...)
		if err != nil {
			t.Fatalf("re-encode of accepted traced report failed: %v", err)
		}
		if string(rt) != string(data) {
			t.Fatalf("round trip changed envelope: % x vs % x", rt, data)
		}
	})
}

// FuzzFrameStream feeds arbitrary bytes to a connection's frame reader:
// it must never panic, never hold a body past MaxFrame, and a stream
// that reads cleanly to EOF must re-encode, frame by frame, to exactly
// the input bytes. The seeds are valid streams and must decode as the
// frames they were built from.
func FuzzFrameStream(f *testing.F) {
	type frame struct {
		typ     byte
		payload []byte
	}
	ping := encodePing(9)
	batch, _ := appendBatch(nil, Batch{Covered: 300, Samples: []hierarchy.Packet{{Src: 1}, {Src: 2, Dst: 3}}})
	verdicts, _ := encodeVerdicts([]Verdict{{Subnet: 0x0a000000, PrefixBytes: 1, Act: ActionDeny}})
	seeds := [][]frame{
		{{MsgPing, ping}},
		{{MsgBatch, batch}, {MsgBatch, batch}, {MsgPong, ping}, {MsgResync, nil}},
		{{MsgVerdict, verdicts}, {MsgBatch, make([]byte, 2*frameReadBuf)}, {MsgPing, ping}},
	}
	for _, frames := range seeds {
		var stream []byte
		for _, fr := range frames {
			stream, _ = appendFrame(stream, fr.typ, fr.payload)
		}
		r := newFrameReader(bytes.NewReader(stream))
		for i, want := range frames {
			typ, got, err := r.next()
			if err != nil || typ != want.typ || !bytes.Equal(got, want.payload) {
				f.Fatalf("seed frame %d: type %d, %d bytes, %v; want type %d, %d bytes",
					i, typ, len(got), err, want.typ, len(want.payload))
			}
		}
		if _, _, err := r.next(); err != io.EOF {
			f.Fatalf("seed stream: %v after its last frame, want io.EOF", err)
		}
		f.Add(stream)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 4, MsgPing})
	f.Add([]byte{0, 0, 0x30, 0x30}) // a length prefix and nothing behind it
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var src io.Reader = bytes.NewReader(data)
		if len(data)%2 == 1 {
			src = iotest.HalfReader(src)
		}
		r := newFrameReader(src)
		var again []byte
		for {
			typ, payload, err := r.next()
			if cap(r.body) > MaxFrame {
				t.Fatalf("frame body grew to %d bytes, past MaxFrame", cap(r.body))
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				return
			}
			if again, err = appendFrame(again, typ, payload); err != nil {
				t.Fatalf("re-encode of a decoded frame: %v", err)
			}
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("clean stream of %d bytes re-encodes to %d different bytes", len(data), len(again))
		}
	})
}

// outputOf is the HHH set of snap alone at threshold theta: a
// SnapshotSet over the one member at weight 1.
func outputOf(snap *core.HHHSnapshot, theta float64) []core.HeavyPrefix {
	var set core.SnapshotSet
	set.Reset([]*core.HHHSnapshot{snap}, []float64{1})
	return set.Output(snap.Hierarchy(), theta*float64(snap.EffectiveWindow()), snap.Compensation(), nil)
}
