// Package netwide implements the paper's network-wide measurement
// system (Section 6.3) over real TCP connections: measurement points
// (agents) embedded in load balancers sample their ingress traffic and
// report to a central controller under a per-packet bandwidth budget;
// the controller runs D-Memento / D-H-Memento over the reports and
// pushes mitigation verdicts (deny / tarpit, Section 6.4) back to the
// agents.
//
// The wire protocol is deliberately simple and self-describing:
// length-prefixed binary frames with a CRC32 trailer. Big-endian
// throughout. Every frame is
//
//	u32 length   — bytes after this field (type + payload + crc)
//	u8  type     — message type
//	... payload  — type-specific
//	u32 crc32    — IEEE CRC of type + payload
//
// Frames above MaxFrame bytes are rejected; a corrupt CRC closes the
// connection. These two rules bound memory and fail fast on framing
// bugs, per the usual discipline for binary TCP protocols.
package netwide

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"memento/internal/codec"
	"memento/internal/hierarchy"
)

// Message types.
const (
	// MsgHello introduces an agent: name, sampling parameters.
	MsgHello = byte(1)
	// MsgBatch reports covered-packet count plus sampled packets.
	MsgBatch = byte(2)
	// MsgVerdict carries mitigation actions from the controller.
	MsgVerdict = byte(3)
	// Type 4 was MsgSnapshot, a whole encoded sketch per report; a
	// delta chain carries the same state. It stays reserved and is
	// never reused: a peer that sends it is dropped like any other
	// unknown type.

	// MsgDelta ships one replication chain record (internal/delta,
	// codec KindHHHDelta): covered packet count plus either a chain
	// base embedding a full snapshot or an incremental delta carrying
	// only changed counters.
	MsgDelta = byte(5)
	// MsgResync is the controller→agent half of the chain handshake:
	// the controller detected a chain discontinuity (delta.ErrEpochGap
	// — typically a report dropped under backpressure, or a controller
	// restart) and the agent must ship a fresh base.
	MsgResync = byte(6)
	// MsgPing is an agent→controller heartbeat carrying a u64 sequence
	// number. Agents send one every HeartbeatEvery so an idle but
	// healthy connection never trips the controller's read deadline,
	// and so the agent learns about one-way partitions (writes succeed,
	// pongs stop) that a closed socket would never reveal.
	MsgPing = byte(7)
	// MsgPong is the controller's echo of a MsgPing, same payload. Its
	// arrival refreshes the agent's last-contact stamp, the input to
	// degraded-mode detection.
	MsgPong = byte(8)
	// MsgTraced is a traced report envelope: a codec.TraceContext
	// (agent id, report sequence, capture-time nanos) wrapped around a
	// MsgBatch or MsgDelta payload. Agents only send it
	// after the trace probe handshake succeeded (see traceProbeSeq), so
	// untraced v1 controllers — which drop connections on unknown frame
	// types — never see one.
	MsgTraced = byte(9)
)

// Trace probe handshake. Both sides of the protocol drop connections
// on unknown frame types, so tracing capability is negotiated over
// the one pre-existing echo channel: immediately after Hello, a
// tracing agent sends a MsgPing whose sequence number is the probe
// magic below. A v1 controller echoes it back verbatim in a MsgPong
// (its documented ping behavior) and the agent stays untraced; a
// tracing-aware controller recognizes the magic and answers with the
// ack instead, enabling MsgTraced envelopes for that connection. No
// flag day: every pairing of old and new peers interoperates.
//
// The magics sit in a high band no heartbeat ever reaches — agent
// heartbeat sequences start at 1 and increment per ping.
const (
	traceProbeSeq = uint64(0xC0DE_7A11_0000_0001)
	traceProbeAck = uint64(0xC0DE_7A11_0000_0002)
)

// MaxFrame bounds a single frame (type + payload + crc), protecting
// both sides from hostile or corrupt length prefixes.
const MaxFrame = 1 << 20

// Protocol limits.
const (
	maxName           = 255
	maxSamplesPerMsg  = 1 << 16
	maxVerdictsPerMsg = 1 << 16
)

// ErrFrameTooLarge is returned when a length prefix exceeds MaxFrame.
var ErrFrameTooLarge = errors.New("netwide: frame exceeds size limit")

// ErrBadChecksum is returned when a frame's CRC32 does not match.
var ErrBadChecksum = errors.New("netwide: bad frame checksum")

// Hello introduces an agent to the controller.
type Hello struct {
	// Name identifies the agent in diagnostics.
	Name string
	// Tau is the agent's sampling probability; the controller verifies
	// it matches its own configuration.
	Tau float64
	// Batch is the agent's samples-per-report target.
	Batch uint32
}

// Batch is one measurement report.
type Batch struct {
	// Covered is how many packets the agent observed since its last
	// report (the controller advances its window by this much).
	Covered uint64
	// Samples are the sampled packets.
	Samples []hierarchy.Packet
}

// Action is a mitigation verdict kind.
type Action uint8

// Mitigation actions mirroring the HAProxy extension's capabilities
// (Section 6.3: "perform mitigation (i.e., Deny or Tarpit)").
const (
	ActionAllow Action = iota
	ActionDeny
	ActionTarpit
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case ActionAllow:
		return "allow"
	case ActionDeny:
		return "deny"
	case ActionTarpit:
		return "tarpit"
	default:
		return fmt.Sprintf("action(%d)", uint8(a))
	}
}

// Verdict instructs agents to apply an action to a subnet.
type Verdict struct {
	// Subnet is the masked network address.
	Subnet uint32
	// PrefixBytes is the number of significant leading bytes.
	PrefixBytes uint8
	// Act is the mitigation action.
	Act Action
}

// Prefix returns the verdict's subnet as a hierarchy prefix.
func (v Verdict) Prefix() hierarchy.Prefix {
	return hierarchy.Prefix{Src: hierarchy.MaskBytes(v.Subnet, v.PrefixBytes), SrcLen: v.PrefixBytes}
}

// frameReadBuf sizes a connection's read buffer. Sampled reports are a
// few hundred bytes, so one read syscall picks up a burst of them; a
// frame larger than the buffer is read straight into the body.
const frameReadBuf = 4 << 10

// keepBuf bounds the buffers a connection keeps between frames: the
// frame reader's body and an agent's coalesced write. Reports, chain
// deltas and a control tick's burst of them fit; a chain base (≈ 60 KB
// for a 2048-counter agent) gets a buffer of its own that the collector
// takes back, so one base does not pin its size to a connection for
// life.
const keepBuf = 32 << 10

// appendFrame appends one frame carrying msgType and payload to dst.
// On error dst is returned unchanged.
func appendFrame(dst []byte, msgType byte, payload []byte) ([]byte, error) {
	start := len(dst)
	dst = append(openFrame(dst, msgType), payload...)
	return sealFrame(dst, start)
}

// openFrame appends a frame header for msgType to dst, leaving the
// length blank; the caller appends the payload and seals the frame with
// sealFrame(dst, start), where start is len(dst) before the call.
func openFrame(dst []byte, msgType byte) []byte {
	return append(dst, 0, 0, 0, 0, msgType)
}

// sealFrame completes the frame opened at dst[start:]: it fills in the
// length prefix and appends the CRC. A frame over MaxFrame is cut off
// again, and dst[:start] is returned with ErrFrameTooLarge.
func sealFrame(dst []byte, start int) ([]byte, error) {
	body := dst[start+4:]
	if len(body)+4 > MaxFrame {
		return dst[:start], ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(len(body)+4))
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(body)), nil
}

// frameReader reads the frames of one connection for its whole life,
// through a small read buffer so a burst of frames costs one read
// syscall, not two per frame. The frame body is recycled (up to
// keepBuf): a payload is valid only until the next call to next.
type frameReader struct {
	br   *bufio.Reader
	head [4]byte
	body []byte
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, frameReadBuf)}
}

// next reads one frame, returning its type and payload. The payload
// aliases the reader's body buffer and is overwritten by the next call.
func (fr *frameReader) next() (byte, []byte, error) {
	if _, err := io.ReadFull(fr.br, fr.head[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(fr.head[:])
	if n < 5 {
		return 0, nil, errors.New("netwide: short frame")
	}
	if n > MaxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	body := fr.body
	if uint32(cap(body)) < n {
		body = make([]byte, n)
		if n <= keepBuf {
			fr.body = body
		}
	}
	body = body[:n]
	if _, err := io.ReadFull(fr.br, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // a stream cut after a length prefix is not a clean end
		}
		return 0, nil, err
	}
	want := binary.BigEndian.Uint32(body[n-4:])
	if crc32.ChecksumIEEE(body[:n-4]) != want {
		return 0, nil, ErrBadChecksum
	}
	return body[0], body[1 : n-4], nil
}

// encodeHello serializes a Hello payload.
func encodeHello(h Hello) ([]byte, error) {
	if len(h.Name) > maxName {
		return nil, errors.New("netwide: agent name too long")
	}
	buf := make([]byte, 0, 1+len(h.Name)+8+4)
	buf = append(buf, byte(len(h.Name)))
	buf = append(buf, h.Name...)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(h.Tau))
	buf = binary.BigEndian.AppendUint32(buf, h.Batch)
	return buf, nil
}

// decodeHello parses a Hello payload.
func decodeHello(p []byte) (Hello, error) {
	if len(p) < 1 {
		return Hello{}, errors.New("netwide: empty hello")
	}
	n := int(p[0])
	if len(p) != 1+n+12 {
		return Hello{}, fmt.Errorf("netwide: hello length %d inconsistent", len(p))
	}
	h := Hello{Name: string(p[1 : 1+n])}
	h.Tau = math.Float64frombits(binary.BigEndian.Uint64(p[1+n : 9+n]))
	h.Batch = binary.BigEndian.Uint32(p[9+n:])
	if h.Tau <= 0 || h.Tau > 1 || math.IsNaN(h.Tau) {
		return Hello{}, fmt.Errorf("netwide: hello tau %v invalid", h.Tau)
	}
	if h.Batch == 0 {
		return Hello{}, errors.New("netwide: hello batch must be positive")
	}
	return h, nil
}

// appendBatch appends a Batch payload to dst.
func appendBatch(dst []byte, b Batch) ([]byte, error) {
	if len(b.Samples) > maxSamplesPerMsg {
		return dst, errors.New("netwide: too many samples in one report")
	}
	dst = binary.BigEndian.AppendUint64(dst, b.Covered)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b.Samples)))
	for _, s := range b.Samples {
		dst = binary.BigEndian.AppendUint32(dst, s.Src)
		dst = binary.BigEndian.AppendUint32(dst, s.Dst)
	}
	return dst, nil
}

// decodeBatch parses a Batch payload, decoding its samples into
// scratch (reused when large enough): the batch is valid until scratch
// is reused.
func decodeBatch(p []byte, scratch []hierarchy.Packet) (Batch, error) {
	if len(p) < 12 {
		return Batch{}, errors.New("netwide: batch too short")
	}
	b := Batch{Covered: binary.BigEndian.Uint64(p[0:8])}
	n := binary.BigEndian.Uint32(p[8:12])
	if n > maxSamplesPerMsg {
		return Batch{}, errors.New("netwide: sample count exceeds limit")
	}
	if len(p) != 12+int(n)*8 {
		return Batch{}, fmt.Errorf("netwide: batch length %d inconsistent with %d samples", len(p), n)
	}
	if uint64(n) > b.Covered {
		return Batch{}, fmt.Errorf("netwide: %d samples exceed %d covered packets", n, b.Covered)
	}
	b.Samples = slices.Grow(scratch[:0], int(n))[:n]
	for i := range b.Samples {
		off := 12 + i*8
		b.Samples[i] = hierarchy.Packet{
			Src: binary.BigEndian.Uint32(p[off : off+4]),
			Dst: binary.BigEndian.Uint32(p[off+4 : off+8]),
		}
	}
	return b, nil
}

// encodeVerdicts serializes a verdict list.
func encodeVerdicts(vs []Verdict) ([]byte, error) {
	if len(vs) > maxVerdictsPerMsg {
		return nil, errors.New("netwide: too many verdicts in one message")
	}
	buf := make([]byte, 0, 4+6*len(vs))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(vs)))
	for _, v := range vs {
		buf = binary.BigEndian.AppendUint32(buf, v.Subnet)
		buf = append(buf, v.PrefixBytes, byte(v.Act))
	}
	return buf, nil
}

// decodeVerdicts parses a verdict list.
func decodeVerdicts(p []byte) ([]Verdict, error) {
	if len(p) < 4 {
		return nil, errors.New("netwide: verdict frame too short")
	}
	n := binary.BigEndian.Uint32(p[0:4])
	if n > maxVerdictsPerMsg {
		return nil, errors.New("netwide: verdict count exceeds limit")
	}
	if len(p) != 4+int(n)*6 {
		return nil, fmt.Errorf("netwide: verdict length %d inconsistent with %d entries", len(p), n)
	}
	out := make([]Verdict, n)
	for i := range out {
		off := 4 + i*6
		out[i] = Verdict{
			Subnet:      binary.BigEndian.Uint32(p[off : off+4]),
			PrefixBytes: p[off+4],
			Act:         Action(p[off+5]),
		}
		if out[i].PrefixBytes > hierarchy.AddrBytes {
			return nil, fmt.Errorf("netwide: verdict prefix length %d invalid", out[i].PrefixBytes)
		}
		if out[i].Act > ActionTarpit {
			return nil, fmt.Errorf("netwide: unknown action %d", out[i].Act)
		}
	}
	return out, nil
}

// encodePing serializes a MsgPing/MsgPong payload: the u64 sequence
// number, nothing else.
func encodePing(seq uint64) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], seq)
	return buf[:]
}

// decodePing parses a MsgPing/MsgPong payload. Strict: exactly eight
// bytes, like every other fixed-layout payload in the protocol.
func decodePing(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("netwide: ping payload length %d, want 8", len(p))
	}
	return binary.BigEndian.Uint64(p), nil
}

// DeltaReport is one decoded MsgDelta payload. The chain record is
// left encoded: applying it to the per-agent delta.State — which
// validates header, digest, epoch and every entry strictly — is the
// decode.
type DeltaReport struct {
	// Covered is the cumulative number of packets the agent has
	// observed: a running total, so a record lost in flight costs the
	// coverage ledger nothing once a later one lands.
	Covered uint64
	// Record is the KindHHHDelta chain record (a subslice of the frame
	// payload; consumed before the next frame is read).
	Record []byte
}

// encodeDeltaReport serializes a MsgDelta payload into buf (reused
// when large enough): the covered count followed by the chain record.
func encodeDeltaReport(covered uint64, record, buf []byte) ([]byte, error) {
	buf = binary.BigEndian.AppendUint64(buf[:0], covered)
	buf = append(buf, record...)
	if len(buf)+5 > MaxFrame {
		return nil, fmt.Errorf("%w: %d-byte chain record (size the local sketch to fit)",
			ErrFrameTooLarge, len(buf))
	}
	return buf, nil
}

// decodeDeltaReport parses a MsgDelta payload's framing. The embedded
// chain record is validated by delta.State.Apply.
func decodeDeltaReport(p []byte) (DeltaReport, error) {
	if len(p) < 8+codec.HeaderSize {
		return DeltaReport{}, errors.New("netwide: delta report too short")
	}
	return DeltaReport{Covered: binary.BigEndian.Uint64(p[:8]), Record: p[8:]}, nil
}

// traceable reports whether a message type is a report, the only
// payload a MsgTraced envelope may carry.
func traceable(typ byte) bool { return typ == MsgBatch || typ == MsgDelta }

// appendTracedHead appends the head of a MsgTraced payload to dst: the
// inner message type and the trace context. The inner payload follows
// it verbatim; sealFrame bounds the whole.
func appendTracedHead(dst []byte, inner byte, tc codec.TraceContext) ([]byte, error) {
	if !traceable(inner) {
		return dst, fmt.Errorf("netwide: message type %d cannot be traced", inner)
	}
	return codec.AppendTraceContext(append(dst, inner), tc), nil
}

// decodeTracedReport parses a MsgTraced payload, returning the inner
// message type, the trace context and the inner payload (a subslice
// of p). Strict: only report types may be traced, and the context
// must be well-formed; the inner payload is validated by the decoder
// for its own type.
func decodeTracedReport(p []byte) (byte, codec.TraceContext, []byte, error) {
	if len(p) < 1 {
		return 0, codec.TraceContext{}, nil, errors.New("netwide: empty traced report")
	}
	inner := p[0]
	if !traceable(inner) {
		return 0, codec.TraceContext{}, nil, fmt.Errorf("netwide: traced inner type %d invalid", inner)
	}
	tc, rest, err := codec.DecodeTraceContext(p[1:])
	if err != nil {
		return 0, codec.TraceContext{}, nil, fmt.Errorf("netwide: traced report: %w", err)
	}
	if len(tc.AgentID) > maxName {
		return 0, codec.TraceContext{}, nil, fmt.Errorf("netwide: traced agent id %d bytes exceeds limit", len(tc.AgentID))
	}
	return inner, tc, rest, nil
}

// Params are the deployment constants shared by agents and controller,
// mirroring the analysis model (Section 5.2): the sampling rate is
// derived from the bandwidth budget exactly as τ = B·b/(O + E·b).
type Params struct {
	// Budget is B, bytes of control traffic allowed per ingress packet.
	Budget float64
	// OverheadBytes is O (default 64).
	OverheadBytes float64
	// SampleBytes is E (default 4; 8 for 2D hierarchies).
	SampleBytes float64
	// BatchSize is b, samples per report (1 = the Sample method).
	BatchSize int
	// Window is W, the network-wide window in packets.
	Window int
}

// Normalize fills defaults and validates.
func (p *Params) Normalize(dims int) error {
	if p.Budget <= 0 {
		return errors.New("netwide: budget must be positive")
	}
	if p.OverheadBytes == 0 {
		p.OverheadBytes = 64
	}
	if p.SampleBytes == 0 {
		if dims == 2 {
			p.SampleBytes = 8
		} else {
			p.SampleBytes = 4
		}
	}
	if p.BatchSize <= 0 {
		p.BatchSize = 1
	}
	if p.BatchSize > maxSamplesPerMsg {
		// Every report would fail encodeBatch, after a Hello the
		// controller accepts.
		return fmt.Errorf("netwide: batch size %d exceeds the %d samples a report carries", p.BatchSize, maxSamplesPerMsg)
	}
	if p.Window <= 0 {
		return errors.New("netwide: window must be positive")
	}
	return nil
}

// Tau returns the budget-implied sampling probability.
func (p Params) Tau() float64 {
	tau := p.Budget * float64(p.BatchSize) / (p.OverheadBytes + p.SampleBytes*float64(p.BatchSize))
	if tau > 1 {
		return 1
	}
	return tau
}
