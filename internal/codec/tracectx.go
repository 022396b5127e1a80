// TraceContext: the optional report-tracing envelope carried in front
// of network-wide report frames (DESIGN.md §11). An agent that has
// negotiated tracing stamps every report with its identity, a
// monotone per-agent report sequence number and the capture-time
// clock reading; the controller completes the span at apply time into
// capture→apply latency histograms and per-agent freshness gauges.
//
// Wire layout (big-endian, fixed width except the name):
//
//	u8  len  — agent id length (1..MaxTraceAgent)
//	...      — agent id bytes
//	u64 seq  — per-agent report sequence number
//	u64 ns   — capture time, unix nanoseconds (int64 bits)
//
// The context is versionless on purpose: whether it is present at all
// is negotiated per connection (the trace probe handshake in
// internal/netwide), so untraced v1 peers never see these bytes.

package codec

import "encoding/binary"

// MaxTraceAgent bounds the agent id carried in a trace context,
// matching the netwide Hello name limit.
const MaxTraceAgent = 255

// TraceContext identifies one report capture: which agent, which
// report in its sequence, and when the enclosed state was captured.
type TraceContext struct {
	AgentID      string
	Seq          uint64
	CaptureNanos int64
}

// AppendTraceContext appends tc in wire order. Agent ids longer than
// MaxTraceAgent are truncated (the caller validates at handshake
// time; truncation keeps Append infallible for hot paths).
func AppendTraceContext(dst []byte, tc TraceContext) []byte {
	id := tc.AgentID
	if len(id) > MaxTraceAgent {
		id = id[:MaxTraceAgent]
	}
	dst = append(dst, byte(len(id)))
	dst = append(dst, id...)
	dst = binary.BigEndian.AppendUint64(dst, tc.Seq)
	return binary.BigEndian.AppendUint64(dst, uint64(tc.CaptureNanos))
}

// DecodeTraceContext reads one context from the front of p and
// returns it together with the remaining bytes (the enclosed report
// payload). Strict: short inputs and empty agent ids are ErrCorrupt.
func DecodeTraceContext(p []byte) (TraceContext, []byte, error) {
	c := NewCursor(p)
	n := int(c.Byte())
	if c.Err() == nil && n == 0 {
		return TraceContext{}, nil, Corruptf("trace context: empty agent id")
	}
	tc := TraceContext{AgentID: string(c.Bytes(n))}
	tc.Seq = c.Uint64()
	tc.CaptureNanos = int64(c.Uint64())
	if err := c.Err(); err != nil {
		return TraceContext{}, nil, Corruptf("trace context: %v", err)
	}
	return tc, c.Rest(), nil
}
