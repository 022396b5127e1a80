package netwide

import (
	"io"
	"net"
	"testing"
	"time"

	"memento/internal/hierarchy"
	"memento/internal/rng"
)

// frameStream is a net.Conn that serves one agent's Hello, then left
// more bytes cut from a block of frames replayed end to end, then EOF.
// Only the methods the controller's handler calls on a report stream
// are implemented.
type frameStream struct {
	net.Conn
	cur   []byte
	block []byte
	left  int
}

func (s *frameStream) Read(p []byte) (int, error) {
	if s.left == 0 {
		return 0, io.EOF
	}
	if len(s.cur) == 0 {
		s.cur = s.block
	}
	n := copy(p[:min(len(p), s.left)], s.cur)
	s.cur, s.left = s.cur[n:], s.left-n
	return n, nil
}

func (s *frameStream) Close() error                    { return nil }
func (s *frameStream) RemoteAddr() net.Addr            { return &net.TCPAddr{} }
func (s *frameStream) SetReadDeadline(time.Time) error { return nil }

// BenchmarkControllerBatchFrames pushes sampled report frames, as the
// fleet-sampled-flood benchmark's agents ship them (b = 44, a flood
// mixed into uniform traffic), through the controller's connection
// handler: frame read, decodeBatch, ledger and absorb. One op is one
// frame. The frames are replayed from one recycled block, so every
// allocation counted is the handler's own.
func BenchmarkControllerBatchFrames(b *testing.B) {
	params := Params{Budget: 1, BatchSize: 44, Window: 1 << 20}
	if err := params.Normalize(1); err != nil {
		b.Fatal(err)
	}
	ctrl, err := NewController(ControllerConfig{Hier: hierarchy.OneD{}, Params: params, Counters: 4096, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	defer ctrl.Close()
	hello, err := encodeHello(Hello{Name: "agent-0", Tau: params.Tau(), Batch: uint32(params.BatchSize)})
	if err != nil {
		b.Fatal(err)
	}
	helloFrame, err := appendFrame(nil, MsgHello, hello)
	if err != nil {
		b.Fatal(err)
	}

	src := rng.New(11)
	var block []byte
	frameLen := 0
	for f := 0; f < 64; f++ {
		batch := Batch{Covered: uint64(float64(params.BatchSize) / params.Tau())}
		for i := 0; i < params.BatchSize; i++ {
			p := hierarchy.Packet{Src: uint32(src.Uint64())}
			if i%3 == 0 {
				p.Src = hierarchy.IPv4(10, byte(src.Intn(4)), byte(src.Uint64()), byte(src.Uint64()))
			}
			batch.Samples = append(batch.Samples, p)
		}
		payload, err := appendBatch(nil, batch)
		if err != nil {
			b.Fatal(err)
		}
		start := len(block)
		if block, err = appendFrame(block, MsgBatch, payload); err != nil {
			b.Fatal(err)
		}
		frameLen = len(block) - start
	}

	// Each run is one agent connection: the Hello, then frames frames.
	run := func(frames int) {
		ctrl.wg.Add(1)
		ctrl.handle(&frameStream{cur: helloFrame, block: block, left: len(helloFrame) + frames*frameLen})
	}
	const warm = 1 << 13 // the sketch's tables grow to size on first use
	run(warm)
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
	b.StopTimer()
	if got := ctrl.Reports(); got != uint64(warm+b.N) {
		b.Fatalf("controller absorbed %d reports from %d frames", got, warm+b.N)
	}
}
