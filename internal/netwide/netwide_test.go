package netwide

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net"
	"slices"
	"testing"
	"testing/iotest"
	"time"

	"memento/internal/core"
	"memento/internal/hhhset"
	"memento/internal/hierarchy"
	"memento/internal/rng"
	"memento/internal/trace"
)

// sendFrame writes one frame to w in one write.
func sendFrame(w io.Writer, msgType byte, payload []byte) error {
	frame, err := appendFrame(nil, msgType, payload)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5}
	frame, err := appendFrame(nil, MsgBatch, payload)
	if err != nil {
		t.Fatal(err)
	}
	typ, got, err := newFrameReader(bytes.NewReader(frame)).next()
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgBatch || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: type=%d payload=%v", typ, got)
	}
}

func TestFrameCorruptionDetected(t *testing.T) {
	raw, err := appendFrame(nil, MsgBatch, []byte("hello world"))
	if err != nil {
		t.Fatal(err)
	}
	raw[7] ^= 0xff // flip a payload byte
	if _, _, err := newFrameReader(bytes.NewReader(raw)).next(); err != ErrBadChecksum {
		t.Fatalf("corrupted frame: err = %v, want ErrBadChecksum", err)
	}
}

func TestFrameSizeLimit(t *testing.T) {
	var head [4]byte
	binary.BigEndian.PutUint32(head[:], MaxFrame+1)
	if _, _, err := newFrameReader(bytes.NewReader(head[:])).next(); err != ErrFrameTooLarge {
		t.Fatalf("oversized frame: err = %v", err)
	}
	dst := []byte("kept")
	out, err := appendFrame(dst, MsgBatch, make([]byte, MaxFrame))
	if err != ErrFrameTooLarge {
		t.Fatalf("oversized write: err = %v", err)
	}
	if string(out) != "kept" {
		t.Fatalf("oversized write left %d bytes in dst, want the 4 it had", len(out))
	}
}

// TestFrameStreamSegments: frames coalesced into one buffer come back
// one by one, identical, however the reads segment the stream; a
// corrupt frame fails at exactly that frame; and a payload held across
// the next read is overwritten — the reader's lifetime contract.
func TestFrameStreamSegments(t *testing.T) {
	src := rng.New(7)
	type frame struct {
		typ     byte
		payload []byte
	}
	var frames []frame
	var stream []byte
	var ends []int
	for i := 0; i < 300; i++ {
		n := src.Intn(600)
		if i%50 == 7 {
			n = 3*frameReadBuf + 5 // larger than the read buffer
		}
		p := make([]byte, n)
		for j := range p {
			p[j] = byte(src.Uint64())
		}
		f := frame{typ: byte(1 + src.Intn(9)), payload: p}
		frames = append(frames, f)
		var err error
		if stream, err = appendFrame(stream, f.typ, f.payload); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, len(stream))
	}
	readers := map[string]func([]byte) io.Reader{
		"whole":   func(b []byte) io.Reader { return bytes.NewReader(b) },
		"onebyte": func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) },
		"half":    func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) },
	}
	for name, wrap := range readers {
		fr := newFrameReader(wrap(stream))
		for i, want := range frames {
			typ, got, err := fr.next()
			if err != nil {
				t.Fatalf("%s: frame %d: %v", name, i, err)
			}
			if typ != want.typ || !bytes.Equal(got, want.payload) {
				t.Fatalf("%s: frame %d came back as type %d, %d bytes; want type %d, %d bytes",
					name, i, typ, len(got), want.typ, len(want.payload))
			}
		}
		if _, _, err := fr.next(); err != io.EOF {
			t.Fatalf("%s: after the last frame: %v, want io.EOF", name, err)
		}

		// Corrupt one payload byte of frame bad: every frame before it
		// reads clean, and it fails with ErrBadChecksum.
		const bad = 123
		corrupt := slices.Clone(stream)
		corrupt[ends[bad-1]+5] ^= 0x40
		fr = newFrameReader(wrap(corrupt))
		for i := 0; i < bad; i++ {
			if _, _, err := fr.next(); err != nil {
				t.Fatalf("%s: frame %d before the corrupt one: %v", name, i, err)
			}
		}
		if _, _, err := fr.next(); err != ErrBadChecksum {
			t.Fatalf("%s: corrupt frame %d: err = %v, want ErrBadChecksum", name, bad, err)
		}
	}

	// Lifetime: two same-sized frames; the first payload, held across
	// the second read, now reads as the second.
	a, b := []byte("first payload"), []byte("other payload")
	two, _ := appendFrame(nil, MsgBatch, a)
	two, _ = appendFrame(two, MsgBatch, b)
	fr := newFrameReader(bytes.NewReader(two))
	_, held, err := fr.next()
	if err != nil || !bytes.Equal(held, a) {
		t.Fatalf("first frame: %q, %v", held, err)
	}
	if _, _, err := fr.next(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(held, b) {
		t.Fatalf("held payload reads %q after the next read; the body buffer is not recycled", held)
	}
}

func TestHelloCodec(t *testing.T) {
	in := Hello{Name: "lb-7", Tau: 0.015625, Batch: 44}
	p, err := encodeHello(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeHello(p)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
	// Malformed variants.
	for _, bad := range [][]byte{
		nil,
		{5},          // truncated name
		p[:len(p)-1], // truncated tail
		append(p, 0), // trailing junk
	} {
		if _, err := decodeHello(bad); err == nil {
			t.Fatalf("decodeHello(%v) should fail", bad)
		}
	}
	if _, err := encodeHello(Hello{Name: string(make([]byte, 300))}); err == nil {
		t.Fatal("over-long name should fail")
	}
	// Invalid tau.
	badTau, _ := encodeHello(Hello{Name: "x", Tau: 0.5, Batch: 1})
	binary.BigEndian.PutUint64(badTau[2:], math.Float64bits(1.5))
	if _, err := decodeHello(badTau); err == nil {
		t.Fatal("tau > 1 should fail")
	}
}

func TestBatchCodec(t *testing.T) {
	in := Batch{
		Covered: 1000,
		Samples: []hierarchy.Packet{{Src: 1, Dst: 2}, {Src: 0xffffffff, Dst: 0}},
	}
	p, err := appendBatch(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeBatch(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Covered != in.Covered || len(out.Samples) != 2 ||
		out.Samples[0] != in.Samples[0] || out.Samples[1] != in.Samples[1] {
		t.Fatalf("round trip: %+v", out)
	}
	// Sample count exceeding covered packets is nonsense.
	evil, _ := appendBatch(nil, Batch{Covered: 1, Samples: in.Samples})
	if _, err := decodeBatch(evil, nil); err == nil {
		t.Fatal("samples > covered should fail")
	}
	if _, err := decodeBatch(p[:len(p)-3], nil); err == nil {
		t.Fatal("truncated batch should fail")
	}
}

func TestVerdictCodec(t *testing.T) {
	in := []Verdict{
		{Subnet: hierarchy.IPv4(10, 0, 0, 0), PrefixBytes: 1, Act: ActionDeny},
		{Subnet: hierarchy.IPv4(20, 30, 0, 0), PrefixBytes: 2, Act: ActionTarpit},
	}
	p, err := encodeVerdicts(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeVerdicts(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("round trip: %+v", out)
	}
	// Invalid prefix length and action must be rejected.
	bad, _ := encodeVerdicts([]Verdict{{Subnet: 1, PrefixBytes: 9, Act: ActionDeny}})
	if _, err := decodeVerdicts(bad); err == nil {
		t.Fatal("prefix length 9 should fail")
	}
	bad2, _ := encodeVerdicts([]Verdict{{Subnet: 1, PrefixBytes: 1, Act: Action(7)}})
	if _, err := decodeVerdicts(bad2); err == nil {
		t.Fatal("unknown action should fail")
	}
}

func TestParamsTau(t *testing.T) {
	p := Params{Budget: 1, OverheadBytes: 64, SampleBytes: 4, BatchSize: 44, Window: 1000}
	want := 44.0 / 240
	if got := p.Tau(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Tau = %v, want %v", got, want)
	}
	p.Budget = 1e9
	if p.Tau() != 1 {
		t.Fatal("tau must cap at 1")
	}
}

// startController spins up a controller on a loopback listener.
func startController(t *testing.T, params Params, counters int) (*Controller, string) {
	t.Helper()
	c, err := NewController(ControllerConfig{
		Hier:     hierarchy.OneD{},
		Params:   params,
		Counters: counters,
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go c.Serve(ln)
	t.Cleanup(func() { c.Close() })
	return c, ln.Addr().String()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestEndToEndReporting(t *testing.T) {
	params := Params{Budget: 4, BatchSize: 10, Window: 1 << 14}
	ctrl, addr := startController(t, params, 2048)

	const agents = 4
	var as []*Agent
	for i := 0; i < agents; i++ {
		a, err := DialAgent(addr, AgentConfig{
			Name: string(rune('a' + i)), Params: params, Seed: uint64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		as = append(as, a)
	}
	waitFor(t, "agents to join", func() bool { return ctrl.Agents() == agents })

	// Drive a heavy /8 plus noise through all agents.
	gen := trace.MustNewGenerator(trace.Backbone, 3)
	src := rng.New(4)
	const n = 200000
	heavyCount := 0
	for i := 0; i < n; i++ {
		p := gen.Next()
		if src.Float64() < 0.3 {
			p.Src = hierarchy.IPv4(10, byte(src.Uint32()), byte(src.Uint32()), byte(src.Uint32()))
			heavyCount++
		}
		as[i%agents].Observe(p)
	}
	for _, a := range as {
		if a.Err() != nil {
			t.Fatalf("agent %s transport error: %v", a.Name(), a.Err())
		}
	}
	waitFor(t, "reports to drain", func() bool {
		var sent uint64
		for _, a := range as {
			sent += a.Stats().Sent
		}
		return ctrl.Reports() >= sent && sent > 0
	})

	subnet := hierarchy.Prefix{Src: hierarchy.IPv4(10, 0, 0, 0), SrcLen: 1}
	est := ctrl.Estimate(subnet)
	want := 0.3 * float64(params.Window) // steady-state window share
	if est < 0.4*want || est > 2.5*want {
		t.Fatalf("controller estimate %v for 30%% subnet, want ≈ %v", est, want)
	}
	out := ctrl.Output(0.15)
	found := false
	for _, e := range out {
		if e.Prefix == subnet {
			found = true
		}
	}
	if !found {
		t.Fatalf("controller HHH output missing heavy subnet: %v", out)
	}
}

func TestMitigationBroadcast(t *testing.T) {
	params := Params{Budget: 8, BatchSize: 5, Window: 1 << 12}
	ctrl, addr := startController(t, params, 1024)
	a, err := DialAgent(addr, AgentConfig{Name: "lb-1", Params: params, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	waitFor(t, "agent join", func() bool { return ctrl.Agents() == 1 })

	// Flood-like: 80% of traffic from one /8. Observe never blocks on
	// the network and sheds reports under backpressure, so pace the
	// feed until the controller has absorbed enough coverage to fill
	// its window (≈ covered/report · reports ≥ W).
	src := rng.New(8)
	deadline := time.Now().Add(30 * time.Second)
	for ctrl.Reports() < 600 {
		if time.Now().After(deadline) {
			t.Fatalf("controller absorbed only %d reports (agent sent=%d dropped=%d)",
				ctrl.Reports(), a.Stats().Sent, a.Dropped())
		}
		for i := 0; i < 1000; i++ {
			var p hierarchy.Packet
			if src.Float64() < 0.8 {
				p.Src = hierarchy.IPv4(66, byte(src.Uint32()), byte(src.Uint32()), byte(src.Uint32()))
			} else {
				p.Src = uint32(src.Uint64())
			}
			a.Observe(p)
		}
		time.Sleep(2 * time.Millisecond)
	}

	vs, err := ctrl.Mitigate(0.5, ActionDeny)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) == 0 {
		t.Fatal("no verdicts issued for an 80% subnet")
	}
	foundSubnet := false
	for _, v := range vs {
		if v.Subnet == hierarchy.IPv4(66, 0, 0, 0) && v.PrefixBytes == 1 {
			foundSubnet = true
		}
		if v.PrefixBytes == 0 {
			t.Fatal("must never issue a verdict for the root prefix")
		}
	}
	if !foundSubnet {
		t.Fatalf("verdicts %v missing the attacking /8", vs)
	}
	select {
	case got := <-a.Verdicts():
		if len(got) != len(vs) {
			t.Fatalf("agent received %d verdicts, want %d", len(got), len(vs))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("agent never received the verdict broadcast")
	}
}

func TestControllerRejectsMismatchedAgent(t *testing.T) {
	params := Params{Budget: 1, BatchSize: 44, Window: 1 << 12}
	ctrl, addr := startController(t, params, 512)
	bad := params
	bad.BatchSize = 10 // different sampling regime
	a, err := DialAgent(addr, AgentConfig{Name: "rogue", Params: bad})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	waitFor(t, "rejection", func() bool { return ctrl.Rejected() == 1 })
	if ctrl.Agents() != 0 {
		t.Fatal("mismatched agent must not join")
	}
}

func TestControllerSurvivesGarbage(t *testing.T) {
	params := Params{Budget: 1, BatchSize: 1, Window: 1 << 12}
	ctrl, addr := startController(t, params, 512)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	conn.Close()

	// A well-behaved agent must still work afterwards.
	a, err := DialAgent(addr, AgentConfig{Name: "good", Params: params, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	waitFor(t, "good agent join", func() bool { return ctrl.Agents() == 1 })
	for i := 0; i < 5000; i++ {
		a.Observe(hierarchy.Packet{Src: uint32(i)})
	}
	waitFor(t, "reports despite garbage peer", func() bool { return ctrl.Reports() > 0 })
}

func TestAgentDisconnectTolerated(t *testing.T) {
	params := Params{Budget: 4, BatchSize: 2, Window: 1 << 12}
	ctrl, addr := startController(t, params, 512)
	a, err := DialAgent(addr, AgentConfig{Name: "flaky", Params: params, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "join", func() bool { return ctrl.Agents() == 1 })
	for i := 0; i < 1000; i++ {
		a.Observe(hierarchy.Packet{Src: uint32(i % 3)})
	}
	a.Close()
	waitFor(t, "leave", func() bool { return ctrl.Agents() == 0 })
	// Controller still answers queries.
	_ = ctrl.Estimate(hierarchy.Prefix{Src: 0, SrcLen: 1})

	b, err := DialAgent(addr, AgentConfig{Name: "replacement", Params: params, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	waitFor(t, "rejoin", func() bool { return ctrl.Agents() == 1 })
}

func TestAgentValidation(t *testing.T) {
	if _, err := NewAgent(nil, AgentConfig{}); err == nil {
		t.Fatal("missing name should fail")
	}
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	if _, err := NewAgent(c1, AgentConfig{Name: "x", Params: Params{}}); err == nil {
		t.Fatal("invalid params should fail")
	}
	// A batch larger than one report can carry would pass the Hello and
	// then fail to encode every report.
	full := Params{Budget: 1, BatchSize: maxSamplesPerMsg, Window: 1024}
	if err := full.Normalize(1); err != nil {
		t.Fatalf("a batch of %d samples fits a report: %v", maxSamplesPerMsg, err)
	}
	over := Params{Budget: 1, BatchSize: maxSamplesPerMsg + 1, Window: 1024}
	if _, err := NewAgent(c1, AgentConfig{Name: "x", Params: over}); err == nil {
		t.Fatal("a batch no report can carry should fail")
	}
	if _, err := NewController(ControllerConfig{Hier: hierarchy.OneD{}, Params: over, Counters: 64}); err == nil {
		t.Fatal("controller accepted a batch no report can carry")
	}
}

// TestRetiredSnapshotFrameDropsConnection: frame type 4, the retired
// MsgSnapshot, is an unknown type like any other. The controller drops
// the connection and charges nothing for the frame: only the Hello
// reaches the ledger.
func TestRetiredSnapshotFrameDropsConnection(t *testing.T) {
	params := Params{Budget: 1, BatchSize: 4, Window: 1 << 12}
	if err := params.Normalize(1); err != nil {
		t.Fatal(err)
	}
	ctrl, addr := startController(t, params, 512)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello, err := encodeHello(Hello{Name: "legacy", Tau: params.Tau(), Batch: uint32(params.BatchSize)})
	if err != nil {
		t.Fatal(err)
	}
	if err := sendFrame(conn, MsgHello, hello); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "agent to join", func() bool { return ctrl.Agents() == 1 })
	// What a snapshot agent shipped: the covered count, then an encoded
	// sketch.
	hh := core.MustNewHHH(core.HHHConfig{Hierarchy: hierarchy.OneD{}, Window: 1 << 10, Counters: 64})
	for i := 0; i < 1000; i++ {
		hh.Update(hierarchy.Packet{Src: uint32(i % 7)})
	}
	var snap core.HHHSnapshot
	hh.SnapshotInto(&snap)
	payload, err := snap.AppendTo(binary.BigEndian.AppendUint64(nil, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if err := sendFrame(conn, 4, payload); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after a type-4 frame: %v, want the controller to close (EOF)", err)
	}
	waitFor(t, "agent to be dropped", func() bool { return ctrl.Agents() == 0 })
	helloBytes := uint64(len(hello)) + 9
	if got := ctrl.BytesIn(); got != helloBytes {
		t.Fatalf("BytesIn %d, want the Hello's %d only", got, helloBytes)
	}
	stats := ctrl.AgentStats()
	if len(stats) != 1 {
		t.Fatalf("AgentStats has %d entries, want 1", len(stats))
	}
	if st := stats[0]; st.Reports != 0 || st.Deltas != 0 || st.Covered != 0 || st.Bytes != helloBytes {
		t.Fatalf("type-4 frame reached the ledger: %+v", st)
	}
	if ctrl.Reports() != 0 || ctrl.Deltas() != 0 || len(ctrl.MergedSnapshots(nil)) != 0 {
		t.Fatal("type-4 frame was applied")
	}
}

func TestAgentBackpressureDrops(t *testing.T) {
	// A pipe with no reader exerts full backpressure; the agent must
	// drop reports rather than block Observe. net.Pipe is synchronous,
	// so the hello consumer must be running before NewAgent writes it.
	c1, c2 := net.Pipe()
	defer c2.Close()
	helloRead := make(chan struct{})
	go func() { // consume the hello, then stall forever
		newFrameReader(c2).next()
		close(helloRead)
	}()
	a, err := NewAgent(c1, AgentConfig{
		Name:   "blocked",
		Params: Params{Budget: 1e9, BatchSize: 1, Window: 1024}, // τ = 1
		Seed:   9, QueueLen: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	<-helloRead
	done := make(chan struct{})
	go func() {
		for i := 0; i < 10000; i++ {
			a.Observe(hierarchy.Packet{Src: uint32(i)})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Observe blocked on a stalled network")
	}
	if a.Dropped() == 0 {
		t.Fatal("expected dropped reports under backpressure")
	}
}

// TestVerdictsFromPolicy pins the one verdict policy Mitigate and
// lbproxy's degraded mode share: source subnets only, never the root,
// and only entries whose estimate itself reaches the threshold.
func TestVerdictsFromPolicy(t *testing.T) {
	const threshold = 1000
	net10 := hierarchy.IPv4(10, 0, 0, 0)
	for _, tc := range []struct {
		name  string
		entry hhhset.Entry
		want  []Verdict
	}{
		{"root prefix", hhhset.Entry{Prefix: hierarchy.Prefix{}, Estimate: 9000, Conditioned: 9000}, nil},
		{"dst-bearing prefix", hhhset.Entry{Prefix: hierarchy.Prefix{Src: net10, SrcLen: 1, Dst: net10, DstLen: 1}, Estimate: 5000, Conditioned: 5000}, nil},
		{"dst-only prefix", hhhset.Entry{Prefix: hierarchy.Prefix{Dst: net10, DstLen: 2}, Estimate: 5000, Conditioned: 5000}, nil},
		{"margin-only entry", hhhset.Entry{Prefix: hierarchy.Prefix{Src: net10, SrcLen: 1}, Estimate: 999, Conditioned: 1400}, nil},
		{"heavy /8", hhhset.Entry{Prefix: hierarchy.Prefix{Src: net10, SrcLen: 1}, Estimate: 1000, Conditioned: 1000},
			[]Verdict{{Subnet: net10, PrefixBytes: 1, Act: ActionTarpit}}},
		{"heavy host", hhhset.Entry{Prefix: hierarchy.Prefix{Src: net10 | 7, SrcLen: 4}, Estimate: 2000, Conditioned: 1200},
			[]Verdict{{Subnet: net10 | 7, PrefixBytes: 4, Act: ActionTarpit}}},
	} {
		got := VerdictsFrom([]hhhset.Entry{tc.entry}, threshold, ActionTarpit, nil)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: verdicts %+v, want %+v", tc.name, got, tc.want)
		}
	}
	// Appends to dst, keeping what is there.
	kept := Verdict{Subnet: 1, PrefixBytes: 4, Act: ActionAllow}
	got := VerdictsFrom([]hhhset.Entry{{Prefix: hierarchy.Prefix{Src: net10, SrcLen: 1}, Estimate: threshold}}, threshold, ActionDeny, []Verdict{kept})
	if want := []Verdict{kept, {Subnet: net10, PrefixBytes: 1, Act: ActionDeny}}; !slices.Equal(got, want) {
		t.Fatalf("append: %+v, want %+v", got, want)
	}
}

// TestHostileCoveredFrameIsBounded: Batch.Covered is a u64 straight off
// the wire, and absorbing it runs under the controller's ingest lock. A
// frame claiming 2^62 covered packets from a peer that passed the Hello
// check must cost a bounded slide — not pin Estimate, Output, Mitigate
// and every other agent's reports behind a per-packet loop — and must
// leave the sketch where that many packets would have: slid empty.
func TestHostileCoveredFrameIsBounded(t *testing.T) {
	params := Params{Budget: 8, BatchSize: 4, Window: 1 << 10}
	if err := params.Normalize(1); err != nil {
		t.Fatal(err)
	}
	ctrl, addr := startController(t, params, 256)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	send := func(msgType byte, payload []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if err := sendFrame(conn, msgType, payload); err != nil {
			t.Fatal(err)
		}
	}
	hello, err := encodeHello(Hello{Name: "mallory", Tau: params.Tau(), Batch: uint32(params.BatchSize)})
	send(MsgHello, hello, err)

	heavy := hierarchy.Packet{Src: hierarchy.IPv4(10, 1, 2, 3)}
	subnet := hierarchy.Prefix{Src: hierarchy.IPv4(10, 0, 0, 0), SrcLen: 1}
	unseen := hierarchy.Prefix{Src: hierarchy.IPv4(77, 0, 0, 0), SrcLen: 1}
	for i := 0; i < 200; i++ { // benign reports first: the subnet becomes heavy
		p, err := appendBatch(nil, Batch{Covered: 4, Samples: []hierarchy.Packet{heavy, heavy, heavy, heavy}})
		send(MsgBatch, p, err)
	}
	waitFor(t, "benign reports", func() bool { return ctrl.Reports() == 200 })
	if est, floor := ctrl.Estimate(subnet), ctrl.Estimate(unseen); est <= floor {
		t.Fatalf("test vacuous: heavy subnet estimate %v not above the absent-key default %v", est, floor)
	}

	for _, covered := range []uint64{1 << 62, math.MaxUint64} {
		p, err := appendBatch(nil, Batch{Covered: covered})
		send(MsgBatch, p, err)
	}
	done := make(chan [2]float64, 1)
	go func() {
		for ctrl.Reports() < 202 {
			time.Sleep(time.Millisecond)
		}
		done <- [2]float64{ctrl.Estimate(subnet), ctrl.Estimate(unseen)}
	}()
	select {
	case est := <-done:
		if est[0] != est[1] {
			t.Fatalf("after sliding 2^62 packets the subnet still estimates %v, absent-key default %v", est[0], est[1])
		}
	case <-time.After(10 * time.Second):
		t.Fatal("controller ingest lock still held 10s after a hostile Covered frame")
	}
}

// TestSamplerCoinMatchesFloat64: the sampler's integer coin makes the
// same decision as rng's Float64() < τ on every draw, so agents and
// netsim keep the τ-coin answers they had before the threshold form.
func TestSamplerCoinMatchesFloat64(t *testing.T) {
	for _, budget := range []float64{1e-6, 0.05, 1, 4, 1e9} {
		p := Params{Budget: budget, BatchSize: 44, Window: 1024}
		if err := p.Normalize(1); err != nil {
			t.Fatal(err)
		}
		tau, coin := p.Tau(), NewSampler(p, nil).coin
		// At the threshold itself: the largest draw below coin samples,
		// coin itself does not.
		if x := coin - 1; !(float64(x)*(1.0/(1<<53)) < tau) {
			t.Fatalf("tau %v: draw %d below the coin fails Float64 < tau", tau, x)
		}
		if x := coin; x < 1<<53 && float64(x)*(1.0/(1<<53)) < tau {
			t.Fatalf("tau %v: draw %d at the coin passes Float64 < tau", tau, x)
		}
		a, b := rng.New(7), rng.New(7)
		for i := 0; i < 1<<12; i++ {
			if (a.Uint64()>>11 < coin) != (b.Float64() < tau) {
				t.Fatalf("tau %v: draw %d decides differently", tau, i)
			}
		}
	}
}
