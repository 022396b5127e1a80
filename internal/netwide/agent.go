// Agent: the measurement-point side of the network-wide protocol.
//
// Agents run in one of two report modes. ReportSampled is the paper's
// budget-constrained protocol (Section 4.3): a Sampler τ-samples each
// observed packet and full batches ship as MsgBatch frames.
// ReportDelta keeps a complete local H-Memento over the agent's
// ingress and ships an internal/delta chain of its state (MsgDelta:
// one base, then only the counters that changed each cadence; a
// dropped record or a controller MsgResync re-bases it), which the
// controller follows to the agent's own state
// (TestDeltaMatchesSnapshotFleet holds it to the local snapshots). In
// both modes Observe never blocks on the network: reports queue to a
// bounded channel and drop (counted) under backpressure.
//
// Transport fault tolerance (DESIGN.md §10): an agent built with
// DialAgent and Reconnect redials through a supervised loop with
// exponential backoff and jitter, for as long as it lives. Reports
// queued before an outage survive it (the writer retries the frames
// in hand on the next connection generation); reports that overflow the
// bounded queue during it are dropped and counted, and because chain
// records report *cumulative* coverage, the ledger heals as soon as
// any later record lands — nothing is silently lost.
// Heartbeats (MsgPing/MsgPong) keep idle connections alive and detect
// one-way partitions; when the controller stays unreachable past
// DegradedAfter, Degraded() reports it so callers can fail over to
// local verdicts.

package netwide

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"memento/internal/codec"
	"memento/internal/core"
	"memento/internal/delta"
	"memento/internal/hierarchy"
	"memento/internal/obs"
	"memento/internal/rng"
)

// ReportMode selects how an agent reports to the controller.
type ReportMode uint8

const (
	// ReportSampled ships τ-sampled packets in batches (the paper's
	// Sample/Batch methods): cheap, approximate, budget-bounded.
	ReportSampled ReportMode = iota
	// ReportDelta maintains a full local sketch and ships an
	// internal/delta replication chain of it: one base, then
	// per-cadence records carrying only the counters that changed.
	// Every packet reaches the controller's view at full fidelity; a
	// dropped report or controller resync request transparently
	// re-bases the chain.
	ReportDelta
)

// AgentConfig parameterizes a measurement point.
type AgentConfig struct {
	// Name identifies the agent to the controller.
	Name string
	// Params are the shared deployment constants; the agent derives its
	// sampling probability from them.
	Params Params
	// Seed fixes the sampling randomness; 0 derives one from the name.
	Seed uint64
	// QueueLen bounds the outbound report queue; when the network
	// cannot drain reports fast enough, new reports are dropped and
	// counted (measurement must never block the data path). Default 64.
	QueueLen int

	// Report selects the reporting mode (default ReportSampled).
	Report ReportMode
	// Hier is the prefix domain; defaults to OneD. In both report
	// modes its dimensionality sizes one sample (the default
	// Params.SampleBytes, hence τ), exactly as the controller's Hier
	// does, and in ReportDelta it is the local sketch's domain. Use
	// hierarchy.Flows for plain network-wide heavy hitters.
	Hier hierarchy.Hierarchy
	// SnapshotWindow is the local sketch's sliding window
	// (ReportDelta). With m agents splitting the traffic,
	// Params.Window/m makes the merged window match the network-wide
	// one, mirroring the shard layer's window split. Defaults to
	// Params.Window.
	SnapshotWindow int
	// SnapshotCounters sizes the local sketch (ReportDelta; default
	// 512·H). A chain base carries the whole sketch, so it must fit a
	// MaxFrame frame.
	SnapshotCounters int
	// SnapshotEvery is the chain's report cadence in observed packets
	// (ReportDelta; default SnapshotWindow/4). Smaller is fresher and
	// costs more bytes.
	SnapshotEvery int
	// DeltaFloor is ReportDelta's fidelity floor: monitored counters
	// whose guaranteed count stays below it and that never shipped
	// (and are outside the overflow table) stay local. 0 selects the
	// local sketch's block threshold — the natural "cannot matter to
	// heavy hitters yet" unit — and a negative value selects exact
	// replication. See internal/delta.
	DeltaFloor int

	// Reconnect enables the supervised redial loop: when the transport
	// breaks, the agent backs off, redials, re-Hellos and (in delta
	// mode) re-bases its chain, transparently to Observe. Requires
	// DialAgent (only a dialed agent knows its address); NewAgent
	// rejects it. A reconnecting agent redials until it is closed,
	// with backoff capped at BackoffMax.
	Reconnect bool
	// BackoffBase and BackoffMax bound the exponential redial backoff
	// (defaults 100ms and 5s). Each delay is jittered to [d/2, d).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// HeartbeatEvery is the MsgPing cadence. Default 1s; negative
	// disables heartbeats. Pings yield to report traffic under
	// backpressure (a full queue skips the ping, uncounted).
	HeartbeatEvery time.Duration
	// DegradedAfter is the degraded-mode threshold: when nothing has
	// been heard from the controller (pongs, verdicts, resyncs) for
	// this long, Degraded() reports true until contact resumes.
	// 0 disables degraded detection.
	DegradedAfter time.Duration
	// Clock injects the supervision plane's time source (backoff,
	// heartbeats, degraded detection, shutdown drain). nil selects the
	// wall clock. Connection deadlines always use the wall clock.
	Clock Clock
	// Dial overrides how (re)connections are made, e.g. to wrap them
	// in a faultnet injector. nil selects net.DialTimeout("tcp", ...).
	Dial func(addr string, timeout time.Duration) (net.Conn, error)

	// TraceReports opts the agent into end-to-end report tracing: after
	// each Hello it probes the controller (a MsgPing carrying the probe
	// magic) and, if the controller acks, wraps every report in a
	// MsgTraced envelope stamped with the agent id, a monotone report
	// sequence and the capture-time clock reading. A controller that
	// echoes the probe verbatim (v1) leaves the connection untraced —
	// reports ship exactly as before, no flag day. Stamping happens at
	// capture (cadence) granularity, never per packet.
	TraceReports bool

	// Obs, when set, registers the agent's transfer ledger under
	// memento_agent_* (one agent per registry: names are flat).
	// Trace, when set, receives the fleet lifecycle events —
	// connect/reconnect/disconnect, resync, degraded enter/exit —
	// with the agent name as actor. Both default to disabled.
	Obs   *obs.Registry
	Trace *obs.Trace
}

// Agent samples observed packets and ships batched reports to the
// controller. Observe is safe for concurrent use and never blocks on
// the network.
type Agent struct {
	name string
	tau  float64
	mode ReportMode

	addr       string // redial target; "" for NewAgent-wrapped conns
	redialable bool
	dial       func(addr string, timeout time.Duration) (net.Conn, error)
	clk        Clock
	handshake  []byte // pre-encoded Hello frame, then the trace probe if asked; re-sent every generation

	backoffBase   time.Duration
	backoffMax    time.Duration
	hbEvery       time.Duration
	degradedAfter time.Duration
	bsrc          *rng.Source // backoff jitter; supervisor goroutine only

	mu        sync.Mutex
	sampler   *Sampler // ReportSampled; nil in ReportDelta
	observed  uint64   // ReportDelta: packets since the last capture
	total     uint64   // ReportDelta: cumulative packets observed
	hh        *core.HHH
	tracker   *delta.Tracker // ReportDelta; nil in ReportSampled
	every     uint64
	chainBuf  []byte // ReportDelta: recycled record scratch
	reportSeq uint64 // guarded by mu: per-agent report sequence (tracing)

	// stateMu guards the connection-generation state: which connection
	// is current, liveness stamps and the reconnect/degraded ledgers.
	stateMu     sync.Mutex
	cur         *generation   // guarded by stateMu
	upCh        chan struct{} // guarded by stateMu; closed while connected, fresh while down
	gen         uint64        // guarded by stateMu
	reconnects  uint64        // guarded by stateMu
	disconnects uint64        // guarded by stateMu
	lastContact time.Time     // guarded by stateMu
	lastErr     error         // guarded by stateMu
	degraded    bool          // guarded by stateMu
	degEnters   uint64        // guarded by stateMu
	degExits    uint64        // guarded by stateMu
	traced      bool          // guarded by stateMu: this generation negotiated tracing

	redial   chan struct{} // capacity 1: wake the supervisor
	readerWg sync.WaitGroup

	sendq    chan outFrame
	verdicts chan []Verdict
	done     chan struct{}
	closed   sync.Once

	// The transfer ledger rides obs counters (cache-line padded,
	// always allocated, optionally registered via AgentConfig.Obs);
	// trace carries lifecycle events (nil: disabled).
	dropped   *obs.Counter
	queued    *obs.Counter
	sent      *obs.Counter
	sentBytes *obs.Counter
	pings     *obs.Counter
	pongs     *obs.Counter
	tracedRpt *obs.Counter
	trace     *obs.Trace
	dataErr   atomic.Value // error: a report failed to encode (not transport)

	traceReports bool        // config: probe for tracing each generation
	wbuf         []byte      // writer goroutine only: the recycled coalesced write
	marks        []frameMark // writer goroutine only: where each frame in wbuf ends
}

// dialTimeout bounds each connection attempt, including the first
// (DialAgent only), and the Hello write on a fresh connection.
const dialTimeout = 5 * time.Second

// wireCap bounds a coalesced write: the writer stops draining the
// queue once this many bytes of frames are in hand. A single larger
// frame (a chain base) still goes whole.
const wireCap = 64 << 10

// frameMark is where one frame of a coalesced write ends, and the type
// it shipped as.
type frameMark struct {
	end int
	typ byte
}

// generation is one connection's lifetime. The writer, the
// per-generation reader and Close all race to declare it dead;
// sync.Once makes the teardown single.
type generation struct {
	conn net.Conn
	done chan struct{}
	fail sync.Once
}

// outFrame is one queued report: either a batch to encode on the
// writer goroutine, or a pre-encoded payload (chain records are cut
// under the observe lock so the sketch state is consistent). Reports
// carry their capture stamp (seq, capture) from the moment the state
// was cut; whether the stamp ships depends on the connection's
// negotiated tracing state at write time. capture == 0 marks
// non-report frames (pings), which are never wrapped.
type outFrame struct {
	typ     byte
	batch   Batch
	payload []byte
	seq     uint64
	capture int64
}

// DialAgent connects to the controller at addr (bounded by
// dialTimeout) and performs the Hello exchange. With cfg.Reconnect the
// returned agent survives transport failures: it redials under
// supervision and re-Hellos, invisibly to Observe. The first dial
// fails fast — a misconfigured address should surface at startup, not
// retry forever.
func DialAgent(addr string, cfg AgentConfig) (*Agent, error) {
	a, err := buildAgent(cfg)
	if err != nil {
		return nil, err
	}
	a.addr = addr
	a.redialable = cfg.Reconnect
	conn, err := a.dialOnce()
	if err != nil {
		return nil, err
	}
	a.start(conn)
	return a, nil
}

// NewAgent wraps an established connection (any net.Conn, which keeps
// the protocol testable over net.Pipe). A wrapped connection cannot be
// redialed, so cfg.Reconnect is rejected.
func NewAgent(conn net.Conn, cfg AgentConfig) (*Agent, error) {
	if cfg.Reconnect {
		return nil, errors.New("netwide: Reconnect requires DialAgent (a wrapped conn has no redial address)")
	}
	a, err := buildAgent(cfg)
	if err != nil {
		return nil, err
	}
	if conn == nil {
		return nil, errors.New("netwide: agent needs a connection")
	}
	if err := a.sendHello(conn); err != nil {
		return nil, err
	}
	a.start(conn)
	return a, nil
}

// buildAgent validates cfg and constructs the agent, connectionless.
func buildAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Name == "" {
		return nil, errors.New("netwide: agent needs a name")
	}
	hier := cfg.Hier
	if hier == nil {
		hier = hierarchy.OneD{}
	}
	if err := cfg.Params.Normalize(hier.Dims()); err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		for _, c := range cfg.Name {
			seed = seed*131 + uint64(c)
		}
		seed |= 1
	}
	qlen := cfg.QueueLen
	if qlen <= 0 {
		qlen = 64
	}
	clk := cfg.Clock
	if clk == nil {
		clk = sysClock{}
	}
	dial := cfg.Dial
	if dial == nil {
		dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	a := &Agent{
		name:          cfg.Name,
		tau:           cfg.Params.Tau(),
		mode:          cfg.Report,
		dial:          dial,
		clk:           clk,
		dropped:       &obs.Counter{},
		queued:        &obs.Counter{},
		sent:          &obs.Counter{},
		sentBytes:     &obs.Counter{},
		pings:         &obs.Counter{},
		pongs:         &obs.Counter{},
		tracedRpt:     &obs.Counter{},
		trace:         cfg.Trace,
		traceReports:  cfg.TraceReports,
		backoffBase:   cfg.BackoffBase,
		backoffMax:    cfg.BackoffMax,
		hbEvery:       cfg.HeartbeatEvery,
		degradedAfter: cfg.DegradedAfter,
		bsrc:          rng.New(seed + 0xb0ff),
		upCh:          make(chan struct{}),
		redial:        make(chan struct{}, 1),
		sendq:         make(chan outFrame, qlen),
		verdicts:      make(chan []Verdict, 16),
		done:          make(chan struct{}),
	}
	if a.backoffBase <= 0 {
		a.backoffBase = 100 * time.Millisecond
	}
	if a.backoffMax <= 0 {
		a.backoffMax = 5 * time.Second
	}
	if a.backoffMax < a.backoffBase {
		a.backoffMax = a.backoffBase
	}
	if a.hbEvery == 0 {
		a.hbEvery = time.Second
	}
	if cfg.Report != ReportDelta {
		a.sampler = NewSampler(cfg.Params, rng.New(seed))
	} else {
		window := cfg.SnapshotWindow
		if window <= 0 {
			window = cfg.Params.Window
		}
		counters := cfg.SnapshotCounters
		if counters <= 0 {
			counters = 512 * hier.H()
		}
		// Worst-case encoded size of a chain base, which embeds the whole
		// sketch: ~30 bytes per monitored counter plus ~30 per nominal
		// overflow entry and a fixed preamble. A budget whose bases can
		// never fit a frame must fail here, not wedge silently at every
		// cadence.
		if worst := 60*counters + 1024; worst > MaxFrame-5 {
			return nil, fmt.Errorf("netwide: %d-counter snapshot (~%d bytes worst case) cannot fit a %d-byte frame",
				counters, worst, MaxFrame)
		}
		hh, err := core.NewHHH(core.HHHConfig{
			Hierarchy: hier,
			Window:    window,
			Counters:  counters,
			Seed:      seed + 1,
		})
		if err != nil {
			return nil, fmt.Errorf("netwide: agent local sketch: %w", err)
		}
		a.hh = hh
		every := cfg.SnapshotEvery
		if every <= 0 {
			every = max(hh.EffectiveWindow()/4, 1)
		}
		a.every = uint64(every)
		floor := uint64(0)
		switch {
		case cfg.DeltaFloor > 0:
			floor = uint64(cfg.DeltaFloor)
		case cfg.DeltaFloor == 0:
			floor = hh.Sketch().BlockCounts()
		}
		a.tracker, err = delta.NewTracker(hh, delta.TrackerConfig{Floor: floor})
		if err != nil {
			return nil, fmt.Errorf("netwide: agent chain encoder: %w", err)
		}
	}
	hello, err := encodeHello(Hello{Name: cfg.Name, Tau: a.tau, Batch: uint32(cfg.Params.BatchSize)})
	if err != nil {
		return nil, err
	}
	if a.handshake, err = appendFrame(nil, MsgHello, hello); err != nil {
		return nil, err
	}
	if a.traceReports {
		a.handshake, _ = appendFrame(a.handshake, MsgPing, encodePing(traceProbeSeq))
	}
	if r := cfg.Obs; r != nil {
		r.RegisterCounter("memento_agent_queued_total", a.queued)
		r.RegisterCounter("memento_agent_sent_total", a.sent)
		r.RegisterCounter("memento_agent_dropped_total", a.dropped)
		r.RegisterCounter("memento_agent_sent_bytes_total", a.sentBytes)
		r.RegisterCounter("memento_agent_pings_total", a.pings)
		r.RegisterCounter("memento_agent_pongs_total", a.pongs)
		r.RegisterFunc("memento_agent_generation", func() float64 {
			a.stateMu.Lock()
			defer a.stateMu.Unlock()
			return float64(a.gen)
		})
		r.RegisterFunc("memento_agent_connected", func() float64 {
			a.stateMu.Lock()
			defer a.stateMu.Unlock()
			if a.cur != nil {
				return 1
			}
			return 0
		})
		r.RegisterFunc("memento_agent_degraded", func() float64 {
			if a.Degraded() {
				return 1
			}
			return 0
		})
		r.RegisterCounter("memento_agent_traced_reports_total", a.tracedRpt)
		r.RegisterFunc("memento_agent_traced", func() float64 {
			a.stateMu.Lock()
			defer a.stateMu.Unlock()
			if a.traced {
				return 1
			}
			return 0
		})
	}
	return a, nil
}

// start installs the first connection and launches the goroutine set:
// one writer, one supervisor (which owns redials and, at the very end,
// the verdicts channel), one reader per connection generation, and
// optionally the heartbeat ticker.
func (a *Agent) start(conn net.Conn) {
	a.install(conn)
	go a.writer()
	go a.supervise()
	if a.hbEvery > 0 {
		go a.heartbeats()
	}
}

// dialOnce makes one bounded connection attempt including the Hello.
func (a *Agent) dialOnce() (net.Conn, error) {
	conn, err := a.dial(a.addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("netwide: dialing controller: %w", err)
	}
	if err := a.sendHello(conn); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// sendHello writes the Hello frame under the handshake deadline, in
// one write with the trace probe when tracing is requested — writing
// it here, before the generation installs, guarantees the probe
// precedes every report of the generation on the wire.
func (a *Agent) sendHello(conn net.Conn) error {
	conn.SetWriteDeadline(time.Now().Add(dialTimeout))
	defer conn.SetWriteDeadline(time.Time{})
	if _, err := conn.Write(a.handshake); err != nil {
		return fmt.Errorf("netwide: sending hello: %w", err)
	}
	a.sentBytes.Add(uint64(len(a.handshake)))
	return nil
}

// install makes conn the current generation and starts its reader.
// Returns false when the agent closed concurrently (conn is closed,
// nothing started).
func (a *Agent) install(conn net.Conn) bool {
	g := &generation{conn: conn, done: make(chan struct{})}
	a.stateMu.Lock()
	select {
	case <-a.done:
		a.stateMu.Unlock()
		conn.Close()
		return false
	default:
	}
	a.cur = g
	a.gen++
	gen := a.gen
	rejoined := gen > 1
	if rejoined {
		a.reconnects++
	}
	a.lastContact = a.clk.Now()
	a.lastErr = nil
	a.traced = false // each generation re-negotiates via its own probe
	close(a.upCh)    // wake the writer: connected
	a.stateMu.Unlock()
	if rejoined {
		a.trace.Record(obs.EvReconnect, a.name, gen)
	} else {
		a.trace.Record(obs.EvConnect, a.name, gen)
	}
	if rejoined && a.mode == ReportDelta {
		// Records in flight when the old connection died may never
		// have reached the controller's chain follower. Re-base and
		// ship immediately — waiting for the next cadence would leave
		// the controller's view of this agent stale for up to a full
		// cadence after the outage, or forever if traffic stopped.
		a.mu.Lock()
		a.tracker.ForceBase()
		a.shipDeltaLocked()
		a.mu.Unlock()
	}
	a.readerWg.Add(1)
	go a.reader(g)
	return true
}

// failGen declares one connection generation dead: tears it down,
// records the error, and either wakes the supervisor (redialable) or
// closes the agent (the pre-reconnect fail-fast contract).
func (a *Agent) failGen(g *generation, err error) {
	g.fail.Do(func() {
		close(g.done)
		g.conn.Close()
		a.stateMu.Lock()
		current := a.cur == g
		var gen uint64
		if current {
			a.cur = nil
			a.upCh = make(chan struct{})
			a.disconnects++
			a.lastErr = err
			gen = a.gen
		}
		a.stateMu.Unlock()
		if current {
			a.trace.Record(obs.EvDisconnect, a.name, gen)
		}
		if a.redialable {
			select {
			case a.redial <- struct{}{}:
			default:
			}
		} else {
			a.Close()
		}
	})
}

// supervise owns the redial loop. It also owns the verdicts channel's
// close: it runs for every agent (redialable or not) and is the single
// goroutine that outlives all reader generations.
func (a *Agent) supervise() {
	defer func() {
		a.readerWg.Wait()
		close(a.verdicts)
	}()
	for {
		select {
		case <-a.done:
			return
		case <-a.redial:
		}
		if !a.reconnectLoop() {
			return
		}
	}
}

// reconnectLoop redials with backoff until a connection installs;
// false ends supervision (agent closed).
func (a *Agent) reconnectLoop() bool {
	for attempt := 0; ; attempt++ {
		select {
		case <-a.done:
			return false
		case <-a.clk.After(backoffDelay(attempt, a.backoffBase, a.backoffMax, a.bsrc)):
		}
		conn, err := a.dialOnce()
		if err != nil {
			a.stateMu.Lock()
			a.lastErr = err
			a.stateMu.Unlock()
			continue
		}
		return a.install(conn)
	}
}

// heartbeats enqueues a MsgPing every hbEvery while connected. Pings
// ride the ordinary send queue (so they never interleave mid-frame
// with reports) but yield to report traffic: a full queue skips the
// ping rather than displacing data.
func (a *Agent) heartbeats() {
	for {
		select {
		case <-a.done:
			return
		case <-a.clk.After(a.hbEvery):
		}
		a.stateMu.Lock()
		up := a.cur != nil
		a.stateMu.Unlock()
		if !up {
			continue
		}
		// Single heartbeat goroutine: Inc-then-Load is a private
		// sequence number, not a race.
		a.pings.Inc()
		select {
		case a.sendq <- outFrame{typ: MsgPing, payload: encodePing(a.pings.Load())}:
		default:
		}
	}
}

// touch stamps controller contact (any inbound frame) and clears a
// standing degraded state.
func (a *Agent) touch() {
	now := a.clk.Now()
	a.stateMu.Lock()
	a.lastContact = now
	exited := a.degraded
	if exited {
		a.degraded = false
		a.degExits++
	}
	a.stateMu.Unlock()
	if exited {
		a.trace.Record(obs.EvDegradedExit, a.name, 0)
	}
}

// Name returns the agent's name.
func (a *Agent) Name() string { return a.name }

// Tau returns the derived sampling probability.
func (a *Agent) Tau() float64 { return a.tau }

// Observe records one observed packet. In ReportSampled mode the
// sampler τ-samples it and, once a full batch accumulates, a report is
// queued for transmission; in ReportDelta mode it feeds the local
// sketch, whose next chain record is queued every SnapshotEvery
// packets. Reports are cut AND queued under the lock, so the queue
// holds them in capture order: chain records are ordered by epoch (a
// later record overtaking an earlier one would cost a spurious resync
// round trip) and trace sequence numbers stay monotone. The enqueue
// itself never blocks. Safe for concurrent use; never blocks on the
// network.
func (a *Agent) Observe(p hierarchy.Packet) {
	a.mu.Lock()
	if a.tracker == nil {
		if a.sampler.Observe(p) {
			a.enqueue(a.cutLocked())
		}
	} else {
		a.observed++
		a.total++
		a.hh.Update(p)
		if a.observed >= a.every {
			a.shipDeltaLocked()
		}
	}
	a.mu.Unlock()
}

// cutLocked cuts the sampler's pending batch into a stamped report;
// the caller holds a.mu.
//
//memento:locked mu
func (a *Agent) cutLocked() outFrame {
	f := outFrame{typ: MsgBatch, batch: a.sampler.Cut()}
	f.seq, f.capture = a.stampLocked()
	return f
}

// stampLocked cuts the next report's capture stamp: its sequence
// number and the capture-time clock reading. The caller holds a.mu,
// which keeps sequence numbers monotone in queue order.
//
//memento:locked mu
func (a *Agent) stampLocked() (uint64, int64) {
	a.reportSeq++
	return a.reportSeq, time.Now().UnixNano()
}

// shipDeltaLocked advances the replication chain one record and
// queues it; the caller holds a.mu. The tracker decides base vs delta
// itself (first report, forced re-base, detected reset). A delta is
// diffed straight from the live sketch — a scan of the counter slots
// the interval touched, no copy — which is why it can run on the
// Observe path under the lock; only a base copies the sketch. A record
// that cannot be encoded or queued (backpressure) breaks the chain, so
// the next capture re-bases; the cumulative coverage total makes the
// ledger whole on its own.
//
//memento:locked mu
func (a *Agent) shipDeltaLocked() {
	a.observed = 0
	record, _, err := a.tracker.Append(a.chainBuf[:0])
	a.chainBuf = record
	var payload []byte
	if err == nil {
		payload, err = encodeDeltaReport(a.total, record, nil)
	}
	if err != nil {
		a.tracker.ForceBase()
		a.dataErr.Store(err)
		a.dropped.Add(1)
		return
	}
	seq, capture := a.stampLocked()
	if !a.enqueue(outFrame{typ: MsgDelta, payload: payload, seq: seq, capture: capture}) {
		a.tracker.ForceBase()
	}
}

// Flush ships the current partial report immediately: the pending
// sampled batch, or a chain record covering the packets observed
// since the last one. Call it before reading final results from the
// controller (or before shutdown) so the tail of the stream is not
// stranded in the agent.
func (a *Agent) Flush() {
	a.mu.Lock()
	switch {
	case a.tracker != nil:
		if a.observed > 0 {
			a.shipDeltaLocked()
		}
	case a.sampler.Pending() > 0:
		a.enqueue(a.cutLocked())
	}
	a.mu.Unlock()
}

// enqueue hands a report to the writer, dropping under backpressure;
// it reports whether the frame was accepted.
func (a *Agent) enqueue(f outFrame) bool {
	select {
	case a.sendq <- f:
		a.queued.Add(1)
		return true
	default:
		// The network is the bottleneck; measurement must not block
		// the data path. Drop and count.
		a.dropped.Add(1)
		return false
	}
}

// Dropped returns how many reports were discarded due to backpressure.
func (a *Agent) Dropped() uint64 { return a.dropped.Load() }

// Verdicts delivers mitigation commands pushed by the controller. The
// channel closes when the agent terminates — for a reconnecting agent
// that is final closure, not a transient drop.
func (a *Agent) Verdicts() <-chan []Verdict { return a.verdicts }

// Degraded reports whether the controller has been unreachable past
// DegradedAfter: no frame (pong, verdict, resync) has arrived within
// the threshold. It detects one-way partitions, not just closed
// sockets — writes may still "succeed" into a void while pongs stop.
// Callers poll it to fail over to local verdicts and to hand control
// back on recovery. Always false when DegradedAfter is 0.
func (a *Agent) Degraded() bool {
	if a.degradedAfter <= 0 {
		return false
	}
	now := a.clk.Now()
	a.stateMu.Lock()
	deg := now.Sub(a.lastContact) > a.degradedAfter
	flipped := deg != a.degraded
	if flipped {
		a.degraded = deg
		if deg {
			a.degEnters++
		} else {
			a.degExits++
		}
	}
	a.stateMu.Unlock()
	if flipped {
		if deg {
			a.trace.Record(obs.EvDegradedEnter, a.name, 0)
		} else {
			a.trace.Record(obs.EvDegradedExit, a.name, 0)
		}
	}
	return deg
}

// AgentStats is an agent's fault-plane and transfer ledger.
type AgentStats struct {
	// Generation counts connections established (1 = never redialed).
	Generation uint64
	// Reconnects counts successful redials; Disconnects counts
	// connection losses (Disconnects can lead by one while down).
	Reconnects  uint64
	Disconnects uint64
	// Connected reports whether a connection is currently installed.
	Connected bool
	// Queued/Sent/Dropped are the report queue ledger; SentBytes is
	// total wire bytes including framing, Hellos and pings.
	Queued    uint64
	Sent      uint64
	Dropped   uint64
	SentBytes uint64
	// Pings/Pongs count heartbeats sent and echoes received.
	Pings uint64
	Pongs uint64
	// Degraded is the current degraded-mode state; Enters/Exits count
	// its transitions. SinceContact is the age of the last inbound
	// frame from the controller.
	Degraded       bool
	DegradedEnters uint64
	DegradedExits  uint64
	SinceContact   time.Duration
	// Traced reports whether the current generation negotiated report
	// tracing; TracedReports counts reports shipped in MsgTraced
	// envelopes over the agent's lifetime.
	Traced        bool
	TracedReports uint64
}

// Stats returns the agent's fault-plane ledger: connection
// generations, queue counters, heartbeat counts and degraded-mode
// transitions.
func (a *Agent) Stats() AgentStats {
	deg := a.Degraded() // refresh the transition counters first
	now := a.clk.Now()
	a.stateMu.Lock()
	s := AgentStats{
		Generation:     a.gen,
		Reconnects:     a.reconnects,
		Disconnects:    a.disconnects,
		Connected:      a.cur != nil,
		Degraded:       deg,
		DegradedEnters: a.degEnters,
		DegradedExits:  a.degExits,
		SinceContact:   now.Sub(a.lastContact),
		Traced:         a.traced,
	}
	a.stateMu.Unlock()
	s.Queued = a.queued.Load()
	s.Sent = a.sent.Load()
	s.Dropped = a.dropped.Load()
	s.SentBytes = a.sentBytes.Load()
	s.Pings = a.pings.Load()
	s.Pongs = a.pongs.Load()
	s.TracedReports = a.tracedRpt.Load()
	return s
}

// Err reports the agent's standing error: a report that failed to
// encode, or a terminal transport state. A reconnecting agent has no
// terminal transport state: an outage is not an error (Err stays nil
// while the supervisor redials; see Degraded and Stats). For a
// fail-fast agent any transport error is terminal.
func (a *Agent) Err() error {
	if e, ok := a.dataErr.Load().(error); ok {
		return e
	}
	a.stateMu.Lock()
	defer a.stateMu.Unlock()
	if !a.redialable && a.lastErr != nil {
		return a.lastErr
	}
	return nil
}

// writer drains the report queue onto the current connection, one
// goroutine for the agent's whole lifetime. Each wake takes every frame
// already queued, up to wireCap bytes, and ships them in one write. A
// failed write credits the frames that lie wholly inside the bytes it
// reports written, declares the generation dead and retries the rest,
// whole, on the next one — a report that made it into the queue is
// never lost to an outage, only to final Close.
func (a *Agent) writer() {
	var held []outFrame // off the queue, not yet written whole; in queue order
	for {
		if len(held) == 0 {
			select {
			case <-a.done:
				return
			case f := <-a.sendq:
				held = append(held, f)
			}
		}
		g, traced := a.awaitConn()
		if g == nil {
			return
		}
		// Frames are encoded per attempt, against this generation's
		// negotiated tracing state: a report captured while traced but
		// retried against an untraced successor ships bare, and vice
		// versa, so mixed fleets never see an envelope they cannot parse.
		a.wbuf, a.marks = a.wbuf[:0], a.marks[:0]
		kept := held[:0]
		for _, f := range held {
			if a.appendOut(f, traced) {
				kept = append(kept, f)
			}
		}
		held = kept
	drain:
		for len(a.wbuf) < wireCap {
			select {
			case f := <-a.sendq:
				if a.appendOut(f, traced) {
					held = append(held, f)
				}
			default:
				break drain
			}
		}
		if len(held) == 0 {
			continue
		}
		n, err := g.conn.Write(a.wbuf)
		held = slices.Delete(held, 0, a.credit(n))
		if cap(a.wbuf) > keepBuf {
			a.wbuf = nil
		}
		if err != nil {
			a.failGen(g, err)
		}
	}
}

// awaitConn waits out a connection gap, returning the current
// generation and whether it negotiated tracing; nil once the agent
// closed.
func (a *Agent) awaitConn() (*generation, bool) {
	for {
		a.stateMu.Lock()
		g, up, traced := a.cur, a.upCh, a.traced
		a.stateMu.Unlock()
		if g != nil {
			return g, traced
		}
		select {
		case <-a.done:
			return nil, false
		case <-up:
		}
	}
}

// appendOut appends f to the coalesced write as one frame — a report in
// a MsgTraced envelope when traced — and marks where it ends. False
// means f cannot be encoded at all: it is dropped, counted, and Err
// reports why.
func (a *Agent) appendOut(f outFrame, traced bool) bool {
	typ := f.typ
	if traced && f.capture != 0 {
		typ = MsgTraced
	}
	buf, err := a.appendFrameOf(f, typ)
	if err != nil && typ == MsgTraced {
		// Envelope failure (a report at the frame ceiling): ship bare
		// rather than lose data to instrumentation.
		typ = f.typ
		buf, err = a.appendFrameOf(f, typ)
	}
	if err != nil {
		a.dataErr.Store(err)
		a.dropped.Add(1)
		return false
	}
	a.wbuf = buf
	a.marks = append(a.marks, frameMark{end: len(buf), typ: typ})
	return true
}

// appendFrameOf returns the coalesced write with f appended as one
// frame of type typ, f's own type or MsgTraced; a.wbuf itself keeps
// its length.
func (a *Agent) appendFrameOf(f outFrame, typ byte) ([]byte, error) {
	start := len(a.wbuf)
	buf := openFrame(a.wbuf, typ)
	var err error
	if typ == MsgTraced {
		buf, err = appendTracedHead(buf, f.typ, codec.TraceContext{
			AgentID: a.name, Seq: f.seq, CaptureNanos: f.capture,
		})
	}
	switch {
	case err != nil:
	case f.typ == MsgBatch:
		buf, err = appendBatch(buf, f.batch)
	default:
		buf = append(buf, f.payload...)
	}
	if err != nil {
		return buf[:start], err
	}
	return sealFrame(buf, start)
}

// credit counts the frames of the coalesced write that lie wholly
// inside its first n bytes as sent, and returns how many there are.
func (a *Agent) credit(n int) int {
	k, prev := 0, 0
	for _, m := range a.marks {
		if m.end > n {
			break
		}
		switch m.typ {
		case MsgPing:
			// Pings are liveness, not reports: they keep their own
			// counter so report-drain conditions (Sent vs controller
			// counts) stay exact.
		case MsgTraced:
			a.sent.Add(1)
			a.tracedRpt.Add(1)
		default:
			a.sent.Add(1)
		}
		a.sentBytes.Add(uint64(m.end - prev))
		k, prev = k+1, m.end
	}
	return k
}

// reader consumes frames from one connection generation: verdicts,
// pongs and resync requests.
func (a *Agent) reader(g *generation) {
	defer a.readerWg.Done()
	fr := newFrameReader(g.conn)
	for {
		msgType, payload, err := fr.next()
		if err != nil {
			a.failGen(g, err)
			return
		}
		a.touch()
		switch msgType {
		case MsgPong:
			seq, err := decodePing(payload)
			if err != nil {
				a.failGen(g, err)
				return
			}
			switch seq {
			case traceProbeAck:
				// Tracing-aware controller: enable MsgTraced envelopes
				// for this generation (only if it is still current — a
				// stale reader must not re-trace a successor connection).
				a.stateMu.Lock()
				if a.cur == g {
					a.traced = true
				}
				a.stateMu.Unlock()
			case traceProbeSeq:
				// v1 controller echoed the probe verbatim: stay untraced.
			default:
				a.pongs.Add(1)
			}
		case MsgResync:
			if a.tracker == nil {
				continue
			}
			a.trace.Record(obs.EvResync, a.name, 0)
			// The controller lost the chain (dropped record on our
			// side, restart on its side): re-base and ship right away,
			// so the chain heals even if traffic has stopped.
			a.mu.Lock()
			a.tracker.ForceBase()
			a.shipDeltaLocked()
			a.mu.Unlock()
		case MsgVerdict:
			vs, err := decodeVerdicts(payload)
			if err != nil {
				a.failGen(g, err)
				return
			}
			select {
			case a.verdicts <- vs:
			case <-g.done:
				return
			case <-a.done:
				return
			}
		default:
			a.failGen(g, fmt.Errorf("netwide: unexpected message type %d from controller", msgType))
			return
		}
	}
}

// Close terminates the agent and its connection immediately; queued
// reports the writer has not shipped yet are lost. Error paths and
// teardown-on-failure use this; a graceful exit wants Shutdown.
// Idempotent.
func (a *Agent) Close() error {
	var err error
	a.closed.Do(func() {
		close(a.done)
		a.stateMu.Lock()
		g := a.cur
		a.stateMu.Unlock()
		if g != nil {
			err = g.conn.Close()
		}
	})
	return err
}

// Shutdown is the graceful Close: it Flushes the pending partial
// report, waits up to timeout for the writer to drain everything
// queued, and then closes the connection — so the tail of the stream
// reaches the controller instead of dying in the send queue. The
// caller must have stopped Observing. A broken transport cuts the
// wait short (unless the agent is mid-reconnect, in which case the
// drain waits for the retry to land or the deadline to pass);
// timeout <= 0 skips straight to Close.
//
//memento:deterministic
func (a *Agent) Shutdown(timeout time.Duration) error {
	a.Flush()
	deadline := a.clk.Now().Add(timeout)
	for a.sent.Load() < a.queued.Load() && a.Err() == nil && a.clk.Now().Before(deadline) {
		select {
		case <-a.done:
			return a.Close()
		case <-a.clk.After(time.Millisecond):
		}
	}
	return a.Close()
}
