// Controller: the central side of the network-wide protocol, running
// D-Memento / D-H-Memento over agent reports.
//
// Liveness (DESIGN.md §10): handshakes and steady-state reads run
// under deadlines, MsgPing heartbeats are echoed as MsgPong, the
// coverage ledger keeps the cumulative max per agent so report loss
// is never silent, and with StaleTTL set agents whose last report has
// aged out are quarantined from OutputMerged until they report again.

package netwide

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"sync"
	"time"

	"memento/internal/codec"
	"memento/internal/core"
	"memento/internal/delta"
	"memento/internal/hhhset"
	"memento/internal/hierarchy"
	"memento/internal/obs"
	"memento/internal/rng"
	"memento/internal/shard"
)

// ControllerConfig parameterizes the central controller.
type ControllerConfig struct {
	// Hier is the prefix domain (hierarchy.Flows for plain network-wide
	// HH). Required.
	Hier hierarchy.Hierarchy
	// Params are the shared deployment constants; agents whose Hello
	// disagrees on τ or batch size are rejected (a mixed fleet would
	// silently skew estimates).
	Params Params
	// Counters sizes the controller's sketch.
	Counters int
	// Delta is the output confidence (default 0.001).
	Delta float64
	// Seed fixes the controller-side randomness.
	Seed uint64
	// Log receives connection-level events; nil discards them.
	Log *slog.Logger
	// HandshakeTimeout bounds the wait for a new connection's Hello
	// frame: a connection that dials and then says nothing used to
	// park its handler goroutine forever. Default 10s; negative
	// disables.
	HandshakeTimeout time.Duration
	// ReadTimeout bounds each steady-state frame read. Agents
	// heartbeat every second by default, so a healthy but idle
	// connection stays well inside it; one that went silent (dead
	// peer, one-way partition) is closed and its handler freed.
	// Default 90s; negative disables.
	ReadTimeout time.Duration
	// StaleTTL quarantines dead agents out of OutputMerged: an agent
	// whose last report is older than the TTL stops contributing its
	// frozen window to merged outputs (the ledger entry survives, and
	// the agent re-enters the merge with its next report). 0 disables
	// — merged outputs then serve stale state forever, the
	// pre-fault-plane behavior.
	StaleTTL time.Duration
	// Obs, when set, registers the controller's transfer ledger and
	// fleet gauges (memento_controller_*). One controller per registry:
	// names are flat.
	Obs *obs.Registry
	// Trace, when set, receives fleet lifecycle events: agent
	// connect/disconnect, chain resyncs, stale-TTL quarantine and
	// requalification, and checkpoint writes.
	Trace *obs.Trace
}

// Controller accepts agent connections, folds their reports into a
// single (H-)Memento instance and can broadcast mitigation verdicts.
type Controller struct {
	cfg  ControllerConfig
	hier hierarchy.Hierarchy

	mu  sync.Mutex
	abs *Absorber // Section 4.3's fold of sampled batches; used under mu

	connMu    sync.Mutex
	conns     map[*agentConn]string
	listeners []net.Listener

	// snapMu guards the per-agent state: every agent's transfer ledger
	// and each delta agent's follower. Entries are keyed by agent name
	// and survive disconnects, so merged outputs keep covering nodes
	// that just went away (their windows go stale, they don't vanish).
	// Lock order: snapMu before a follower's mu, and nothing takes
	// snapMu while it holds a follower's mu.
	snapMu sync.Mutex
	agents map[string]*agentState

	// mergeMu guards the reusable Merger behind OutputMerged and its
	// scratch: the followers merged and their replicas.
	mergeMu sync.Mutex
	merger  shard.Merger
	mfols   []*follower
	msnaps  []*core.HHHSnapshot

	// The transfer ledger: always-allocated obs counters (cache-line
	// padded, nil-safe by construction here) so the same cells back
	// both the accessor API and the Obs registry export.
	reports  *obs.Counter
	deltas   *obs.Counter
	resyncs  *obs.Counter
	pings    *obs.Counter
	bytesIn  *obs.Counter
	rejected *obs.Counter
	dropped  *obs.Counter // agents dropped for missing a Broadcast deadline
	tracedIn *obs.Counter // traced reports applied
	trace    *obs.Trace   // nil when tracing is disabled

	// captureApply is the end-to-end report span histogram: capture
	// stamp (agent clock) to apply time (controller clock), nanoseconds.
	// Always allocated; exported when Obs is set.
	captureApply obs.Histogram

	// ckpt guards the warm-restart chain encoder (EnableDeltaCheckpoints).
	ckptMu  sync.Mutex
	tracker *delta.Tracker

	closed sync.Once
	done   chan struct{}
	wg     sync.WaitGroup
}

// writeTimeout bounds each frame the controller writes to an agent (a
// verdict, a pong, a resync request): an agent that cannot absorb a
// frame within it is dropped (its connection closed) instead of
// stalling mitigation for everyone.
const writeTimeout = 2 * time.Second

// agentConn wraps one agent's connection with a write mutex: the
// connection's handler (resync requests) and Broadcast (verdicts)
// both write frames, and each write brackets itself with a deadline —
// unserialized, one goroutine's deadline-clear could strip the
// other's mid-write, resurrecting the unbounded-stall bug the
// per-conn deadline exists to prevent.
type agentConn struct {
	net.Conn
	wmu  sync.Mutex
	wbuf []byte // guarded by wmu: the recycled outgoing frame
}

// writeFrameTimeout writes one frame under the connection's write
// lock and deadline.
func (c *agentConn) writeFrameTimeout(d time.Duration, msgType byte, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	frame, err := appendFrame(c.wbuf[:0], msgType, payload)
	if err != nil {
		return err
	}
	c.wbuf = frame
	c.SetWriteDeadline(time.Now().Add(d))
	_, err = c.Write(frame)
	c.SetWriteDeadline(time.Time{})
	return err
}

// agentState is the controller-side ledger of one agent (by name).
type agentState struct {
	reports    uint64
	deltas     uint64
	resyncs    uint64
	bytes      uint64
	covered    uint64
	fol        *follower // the agent's chain state, nil in sampled mode
	lastReport time.Time // when the last state-bearing report arrived (stale TTL input)
	stale      bool      // quarantine edge-detector for trace events (OutputMerged sets, account clears)

	// Report-tracing ledger: traced counts applied MsgTraced reports,
	// lastCapture is the capture stamp of the newest one — "now −
	// lastCapture" is the freshness age of this agent's applied state.
	traced      uint64
	lastCapture int64
	freshReg    bool // per-agent freshness gauge registered (first-wins)
}

// follower is one delta agent's chain state. Its replica is the only
// copy of the agent's sketch the controller keeps: the agent's
// connection handler patches it in place record by record, and merged
// reads run over it, all under mu.
type follower struct {
	mu    sync.Mutex
	chain *delta.State // guarded by mu
}

// AgentStat reports one agent's transfer ledger.
type AgentStat struct {
	Name    string
	Reports uint64 // sampled batches absorbed
	Deltas  uint64 // chain records applied
	Resyncs uint64 // chain re-bases the controller had to request
	Bytes   uint64 // wire bytes received (frames incl. framing overhead)
	// Covered is the packets the agent reported covering. Sampled
	// batches accumulate it; chain records carry a cumulative total,
	// so for a delta agent it is exactly the packets the agent has
	// observed — frames lost in flight leave no permanent hole.
	Covered uint64
	// SinceReport is the age of the agent's last state-bearing report;
	// Stale marks agents past the StaleTTL, quarantined out of
	// OutputMerged until they report again.
	SinceReport time.Duration
	Stale       bool
	// TracedReports counts applied MsgTraced reports; Freshness is the
	// age of the agent's applied state measured from its own capture
	// stamp (0 until a traced report applies). Unlike SinceReport it
	// charges queue and wire time, not just arrival gaps.
	TracedReports uint64
	Freshness     time.Duration
}

// NewController validates cfg and builds a controller.
func NewController(cfg ControllerConfig) (*Controller, error) {
	if cfg.Hier == nil {
		return nil, errors.New("netwide: controller needs a hierarchy")
	}
	if err := cfg.Params.Normalize(cfg.Hier.Dims()); err != nil {
		return nil, err
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x636f6e74726f6c // "control"
	}
	abs, err := NewAbsorber(cfg.Hier, cfg.Params, cfg.Counters, cfg.Delta, seed+1, rng.New(seed))
	if err != nil {
		return nil, err
	}
	if cfg.HandshakeTimeout == 0 {
		cfg.HandshakeTimeout = 10 * time.Second
	}
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = 90 * time.Second
	}
	c := &Controller{
		cfg:      cfg,
		hier:     cfg.Hier,
		abs:      abs,
		conns:    map[*agentConn]string{},
		agents:   map[string]*agentState{},
		done:     make(chan struct{}),
		reports:  &obs.Counter{},
		deltas:   &obs.Counter{},
		resyncs:  &obs.Counter{},
		pings:    &obs.Counter{},
		bytesIn:  &obs.Counter{},
		rejected: &obs.Counter{},
		dropped:  &obs.Counter{},
		tracedIn: &obs.Counter{},
		trace:    cfg.Trace,
	}
	if r := cfg.Obs; r != nil {
		r.RegisterCounter("memento_controller_reports_total", c.reports)
		r.RegisterCounter("memento_controller_deltas_total", c.deltas)
		r.RegisterCounter("memento_controller_resyncs_total", c.resyncs)
		r.RegisterCounter("memento_controller_pings_total", c.pings)
		r.RegisterCounter("memento_controller_bytes_in_total", c.bytesIn)
		r.RegisterCounter("memento_controller_rejected_total", c.rejected)
		r.RegisterCounter("memento_controller_dropped_agents_total", c.dropped)
		r.RegisterCounter("memento_controller_traced_reports_total", c.tracedIn)
		r.RegisterHistogram("memento_controller_capture_apply_ns", &c.captureApply)
		r.RegisterFunc("memento_controller_agents",
			func() float64 { return float64(c.Agents()) })
		r.RegisterFunc("memento_controller_stale_agents",
			func() float64 { return float64(c.StaleAgents()) })
	}
	return c, nil
}

// Serve accepts agents on ln until Close is called. It blocks; run it
// in a goroutine.
func (c *Controller) Serve(ln net.Listener) error {
	c.connMu.Lock()
	c.listeners = append(c.listeners, ln)
	c.connMu.Unlock()
	select {
	case <-c.done:
		ln.Close()
		return nil
	default:
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-c.done:
				return nil
			default:
				return fmt.Errorf("netwide: accept: %w", err)
			}
		}
		select {
		case <-c.done: // accept raced Close; don't start a handler
			conn.Close()
			return nil
		default:
		}
		c.wg.Add(1)
		go c.handle(conn)
	}
}

// handle runs one agent connection to completion.
func (c *Controller) handle(conn net.Conn) {
	defer c.wg.Done()
	defer conn.Close()
	log := c.cfg.Log.With("remote", conn.RemoteAddr().String())

	// Register the connection before the handshake so Close can tear
	// it down. An accept can race Close (the agent's Hello is
	// fire-and-forget, so its dial returns before this handler runs);
	// checking done under connMu makes the outcome binary — either
	// Close sees the conn in the table and closes it, or this handler
	// sees done and bails.
	wc := &agentConn{Conn: conn}
	c.connMu.Lock()
	select {
	case <-c.done:
		c.connMu.Unlock()
		return
	default:
	}
	c.conns[wc] = "" // pre-handshake placeholder; named after Hello
	c.connMu.Unlock()
	defer func() {
		c.connMu.Lock()
		delete(c.conns, wc)
		c.connMu.Unlock()
	}()

	// One frame reader serves the connection's whole life: bytes it
	// buffered past the Hello belong to the steady loop. The handshake
	// read runs under its own deadline: a connection that never sends
	// a Hello must not park this goroutine forever.
	fr := newFrameReader(conn)
	if c.cfg.HandshakeTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(c.cfg.HandshakeTimeout))
	}
	msgType, payload, err := fr.next()
	if err != nil {
		log.Warn("handshake read failed", "err", err)
		return
	}
	conn.SetReadDeadline(time.Time{})
	if msgType != MsgHello {
		c.rejected.Inc()
		log.Warn("first frame was not hello", "type", msgType)
		return
	}
	hello, err := decodeHello(payload)
	if err != nil {
		c.rejected.Inc()
		log.Warn("bad hello", "err", err)
		return
	}
	wantTau := c.cfg.Params.Tau()
	if math.Abs(hello.Tau-wantTau) > 1e-9 || int(hello.Batch) != c.cfg.Params.BatchSize {
		c.rejected.Inc()
		log.Warn("agent configuration mismatch",
			"agent", hello.Name, "tau", hello.Tau, "want_tau", wantTau,
			"batch", hello.Batch, "want_batch", c.cfg.Params.BatchSize)
		return
	}
	helloBytes := uint64(len(payload)) + 9
	c.connMu.Lock()
	for cn, name := range c.conns {
		if cn != wc && name == hello.Name {
			c.connMu.Unlock()
			c.rejected.Inc()
			// Per-agent state (latest chain state, byte ledger) is keyed
			// by name, so a second live connection with the same name
			// would silently overwrite the first agent's sketch and
			// conflate the ledgers. Reconnecting after a disconnect is
			// fine — the stale entry's name is freed with its conn.
			log.Warn("duplicate agent name", "agent", hello.Name)
			return
		}
	}
	c.conns[wc] = hello.Name
	c.connMu.Unlock()
	log.Info("agent joined", "agent", hello.Name)
	// The controller cannot tell a first join from a redial (the agent
	// side records EvReconnect with its generation); here every accepted
	// handshake is a connect and every handler exit a disconnect.
	c.trace.Record(obs.EvConnect, hello.Name, 0)
	defer c.trace.Record(obs.EvDisconnect, hello.Name, 0)
	// The byte ledger counts every frame an accepted agent ships,
	// including its Hello — the bench's bytes-per-report comparison
	// charges real wire cost, not just report payloads.
	c.bytesIn.Add(helloBytes)
	c.accountBytes(hello.Name, helloBytes)

	// fol is the agent's chain follower (delta report mode), kept by
	// name: a reconnecting agent re-bases the chain it left, and its
	// last applied state stays in the merge until then.
	var fol *follower
	// samples is this connection's recycled batch decode scratch: a
	// batch is absorbed before the next frame is read.
	var samples []hierarchy.Packet

	for {
		// Steady-state reads run under ReadTimeout: agents heartbeat,
		// so only a genuinely unreachable peer (dead TCP, one-way
		// partition) trips it — and freeing its handler is exactly
		// what lets the agent's redial re-claim the name.
		if c.cfg.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(c.cfg.ReadTimeout))
		}
		// The payload is valid until the next read: everything below
		// consumes it (or copies out of it) before the loop comes back.
		msgType, payload, err := fr.next()
		if err != nil {
			log.Info("agent left", "agent", hello.Name, "err", err)
			return
		}
		// frameBytes charges the wire cost of the frame as received —
		// including, for traced reports, the envelope the unwrap below
		// strips. The ledger accounts bytes, not payload semantics.
		frameBytes := uint64(len(payload)) + 9
		var tc codec.TraceContext
		traced := false
		if msgType == MsgTraced {
			inner, ctx, innerPayload, err := decodeTracedReport(payload)
			if err != nil {
				log.Warn("bad traced report", "agent", hello.Name, "err", err)
				return
			}
			if ctx.AgentID != hello.Name {
				// The context identifies the capture; a name that differs
				// from the handshake is a confused or hostile peer.
				log.Warn("trace context name mismatch",
					"agent", hello.Name, "context", ctx.AgentID)
				return
			}
			msgType, payload, tc, traced = inner, innerPayload, ctx, true
		}
		switch msgType {
		case MsgPing:
			seq, err := decodePing(payload)
			if err != nil {
				log.Warn("bad ping", "agent", hello.Name, "err", err)
				return
			}
			c.bytesIn.Add(frameBytes)
			c.accountBytes(hello.Name, frameBytes)
			pong := payload
			if seq == traceProbeSeq {
				// Trace probe: ack it so the agent starts wrapping reports.
				// A pre-tracing controller echoes the probe verbatim, as it
				// does every ping, and the agent stays untraced.
				pong = encodePing(traceProbeAck)
			} else {
				c.pings.Inc()
			}
			if werr := wc.writeFrameTimeout(writeTimeout, MsgPong, pong); werr != nil {
				log.Warn("pong write failed", "agent", hello.Name, "err", werr)
				return
			}
		case MsgBatch:
			batch, err := decodeBatch(payload, samples)
			if err != nil {
				log.Warn("bad batch", "agent", hello.Name, "err", err)
				return
			}
			samples = batch.Samples
			c.reports.Inc()
			c.bytesIn.Add(frameBytes)
			c.account(hello.Name, frameBytes, batch.Covered, false)
			c.absorb(batch)
			if traced {
				c.completeTrace(hello.Name, tc)
			}
		case MsgDelta:
			rep, err := decodeDeltaReport(payload)
			if err != nil {
				log.Warn("bad delta report", "agent", hello.Name, "err", err)
				return
			}
			c.bytesIn.Add(frameBytes)
			c.accountBytes(hello.Name, frameBytes)
			if fol == nil {
				fol = c.follower(hello.Name)
			}
			// The record patches the replica in place under the
			// follower's lock, so a merged read sees it before or after,
			// never half-applied: Apply validates a record in full
			// before it writes, and a base of another hierarchy is
			// dropped before the lock is released. No snapshot is built
			// per record: on the fleet benchmark's agent (2048 counters,
			// ~5 500 overflow entries, one ~9 KB record per 8192
			// packets; 2-vCPU host) a record's apply reads ≈ 105 µs,
			// the per-record snapshot this replaced cost ≈ 115–130 µs
			// more, and the flush-to-covered wait of a control tick
			// went 0.43 → 0.25 ms without it.
			fol.mu.Lock()
			err = fol.chain.Apply(rep.Record)
			mismatch := err == nil && !hierarchy.Same(fol.chain.Hierarchy(), c.hier)
			if mismatch {
				log.Warn("chain hierarchy mismatch",
					"agent", hello.Name, "got", fol.chain.Hierarchy().String(), "want", c.hier.String())
				fol.chain.Reset()
			}
			fol.mu.Unlock()
			if mismatch {
				return
			}
			if err != nil {
				if !errors.Is(err, delta.ErrEpochGap) {
					// Corrupt or misconfigured: same contract as a bad
					// batch — drop the connection.
					log.Warn("bad chain record", "agent", hello.Name, "err", err)
					return
				}
				// A lost record (backpressure on either side): ask for
				// a fresh base and keep the stale applied state
				// queryable, exactly like a disconnected agent's.
				c.resyncs.Inc()
				c.accountResync(hello.Name)
				c.trace.Record(obs.EvResync, hello.Name, 0)
				log.Info("chain gap, requesting resync", "agent", hello.Name, "err", err)
				if werr := wc.writeFrameTimeout(writeTimeout, MsgResync, nil); werr != nil {
					log.Warn("resync request failed", "agent", hello.Name, "err", werr)
					return
				}
				continue
			}
			c.deltas.Inc()
			c.account(hello.Name, 0, rep.Covered, true)
			if traced {
				c.completeTrace(hello.Name, tc)
			}
		default:
			log.Warn("unexpected frame from agent", "agent", hello.Name, "type", msgType)
			return
		}
	}
}

// account updates an agent's transfer ledger for one report: a sampled
// batch or an applied chain record. Sampled batches carry per-report
// coverage and accumulate; chain records carry a cumulative total and
// the ledger keeps the max, so a record lost in flight leaves no
// permanent hole once a later one lands.
func (c *Controller) account(name string, bytes, covered uint64, chain bool) {
	now := time.Now()
	c.snapMu.Lock()
	st := c.agentLocked(name)
	st.bytes += bytes
	st.lastReport = now
	if st.stale {
		// Recorded before snapMu is released (the trace mutex is a leaf
		// lock), so a reader that sees the agent fresh also sees the
		// event that re-admitted it.
		c.trace.Record(obs.EvRequalify, name, 0)
	}
	st.stale = false
	if chain {
		st.deltas++
		st.covered = max(st.covered, covered)
	} else {
		st.reports++
		st.covered += covered
	}
	c.snapMu.Unlock()
}

// follower returns name's chain follower, creating it on the agent's
// first chain record.
func (c *Controller) follower(name string) *follower {
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	st := c.agentLocked(name)
	if st.fol == nil {
		st.fol = &follower{chain: delta.NewState()}
	}
	return st.fol
}

// accountBytes adds wire bytes to an agent's ledger without counting
// a report (Hello frames, chain records before they apply).
func (c *Controller) accountBytes(name string, bytes uint64) {
	c.snapMu.Lock()
	c.agentLocked(name).bytes += bytes
	c.snapMu.Unlock()
}

// accountResync counts one requested chain re-base.
func (c *Controller) accountResync(name string) {
	c.snapMu.Lock()
	c.agentLocked(name).resyncs++
	c.snapMu.Unlock()
}

// completeTrace closes one report span at apply time: the capture→apply
// latency lands in the histogram and the event trace, and the agent's
// capture stamp feeds its freshness gauge. Latencies mix the agent's
// clock (capture) with the controller's (apply); on one host that skew
// is noise, across hosts the histogram measures clock offset plus
// transit — which is still the operative answer to "how old is the
// state I am querying".
func (c *Controller) completeTrace(name string, tc codec.TraceContext) {
	lat := time.Now().UnixNano() - tc.CaptureNanos
	if lat < 0 {
		lat = 0 // agent clock ahead of ours; clamp rather than wrap
	}
	c.captureApply.Observe(uint64(lat))
	c.trace.Record(obs.EvReportSpan, name, uint64(lat))
	c.snapMu.Lock()
	st := c.agentLocked(name)
	st.traced++
	// Counted last, once the report applied and its span is in the
	// histogram and the ledger: a reader that sees
	// memento_controller_traced_reports_total = n sees at least n spans
	// in both.
	c.tracedIn.Inc()
	st.lastCapture = tc.CaptureNanos
	register := !st.freshReg && c.cfg.Obs != nil
	st.freshReg = st.freshReg || register
	c.snapMu.Unlock()
	if register {
		// Freshness: age of this agent's applied state, measured from
		// its own capture stamp. Registered lazily on the first traced
		// report; the registry is first-wins, so a reconnecting agent
		// (same name, same ledger entry) never double-registers.
		c.cfg.Obs.RegisterFunc("memento_controller_freshness_ns_"+metricName(name),
			func() float64 {
				c.snapMu.Lock()
				cap := c.agentLocked(name).lastCapture
				c.snapMu.Unlock()
				if cap == 0 {
					return 0
				}
				return float64(time.Now().UnixNano() - cap)
			})
	}
}

// metricName folds an agent name into the exported-metric charset
// ([a-z0-9_]): uppercase is lowered, everything else not in the set
// becomes '_'.
func metricName(name string) string {
	b := []byte(name)
	for i, ch := range b {
		switch {
		case ch >= 'a' && ch <= 'z', ch >= '0' && ch <= '9', ch == '_':
		case ch >= 'A' && ch <= 'Z':
			b[i] = ch + ('a' - 'A')
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// agentLocked returns name's ledger entry; the caller holds snapMu.
func (c *Controller) agentLocked(name string) *agentState {
	st := c.agents[name]
	if st == nil {
		st = &agentState{}
		c.agents[name] = st
	}
	return st
}

// absorb folds one sampled batch into the controller's sketch.
func (c *Controller) absorb(b Batch) {
	c.mu.Lock()
	c.abs.Absorb(b)
	c.mu.Unlock()
}

// Estimate returns the network-wide window frequency estimate for a
// prefix.
func (c *Controller) Estimate(p hierarchy.Prefix) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.abs.hh.Query(p)
}

// Output returns the network-wide HHH set at threshold theta. It runs
// the sparse read plane on the live sketch under the ingest lock: the
// sweep visits only the entries that can reach θ·W, which costs less
// than copying the sketch out would.
func (c *Controller) Output(theta float64) []hhhset.Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.abs.hh.OutputTo(theta, nil)
}

// Broadcast pushes verdicts to every connected agent, returning the
// number of agents reached. Each write runs under writeTimeout, so a
// stalled agent (dead TCP peer, full pipe) cannot block the loop — and
// so Mitigate: it is dropped (connection closed, handler cleans up,
// memento_controller_dropped_agents_total counts it) while the rest of
// the fleet still receives the verdicts.
func (c *Controller) Broadcast(vs []Verdict) (int, error) {
	payload, err := encodeVerdicts(vs)
	if err != nil {
		return 0, err
	}
	c.connMu.Lock()
	conns := make([]*agentConn, 0, len(c.conns))
	names := make([]string, 0, len(c.conns))
	for conn, name := range c.conns {
		if name == "" { // pre-handshake: not an agent yet
			continue
		}
		conns = append(conns, conn)
		names = append(names, name)
	}
	c.connMu.Unlock()
	n := 0
	for i, conn := range conns {
		if err := conn.writeFrameTimeout(writeTimeout, MsgVerdict, payload); err != nil {
			c.dropped.Inc()
			c.cfg.Log.Warn("dropping agent: verdict write failed",
				"agent", names[i], "err", err)
			conn.Close()
			continue
		}
		n++
	}
	return n, nil
}

// VerdictsFrom is the one verdict policy: it appends to dst a verdict
// with action act for every entry of an HHH set that names a source
// subnet — never the root (the whole internet), never a prefix with a
// destination part — and whose estimate itself reaches threshold (θ·W).
//
// Membership in the HHH set uses conditioned frequencies padded with
// the sampling slack, which guarantees coverage (no attacking subnet
// is missed) at the cost of borderline false positives. Blocking a
// subnet is a different trade-off, so entries that are in the set only
// via that margin earn no verdict.
func VerdictsFrom(entries []hhhset.Entry, threshold float64, act Action, dst []Verdict) []Verdict {
	for _, e := range entries {
		p := e.Prefix
		if p.SrcLen == 0 || p.DstLen != 0 || e.Estimate < threshold {
			continue
		}
		dst = append(dst, Verdict{Subnet: p.Src, PrefixBytes: p.SrcLen, Act: act})
	}
	return dst
}

// Compensation returns the sampling compensation 2·Z_{1−δ}·√(V·W)
// of the controller's sketch: Output selects every prefix it tracks
// unless θ·W exceeds it.
func (c *Controller) Compensation() float64 { return c.abs.hh.Compensation() }

// Mitigate computes the HHH set at theta and broadcasts the given
// action for every subnet VerdictsFrom selects from it (the DDoS
// application of Section 6.4). It returns the verdicts sent.
func (c *Controller) Mitigate(theta float64, act Action) ([]Verdict, error) {
	vs := VerdictsFrom(c.Output(theta), theta*float64(c.abs.hh.EffectiveWindow()), act, nil)
	if len(vs) == 0 {
		return nil, nil
	}
	if _, err := c.Broadcast(vs); err != nil {
		return nil, err
	}
	return vs, nil
}

// OutputMerged returns the network-wide HHH set computed from the
// latest state each delta agent's chain delivered, merged with
// the shard layer's estimate math (shard.Merger): the global window
// is the sum of the agents' windows, each agent's contribution is
// skew-corrected by its share of the captured update counts, and the
// sampling compensations combine as a root sum of squares. Agents in
// sampled mode contribute nothing here — query Output for the sampled
// sketch. The merge reads each agent's replica in place under its
// follower's lock, so a record for that agent applies before or after
// the merge, never during it; agents' records do not wait on each
// other.
func (c *Controller) OutputMerged(theta float64) []hhhset.Entry {
	c.mergeMu.Lock()
	defer c.mergeMu.Unlock()
	c.mfols = c.mergedFollowers(c.mfols[:0], true)
	for _, f := range c.mfols {
		f.mu.Lock()
		if rep := f.chain.Replica(); rep != nil {
			c.msnaps = append(c.msnaps, rep)
		}
	}
	out := c.merger.Output(c.hier, c.msnaps, theta, nil)
	for _, f := range c.mfols {
		f.mu.Unlock()
	}
	clear(c.msnaps) // pin no replica a base has since replaced
	c.msnaps = c.msnaps[:0]
	clear(c.mfols)
	return out
}

// MergedSnapshots appends a copy of the latest applied state of every
// non-stale delta agent to dst — the set OutputMerged merges, as it
// stands when each agent's copy is taken — and returns it. The copies
// are the caller's: the audit plane feeds them to a shard.Merger
// (Prepare/Bounds/Release) to compare exact per-key counts against the
// merged fleet bounds.
func (c *Controller) MergedSnapshots(dst []*core.HHHSnapshot) []*core.HHHSnapshot {
	for _, f := range c.mergedFollowers(nil, false) {
		f.mu.Lock()
		if rep := f.chain.Replica(); rep != nil {
			dst = append(dst, rep.Clone())
		}
		f.mu.Unlock()
	}
	return dst
}

// stale reports whether st's last report has aged past the StaleTTL.
func (c *Controller) stale(st *agentState, now time.Time) bool {
	return c.cfg.StaleTTL > 0 && now.Sub(st.lastReport) > c.cfg.StaleTTL
}

// mergedFollowers is the one collector behind OutputMerged and
// MergedSnapshots: the followers of the delta agents whose chains have
// applied a record. A stale agent is skipped — a dead agent's frozen
// window must not haunt merged outputs forever — until its next report
// re-admits it; OutputMerged's scan (quarantine set) also marks and
// traces an agent it finds stale for the first time, under snapMu like
// the requalify edge in account.
func (c *Controller) mergedFollowers(dst []*follower, quarantine bool) []*follower {
	now := time.Now()
	c.snapMu.Lock()
	for name, st := range c.agents {
		switch {
		case st.deltas == 0:
		case !c.stale(st, now):
			dst = append(dst, st.fol)
		case quarantine && !st.stale && c.trace != nil:
			st.stale = true
			c.trace.Record(obs.EvQuarantine, name, 0)
		}
	}
	c.snapMu.Unlock()
	return dst
}

// AgentStats returns the per-agent transfer ledger: reports, chain
// records, wire bytes and covered packets, the controller-side half
// of the accuracy-vs-bandwidth accounting. Entries survive
// disconnects.
func (c *Controller) AgentStats() []AgentStat {
	now := time.Now()
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	out := make([]AgentStat, 0, len(c.agents))
	for name, st := range c.agents {
		age := now.Sub(st.lastReport)
		var fresh time.Duration
		if st.lastCapture != 0 {
			fresh = time.Duration(now.UnixNano() - st.lastCapture)
		}
		out = append(out, AgentStat{
			Name: name, Reports: st.reports,
			Deltas: st.deltas, Resyncs: st.resyncs,
			Bytes: st.bytes, Covered: st.covered,
			SinceReport:   age,
			Stale:         c.stale(st, now),
			TracedReports: st.traced,
			Freshness:     fresh,
		})
	}
	return out
}

// EnableDeltaCheckpoints creates the controller's warm-restart chain
// encoder (restore plane, exact fidelity). chain 0 draws a random
// identity. Idempotent after the first call.
func (c *Controller) EnableDeltaCheckpoints(chain uint64) error {
	c.ckptMu.Lock()
	defer c.ckptMu.Unlock()
	if c.tracker != nil {
		return nil
	}
	// The tracker hooks the sketch's delta plane; take the ingest lock
	// so enabling never races an absorb.
	c.mu.Lock()
	tr, err := delta.NewTracker(c.abs.hh, delta.TrackerConfig{Chain: chain, Restore: true})
	c.mu.Unlock()
	if err != nil {
		return err
	}
	c.tracker = tr
	return nil
}

// WriteChain writes the controller sketch's next chain record to w —
// a base when rebase is set or the chain needs one — and reports
// whether a base was written. Implements delta.Source: hand the
// controller to a delta.Checkpointer for periodic warm-restart
// checkpoints. The ingest lock is held only for the capture.
func (c *Controller) WriteChain(w io.Writer, rebase bool) (bool, error) {
	c.ckptMu.Lock()
	defer c.ckptMu.Unlock()
	if c.tracker == nil {
		return false, errors.New("netwide: delta checkpoints not enabled")
	}
	if rebase {
		c.tracker.ForceBase()
	}
	c.mu.Lock()
	err := c.tracker.Capture()
	c.mu.Unlock()
	if err != nil {
		return false, err
	}
	record, base, err := c.tracker.AppendCaptured(nil)
	if err != nil {
		return base, err
	}
	_, err = w.Write(record)
	if err == nil {
		c.trace.Record(obs.EvCheckpoint, "controller", uint64(len(record)))
	}
	return base, err
}

// RestoreChain rehydrates the controller's sketch from a warm-restart
// chain: the base record stream followed by its deltas in order
// (delta.FindChain's layout). The chain's configuration must match
// the controller's (codec.ErrConfigMismatch otherwise); on success
// the sketch resumes sliding exactly where the last record left it.
func (c *Controller) RestoreChain(base io.Reader, deltas ...io.Reader) error {
	st := delta.NewState()
	apply := func(r io.Reader) error {
		rec, err := io.ReadAll(io.LimitReader(r, codec.MaxRecord+1))
		if err != nil {
			return err
		}
		return st.Apply(rec)
	}
	if err := apply(base); err != nil {
		return fmt.Errorf("netwide: chain base: %w", err)
	}
	for i, d := range deltas {
		if err := apply(d); err != nil {
			return fmt.Errorf("netwide: chain delta %d: %w", i, err)
		}
	}
	snap, err := st.Snapshot()
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.abs.hh.RestoreFrom(snap)
}

// Agents returns the number of connected agents (handshake complete).
func (c *Controller) Agents() int {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	n := 0
	for _, name := range c.conns {
		if name != "" {
			n++
		}
	}
	return n
}

// Reports returns the number of sampled reports absorbed.
func (c *Controller) Reports() uint64 { return c.reports.Load() }

// Snapshots always returns 0: the snapshot report mode is retired, and
// Deltas counts the chain records that carry the same state.
//
// Deprecated: use Deltas.
func (c *Controller) Snapshots() uint64 { return 0 }

// Deltas returns the number of chain records applied.
func (c *Controller) Deltas() uint64 { return c.deltas.Load() }

// Resyncs returns the number of chain re-bases requested from agents.
func (c *Controller) Resyncs() uint64 { return c.resyncs.Load() }

// StaleAgents returns how many delta agents are currently
// quarantined out of OutputMerged by the stale TTL.
func (c *Controller) StaleAgents() int {
	now := time.Now()
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	n := 0
	for _, st := range c.agents {
		if st.deltas > 0 && c.stale(st, now) {
			n++
		}
	}
	return n
}

// BytesIn returns total payload bytes received from agents (including
// per-frame framing overhead).
func (c *Controller) BytesIn() uint64 { return c.bytesIn.Load() }

// Rejected returns the number of connections refused at handshake.
func (c *Controller) Rejected() uint64 { return c.rejected.Load() }

// Close stops serving and closes all connections.
func (c *Controller) Close() error {
	c.closed.Do(func() {
		close(c.done)
		c.connMu.Lock()
		for _, ln := range c.listeners {
			ln.Close()
		}
		for conn := range c.conns {
			conn.Close()
		}
		c.connMu.Unlock()
	})
	c.wg.Wait()
	return nil
}
