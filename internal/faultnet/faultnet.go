// Package faultnet wraps net.Conn / net.Listener with deterministic
// fault injection for chaos-testing the fleet plane: write drops,
// bounded delays, segmented (partial) writes, mid-write connection
// resets and one-way partitions, all driven by an internal/rng-seeded
// source so a failing schedule replays from its seed.
//
// One Injector carries the fault state for every connection wrapped
// through it; tests flip its knobs mid-run (SetFault, Partition,
// Heal) to script a fault schedule. Faults are decided per Write call
// under the injector's lock — with concurrent connections the
// interleaving (and hence which write eats which fault) follows the
// scheduler, so tests assert convergence and accounting, not exact
// fault placement.
//
// Fault semantics, chosen to exercise the protocol layer the way real
// networks do:
//
//   - Drop: the Write reports success but nothing is sent. The peer's
//     stream loses a frame mid-sequence, so its next read desyncs
//     (bad length prefix or CRC) and the connection dies — exactly
//     how a filtered packet kills a framed TCP protocol.
//   - Delay: the Write sleeps a bounded, rng-drawn time first.
//   - Partial: the Write is split into two underlying writes. TCP
//     semantics are unchanged — this exercises the peer's short-read
//     (io.ReadFull across segment boundaries) paths.
//   - Reset: half the buffer is written, then the connection closes
//     and the Write errors — a mid-frame RST. Like a TCP write, the
//     Write reports the bytes that went out before the error, so a
//     writer that coalesces frames can tell which ones arrived whole.
//   - Partition: one-way cuts relative to the wrapped endpoint.
//     Outbound cut: writes are blackholed (reported successful).
//     Inbound cut: reads stall as an unreachable peer would — but
//     still honor the connection's read deadline, so a controller
//     read timeout fires through a partition like through silence.
package faultnet

import (
	"net"
	"os"
	"sync"
	"time"

	"memento/internal/rng"
)

// Fault is a probability profile for write-side faults. Zero is a
// transparent wrapper.
type Fault struct {
	// Drop is the probability a Write is silently discarded.
	Drop float64
	// Reset is the probability a Write turns into a half-written
	// buffer followed by a connection close and an error; the Write
	// returns the count of bytes it wrote.
	Reset float64
	// Delay is the probability a Write is delayed; DelayBound bounds
	// the rng-drawn sleep (uniform in (0, DelayBound]).
	Delay      float64
	DelayBound time.Duration
	// Partial is the probability a Write is split into two segments.
	Partial float64
}

// Stats counts injected faults across all connections of an Injector.
type Stats struct {
	Drops      uint64 // writes silently discarded
	Resets     uint64 // connections reset mid-write
	Delays     uint64 // writes delayed
	Partials   uint64 // writes segmented
	Blackholed uint64 // writes eaten by an outbound partition
	Delivered  uint64 // writes passed through untouched
}

// Injector is shared fault state for a set of wrapped connections.
type Injector struct {
	mu     sync.Mutex
	src    *rng.Source   // guarded by mu
	fault  Fault         // guarded by mu
	cutIn  bool          // guarded by mu: inbound (read-side) partition
	cutOut bool          // guarded by mu: outbound (write-side) partition
	epoch  chan struct{} // guarded by mu: closed and replaced on every state change
	stats  Stats         // guarded by mu
}

// NewInjector builds a transparent injector; flip faults on with
// SetFault and Partition. The seed drives every probabilistic choice.
func NewInjector(seed uint64) *Injector {
	if seed == 0 {
		seed = 1
	}
	return &Injector{src: rng.New(seed), epoch: make(chan struct{})}
}

// SetFault installs a new write-fault profile.
func (inj *Injector) SetFault(f Fault) {
	inj.mu.Lock()
	inj.fault = f
	inj.bumpLocked()
	inj.mu.Unlock()
}

// Partition sets the one-way cuts: inbound stalls reads through this
// injector, outbound blackholes writes. Directions are relative to
// the wrapped endpoint.
func (inj *Injector) Partition(inbound, outbound bool) {
	inj.mu.Lock()
	inj.cutIn, inj.cutOut = inbound, outbound
	inj.bumpLocked()
	inj.mu.Unlock()
}

// Heal clears every fault and partition.
func (inj *Injector) Heal() {
	inj.mu.Lock()
	inj.fault = Fault{}
	inj.cutIn, inj.cutOut = false, false
	inj.bumpLocked()
	inj.mu.Unlock()
}

// Stats returns a copy of the fault counters.
func (inj *Injector) Stats() Stats {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.stats
}

// bumpLocked wakes partition-stalled readers so they recheck state;
// the caller holds mu.
//
//memento:locked mu
func (inj *Injector) bumpLocked() {
	close(inj.epoch)
	inj.epoch = make(chan struct{})
}

// inbound reports the read-side partition state and the channel that
// signals its next change.
func (inj *Injector) inbound() (bool, <-chan struct{}) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.cutIn, inj.epoch
}

// verdict is one write's fate.
type verdict uint8

const (
	passThrough verdict = iota
	dropWrite
	blackholeWrite
	resetConn
	segmentWrite
)

// writeFault rolls one write's fate (and any delay) under the lock.
func (inj *Injector) writeFault() (verdict, time.Duration) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.cutOut {
		inj.stats.Blackholed++
		return blackholeWrite, 0
	}
	f := inj.fault
	var delay time.Duration
	if f.Delay > 0 && inj.src.Float64() < f.Delay && f.DelayBound > 0 {
		delay = time.Duration(inj.src.Float64() * float64(f.DelayBound))
		inj.stats.Delays++
	}
	switch {
	case f.Drop > 0 && inj.src.Float64() < f.Drop:
		inj.stats.Drops++
		return dropWrite, delay
	case f.Reset > 0 && inj.src.Float64() < f.Reset:
		inj.stats.Resets++
		return resetConn, delay
	case f.Partial > 0 && inj.src.Float64() < f.Partial:
		inj.stats.Partials++
		return segmentWrite, delay
	default:
		inj.stats.Delivered++
		return passThrough, delay
	}
}

// WrapConn wraps one connection in the injector's fault state.
func (inj *Injector) WrapConn(c net.Conn) net.Conn {
	return &conn{Conn: c, inj: inj, closed: make(chan struct{})}
}

// WrapListener wraps a listener so every accepted connection is
// fault-injected.
func (inj *Injector) WrapListener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, inj: inj}
}

// listener wraps Accept.
type listener struct {
	net.Listener
	inj *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.inj.WrapConn(c), nil
}

// conn is one fault-injected connection.
type conn struct {
	net.Conn
	inj *Injector

	mu           sync.Mutex
	readDeadline time.Time // guarded by mu: mirrored so partition stalls honor it

	closeOnce sync.Once
	closed    chan struct{}
}

func (c *conn) Read(p []byte) (int, error) {
	for {
		cut, epoch := c.inj.inbound()
		if !cut {
			return c.Conn.Read(p)
		}
		// Partitioned: stall like an unreachable peer. Data the peer
		// already sent waits in kernel buffers and delivers after
		// heal (a long delay), unless the deadline kills the
		// connection first — both are faithful partition outcomes.
		c.mu.Lock()
		dl := c.readDeadline
		c.mu.Unlock()
		var timeout <-chan time.Time
		var timer *time.Timer
		if !dl.IsZero() {
			d := time.Until(dl)
			if d <= 0 {
				return 0, os.ErrDeadlineExceeded
			}
			timer = time.NewTimer(d)
			timeout = timer.C
		}
		select {
		case <-epoch: // state changed; recheck
		case <-timeout:
			return 0, os.ErrDeadlineExceeded
		case <-c.closed:
			if timer != nil {
				timer.Stop()
			}
			return 0, net.ErrClosed
		}
		if timer != nil {
			timer.Stop()
		}
	}
}

func (c *conn) Write(p []byte) (int, error) {
	v, delay := c.inj.writeFault()
	if delay > 0 {
		time.Sleep(delay)
	}
	switch v {
	case dropWrite, blackholeWrite:
		return len(p), nil
	case resetConn:
		n, _ := c.Conn.Write(p[:len(p)/2])
		c.Close()
		return n, errReset
	case segmentWrite:
		half := (len(p) + 1) / 2
		n, err := c.Conn.Write(p[:half])
		if err != nil {
			return n, err
		}
		m, err := c.Conn.Write(p[half:])
		return n + m, err
	default:
		return c.Conn.Write(p)
	}
}

func (c *conn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.closed)
		err = c.Conn.Close()
	})
	return err
}

func (c *conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

func (c *conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

// errReset is the injected mid-write reset error.
var errReset = &net.OpError{Op: "write", Net: "faultnet", Err: os.ErrClosed}
