// Package lb implements the measurement-enabled HTTP load balancer of
// the paper's testbed (Section 6.3). The paper extended HAProxy 1.8.1
// with ACL capabilities to rate-limit or block entire subnets and to
// feed a network-wide measurement controller; this package provides
// the same three capabilities on the Go standard library:
//
//   - an HTTP reverse proxy balancing requests across backends,
//   - a subnet ACL applying controller verdicts (deny / tarpit), and
//   - a per-request measurement hook feeding a netwide.Agent.
//
// Client identity: real deployments take the peer address; the flood
// generator (like the paper's NFQUEUE tool) cannot spoof raw IPs
// without privileges, so the balancer also honours X-Forwarded-For
// when TrustForwardedFor is set — the standard proxy-protocol stand-in
// documented in DESIGN.md §2.
package lb

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"memento/internal/hierarchy"
	"memento/internal/netwide"
)

// ACL holds the current subnet verdicts. It is safe for concurrent
// use: lookups are lock-free on a copy-on-write table.
type ACL struct {
	mu    sync.Mutex
	table atomic.Pointer[map[aclKey]netwide.Action]
}

// aclKey identifies a masked subnet at a prefix length.
type aclKey struct {
	addr uint32
	keep uint8
}

// NewACL returns an empty ACL (everything allowed).
func NewACL() *ACL {
	a := &ACL{}
	empty := map[aclKey]netwide.Action{}
	a.table.Store(&empty)
	return a
}

// Apply installs verdicts; ActionAllow removes an entry.
func (a *ACL) Apply(vs []netwide.Verdict) {
	a.mu.Lock()
	defer a.mu.Unlock()
	old := *a.table.Load()
	next := make(map[aclKey]netwide.Action, len(old)+len(vs))
	for k, v := range old {
		next[k] = v
	}
	for _, v := range vs {
		k := aclKey{addr: hierarchy.MaskBytes(v.Subnet, v.PrefixBytes), keep: v.PrefixBytes}
		if v.Act == netwide.ActionAllow {
			delete(next, k)
		} else {
			next[k] = v.Act
		}
	}
	a.table.Store(&next)
}

// Lookup returns the action for an address: the most specific matching
// subnet wins; no match means allow.
func (a *ACL) Lookup(addr uint32) netwide.Action {
	table := *a.table.Load()
	for keep := uint8(hierarchy.AddrBytes); ; keep-- {
		if act, ok := table[aclKey{addr: hierarchy.MaskBytes(addr, keep), keep: keep}]; ok {
			return act
		}
		if keep == 0 {
			return netwide.ActionAllow
		}
	}
}

// Len returns the number of installed entries.
func (a *ACL) Len() int { return len(*a.table.Load()) }

// Observer receives one event per admitted request; netwide.Agent
// and shard.HHH satisfy it. A monitoring probe against a shard.HHH
// observer (Output/OutputTo for ACL decisions or periodic reports)
// holds each shard lock only for a snapshot copy, so probing never
// stalls the request path for the duration of the heavy-hitter
// computation.
type Observer interface {
	Observe(p hierarchy.Packet)
}

// BatchSink consumes measurement events in batches. Implementations
// MUST be safe for concurrent UpdateBatch calls: the observer hands
// off full buffers outside its own lock, so two handler goroutines
// can flush simultaneously. shard.HHH satisfies it (use Shards: 1
// for a single mutex-guarded sketch); a bare core.HHH does not.
type BatchSink interface {
	UpdateBatch(ps []hierarchy.Packet)
}

// BatchingObserver adapts a BatchSink to the per-request Observer
// hook: events accumulate in a small buffer and flush through the
// sink's batched geometric-skip path, amortizing the sink's lock and
// sampler work across requests. Handler goroutines only contend on
// the short append critical section; the batch hand-off to the sink
// happens outside the buffer lock (full buffers are recycled through
// a pool, so concurrent flushes do not block each other).
type BatchingObserver struct {
	sink BatchSink
	size int
	mu   sync.Mutex
	buf  []hierarchy.Packet
	pool sync.Pool
}

// NewBatchingObserver wraps sink with an event buffer of the given
// size (<= 0 selects 256). Call Flush before reading final results —
// e.g. on shutdown or ahead of a monitoring probe; up to size-1
// events may otherwise sit buffered indefinitely.
func NewBatchingObserver(sink BatchSink, size int) *BatchingObserver {
	if size <= 0 {
		size = 256
	}
	o := &BatchingObserver{sink: sink, size: size}
	o.pool.New = func() any {
		buf := make([]hierarchy.Packet, 0, size)
		return &buf
	}
	o.buf = *o.pool.Get().(*[]hierarchy.Packet)
	return o
}

// Observe implements Observer.
func (o *BatchingObserver) Observe(p hierarchy.Packet) {
	o.mu.Lock()
	o.buf = append(o.buf, p)
	if len(o.buf) < o.size {
		o.mu.Unlock()
		return
	}
	full := o.buf
	o.buf = (*o.pool.Get().(*[]hierarchy.Packet))[:0]
	o.mu.Unlock()
	o.deliver(full)
}

// Flush forwards any buffered events to the sink immediately.
func (o *BatchingObserver) Flush() {
	o.mu.Lock()
	if len(o.buf) == 0 {
		o.mu.Unlock()
		return
	}
	full := o.buf
	o.buf = (*o.pool.Get().(*[]hierarchy.Packet))[:0]
	o.mu.Unlock()
	o.deliver(full)
}

// deliver hands a full buffer to the sink and recycles it.
func (o *BatchingObserver) deliver(full []hierarchy.Packet) {
	o.sink.UpdateBatch(full)
	full = full[:0]
	o.pool.Put(&full)
}

// Config parameterizes a Balancer.
type Config struct {
	// Backends are the upstream server URLs (round-robin). At least
	// one is required.
	Backends []string
	// Observer receives measurement events; nil disables measurement.
	Observer Observer
	// ACL applies subnet verdicts; nil allows everything.
	ACL *ACL
	// TrustForwardedFor accepts the client IP from X-Forwarded-For
	// (testbed mode; see the package comment).
	TrustForwardedFor bool
}

// tarpitDelay is how long a tarpitted request is held before the error
// response (HAProxy's timeout tarpit).
const tarpitDelay = 500 * time.Millisecond

// Balancer is the HTTP reverse-proxy load balancer.
type Balancer struct {
	cfg     Config
	proxies []*httputil.ReverseProxy
	rr      atomic.Uint64
	served  atomic.Uint64
	denied  atomic.Uint64
}

// New validates cfg and builds a Balancer.
func New(cfg Config) (*Balancer, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("lb: at least one backend required")
	}
	b := &Balancer{cfg: cfg}
	for _, raw := range cfg.Backends {
		u, err := url.Parse(raw)
		if err != nil {
			return nil, fmt.Errorf("lb: backend %q: %w", raw, err)
		}
		if u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("lb: backend %q needs scheme and host", raw)
		}
		b.proxies = append(b.proxies, httputil.NewSingleHostReverseProxy(u))
	}
	return b, nil
}

// Served and Denied report request counts by outcome.
func (b *Balancer) Served() uint64 { return b.served.Load() }
func (b *Balancer) Denied() uint64 { return b.denied.Load() }

// ClientIP extracts the request's client address per the balancer's
// trust configuration.
func (b *Balancer) ClientIP(r *http.Request) (uint32, error) {
	if b.cfg.TrustForwardedFor {
		if xff := r.Header.Get("X-Forwarded-For"); xff != "" {
			// First hop only; the rest is downstream proxies.
			for i := 0; i < len(xff); i++ {
				if xff[i] == ',' {
					xff = xff[:i]
					break
				}
			}
			return parseIPv4(xff)
		}
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	return parseIPv4(host)
}

// parseIPv4 converts a dotted quad to the packed representation.
func parseIPv4(s string) (uint32, error) {
	ip := net.ParseIP(s)
	if ip == nil {
		return 0, fmt.Errorf("lb: unparseable address %q", s)
	}
	v4 := ip.To4()
	if v4 == nil {
		return 0, fmt.Errorf("lb: non-IPv4 address %q", s)
	}
	return uint32(v4[0])<<24 | uint32(v4[1])<<16 | uint32(v4[2])<<8 | uint32(v4[3]), nil
}

// ServeHTTP implements http.Handler: ACL check, measurement, proxy.
func (b *Balancer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	src, err := b.ClientIP(r)
	if err != nil {
		http.Error(w, "cannot determine client address", http.StatusBadRequest)
		return
	}
	if b.cfg.ACL != nil {
		switch b.cfg.ACL.Lookup(src) {
		case netwide.ActionDeny:
			b.denied.Add(1)
			http.Error(w, "denied by subnet ACL", http.StatusForbidden)
			return
		case netwide.ActionTarpit:
			// Hold the connection to slow the attacker down, then fail.
			select {
			case <-time.After(tarpitDelay):
			case <-r.Context().Done():
				return
			}
			http.Error(w, "tarpitted", http.StatusForbidden)
			return
		}
	}
	if b.cfg.Observer != nil {
		b.cfg.Observer.Observe(hierarchy.Packet{Src: src})
	}
	b.served.Add(1)
	idx := int(b.rr.Add(1)-1) % len(b.proxies)
	b.proxies[idx].ServeHTTP(w, r)
}

// ApplyVerdictsFrom consumes verdicts from ch (a netwide.Agent's
// Verdicts channel) until it closes, applying each batch to the ACL.
// Run it in a goroutine.
func (b *Balancer) ApplyVerdictsFrom(ch <-chan []netwide.Verdict) {
	if b.cfg.ACL == nil {
		return
	}
	for vs := range ch {
		b.cfg.ACL.Apply(vs)
	}
}
