// Command lbproxy runs one measurement-enabled HTTP load balancer: it
// reverse-proxies requests across backends, reports samples to the
// controller (cmd/controller) under the bandwidth budget, and enforces
// the subnet verdicts the controller pushes back — the role HAProxy
// plus the paper's extension plays in the testbed (Section 6.3).
//
// With -controller ” the proxy can instead measure locally:
// -local-shards N attaches a sharded, batched H-Memento
// (internal/shard) as the observer and periodically logs the current
// heavy-hitter prefixes, so a single proxy gets line-rate sliding-
// window visibility without a control plane. Adding -checkpoint-dir
// makes the local instance warm-restartable: its state is written as
// an incremental base+delta chain (internal/delta) and restored on
// the next start, so a proxy restart keeps the sliding window.
//
// SIGINT/SIGTERM shuts down gracefully: stop accepting, finish
// in-flight requests, flush the measurement plane (staged observer
// batches, pending agent reports), write a final checkpoint, then
// exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"memento/internal/codec"
	"memento/internal/core"
	"memento/internal/delta"
	"memento/internal/hierarchy"
	"memento/internal/lb"
	"memento/internal/netwide"
	"memento/internal/obs"
	"memento/internal/shard"
)

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:8080", "address to serve HTTP on")
		backends    = flag.String("backends", "", "comma-separated backend URLs (required)")
		controller  = flag.String("controller", "127.0.0.1:9600", "controller address ('' disables remote measurement)")
		name        = flag.String("name", "", "agent name (default: listen address)")
		budget      = flag.Float64("budget", 1, "bandwidth budget B bytes/packet")
		batch       = flag.Int("batch", 44, "batch size b")
		window      = flag.Int("window", 1<<20, "window size W (must match the controller)")
		trustXFF    = flag.Bool("trust-xff", true, "trust X-Forwarded-For for client identity (testbed mode)")
		localShards = flag.Int("local-shards", 0, "standalone mode: shard count for a local sharded H-Memento observer (0 disables; requires -controller '')")
		localBatch  = flag.Int("local-batch", 256, "standalone mode: observer batch size")
		localV      = flag.Int("local-v", 0, "standalone mode: sampling ratio V (0: H, i.e. every request)")
		theta       = flag.Float64("theta", 0.05, "standalone mode: heavy-hitter threshold for periodic reports")
		reportEvery = flag.Duration("report-every", 10*time.Second, "standalone mode: heavy-hitter report interval")
		ckptDir     = flag.String("checkpoint-dir", "", "standalone mode: warm-restart chain directory ('' disables)")
		ckptEvery   = flag.Duration("checkpoint-every", 30*time.Second, "standalone mode: chain step cadence")
		baseEvery   = flag.Int("checkpoint-base-every", 16, "standalone mode: delta steps between full bases")
		degraded    = flag.Duration("degraded-after", 0, "flip to locally computed verdicts when the controller has been silent this long (0 disables; enables supervised reconnect)")
		traceRpt    = flag.Bool("trace-reports", false, "negotiate end-to-end report tracing with the controller (falls back to bare reports against a pre-tracing peer)")
		debugAddr   = flag.String("debug-addr", "", "serve /debug/metrics, /debug/events and /debug/pprof on this address ('' disables)")
	)
	flag.Parse()
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if *backends == "" {
		fmt.Fprintln(os.Stderr, "lbproxy: -backends required")
		os.Exit(2)
	}
	if *reportEvery <= 0 {
		fatal(fmt.Errorf("-report-every must be positive, got %v", *reportEvery))
	}
	if *name == "" {
		*name = *listen
	}

	acl := lb.NewACL()
	cfg := lb.Config{
		Backends:          strings.Split(*backends, ","),
		ACL:               acl,
		TrustForwardedFor: *trustXFF,
	}
	if *controller != "" && *localShards > 0 && *degraded <= 0 {
		fmt.Fprintln(os.Stderr, "lbproxy: -local-shards requires -controller '' (remote and standalone measurement are exclusive unless -degraded-after keeps a local failover sketch)")
		os.Exit(2)
	}
	// The observability plane is always live (instruments are cheap
	// enough to leave on: DESIGN.md §11); -debug-addr decides whether
	// it is also served.
	reg := obs.NewRegistry()
	trace := obs.NewTrace(1024)
	codec.RegisterMetrics(reg)
	trace.Register(reg, "memento_lbproxy")
	// onShutdown runs after the HTTP server has quiesced (no handler
	// is observing anymore), in order: flush staged measurement,
	// persist final state, close transports.
	var onShutdown []func()
	switch {
	case *controller != "":
		acfg := netwide.AgentConfig{
			Name: *name,
			Params: netwide.Params{
				Budget: *budget, BatchSize: *batch, Window: *window,
			},
			Obs:          reg,
			Trace:        trace,
			TraceReports: *traceRpt,
		}
		if *degraded > 0 {
			// Fault tolerance: supervised reconnect keeps the agent
			// redialing across controller outages, and DegradedAfter
			// marks when this proxy must fend for itself.
			acfg.Reconnect = true
			acfg.DegradedAfter = *degraded
		}
		agent, err := netwide.DialAgent(*controller, acfg)
		if err != nil {
			fatal(err)
		}
		defer agent.Close()
		cfg.Observer = agent
		onShutdown = append(onShutdown, func() {
			// Graceful: ship the partial tail report and let the writer
			// drain the queue before the connection drops.
			if err := agent.Shutdown(5 * time.Second); err != nil {
				log.Warn("agent shutdown", "err", err)
			}
		})
		log.Info("connected to controller", "addr", *controller, "tau", agent.Tau())
		go func() {
			for vs := range agent.Verdicts() {
				acl.Apply(vs)
				log.Info("applied verdicts", "count", len(vs), "acl-entries", acl.Len())
			}
		}()
		if *degraded > 0 {
			// Degraded mode: a local sharded sketch shadows the traffic
			// the agent reports, so when the controller goes silent the
			// proxy can compute its own HHH verdicts instead of frozen
			// (or absent) remote ones. -local-shards sizes the shadow.
			shards := *localShards
			if shards <= 0 {
				shards = 1
			}
			local, err := shard.NewHHH(shard.HHHConfig{
				Core: core.HHHConfig{
					Hierarchy: hierarchy.OneD{},
					Window:    *window,
					Counters:  512 * hierarchy.OneD{}.H(),
					V:         *localV,
				},
				Shards: shards,
			})
			if err != nil {
				fatal(err)
			}
			local.Instrument(reg, trace, *name)
			lobs := lb.NewBatchingObserver(local, *localBatch)
			cfg.Observer = teeObserver{agent, lobs}
			onShutdown = append(onShutdown, func() { lobs.Flush() })
			go superviseDegraded(log, agent, acl, local, lobs, *theta, *degraded)
			log.Info("degraded-mode failover armed",
				"after", *degraded, "shards", shards, "theta", *theta)
		}
	case *localShards > 0:
		var hh *shard.HHH
		if *ckptDir != "" {
			// Warm restart: a chain left by a previous generation
			// rebuilds the instance (configuration derives from the
			// chain itself); any failure falls back to a fresh start.
			if restored, err := restoreShardChain(*ckptDir); err != nil {
				log.Warn("warm restart failed, starting fresh", "dir", *ckptDir, "err", err)
			} else if restored != nil {
				hh = restored
				log.Info("warm restart", "dir", *ckptDir,
					"shards", hh.Shards(), "window", hh.EffectiveWindow(), "updates", hh.Updates())
				// The chain's configuration wins over the flags (it is
				// the state being resumed); surface any drift loudly so
				// changed flags are not silently ignored forever — to
				// actually reconfigure, point -checkpoint-dir at a
				// fresh directory.
				if hh.Shards() != *localShards || hh.EffectiveWindow() < *window {
					log.Warn("restored chain configuration overrides flags",
						"chain-shards", hh.Shards(), "flag-shards", *localShards,
						"chain-window", hh.EffectiveWindow(), "flag-window", *window)
				}
			}
		}
		if hh == nil {
			fresh, err := shard.NewHHH(shard.HHHConfig{
				Core: core.HHHConfig{
					Hierarchy: hierarchy.OneD{},
					Window:    *window,
					Counters:  512 * hierarchy.OneD{}.H(),
					V:         *localV,
				},
				Shards: *localShards,
			})
			if err != nil {
				fatal(err)
			}
			hh = fresh
		}
		hh.Instrument(reg, trace, *name)
		stopCheckpoints := func() {}
		if *ckptDir != "" {
			if *ckptEvery <= 0 {
				fatal(fmt.Errorf("-checkpoint-every must be positive, got %v", *ckptEvery))
			}
			if err := hh.EnableDeltaCheckpoints(0); err != nil {
				fatal(err)
			}
			cp, err := delta.NewCheckpointer(*ckptDir, hh, *baseEvery)
			if err != nil {
				fatal(err)
			}
			stopCheckpoints = startCheckpoints(cp, *ckptEvery, func(path string, err error) {
				if err != nil {
					log.Error("checkpoint failed", "err", err)
					return
				}
				trace.Record(obs.EvCheckpoint, *name, 0)
				log.Info("checkpoint written", "path", path)
			})
		}
		lobs := lb.NewBatchingObserver(hh, *localBatch)
		cfg.Observer = lobs
		log.Info("standalone sharded measurement enabled",
			"shards", hh.Shards(), "batch", *localBatch, "window", hh.EffectiveWindow())
		go func() {
			// OutputTo with a recycled buffer: the periodic probe locks
			// each shard once per report (snapshot capture) and
			// allocates nothing in steady state.
			var out []core.HeavyPrefix
			for range time.Tick(*reportEvery) {
				lobs.Flush()
				out = hh.OutputTo(*theta, out[:0])
				for _, e := range out {
					log.Info("heavy hitter", "prefix", e.Prefix,
						"estimate", int(e.Estimate), "conditioned", int(e.Conditioned))
				}
				if len(out) == 0 {
					log.Info("no heavy hitters above threshold", "theta", *theta)
				}
			}
		}()
		onShutdown = append(onShutdown, func() {
			lobs.Flush()
			stopCheckpoints() // writes the final checkpoint
		})
	}
	if *debugAddr != "" {
		stopDebug, err := obs.Serve(*debugAddr, reg, trace)
		if err != nil {
			fatal(err)
		}
		onShutdown = append(onShutdown, func() {
			if err := stopDebug(); err != nil {
				log.Warn("debug server shutdown", "err", err)
			}
		})
		log.Info("debug endpoints listening", "addr", *debugAddr)
	}
	balancer, err := lb.New(cfg)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{Addr: *listen, Handler: balancer}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		s := <-sig
		log.Info("shutting down", "signal", s.String())
		// Stop accepting and wait for in-flight handlers, so no request
		// observes after the measurement plane drains below.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Warn("http shutdown", "err", err)
		}
		for _, fn := range onShutdown {
			fn()
		}
	}()
	log.Info("load balancer listening", "addr", *listen, "backends", *backends)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
	<-drained
	log.Info("drained, exiting")
}

// teeObserver feeds each measurement event to both the remote agent
// and the local failover sketch.
type teeObserver struct {
	a, b lb.Observer
}

func (t teeObserver) Observe(p hierarchy.Packet) {
	t.a.Observe(p)
	t.b.Observe(p)
}

// subnetKey identifies a verdict's subnet independent of its action.
type subnetKey struct {
	subnet uint32
	bytes  uint8
}

// superviseDegraded runs the failover state machine: while the agent
// reports the controller unreachable past the threshold, it installs
// locally computed Deny verdicts in the ACL (refreshed every tick so
// the blocklist follows the traffic); on recovery it lifts every
// verdict it installed and hands enforcement back to the controller's
// verdict stream. Only self-installed subnets are ever lifted —
// controller verdicts applied before the outage stay untouched.
func superviseDegraded(log *slog.Logger, agent *netwide.Agent, acl *lb.ACL,
	local *shard.HHH, obs *lb.BatchingObserver, theta float64, after time.Duration) {
	interval := after / 4
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	mine := map[subnetKey]bool{} // subnets this proxy denied on its own
	wasDegraded := false
	var out []core.HeavyPrefix
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for range tick.C {
		switch degraded := agent.Degraded(); {
		case degraded:
			if !wasDegraded {
				wasDegraded = true
				st := agent.Stats()
				log.Warn("controller unreachable: local verdicts engaged",
					"since-contact", st.SinceContact, "reconnects", st.Reconnects,
					"degraded-enters", st.DegradedEnters)
			}
			obs.Flush()
			// The controller's verdict policy, against the local shadow sketch.
			out = local.OutputTo(theta, out[:0])
			vs := netwide.VerdictsFrom(out, theta*float64(local.EffectiveWindow()), netwide.ActionDeny, nil)
			fresh := make(map[subnetKey]bool, len(vs))
			for _, v := range vs {
				fresh[subnetKey{v.Subnet, v.PrefixBytes}] = true
			}
			// Lift self-installed denies whose subnets cooled off.
			for k := range mine {
				if !fresh[k] {
					vs = append(vs, netwide.Verdict{
						Subnet: k.subnet, PrefixBytes: k.bytes, Act: netwide.ActionAllow,
					})
				}
			}
			if len(vs) > 0 {
				acl.Apply(vs)
			}
			mine = fresh
			if len(fresh) > 0 {
				log.Info("local verdicts refreshed", "denied", len(fresh), "acl-entries", acl.Len())
			}
		case wasDegraded:
			wasDegraded = false
			lift := make([]netwide.Verdict, 0, len(mine))
			for k := range mine {
				lift = append(lift, netwide.Verdict{
					Subnet: k.subnet, PrefixBytes: k.bytes, Act: netwide.ActionAllow,
				})
			}
			if len(lift) > 0 {
				acl.Apply(lift)
			}
			mine = map[subnetKey]bool{}
			st := agent.Stats()
			log.Info("controller restored: local verdicts lifted",
				"lifted", len(lift), "generation", st.Generation,
				"degraded-exits", st.DegradedExits)
		}
	}
}

// startCheckpoints runs cp.Tick every period on one goroutine, passing
// each outcome to report, and returns a stop function that has that
// same goroutine write one final checkpoint and waits for it to exit.
// Checkpointer and the shard.HHH.WriteChain behind it are
// single-caller: a final Tick from the shutdown path while a periodic
// one is in flight would race the chain numbering and the per-shard
// trackers, and leave a chain that fails ErrEpochGap at the next warm
// restart.
func startCheckpoints(cp *delta.Checkpointer, period time.Duration, report func(path string, err error)) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				report(cp.Tick())
			case <-quit:
				report(cp.Tick())
				return
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// restoreShardChain rebuilds the standalone sharded instance from the
// newest chain in dir; (nil, nil) when the directory holds none.
func restoreShardChain(dir string) (*shard.HHH, error) {
	chain, err := delta.FindChain(dir)
	if err != nil || chain == nil {
		return nil, err
	}
	base, deltas, closeAll, err := chain.Open()
	if err != nil {
		return nil, err
	}
	defer closeAll()
	return shard.RestoreHHHChain(base, deltas...)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lbproxy:", err)
	os.Exit(1)
}
