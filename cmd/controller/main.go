// Command controller runs the live network-wide measurement
// controller (D-H-Memento). Load balancers (cmd/lbproxy) connect over
// TCP and stream sampled reports; the controller maintains the global
// sliding-window HHH view, logs it periodically, and (with -mitigate)
// pushes deny/tarpit verdicts for subnets above the threshold.
//
// With -checkpoint-dir the controller becomes warm-restartable: it
// periodically writes its sketch state as an incremental base+delta
// chain (internal/delta) and, on startup, restores the newest chain
// found in the directory, so a crashed or upgraded controller resumes
// its sliding window instead of forgetting the last W packets.
// SIGINT/SIGTERM writes a final checkpoint and closes the fleet
// before exiting.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"memento/internal/codec"
	"memento/internal/delta"
	"memento/internal/hierarchy"
	"memento/internal/netwide"
	"memento/internal/obs"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:9600", "address to accept agents on")
		window    = flag.Int("window", 1<<20, "network-wide window W in requests")
		counters  = flag.Int("counters", 1<<14, "controller sketch counters")
		budget    = flag.Float64("budget", 1, "bandwidth budget B bytes/packet")
		batch     = flag.Int("batch", 44, "batch size b")
		theta     = flag.Float64("theta", 0.05, "HHH threshold θ (θ·W must exceed the sampling compensation)")
		mitigate  = flag.Bool("mitigate", false, "broadcast deny verdicts for heavy subnets")
		tarpit    = flag.Bool("tarpit", false, "tarpit instead of deny")
		interval  = flag.Duration("interval", 2*time.Second, "reporting/mitigation cadence")
		ckptDir   = flag.String("checkpoint-dir", "", "warm-restart chain directory ('' disables checkpointing)")
		ckptEvery = flag.Duration("checkpoint-every", 30*time.Second, "chain step cadence")
		baseEvery = flag.Int("checkpoint-base-every", 16, "delta steps between full bases")
		handshake = flag.Duration("handshake-timeout", 10*time.Second, "deadline for an accepted connection's Hello (<0 disables)")
		readTO    = flag.Duration("read-timeout", 90*time.Second, "steady-state read deadline per agent; heartbeating agents only trip it when unreachable (<0 disables)")
		staleTTL  = flag.Duration("stale-ttl", 5*time.Minute, "quarantine an agent's window from the merged output when its last report is older than this (0 disables)")
		debugAddr = flag.String("debug-addr", "", "serve /debug/metrics, /debug/events and /debug/pprof on this address ('' disables)")
	)
	flag.Parse()
	if *interval <= 0 {
		fatal(fmt.Errorf("-interval must be positive, got %v", *interval))
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))

	reg := obs.NewRegistry()
	trace := obs.NewTrace(1024)
	codec.RegisterMetrics(reg)
	trace.Register(reg, "memento_controller")

	ctrl, err := netwide.NewController(netwide.ControllerConfig{
		Hier: hierarchy.OneD{},
		Params: netwide.Params{
			Budget: *budget, BatchSize: *batch, Window: *window,
		},
		Counters:         *counters,
		Log:              log,
		HandshakeTimeout: *handshake,
		ReadTimeout:      *readTO,
		StaleTTL:         *staleTTL,
		Obs:              reg,
		Trace:            trace,
	})
	if err != nil {
		fatal(err)
	}
	if err := checkTheta(*theta, *window, ctrl.Compensation()); err != nil {
		fatal(err)
	}
	if *debugAddr != "" {
		stopDebug, err := obs.Serve(*debugAddr, reg, trace)
		if err != nil {
			fatal(err)
		}
		defer stopDebug()
		log.Info("debug endpoints listening", "addr", *debugAddr)
	}

	var ckpt *delta.Checkpointer
	if *ckptDir != "" {
		if *ckptEvery <= 0 {
			fatal(fmt.Errorf("-checkpoint-every must be positive, got %v", *ckptEvery))
		}
		// Warm restart: apply the newest chain before serving. A chain
		// from a differently configured controller is rejected by the
		// config digest; start fresh then.
		if chain, err := delta.FindChain(*ckptDir); err != nil {
			log.Warn("checkpoint scan failed", "dir", *ckptDir, "err", err)
		} else if chain != nil {
			if err := restoreChain(ctrl, chain); err != nil {
				log.Warn("warm restart failed, starting fresh", "base", chain.Base, "err", err)
			} else {
				log.Info("warm restart", "base", chain.Base, "deltas", len(chain.Deltas))
			}
		}
		if err := ctrl.EnableDeltaCheckpoints(0); err != nil {
			fatal(err)
		}
		if ckpt, err = delta.NewCheckpointer(*ckptDir, ctrl, *baseEvery); err != nil {
			fatal(err)
		}
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	log.Info("controller listening", "addr", ln.Addr().String(),
		"window", *window, "budget", *budget, "batch", *batch)
	go func() {
		if err := ctrl.Serve(ln); err != nil {
			log.Error("serve failed", "err", err)
			os.Exit(1)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	var ckptC <-chan time.Time
	if ckpt != nil {
		ckptTick := time.NewTicker(*ckptEvery)
		defer ckptTick.Stop()
		ckptC = ckptTick.C
	}
	action := netwide.ActionDeny
	if *tarpit {
		action = netwide.ActionTarpit
	}
	for {
		select {
		case <-tick.C:
			entries := ctrl.Output(*theta)
			log.Info("window view", "agents", ctrl.Agents(), "stale", ctrl.StaleAgents(),
				"reports", ctrl.Reports(), "deltas", ctrl.Deltas(), "hhh", len(entries))
			for _, e := range entries {
				log.Info("  heavy prefix", "prefix", e.Prefix.String(),
					"estimate", int(e.Estimate), "conditioned", int(e.Conditioned))
			}
			if *mitigate {
				vs, err := ctrl.Mitigate(*theta, action)
				if err != nil {
					log.Error("mitigation failed", "err", err)
				} else if len(vs) > 0 {
					log.Info("broadcast verdicts", "count", len(vs), "action", action.String())
				}
			}
		case <-ckptC:
			path, err := ckpt.Tick()
			if err != nil {
				log.Error("checkpoint failed", "err", err)
			} else {
				log.Info("checkpoint written", "path", path)
			}
		case <-stop:
			log.Info("shutting down")
			if ckpt != nil {
				if path, err := ckpt.Tick(); err != nil {
					log.Error("final checkpoint failed", "err", err)
				} else {
					log.Info("final checkpoint", "path", path)
				}
			}
			ctrl.Close()
			return
		}
	}
}

// checkTheta refuses a threshold the sampled sketch cannot resolve:
// with θ·W at or below the sampling compensation, every prefix the
// sketch tracks reaches the threshold, so each Output selects them all
// and holds the ingest lock for the whole scan. It is the rule the
// repository benchmark sizes its workloads by.
func checkTheta(theta float64, window int, comp float64) error {
	if theta*float64(window) > comp {
		return nil
	}
	return fmt.Errorf("-theta %g is degenerate: θ·W = %.0f is not above the sampling compensation %.0f; use -theta above %.4g (-window %d)",
		theta, theta*float64(window), comp, comp/float64(window), window)
}

// restoreChain opens a discovered chain's files and replays them into
// the controller.
func restoreChain(ctrl *netwide.Controller, chain *delta.Chain) error {
	base, deltas, closeAll, err := chain.Open()
	if err != nil {
		return err
	}
	defer closeAll()
	return ctrl.RestoreChain(base, deltas...)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "controller:", err)
	os.Exit(1)
}
