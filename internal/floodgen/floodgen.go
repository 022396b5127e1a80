// Package floodgen generates the HTTP flood traffic of the paper's
// Section 6.4 experiment: stateful GET/POST requests whose source
// addresses come from a configurable set of attacking subnets overlaid
// on legitimate background traffic.
//
// The paper's generator uses NFQUEUE to source packets from arbitrary
// IPs; that requires root and kernel cooperation, so this generator
// carries the spoofed source in X-Forwarded-For, which the balancer
// accepts in testbed mode (see internal/lb and DESIGN.md §2). What the
// experiments measure — request attribution to subnets — is identical.
package floodgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"memento/internal/rng"
	"memento/internal/trace"
)

// Config parameterizes a flood run.
type Config struct {
	// Targets are the load-balancer base URLs requests are sprayed
	// across. Required.
	Targets []string
	// Subnets is the number of attacking /8 subnets.
	Subnets int
	// FloodRate is the fraction of requests that are attack traffic.
	FloodRate float64
	// Profile drives the legitimate background traffic addresses.
	Profile trace.Profile
	// Requests is the total number of requests to send.
	Requests int
	// Concurrency is the number of parallel workers (default 16).
	Concurrency int
	// Seed fixes the randomness.
	Seed uint64
	// Client overrides the HTTP client (tests inject httptest here).
	Client *http.Client
}

// Stats summarizes a completed run.
type Stats struct {
	// Sent counts requests attempted.
	Sent uint64
	// Attack counts requests sourced from attacking subnets.
	Attack uint64
	// Blocked counts attack requests answered with 403 (the ACL
	// working).
	Blocked uint64
	// Errors counts transport failures.
	Errors uint64
	// Subnets are the attacking /8 network addresses used.
	Subnets []uint32
}

// Run drives the flood until Requests have been sent or ctx is
// cancelled. It is deterministic in the request *sequence* given the
// seed (delivery order across workers is not).
func Run(ctx context.Context, cfg Config) (Stats, error) {
	if len(cfg.Targets) == 0 {
		return Stats{}, errors.New("floodgen: at least one target required")
	}
	if cfg.Subnets <= 0 || cfg.FloodRate <= 0 || cfg.FloodRate >= 1 {
		return Stats{}, errors.New("floodgen: need Subnets and FloodRate in (0,1)")
	}
	if cfg.Requests <= 0 {
		return Stats{}, errors.New("floodgen: Requests must be positive")
	}
	conc := cfg.Concurrency
	if conc <= 0 {
		conc = 16
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	gen, err := trace.NewGenerator(cfg.Profile, cfg.Seed)
	if err != nil {
		return Stats{}, err
	}
	src := rng.New(cfg.Seed ^ 0x41747461636b) // "Attack"

	var stats Stats
	seen := map[byte]bool{}
	for len(stats.Subnets) < cfg.Subnets {
		b := byte(src.Uint32())
		if seen[b] {
			continue
		}
		seen[b] = true
		stats.Subnets = append(stats.Subnets, uint32(b)<<24)
	}

	type job struct {
		target string
		ip     uint32
		attack bool
	}
	jobs := make(chan job, conc)
	var wg sync.WaitGroup
	var sent, attack, blocked, errs atomic.Uint64
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				req, err := http.NewRequestWithContext(ctx, http.MethodGet, j.target, nil)
				if err != nil {
					errs.Add(1)
					continue
				}
				req.Header.Set("X-Forwarded-For", formatIPv4(j.ip))
				resp, err := client.Do(req)
				sent.Add(1)
				if j.attack {
					attack.Add(1)
				}
				if err != nil {
					errs.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if j.attack && resp.StatusCode == http.StatusForbidden {
					blocked.Add(1)
				}
			}
		}()
	}

	for i := 0; i < cfg.Requests; i++ {
		var j job
		j.target = cfg.Targets[i%len(cfg.Targets)]
		if src.Float64() < cfg.FloodRate {
			subnet := stats.Subnets[src.Intn(len(stats.Subnets))]
			j.ip = subnet | (uint32(src.Uint64()) & 0x00ffffff)
			j.attack = true
		} else {
			j.ip = gen.Next().Src
		}
		select {
		case jobs <- j:
		case <-ctx.Done():
			close(jobs)
			wg.Wait()
			return collect(&stats, &sent, &attack, &blocked, &errs), ctx.Err()
		}
	}
	close(jobs)
	wg.Wait()
	return collect(&stats, &sent, &attack, &blocked, &errs), nil
}

// collect folds the atomics into the stats struct.
func collect(s *Stats, sent, attack, blocked, errs *atomic.Uint64) Stats {
	s.Sent = sent.Load()
	s.Attack = attack.Load()
	s.Blocked = blocked.Load()
	s.Errors = errs.Load()
	return *s
}

// formatIPv4 renders the packed address as a dotted quad.
func formatIPv4(a uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// FormatIPv4 is the exported formatting helper used by commands.
func FormatIPv4(a uint32) string { return formatIPv4(a) }
