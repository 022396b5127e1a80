package floodgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"memento/internal/hierarchy"
	"memento/internal/trace"
)

func TestRunValidation(t *testing.T) {
	ctx := context.Background()
	bad := []Config{
		{},
		{Targets: []string{"http://x"}, Subnets: 0, FloodRate: 0.5, Requests: 1},
		{Targets: []string{"http://x"}, Subnets: 5, FloodRate: 1.5, Requests: 1},
		{Targets: []string{"http://x"}, Subnets: 5, FloodRate: 0.5, Requests: 0},
	}
	for i, cfg := range bad {
		cfg.Profile = trace.Edge
		if _, err := Run(ctx, cfg); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestRunDistribution(t *testing.T) {
	var mu sync.Mutex
	perSubnet := map[uint32]int{}
	total := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ip := r.Header.Get("X-Forwarded-For")
		mu.Lock()
		total++
		var a, b, c, d byte
		fmtSscanf(ip, &a, &b, &c, &d)
		perSubnet[uint32(a)<<24]++
		mu.Unlock()
	}))
	defer srv.Close()

	stats, err := Run(context.Background(), Config{
		Targets:   []string{srv.URL},
		Subnets:   10,
		FloodRate: 0.7,
		Profile:   trace.Edge,
		Requests:  4000,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sent != 4000 || stats.Errors != 0 {
		t.Fatalf("sent=%d errors=%d", stats.Sent, stats.Errors)
	}
	frac := float64(stats.Attack) / float64(stats.Sent)
	if frac < 0.65 || frac > 0.75 {
		t.Fatalf("attack fraction %.3f, want ≈ 0.7", frac)
	}
	if len(stats.Subnets) != 10 {
		t.Fatalf("subnets = %d", len(stats.Subnets))
	}
	mu.Lock()
	defer mu.Unlock()
	attackSeen := 0
	for _, s := range stats.Subnets {
		attackSeen += perSubnet[s]
	}
	if attackSeen < int(stats.Attack*9/10) {
		t.Fatalf("server saw %d attack requests, generator claims %d", attackSeen, stats.Attack)
	}
}

func TestRunCountsBlocked(t *testing.T) {
	stats0, err := Run(context.Background(), Config{
		Targets: []string{"http://placeholder"}, Subnets: 3, FloodRate: 0.5,
		Profile: trace.Edge, Requests: 10, Seed: 1,
		Client: &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			rec := httptest.NewRecorder()
			rec.WriteHeader(http.StatusForbidden)
			return rec.Result(), nil
		})},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats0.Blocked != stats0.Attack {
		t.Fatalf("blocked=%d attack=%d; every attack answer was 403", stats0.Blocked, stats0.Attack)
	}
}

func TestRunRespectsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, Config{
		Targets: []string{"http://unreachable.invalid"}, Subnets: 2, FloodRate: 0.5,
		Profile: trace.Edge, Requests: 1 << 20, Seed: 2,
		Client: &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			<-r.Context().Done()
			return nil, r.Context().Err()
		})},
	})
	if err == nil {
		t.Fatal("cancelled run should return the context error")
	}
}

func TestFormatIPv4(t *testing.T) {
	if got := FormatIPv4(hierarchy.IPv4(1, 2, 3, 4)); got != "1.2.3.4" {
		t.Fatalf("FormatIPv4 = %q", got)
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// fmtSscanf is a minimal dotted-quad parser for the test server.
func fmtSscanf(s string, a, b, c, d *byte) {
	var parts [4]int
	idx := 0
	for i := 0; i < len(s) && idx < 4; i++ {
		ch := s[i]
		if ch >= '0' && ch <= '9' {
			parts[idx] = parts[idx]*10 + int(ch-'0')
		} else if ch == '.' {
			idx++
		} else {
			break
		}
	}
	*a, *b, *c, *d = byte(parts[0]), byte(parts[1]), byte(parts[2]), byte(parts[3])
}
