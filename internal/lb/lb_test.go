package lb

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"memento/internal/core"
	"memento/internal/hierarchy"
	"memento/internal/netwide"
	"memento/internal/shard"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("no backends should fail")
	}
	if _, err := New(Config{Backends: []string{"://bad"}}); err == nil {
		t.Error("unparseable backend should fail")
	}
	if _, err := New(Config{Backends: []string{"just-a-host"}}); err == nil {
		t.Error("scheme-less backend should fail")
	}
}

// backendPair spins up n recording backends and a balancer over them.
func backendPair(t *testing.T, n int, cfg Config) (*Balancer, []*int, func()) {
	t.Helper()
	counts := make([]*int, n)
	var mu sync.Mutex
	var servers []*httptest.Server
	var urls []string
	for i := 0; i < n; i++ {
		c := new(int)
		counts[i] = c
		s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			*c++
			mu.Unlock()
			fmt.Fprint(w, "ok")
		}))
		servers = append(servers, s)
		urls = append(urls, s.URL)
	}
	cfg.Backends = urls
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cleanup := func() {
		for _, s := range servers {
			s.Close()
		}
	}
	return b, counts, cleanup
}

func TestRoundRobin(t *testing.T) {
	b, counts, cleanup := backendPair(t, 3, Config{})
	defer cleanup()
	front := httptest.NewServer(b)
	defer front.Close()

	for i := 0; i < 9; i++ {
		resp, err := http.Get(front.URL)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	for i, c := range counts {
		if *c != 3 {
			t.Fatalf("backend %d served %d, want 3", i, *c)
		}
	}
	if b.Served() != 9 {
		t.Fatalf("Served = %d", b.Served())
	}
}

// obsRecorder captures Observe calls.
type obsRecorder struct {
	mu   sync.Mutex
	pkts []hierarchy.Packet
}

func (o *obsRecorder) Observe(p hierarchy.Packet) {
	o.mu.Lock()
	o.pkts = append(o.pkts, p)
	o.mu.Unlock()
}

func TestMeasurementHookAndForwardedFor(t *testing.T) {
	obs := &obsRecorder{}
	b, _, cleanup := backendPair(t, 1, Config{Observer: obs, TrustForwardedFor: true})
	defer cleanup()
	front := httptest.NewServer(b)
	defer front.Close()

	req, _ := http.NewRequest(http.MethodGet, front.URL, nil)
	req.Header.Set("X-Forwarded-For", "10.20.30.40, 1.2.3.4")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	obs.mu.Lock()
	defer obs.mu.Unlock()
	if len(obs.pkts) != 1 {
		t.Fatalf("observed %d packets, want 1", len(obs.pkts))
	}
	if want := hierarchy.IPv4(10, 20, 30, 40); obs.pkts[0].Src != want {
		t.Fatalf("observed %08x, want %08x (first XFF hop)", obs.pkts[0].Src, want)
	}
}

func TestForwardedForIgnoredWhenUntrusted(t *testing.T) {
	obs := &obsRecorder{}
	b, _, cleanup := backendPair(t, 1, Config{Observer: obs, TrustForwardedFor: false})
	defer cleanup()
	front := httptest.NewServer(b)
	defer front.Close()

	req, _ := http.NewRequest(http.MethodGet, front.URL, nil)
	req.Header.Set("X-Forwarded-For", "10.20.30.40")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	obs.mu.Lock()
	defer obs.mu.Unlock()
	if len(obs.pkts) != 1 {
		t.Fatalf("observed %d packets", len(obs.pkts))
	}
	if obs.pkts[0].Src == hierarchy.IPv4(10, 20, 30, 40) {
		t.Fatal("untrusted XFF must not be honoured")
	}
}

func TestACLDeny(t *testing.T) {
	acl := NewACL()
	b, counts, cleanup := backendPair(t, 1, Config{ACL: acl, TrustForwardedFor: true})
	defer cleanup()
	front := httptest.NewServer(b)
	defer front.Close()

	acl.Apply([]netwide.Verdict{{Subnet: hierarchy.IPv4(66, 0, 0, 0), PrefixBytes: 1, Act: netwide.ActionDeny}})

	get := func(ip string) int {
		req, _ := http.NewRequest(http.MethodGet, front.URL, nil)
		req.Header.Set("X-Forwarded-For", ip)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("66.1.2.3"); got != http.StatusForbidden {
		t.Fatalf("blocked subnet returned %d", got)
	}
	if got := get("67.1.2.3"); got != http.StatusOK {
		t.Fatalf("allowed address returned %d", got)
	}
	if b.Denied() != 1 || *counts[0] != 1 {
		t.Fatalf("denied=%d backend=%d", b.Denied(), *counts[0])
	}
}

func TestACLTarpitDelays(t *testing.T) {
	acl := NewACL()
	b, _, cleanup := backendPair(t, 1, Config{
		ACL: acl, TrustForwardedFor: true,
	})
	defer cleanup()
	front := httptest.NewServer(b)
	defer front.Close()

	acl.Apply([]netwide.Verdict{{Subnet: hierarchy.IPv4(9, 0, 0, 0), PrefixBytes: 1, Act: netwide.ActionTarpit}})
	req, _ := http.NewRequest(http.MethodGet, front.URL, nil)
	req.Header.Set("X-Forwarded-For", "9.9.9.9")
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < tarpitDelay {
		t.Fatalf("tarpit answered in %v, want ≥ %v", took, tarpitDelay)
	}
	if resp.StatusCode != http.StatusForbidden || !strings.HasPrefix(string(body), "tarpitted") {
		t.Fatalf("tarpit answered %d %q, want 403 tarpitted", resp.StatusCode, body)
	}
	if b.Denied() != 0 || b.Served() != 0 {
		t.Fatalf("tarpitted request counted as denied (%d) or served (%d)", b.Denied(), b.Served())
	}
}

func TestACLSpecificityAndUnblock(t *testing.T) {
	acl := NewACL()
	// Deny 10/8 but tarpit the more specific 10.1/16: specificity wins.
	acl.Apply([]netwide.Verdict{
		{Subnet: hierarchy.IPv4(10, 0, 0, 0), PrefixBytes: 1, Act: netwide.ActionDeny},
		{Subnet: hierarchy.IPv4(10, 1, 0, 0), PrefixBytes: 2, Act: netwide.ActionTarpit},
	})
	if got := acl.Lookup(hierarchy.IPv4(10, 1, 5, 5)); got != netwide.ActionTarpit {
		t.Fatalf("specific subnet: %v", got)
	}
	if got := acl.Lookup(hierarchy.IPv4(10, 2, 5, 5)); got != netwide.ActionDeny {
		t.Fatalf("covering subnet: %v", got)
	}
	if got := acl.Lookup(hierarchy.IPv4(11, 0, 0, 1)); got != netwide.ActionAllow {
		t.Fatalf("unrelated address: %v", got)
	}
	// Allow removes the entry.
	acl.Apply([]netwide.Verdict{{Subnet: hierarchy.IPv4(10, 0, 0, 0), PrefixBytes: 1, Act: netwide.ActionAllow}})
	if got := acl.Lookup(hierarchy.IPv4(10, 2, 5, 5)); got != netwide.ActionAllow {
		t.Fatalf("after unblock: %v", got)
	}
	if acl.Len() != 1 {
		t.Fatalf("ACL entries = %d, want 1", acl.Len())
	}
}

func TestApplyVerdictsFromChannel(t *testing.T) {
	acl := NewACL()
	b, _, cleanup := backendPair(t, 1, Config{ACL: acl})
	defer cleanup()
	ch := make(chan []netwide.Verdict)
	done := make(chan struct{})
	go func() {
		b.ApplyVerdictsFrom(ch)
		close(done)
	}()
	ch <- []netwide.Verdict{{Subnet: hierarchy.IPv4(5, 0, 0, 0), PrefixBytes: 1, Act: netwide.ActionDeny}}
	close(ch)
	<-done
	if acl.Lookup(hierarchy.IPv4(5, 5, 5, 5)) != netwide.ActionDeny {
		t.Fatal("verdict from channel not applied")
	}
}

func TestParseIPv4(t *testing.T) {
	if v, err := parseIPv4("1.2.3.4"); err != nil || v != hierarchy.IPv4(1, 2, 3, 4) {
		t.Fatalf("parseIPv4: %v %v", v, err)
	}
	for _, bad := range []string{"", "nope", "1.2.3", "::1"} {
		if _, err := parseIPv4(bad); err == nil {
			t.Errorf("parseIPv4(%q) should fail", bad)
		}
	}
}

func TestBadClientAddress(t *testing.T) {
	b, _, cleanup := backendPair(t, 1, Config{TrustForwardedFor: true})
	defer cleanup()
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	req.Header.Set("X-Forwarded-For", "garbage")
	rec := httptest.NewRecorder()
	b.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rec.Code)
	}
}

// countingSink records batch deliveries for BatchingObserver tests.
type countingSink struct {
	mu      sync.Mutex
	events  int
	batches int
}

func (c *countingSink) UpdateBatch(ps []hierarchy.Packet) {
	c.mu.Lock()
	c.events += len(ps)
	c.batches++
	c.mu.Unlock()
}

func TestBatchingObserverForwardsEverything(t *testing.T) {
	sink := &countingSink{}
	obs := NewBatchingObserver(sink, 8)
	const n = 8*5 + 3
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				obs.Observe(hierarchy.Packet{Src: uint32(g<<16 | i)})
			}
		}(g)
	}
	wg.Wait()
	obs.Flush()
	if sink.events != 4*n {
		t.Fatalf("sink received %d events, want %d", sink.events, 4*n)
	}
	if sink.batches < 4*n/8 {
		t.Errorf("suspiciously few batches: %d", sink.batches)
	}
	// Flush with an empty buffer is a no-op.
	before := sink.batches
	obs.Flush()
	if sink.batches != before {
		t.Error("empty Flush reached the sink")
	}
}

// TestBalancerWithShardedObserver drives the proxy end to end with a
// sharded H-Memento behind a BatchingObserver — the concurrent
// measurement pipeline the shard layer exists for.
func TestBalancerWithShardedObserver(t *testing.T) {
	hh, err := shard.NewHHH(shard.HHHConfig{
		Core: core.HHHConfig{
			Hierarchy: hierarchy.OneD{}, Window: 1 << 12, Counters: 64 * 5, V: 5, Seed: 4,
		},
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	obs := NewBatchingObserver(hh, 16)
	b, _, cleanup := backendPair(t, 1, Config{Observer: obs, TrustForwardedFor: true})
	defer cleanup()

	const requests = 200
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < requests/4; i++ {
				req := httptest.NewRequest(http.MethodGet, "/", nil)
				req.Header.Set("X-Forwarded-For", "10.0.0.1")
				b.ServeHTTP(httptest.NewRecorder(), req)
			}
		}(g)
	}
	wg.Wait()
	obs.Flush()
	if got := hh.Updates(); got != requests {
		t.Fatalf("sharded observer saw %d packets, want %d", got, requests)
	}
	// All 200 requests come from one client; the one-sided estimate
	// must not undercount materially (a vacuous >0 check would pass
	// even if the pipeline dropped everything, since Memento's Query
	// has a positive floor for absent keys).
	p := hierarchy.OneD{}.Prefix(hierarchy.Packet{Src: hierarchy.IPv4(10, 0, 0, 1)}, 0)
	if est := hh.Query(p); est < requests/2 {
		t.Errorf("estimate %v for the only client; want at least %d", est, requests/2)
	}
}
