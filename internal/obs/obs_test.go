package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(7)
	g.Set(-3)
	if got := g.Load(); got != -3 {
		t.Fatalf("gauge = %d, want -3", got)
	}
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tr *Trace
	c.Inc()
	c.Add(5)
	g.Set(1)
	h.Observe(10)
	tr.Record(EvConnect, "x", 1)
	if c.Load() != 0 || g.Load() != 0 || tr.Seq() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if got := tr.Events(nil); len(got) != 0 {
		t.Fatalf("nil trace returned %d events", len(got))
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	r.RegisterFunc("x", func() float64 { return 0 })
}

func TestInstrumentPadding(t *testing.T) {
	if s := unsafe.Sizeof(Counter{}); s != 64 {
		t.Fatalf("Counter is %d bytes, want one cache line (64)", s)
	}
	if s := unsafe.Sizeof(Gauge{}); s != 64 {
		t.Fatalf("Gauge is %d bytes, want one cache line (64)", s)
	}
}

func TestRegistryIdempotentCreation(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("memento_test_total")
	b := r.Counter("memento_test_total")
	if a != b {
		t.Fatal("same name must return the same counter")
	}
	a.Inc()
	if b.Load() != 1 {
		t.Fatal("aliased counter did not share state")
	}
	if r.Histogram("memento_test_hist") != r.Histogram("memento_test_hist") {
		t.Fatal("same name must return the same histogram")
	}
}

func TestWritePrometheusParseable(t *testing.T) {
	r := NewRegistry()
	r.Counter("memento_test_packets_total").Add(123)
	r.Gauge("memento_test_depth").Set(-4)
	r.Histogram("memento_test_latency_ns").Observe(1000)
	r.RegisterFunc("memento_test_live", func() float64 { return 2.5 })

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	// Every non-comment line must be "<name or name{labels}> <value>".
	sc := bufio.NewScanner(&buf)
	samples := map[string]bool{}
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		samples[fields[0]] = true
	}
	for _, want := range []string{
		"memento_test_packets_total",
		"memento_test_depth",
		"memento_test_live",
		`memento_test_latency_ns{quantile="0.99"}`,
		"memento_test_latency_ns_count",
		"memento_test_latency_ns_sum",
	} {
		if !samples[want] {
			t.Fatalf("exposition missing sample %q; got %v", want, samples)
		}
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("memento_test_total").Add(9)
	r.Histogram("memento_test_hist").Observe(5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v", err)
	}
	if out["memento_test_total"].(float64) != 9 {
		t.Fatalf("counter lost in JSON: %v", out)
	}
	h := out["memento_test_hist"].(map[string]any)
	if h["count"].(float64) != 1 || h["p50"].(float64) != 5 {
		t.Fatalf("hist lost in JSON: %v", h)
	}
}

func TestTraceRingAndDrops(t *testing.T) {
	tr := NewTrace(16)
	for i := 0; i < 40; i++ {
		tr.Record(EvWindowSlide, "s", uint64(i))
	}
	ev := tr.Events(nil)
	if len(ev) != 16 {
		t.Fatalf("ring retained %d events, want 16", len(ev))
	}
	for i, e := range ev {
		if e.Seq != uint64(25+i) {
			t.Fatalf("event %d has seq %d, want %d (oldest-first order)", i, e.Seq, 25+i)
		}
	}
	if got := tr.Dropped(); got != 24 {
		t.Fatalf("dropped = %d, want 24", got)
	}
	if got := tr.Count(EvWindowSlide); got != 40 {
		t.Fatalf("count = %d, want 40", got)
	}
	if tr.Seq() != 40 {
		t.Fatalf("seq = %d, want 40", tr.Seq())
	}
}

func TestTraceConcurrentSeqUnique(t *testing.T) {
	tr := NewTrace(4096)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 256; i++ {
				tr.Record(EvConnect, "w", 0)
			}
		}()
	}
	wg.Wait()
	ev := tr.Events(nil)
	if len(ev) != 2048 {
		t.Fatalf("retained %d, want 2048", len(ev))
	}
	seen := map[uint64]bool{}
	for _, e := range ev {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

func TestTraceRegisterExportsCounts(t *testing.T) {
	r := NewRegistry()
	tr := NewTrace(16)
	tr.Record(EvQuarantine, "a", 0)
	tr.Record(EvQuarantine, "b", 0)
	tr.Register(r, "memento_fleet")
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out["memento_fleet_events_quarantine_total"].(float64) != 2 {
		t.Fatalf("trace counts not exported: %v", out)
	}
}

func TestDebugMuxEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("memento_test_total").Add(3)
	tr := NewTrace(16)
	tr.Record(EvCheckpoint, "ckpt", 77)
	srv := httptest.NewServer(DebugMux(r, tr))
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return buf.String()
	}

	if body := get("/debug/metrics"); !strings.Contains(body, "memento_test_total 3") {
		t.Fatalf("metrics body missing counter:\n%s", body)
	}
	var js map[string]any
	if err := json.Unmarshal([]byte(get("/debug/metrics?format=json")), &js); err != nil {
		t.Fatal(err)
	}
	var evs struct {
		Seq    uint64 `json:"seq"`
		Events []struct {
			Kind  string `json:"kind"`
			Actor string `json:"actor"`
			Value uint64 `json:"value"`
		} `json:"events"`
	}
	if err := json.Unmarshal([]byte(get("/debug/events")), &evs); err != nil {
		t.Fatal(err)
	}
	if evs.Seq != 1 || len(evs.Events) != 1 || evs.Events[0].Kind != "checkpoint" || evs.Events[0].Value != 77 {
		t.Fatalf("events payload wrong: %+v", evs)
	}
}
