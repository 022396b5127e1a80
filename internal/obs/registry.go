// The flat metric registry and its three export formats: Prometheus
// text exposition, JSON, and an aligned terminal table.

package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"text/tabwriter"
)

type metricKind uint8

const (
	mCounter metricKind = iota
	mGauge
	mHist
	mFunc
)

type metric struct {
	name string
	kind metricKind
	c    *Counter
	g    *Gauge
	h    *Histogram
	f    func() float64
}

// Registry is a flat, name-ordered set of instruments. All methods
// are safe for concurrent use and nil-receiver safe: code paths
// instrument themselves against a possibly-nil registry and the
// instruments come back nil (disabled) instead of panicking.
//
// Names follow memento_<layer>_<name>; counters end in _total.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]*metric{}}
}

func (r *Registry) add(m *metric) {
	r.mu.Lock()
	if _, dup := r.metrics[m.name]; !dup {
		r.metrics[m.name] = m
	}
	r.mu.Unlock()
}

// Counter returns the counter registered under name, creating it on
// first use. Returns nil (a disabled counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok && m.kind == mCounter {
		return m.c
	}
	c := &Counter{}
	r.metrics[name] = &metric{name: name, kind: mCounter, c: c}
	return c
}

// Gauge returns the gauge registered under name, creating it on
// first use. Returns nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok && m.kind == mGauge {
		return m.g
	}
	g := &Gauge{}
	r.metrics[name] = &metric{name: name, kind: mGauge, g: g}
	return g
}

// Histogram returns the histogram registered under name, creating it
// on first use. Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok && m.kind == mHist {
		return m.h
	}
	h := &Histogram{}
	r.metrics[name] = &metric{name: name, kind: mHist, h: h}
	return h
}

// RegisterCounter exposes an existing counter (one owned by a
// subsystem's struct) under name. First registration wins; nil
// registry or instrument is a no-op.
func (r *Registry) RegisterCounter(name string, c *Counter) {
	if r == nil || c == nil {
		return
	}
	r.add(&metric{name: name, kind: mCounter, c: c})
}

// RegisterHistogram exposes an existing histogram under name.
func (r *Registry) RegisterHistogram(name string, h *Histogram) {
	if r == nil || h == nil {
		return
	}
	r.add(&metric{name: name, kind: mHist, h: h})
}

// RegisterFunc exposes a pull-time value: f runs at scrape time, so
// the instrumented hot path pays nothing. Use it to surface existing
// ledgers (shard stats, queue depths) without mirroring writes.
func (r *Registry) RegisterFunc(name string, f func() float64) {
	if r == nil || f == nil {
		return
	}
	r.add(&metric{name: name, kind: mFunc, f: f})
}

// snapshot returns the metrics sorted by name.
func (r *Registry) snapshot() []*metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// WritePrometheus writes the registry in Prometheus text exposition
// format (version 0.0.4). Histograms export as summaries: quantile
// series plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var snap HistSnapshot
	for _, m := range r.snapshot() {
		var err error
		switch m.kind {
		case mCounter:
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", m.name, m.name, m.c.Load())
		case mGauge:
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", m.name, m.name, m.g.Load())
		case mFunc:
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", m.name, m.name, m.f())
		case mHist:
			m.h.Snapshot(&snap)
			_, err = fmt.Fprintf(w,
				"# TYPE %s summary\n%s{quantile=\"0.5\"} %d\n%s{quantile=\"0.99\"} %d\n%s{quantile=\"0.999\"} %d\n%s_sum %d\n%s_count %d\n",
				m.name, m.name, snap.P50(), m.name, snap.P99(), m.name, snap.P999(),
				m.name, snap.Sum, m.name, snap.Count)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// histJSON is the JSON shape of a histogram metric.
type histJSON struct {
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50"`
	P99   uint64  `json:"p99"`
	P999  uint64  `json:"p999"`
	Max   uint64  `json:"max"`
}

// WriteJSON writes the registry as one flat JSON object: counters
// and gauges as numbers, histograms as {count,sum,mean,p50,p99,
// p999,max} objects.
func (r *Registry) WriteJSON(w io.Writer) error {
	out := map[string]any{}
	var snap HistSnapshot
	for _, m := range r.snapshot() {
		switch m.kind {
		case mCounter:
			out[m.name] = m.c.Load()
		case mGauge:
			out[m.name] = m.g.Load()
		case mFunc:
			out[m.name] = m.f()
		case mHist:
			m.h.Snapshot(&snap)
			out[m.name] = histJSON{
				Count: snap.Count, Sum: snap.Sum, Mean: snap.Mean(),
				P50: snap.P50(), P99: snap.P99(), P999: snap.P999(), Max: snap.Max(),
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WriteTable writes an aligned human-readable table (the final
// summary mementobench -figure9/-figure10 print, and mementoctl top's
// body).
func (r *Registry) WriteTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	var snap HistSnapshot
	for _, m := range r.snapshot() {
		switch m.kind {
		case mCounter:
			fmt.Fprintf(tw, "%s\t%d\n", m.name, m.c.Load())
		case mGauge:
			fmt.Fprintf(tw, "%s\t%d\n", m.name, m.g.Load())
		case mFunc:
			fmt.Fprintf(tw, "%s\t%g\n", m.name, m.f())
		case mHist:
			m.h.Snapshot(&snap)
			fmt.Fprintf(tw, "%s\tn=%d mean=%.1f p50=%d p99=%d p999=%d max=%d\n",
				m.name, snap.Count, snap.Mean(), snap.P50(), snap.P99(), snap.P999(), snap.Max())
		}
	}
	return tw.Flush()
}
