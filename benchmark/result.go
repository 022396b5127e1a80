package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
)

// value is one reported metric. Samples is the number of measurements behind
// a quantile; Segments is the per-segment spread behind a steady-phase median.
type value struct {
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	Samples  int     `json:"samples,omitempty"`
	Segments *spread `json:"segments,omitempty"`
}

// host records where a result was measured; -compare refuses to set results
// from different hosts side by side.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func thisHost() host {
	return host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
}

// result is everything one run of one workload produced.
type result struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Traced    bool             `json:"traced"`
	Host      host             `json:"host"`
	Sizing    sizing           `json:"sizing"`
	Metrics   map[string]value `json:"metrics"`
	Detection *detection       `json:"detection,omitempty"`
	Accuracy  *accuracy        `json:"accuracy,omitempty"`
	Ledger    ledger           `json:"ledger"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Correct   bool             `json:"correct"`
	Problems  []string         `json:"problems,omitempty"`
	// Claim is what gain the run claims over a parent. The benchmark is
	// the baseline later claims are measured with; it claims none.
	Claim *string `json:"claim"`
}

func (r *result) set(name string, v float64) { r.Metrics[name] = value{Value: v} }

// setSampled records a statistic of n samples.
func (r *result) setSampled(name string, v float64, n int) {
	r.Metrics[name] = value{Value: v, Samples: n}
}

// setSegments records a median together with the per-segment (or per-repeat)
// values behind it.
func (r *result) setSegments(name string, v float64, n int, vals []float64) {
	s := spreadOf(vals)
	r.Metrics[name] = value{Value: v, Samples: n, Segments: &s}
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// seal fills in the units from the catalogue and checks that the run emitted
// exactly the metrics its mode promises, under valid names.
func (r *result) seal() {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	known := make(map[string]bool)
	for _, d := range defs {
		known[d.Name] = true
		v, ok := r.Metrics[d.Name]
		if !ok {
			r.problem("metric %s not emitted", d.Name)
			continue
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			r.problem("metric %s is not a finite number", d.Name)
			v.Value = 0
		}
		v.Unit = d.Unit
		r.Metrics[d.Name] = v
	}
	for name := range r.Metrics {
		if !nameRE.MatchString(name) {
			r.problem("metric name %q is not valid", name)
		}
		if !known[name] {
			r.problem("metric %s is not in the catalogue", name)
		}
	}
	r.Correct = len(r.Problems) == 0
}

// print writes every metric by name with its unit, then — as the last line —
// the one JSON object the driver reads.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d traced %v  theta %g v %d window %d comp %.0f margin %.0f\n",
		r.Workload, r.Seed, r.Traced, r.Sizing.Theta, r.Sizing.V, r.Sizing.Window, r.Sizing.Comp, r.Sizing.Margin)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.Metrics[name]
		fmt.Fprintf(w, "  %-34s %14.6g %-8s", name, v.Value, v.Unit)
		if v.Samples > 0 {
			fmt.Fprintf(w, " n=%d", v.Samples)
		}
		if v.Segments != nil {
			fmt.Fprintf(w, " segments min %.6g max %.6g", v.Segments.Min, v.Segments.Max)
		}
		fmt.Fprintln(w)
	}
	if r.Detection != nil {
		fmt.Fprintf(w, "  flood subnets denied %d/%d, exact HHH %d, reported %d, bound violations %d\n",
			r.Detection.Denied, floodSubnets, r.Accuracy.Truth, r.Accuracy.Reported, r.Accuracy.Violations)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
	type driverValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted uint64                 `json:"attempted"`
		Failed    uint64                 `json:"failed"`
		Metrics   map[string]driverValue `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, make(map[string]driverValue)}
	for name, v := range r.Metrics {
		line.Metrics[name] = driverValue{v.Value, v.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", data)
}

// resultSet is the on-disk form: the results of one or more runs.
type resultSet struct {
	Results []*result `json:"results"`
}

func (rs *resultSet) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}
