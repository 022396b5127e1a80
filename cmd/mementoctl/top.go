// mementoctl top: a terminal view over a live process's debug
// endpoints (-debug-addr on cmd/lbproxy and cmd/controller). One-shot
// by default; -watch redraws at -every intervals until interrupted.

package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"text/tabwriter"
	"time"
)

// topEvent mirrors obs's /debug/events wire shape.
type topEvent struct {
	Seq   uint64 `json:"seq"`
	Nanos int64  `json:"unix_nanos"`
	Kind  string `json:"kind"`
	Actor string `json:"actor"`
	Value uint64 `json:"value"`
}

// topEvents is the /debug/events response envelope.
type topEvents struct {
	Seq     uint64     `json:"seq"`
	Dropped uint64     `json:"dropped"`
	Events  []topEvent `json:"events"`
}

func runTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9700", "debug address of the target process (-debug-addr)")
	watch := fs.Bool("watch", false, "redraw continuously instead of printing once")
	every := fs.Duration("every", 2*time.Second, "refresh interval with -watch")
	events := fs.Int("events", 10, "recent trace events to show (0 hides the section)")
	asJSON := fs.Bool("json", false, "emit one machine-readable JSON document per snapshot instead of the table")
	fs.Parse(args)
	if *every <= 0 {
		return fmt.Errorf("top: -every must be positive, got %v", *every)
	}
	base := *addr
	if _, err := url.Parse("http://" + base); err != nil {
		return fmt.Errorf("top: bad -addr %q: %v", base, err)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for {
		if *watch && !*asJSON {
			// ANSI clear + home: good enough for a status loop without
			// pulling in a terminal library. JSON mode never clears —
			// with -watch it emits one document per line for scrapers.
			fmt.Print("\x1b[2J\x1b[H")
		}
		if err := topOnce(client, base, *events, *asJSON); err != nil {
			if !*watch {
				return err
			}
			fmt.Fprintln(os.Stderr, "mementoctl top:", err)
		}
		if !*watch {
			return nil
		}
		time.Sleep(*every)
	}
}

// topOnce fetches and renders one snapshot of the target's metrics
// and recent events, as a table or (asJSON) a single JSON document.
func topOnce(client *http.Client, addr string, nEvents int, asJSON bool) error {
	metrics := map[string]json.RawMessage{}
	if err := topGet(client, "http://"+addr+"/debug/metrics?format=json", &metrics); err != nil {
		return err
	}
	if asJSON {
		doc := struct {
			Addr    string                     `json:"addr"`
			Metrics map[string]json.RawMessage `json:"metrics"`
			Events  *topEvents                 `json:"events,omitempty"`
		}{Addr: addr, Metrics: metrics}
		if nEvents > 0 {
			var ev topEvents
			if err := topGet(client, fmt.Sprintf("http://%s/debug/events?n=%d", addr, nEvents), &ev); err != nil {
				return err
			}
			doc.Events = &ev
		}
		enc := json.NewEncoder(os.Stdout)
		return enc.Encode(doc)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "# %s at %s\n", addr, time.Now().Format(time.TimeOnly))
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s\t%s\n", name, topValue(metrics[name]))
	}
	var swept, admitted float64
	if json.Unmarshal(metrics["memento_shard_query_swept_keys_total"], &swept) == nil &&
		json.Unmarshal(metrics["memento_shard_query_admitted_total"], &admitted) == nil && swept > 0 {
		// The read plane's filter selectivity: keys admitted per table
		// entry swept (a key both overflowed and monitored is two
		// entries, so admitting everything reads a little under 1).
		// Near 1 the sweep rejects nothing (θ·W − compensation no
		// longer clears the shards' summed absent-key defaults) and
		// queries scan every tracked key.
		fmt.Fprintf(w, "query admitted/swept entries\t%.4g\n", admitted/swept)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if nEvents <= 0 {
		return nil
	}
	var ev topEvents
	if err := topGet(client, fmt.Sprintf("http://%s/debug/events?n=%d", addr, nEvents), &ev); err != nil {
		return err
	}
	fmt.Printf("\nevents (seq %d, dropped %d):\n", ev.Seq, ev.Dropped)
	if len(ev.Events) == 0 {
		fmt.Println("  (none)")
	}
	for _, e := range ev.Events {
		ts := time.Unix(0, e.Nanos).Format(time.TimeOnly)
		fmt.Printf("  %6d  %s  %-14s %s value=%d\n", e.Seq, ts, e.Kind, e.Actor, e.Value)
	}
	return nil
}

// topGet fetches one JSON endpoint into out.
func topGet(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("top: %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
	return json.Unmarshal(body, out)
}

// topValue renders one /debug/metrics?format=json value: scalars
// verbatim, histogram objects as a compact quantile line.
func topValue(raw json.RawMessage) string {
	var h struct {
		Count *uint64 `json:"count"`
		Mean  float64 `json:"mean"`
		P50   uint64  `json:"p50"`
		P99   uint64  `json:"p99"`
		P999  uint64  `json:"p999"`
		Max   uint64  `json:"max"`
	}
	if err := json.Unmarshal(raw, &h); err == nil && h.Count != nil {
		return fmt.Sprintf("n=%d mean=%.1f p50=%d p99=%d p999=%d max=%d",
			*h.Count, h.Mean, h.P50, h.P99, h.P999, h.Max)
	}
	return string(raw)
}
