// Tests for mementoctl, run in process through run(); TEST_PLAN.md
// lists the contract and cases of each command.

package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"memento/internal/codec"
	"memento/internal/core"
	"memento/internal/delta"
	"memento/internal/hierarchy"
	"memento/internal/obs"
	"memento/internal/trace"
)

// ctl runs one command line that must succeed and returns its stdout.
func ctl(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("mementoctl %s: %v\nstderr: %s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String()
}

// ctlErr runs one command line and returns its error.
func ctlErr(args ...string) error {
	return run(args, io.Discard, io.Discard)
}

// smallSpec is a save small enough to run many times per test.
func smallSpec(hier hierarchy.Hierarchy, seed uint64) saveSpec {
	return saveSpec{
		hier: hier, profile: "Backbone", packets: 20000, window: 4096,
		counters: 16, shards: 3, heavy: 0.2, seed: seed,
	}
}

// args renders sp as save's flags.
func (sp saveSpec) args() []string {
	a := []string{
		"-trace", sp.profile, "-packets", strconv.Itoa(sp.packets),
		"-window", strconv.Itoa(sp.window), "-counters", strconv.Itoa(sp.counters),
		"-v", strconv.Itoa(sp.v), "-shards", strconv.Itoa(sp.shards),
		"-heavy", strconv.FormatFloat(sp.heavy, 'g', -1, 64),
		"-seed", strconv.FormatUint(sp.seed, 10),
	}
	switch sp.hier.(type) {
	case hierarchy.TwoD:
		a = append(a, "-twod")
	case hierarchy.Flows:
		a = append(a, "-flows")
	}
	return a
}

// save runs save for sp into dir and returns the file's path.
func save(t *testing.T, dir, name string, sp saveSpec) string {
	t.Helper()
	path := filepath.Join(dir, name)
	ctl(t, append([]string{"save", "-out", path}, sp.args()...)...)
	return path
}

// table drops a command's first (shape) line, leaving the HHH table.
func table(out string) string {
	_, rest, _ := strings.Cut(out, "\n")
	return rest
}

// entriesOf renders entries exactly as load prints them.
func entriesOf(entries []core.HeavyPrefix, theta float64, window int) string {
	var b bytes.Buffer
	printEntries(&b, entries, theta, window)
	return b.String()
}

const theta = "0.05"

func TestSaveLoadPrintsSavedSet(t *testing.T) {
	dir := t.TempDir()
	for i, hier := range []hierarchy.Hierarchy{hierarchy.OneD{}, hierarchy.TwoD{}, hierarchy.Flows{}} {
		t.Run(hier.String(), func(t *testing.T) {
			sp := smallSpec(hier, uint64(3+i))
			path := save(t, dir, fmt.Sprintf("%d.mckpt", i), sp)
			s, err := sp.ingest()
			if err != nil {
				t.Fatal(err)
			}
			out := ctl(t, "load", "-in", path, "-theta", theta)
			wantHead := fmt.Sprintf("restored %s: %d shards, hierarchy %s, window %d, %d updates\n",
				path, sp.shards, hier, s.EffectiveWindow(), s.Updates())
			if head, _, _ := strings.Cut(out, "\n"); head+"\n" != wantHead {
				t.Fatalf("shape line %q, want %q", head, wantHead)
			}
			entries := s.Output(0.05)
			if len(entries) == 0 {
				t.Fatal("test vacuous: the saved instance reports nothing at theta")
			}
			if got, want := table(out), entriesOf(entries, 0.05, s.EffectiveWindow()); got != want {
				t.Fatalf("load table differs from the saved instance's:\n%s\nwant:\n%s", got, want)
			}

			again := save(t, dir, fmt.Sprintf("%d-again.mckpt", i), sp)
			a, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(again)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("two saves with one flag set differ (%d vs %d bytes)", len(a), len(b))
			}
		})
	}
}

func TestTruncatedInputsFail(t *testing.T) {
	dir := t.TempDir()
	sp := smallSpec(hierarchy.OneD{}, 5)
	sp.packets, sp.window, sp.counters, sp.shards = 3000, 1024, 4, 2
	raw, err := os.ReadFile(save(t, dir, "full.mckpt", sp))
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.mckpt")
	out := filepath.Join(dir, "out.mckpt")
	for n := 0; n < len(raw); n++ {
		if err := os.WriteFile(cut, raw[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{
			{"inspect", "-in", cut},
			{"load", "-in", cut},
			{"merge", cut},
			{"materialize", "-out", out, cut},
		} {
			if err := ctlErr(args...); err == nil {
				t.Fatalf("%s of a %d-byte prefix (of %d) succeeded", args[0], n, len(raw))
			}
		}
	}
}

// chainDir writes a sharded warm-restart chain (a base and deltas)
// for sp's instance into a fresh directory, ingesting more of the
// trace between steps, and returns the directory and the live
// instance's answer table at theta.
func chainDir(t *testing.T, sp saveSpec) (string, string) {
	t.Helper()
	s, err := sp.ingest()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableDeltaCheckpoints(41); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cp, err := delta.NewCheckpointer(dir, s, 8)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := trace.ProfileByName(sp.profile)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.NewGenerator(prof, sp.seed+100)
	if err != nil {
		t.Fatal(err)
	}
	b := s.NewBatcher(0)
	for step := 0; step < 4; step++ {
		if _, err := cp.Tick(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1500; i++ {
			b.Add(gen.Next())
		}
		b.Flush()
	}
	if _, err := cp.Tick(); err != nil {
		t.Fatal(err)
	}
	return dir, entriesOf(s.Output(0.05), 0.05, s.EffectiveWindow())
}

// sameAnswers requires a diff listing at least one prefix, each in
// both inputs with no difference.
func sameAnswers(t *testing.T, diff string) {
	t.Helper()
	rows := strings.Split(strings.TrimSpace(table(table(diff))), "\n")
	if len(rows) == 0 || rows[0] == "" {
		t.Fatalf("test vacuous: diff lists no prefix:\n%s", diff)
	}
	for _, row := range rows {
		f := strings.Fields(row) // a 2D prefix holds a space
		if n := len(f); n < 5 || f[n-4] != "both" || f[n-1] != "+0.0" {
			t.Fatalf("diff row %q: want the prefix in both with +0.0\n%s", row, diff)
		}
	}
}

func TestMaterializeAnswersAsChainDir(t *testing.T) {
	dir, live := chainDir(t, smallSpec(hierarchy.OneD{}, 7))
	out := filepath.Join(t.TempDir(), "plain.mckpt")
	ctl(t, "materialize", "-out", out, dir)
	if got := table(ctl(t, "load", "-in", out, "-theta", theta)); got != live {
		t.Fatalf("materialized file answers\n%s\nlive instance:\n%s", got, live)
	}
	sameAnswers(t, ctl(t, "diff", "-theta", theta, dir, out))
	if got := ctl(t, "inspect", "-in", dir); !strings.Contains(got, "3 partitions") {
		t.Fatalf("inspect of the chain directory:\n%s", got)
	}
}

func TestDiffSelfNoDifference(t *testing.T) {
	path := save(t, t.TempDir(), "a.mckpt", smallSpec(hierarchy.TwoD{}, 9))
	sameAnswers(t, ctl(t, "diff", "-theta", theta, path, path))
}

func TestMergeOneInputAnswersAsLoad(t *testing.T) {
	path := save(t, t.TempDir(), "a.mckpt", smallSpec(hierarchy.OneD{}, 11))
	merged := ctl(t, "merge", "-theta", theta, path)
	if !strings.HasPrefix(merged, "merged 1 files (3 partitions)") {
		t.Fatalf("merge shape line: %q", merged)
	}
	if got, want := table(merged), table(ctl(t, "load", "-in", path, "-theta", theta)); got != want {
		t.Fatalf("merge of one input:\n%s\nload:\n%s", got, want)
	}
}

// mergedSet parses merge's table into prefix → estimate.
func mergedSet(t *testing.T, out string) map[string]float64 {
	t.Helper()
	set := map[string]float64{}
	for _, row := range strings.Split(strings.TrimSpace(table(table(out))), "\n") {
		f := strings.Fields(row)
		est, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			t.Fatalf("row %q: %v", row, err)
		}
		set[f[0]] = est
	}
	return set
}

func TestMergeOrderFree(t *testing.T) {
	dir := t.TempDir()
	var files []string
	for i, shards := range []int{1, 2, 3} {
		sp := smallSpec(hierarchy.OneD{}, uint64(20+i))
		sp.shards = shards
		sp.packets += 4000 * i // unequal traffic, so the skew correction matters
		files = append(files, save(t, dir, fmt.Sprintf("%d.mckpt", i), sp))
	}
	want := mergedSet(t, ctl(t, append([]string{"merge", "-theta", theta}, files...)...))
	if len(want) < 2 {
		t.Fatalf("test vacuous: merged set %v", want)
	}
	for _, order := range [][]int{{2, 1, 0}, {1, 0, 2}, {0, 2, 1}} {
		args := []string{"merge", "-theta", theta}
		for _, i := range order {
			args = append(args, files[i])
		}
		got := mergedSet(t, ctl(t, args...))
		if len(got) != len(want) {
			t.Fatalf("order %v selects %d prefixes, want %d", order, len(got), len(want))
		}
		for p, est := range want {
			g, ok := got[p]
			if !ok {
				t.Fatalf("order %v drops %s", order, p)
			}
			// The printed estimate has one decimal; the float sums
			// behind it differ in input order only in the last bits,
			// which can move the print by one step.
			if math.Abs(g-est) > 0.15 {
				t.Fatalf("order %v: %s estimate %.1f, want %.1f", order, p, g, est)
			}
		}
	}

	other := save(t, dir, "twod.mckpt", smallSpec(hierarchy.TwoD{}, 30))
	if err := ctlErr("merge", files[0], other); !errors.Is(err, codec.ErrConfigMismatch) {
		t.Fatalf("merge across hierarchies: %v, want ErrConfigMismatch", err)
	}
}

// recordSource drives one delta.Tracker as a delta.Checkpointer
// source, writing bare chain records as cmd/controller does.
type recordSource struct{ tr *delta.Tracker }

func (rs recordSource) WriteChain(w io.Writer, rebase bool) (bool, error) {
	if rebase {
		rs.tr.ForceBase()
	}
	rec, base, err := rs.tr.Append(nil)
	if err != nil {
		return base, err
	}
	_, err = w.Write(rec)
	return base, err
}

func TestInspectForms(t *testing.T) {
	path := save(t, t.TempDir(), "a.mckpt", smallSpec(hierarchy.OneD{}, 13))
	if got := ctl(t, "inspect", "-in", path); !strings.Contains(got, "3 shards") ||
		strings.Count(got, "true\n") != 3 {
		t.Fatalf("inspect of a checkpoint:\n%s", got)
	}

	// A single-record chain, the layout cmd/controller writes.
	hh, err := core.NewHHH(core.HHHConfig{Hierarchy: hierarchy.OneD{}, Window: 2048, Counters: 80, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := delta.NewTracker(hh, delta.TrackerConfig{Chain: 43, Restore: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cp, err := delta.NewCheckpointer(dir, recordSource{tr}, 8)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := trace.ProfileByName("Backbone")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.NewGenerator(prof, 4)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		for i := 0; i < 3000; i++ {
			hh.Update(gen.Next())
		}
		if _, err := cp.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	chain, err := delta.FindChain(dir)
	if err != nil || chain == nil || len(chain.Deltas) != 2 {
		t.Fatalf("chain %+v, %v", chain, err)
	}
	if got := ctl(t, "inspect", "-in", dir); !strings.Contains(got, "epoch 3 (base") ||
		!strings.Contains(got, "1 partitions") {
		t.Fatalf("inspect of a record chain directory:\n%s", got)
	}
	if got := ctl(t, "inspect", "-in", chain.Base); !strings.Contains(got, "base, chain 0x2b, epoch 1") {
		t.Fatalf("inspect of a base record:\n%s", got)
	}
	if got := ctl(t, "inspect", "-in", chain.Deltas[0]); !strings.Contains(got, "delta, chain 0x2b, epoch 2") {
		t.Fatalf("inspect of a delta record:\n%s", got)
	}
	out := filepath.Join(t.TempDir(), "plain.mckpt")
	ctl(t, "materialize", "-out", out, dir)
	sameAnswers(t, ctl(t, "diff", "-theta", "0.02", dir, out))

	// A sharded delta step applies only after its chain.
	sdir, _ := chainDir(t, smallSpec(hierarchy.OneD{}, 15))
	schain, err := delta.FindChain(sdir)
	if err != nil || schain == nil || len(schain.Deltas) == 0 {
		t.Fatalf("sharded chain %+v, %v", schain, err)
	}
	if err := ctlErr("inspect", "-in", schain.Deltas[0]); err == nil {
		t.Fatal("inspect of a lone delta set step succeeded")
	}
}

func TestRetiredKindFailsLoudly(t *testing.T) {
	const retired = 4 // the sharded checkpoint of bare KindHHH records
	old := codec.AppendHeader(nil, codec.Header{
		Version: codec.Version,
		Kind:    retired,
		Flags:   codec.FlagRestore,
		Digest:  codec.SetDigest(retired, 1),
	})
	old = binary.BigEndian.AppendUint32(old, 1) // shards
	old = binary.BigEndian.AppendUint64(old, 0) // reserved
	path := filepath.Join(t.TempDir(), "old.mckpt")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"load", "-in", path}, {"inspect", "-in", path}} {
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		if !errors.Is(err, codec.ErrKind) || !strings.Contains(err.Error(), "kind 4") {
			t.Fatalf("%s of a kind-4 file: %v, want ErrKind naming kind 4", args[0], err)
		}
	}
}

func TestTopRendersRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("memento_test_requests_total").Add(7)
	reg.Counter("memento_shard_query_swept_keys_total").Add(8)
	reg.Counter("memento_shard_query_admitted_total").Add(2)
	h := reg.Histogram("memento_test_latency_ns")
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v * 1000)
	}
	tr := obs.NewTrace(16)
	tr.Record(obs.EvCheckpoint, "node-a", 5)
	srv := httptest.NewServer(obs.DebugMux(reg, tr))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")

	out := ctl(t, "top", "-addr", addr, "-events", "4")
	for _, re := range []string{
		`(?m)^memento_test_requests_total +7$`,
		`(?m)^memento_test_latency_ns +n=100 mean=`,
		`(?m)^query admitted/swept entries +0\.25$`,
		`(?m)^events \(seq 1, dropped 0\):$`,
		`node-a value=5`,
	} {
		if !regexp.MustCompile(re).MatchString(out) {
			t.Fatalf("top output lacks %s:\n%s", re, out)
		}
	}

	var doc struct {
		Addr    string                     `json:"addr"`
		Metrics map[string]json.RawMessage `json:"metrics"`
		Events  *topEvents                 `json:"events"`
	}
	if err := json.Unmarshal([]byte(ctl(t, "top", "-addr", addr, "-json")), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Addr != addr || string(doc.Metrics["memento_test_requests_total"]) != "7" ||
		doc.Events == nil || len(doc.Events.Events) != 1 {
		t.Fatalf("top -json document: %+v", doc)
	}

	missing := httptest.NewServer(http.NotFoundHandler())
	defer missing.Close()
	if err := ctlErr("top", "-addr", strings.TrimPrefix(missing.URL, "http://")); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Fatalf("top against a 404: %v", err)
	}
}

func TestBadFlags(t *testing.T) {
	dir := t.TempDir()
	good := save(t, dir, "good.mckpt", smallSpec(hierarchy.OneD{}, 17))
	out := filepath.Join(dir, "out.mckpt")
	missing := filepath.Join(dir, "missing.mckpt")
	small := []string{"-packets", "100"}
	for _, tc := range []struct {
		args  []string
		usage bool   // answered with usage text (exit 2)
		want  string // substring of the error otherwise
	}{
		{args: nil, usage: true},
		{args: []string{"bogus"}, usage: true},
		{args: []string{"save"}, want: "-out is required"},
		{args: []string{"save", "-out", out, "-packets", "x"}, usage: true},
		{args: append([]string{"save", "-out", out, "-trace", "Nope"}, small...), want: "unknown profile"},
		{args: append([]string{"save", "-out", out, "-window", "0"}, small...), want: "Window"},
		{args: append([]string{"save", "-out", out, "-shards", "-1"}, small...), want: "Shards"},
		{args: append([]string{"save", "-out", out, "-counters", "0"}, small...), want: "Counters"},
		{args: append([]string{"save", "-out", out, "-v", "2"}, small...), want: "below hierarchy size"},
		{args: append([]string{"save", "-out", filepath.Join(missing, "x")}, small...), want: "no such file"},
		{args: []string{"load"}, want: "-in is required"},
		{args: []string{"load", "-in", missing}, want: "no such file"},
		{args: []string{"load", "-in", good, "-theta", "abc"}, usage: true},
		{args: []string{"inspect"}, want: "-in is required"},
		{args: []string{"inspect", "-in", missing}, want: "no such file"},
		{args: []string{"merge"}, want: "at least one"},
		{args: []string{"merge", good, missing}, want: "no such file"},
		{args: []string{"diff", good}, want: "exactly two"},
		{args: []string{"diff", good, missing}, want: "no such file"},
		{args: []string{"materialize", "-out", out}, want: "exactly one"},
		{args: []string{"materialize", good}, want: "-out"},
		{args: []string{"top", "-every", "0"}, want: "-every must be positive"},
		{args: []string{"top", "-addr", "%zz"}, want: "bad -addr"},
		{args: []string{"top", "-events", "many"}, usage: true},
	} {
		var stderr bytes.Buffer
		err := run(tc.args, io.Discard, &stderr)
		switch {
		case err == nil:
			t.Errorf("%q: succeeded", tc.args)
		case tc.usage:
			if !errors.Is(err, errUsage) || !strings.Contains(stderr.String(), "sage") {
				t.Errorf("%q: %v, stderr %q: want usage", tc.args, err, stderr.String())
			}
		case errors.Is(err, errUsage) || !strings.Contains(err.Error(), tc.want):
			t.Errorf("%q: %v, want an error naming %q", tc.args, err, tc.want)
		}
	}

	// Help is not an error: exit 0 with the text on stderr.
	for _, args := range [][]string{{"help"}, {"load", "-h"}} {
		var stderr bytes.Buffer
		if err := run(args, io.Discard, &stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
			t.Errorf("%q: %v", args, err)
		}
		if stderr.Len() == 0 {
			t.Errorf("%q printed no help", args)
		}
	}
}

// TestUsageNamesEveryCommand keeps the usage text and the dispatch in
// step.
func TestUsageNamesEveryCommand(t *testing.T) {
	var b bytes.Buffer
	usage(&b)
	var cmds []string
	for _, line := range strings.Split(b.String(), "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == "mementoctl" {
			cmds = append(cmds, f[1])
		}
	}
	sort.Strings(cmds)
	if want := "diff inspect load materialize merge save top"; strings.Join(cmds, " ") != want {
		t.Fatalf("usage lists %v, want %s", cmds, want)
	}
	for _, c := range cmds {
		if err := ctlErr(c, "-h"); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("%s -h: %v, want flag.ErrHelp", c, err)
		}
	}
}
