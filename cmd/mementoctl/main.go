// Command mementoctl operates on durable sketch state: save a sharded
// H-Memento's state to a file, restore and query it offline, inspect
// its layout, merge the state of independent nodes into one
// network-wide HHH view, and diff two states.
//
// Usage:
//
//	mementoctl save -out sketch.mckpt [-trace Backbone] [-packets N]
//	        [-window W] [-counters C] [-v V] [-shards N] [-twod|-flows]
//	        [-heavy F] [-seed S]
//	mementoctl load -in sketch.mckpt|chain-dir [-theta T]
//	mementoctl inspect -in sketch.mckpt|chain-dir|chain-record
//	mementoctl merge [-theta T] a.mckpt|chain-dir ...
//	mementoctl diff [-theta T] a.mckpt|chain-dir b.mckpt|chain-dir
//	mementoctl materialize -out plain.mckpt chain-dir|base-file
//	mementoctl top -addr host:port [-watch] [-every D] [-events N] [-json]
//
// State has one form on disk, the chains of internal/delta. A
// checkpoint (what save and materialize write: shard.HHH.Checkpoint)
// is a KindHHHDeltaSet step holding one chain base per shard. The
// warm-restart directories of cmd/lbproxy hold such a base step and
// the delta steps after it; cmd/controller's hold single KindHHHDelta
// records. Every command that reads state takes a base file or a chain
// directory, whose newest chain it applies, and rebuilds the state
// from the records alone (configuration derives from the
// per-partition snapshots); inspect also describes a lone chain
// record. merge combines independent nodes' partitions with the shard
// layer's merged-estimate math, exactly as the controller merges
// delta-reporting agents. A file of the retired sharded checkpoint
// kind (4) fails with codec.ErrKind.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
	"time"

	"memento/internal/codec"
	"memento/internal/core"
	"memento/internal/delta"
	"memento/internal/hierarchy"
	"memento/internal/shard"
	"memento/internal/trace"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "mementoctl:", err)
		os.Exit(1)
	}
}

// errUsage marks a command line that run has already answered with
// usage text on stderr; main exits 2 without printing it again.
var errUsage = errors.New("usage")

// run executes one mementoctl command line (args without the program
// name), writing results to stdout and diagnostics to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) < 1 {
		usage(stderr)
		return errUsage
	}
	var cmd func(args []string, stdout, stderr io.Writer) error
	switch args[0] {
	case "save":
		cmd = runSave
	case "load":
		cmd = runLoad
	case "inspect":
		cmd = runInspect
	case "merge":
		cmd = runMerge
	case "diff":
		cmd = runDiff
	case "materialize":
		cmd = runMaterialize
	case "top":
		cmd = runTop
	case "-h", "--help", "help":
		usage(stderr)
		return nil
	default:
		fmt.Fprintf(stderr, "mementoctl: unknown command %q\n", args[0])
		usage(stderr)
		return errUsage
	}
	return cmd(args[1:], stdout, stderr)
}

// parseFlags parses a subcommand's flags, reporting to stderr. A bad
// flag comes back as errUsage, already reported with the flag
// defaults; -h comes back as flag.ErrHelp.
func parseFlags(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	fs.SetOutput(stderr)
	err := fs.Parse(args)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return err
	}
	return fmt.Errorf("%w: %v", errUsage, err)
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  mementoctl save    -out FILE [flags]    ingest a trace and checkpoint it
  mementoctl load    -in IN [-theta T]    restore a live instance, print its HHH set
  mementoctl inspect -in IN|RECORD        describe a checkpoint's or chain's layout
  mementoctl merge   -theta T IN...       merge the state of independent nodes
  mementoctl diff    -theta T IN IN       compare two HHH sets
  mementoctl materialize -out FILE IN     fold a chain into one checkpoint file
  mementoctl top     -addr HOST:PORT [-watch] live metrics/events of a -debug-addr process
IN is a checkpoint file or a chain directory.`)
}

// hierFromFlags resolves the hierarchy selection flags.
func hierFromFlags(twod, flows bool) hierarchy.Hierarchy {
	switch {
	case twod:
		return hierarchy.TwoD{}
	case flows:
		return hierarchy.Flows{}
	default:
		return hierarchy.OneD{}
	}
}

// saveSpec is the instance and trace that save's flags select.
type saveSpec struct {
	hier                                 hierarchy.Hierarchy
	profile                              string
	packets, window, counters, v, shards int
	heavy                                float64
	seed                                 uint64
}

func runSave(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("save", flag.ContinueOnError)
	var sp saveSpec
	out := fs.String("out", "", "output checkpoint file (required)")
	fs.StringVar(&sp.profile, "trace", "Backbone", "trace profile (Edge, Datacenter, Backbone)")
	fs.IntVar(&sp.packets, "packets", 1<<20, "packets to ingest before checkpointing")
	fs.IntVar(&sp.window, "window", 1<<18, "global sliding window W")
	fs.IntVar(&sp.counters, "counters", 512, "per-pattern counter budget (total is counters*H)")
	fs.IntVar(&sp.v, "v", 0, "sampling ratio V (0: H, i.e. full fidelity — offline saves aren't rate-bound)")
	fs.IntVar(&sp.shards, "shards", 4, "shard count")
	twod := fs.Bool("twod", false, "2D src×dst hierarchy")
	flows := fs.Bool("flows", false, "flows hierarchy (plain heavy hitters)")
	fs.Float64Var(&sp.heavy, "heavy", 0, "inject this fraction of packets as a heavy 10.0.0.0/8 flood")
	fs.Uint64Var(&sp.seed, "seed", 1, "deterministic seed")
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("save: -out is required")
	}
	sp.hier = hierFromFlags(*twod, *flows)
	s, err := sp.ingest()
	if err != nil {
		return err
	}
	size, err := writeCheckpoint(*out, s)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "saved %s: %d shards, hierarchy %s, window %d, %d packets, %d bytes\n",
		*out, s.Shards(), sp.hier, s.EffectiveWindow(), sp.packets, size)
	return nil
}

// ingest builds the sharded H-Memento that sp selects and feeds it
// sp's trace.
func (sp saveSpec) ingest() (*shard.HHH, error) {
	v := sp.v
	if v == 0 {
		v = sp.hier.H()
	}
	s, err := shard.NewHHH(shard.HHHConfig{
		Core: core.HHHConfig{
			Hierarchy: sp.hier, Window: sp.window,
			Counters: sp.counters * sp.hier.H(), V: v, Seed: sp.seed + 1,
		},
		Shards: sp.shards,
	})
	if err != nil {
		return nil, err
	}
	prof, err := trace.ProfileByName(sp.profile)
	if err != nil {
		return nil, err
	}
	gen, err := trace.NewGenerator(prof, sp.seed)
	if err != nil {
		return nil, err
	}
	b := s.NewBatcher(0)
	flood := newFloodMixer(sp.heavy, sp.seed+7)
	for i := 0; i < sp.packets; i++ {
		b.Add(flood.mix(gen.Next()))
	}
	b.Flush()
	return s, nil
}

// writeCheckpoint writes s's checkpoint to path and returns the file
// size.
func writeCheckpoint(path string, s *shard.HHH) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if err := s.Checkpoint(f); err != nil {
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// floodMixer deterministically replaces a fraction of packets with a
// heavy 10.0.0.0/8 source, so saved checkpoints have an unambiguous
// heavy hitter to find offline.
type floodMixer struct {
	share float64
	state uint64
}

func newFloodMixer(share float64, seed uint64) *floodMixer {
	return &floodMixer{share: share, state: seed | 1}
}

func (m *floodMixer) next() uint64 {
	m.state ^= m.state << 13
	m.state ^= m.state >> 7
	m.state ^= m.state << 17
	return m.state
}

func (m *floodMixer) mix(p hierarchy.Packet) hierarchy.Packet {
	if m.share <= 0 {
		return p
	}
	r := m.next()
	if float64(r>>11)/(1<<53) < m.share {
		p.Src = hierarchy.IPv4(10, byte(r), byte(r>>8), byte(r>>16))
	}
	return p
}

func runLoad(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("load", flag.ContinueOnError)
	in := fs.String("in", "", "checkpoint file or chain directory (required)")
	theta := fs.Float64("theta", 0.01, "HHH threshold for the printed set")
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("load: -in is required")
	}
	s, err := restoreInput(*in)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "restored %s: %d shards, hierarchy %s, window %d, %d updates\n",
		*in, s.Shards(), s.Hierarchy(), s.EffectiveWindow(), s.Updates())
	printEntries(stdout, s.Output(*theta), *theta, s.EffectiveWindow())
	return nil
}

// input is the state a command reads: a file holding a chain base, or
// the newest chain of a directory, applied into one state per
// partition.
type input struct {
	path  string
	kind  uint8        // the base's record kind
	chain *delta.Chain // nil for a file
	sts   []*delta.State
}

// loadInput applies path: a base file (a checkpoint, a set base step
// or a single base record) or a chain directory, whose newest base is
// applied with the deltas that follow it. Both chain layouts load:
// sharded KindHHHDeltaSet steps (shard.HHH) and single KindHHHDelta
// records (cmd/controller's chain, one partition). Every command that
// reads state goes through here.
func loadInput(path string) (*input, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	in := &input{path: path}
	files := []string{path}
	if info.IsDir() {
		if in.chain, err = delta.FindChain(path); err != nil {
			return nil, err
		}
		if in.chain == nil {
			return nil, fmt.Errorf("%s: no chain base found", path)
		}
		files = append([]string{in.chain.Base}, in.chain.Deltas...)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		if err := in.apply(data); err != nil {
			if in.chain == nil && errors.Is(err, delta.ErrEpochGap) {
				return nil, fmt.Errorf("%s: %w (a delta step applies only after its chain; pass the chain directory)", file, err)
			}
			return nil, fmt.Errorf("%s: %w", file, err)
		}
	}
	return in, nil
}

// apply applies one chain file's bytes; the first fixes the layout.
func (in *input) apply(data []byte) error {
	if in.sts == nil {
		h, _, err := codec.ReadHeader(data)
		if err != nil {
			return err
		}
		if in.kind = h.Kind; in.kind == codec.KindHHHDelta {
			in.sts = []*delta.State{delta.NewState()}
		}
	}
	if in.kind == codec.KindHHHDelta {
		return in.sts[0].Apply(data)
	}
	var err error
	in.sts, err = shard.ApplyHHHDeltaSet(bytes.NewReader(data), in.sts)
	return err
}

// snapshots returns each partition's canonical snapshot.
func (in *input) snapshots() ([]*core.HHHSnapshot, error) {
	snaps := make([]*core.HHHSnapshot, len(in.sts))
	for i, st := range in.sts {
		var err error
		if snaps[i], err = st.Snapshot(); err != nil {
			return nil, fmt.Errorf("%s: partition %d: %w", in.path, i, err)
		}
	}
	return snaps, nil
}

// restoreInput rebuilds a live sharded instance from path.
func restoreInput(path string) (*shard.HHH, error) {
	in, err := loadInput(path)
	if err != nil {
		return nil, err
	}
	snaps, err := in.snapshots()
	if err != nil {
		return nil, err
	}
	s, err := shard.RestoreHHHFromSnapshots(snaps)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func runInspect(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("inspect", flag.ContinueOnError)
	in := fs.String("in", "", "checkpoint file, chain record, or chain directory (required)")
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("inspect: -in is required")
	}
	// A single chain record (cmd/controller's layout) shows its framing
	// first; a delta record cannot apply without its chain, so that is
	// all it shows.
	if rec, err := os.ReadFile(*in); err == nil {
		if inf, err := describeRecord(stdout, *in, rec); err == nil && !inf.Base {
			return nil
		}
	}
	src, err := loadInput(*in)
	if err != nil {
		return err
	}
	switch {
	case src.chain != nil:
		fmt.Fprintf(stdout, "%s: chain %#x at epoch %d (base %s + %d deltas), %d partitions\n",
			*in, src.sts[0].Chain(), src.sts[0].Epoch(), filepath.Base(src.chain.Base), len(src.chain.Deltas), len(src.sts))
		// Staleness: how long ago the chain last advanced. A warm-restart
		// or replication chain that stopped stepping is stale state a
		// restore would silently serve — surface its age next to the epoch.
		if age, newest, err := chainAge(src.chain); err == nil {
			fmt.Fprintf(stdout, "  last step %s ago (%s)\n", age.Round(time.Second), filepath.Base(newest))
		}
	case src.kind == codec.KindHHHDeltaSet:
		fmt.Fprintf(stdout, "%s: format v%d, %d shards, chain %#x, epoch %d (base step)\n",
			*in, codec.Version, len(src.sts), src.sts[0].Chain(), src.sts[0].Epoch())
	}
	snaps, err := src.snapshots()
	if err != nil {
		return err
	}
	return printShardTable(stdout, snaps)
}

// printShardTable renders the per-partition state table.
func printShardTable(stdout io.Writer, snaps []*core.HHHSnapshot) error {
	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "shard\twindow\tupdates\tfull\tcounters\toverflow\ttracked\tV\tcomp\trestorable")
	for i, snap := range snaps {
		mem := snap.Sketch()
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.0f\t%.1f\t%v\n",
			i, snap.EffectiveWindow(), snap.Updates(), mem.FullUpdates(),
			mem.Counters(), mem.OverflowEntries(), mem.TrackedKeys(),
			mem.Scale(), snap.Compensation(), snap.Restorable())
	}
	return w.Flush()
}

// describeRecord renders one chain record's framing line.
func describeRecord(stdout io.Writer, tag string, rec []byte) (delta.Info, error) {
	inf, err := delta.Describe(rec)
	if err != nil {
		return inf, err
	}
	flavor := "delta"
	if inf.Base {
		flavor = "base"
	}
	fmt.Fprintf(stdout, "%s: %s, chain %#x, epoch %d, restore=%v", tag, flavor, inf.Chain, inf.Epoch, inf.Restore)
	if inf.Base {
		fmt.Fprintf(stdout, ", embedded %d bytes\n", inf.EmbeddedBytes)
	} else {
		fmt.Fprintf(stdout, ", %d entries, updates %d, clearMon=%v\n", inf.Entries, inf.Updates, inf.ClearMonitored)
	}
	return inf, nil
}

// chainAge returns how long ago the chain's newest file (base or
// delta) was written, and that file's path.
func chainAge(chain *delta.Chain) (time.Duration, string, error) {
	newest := chain.Base
	var newestMod time.Time
	for _, p := range append([]string{chain.Base}, chain.Deltas...) {
		info, err := os.Stat(p)
		if err != nil {
			return 0, "", err
		}
		if mod := info.ModTime(); mod.After(newestMod) {
			newestMod, newest = mod, p
		}
	}
	return time.Since(newestMod), newest, nil
}

func runMaterialize(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("materialize", flag.ContinueOnError)
	out := fs.String("out", "", "output checkpoint file (required)")
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	if *out == "" || fs.NArg() != 1 {
		return fmt.Errorf("materialize: need -out FILE and exactly one chain directory or file")
	}
	s, err := restoreInput(fs.Arg(0))
	if err != nil {
		return err
	}
	size, err := writeCheckpoint(*out, s)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "materialized %s -> %s: %d shards, window %d, %d updates, %d bytes\n",
		fs.Arg(0), *out, s.Shards(), s.EffectiveWindow(), s.Updates(), size)
	return nil
}

func runMerge(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("merge", flag.ContinueOnError)
	theta := fs.Float64("theta", 0.01, "HHH threshold for the merged set")
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	files := fs.Args()
	if len(files) == 0 {
		return fmt.Errorf("merge: need at least one checkpoint file")
	}
	var all []*core.HHHSnapshot
	for _, path := range files {
		in, err := loadInput(path)
		if err != nil {
			return err
		}
		snaps, err := in.snapshots()
		if err != nil {
			return err
		}
		if len(all) > 0 && !hierarchy.Same(snaps[0].Hierarchy(), all[0].Hierarchy()) {
			return fmt.Errorf("%w: %s uses hierarchy %s, earlier files %s",
				codec.ErrConfigMismatch, path, snaps[0].Hierarchy(), all[0].Hierarchy())
		}
		all = append(all, snaps...)
	}
	// The same merged-estimate math the shard front-end and the
	// controller's delta-agent merge use: the files' partitions become
	// one partition set covering the union of the nodes' traffic.
	var m shard.Merger
	entries := m.Output(all[0].Hierarchy(), all, *theta, nil)
	fmt.Fprintf(stdout, "merged %d files (%d partitions): window %d, compensation %.1f\n",
		len(files), len(all), m.Window(), m.Compensation())
	printEntries(stdout, entries, *theta, m.Window())
	return nil
}

func runDiff(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	theta := fs.Float64("theta", 0.01, "HHH threshold for the compared sets")
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	files := fs.Args()
	if len(files) != 2 {
		return fmt.Errorf("diff: need exactly two checkpoint files")
	}
	a, err := restoreInput(files[0])
	if err != nil {
		return err
	}
	b, err := restoreInput(files[1])
	if err != nil {
		return err
	}
	outA := a.Output(*theta)
	outB := b.Output(*theta)
	setA := map[hierarchy.Prefix]core.HeavyPrefix{}
	for _, e := range outA {
		setA[e.Prefix] = e
	}
	setB := map[hierarchy.Prefix]core.HeavyPrefix{}
	for _, e := range outB {
		setB[e.Prefix] = e
	}
	var union []hierarchy.Prefix
	for p := range setA {
		union = append(union, p)
	}
	for p := range setB {
		if _, ok := setA[p]; !ok {
			union = append(union, p)
		}
	}
	sort.Slice(union, func(i, j int) bool { return union[i].String() < union[j].String() })

	fmt.Fprintf(stdout, "%s: %d entries; %s: %d entries (theta %.4g)\n",
		files[0], len(outA), files[1], len(outB), *theta)
	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "prefix\tin\testimate A\testimate B\tdelta")
	for _, p := range union {
		ea, inA := setA[p]
		eb, inB := setB[p]
		where := "both"
		switch {
		case !inA:
			where = "B only"
		case !inB:
			where = "A only"
		}
		// Per-prefix estimates come from the live restored instances,
		// so prefixes in only one set still get both estimates.
		estA := ea.Estimate
		if !inA {
			estA = a.Query(p)
		}
		estB := eb.Estimate
		if !inB {
			estB = b.Query(p)
		}
		fmt.Fprintf(w, "%s\t%s\t%.1f\t%.1f\t%+.1f\n", p, where, estA, estB, estB-estA)
	}
	return w.Flush()
}

// printEntries renders an HHH set, largest estimates first.
func printEntries(stdout io.Writer, entries []core.HeavyPrefix, theta float64, window int) {
	sort.Slice(entries, func(i, j int) bool { return entries[i].Estimate > entries[j].Estimate })
	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "prefix\testimate\tconditioned\tshare of W=%d\n", window)
	for _, e := range entries {
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.2f%%\n",
			e.Prefix, e.Estimate, e.Conditioned, 100*e.Estimate/float64(window))
	}
	if len(entries) == 0 {
		fmt.Fprintf(w, "(no prefixes at theta %.4g)\n", theta)
	}
	w.Flush()
}
