// Command mementoctl operates on durable sketch checkpoints: save a
// sharded H-Memento's state to a file, restore and query it offline,
// inspect a file's layout, merge checkpoints from independent nodes
// into one network-wide HHH view, and diff two checkpoints.
//
// Usage:
//
//	mementoctl save -out sketch.mckpt [-trace Backbone] [-packets N]
//	        [-window W] [-counters C] [-v V] [-shards N] [-twod|-flows]
//	        [-heavy F] [-seed S]
//	mementoctl load -in sketch.mckpt [-theta T]
//	mementoctl inspect -in sketch.mckpt|chain-dir|chain-file
//	mementoctl merge -theta T a.mckpt b.mckpt ...
//	mementoctl diff -theta T a.mckpt b.mckpt
//	mementoctl materialize -out plain.mckpt chain-dir
//	mementoctl top -addr host:port [-watch] [-every D] [-events N]
//
// Files are internal/codec records: KindHHHSet checkpoints (the bytes
// shard.HHH.Checkpoint streams), KindHHHDeltaSet chain steps written
// by the warm-restart checkpointer (internal/delta), and single
// KindHHHDelta records from cmd/controller's chain. inspect and diff
// accept any of them — pass a chain directory and the newest
// base+delta chain is applied first — and materialize folds a chain
// back into a plain KindHHHSet checkpoint offline. load rebuilds a
// live sharded instance purely from the file (configuration is
// derived from the per-shard snapshots); merge combines independent
// nodes' checkpoints with the shard layer's merged-estimate math,
// exactly as the controller merges delta-reporting agents.
package main

import (
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
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "save":
		err = runSave(os.Args[2:])
	case "load":
		err = runLoad(os.Args[2:])
	case "inspect":
		err = runInspect(os.Args[2:])
	case "merge":
		err = runMerge(os.Args[2:])
	case "diff":
		err = runDiff(os.Args[2:])
	case "materialize":
		err = runMaterialize(os.Args[2:])
	case "top":
		err = runTop(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "mementoctl: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mementoctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  mementoctl save    -out FILE [flags]   ingest a trace and checkpoint it
  mementoctl load    -in FILE [-theta T] restore a live instance, print its HHH set
  mementoctl inspect -in FILE            describe a checkpoint's layout
  mementoctl merge   -theta T FILES...   merge checkpoints from independent nodes
  mementoctl diff    -theta T A B        compare two checkpoints (or chain dirs)
  mementoctl materialize -out FILE CHAIN fold a base+delta chain into a plain checkpoint
  mementoctl top     -addr HOST:PORT [-watch] live metrics/events of a -debug-addr process`)
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

func runSave(args []string) error {
	fs := flag.NewFlagSet("save", flag.ExitOnError)
	out := fs.String("out", "", "output checkpoint file (required)")
	profile := fs.String("trace", "Backbone", "trace profile (Edge, Datacenter, Backbone)")
	packets := fs.Int("packets", 1<<20, "packets to ingest before checkpointing")
	window := fs.Int("window", 1<<18, "global sliding window W")
	counters := fs.Int("counters", 512, "per-pattern counter budget (total is counters*H)")
	v := fs.Int("v", 0, "sampling ratio V (0: H, i.e. full fidelity — offline saves aren't rate-bound)")
	shards := fs.Int("shards", 4, "shard count")
	twod := fs.Bool("twod", false, "2D src×dst hierarchy")
	flows := fs.Bool("flows", false, "flows hierarchy (plain heavy hitters)")
	heavy := fs.Float64("heavy", 0, "inject this fraction of packets as a heavy 10.0.0.0/8 flood")
	seed := fs.Uint64("seed", 1, "deterministic seed")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("save: -out is required")
	}
	hier := hierFromFlags(*twod, *flows)
	sampleV := *v
	if sampleV == 0 {
		sampleV = hier.H()
	}
	s, err := shard.NewHHH(shard.HHHConfig{
		Core: core.HHHConfig{
			Hierarchy: hier, Window: *window,
			Counters: *counters * hier.H(), V: sampleV, Seed: *seed + 1,
		},
		Shards: *shards,
	})
	if err != nil {
		return err
	}
	prof, err := trace.ProfileByName(*profile)
	if err != nil {
		return err
	}
	gen, err := trace.NewGenerator(prof, *seed)
	if err != nil {
		return err
	}
	b := s.NewBatcher(0)
	flood := newFloodMixer(*heavy, *seed+7)
	for i := 0; i < *packets; i++ {
		b.Add(flood.mix(gen.Next()))
	}
	b.Flush()

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := s.Checkpoint(f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	info, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("saved %s: %d shards, hierarchy %s, window %d, %d packets, %d bytes\n",
		*out, s.Shards(), hier, s.EffectiveWindow(), *packets, info.Size())
	return nil
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

func runLoad(args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	in := fs.String("in", "", "checkpoint file (required)")
	theta := fs.Float64("theta", 0.01, "HHH threshold for the printed set")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("load: -in is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	s, err := shard.RestoreHHH(f)
	if err != nil {
		return err
	}
	fmt.Printf("restored %s: %d shards, hierarchy %s, window %d, %d updates\n",
		*in, s.Shards(), s.Hierarchy(), s.EffectiveWindow(), s.Updates())
	printEntries(s.Output(*theta), *theta, s.EffectiveWindow())
	return nil
}

func runInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	in := fs.String("in", "", "checkpoint file, chain record, or chain directory (required)")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("inspect: -in is required")
	}
	info, err := os.Stat(*in)
	if err != nil {
		return err
	}
	if info.IsDir() {
		return inspectChainDir(*in)
	}
	kind, err := peekKind(*in)
	if err != nil {
		return err
	}
	switch kind {
	case codec.KindHHHDelta:
		return inspectDeltaRecord(*in)
	case codec.KindHHHDeltaSet:
		return inspectDeltaSet(*in)
	default:
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		snaps, err := shard.DecodeHHHCheckpoint(f)
		if err != nil {
			return err
		}
		fmt.Printf("%s: format v%d, %d shards, hierarchy %s\n",
			*in, codec.Version, len(snaps), snaps[0].Hierarchy())
		return printShardTable(snaps)
	}
}

// printShardTable renders the per-shard state table shared by every
// inspect flavor.
func printShardTable(snaps []*core.HHHSnapshot) error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
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

// peekKind reads a file's record kind from its codec header.
func peekKind(path string) (uint8, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	head := make([]byte, codec.HeaderSize)
	if _, err := io.ReadFull(f, head); err != nil {
		return 0, fmt.Errorf("%s: reading header: %w", path, err)
	}
	h, _, err := codec.ReadHeader(head)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	return h.Kind, nil
}

// describeRecord renders one chain record's framing line.
func describeRecord(tag string, rec []byte) (delta.Info, error) {
	inf, err := delta.Describe(rec)
	if err != nil {
		return inf, err
	}
	flavor := "delta"
	if inf.Base {
		flavor = "base"
	}
	fmt.Printf("%s: %s, chain %#x, epoch %d, restore=%v", tag, flavor, inf.Chain, inf.Epoch, inf.Restore)
	if inf.Base {
		fmt.Printf(", embedded %d bytes\n", inf.EmbeddedBytes)
	} else {
		fmt.Printf(", %d entries, updates %d, clearMon=%v\n", inf.Entries, inf.Updates, inf.ClearMonitored)
	}
	return inf, nil
}

// inspectDeltaRecord describes a single KindHHHDelta file (a
// cmd/controller chain step) and, for bases, the embedded state.
func inspectDeltaRecord(path string) error {
	rec, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	inf, err := describeRecord(path, rec)
	if err != nil {
		return err
	}
	if inf.Base {
		st := delta.NewState()
		if err := st.Apply(rec); err != nil {
			return err
		}
		snap, err := st.Snapshot()
		if err != nil {
			return err
		}
		return printShardTable([]*core.HHHSnapshot{snap})
	}
	return nil
}

// inspectDeltaSet describes one KindHHHDeltaSet file's per-shard
// records; a base set also materializes its state table.
func inspectDeltaSet(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sts, err := shard.ApplyHHHDeltaSet(f, nil)
	if err != nil {
		return fmt.Errorf("%s: %w (a delta step applies only after its chain; inspect the directory instead)", path, err)
	}
	fmt.Printf("%s: format v%d, %d shards, chain %#x, epoch %d (base step)\n",
		path, codec.Version, len(sts), sts[0].Chain(), sts[0].Epoch())
	snaps := make([]*core.HHHSnapshot, len(sts))
	for i, st := range sts {
		if snaps[i], err = st.Snapshot(); err != nil {
			return err
		}
	}
	return printShardTable(snaps)
}

// loadChainStates applies the newest chain in dir and returns its
// per-partition states plus the chain layout. Both chain flavors are
// handled: sharded KindHHHDeltaSet steps (cmd/lbproxy) and bare
// KindHHHDelta records (cmd/controller's single-instance chain, which
// loads as one partition).
func loadChainStates(dir string) ([]*delta.State, *delta.Chain, error) {
	chain, err := delta.FindChain(dir)
	if err != nil {
		return nil, nil, err
	}
	if chain == nil {
		return nil, nil, fmt.Errorf("%s: no chain base found", dir)
	}
	kind, err := peekKind(chain.Base)
	if err != nil {
		return nil, chain, err
	}
	files := append([]string{chain.Base}, chain.Deltas...)
	if kind == codec.KindHHHDelta {
		st := delta.NewState()
		for _, path := range files {
			rec, err := os.ReadFile(path)
			if err != nil {
				return nil, chain, err
			}
			if err := st.Apply(rec); err != nil {
				return nil, chain, fmt.Errorf("%s: %w", path, err)
			}
		}
		return []*delta.State{st}, chain, nil
	}
	var sts []*delta.State
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return nil, chain, err
		}
		sts, err = shard.ApplyHHHDeltaSet(f, sts)
		f.Close()
		if err != nil {
			return nil, chain, fmt.Errorf("%s: %w", path, err)
		}
	}
	return sts, chain, nil
}

// inspectChainDir applies the newest chain in a checkpoint directory
// and shows the materialized per-shard state.
func inspectChainDir(dir string) error {
	sts, chain, err := loadChainStates(dir)
	if err != nil {
		return err
	}
	fmt.Printf("%s: chain %#x at epoch %d (base %s + %d deltas), %d partitions\n",
		dir, sts[0].Chain(), sts[0].Epoch(), filepath.Base(chain.Base), len(chain.Deltas), len(sts))
	// Staleness: how long ago the chain last advanced. A warm-restart
	// or replication chain that stopped stepping is stale state a
	// restore would silently serve — surface its age next to the epoch.
	if age, newest, err := chainAge(chain); err == nil {
		fmt.Printf("  last step %s ago (%s)\n", age.Round(time.Second), filepath.Base(newest))
	}
	snaps := make([]*core.HHHSnapshot, len(sts))
	for i, st := range sts {
		if snaps[i], err = st.Snapshot(); err != nil {
			return err
		}
	}
	return printShardTable(snaps)
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

// restoreAny rebuilds a live sharded instance from a plain checkpoint
// file or a chain directory.
func restoreAny(path string) (*shard.HHH, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if info.IsDir() {
		sts, _, err := loadChainStates(path)
		if err != nil {
			return nil, err
		}
		snaps := make([]*core.HHHSnapshot, len(sts))
		for i, st := range sts {
			if snaps[i], err = st.Snapshot(); err != nil {
				return nil, fmt.Errorf("%s: partition %d: %w", path, i, err)
			}
		}
		s, err := shard.RestoreHHHFromSnapshots(snaps)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return s, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := shard.RestoreHHH(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func runMaterialize(args []string) error {
	fs := flag.NewFlagSet("materialize", flag.ExitOnError)
	out := fs.String("out", "", "output plain checkpoint file (required)")
	fs.Parse(args)
	if *out == "" || fs.NArg() != 1 {
		return fmt.Errorf("materialize: need -out FILE and exactly one chain directory")
	}
	s, err := restoreAny(fs.Arg(0))
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := s.Checkpoint(f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	info, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("materialized %s -> %s: %d shards, window %d, %d updates, %d bytes\n",
		fs.Arg(0), *out, s.Shards(), s.EffectiveWindow(), s.Updates(), info.Size())
	return nil
}

// loadCheckpointSnapshots decodes every per-shard snapshot of a file.
func loadCheckpointSnapshots(path string) ([]*core.HHHSnapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	snaps, err := shard.DecodeHHHCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return snaps, nil
}

func runMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	theta := fs.Float64("theta", 0.01, "HHH threshold for the merged set")
	fs.Parse(args)
	files := fs.Args()
	if len(files) < 2 {
		return fmt.Errorf("merge: need at least two checkpoint files")
	}
	var all []*core.HHHSnapshot
	for _, path := range files {
		snaps, err := loadCheckpointSnapshots(path)
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
	fmt.Printf("merged %d files (%d partitions): window %d, compensation %.1f\n",
		len(files), len(all), m.Window(), m.Compensation())
	printEntries(entries, *theta, m.Window())
	return nil
}

func runDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	theta := fs.Float64("theta", 0.01, "HHH threshold for the compared sets")
	fs.Parse(args)
	files := fs.Args()
	if len(files) != 2 {
		return fmt.Errorf("diff: need exactly two checkpoint files")
	}
	a, err := restoreAny(files[0])
	if err != nil {
		return err
	}
	b, err := restoreAny(files[1])
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

	fmt.Printf("%s: %d entries; %s: %d entries (theta %.4g)\n",
		files[0], len(outA), files[1], len(outB), *theta)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
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
func printEntries(entries []core.HeavyPrefix, theta float64, window int) {
	sort.Slice(entries, func(i, j int) bool { return entries[i].Estimate > entries[j].Estimate })
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
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
