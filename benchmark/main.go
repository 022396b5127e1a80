// Command benchmark is the repository's one benchmark: four flood workloads
// driven through the public functions of memento/internal/*, every output
// checked against the exact sliding-window reference in internal/exact.
// See README.md for the catalogue and BENCHMARK.json for the contract.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all four)")
		seed     = flag.Uint64("seed", 1, "seed of every random choice: trace, flood, sketches, agents, shard routing")
		seconds  = flag.Float64("seconds", 10, "steady-phase wall time")
		traced   = flag.Int("trace", 0, "1: traced run, per-layer metrics; 0: untraced run, end-to-end metrics")
		outDir   = flag.String("out", "benchmark/out", "directory for result and trace JSON")
		check    = flag.Bool("check", false, "run every workload and exit non-zero unless every gate holds")
		quick    = flag.Bool("quick", false, "2 s steady phase, for smoke tests; never for recorded numbers")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	opt := options{seed: *seed, seconds: *seconds, outDir: *outDir}
	if *check {
		opt.minSamples = 200
	}
	if *quick {
		opt.seconds, opt.minSamples = 2, 0
	}
	var todo []*spec
	if *workload == "" {
		todo = specs()
	} else {
		sp, err := specByName(*workload)
		if err != nil {
			fatal(err)
		}
		todo = []*spec{sp}
	}
	modes := []bool{*traced != 0}
	name := "all"
	if len(todo) == 1 {
		name = todo[0].Name
	}
	switch {
	case *check:
		modes, name = []bool{false, true}, name+".check"
	case modes[0]:
		name += ".layers"
	}
	var rs resultSet
	ok := true
	for _, sp := range todo {
		for _, opt.traced = range modes {
			r, err := run(sp, opt)
			if err != nil {
				fatal(err)
			}
			if *check {
				checkOnly(sp, r)
			}
			r.print(os.Stdout)
			rs.Results = append(rs.Results, r)
			ok = ok && r.Correct
		}
	}
	if err := rs.write(filepath.Join(*outDir, name+".json")); err != nil {
		fatal(err)
	}
	if *check && !ok {
		fatal(fmt.Errorf("check failed"))
	}
}

// checkOnly applies the gates that -check adds to those every run applies:
// no failed operation at all, and a tick ledger whose parts add up on the
// fleets. A noisy host can trip these without the outputs being wrong, so they
// do not decide a run's "correct".
func checkOnly(sp *spec, r *result) {
	if r.Failed > 0 {
		r.problem("%d of %d operations failed", r.Failed, r.Attempted)
	}
	if cov := r.Metrics["ledger.enforce_coverage"].Value; r.Traced && sp.Fleet && cov < 0.9 {
		r.problem("ledger.enforce_coverage %.3f below 0.9", cov)
	}
	r.Correct = len(r.Problems) == 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
