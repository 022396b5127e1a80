// Command mementovet runs the internal/analyzers suite (noalloc,
// lockguard, nodet — see DESIGN.md §8):
//
//	mementovet [-json] [packages]
//
// It loads the named packages (default ./...) of the module in the
// current directory from source and prints findings; the exit status
// is 2 if there are any. -json emits a machine-readable report
// including every //memento:allow waiver in the analyzed tree and the
// waiver count, so suppressions are never silent.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"memento/internal/analyzers"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonReport is the -json output shape.
type jsonReport struct {
	Diagnostics []jsonDiagnostic `json:"diagnostics"`
	Waivers     []jsonWaiver     `json:"waivers"`
	WaiverCount int              `json:"waiver_count"`
}

type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

type jsonWaiver struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Category string `json:"category"`
	Reason   string `json:"reason"`
	Used     bool   `json:"used"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mementovet", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit findings and waivers as JSON on stdout")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: mementovet [-json] [packages]\n")
		fs.PrintDefaults()
		fmt.Fprintf(fs.Output(), "\nanalyzers:\n")
		for _, a := range analyzers.All() {
			fmt.Fprintf(fs.Output(), "  %-10s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	rep, err := analyzers.Check(".", patterns)
	if err != nil {
		fmt.Fprintf(stderr, "mementovet: %v\n", err)
		return 1
	}
	report := jsonReport{
		Diagnostics: []jsonDiagnostic{},
		Waivers:     []jsonWaiver{},
		WaiverCount: len(rep.Waivers),
	}
	for _, d := range rep.Diagnostics {
		report.Diagnostics = append(report.Diagnostics, jsonDiagnostic{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
		if !*jsonOut {
			fmt.Fprintf(stderr, "%s\n", d)
		}
	}
	for _, w := range rep.Waivers {
		report.Waivers = append(report.Waivers, jsonWaiver{
			File:     w.Pos.Filename,
			Line:     w.Pos.Line,
			Category: w.Category,
			Reason:   w.Reason,
			Used:     w.Used,
		})
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(stderr, "mementovet: %v\n", err)
			return 1
		}
	} else if len(report.Waivers) > 0 {
		fmt.Fprintf(stderr, "mementovet: %d //memento:allow waiver(s) in effect (run with -json for the list)\n", report.WaiverCount)
	}
	if len(report.Diagnostics) > 0 {
		return 2
	}
	return 0
}
