// The analyzer suite is tested the way go/analysis suites are: a
// miniature module under testdata/src (module vettest, loaded through
// the same Check pipeline mementovet uses) carries one
// source file per analyzer, with expectations written next to the
// code they describe:
//
//	s.n = v // want `access to n \(guarded by mu\)`
//
// A want comment holds one or more regexps (backquoted or quoted) and
// applies to its own line; "want+N" shifts the expectation N lines
// down, for diagnostics positioned on a directive comment itself
// (unused waivers, malformed annotations). Every diagnostic must
// match an expectation and every expectation must be hit — unexpected
// findings and missed findings both fail.
//
// TestRepoClean then turns the suite on this repository itself: the
// whole module must analyze clean, so deleting a mu.Lock() in
// internal/shard or adding an allocation to a //memento:noalloc hot
// path fails the test suite before it ever reaches CI.
package analyzers_test

import (
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"memento/internal/analyzers"
)

// wantToken matches one expectation regexp, backquoted or quoted.
var wantToken = regexp.MustCompile("`([^`]+)`|\"([^\"]+)\"")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	src  string
	hit  bool
}

// collectWants extracts // want expectations from a unit's comments.
func collectWants(t *testing.T, u *analyzers.Unit) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range u.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, "// want") {
					continue
				}
				rest := strings.TrimPrefix(text, "// want")
				offset := 0
				if strings.HasPrefix(rest, "+") {
					end := 1
					for end < len(rest) && rest[end] >= '0' && rest[end] <= '9' {
						end++
					}
					n, err := strconv.Atoi(rest[1:end])
					if err != nil {
						t.Fatalf("%s: bad want offset in %q", u.Fset.Position(c.Pos()), text)
					}
					offset = n
					rest = rest[end:]
				}
				pos := u.Fset.Position(c.Pos())
				toks := wantToken.FindAllStringSubmatch(rest, -1)
				if len(toks) == 0 {
					t.Fatalf("%s: want comment %q has no pattern", pos, text)
				}
				for _, m := range toks {
					src := m[1]
					if src == "" {
						src = m[2]
					}
					re, err := regexp.Compile(src)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, src, err)
					}
					wants = append(wants, &expectation{
						file: pos.Filename,
						line: pos.Line + offset,
						re:   re,
						src:  src,
					})
				}
			}
		}
	}
	return wants
}

// TestAnalyzers runs the full suite over the vettest module and
// checks every diagnostic against the // want expectations, one
// subtest per package. Check threads facts in dependency order:
// noallocdep's facts must be in place before noallocuse analyzes.
func TestAnalyzers(t *testing.T) {
	rep, err := analyzers.Check("testdata/src", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ModulePath != "vettest" {
		t.Fatalf("module = %q, want vettest", rep.ModulePath)
	}
	if len(rep.Units) == 0 {
		t.Fatal("no packages loaded from testdata/src")
	}
	for _, u := range rep.Units {
		t.Run(strings.TrimPrefix(u.ImportPath, "vettest/"), func(t *testing.T) {
			wants := collectWants(t, u)
			for _, d := range rep.Diagnostics {
				if !inUnit(u, d.Pos.Filename) {
					continue
				}
				hit := false
				for _, w := range wants {
					if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
						w.hit = true
						hit = true
						break
					}
				}
				if !hit {
					t.Errorf("unexpected diagnostic: %v", d)
				}
			}
			for _, w := range wants {
				if !w.hit {
					t.Errorf("%s:%d: no diagnostic matched %q", w.file, w.line, w.src)
				}
			}
		})
	}
	for _, w := range rep.Waivers {
		if strings.TrimSpace(w.Reason) == "" {
			t.Errorf("%s: waiver with empty reason", w.Pos)
		}
	}
}

// inUnit reports whether filename is one of u's source files.
func inUnit(u *analyzers.Unit, filename string) bool {
	for _, f := range u.Files {
		if u.Fset.Position(f.Pos()).Filename == filename {
			return true
		}
	}
	return false
}

// TestDiagnosticsDeterministic analyzes the vettest module several
// times and requires the same diagnostics, messages included: a
// noalloc report names the call chain to the allocation, and which
// chain it names must not depend on map iteration order.
func TestDiagnosticsDeterministic(t *testing.T) {
	first, err := analyzers.Check("testdata/src", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run < 4; run++ {
		again, err := analyzers.Check("testdata/src", []string{"./..."})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(first.Diagnostics, again.Diagnostics) {
			t.Fatalf("run %d differs from run 0:\n%v\nvs\n%v", run, again.Diagnostics, first.Diagnostics)
		}
	}
}

// waiverCeiling caps the //memento:allow waivers in effect across the
// repository. Lower it when a waived construct goes away; raising it
// is a reviewed change to this line.
const waiverCeiling = 14

// TestRepoClean analyzes this repository with its own suite and
// requires a clean bill: zero diagnostics (which covers annotation
// parsing — a typo'd //memento: marker is an "annot" finding — and
// unused waivers), a justified reason on every waiver in effect, and
// no more waivers than waiverCeiling.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	rep, err := analyzers.Check("../..", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ModulePath != "memento" {
		t.Fatalf("module = %q, want memento", rep.ModulePath)
	}
	for _, d := range rep.Diagnostics {
		t.Errorf("%v", d)
	}
	for _, w := range rep.Waivers {
		if strings.TrimSpace(w.Reason) == "" {
			t.Errorf("%s: waiver with empty reason", w.Pos)
		}
	}
	if len(rep.Waivers) == 0 {
		t.Error("expected //memento:allow waivers in the tree; annotation parsing is likely broken")
	}
	if len(rep.Waivers) > waiverCeiling {
		t.Errorf("%d waivers in effect, ceiling %d: fix a waived construct rather than waive another", len(rep.Waivers), waiverCeiling)
	}
	t.Logf("%d packages analyzed, %d waivers in effect", len(rep.Units), len(rep.Waivers))
}
