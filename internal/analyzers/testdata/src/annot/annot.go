// Package annot exercises the annotation parser: malformed markers
// are findings, never silent no-ops — a typo'd directive must fail
// the build, not disable a check. An unknown verb in the package doc
// is reported once, as unknown.
//
// want+1 `unknown //memento: directive "bogus"`
//memento:bogus
package annot

// want+1 `unknown //memento: directive "noaloc"`
//memento:noaloc
func Typo() {}

// want+1 `malformed waiver .*: want //memento:allow <category> "reason"`
//memento:allow alloc missing quotes
func BadWaiver() {}

// want+1 `unknown waiver category "perf"`
//memento:allow perf "not a category"
func BadCategory() {}

// A declaration slipped between a directive and its function leaves
// the directive on the declaration, where no check reads it.
// want+1 `//memento:noalloc is outside any function or package doc comment`
//memento:noalloc
var misplaced int

func Misplaced() int { return misplaced }

// A //memento:reused marker anywhere but on a named struct field
// marks nothing.
// want+1 `//memento:reused marks nothing here`
//memento:reused
var scratch []byte

// want+1 `//memento:reused marks nothing here`
//memento:reused
type buffers struct {
	held []byte //memento:reused
	// want+1 `//memento:reused marks nothing here`
	ints //memento:reused
}

type ints []int
