// Package noalloc exercises the noalloc analyzer: every allocating
// construct it knows how to flag, and the shapes it must accept
// (parameter-rooted appends, //memento:reused buffers, zero-sized
// boxing, justified waivers).
package noalloc

import (
	"fmt"
	"time"
)

// sink defeats dead-code elimination without allocating.
var sink int

// boxed is an interface destination for the boxing checks.
var boxed interface{}

// Point is big enough that boxing it allocates; Empty is zero-sized
// and boxes through the runtime's shared zero base.
type Point struct{ X, Y int }

type Empty struct{}

// ring pairs a pooled buffer with a plain one: appends to the first
// are amortized, appends to the second are findings.
type ring struct {
	buf   []int //memento:reused
	plain []int
}

// noop is allocation-free filler for the go-statement case.
func noop() {}

// helper is unannotated; the fixpoint still computes its fact, and
// annotated callers inherit the dirtiness.
func helper() []int {
	return make([]int, 4)
}

// takesAny forces its argument into an interface.
func takesAny(v interface{}) { _ = v }

//memento:noalloc
func makes() []int {
	return make([]int, 8) // want `make allocates`
}

//memento:noalloc
func news() *Point {
	return new(Point) // want `new allocates`
}

//memento:noalloc
func sprints(v int) {
	s := fmt.Sprintf("%d", v) // want `calls fmt\.Sprintf, which allocates` `argument boxes int into interface parameter`
	sink = len(s)
}

//memento:noalloc
func concats(a, b string) {
	sink = len(a + b) // want `string concatenation allocates`
}

//memento:noalloc
func literals() {
	s := []int{1, 2}   // want `slice literal allocates`
	m := map[int]int{} // want `map literal allocates`
	sink = len(s) + len(m)
}

//memento:noalloc
func escapes() *Point {
	return &Point{X: 1} // want `&composite literal escapes to the heap`
}

//memento:noalloc
func captures(x int) func() int {
	f := func() int { return x } // want `closure captures x \(heap-allocated environment\)`
	return f
}

//memento:noalloc
func launches() {
	go noop() // want `go statement allocates a goroutine`
}

//memento:noalloc
func mapWrites(m map[int]int) {
	m[1] = 2 // want `map write \(runtime maps allocate on growth; use internal/keyidx\)`
}

//memento:noalloc
func converts(b []byte) string {
	return string(b) // want `conversion to string allocates`
}

//memento:noalloc
func convertsBack(s string) []byte {
	return []byte(s) // want `string to \[\]byte conversion allocates`
}

//memento:noalloc
func boxes(p Point) {
	boxed = p // want `assignment boxes .*Point into an interface`
}

//memento:noalloc
func boxesZero(e Empty) {
	boxed = e // zero-sized: boxing reuses runtime.zerobase, no finding
}

//memento:noalloc
func argBoxes(p Point) {
	takesAny(p) // want `argument boxes .*Point into interface parameter`
}

//memento:noalloc
func growsPlain(r *ring, v int) {
	r.plain = append(r.plain, v) // want `append may grow a non-reused buffer`
}

//memento:noalloc
func growsReused(r *ring, v int) {
	r.buf = append(r.buf, v) // reused buffer: amortized growth accepted
}

//memento:noalloc
func growsParam(dst []int, v int) []int {
	return append(dst, v) // parameter-rooted: the caller owns the buffer
}

//memento:noalloc
func propagates() {
	sink = len(helper()) // want `calls helper, which allocates`
}

//memento:noalloc
func stamps() {
	// Clock reads and scalar accessors: allowlisted, no finding
	// (obs timestamps latency spans on hot paths).
	sink = int(time.Since(time.Now()).Nanoseconds())
}

//memento:noalloc
func waived() []int {
	//memento:allow alloc "cold path: exercised once per construction"
	return make([]int, 8)
}

// want+1 `unused //memento:allow alloc waiver`
//memento:allow alloc "stale: nothing on the next line allocates"
func quiet() { sink++ }

// chainA and chainB both allocate and twoWays reaches both: the report
// names the chain through the first call in source order, every run.
func chainA() []int { return make([]int, 1) }

func chainB() *Point { return new(Point) }

func twoWays() {
	sink = len(chainA())
	_ = chainB()
}

//memento:noalloc
func reachesTwo() {
	twoWays() // want `calls twoWays, which allocates: calls chainA, which allocates: make allocates`
}
