// Fixture for allocguard: a state type with an annotated hot step, a
// transitively reached helper, cold-path exemptions, suppressions, and
// edge pruning. The package name is arbitrary — allocguard is driven
// entirely by //dtmlint:allocfree annotations.
package allocfree

import (
	"errors"
	"fmt"
	"strings"
)

type point struct{ x, y int }

type state struct {
	buf []float64
	idx map[string]int
}

func sink(v any) { _ = v }

func spin() {}

//dtmlint:allocfree
func (s *state) Step(n int) {
	b := make([]float64, n) // want `make allocates`
	_ = b
	s.buf = append(s.buf, 1) // want `append may grow its backing array`
	p := &point{1, 2}        // want `&composite literal escapes to the heap`
	_ = p
	xs := []int{1, 2} // want `slice literal allocates its backing array`
	_ = xs
	m := map[string]int{} // want `map literal allocates`
	_ = m
	s.idx["a"] = 1           // want `map write may allocate`
	f := func() {}           // want `closure creation allocates`
	f()                      // dynamic call: not chased, not flagged
	_ = fmt.Sprintf("%d", n) // want `fmt.Sprintf allocates`
	var sb strings.Builder
	sb.WriteString("x")    // want `strings.Builder.WriteString allocates`
	_ = errors.New("boom") // want `errors.New allocates`
	sink(point{3, 4})      // want `boxes a`
	bs := []byte("hi")     // want `string/\[\]byte conversion copies`
	_ = string(bs)         // want `string/\[\]byte conversion copies`
	go spin()              // want `go statement allocates a goroutine`
	s.helper(n)
}

// helper is reached from the Step root, so its allocations are findings
// attributed to that root.
func (s *state) helper(n int) {
	_ = make([]int, n) // want `make allocates .* \(root \(\*state\)\.Step\)`
}

// untouched is reachable from no root: its allocations are its own
// business.
func untouched() {
	_ = make([]int, 3)
}

var trace func(string)

func bad(v int) bool { return v < 0 }

//dtmlint:allocfree
func (s *state) Solve(n int) error {
	if n < 0 {
		return fmt.Errorf("bad n %d", n) // cold error exit: exempt
	}
	if cap(s.buf) < n {
		s.buf = make([]float64, n) // grow-once resize: exempt
	}
	if s.idx == nil {
		s.idx = make(map[string]int) // lazy init behind nil check: exempt
	}
	if trace != nil {
		trace(fmt.Sprintf("n=%d", n)) // nil-guarded feature gate: exempt
	}
	if bad(n) {
		panic(fmt.Sprintf("bad %d", n)) // dying anyway: exempt
	}
	return nil
}

//dtmlint:allocfree
func (s *state) Warm() {
	s.scratch()
}

// scratch is reachable, but its one allocation carries a documented
// suppression.
func (s *state) scratch() {
	_ = make([]int, 8) //dtmlint:allow allocguard one-time scratch sized at startup
}

//dtmlint:allocfree
func (s *state) Run() {
	s.setup() //dtmlint:allow allocguard init phase runs before the measured loop
	s.hot()
}

// setup and everything below it are cut out of Run's reachable set by
// the allow on the call site.
func (s *state) setup() {
	_ = make([]int, 64)
	s.setupDeeper()
}

func (s *state) setupDeeper() {
	_ = map[int]int{1: 1}
}

func (s *state) hot() {}

type emitter interface{ Emit(p *point) }

// drive's interface call is a dynamic sink: not chased, and the pointer
// argument does not box.
//
//dtmlint:allocfree
func drive(e emitter, p *point) {
	e.Emit(p)
}

// The walk from walk: static function calls are followed transitively,
// through generic instantiations and function literals too; calls
// through an interface, a function value or a function-valued field are
// not, so the functions behind them stay unscanned.

type boxer interface{ Box() }

type holder struct{ cb func() }

var _ = holder{cb: viaField}

func (holder) Box() { _ = make([]int, 5) }

func viaValue() { _ = make([]int, 6) }

func viaField() { _ = make([]int, 7) }

func first() { second() }

func second() {
	_ = make([]int, 2) // want `make allocates in allocation-free path \(root walk\)`
}

func inLiteral() {
	_ = make([]int, 3) // want `make allocates .* \(root walk\)`
}

func generic[T any]() {
	_ = make([]T, 4) // want `make allocates .* \(root walk\)`
}

//dtmlint:allocfree
func walk(b boxer, h holder) {
	first()
	b.Box()
	g := viaValue
	g()
	h.cb()
	func() { inLiteral() }() // want `closure creation allocates`
	generic[int]()
}
