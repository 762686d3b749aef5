// Package lib holds the testonly corpus's cases: what a main, an init,
// a var initialiser, an interface call, a generic instance and a file
// built only under -tags invariants keep reached, and what only a test
// reaches.
package lib

import "fmt"

var table = buildTable()

func buildTable() []int { return []int{1} } // kept by a var initialiser

func init() { initHelper() }

func initHelper() {} // kept by init

// Used is called from main.
func Used() {
	hook()
	fmt.Println(table, Kind(0))
}

// Box is generic; main calls Get on an instance.
type Box[T any] struct{ v T }

func (b *Box[T]) Get() T { return b.v }

// Shape is called through its method only.
type Shape interface{ Area() float64 }

// Square's Area is reached only through Shape.
type Square struct{}

func (Square) Area() float64 { return 1 }

// Total calls Area through the interface.
func Total(shapes []Shape) float64 {
	var sum float64
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

// Kind's String method is called by fmt, which the walk cannot see.
type Kind int

func (Kind) String() string { return "kind" }

func OnlyTests() int { return 1 } // want "func OnlyTests is reached from no main"

func unused() {} // want "func unused is reached from no main"

func (Square) Perimeter() float64 { return 4 } // want "method (Square).Perimeter is reached from no main"

//scmplint:ignore testonly — another package's tests read it
func KeptForTests() {}

//scmplint:ignore testonly // want "ignore without a reason"
func KeptWithoutReason() {}
