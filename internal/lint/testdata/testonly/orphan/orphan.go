// Package orphan is imported by no main: reported once, not per function.
package orphan // want "package scmp/internal/lint/testdata/testonly/orphan is imported by no main package"

// A is unreached.
func A() int { return B() }

// B is unreached.
func B() int { return 1 }
