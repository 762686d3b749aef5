//go:build !invariants

package lib

func hook() {}
