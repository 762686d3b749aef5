//go:build invariants

package lib

func hook() {
	if !checkedByHook() {
		panic("lib: invariant violated")
	}
}
