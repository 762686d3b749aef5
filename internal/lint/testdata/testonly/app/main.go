// Command app is the testonly corpus's only root.
package main

import "scmp/internal/lint/testdata/testonly/lib"

func main() {
	lib.Used()
	var b lib.Box[int]
	_ = b.Get()
	_ = lib.Total([]lib.Shape{lib.Square{}})
}
