// A test may swap package state (lifetime_test.go swaps core's
// protocolBuilders), but a worker in a test still writes nothing
// declared outside it.
package worker

import "scmp/internal/runner"

var builders = map[string]func() int{}

func withBuilders(swap map[string]func() int, body func()) {
	saved := builders
	builders = swap // clean: package writes are legal in test files
	defer func() { builders = saved }()
	body()
}

func workerInTest(opts runner.Options) []int {
	n := 0
	return runner.Map(opts, 2, func(i int) int {
		n++            // want "worker writes n"
		builders = nil // want "worker writes builders"
		return i
	})
}
