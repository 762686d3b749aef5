// Seeded shared-state writes for the detshared analyzer, against the
// real runner package. Outside test files no write has a package-level
// variable at its root, and inside a runner.Map worker no write's root
// is declared outside the worker.
package worker

import "scmp/internal/runner"

var global int

func sharedWrites(rows []float64, opts runner.Options) []int {
	shared := 0
	seen := map[int]bool{}
	return runner.Map(opts, len(rows), func(i int) int {
		global++       // want "worker writes global"
		shared += i    // want "worker writes shared"
		seen[i] = true // want "worker writes seen"
		local := i * 2 // worker-local state is private: clean
		local++
		return local
	})
}

// The chunk pattern: each job owns rows [lo, hi). The old analyzer let
// an element write indexed by a job-derived bound pass; the rule flags
// it, since the worker can return its rows instead.
func chunkPattern(out []float64, opts runner.Options) {
	const chunk = 4
	jobs := (len(out) + chunk - 1) / chunk
	runner.Map(opts, jobs, func(ci int) struct{} {
		lo := ci * chunk
		hi := lo + chunk
		if hi > len(out) {
			hi = len(out)
		}
		for i := lo; i < hi; i++ {
			out[i] = float64(i) // want "worker writes out"
		}
		return struct{}{}
	})
}

func fixedIndexWrite(out []float64, opts runner.Options) {
	runner.Map(opts, 8, func(i int) int {
		out[0] = float64(i) // want "worker writes out"
		return i
	})
}

// A range with = assigns its key, and an explicit instantiation is
// still runner.Map.
func rangeAssign(rows []float64, opts runner.Options) int {
	var last int
	runner.Map[int](opts, 2, func(i int) int {
		for last = range rows { // want "worker writes last"
		}
		return i
	})
	return last
}

func mapIndexWrite(m map[int]int, opts runner.Options) {
	runner.Map(opts, 8, func(i int) int {
		m[i] = i // want "worker writes m"
		return i
	})
}

// A helper that writes package state is flagged at its write, so the
// worker that calls it needs no summary of its callees.
func transitiveWrite(opts runner.Options) []int {
	return runner.Map(opts, 4, func(i int) int {
		bump()
		return i
	})
}

func bump() { global++ } // want "writes package-level global"

// The shape of every internal/experiment study: the shard literal sits
// at the runner.Map call site, nested in the call that folds the shards.
func studyShape(opts runner.Options) int {
	runs := 0
	return fold(runner.Map(opts, 4, func(seed int) []int {
		runs++ // want "worker writes runs"
		return []int{seed}
	}))
}

func fold(shards [][]int) int {
	n := 0
	for _, shard := range shards {
		n += len(shard)
	}
	return n
}

// Outside a worker a package-level write is flagged too; writes to
// parameters and locals are not.
func sequentialWrites(rows []float64) {
	global++ // want "writes package-level global"
	for i := range rows {
		rows[i] = 1
	}
}

// Dynamic dispatch: the worker calls a func value and an interface
// method. No call is resolved; each write is flagged where it is.
var planted int

type bumper interface{ bump() }

type counter struct{}

func (counter) bump() { planted++ } // want "writes package-level planted"

func bumpPlanted() { planted++ } // want "writes package-level planted"

func dynamicDispatch(opts runner.Options, f func(), b bumper) []int {
	return runner.Map(opts, 4, func(i int) int {
		f()
		b.bump()
		return i
	})
}

var _ = dynamicDispatch(runner.Options{}, bumpPlanted, counter{})
