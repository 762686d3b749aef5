// Seeded shared-state writes inside runner.Map workers for the
// detshared analyzer, against the real runner package. Workers must
// communicate through their return value; the one legal write shape is
// a captured-slice element indexed by a job-derived expression (the
// chunk pattern).
package worker

import "scmp/internal/runner"

var global int

func sharedWrites(rows []float64, opts runner.Options) []int {
	shared := 0
	seen := map[int]bool{}
	return runner.Map(opts, len(rows), func(i int) int {
		global++       // want "worker writes package-level global"
		shared += i    // want "worker writes captured shared"
		seen[i] = true // want "worker writes captured seen"
		local := i * 2 // worker-local state is private: clean
		local++
		return local
	})
}

// The chunk pattern: each job owns rows [lo, hi), so element writes
// indexed by a job-derived bound are disjoint across workers.
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
			out[i] = float64(i) // clean: index derives from the job number
		}
		return struct{}{}
	})
}

// A captured-slice write whose index does NOT derive from the job
// number can collide across workers.
func fixedIndexWrite(out []float64, opts runner.Options) {
	runner.Map(opts, 8, func(i int) int {
		out[0] = float64(i) // want "worker writes captured out"
		return i
	})
}

// Map writes are racy regardless of key derivation.
func mapIndexWrite(m map[int]int, opts runner.Options) {
	runner.Map(opts, 8, func(i int) int {
		m[i] = i // want "worker writes captured m"
		return i
	})
}

// Transitive package-level writes are caught through exported facts.
func transitiveWrite(opts runner.Options) []int {
	return runner.Map(opts, 4, func(i int) int {
		bump() // want "which writes package-level state"
		return i
	})
}

func bump() { global++ }

// The shape of every internal/experiment study: the shard literal sits
// at the runner.Map call site, nested in the call that folds the shards.
// The nesting hides nothing: a captured-variable write in the shard
// function is still a worker write.
func studyShape(opts runner.Options) int {
	runs := 0
	return fold(runner.Map(opts, 4, func(seed int) []int {
		runs++ // want "worker writes captured runs"
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

// Outside a worker the same writes are legal (other analyzers own
// ordinary code).
func sequentialClean(rows []float64) {
	global++
	for i := range rows {
		rows[i] = 1
	}
}
