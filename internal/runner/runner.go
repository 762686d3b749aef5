// Package runner is the deterministic parallel execution layer for the
// experiment harness. Experiments are embarrassingly parallel at the
// (topology, seed) granularity — each shard is an isolated simulation
// with its own rng streams — so Map fans shards over a worker pool and
// collects results by job index. The caller merges shard results in that
// canonical index order, which makes aggregate output byte-identical to
// a serial run regardless of completion order. Cache complements Map:
// immutable per-key artifacts (graphs, centers, all-pairs tables) are
// built once and shared read-only across shards and protocols.
package runner

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Options controls how Map executes its jobs.
type Options struct {
	// Parallel bounds the worker goroutines: 0 means GOMAXPROCS, 1 runs
	// every job inline on the calling goroutine (the pure serial path —
	// no goroutines, no synchronisation).
	Parallel int
	// Progress, when set, observes job completions as (done, total).
	// With more than one worker it is called concurrently and the done
	// counts arrive in completion order, not job order.
	Progress func(done, total int)
}

// workers resolves the effective worker count for n jobs.
func (o Options) workers(n int) int {
	p := o.Parallel
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// JobPanic is how Map re-raises a panic from inside a job: the original
// value plus the identity of the job that raised it and its stack, so a
// failure in shard 317 of 1080 says which (topology, seed) died.
type JobPanic struct {
	Job   int
	Value any
	Stack []byte
}

func (p JobPanic) Error() string {
	return fmt.Sprintf("runner: job %d panicked: %v", p.Job, p.Value)
}

func (p JobPanic) String() string { return p.Error() }

// Map runs job(0..n-1) over min(Parallel, n) workers and returns the
// results indexed by job, so the merge order downstream is canonical no
// matter which worker finished first. If a job panics, Map stops handing
// out new jobs, waits for in-flight jobs, and re-panics the first
// failure as a JobPanic. Jobs must be independent: they may share
// read-only state (see Cache) but must not write to common state.
func Map[T any](opts Options, n int, job func(int) T) []T {
	out := make([]T, n)
	if opts.workers(n) <= 1 {
		for i := 0; i < n; i++ {
			if jp := capture(&out[i], i, job); jp != nil {
				panic(*jp)
			}
			if opts.Progress != nil {
				opts.Progress(i+1, n)
			}
		}
		return out
	}
	var (
		next, done atomic.Int64
		failed     atomic.Bool
		firstOnce  sync.Once
		first      JobPanic
		wg         sync.WaitGroup
	)
	for w := opts.workers(n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if jp := capture(&out[i], i, job); jp != nil {
					firstOnce.Do(func() {
						first = *jp
						failed.Store(true)
					})
					return
				}
				if opts.Progress != nil {
					opts.Progress(int(done.Add(1)), n)
				}
			}
		}()
	}
	wg.Wait()
	if failed.Load() {
		panic(first)
	}
	return out
}

// capture runs one job, converting a panic into a JobPanic instead of
// unwinding the worker.
func capture[T any](dst *T, i int, job func(int) T) (jp *JobPanic) {
	defer func() {
		if r := recover(); r != nil {
			jp = &JobPanic{Job: i, Value: r, Stack: debug.Stack()}
		}
	}()
	*dst = job(i)
	return nil
}

// Cache memoises immutable artifacts by key: the first Get for a key
// runs build exactly once (even under concurrent Gets) and every caller
// shares the same value read-only afterwards. The zero value is ready to
// use. Values must never be mutated after build returns — that is what
// lets shards on different goroutines share them without copies.
type Cache[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*cacheEntry[V]
}

type cacheEntry[V any] struct {
	once sync.Once
	v    V
	// built distinguishes "v holds the build result" from "the build
	// panicked": sync.Once marks itself done even when its function
	// panics, so without the flag every later Get for the key would
	// silently hand out the zero V.
	built  bool
	panicv any
}

// Get returns the cached value for k, building it on first use. Distinct
// keys may build concurrently; concurrent Gets of the same key block
// until the single build finishes. If the build panics, the panic is
// re-raised to every Get of that key — later callers see the original
// failure, never a zero value.
func (c *Cache[K, V]) Get(k K, build func() V) V {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[K]*cacheEntry[V])
	}
	e := c.m[k]
	if e == nil {
		e = new(cacheEntry[V])
		c.m[k] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		defer func() {
			if !e.built {
				e.panicv = recover()
			}
		}()
		e.v = build()
		e.built = true
	})
	// Once.Do orders the build (or its recovery) before every return,
	// so built/panicv are safely visible to concurrent callers.
	if !e.built {
		panic(e.panicv)
	}
	return e.v
}
