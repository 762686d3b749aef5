package runner

import (
	"strings"
	"sync/atomic"
	"testing"
)

// TestMapCanonicalOrder: results land at their job index no matter how
// many workers race, so a merge over the returned slice is equivalent to
// the serial loop.
func TestMapCanonicalOrder(t *testing.T) {
	for _, parallel := range []int{1, 2, 4, 16} {
		got := Map(Options{Parallel: parallel}, 100, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("parallel=%d: out[%d] = %d, want %d", parallel, i, v, i*i)
			}
		}
	}
}

func TestMapZeroJobs(t *testing.T) {
	if got := Map(Options{Parallel: 4}, 0, func(i int) int { return i }); len(got) != 0 {
		t.Fatalf("len = %d, want 0", len(got))
	}
}

// TestMapSerialPathInline: Parallel=1 must run jobs on the calling
// goroutine, in order — the pure serial path the -parallel 1 flag
// promises.
func TestMapSerialPathInline(t *testing.T) {
	var order []int
	Map(Options{Parallel: 1}, 5, func(i int) int {
		order = append(order, i) // safe only because it runs inline
		return i
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("serial path ran out of order: %v", order)
		}
	}
}

// TestMapPanicIdentity: a panicking job surfaces as a JobPanic naming
// the job, in both serial and parallel modes.
func TestMapPanicIdentity(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				jp, ok := r.(JobPanic)
				if !ok {
					t.Fatalf("parallel=%d: recovered %T %v, want JobPanic", parallel, r, r)
				}
				if jp.Job != 7 {
					t.Fatalf("parallel=%d: job = %d, want 7", parallel, jp.Job)
				}
				if jp.Value != "boom" {
					t.Fatalf("parallel=%d: value = %v", parallel, jp.Value)
				}
				if !strings.Contains(jp.Error(), "job 7") || !strings.Contains(jp.Error(), "boom") {
					t.Fatalf("parallel=%d: error %q lacks identity", parallel, jp.Error())
				}
				if len(jp.Stack) == 0 {
					t.Fatalf("parallel=%d: no stack captured", parallel)
				}
			}()
			Map(Options{Parallel: parallel}, 20, func(i int) int {
				if i == 7 {
					panic("boom")
				}
				return i
			})
		}()
	}
}

// TestMapProgress: every completion is reported and the final report is
// (n, n).
func TestMapProgress(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		var calls, last atomic.Int64
		Map(Options{Parallel: parallel, Progress: func(done, total int) {
			calls.Add(1)
			if total != 30 {
				t.Errorf("total = %d, want 30", total)
			}
			if done == total {
				last.Add(1)
			}
		}}, 30, func(i int) int { return i })
		if calls.Load() != 30 {
			t.Fatalf("parallel=%d: %d progress calls, want 30", parallel, calls.Load())
		}
		if last.Load() != 1 {
			t.Fatalf("parallel=%d: final (n, n) report seen %d times", parallel, last.Load())
		}
	}
}

// TestCacheBuildsOnce: concurrent Gets of one key run build exactly once
// and all callers see the same value; distinct keys build independently.
func TestCacheBuildsOnce(t *testing.T) {
	var c Cache[int, *int]
	var builds atomic.Int64
	got := Map(Options{Parallel: 8}, 64, func(i int) *int {
		return c.Get(i%4, func() *int {
			builds.Add(1)
			v := i % 4
			return &v
		})
	})
	if builds.Load() != 4 {
		t.Fatalf("builds = %d, want 4", builds.Load())
	}
	if len(c.m) != 4 {
		t.Fatalf("%d keys cached, want 4", len(c.m))
	}
	for i, p := range got {
		if *p != i%4 {
			t.Fatalf("key %d resolved to %d", i%4, *p)
		}
		if p != got[i%4] {
			t.Fatalf("job %d did not share the cached pointer", i)
		}
	}
}

func TestWorkersResolution(t *testing.T) {
	if w := (Options{Parallel: 8}).workers(3); w != 3 {
		t.Fatalf("workers capped = %d, want 3", w)
	}
	if w := (Options{}).workers(1000); w < 1 {
		t.Fatalf("workers default = %d", w)
	}
	if w := (Options{Parallel: -5}).workers(2); w < 1 || w > 2 {
		t.Fatalf("negative parallel resolved to %d", w)
	}
}
