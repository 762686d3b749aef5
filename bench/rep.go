package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// span is one timed call the harness made into a layer. Spans live in
// memory for the length of a traced repetition and are written out only
// when the benchmark ends; untraced repetitions record none.
type span struct {
	Name     string  `json:"name"`
	Start    float64 `json:"start"` // seconds since the repetition began
	End      float64 `json:"end"`
	Parent   int     `json:"parent"` // index of the enclosing span, -1 at the root
	Workload string  `json:"workload"`
	Rep      int     `json:"rep"`
}

// repResult is what one repetition (one child process) reports.
type repResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Rep      int    `json:"rep"`
	Traced   bool   `json:"traced"`
	// Metrics holds this repetition's end-to-end values by name.
	Metrics map[string]float64 `json:"metrics"`
	// Exact holds the simulated statistics that must repeat bit for bit;
	// Digest is the sha256 over them and the extra digest material.
	Exact  map[string]float64 `json:"exact"`
	Digest string             `json:"digest"`
	// Layers holds the per-layer values (traced repetitions only).
	Layers       map[string]float64 `json:"layers,omitempty"`
	Spans        []span             `json:"spans,omitempty"`
	OpsAttempted int64              `json:"ops_attempted"`
	OpsFailed    int64              `json:"ops_failed"`
	Errors       []string           `json:"errors,omitempty"`
}

// ctx is the state of one repetition: the inputs, the span recorder,
// the host-cost bracket around the timed drive, and the digest of
// everything simulated.
type ctx struct {
	workload string
	seed     int64
	smoke    bool
	traced   bool
	res      *repResult

	begin time.Time
	open  []int // stack of open span indexes
	dig   hash.Hash

	setupStart time.Time
	driveStart time.Time
	mem0       runtime.MemStats
	cpu0       [2]float64 // gc, total cpu-seconds at drive start
}

func newCtx(workload string, seed int64, rep int, smoke, traced bool) *ctx {
	return &ctx{
		workload: workload, seed: seed, smoke: smoke, traced: traced,
		begin: time.Now(), dig: sha256.New(),
		res: &repResult{
			Workload: workload, Seed: seed, Rep: rep, Traced: traced,
			Metrics: map[string]float64{}, Exact: map[string]float64{},
			Layers: map[string]float64{},
		},
	}
}

// span opens a span and returns the function that closes it; use as
// `defer c.span("netsim.new")()` or close explicitly. Untraced
// repetitions pay one nil-func call.
func (c *ctx) span(name string) func() {
	if !c.traced {
		return func() {}
	}
	parent := -1
	if len(c.open) > 0 {
		parent = c.open[len(c.open)-1]
	}
	idx := len(c.res.Spans)
	c.res.Spans = append(c.res.Spans, span{
		Name: name, Start: time.Since(c.begin).Seconds(), Parent: parent,
		Workload: c.workload, Rep: c.res.Rep,
	})
	c.open = append(c.open, idx)
	return func() {
		c.res.Spans[idx].End = time.Since(c.begin).Seconds()
		c.open = c.open[:len(c.open)-1]
	}
}

// in runs fn inside a span.
func (c *ctx) in(name string, fn func()) {
	defer c.span(name)()
	fn()
}

// spanTotal sums the durations of every closed span with the name.
func (c *ctx) spanTotal(name string) float64 {
	total := 0.0
	for _, s := range c.res.Spans {
		if s.Name == name {
			total += s.End - s.Start
		}
	}
	return total
}

// layer records one per-layer value (kept only in traced repetitions).
func (c *ctx) layer(name string, v float64) {
	if c.traced {
		c.res.Layers[name] = v
	}
}

// exact records a simulated statistic: it is reported by name and fed
// to the digest with all its bits.
func (c *ctx) exact(name string, v float64) {
	c.res.Exact[name] = v
	c.digest(name, strconv.FormatFloat(v, 'g', -1, 64))
}

// digest feeds extra material (member sets, rendered tables) to the
// correctness digest under a label.
func (c *ctx) digest(label string, material ...any) {
	fmt.Fprintf(c.dig, "%s=%s\n", label, fmt.Sprint(material...))
}

// fail records a failed correctness check. Any failure fails every
// operation of the repetition (see finish).
func (c *ctx) fail(format string, args ...any) {
	c.res.Errors = append(c.res.Errors, fmt.Sprintf(format, args...))
}

func cpuSeconds() [2]float64 {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var out [2]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

func (c *ctx) beginSetup() { c.setupStart = time.Now() }

// beginDrive ends set-up and opens the timed drive: set-up garbage is
// collected first so the drive's allocation and GC figures are its own.
func (c *ctx) beginDrive() {
	c.res.Metrics["setup_s"] = time.Since(c.setupStart).Seconds()
	runtime.GC()
	runtime.ReadMemStats(&c.mem0)
	c.cpu0 = cpuSeconds()
	c.driveStart = time.Now()
}

// endDrive closes the timed drive. events is the number of simulated
// events it fired (0 for a workload that owns no scheduler); keep is
// whatever must stay live for the live-heap figure.
func (c *ctx) endDrive(events uint64, keep ...any) {
	wall := time.Since(c.driveStart).Seconds()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	cpu1 := cpuSeconds()
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	runtime.KeepAlive(keep)

	m := c.res.Metrics
	m["wall_s"] = wall
	m["peak_rss_mb"] = peakRSSMB()
	m["live_heap_mb"] = float64(live.HeapAlloc) / (1 << 20)
	m["alloc_mb"] = float64(m1.TotalAlloc-c.mem0.TotalAlloc) / (1 << 20)
	if events > 0 {
		m["events_per_s"] = float64(events) / wall
		m["allocs_per_kevent"] = 1000 * float64(m1.Mallocs-c.mem0.Mallocs) / float64(events)
	}
	for _, name := range []string{"alloc_mb", "events_per_s", "allocs_per_kevent"} {
		c.layer("drive."+name, m[name])
	}
	c.layer("runtime.gc_cycles", float64(m1.NumGC-c.mem0.NumGC))
	if total := cpu1[1] - c.cpu0[1]; total > 0 {
		c.layer("runtime.gc_cpu_share", (cpu1[0]-c.cpu0[0])/total)
	}
}

// peakRSSMB reads the process's high-water resident set (VmHWM). Each
// repetition is its own process, so the figure is that repetition's.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		// Not Linux: fall back to what the runtime obtained from the OS.
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.Sys) / (1 << 20)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// finish seals the repetition: the digest is fixed, and a repetition
// with any failed check counts all its operations as failed.
func (c *ctx) finish() *repResult {
	r := c.res
	r.Digest = hex.EncodeToString(c.dig.Sum(nil))
	if r.OpsAttempted < 1 {
		r.OpsAttempted = 1
	}
	if len(r.Errors) > 0 {
		r.OpsFailed = r.OpsAttempted
	}
	if !c.traced {
		r.Layers = nil
	}
	return r
}
