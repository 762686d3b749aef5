// Command bench is the repository's benchmark: one harness, five
// workloads, end-to-end and per-layer numbers for the SCMP simulator.
//
//	go run ./bench                         every workload: 5 timed + 1 traced repetition each
//	go run ./bench -workload join_scale    one workload
//	go run ./bench -compare old.json new.json
//	go run ./bench -update-golden          re-record bench/golden.json after an intended change
//
// The benchmark driver's form (BENCHMARK.json, via bench/run.sh) is
//
//	-workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// which repeats the workload for about s seconds and prints one JSON
// object as the last line of standard output. Every repetition runs in
// a fresh child process of this binary. See bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed bench/golden.json's digests were recorded at.
const defaultSeed = 20060814

// childTimeout bounds one repetition; a hung child is killed and the
// run reported failed, so the whole command always ends.
const childTimeout = 150 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
	child    bool
	rep      int
	compare  bool
	update   bool
	out      string
	golden   string
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all five)")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "workload seed; the golden digests apply to the default only")
	fs.Float64Var(&o.seconds, "seconds", 0, "driver form: repeat the workload for about this long and print one JSON line")
	fs.IntVar(&o.trace, "trace", 0, "driver form: 0 reports the end-to-end metrics, 1 the per-layer ones")
	fs.BoolVar(&o.smoke, "smoke", false, "use the small smoke sizes (what go test runs)")
	fs.BoolVar(&o.compare, "compare", false, "compare two results.json files: -compare old.json new.json")
	fs.BoolVar(&o.update, "update-golden", false, "record the digests of this run as the new golden set")
	fs.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for results.json and trace.json")
	fs.StringVar(&o.golden, "golden", filepath.Join("bench", "golden.json"), "golden digest file")
	fs.BoolVar(&o.child, "child", false, "internal: run one repetition and print its result")
	fs.IntVar(&o.rep, "rep", 0, "internal: repetition index of a child")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case o.compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two results.json files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case o.child:
		w := findWorkload(o.workload)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		if err := json.NewEncoder(stdout).Encode(runRep(w, o.seed, o.rep, o.smoke, o.trace == 1)); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	h := &harness{opts: o, stderr: stderr, rep: spawnRep}
	if o.seconds > 0 {
		return h.driverRun(stdout)
	}
	return h.fullRun(stdout)
}

// runRep executes one repetition in this process.
func runRep(w *workload, seed int64, rep int, smoke, traced bool) *repResult {
	c := newCtx(w.name, seed, rep, smoke, traced)
	w.run(c)
	return c.finish()
}

// spawnRep executes one repetition in a fresh child process, so no
// cache, heap or high-water mark leaks from one repetition into the
// next. The child is waited for (or killed at the timeout) before this
// returns.
func spawnRep(w *workload, seed int64, rep int, smoke, traced bool, stderr io.Writer) (*repResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10), "-rep", strconv.Itoa(rep)}
	if traced {
		args = append(args, "-trace", "1")
	}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("repetition %d of %s: %w", rep, w.name, err)
	}
	var r repResult
	if err := json.Unmarshal(out, &r); err != nil {
		return nil, fmt.Errorf("repetition %d of %s: bad result: %w", rep, w.name, err)
	}
	return &r, nil
}

// harness runs repetitions and folds them into reports.
type harness struct {
	opts   options
	stderr io.Writer
	rep    func(w *workload, seed int64, rep int, smoke, traced bool, stderr io.Writer) (*repResult, error)
}

// summary is one end-to-end metric over the untraced repetitions.
type summary struct {
	metricDef
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// report is everything measured for one workload.
type report struct {
	Workload     string             `json:"workload"`
	Why          string             `json:"why"`
	Metrics      []summary          `json:"metrics"`
	Exact        map[string]float64 `json:"exact"`
	Layers       map[string]float64 `json:"layers,omitempty"`
	Digest       string             `json:"digest"`
	OpsAttempted int64              `json:"ops_attempted"`
	OpsFailed    int64              `json:"ops_failed"`
	Errors       []string           `json:"errors,omitempty"`
	spans        []span
}

func (r *report) correct() bool { return len(r.Errors) == 0 }

// metric returns the summary of the named metric (zero when the run
// failed before measuring it).
func (r *report) metric(name string) summary {
	for _, s := range r.Metrics {
		if s.Name == name {
			return s
		}
	}
	return summary{}
}

// plan says how many repetitions a measurement makes: at least the
// minimums, and more (of the traced kind when any are asked for) until
// the time budget is spent.
type plan struct {
	untraced, traced int
	seconds          float64
}

// measure runs one workload's repetitions and checks them against each
// other: every repetition of a seed — traced or not — must produce the
// same simulated statistics and digest.
func (h *harness) measure(w *workload, p plan) *report {
	r := &report{Workload: w.name, Why: w.why, Exact: map[string]float64{}}
	start := time.Now()
	spent := func() bool { return time.Since(start).Seconds() >= p.seconds }
	var untraced, traced []*repResult
	one := func(tr bool) bool {
		res, err := h.rep(w, h.opts.seed, len(untraced)+len(traced), h.opts.smoke, tr, h.stderr)
		if err != nil {
			r.Errors = append(r.Errors, err.Error())
			return false
		}
		if tr {
			traced = append(traced, res)
		} else {
			untraced = append(untraced, res)
		}
		fmt.Fprintf(h.stderr, "bench: %s rep %d traced=%v setup_s=%.4f wall_s=%.4f peak_rss_mb=%.1f failed=%d/%d\n",
			w.name, res.Rep, tr, res.Metrics["setup_s"], res.Metrics["wall_s"], res.Metrics["peak_rss_mb"], res.OpsFailed, res.OpsAttempted)
		return true
	}
	for len(untraced) < p.untraced || (p.traced == 0 && !spent()) {
		if !one(false) {
			return r
		}
	}
	for len(traced) < p.traced || (p.traced > 0 && !spent()) {
		if !one(true) {
			return r
		}
	}

	all := append(append([]*repResult(nil), untraced...), traced...)
	first := all[0]
	r.Digest, r.Exact = first.Digest, first.Exact
	for _, res := range all {
		r.OpsAttempted += res.OpsAttempted
		r.OpsFailed += res.OpsFailed
		for _, e := range res.Errors {
			r.Errors = append(r.Errors, fmt.Sprintf("rep %d: %s", res.Rep, e))
		}
		if res.Digest != first.Digest {
			kind := "repetitions of one seed disagree"
			if res.Traced != first.Traced {
				kind = "the traced run simulated something else than the untraced one"
			}
			r.Errors = append(r.Errors, fmt.Sprintf("rep %d: digest %.12s != %.12s: %s%s",
				res.Rep, res.Digest, first.Digest, kind, exactDiff(first.Exact, res.Exact)))
		}
		r.spans = append(r.spans, res.Spans...)
	}
	for _, def := range append(append([]metricDef(nil), endToEnd...), fixedSeed...) {
		s := summary{metricDef: def, Values: metricValues(untraced, def.Name)}
		if len(s.Values) == 0 {
			continue // not defined on this workload
		}
		s.Median, s.N = median(s.Values), len(s.Values)
		s.Min, s.Max = minMax(s.Values)
		r.Metrics = append(r.Metrics, s)
	}
	if len(traced) > 0 {
		r.Layers = map[string]float64{}
		for _, def := range perLayer {
			var vs []float64
			for _, res := range traced {
				vs = append(vs, res.Layers[def.Name])
			}
			r.Layers[def.Name] = median(vs)
		}
		if u := median(metricValues(untraced, "wall_s")); u > 0 {
			r.Layers["trace.overhead_share"] = (median(metricValues(traced, "wall_s")) - u) / u
		}
	}
	if len(r.Errors) > 0 {
		r.OpsFailed = r.OpsAttempted
	}
	return r
}

// metricValues collects one end-to-end metric over the repetitions that
// report it.
func metricValues(reps []*repResult, name string) []float64 {
	var vs []float64
	for _, res := range reps {
		if v, ok := res.Metrics[name]; ok {
			vs = append(vs, v)
		}
	}
	return vs
}

// exactDiff names the simulated statistics two repetitions disagree on.
func exactDiff(a, b map[string]float64) string {
	var names []string
	for k, v := range a {
		if b[k] != v {
			names = append(names, fmt.Sprintf("%s %v vs %v", k, v, b[k]))
		}
	}
	if len(names) == 0 {
		return ""
	}
	sort.Strings(names)
	return " (" + strings.Join(names, "; ") + ")"
}

// --- golden digests ------------------------------------------------------

// goldenFile holds the expected digest of every workload at the default
// seed, for the frozen and the smoke sizes.
type goldenFile struct {
	Seed   int64             `json:"seed"`
	Frozen map[string]string `json:"frozen"`
	Smoke  map[string]string `json:"smoke"`
}

func (g *goldenFile) set(smoke bool) map[string]string {
	if smoke {
		return g.Smoke
	}
	return g.Frozen
}

func loadGolden(path string) (*goldenFile, error) {
	g := &goldenFile{Seed: defaultSeed, Frozen: map[string]string{}, Smoke: map[string]string{}}
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return g, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

func saveGolden(path string, g *goldenFile) error {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// checkGolden compares a report's digest with the recorded one. Only
// the default seed has a record; any other seed is checked by the
// invariants and the cross-repetition comparison alone.
func (h *harness) checkGolden(g *goldenFile, r *report) {
	if h.opts.seed != g.Seed || r.Digest == "" {
		return
	}
	set := g.set(h.opts.smoke)
	if h.opts.update {
		set[r.Workload] = r.Digest
		return
	}
	switch want, ok := set[r.Workload]; {
	case !ok:
		r.Errors = append(r.Errors, "no golden digest recorded (run with -update-golden)")
	case want != r.Digest:
		r.Errors = append(r.Errors, fmt.Sprintf("digest %.16s differs from golden %.16s: the simulated statistics changed", r.Digest, want))
	}
	if len(r.Errors) > 0 {
		r.OpsFailed = r.OpsAttempted
	}
}

// --- driver form ---------------------------------------------------------

// driverRun is the BENCHMARK.json contract: measure one workload for
// about -seconds and print one JSON object as the last line.
func (h *harness) driverRun(stdout io.Writer) int {
	w := findWorkload(h.opts.workload)
	if w == nil {
		fmt.Fprintf(h.stderr, "bench: unknown workload %q\n", h.opts.workload)
		return 2
	}
	g, err := loadGolden(h.opts.golden)
	if err != nil {
		fmt.Fprintln(h.stderr, "bench:", err)
		return 1
	}
	p := plan{untraced: 3, seconds: h.opts.seconds}
	if h.opts.trace == 1 {
		// The untraced repetitions are the digest and wall-time reference.
		p = plan{untraced: 3, traced: 2, seconds: h.opts.seconds}
	}
	r := h.measure(w, p)
	h.checkGolden(g, r)
	for _, e := range r.Errors {
		fmt.Fprintf(h.stderr, "bench: %s: %s\n", w.name, e)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), max(r.OpsAttempted, 1), r.OpsFailed, map[string]value{}}
	if h.opts.trace == 1 {
		for _, def := range perLayer {
			out.Metrics[def.Name] = value{r.Layers[def.Name], def.Unit}
		}
	} else {
		for _, def := range endToEnd {
			out.Metrics[def.Name] = value{r.metric(def.Name).Median, def.Unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(h.stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// --- full form -----------------------------------------------------------

// environment is recorded beside the numbers so two result files can
// be told apart when they should not be compared.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func readEnvironment() environment {
	e := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: "unknown", Commit: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// results is bench/out/results.json.
type results struct {
	Env       environment `json:"env"`
	Seed      int64       `json:"seed"`
	Size      string      `json:"size"`
	Workloads []*report   `json:"workloads"`
}

// fullRun measures the selected workloads (5 timed + 1 traced
// repetition each), prints every metric by name with its unit, checks
// the digests, and writes results.json and trace.json.
func (h *harness) fullRun(stdout io.Writer) int {
	g, err := loadGolden(h.opts.golden)
	if err != nil {
		fmt.Fprintln(h.stderr, "bench:", err)
		return 1
	}
	res := results{Env: readEnvironment(), Seed: h.opts.seed, Size: "frozen"}
	if h.opts.smoke {
		res.Size = "smoke"
	}
	fmt.Fprintf(stdout, "bench: seed %d, %s sizes, %s, %d cpus (GOMAXPROCS %d), %s, commit %.12s\n",
		res.Seed, res.Size, res.Env.GoVersion, res.Env.NProc, res.Env.GOMAXPROCS, res.Env.CPUModel, res.Env.Commit)
	var spans []span
	failed := false
	for i := range workloads {
		w := &workloads[i]
		if h.opts.workload != "" && h.opts.workload != w.name {
			continue
		}
		r := h.measure(w, plan{untraced: 5, traced: 1})
		h.checkGolden(g, r)
		printReport(stdout, r)
		res.Workloads = append(res.Workloads, r)
		spans = append(spans, r.spans...)
		failed = failed || !r.correct()
	}
	if len(res.Workloads) == 0 {
		fmt.Fprintf(h.stderr, "bench: unknown workload %q\n", h.opts.workload)
		return 2
	}
	if h.opts.update && !failed {
		if err := saveGolden(h.opts.golden, g); err != nil {
			fmt.Fprintln(h.stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "\nrecorded golden digests in %s\n", h.opts.golden)
	}
	if err := writeJSON(filepath.Join(h.opts.out, "results.json"), res); err != nil {
		fmt.Fprintln(h.stderr, "bench:", err)
		return 1
	}
	if err := writeJSON(filepath.Join(h.opts.out, "trace.json"), spans); err != nil {
		fmt.Fprintln(h.stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nwrote %s and trace.json\n", filepath.Join(h.opts.out, "results.json"))
	if failed {
		fmt.Fprintln(stdout, "FAIL: a digest, invariant or delivery check failed")
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func printReport(w io.Writer, r *report) {
	fmt.Fprintf(w, "\n== %s ==\n", r.Workload)
	fmt.Fprintf(w, "%-28s %-6s %14s %14s %14s %3s  %s\n", "end-to-end", "unit", "median", "min", "max", "n", "bound")
	for _, s := range r.Metrics {
		fmt.Fprintf(w, "%-28s %-6s %14.6g %14.6g %14.6g %3d  %s %.0f%%\n",
			s.Name, s.Unit, s.Median, s.Min, s.Max, s.N, s.Better, 100*s.Bound)
	}
	fmt.Fprintf(w, "%-28s %-6s %14d\n%-28s %-6s %14d\n", "ops_attempted", "count", r.OpsAttempted, "ops_failed", "count", r.OpsFailed)
	names := make([]string, 0, len(r.Exact))
	for k := range r.Exact {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "simulated (exact, digest %.16s)\n", r.Digest)
	for _, k := range names {
		fmt.Fprintf(w, "  %-26s %21.10g\n", k, r.Exact[k])
	}
	if r.Layers != nil {
		fmt.Fprintln(w, "per layer (traced repetition)")
		for _, def := range perLayer {
			if v := r.Layers[def.Name]; v != 0 {
				fmt.Fprintf(w, "  %-26s %-6s %14.6g\n", def.Name, def.Unit, v)
			}
		}
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  ERROR: %s\n", e)
	}
}
