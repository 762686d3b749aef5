package main

import (
	"bytes"
	"encoding/json"
	"go/format"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// inProcess runs repetitions in the test process instead of spawning
// children (there is no harness binary under `go test`).
func inProcess(w *workload, seed int64, rep int, smoke, traced bool, _ io.Writer) (*repResult, error) {
	return runRep(w, seed, rep, smoke, traced), nil
}

// TestWorkloadsSmoke runs every workload at its smoke size: two
// untraced repetitions and a traced one must agree bit for bit on the
// simulated statistics (so neither the run nor the wrapper perturbs the
// simulation), match the golden digest, fail no operation, and emit
// every metric BENCHMARK.json names.
func TestWorkloadsSmoke(t *testing.T) {
	golden, err := loadGolden("golden.json")
	if err != nil {
		t.Fatal(err)
	}
	recorded := map[string]bool{"trace.overhead_share": true} // computed across repetitions
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			a := runRep(w, defaultSeed, 0, true, false)
			b := runRep(w, defaultSeed, 1, true, false)
			tr := runRep(w, defaultSeed, 2, true, true)
			for _, r := range []*repResult{a, b, tr} {
				if len(r.Errors) > 0 || r.OpsFailed != 0 {
					t.Fatalf("rep %d: %d of %d operations failed: %v", r.Rep, r.OpsFailed, r.OpsAttempted, r.Errors)
				}
			}
			if a.Digest != b.Digest || !reflect.DeepEqual(a.Exact, b.Exact) {
				t.Errorf("two runs of one seed disagree:%s", exactDiff(a.Exact, b.Exact))
			}
			if a.Digest != tr.Digest || !reflect.DeepEqual(a.Exact, tr.Exact) {
				t.Errorf("traced run simulated something else:%s", exactDiff(a.Exact, tr.Exact))
			}
			if want := golden.Smoke[w.name]; want != a.Digest {
				t.Errorf("digest %s, golden %s: simulated statistics changed (go run ./bench -smoke -update-golden records an intended change)", a.Digest, want)
			}
			for _, def := range endToEnd {
				if v, ok := a.Metrics[def.Name]; !ok || !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", def.Name, v)
				}
			}
			for name := range tr.Layers {
				recorded[name] = true
			}
			if len(tr.Spans) == 0 {
				t.Error("traced run recorded no spans")
			}
			if len(a.Spans) != 0 || a.Layers != nil {
				t.Error("untraced run recorded spans or layer metrics")
			}
		})
	}
	// The recording sites and the declared table must name the same
	// metrics: each declared one is recorded by some workload, and
	// nothing undeclared is recorded.
	for _, def := range perLayer {
		if !recorded[def.Name] {
			t.Errorf("per-layer metric %s is declared but no workload records it", def.Name)
		}
		delete(recorded, def.Name)
	}
	for name := range recorded {
		t.Errorf("per-layer metric %s is recorded but not declared", name)
	}
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSON holds BENCHMARK.json and the harness's own tables
// to each other, and the names to the contract's alphabet.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", f.RunSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, harness has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q/%q, harness has %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the harness table:\n%v\n%v", f.EndToEnd, endToEnd)
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, harness has %d", len(f.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range f.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: %v, harness has %v", i, m, d)
		}
	}
	hasSetup := false
	for _, d := range append(append(append([]metricDef(nil), endToEnd...), fixedSeed...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q outside the contract's alphabet", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// TestDriverForm checks the line the benchmark driver reads: one JSON
// object, last on standard output, with exactly the contract's keys and
// every declared metric of the requested kind.
func TestDriverForm(t *testing.T) {
	for trace, defs := range [][]metricDef{endToEnd, perLayer} {
		var out, errs bytes.Buffer
		h := &harness{
			opts:   options{workload: "fault_repair", seed: 3, seconds: 0.001, trace: trace, smoke: true, golden: "golden.json"},
			stderr: &errs, rep: inProcess,
		}
		if code := h.driverRun(&out); code != 0 {
			t.Fatalf("trace %d: exit %d: %s", trace, code, errs.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var got struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("trace %d: %v in %q", trace, err, lines[len(lines)-1])
		}
		if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted < 1 || got.Failed == nil || *got.Failed != 0 {
			t.Errorf("trace %d: correct/attempted/failed = %v/%v/%v (%s)", trace, got.Correct, got.Attempted, got.Failed, errs.String())
		}
		if len(got.Metrics) != len(defs) {
			t.Errorf("trace %d: %d metrics printed, %d declared", trace, len(got.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := got.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("trace %d: metric %s missing or with the wrong unit", trace, d.Name)
			}
		}
	}
}

// TestQuartiles pins the spread to Python's statistics.quantiles(n=4),
// which the contract defines it through.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{2.5, 3.1, 2.9, 3.0, 2.7, 3.3, 2.8}, 2.7, 3.1},
	} {
		q1, q3 := quartiles(c.vs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.vs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTailStat(t *testing.T) {
	var vs []float64
	for i := 1; i <= 1000; i++ {
		vs = append(vs, float64(i))
	}
	got := tailOf(vs)
	if got.p50 != 500.5 || got.hi != 990 || got.hiPct != 99 || got.n != 1000 {
		t.Errorf("tailOf(1..1000) = %+v", got)
	}
	if got := tailOf(vs[:15]); got.hi != got.p50 || got.hiPct != 50 {
		t.Errorf("15 samples support no tail above the median, got %+v", got)
	}
}

// TestCompare drives -compare through its three verdicts and the exit
// code.
func TestCompare(t *testing.T) {
	mk := func(wall []float64, overhead float64, failed int64) *results {
		s := summary{metricDef: endToEnd[1], Values: wall, Median: median(wall), N: len(wall)}
		return &results{Size: "frozen", Workloads: []*report{{
			Workload: "w", Metrics: []summary{s},
			Exact: map[string]float64{"ctrl_overhead_units": overhead}, OpsAttempted: 100, OpsFailed: failed,
		}}}
	}
	steady := []float64{1.00, 1.01, 0.99, 1.02, 1.00}
	for _, c := range []struct {
		name     string
		old, cur *results
		want     string
		exit     int
	}{
		{"same", mk(steady, 5, 0), mk(steady, 5, 0), " ok", 0},
		{"slower", mk(steady, 5, 0), mk([]float64{1.4, 1.41, 1.39, 1.42, 1.4}, 5, 0), "regressed", 1},
		{"noisy", mk(steady, 5, 0), mk([]float64{0.7, 1.0, 1.3, 0.8, 1.35}, 5, 0), "unresolved", 0},
		{"noisy but all better", mk(steady, 5, 0), mk([]float64{0.3, 0.5, 0.7, 0.4, 0.75}, 5, 0), " ok", 0},
		{"simulation changed", mk(steady, 5, 0), mk(steady, 6, 0), "changed", 1},
		{"more failures", mk(steady, 5, 0), mk(steady, 5, 3), "regressed", 1},
	} {
		var out bytes.Buffer
		if exit := compareResults(c.old, c.cur, &out); exit != c.exit || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: exit %d, want %d with %q in:\n%s", c.name, exit, c.exit, c.want, out.String())
		}
	}
}

// TestGofmt keeps the harness formatted (CI's gofmt, go vet and
// scmplint steps run over ./... and so cover bench/ too).
func TestGofmt(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		want, err := format.Source(src)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if !bytes.Equal(src, want) {
			t.Errorf("%s is not gofmt-formatted", f)
		}
	}
}
