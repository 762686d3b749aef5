package main

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// quickOpts builds a smoke-run options value; progress stays nil so
// tests are silent.
func quickOpts(exp string) options {
	return options{experiment: exp, seeds: 1, quick: true, format: "table"}
}

func TestDispatchQuickEachExperiment(t *testing.T) {
	for _, exp := range []string{"placement"} {
		var buf bytes.Buffer
		if err := dispatch(&buf, quickOpts(exp)); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s: no output", exp)
		}
	}
}

func TestDispatchFig7Quick(t *testing.T) {
	var buf bytes.Buffer
	if err := dispatch(&buf, quickOpts("fig7")); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig. 7", "DCDM", "KMB", "SPT", "tightest"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig7 output missing %q", want)
		}
	}
}

func TestDispatchFig8Quick(t *testing.T) {
	var buf bytes.Buffer
	if err := dispatch(&buf, quickOpts("fig8")); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Data overhead", "Protocol overhead", "SCMP", "DVMRP"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig8 output missing %q", want)
		}
	}
}

func TestDispatchFig9Quick(t *testing.T) {
	var buf bytes.Buffer
	if err := dispatch(&buf, quickOpts("fig9")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Maximum end-to-end delay") {
		t.Fatal("fig9 output incomplete")
	}
}

// TestDispatchParallelWidths: the -parallel knob must not change writer
// output — a two-worker quick run is byte-identical to the serial one.
func TestDispatchParallelWidths(t *testing.T) {
	render := func(parallel int) []byte {
		var buf bytes.Buffer
		opt := quickOpts("fig9")
		opt.parallel = parallel
		if err := dispatch(&buf, opt); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if serial, par := render(1), render(2); !bytes.Equal(serial, par) {
		t.Fatalf("dispatch output depends on -parallel:\nserial:\n%s\nparallel:\n%s", serial, par)
	}
}

// TestDispatchProgressReporting: a progress sink receives shard
// completions ending in a total/total line.
func TestDispatchProgressReporting(t *testing.T) {
	var out, prog bytes.Buffer
	opt := quickOpts("placement")
	opt.progress = &prog
	if err := dispatch(&out, opt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prog.String(), "placement: 1/1 shards") {
		t.Fatalf("progress output missing final shard count: %q", prog.String())
	}
}

func TestDispatchUnknown(t *testing.T) {
	if err := dispatch(&bytes.Buffer{}, options{experiment: "fig99", quick: true, format: "table"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunWritesFile(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "res.txt")
	if err := run([]string{"-experiment", "placement", "-quick", "-out", out}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "placement") {
		t.Fatalf("file content: %q", data)
	}
}

// TestRunRejectsBeforeOpeningOutput: a value no run can honour is an
// error, not a silent default — negative -seeds or -parallel, an unknown
// experiment or format, stray positional arguments — and the -out file
// is neither created nor truncated by a rejected invocation.
func TestRunRejectsBeforeOpeningOutput(t *testing.T) {
	for _, args := range [][]string{
		{"-seeds", "-2"},
		{"-parallel", "-3"},
		{"-experiment", "nope"},
		{"-format", "json"},
		{"fig7"},
		{"-quick", "stray", "-seeds", "1"},
	} {
		out := filepath.Join(t.TempDir(), "res.txt")
		args = append([]string{"-experiment", "placement", "-quick", "-out", out}, args...)
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("%v accepted", args)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("%v: rejected invocation touched -out (stat: %v)", args, err)
		}
	}
}

// TestAllCSVParsesTableByTable: -experiment all -format csv is one CSV
// table per study, separated by blank lines, each of which encoding/csv
// accepts (it rejects a change of field count within one table).
func TestAllCSVParsesTableByTable(t *testing.T) {
	var buf bytes.Buffer
	if err := dispatch(&buf, options{experiment: "all", quick: true, format: "csv"}); err != nil {
		t.Fatal(err)
	}
	tables := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n\n")
	if len(tables) != 6 {
		t.Fatalf("got %d blank-line-separated tables, want 6", len(tables))
	}
	for i, table := range tables {
		if _, err := csv.NewReader(strings.NewReader(table)).ReadAll(); err != nil {
			t.Errorf("table %d: %v", i, err)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	// -partitions selected the withdrawn partitioned drive (DESIGN.md
	// §12); it must be a flag error, not a silent no-op.
	for _, args := range [][]string{{"-nope"}, {"-partitions", "8"}} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Fatalf("bad flag %v accepted", args)
		}
	}
}

// TestRunProfiles: -cpuprofile and -memprofile each write a non-empty
// gzip-framed pprof profile and leave the printed tables unchanged.
func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var plain, profiled bytes.Buffer
	if err := run([]string{"-experiment", "fig7", "-quick"}, &plain); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-experiment", "fig7", "-quick", "-cpuprofile", cpu, "-memprofile", mem}, &profiled); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), profiled.Bytes()) {
		t.Fatalf("profiling changed the output:\nplain:\n%s\nprofiled:\n%s", plain.Bytes(), profiled.Bytes())
	}
	for _, path := range []string{cpu, mem} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
			t.Fatalf("%s: %d bytes, not a gzip-framed profile", filepath.Base(path), len(data))
		}
	}
}
