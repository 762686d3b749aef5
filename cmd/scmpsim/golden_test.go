package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"scmp/internal/experiment"
)

var update = flag.Bool("update", false, "rewrite testdata/quick_* from the current -quick output")

// TestQuickGoldens pins every byte of `scmpsim -quick` for each
// registered experiment name in both formats, serial and fanned over 4
// workers: the tables, the CSV records and the -quick shrink values
// themselves. Each study runs once per width; both formats render from
// that one report, as dispatch renders the one it runs.
// Regenerate deliberately with `go test ./cmd/scmpsim -run QuickGoldens -update`.
func TestQuickGoldens(t *testing.T) {
	for _, study := range experiment.Studies {
		exp := study.Name
		for _, parallel := range []int{1, 4} {
			rep := study.Run(true, options{parallel: parallel}.tune)
			for _, format := range []string{"table", "csv"} {
				ext := map[string]string{"table": "txt", "csv": "csv"}[format]
				path := filepath.Join("testdata", "quick_"+exp+"."+ext)
				var buf bytes.Buffer
				if err := writeReport(&buf, rep, format); err != nil {
					t.Fatalf("%s/%s/parallel=%d: %v", exp, format, parallel, err)
				}
				if *update && parallel == 1 {
					if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Errorf("%s/%s/parallel=%d differs from %s:\n--- got ---\n%s\n--- want ---\n%s",
						exp, format, parallel, path, buf.Bytes(), want)
				}
			}
		}
	}
	if files, _ := filepath.Glob(filepath.Join("testdata", "quick_*")); len(files) != 2*len(experiment.Studies) {
		t.Errorf("testdata holds %d quick_* goldens for %d registered experiments x 2 formats",
			len(files), len(experiment.Studies))
	}
}
