package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick_* from the current -quick output")

// goldenExperiments is every -experiment name the goldens pin.
var goldenExperiments = []string{
	"fig7", "fig7x", "fig8", "fig9", "placement", "state",
	"concentration", "faults", "churn", "domains", "all",
}

// TestQuickGoldens pins every byte of `scmpsim -quick` for each
// experiment name in both formats, serial and fanned over 4 workers:
// the tables, the CSV records and the -quick shrink values themselves.
// Regenerate deliberately with `go test ./cmd/scmpsim -run QuickGoldens -update`.
func TestQuickGoldens(t *testing.T) {
	for _, exp := range goldenExperiments {
		for _, format := range []string{"table", "csv"} {
			ext := map[string]string{"table": "txt", "csv": "csv"}[format]
			path := filepath.Join("testdata", "quick_"+exp+"."+ext)
			for _, parallel := range []int{1, 4} {
				var buf bytes.Buffer
				opt := options{experiment: exp, quick: true, parallel: parallel, format: format}
				if err := dispatch(&buf, opt); err != nil {
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
}
