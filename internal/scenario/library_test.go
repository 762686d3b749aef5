package scenario

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/<name>.golden from the library's current output")

// TestScenarioLibrary runs every shipped scenario script end to end;
// each must parse, run, satisfy its own "expect delivered" checks and
// print exactly testdata/<name>.golden. Regenerate the goldens
// deliberately with `go test ./internal/scenario -run ScenarioLibrary -update`.
func TestScenarioLibrary(t *testing.T) {
	dir := filepath.Join("..", "..", "scenarios")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("scenario library missing: %v", err)
	}
	ran := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".scn" {
			continue
		}
		ran++
		t.Run(e.Name(), func(t *testing.T) {
			f, err := os.Open(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			script, err := Parse(f)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			var buf bytes.Buffer
			if err := script.Run(&buf); err != nil {
				t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
			}
			golden := filepath.Join("testdata", strings.TrimSuffix(e.Name(), ".scn")+".golden")
			if *update {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, buf.Bytes(), want)
			}
		})
	}
	if ran < 5 {
		t.Fatalf("only %d scenarios found; library incomplete", ran)
	}
}
