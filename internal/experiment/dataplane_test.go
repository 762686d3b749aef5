package experiment

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"scmp/internal/protocols/dvmrp"
)

var update = flag.Bool("update", false, "rewrite testdata/dataplane_smoke.golden from the current smoke reports")

// The data-plane gate: smoke workloads rendered to full report bytes
// must match the committed golden, recorded when the pooled data plane
// and the historical closure-per-hop path still ran side by side and
// agreed byte for byte, and must not depend on the parallel runner's
// width. CI runs this with -race and -tags invariants so it also
// exercises the pooled scheduler's slot-generation checks.

// renderSmokeReports runs a shrunken Fig. 8/9 sweep and a shrunken
// chaos sweep (loss + recovery, the RNG-heaviest paths) and returns the
// concatenated report text.
func renderSmokeReports(parallel int) []byte {
	var buf bytes.Buffer
	cfg := Fig89Config{
		Topologies:    []string{TopoArpanet},
		GroupSizes:    []int{8, 16},
		Seeds:         2,
		SimTime:       5,
		DataRate:      1,
		PruneLifetime: dvmrp.DefaultPruneLifetime,
		Parallel:      parallel,
	}
	points := RunFig89(cfg)
	WriteFig8(&buf, points)
	WriteFig9(&buf, points)

	fcfg := FaultsConfig{
		Topologies: []string{TopoArpanet},
		LossRates:  []float64{0, 0.05},
		GroupSize:  8,
		Seeds:      2,
		SimTime:    5,
		DataRate:   1,
		Parallel:   parallel,
	}
	WriteFaults(&buf, RunFaults(fcfg))
	return buf.Bytes()
}

// Regenerate deliberately with
// `go test ./internal/experiment -run DataPlaneEquivalence -update`.
func TestDataPlaneEquivalence(t *testing.T) {
	serial := renderSmokeReports(1)
	path := filepath.Join("testdata", "dataplane_smoke.golden")
	if *update {
		if err := os.WriteFile(path, serial, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !bytes.Equal(serial, want) {
		t.Fatalf("serial smoke reports differ from %s:\n--- got ---\n%s\n--- want ---\n%s", path, serial, want)
	}
	if par := renderSmokeReports(4); !bytes.Equal(serial, par) {
		t.Fatal("parallel smoke reports differ from serial")
	}
}
