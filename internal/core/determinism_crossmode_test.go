// Cross-mode determinism: the companion to determinism_test.go's
// byte-identical-trace regression. That test proves two identically
// seeded serial runs agree; this one proves the runner's parallel
// fan-out changes nothing — experiments sharded over 4 workers must
// produce byte-identical writer output to the pure serial path, because
// shards are independent and merge in canonical seed order. It lives in
// package core_test (not core) so it can import the experiment harness
// without an import cycle.
package core_test

import (
	"bytes"
	"testing"

	"scmp/internal/experiment"
)

func TestFig7ParallelMatchesSerial(t *testing.T) {
	render := func(parallel int) []byte {
		cfg := experiment.Fig7Config{
			Nodes: 30, Alpha: 0.25, Beta: 0.2,
			GroupSizes: []int{5, 10}, Seeds: 3,
			Parallel: parallel,
		}
		var buf bytes.Buffer
		experiment.WriteFig7(&buf, experiment.RunFig7(cfg))
		return buf.Bytes()
	}
	serial, par := render(1), render(4)
	if !bytes.Equal(serial, par) {
		t.Fatalf("fig7 output diverges between -parallel 1 and -parallel 4:\nserial:\n%s\nparallel:\n%s", serial, par)
	}
}

func TestFig89ParallelMatchesSerial(t *testing.T) {
	render := func(parallel int) []byte {
		cfg := experiment.Fig89Config{
			GroupSizes: []int{8}, Seeds: 4, SimTime: 5, DataRate: 1,
			PruneLifetime: 5,
			Topologies:    []string{experiment.TopoArpanet, experiment.TopoRand3},
			Parallel:      parallel,
		}
		var buf bytes.Buffer
		points := experiment.RunFig89(cfg)
		experiment.WriteFig8(&buf, points)
		experiment.WriteFig9(&buf, points)
		return buf.Bytes()
	}
	serial, par := render(1), render(4)
	if !bytes.Equal(serial, par) {
		t.Fatalf("fig8/9 output diverges between -parallel 1 and -parallel 4:\nserial:\n%s\nparallel:\n%s", serial, par)
	}
}

// TestFaultsParallelMatchesSerial proves the chaos sweep's fault
// schedules, loss draws and repair runs shard deterministically: the
// parallel fan-out must render byte-identical output to the serial
// path.
func TestFaultsParallelMatchesSerial(t *testing.T) {
	render := func(parallel int) []byte {
		cfg := experiment.FaultsConfig{
			Topologies: []string{experiment.TopoArpanet, experiment.TopoRand3},
			LossRates:  []float64{0, 0.05},
			GroupSize:  8, Seeds: 3, SimTime: 10, DataRate: 1,
			Parallel: parallel,
		}
		var buf bytes.Buffer
		res := experiment.RunFaults(cfg)
		if err := experiment.WriteCSV(&buf, res.Loss, res.Recovery); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial, par := render(1), render(4)
	if !bytes.Equal(serial, par) {
		t.Fatalf("faults output diverges between -parallel 1 and -parallel 4:\nserial:\n%s\nparallel:\n%s", serial, par)
	}
}

// TestOtherExperimentsParallelMatchSerial sweeps the remaining harnesses
// with small configs: CSV output (means and Student-t confidence
// half-widths per cell) must be identical across modes.
func TestOtherExperimentsParallelMatchSerial(t *testing.T) {
	runs := []struct {
		name   string
		render func(parallel int) []byte
	}{
		{"fig7x", func(p int) []byte {
			cfg := experiment.Fig7xConfig{GroupSize: 8, Seeds: 2, Kappa: 1.5, Parallel: p}
			var buf bytes.Buffer
			if err := experiment.WriteCSV(&buf, experiment.RunFig7x(cfg)); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}},
		{"placement", func(p int) []byte {
			cfg := experiment.PlacementConfig{Nodes: 40, GroupSize: 10, Seeds: 2, Trials: 3, Kappa: 1.5, Parallel: p}
			var buf bytes.Buffer
			if err := experiment.WriteCSV(&buf, experiment.RunPlacement(cfg)); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}},
		{"state", func(p int) []byte {
			cfg := experiment.StateConfig{Nodes: 25, Degree: 3, Groups: []int{1, 2},
				Members: 4, Senders: 2, PacketsPer: 1, Seeds: 2, Parallel: p}
			var buf bytes.Buffer
			if err := experiment.WriteCSV(&buf, experiment.RunState(cfg)); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}},
		{"concentration", func(p int) []byte {
			cfg := experiment.ConcentrationConfig{Nodes: 25, Degree: 3, Groups: 2,
				Members: 4, Senders: 3, Rounds: 1, Seeds: 2, Parallel: p}
			var buf bytes.Buffer
			if err := experiment.WriteCSV(&buf, experiment.RunConcentration(cfg)); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}},
	}
	for _, r := range runs {
		serial, par := r.render(1), r.render(4)
		if !bytes.Equal(serial, par) {
			t.Errorf("%s output diverges between -parallel 1 and -parallel 4:\nserial:\n%s\nparallel:\n%s",
				r.name, serial, par)
		}
	}
}
