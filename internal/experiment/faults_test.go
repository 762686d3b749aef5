package experiment

import (
	"bytes"
	"testing"
)

// The issue's acceptance criterion, run through the public harness:
// under 5% uniform loss the hardened stack strands nobody once the loss
// window closes, while the identically-seeded bare stack strands at
// least one member somewhere in the sweep; the loss-free rows are
// identical across modes (fault layer transparency).
func TestFaultsSweepAcceptance(t *testing.T) {
	cfg := FaultsConfig{
		Topologies: []string{TopoArpanet},
		LossRates:  []float64{0, 0.05},
		GroupSize:  8, Seeds: 4, SimTime: 10, DataRate: 1,
		Parallel: 1,
	}
	res := RunFaults(cfg)
	bareStranded := 0.0
	for _, r := range res.Loss.Rows {
		loss, repair := r.Key[1].(float64), bool(r.Key[2].(OnOff))
		stranded := res.Loss.Value("stranded_mean", r.Key[:]...)
		switch {
		case repair && stranded != 0:
			t.Errorf("hardened stack stranded %.2f members at loss %.2f", stranded, loss)
		case !repair && loss > 0:
			bareStranded += stranded
		case loss == 0 && (stranded != 0 || res.Loss.Value("ctrl_drops_mean", r.Key[:]...) != 0):
			t.Errorf("loss-free run not transparent: %v", r.Key)
		}
	}
	if bareStranded == 0 {
		t.Error("bare stack stranded nobody under loss — the sweep no longer discriminates")
	}
	for _, r := range res.Recovery.Rows {
		topo := r.Key[0]
		if healed, runs := res.Recovery.Value("healed", topo), res.Recovery.Value("runs", topo); healed != runs {
			t.Errorf("%s: only %.0f/%.0f link-cut runs healed", topo, healed, runs)
		}
		// NaN (nothing needed repair) passes.
		if res.Recovery.Value("recovery_mean", topo) <= 0 {
			t.Errorf("%s: non-positive mean recovery time", topo)
		}
	}
}

// Same config twice must render byte-identical output (the serial
// twin of core's cross-mode test).
func TestFaultsRerunIsByteIdentical(t *testing.T) {
	cfg := FaultsConfig{
		Topologies: []string{TopoArpanet},
		LossRates:  []float64{0.05},
		GroupSize:  6, Seeds: 2, SimTime: 8, DataRate: 1,
		Parallel: 1,
	}
	render := func() []byte {
		var buf bytes.Buffer
		res := RunFaults(cfg)
		if err := WriteCSV(&buf, res.Loss, res.Recovery); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := render(), render(); !bytes.Equal(a, b) {
		t.Fatalf("re-run diverged:\nfirst:\n%s\nsecond:\n%s", a, b)
	}
}
