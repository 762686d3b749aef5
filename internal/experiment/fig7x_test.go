package experiment

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestFig7xConclusionsHoldAcrossFamilies(t *testing.T) {
	tab := RunFig7x(Fig7xConfig{GroupSize: 15, Seeds: 3, Kappa: 1.5})
	for _, family := range Fig7xFamilies {
		type ratios struct{ cost, delay float64 }
		get := func(algo string) ratios {
			return ratios{tab.Value("cost_vs_spt", family, algo), tab.Value("delay_vs_spt", family, algo)}
		}
		dcdm, kmb, spt := get("DCDM"), get("KMB"), get("SPT")
		if math.IsNaN(dcdm.cost) {
			t.Fatalf("missing family %s", family)
		}
		// SPT reference is exactly 1.
		if spt.cost != 1 || spt.delay != 1 {
			t.Fatalf("%s: SPT reference not 1", family)
		}
		// The paper's conclusions, family by family: DCDM saves cost
		// over SPT; KMB saves at least as much; DCDM's delay stays far
		// below KMB's. On the tiny dense-membership ARPANET (15 of 20
		// routers in the group) there is almost nothing left to
		// optimise, so only near-parity is required there.
		costCeil := 1.0
		if family == "arpanet20" {
			costCeil = 1.02
		}
		if dcdm.cost >= costCeil {
			t.Errorf("%s: DCDM cost ratio %.3f not below %.2f", family, dcdm.cost, costCeil)
		}
		if kmb.cost > dcdm.cost*1.05 {
			t.Errorf("%s: KMB cost ratio %.3f above DCDM %.3f", family, kmb.cost, dcdm.cost)
		}
		if dcdm.delay >= kmb.delay {
			t.Errorf("%s: DCDM delay ratio %.3f not below KMB %.3f", family, dcdm.delay, kmb.delay)
		}
	}
}

func TestWriteFig7x(t *testing.T) {
	var buf bytes.Buffer
	WriteFig7x(&buf, RunFig7x(Fig7xConfig{GroupSize: 8, Seeds: 1, Kappa: 1.5}))
	out := buf.String()
	for _, want := range []string{"topology families", "waxman100", "transitstub112", "arpanet20", "DCDM"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}
