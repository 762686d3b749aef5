package experiment

import (
	"bytes"
	"testing"
)

// TestChurnOverloadProtection is the sweep's acceptance gate. At the top
// arrival rate under 5% control loss the unprotected control plane must
// reproduce the overload failure — an effectively unbounded
// pending-operation queue (or stranded survivors); with the protection
// stack on, the same schedule must keep the queue bounded near the
// admission limit, shed visibly, and still converge every surviving
// member after the settle phase.
func TestChurnOverloadProtection(t *testing.T) {
	cfg := DefaultChurn()
	cfg.Duration, cfg.Settle = 3, 6
	for seed := 0; seed < 3; seed++ {
		art := fig89ArtifactFor(TopoArpanet, int64(seed))
		members := churnMembers(art, cfg, seed)
		var net shardNet

		prot := runChurnRun(&net, art, cfg, members, 2000, 0.05, true, seed)
		if prot[churnBacklog] > 2*churnAdmitLimit {
			t.Errorf("seed %d: protected backlog peaked at %.0f, admission limit %d",
				seed, prot[churnBacklog], churnAdmitLimit)
		}
		if prot[churnStranded] != 0 {
			t.Errorf("seed %d: %.0f survivors stranded with protection on",
				seed, prot[churnStranded])
		}
		if prot[churnSheds] == 0 {
			t.Errorf("seed %d: protected arm never shed at the top rate", seed)
		}

		raw := runChurnRun(&net, art, cfg, members, 2000, 0.05, false, seed)
		if raw[churnBacklog] <= 4*churnAdmitLimit && raw[churnStranded] == 0 {
			t.Errorf("seed %d: unprotected arm did not overload (peak backlog %.0f, stranded %.0f)",
				seed, raw[churnBacklog], raw[churnStranded])
		}
		if raw[churnSheds] != 0 {
			t.Errorf("seed %d: unprotected arm shed %.0f JOINs", seed, raw[churnSheds])
		}
	}
}

// TestChurnTableByteIdentical: the churn report must be byte-identical
// between a serial run and runner-sharded runs at several worker
// counts, for both renderers.
func TestChurnTableByteIdentical(t *testing.T) {
	render := func(parallel int) ([]byte, []byte) {
		cfg := DefaultChurn()
		cfg.Topologies = []string{TopoArpanet, TopoRand3}
		cfg.Rates = []float64{100, 2000}
		cfg.LossRates = []float64{0, 0.05}
		cfg.Seeds = 2
		cfg.Duration, cfg.Settle = 2, 4
		cfg.Parallel = parallel
		res := RunChurn(cfg)
		var table, csv bytes.Buffer
		WriteChurn(&table, res)
		if err := WriteCSV(&csv, res); err != nil {
			t.Fatalf("parallel=%d: csv: %v", parallel, err)
		}
		return table.Bytes(), csv.Bytes()
	}
	serialTable, serialCSV := render(1)
	if len(serialTable) == 0 || len(serialCSV) == 0 {
		t.Fatal("serial churn sweep rendered nothing")
	}
	for _, p := range []int{2, 4, 8} {
		table, csv := render(p)
		if !bytes.Equal(serialTable, table) {
			t.Fatalf("churn table diverges at %d workers:\n--- serial ---\n%s\n--- p=%d ---\n%s",
				p, serialTable, p, table)
		}
		if !bytes.Equal(serialCSV, csv) {
			t.Fatalf("churn csv diverges at %d workers", p)
		}
	}
}
