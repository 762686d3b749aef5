package mtree

import (
	"testing"
	"testing/quick"

	"scmp/internal/rng"
	"scmp/internal/topology"
)

func TestQoSBudgetBoundsGrafts(t *testing.T) {
	// Two-rail graph: fast rail delay 2 (cost 20), cheap rail delay 12
	// (cost 2). A budget of 5 forbids the cheap rail even though the
	// unconstrained (kappa=inf) algorithm would take it.
	d := newDCDM(fig5Graph(), 0, 1)
	d.SetQoSBudget(5)
	if d.Bound() != 5 {
		t.Fatalf("bound = %g, want 5", d.Bound())
	}
	res := d.Join(2)
	if res.BestEffort {
		t.Fatal("member within budget flagged best-effort")
	}
	if got := d.Tree().Delay(2); got > 5 {
		t.Fatalf("ml(2) = %g exceeds budget", got)
	}
	if d.Tree().Cost() != 20 {
		t.Fatalf("cost = %g, want fast rail 20", d.Tree().Cost())
	}
}

func TestQoSBudgetBestEffort(t *testing.T) {
	// Budget 1 is unmeetable for member 2 (unicast delay 2): it joins
	// best-effort over P_sl.
	d := newDCDM(fig5Graph(), 0, 1)
	d.SetQoSBudget(1)
	res := d.Join(2)
	if !res.BestEffort {
		t.Fatal("unmeetable budget not flagged best-effort")
	}
	if got := d.Tree().Delay(2); got != 2 {
		t.Fatalf("best-effort ml(2) = %g, want unicast delay 2", got)
	}
}

func TestQoSBudgetClearRestoresKappa(t *testing.T) {
	d := newDCDM(fig5Graph(), 0, 1.5)
	d.SetQoSBudget(7)
	if d.absMax != 7 || d.Bound() != 7 {
		t.Fatal("budget not applied")
	}
	d.SetQoSBudget(0)
	if d.absMax != 0 {
		t.Fatal("budget not cleared")
	}
	d.Join(2)
	if d.Bound() != 1.5*2 {
		t.Fatalf("bound = %g, want kappa*maxUL = 3", d.Bound())
	}
}

// Property: with an absolute budget, every member that was NOT admitted
// best-effort sits within the budget at join time, and best-effort
// members sit at exactly their unicast delay.
func TestPropertyQoSBudgetRespected(t *testing.T) {
	f := func(seed int64, rawBudget uint8) bool {
		rng := rng.New(seed)
		g, err := topology.Random(topology.DefaultRandom(20, 4), rng)
		if err != nil {
			return false
		}
		d := newDCDM(g, 0, 1)
		budget := 10 + float64(rawBudget)
		d.SetQoSBudget(budget)
		for _, v := range rng.Perm(g.N())[:8] {
			if v == 0 {
				continue
			}
			s := topology.NodeID(v)
			res := d.Join(s)
			ml := d.Tree().Delay(s)
			switch {
			case res.BestEffort:
				if ml > d.UnicastDelay(s)+1e-9 {
					return false
				}
			case res.AlreadyOn || res.Restructured:
				// An existing relay's delay was never constrained, and
				// restructuring may shift delays — the budget applies
				// to the graft decision, not retroactively.
			case ml > budget+1e-9:
				return false
			}
			if err := d.Tree().Validate(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
