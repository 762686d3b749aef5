package core

import (
	"testing"

	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/rng"
	"scmp/internal/topology"
)

// TestScaleLargeDomain drives SCMP at well beyond the paper's sizes:
// a 200-router domain, 20 groups, 30 members each, churn, and data from
// random sources — exactly-once delivery and valid trees throughout.
func TestScaleLargeDomain(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	g, err := topology.Random(topology.DefaultRandom(200, 4), rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	g = g.ScaleDelays(1e-3)
	s := New(Config{MRouter: 0, Kappa: 1.5})
	n := netsim.New(g, s)
	rng := rng.New(99)

	const groups = 20
	members := make([]map[topology.NodeID]bool, groups+1)
	for gi := 1; gi <= groups; gi++ {
		members[gi] = map[topology.NodeID]bool{}
		for _, v := range rng.Perm(g.N())[:30] {
			if v == 0 {
				continue
			}
			n.HostJoin(topology.NodeID(v), packet.GroupID(gi))
			members[gi][topology.NodeID(v)] = true
		}
	}
	n.Run()

	// Validate every tree and state-size bound.
	for gi := 1; gi <= groups; gi++ {
		tr := s.GroupTree(packet.GroupID(gi))
		if err := tr.Validate(); err != nil {
			t.Fatalf("group %d: %v", gi, err)
		}
		for m := range members[gi] {
			if !tr.IsMember(m) {
				t.Fatalf("group %d lost member %d", gi, m)
			}
		}
	}
	for v := 0; v < g.N(); v++ {
		if st := s.StateEntries(topology.NodeID(v)); st > groups {
			t.Fatalf("router %d holds %d entries, exceeding the group count", v, st)
		}
	}

	// Churn a third of each group, then blast data from random sources.
	for gi := 1; gi <= groups; gi++ {
		i := 0
		for m := range members[gi] {
			if i%3 == 0 {
				n.HostLeave(m, packet.GroupID(gi))
				delete(members[gi], m)
			}
			i++
		}
	}
	n.Run()
	for round := 0; round < 3; round++ {
		for gi := 1; gi <= groups; gi++ {
			src := topology.NodeID(rng.Intn(g.N()))
			seq := n.SendData(src, packet.GroupID(gi), packet.DefaultDataSize)
			n.Run()
			missing, anomalous := n.CheckDelivery(seq)
			if len(missing) != 0 || len(anomalous) != 0 {
				t.Fatalf("group %d round %d src %d: missing=%v anomalous=%v",
					gi, round, src, missing, anomalous)
			}
		}
	}
}
