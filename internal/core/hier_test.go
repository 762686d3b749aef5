package core

import (
	"math/rand"
	"testing"

	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/topology"
)

// hierNet builds a transit-stub network in hierarchical mode, using the
// generator's own domain labels and the default (lowest-id) per-domain
// m-router placement.
func hierNet(t testing.TB, cfg topology.TransitStubConfig, seed int64, extra Config) (*netsim.Network, *SCMP, *topology.DomainView) {
	t.Helper()
	g, info, err := topology.TransitStub(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("TransitStub: %v", err)
	}
	view, err := topology.NewDomainView(g, info.Domain)
	if err != nil {
		t.Fatalf("NewDomainView: %v", err)
	}
	extra.Domains = info.Domain
	extra.DomainMRouters = view.MRouters()
	s := New(extra)
	n := netsim.New(g, s)
	return n, s, view
}

// smallTS is a ~81-node transit-stub: 3 transit domains of 3 routers,
// one 8-router stub per transit router — 12 domains in all.
func smallTS() topology.TransitStubConfig {
	return topology.TransitStubConfig{TransitDomains: 3, TransitSize: 3, StubsPerTransitNode: 1, StubSize: 8, EdgeProb: 0.4}
}

// requireInstalledMatchesComposed asserts, after a full drain, that the
// routers' installed entries mirror the composed tree exactly: every
// composed-tree node is on tree with its composed parent as upstream
// and its composed children among its downstream, and no router off the
// composed tree still forwards for the group.
func requireInstalledMatchesComposed(t *testing.T, s *SCMP, g packet.GroupID) {
	t.Helper()
	tree := s.GroupTree(g)
	if tree == nil {
		t.Fatal("no group tree")
	}
	n := tree.Graph().N()
	for v := 0; v < n; v++ {
		id := topology.NodeID(v)
		e, ok := s.Entry(id, g)
		if !tree.OnTree(id) {
			if ok && e.OnTree {
				t.Fatalf("node %d installed on tree but composed tree excludes it", v)
			}
			continue
		}
		if !ok || !e.OnTree {
			t.Fatalf("composed-tree node %d has no installed entry", v)
		}
		p, hasParent := tree.Parent(id)
		if hasParent {
			if e.Upstream != p {
				t.Fatalf("node %d upstream = %d, composed parent = %d", v, e.Upstream, p)
			}
		} else if e.Upstream != netsim.NoUpstream {
			t.Fatalf("root %d has upstream %d", v, e.Upstream)
		}
		want := map[topology.NodeID]bool{}
		for _, c := range tree.Children(id) {
			want[c] = true
		}
		for _, d := range e.Downstream {
			if !want[d] {
				t.Fatalf("node %d has stale downstream %d", v, d)
			}
			delete(want, d)
		}
		if len(want) != 0 {
			t.Fatalf("node %d missing downstream %v", v, want)
		}
	}
}

// TestHierCoreMultiDomainDelivery drives joins across several domains
// through the per-domain m-router runtime and checks that the installed
// forwarding state converges to the composed tree and delivers data
// exactly once from on-tree, off-tree and core sources.
func TestHierCoreMultiDomainDelivery(t *testing.T) {
	n, s, view := hierNet(t, smallTS(), 7, Config{Kappa: 2})
	g := view.Graph()
	// One member per stub attached to transit domain 0 and 1, plus a
	// couple of transit-domain members, plus each of two local
	// m-routers as their own DR.
	members := []topology.NodeID{}
	seenDom := map[int]bool{}
	for v := g.N() - 1; v >= 0 && len(members) < 8; v-- {
		d := view.Domain(topology.NodeID(v))
		if d >= 3 && !seenDom[d] { // stub domains only, one member each
			seenDom[d] = true
			members = append(members, topology.NodeID(v))
		}
	}
	members = append(members, s.cfg.DomainMRouters[4], s.cfg.DomainMRouters[6])
	for _, m := range members {
		n.HostJoin(m, grp)
		n.Run()
	}
	requireInstalledMatchesComposed(t, s, grp)
	comp := s.GroupComposer(grp)
	if comp == nil || comp.Tree().MemberCount() != len(members) {
		t.Fatalf("composer members = %d, want %d", comp.Tree().MemberCount(), len(members))
	}
	if comp.ActiveDomains() < 3 {
		t.Fatalf("only %d active domains across a multi-domain member set", comp.ActiveDomains())
	}
	// Core m-router source, member source, and an off-tree source that
	// must encapsulate to the core.
	sources := []topology.NodeID{s.HomeOf(grp), members[0]}
	for v := 0; v < g.N(); v++ {
		if !comp.Tree().OnTree(topology.NodeID(v)) {
			sources = append(sources, topology.NodeID(v))
			break
		}
	}
	for _, src := range sources {
		seq := n.SendData(src, grp, 1000)
		n.Run()
		missing, anomalous := n.CheckDelivery(seq)
		if len(missing) != 0 || len(anomalous) != 0 {
			t.Fatalf("src %d: missing=%v anomalous=%v", src, missing, anomalous)
		}
	}
	if n.Metrics.Crossings(packet.EncapData) == 0 {
		t.Fatal("off-tree source should have encapsulated to the core m-router")
	}
}

// TestHierCoreControlLocality compares the control-plane cost of the
// same join set under flat and hierarchical service: hierarchical JOINs
// terminate at the member's local m-router, so their total link
// crossings must be strictly below flat's JOINs to the core, with the
// difference made up by at most one GRAFT per activated domain.
func TestHierCoreControlLocality(t *testing.T) {
	cfg := smallTS()
	const seed = 21
	nh, sh, view := hierNet(t, cfg, seed, Config{Kappa: 2})
	g, info, err := topology.TransitStub(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("TransitStub: %v", err)
	}
	_ = info
	nf, _ := newNet(g, Config{MRouter: sh.HomeOf(grp), Kappa: 2})
	members := []topology.NodeID{}
	for v := g.N() - 1; v >= 0 && len(members) < 12; v -= 7 {
		if view.Domain(topology.NodeID(v)) >= 3 {
			members = append(members, topology.NodeID(v))
		}
	}
	for _, m := range members {
		nh.HostJoin(m, grp)
		nf.HostJoin(m, grp)
	}
	nh.Run()
	nf.Run()
	hierJoins := nh.Metrics.Crossings(packet.Join)
	flatJoins := nf.Metrics.Crossings(packet.Join)
	if hierJoins >= flatJoins {
		t.Fatalf("hier JOIN crossings %d not below flat %d: no locality win", hierJoins, flatJoins)
	}
	grafts := nh.Metrics.Crossings(packet.Graft)
	if grafts == 0 {
		t.Fatal("multi-domain joins should have sent border GRAFTs")
	}
	if comp := sh.GroupComposer(grp); comp != nil {
		// At most one graft per activated non-core domain reached the wire.
		if per := int(grafts); per > 0 && comp.ActiveDomains() == 0 {
			t.Fatalf("grafts %d with no active domains", per)
		}
	}
	if nf.Metrics.Crossings(packet.Graft) != 0 {
		t.Fatal("flat mode must never send GRAFT")
	}
}

// TestHierCoreSingleDomainDegeneratesToFlat is the core-level k=1 arm
// of the differential gate: a one-domain hierarchical configuration
// must run the flat code path and produce byte-identical wire traffic
// and routing state.
func TestHierCoreSingleDomainDegeneratesToFlat(t *testing.T) {
	type hop struct {
		kind     packet.Kind
		from, to topology.NodeID
		size     int
	}
	run := func(cfg Config) ([]hop, *SCMP, *netsim.Network) {
		s := New(cfg)
		n := netsim.New(railGraph(), s)
		var log []hop
		n.Trace = func(from, to topology.NodeID, pkt *netsim.Packet) {
			log = append(log, hop{pkt.Kind, from, to, pkt.Size})
		}
		for _, m := range []topology.NodeID{4, 1, 2} {
			n.HostJoin(m, grp)
			n.Run()
		}
		n.HostLeave(1, grp)
		n.Run()
		n.SendData(3, grp, 900)
		n.Run()
		return log, s, n
	}
	flatLog, fs, _ := run(Config{MRouter: 0})
	hierLog, hs, _ := run(Config{Domains: make([]int, 5), DomainMRouters: []topology.NodeID{0}})
	if hs.hierarchical() {
		t.Fatal("single-domain configuration should degenerate to the flat engine")
	}
	if len(flatLog) != len(hierLog) {
		t.Fatalf("trace lengths differ: flat %d, hier-k1 %d", len(flatLog), len(hierLog))
	}
	for i := range flatLog {
		if flatLog[i] != hierLog[i] {
			t.Fatalf("trace diverges at %d: flat %+v, hier-k1 %+v", i, flatLog[i], hierLog[i])
		}
	}
	for v := topology.NodeID(0); v < 5; v++ {
		fe, fok := fs.Entry(v, grp)
		he, hok := hs.Entry(v, grp)
		if fok != hok || fe.OnTree != he.OnTree || fe.Upstream != he.Upstream || fe.HasLocal != he.HasLocal {
			t.Fatalf("node %d entry differs: flat %+v, hier-k1 %+v", v, fe, he)
		}
	}
}

// TestHierCoreChurnConverges runs a randomized join/leave churn through
// the hierarchical runtime — including domain deactivation and
// reactivation — with soft-state refresh on, then drains and checks the
// installed state converged to the composed tree and still delivers
// exactly once.
func TestHierCoreChurnConverges(t *testing.T) {
	n, s, view := hierNet(t, smallTS(), 33, Config{Kappa: 2, RefreshInterval: 50, RefreshSuppress: true})
	g := view.Graph()
	r := rand.New(rand.NewSource(99))
	var pool []topology.NodeID
	for v := 0; v < g.N(); v++ {
		if view.Domain(topology.NodeID(v)) >= 3 {
			pool = append(pool, topology.NodeID(v))
		}
	}
	in := map[topology.NodeID]bool{}
	for step := 0; step < 300; step++ {
		m := pool[r.Intn(len(pool))]
		if in[m] {
			delete(in, m)
			n.HostLeave(m, grp)
		} else {
			in[m] = true
			n.HostJoin(m, grp)
		}
		if step%17 == 0 {
			n.RunUntil(n.Now() + 10)
		}
	}
	// Make sure at least one member remains, then drain fully: quiesce
	// the refresh timers so Run can terminate, after one final refresh
	// window has had the chance to heal any churn transient.
	if len(in) == 0 {
		m := pool[0]
		in[m] = true
		n.HostJoin(m, grp)
	}
	n.RunUntil(n.Now() + 200)
	s.Quiesce()
	n.Run()
	comp := s.GroupComposer(grp)
	if comp.Tree().MemberCount() != len(in) {
		t.Fatalf("composer members = %d, want %d", comp.Tree().MemberCount(), len(in))
	}
	requireInstalledMatchesComposed(t, s, grp)
	seq := n.SendData(s.HomeOf(grp), grp, 1000)
	n.Run()
	missing, anomalous := n.CheckDelivery(seq)
	if len(missing) != 0 || len(anomalous) != 0 {
		t.Fatalf("missing=%v anomalous=%v", missing, anomalous)
	}
}

// TestHierCoreDomainDeactivation checks the domain lifecycle through
// the runtime: activating a domain sends its splice once, draining it
// releases the composer's local engine and the network prunes the
// branch, and a re-join re-activates cleanly.
func TestHierCoreDomainDeactivation(t *testing.T) {
	n, s, view := hierNet(t, smallTS(), 5, Config{Kappa: 2})
	g := view.Graph()
	// Two members of one far stub domain.
	var dom int
	var ms []topology.NodeID
	for v := g.N() - 1; v >= 0; v-- {
		d := view.Domain(topology.NodeID(v))
		if d >= 3 {
			if dom == 0 {
				dom = d
			}
			if d == dom {
				ms = append(ms, topology.NodeID(v))
				if len(ms) == 2 {
					break
				}
			}
		}
	}
	for _, m := range ms {
		n.HostJoin(m, grp)
		n.Run()
	}
	comp := s.GroupComposer(grp)
	if _, active := comp.DomainAnchor(dom); !active {
		t.Fatalf("domain %d should be active", dom)
	}
	base := comp.ActiveDomains()
	for _, m := range ms {
		n.HostLeave(m, grp)
		n.Run()
	}
	if _, active := comp.DomainAnchor(dom); active {
		t.Fatalf("domain %d should have deactivated after its last leave", dom)
	}
	if comp.ActiveDomains() >= base {
		t.Fatalf("active domains %d did not drop from %d", comp.ActiveDomains(), base)
	}
	requireInstalledMatchesComposed(t, s, grp)
	// Reactivate and verify delivery end-to-end.
	n.HostJoin(ms[0], grp)
	n.Run()
	if _, active := comp.DomainAnchor(dom); !active {
		t.Fatalf("domain %d should have reactivated", dom)
	}
	seq := n.SendData(s.HomeOf(grp), grp, 800)
	n.Run()
	missing, anomalous := n.CheckDelivery(seq)
	if len(missing) != 0 || len(anomalous) != 0 {
		t.Fatalf("missing=%v anomalous=%v", missing, anomalous)
	}
}
