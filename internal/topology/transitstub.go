package topology

import (
	"fmt"

	"scmp/internal/rng"
)

// TransitStubConfig parameterises a GT-ITM-style transit-stub topology —
// the hierarchical model of the generator the paper draws its random
// topologies from. A connected backbone of transit domains is built
// first; each transit node then anchors a number of stub domains.
// Link attributes reflect the hierarchy: backbone links are long
// (costly), intra-stub links short, with delay uniform in (0, cost] as
// in the flat generators.
type TransitStubConfig struct {
	TransitDomains      int // e.g. 4
	TransitSize         int // nodes per transit domain, e.g. 4
	StubsPerTransitNode int // stub domains hanging off each transit node
	StubSize            int // nodes per stub domain
	// EdgeProb is the probability of each optional extra intra-domain
	// edge beyond the spanning tree (default 0.4).
	EdgeProb float64
}

// DefaultTransitStub returns a ~100-node configuration
// (4 transit domains x 4 nodes, 2 stubs/node x 3 nodes = 112 nodes).
func DefaultTransitStub() TransitStubConfig {
	return TransitStubConfig{
		TransitDomains:      4,
		TransitSize:         4,
		StubsPerTransitNode: 2,
		StubSize:            3,
		EdgeProb:            0.4,
	}
}

// NodeRole classifies a node in a transit-stub topology.
type NodeRole int

const (
	RoleTransit NodeRole = iota
	RoleStub
)

// TransitStubInfo describes the hierarchy of a generated topology.
type TransitStubInfo struct {
	Roles []NodeRole
	// Domain[v] identifies v's domain: transit domains are numbered
	// 0..TransitDomains-1, stub domains continue from there.
	Domain []int
	// Attachment[v] is the transit node a stub node's domain hangs off
	// (-1 for transit nodes).
	Attachment []NodeID
}

// cost bands per link level.
const (
	tsInterTransitCost = 100.0
	tsIntraTransitCost = 20.0
	tsTransitStubCost  = 10.0
	tsIntraStubCost    = 1.0
	tsCostSpread       = 2.0 // each band spans [base, base*spread)
)

// TransitStub generates a connected transit-stub topology.
func TransitStub(cfg TransitStubConfig, rng *rng.Rand) (*Graph, *TransitStubInfo, error) {
	if cfg.TransitDomains < 1 || cfg.TransitSize < 1 || cfg.StubsPerTransitNode < 0 || cfg.StubSize < 1 {
		return nil, nil, fmt.Errorf("topology: degenerate transit-stub config %+v", cfg)
	}
	if cfg.EdgeProb <= 0 {
		cfg.EdgeProb = 0.4
	}
	transitN := cfg.TransitDomains * cfg.TransitSize
	stubDomains := transitN * cfg.StubsPerTransitNode
	total := transitN + stubDomains*cfg.StubSize
	g := New(total)
	info := &TransitStubInfo{
		Roles:      make([]NodeRole, total),
		Domain:     make([]int, total),
		Attachment: make([]NodeID, total),
	}
	for i := range info.Attachment {
		info.Attachment[i] = -1
	}
	edge := func(u, v NodeID, base float64) {
		cost := base * (1 + rng.Float64()*(tsCostSpread-1))
		delay := rng.Float64() * cost
		if delay <= 0 {
			delay = cost / 2
		}
		if !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, delay, cost)
		}
	}

	// Transit domains: random spanning tree + extra edges inside each.
	domainNodes := func(d int) []NodeID {
		out := make([]NodeID, cfg.TransitSize)
		for i := range out {
			out[i] = NodeID(d*cfg.TransitSize + i)
		}
		return out
	}
	for d := 0; d < cfg.TransitDomains; d++ {
		nodes := domainNodes(d)
		for _, v := range nodes {
			info.Roles[v] = RoleTransit
			info.Domain[v] = d
		}
		buildDomain(g, nodes, cfg.EdgeProb, tsIntraTransitCost, rng, edge)
	}
	// Backbone: connect the transit domains in a random tree plus a few
	// extra inter-domain links.
	perm := rng.Perm(cfg.TransitDomains)
	for i := 1; i < cfg.TransitDomains; i++ {
		a := domainNodes(perm[i])[rng.Intn(cfg.TransitSize)]
		b := domainNodes(perm[rng.Intn(i)])[rng.Intn(cfg.TransitSize)]
		edge(a, b, tsInterTransitCost)
	}
	for d := 0; d < cfg.TransitDomains; d++ {
		if rng.Float64() < cfg.EdgeProb && cfg.TransitDomains > 1 {
			other := (d + 1 + rng.Intn(cfg.TransitDomains-1)) % cfg.TransitDomains
			a := domainNodes(d)[rng.Intn(cfg.TransitSize)]
			b := domainNodes(other)[rng.Intn(cfg.TransitSize)]
			if !g.HasEdge(a, b) {
				edge(a, b, tsInterTransitCost)
			}
		}
	}

	// Stub domains.
	next := NodeID(transitN)
	domainID := cfg.TransitDomains
	for t := 0; t < transitN; t++ {
		for sdom := 0; sdom < cfg.StubsPerTransitNode; sdom++ {
			nodes := make([]NodeID, cfg.StubSize)
			for i := range nodes {
				nodes[i] = next
				info.Roles[next] = RoleStub
				info.Domain[next] = domainID
				info.Attachment[next] = NodeID(t)
				next++
			}
			buildDomain(g, nodes, cfg.EdgeProb, tsIntraStubCost, rng, edge)
			// Anchor the stub domain to its transit node.
			gateway := nodes[rng.Intn(len(nodes))]
			edge(gateway, NodeID(t), tsTransitStubCost)
			domainID++
		}
	}
	return g, info, nil
}

// buildDomain wires nodes into a connected random subgraph: a random
// spanning tree plus Bernoulli(extraProb) extra edges.
func buildDomain(g *Graph, nodes []NodeID, extraProb, baseCost float64,
	rng *rng.Rand, edge func(u, v NodeID, base float64)) {

	if len(nodes) == 1 {
		return
	}
	perm := rng.Perm(len(nodes))
	for i := 1; i < len(nodes); i++ {
		edge(nodes[perm[i]], nodes[perm[rng.Intn(i)]], baseCost)
	}
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			if !g.HasEdge(nodes[i], nodes[j]) && rng.Float64() < extraProb/float64(len(nodes)) {
				edge(nodes[i], nodes[j], baseCost)
			}
		}
	}
}
