package topology

import "fmt"

// DomainView is the hierarchical decomposition of a graph into routing
// domains (DESIGN.md §15): a node→domain labelling (typically
// TransitStubInfo.Domain, or any connected partition), per-domain
// induced subgraphs with their own lazy all-pairs tables, and a
// contracted backbone "domain graph" whose nodes are domains and whose
// edges are the minimum-delay border links between them. The view is
// what lets the hierarchical SCMP mode keep routing state O(domain
// size + backbone) instead of materialising a global O(n²) table.
//
// Per-domain subgraphs materialise on first use, and every all-pairs
// table is lazy with one writer (see AllPairs), so a view belongs to
// one goroutine.
type DomainView struct {
	g      *Graph
	domain []int32 // node -> domain id, dense 0..k-1
	k      int
	nodes  [][]NodeID   // domain -> member nodes, ascending
	local  []int32      // node -> index within nodes[domain[node]]
	subs   []*DomainSub // domain -> sub, nil until first use

	bb      *Graph                // contracted backbone: one node per domain
	border  map[uint64]BorderLink // directed (from<<32|to) -> chosen border link
	bbDelay *AllPairs             // lazy all-pairs over bb, by delay
}

// BorderLink is the physical link a contracted backbone edge stands
// for: the minimum-delay link between two domains, ties broken on the
// (delay, cost, lower endpoint, higher endpoint) ladder so the choice
// is a pure function of the graph and the labelling.
type BorderLink struct {
	From, To NodeID // exit node in the source domain, entry node in the destination domain
	Delay    float64
	Cost     float64
}

// NewDomainView builds the domain view for g under the given labelling.
// Labels must be dense (every domain 0..max occupied) and every domain
// must induce a connected subgraph — a disconnected domain cannot host
// a single m-router that reaches its members intra-domain, so the
// constructor rejects it with a clear error rather than producing a
// view that fails deep inside tree construction.
func NewDomainView(g *Graph, domain []int) (*DomainView, error) {
	n := g.N()
	if len(domain) != n {
		return nil, fmt.Errorf("topology: domain labelling has %d entries for %d nodes", len(domain), n)
	}
	k := 0
	for v, d := range domain {
		if d < 0 {
			return nil, fmt.Errorf("topology: node %d has negative domain label %d", v, d)
		}
		if d+1 > k {
			k = d + 1
		}
	}
	if n == 0 || k == 0 {
		return nil, fmt.Errorf("topology: empty graph has no domains")
	}
	dv := &DomainView{
		g:      g,
		domain: make([]int32, n),
		k:      k,
		nodes:  make([][]NodeID, k),
		local:  make([]int32, n),
		subs:   make([]*DomainSub, k),
		border: make(map[uint64]BorderLink),
	}
	for v := 0; v < n; v++ {
		d := domain[v]
		dv.domain[v] = int32(d)
		dv.local[v] = int32(len(dv.nodes[d]))
		dv.nodes[d] = append(dv.nodes[d], NodeID(v))
	}
	for d := 0; d < k; d++ {
		if len(dv.nodes[d]) == 0 {
			return nil, fmt.Errorf("topology: domain %d is empty (labels must be dense 0..%d)", d, k-1)
		}
	}
	if err := dv.checkDomainsConnected(); err != nil {
		return nil, err
	}
	dv.buildBackbone()
	if k > 1 && !dv.bb.Connected() {
		return nil, fmt.Errorf("topology: backbone domain graph is disconnected (%d domains)", k)
	}
	dv.bbDelay = NewLazyAllPairs(dv.bb, ByDelay)
	return dv, nil
}

// checkDomainsConnected runs one label-restricted BFS per domain over
// the original graph — O(n+m) total — and names the first offender.
func (dv *DomainView) checkDomainsConnected() error {
	c := dv.g.CSR()
	seen := make([]bool, dv.g.N())
	queue := make([]NodeID, 0, 64)
	for d := 0; d < dv.k; d++ {
		start := dv.nodes[d][0]
		seen[start] = true
		queue = append(queue[:0], start)
		reached := 1
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			lo, hi := c.Row(u)
			for a := lo; a < hi; a++ {
				v := c.ArcDst(a)
				if !seen[v] && dv.domain[v] == int32(d) {
					seen[v] = true
					reached++
					queue = append(queue, v)
				}
			}
		}
		if reached != len(dv.nodes[d]) {
			return fmt.Errorf("topology: domain %d induces a disconnected subgraph (%d of %d nodes reachable from node %d)",
				d, reached, len(dv.nodes[d]), start)
		}
	}
	return nil
}

// buildBackbone contracts each domain to one node and keeps, per domain
// pair, the minimum-delay border link under the (delay, cost, u, v)
// ladder. Scanning arcs only from the lower-numbered domain side makes
// the directed (a,b) and (b,a) entries two views of the same physical
// link, so backbone paths realise symmetrically.
func (dv *DomainView) buildBackbone() {
	c := dv.g.CSR()
	n := dv.g.N()
	for u := 0; u < n; u++ {
		du := dv.domain[u]
		lo, hi := c.Row(NodeID(u))
		for a := lo; a < hi; a++ {
			v := c.ArcDst(a)
			dvv := dv.domain[v]
			if du >= dvv {
				continue // visit each unordered pair from the lower domain only
			}
			key := uint64(du)<<32 | uint64(dvv)
			cand := BorderLink{From: NodeID(u), To: v, Delay: c.ArcDelay(a), Cost: c.ArcCost(a)}
			cur, ok := dv.border[key]
			if !ok || borderLess(cand, cur) {
				dv.border[key] = cand
			}
		}
	}
	bb := New(dv.k)
	for d := 0; d < dv.k; d++ {
		for e := d + 1; e < dv.k; e++ {
			key := uint64(d)<<32 | uint64(e)
			bl, ok := dv.border[key]
			if !ok {
				continue
			}
			bb.MustAddEdge(NodeID(d), NodeID(e), bl.Delay, bl.Cost)
			// Mirror entry for the reverse direction.
			dv.border[uint64(e)<<32|uint64(d)] = BorderLink{From: bl.To, To: bl.From, Delay: bl.Delay, Cost: bl.Cost}
		}
	}
	dv.bb = bb
}

func borderLess(a, b BorderLink) bool {
	if a.Delay != b.Delay {
		return a.Delay < b.Delay
	}
	if a.Cost != b.Cost {
		return a.Cost < b.Cost
	}
	if a.From != b.From {
		return a.From < b.From
	}
	return a.To < b.To
}

// Graph returns the underlying flat graph.
func (dv *DomainView) Graph() *Graph { return dv.g }

// K returns the number of domains.
func (dv *DomainView) K() int { return dv.k }

// Domain returns v's domain id.
func (dv *DomainView) Domain(v NodeID) int { return int(dv.domain[v]) }

// NodesOf returns domain d's nodes in ascending id order. The slice is
// shared — callers must not mutate it.
func (dv *DomainView) NodesOf(d int) []NodeID { return dv.nodes[d] }

// BackboneDelay returns the lazy all-pairs (by delay) table over the
// backbone graph; rows materialise per consulted source domain.
func (dv *DomainView) BackboneDelay() *AllPairs { return dv.bbDelay }

// Border returns the physical border link realising the backbone edge
// from domain `from` to domain `to` (From lies in `from`, To in `to`).
func (dv *DomainView) Border(from, to int) (BorderLink, bool) {
	bl, ok := dv.border[uint64(from)<<32|uint64(to)]
	return bl, ok
}

// MRouters returns the default m-router placement: the lowest-id node
// of each domain (deterministic, and for transit-stub labellings the
// first-generated — typically best-connected — node of the domain).
func (dv *DomainView) MRouters() []NodeID {
	out := make([]NodeID, dv.k)
	for d := 0; d < dv.k; d++ {
		out[d] = dv.nodes[d][0]
	}
	return out
}

// Sub returns domain d's induced subgraph view, building it on first
// use. For a single-domain view the sub shares the original graph (and
// the identity node mapping), which is what makes the k=1 hierarchical
// mode byte-identical to the flat engine: every local computation runs
// on exactly the flat inputs.
func (dv *DomainView) Sub(d int) *DomainSub {
	if dv.subs[d] == nil {
		dv.subs[d] = dv.buildSub(d)
	}
	return dv.subs[d]
}

func (dv *DomainView) buildSub(d int) *DomainSub {
	nodes := dv.nodes[d]
	var sg *Graph
	if dv.k == 1 {
		sg = dv.g
	} else {
		sg = New(len(nodes))
		c := dv.g.CSR()
		for li, u := range nodes {
			lo, hi := c.Row(u)
			for a := lo; a < hi; a++ {
				v := c.ArcDst(a)
				if dv.domain[v] == int32(d) && u < v {
					sg.MustAddEdge(NodeID(li), NodeID(dv.local[v]), c.ArcDelay(a), c.ArcCost(a))
				}
			}
		}
	}
	return &DomainSub{
		view:   dv,
		Domain: d,
		G:      sg,
		Nodes:  nodes,
		spd:    NewLazyAllPairs(sg, ByDelay),
		spc:    NewLazyAllPairs(sg, ByCost),
	}
}

// DomainSub is one domain's induced subgraph with local node ids
// 0..len(Nodes)-1 (ascending global-id order) and lazy per-domain
// all-pairs tables. Nodes maps local→global; Local maps back.
type DomainSub struct {
	view   *DomainView
	Domain int
	G      *Graph
	Nodes  []NodeID // local -> global, ascending
	spd    *AllPairs
	spc    *AllPairs
}

// Local translates a global node id (which must lie in this domain)
// to its local id.
func (s *DomainSub) Local(v NodeID) NodeID {
	if s.view.domain[v] != int32(s.Domain) {
		panic(fmt.Sprintf("topology: node %d is in domain %d, not %d", v, s.view.domain[v], s.Domain))
	}
	return NodeID(s.view.local[v])
}

// Global translates a local node id back to the global id.
func (s *DomainSub) Global(l NodeID) NodeID { return s.Nodes[l] }

// GlobalPath translates a local path in place-order to global ids
// (fresh slice; the input is not modified).
func (s *DomainSub) GlobalPath(lp []NodeID) []NodeID {
	out := make([]NodeID, len(lp))
	for i, l := range lp {
		out[i] = s.Nodes[l]
	}
	return out
}

// Delay returns the lazy all-pairs-by-delay table over the domain
// subgraph (local ids).
func (s *DomainSub) Delay() *AllPairs { return s.spd }

// Cost returns the lazy all-pairs-by-cost table over the domain
// subgraph (local ids).
func (s *DomainSub) Cost() *AllPairs { return s.spc }

// TableBytes sums the resident routing-table bytes across every
// materialised per-domain table plus the backbone table — the "peak
// routing-table memory" metric of the domains experiment. Unbuilt subs
// and unmaterialised lazy rows cost nothing, which is the point: the
// hierarchical mode's resident state must stay sublinear in total node
// count.
func (dv *DomainView) TableBytes() int64 {
	total := dv.bbDelay.MemoryBytes()
	for d := 0; d < dv.k; d++ {
		if s := dv.subs[d]; s != nil {
			total += s.spd.MemoryBytes() + s.spc.MemoryBytes()
		}
	}
	return total
}
