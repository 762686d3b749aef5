package experiment

import (
	"sort"

	"scmp/internal/netsim"
	"scmp/internal/rng"
	"scmp/internal/runner"
	"scmp/internal/topology"
)

// Artifact caches: the small immutable inputs of a shard — graphs and
// center placements — keyed by the exact parameters that determine
// them. Studies that run on the same instances (fig89, faults and churn
// on the Fig. 8/9 topologies; state and concentration on the scaled
// random graphs) share them read-only across workers instead of
// rebuilding them per shard. Nothing downstream mutates a Graph after
// construction, which is what makes the sharing safe.
//
// Routing tables are not cached: a table is many times its graph, and a
// process-wide cache kept every table the process ever built alive,
// which set the GC goal of every later study (DESIGN.md §6,
// "Lifetimes"). A shard that needs tables builds them (shardTables) and
// drops them when it returns; a shard that simulates reuses one
// network (shardNet).
//
// Topology construction must not share an rng stream with anything else
// (member picks, source picks): a cache hit skips the build, so a shared
// stream would shift every later draw and the run would depend on cache
// state. Every builder below derives its own stream from the seed.

// fig89Key identifies one Fig. 8/9 evaluation topology instance.
type fig89Key struct {
	name string
	seed int64
}

// fig89Artifact is the per-(topology, seed) state shared by all four
// protocols: the graph and the shared m-router / CBT core placement.
type fig89Artifact struct {
	g      *topology.Graph
	center topology.NodeID
}

var fig89Artifacts runner.Cache[fig89Key, *fig89Artifact]

func fig89ArtifactFor(name string, seed int64) *fig89Artifact {
	return fig89Artifacts.Get(fig89Key{name, seed}, func() *fig89Artifact {
		g := BuildTopology(name, seed)
		return &fig89Artifact{g: g, center: Center(g)}
	})
}

// randomKey identifies one scaled flat-random instance (the state and
// concentration studies' substrate).
type randomKey struct {
	nodes  int
	degree float64
	seed   int64
}

// randomArtifact is a scaled random graph plus its four best centers,
// ranked by average shortest delay (rankedCenters order: centers[0] is
// Center(g)).
type randomArtifact struct {
	g       *topology.Graph
	centers []topology.NodeID
}

var randomArtifacts runner.Cache[randomKey, *randomArtifact]

func randomArtifactFor(nodes int, degree float64, seed int64) *randomArtifact {
	return randomArtifacts.Get(randomKey{nodes, degree, seed}, func() *randomArtifact {
		g, err := topology.Random(topology.DefaultRandom(nodes, degree), rng.New(seed))
		if err != nil {
			panic(err)
		}
		g = g.ScaleDelays(1e-3)
		return &randomArtifact{g: g, centers: rankedCenters(g, 4)}
	})
}

// rankedCenters returns the k nodes with the smallest average
// shortest-delay to all others, best first, exact ties by lower id. One
// scratch row serves every source, as in Graph.Diameter.
func rankedCenters(g *topology.Graph, k int) []topology.NodeID {
	type scored struct {
		v   topology.NodeID
		avg float64
	}
	all := make([]scored, g.N())
	var sp topology.Paths
	for u := range all {
		g.ShortestInto(&sp, topology.NodeID(u), topology.ByDelay)
		sum := 0.0
		for _, d := range sp.Delay {
			sum += d
		}
		all[u] = scored{topology.NodeID(u), sum / float64(g.N())}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].avg != all[j].avg {
			return all[i].avg < all[j].avg
		}
		return all[i].v < all[j].v
	})
	out := make([]topology.NodeID, k)
	for i := range out {
		out[i] = all[i].v
	}
	return out
}

// waxmanGraph builds the Waxman instance of seed from its own rng
// stream: Fig. 7 and the placement study run on the same instances.
func waxmanGraph(wcfg topology.WaxmanConfig, seed int) *topology.Graph {
	wg, err := topology.Waxman(wcfg, rng.New(int64(seed)))
	if err != nil {
		panic(err)
	}
	return wg.Graph
}

// shardTables returns the shortest-delay and least-cost tables over g
// that the tree algorithms read, for one shard's own use. The shard is
// their one writer, so they fill lazily, row by row as first read; a
// row is a pure function of (graph, weight), so the trees match those
// an eager table gives.
func shardTables(g *topology.Graph) (spDelay, spCost *topology.AllPairs) {
	return topology.NewLazyAllPairs(g, topology.ByDelay), topology.NewLazyAllPairs(g, topology.ByCost)
}

// shardNet is the one network of a shard's simulation runs: start
// builds it for the first run and resets it (netsim.Network.Reset) for
// each later one, so the runs reuse its scheduler slab, packet pool,
// lanes and routing rows instead of rebuilding them.
type shardNet struct{ n *netsim.Network }

// start returns the shard's network over g, running proto from time 0.
func (s *shardNet) start(g *topology.Graph, proto netsim.Protocol) *netsim.Network {
	if s.n == nil {
		s.n = netsim.New(g, proto)
	} else {
		s.n.Reset(proto)
	}
	return s.n
}
