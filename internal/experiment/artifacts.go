package experiment

import (
	"sort"

	"scmp/internal/rng"
	"scmp/internal/runner"
	"scmp/internal/topology"
)

// Artifact caches: the expensive immutable inputs of a shard — graphs,
// center placements and all-pairs shortest-path tables — keyed by the
// exact parameters that determine them. Workers on different goroutines
// (and repeated Run* calls: fig8 and fig9 rebuild the same instances)
// share them read-only instead of recomputing per protocol run. Nothing
// downstream mutates a Graph or AllPairs after construction, which is
// what makes the sharing safe.
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

// waxmanKey identifies one Waxman instance plus its routing tables.
type waxmanKey struct {
	cfg  topology.WaxmanConfig
	seed int64
}

// treeArtifact bundles a graph with the all-pairs tables the tree
// algorithms consume.
type treeArtifact struct {
	g       *topology.Graph
	spDelay *topology.AllPairs
	spCost  *topology.AllPairs
}

var waxmanArtifacts runner.Cache[waxmanKey, *treeArtifact]

func waxmanArtifactFor(wcfg topology.WaxmanConfig, seed int64) *treeArtifact {
	return waxmanArtifacts.Get(waxmanKey{wcfg, seed}, func() *treeArtifact {
		wg, err := topology.Waxman(wcfg, rng.New(seed))
		if err != nil {
			panic(err)
		}
		return newTreeArtifact(wg.Graph)
	})
}

// familyKey identifies one fig7x topology-family instance.
type familyKey struct {
	family string
	seed   int64
}

var familyArtifacts runner.Cache[familyKey, *treeArtifact]

func familyArtifactFor(family string, seed int64) *treeArtifact {
	return familyArtifacts.Get(familyKey{family, seed}, func() *treeArtifact {
		return newTreeArtifact(buildFamily(family, seed))
	})
}

func newTreeArtifact(g *topology.Graph) *treeArtifact {
	return &treeArtifact{
		g:       g,
		spDelay: topology.NewAllPairs(g, topology.ByDelay),
		spCost:  topology.NewAllPairs(g, topology.ByCost),
	}
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
// engine and one scratch row serve every source, as in Graph.Diameter.
func rankedCenters(g *topology.Graph, k int) []topology.NodeID {
	type scored struct {
		v   topology.NodeID
		avg float64
	}
	all := make([]scored, g.N())
	e := topology.NewEngine(g)
	var sp topology.Paths
	for u := range all {
		e.ShortestInto(&sp, topology.NodeID(u), topology.ByDelay, nil)
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
