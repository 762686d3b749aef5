// Command topogen generates the evaluation topologies and prints them as
// Graphviz DOT or a plain edge list:
//
//	topogen -kind waxman -n 100 -seed 1            # paper's Fig. 7 model
//	topogen -kind random -n 50 -degree 3 -seed 2   # GT-ITM-style flat random
//	topogen -kind arpanet                          # fixed ARPANET map
//	topogen -kind waxman -format edges             # "u v delay cost" lines
//
// Transit-stub topologies take their own dimension flags (the -n knob
// belongs to the flat generators and is rejected here — no silent
// reinterpretation) and can reach the 10k+ node scale of the
// hierarchical-mode experiments; the edge list then carries the domain
// labelling as "# domain <node> <domain> <transit|stub>" comment lines:
//
//	topogen -kind transitstub -transit-domains 5 -transit-size 8 \
//	        -stubs 3 -stub-size 83 -format edges   # 10000 nodes, labelled
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"scmp/internal/rng"
	"scmp/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "topogen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("topogen", flag.ContinueOnError)
	kind := fs.String("kind", "waxman", "waxman | random | arpanet | transitstub")
	n := fs.Int("n", 100, "node count (waxman, random)")
	alpha := fs.Float64("alpha", 0.25, "Waxman alpha")
	beta := fs.Float64("beta", 0.2, "Waxman beta")
	degree := fs.Float64("degree", 3, "target average degree (random)")
	transitDomains := fs.Int("transit-domains", 4, "transit domain count (transitstub)")
	transitSize := fs.Int("transit-size", 4, "nodes per transit domain (transitstub)")
	stubs := fs.Int("stubs", 2, "stub domains per transit node (transitstub)")
	stubSize := fs.Int("stub-size", 3, "nodes per stub domain (transitstub)")
	edgeProb := fs.Float64("edge-prob", 0.4, "extra intra-domain edge probability in (0,1] (transitstub)")
	seed := fs.Int64("seed", 1, "random seed")
	format := fs.String("format", "dot", "dot | edges")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Reject flags the selected kind would silently ignore: a 10k-node
	// request must produce a 10k-node graph or an error, never a
	// default-sized graph with the knob dropped on the floor. Visit goes
	// in lexical order, so the first such flag is the one reported.
	perKind := map[string]string{
		"n": "waxman|random", "degree": "random", "alpha": "waxman", "beta": "waxman",
		"transit-domains": "transitstub", "transit-size": "transitstub",
		"stubs": "transitstub", "stub-size": "transitstub", "edge-prob": "transitstub",
	}
	var misplaced error
	fs.Visit(func(f *flag.Flag) {
		kinds, ok := perKind[f.Name]
		if ok && misplaced == nil && !slices.Contains(strings.Split(kinds, "|"), *kind) {
			misplaced = fmt.Errorf("-%s applies to kind %s, not %q", f.Name, kinds, *kind)
		}
	})
	if misplaced != nil {
		return misplaced
	}

	var g *topology.Graph
	var info *topology.TransitStubInfo
	switch *kind {
	case "waxman":
		cfg := topology.WaxmanConfig{N: *n, Alpha: *alpha, Beta: *beta, GridSize: 32767, Connect: true}
		wg, err := topology.Waxman(cfg, rng.New(*seed))
		if err != nil {
			return err
		}
		g = wg.Graph
	case "random":
		rg, err := topology.Random(topology.DefaultRandom(*n, *degree), rng.New(*seed))
		if err != nil {
			return err
		}
		g = rg
	case "arpanet":
		g = topology.Arpanet()
	case "transitstub":
		if *edgeProb <= 0 || *edgeProb > 1 {
			return fmt.Errorf("-edge-prob %g outside (0,1]", *edgeProb)
		}
		cfg := topology.TransitStubConfig{
			TransitDomains:      *transitDomains,
			TransitSize:         *transitSize,
			StubsPerTransitNode: *stubs,
			StubSize:            *stubSize,
			EdgeProb:            *edgeProb,
		}
		var err error
		g, info, err = topology.TransitStub(cfg, rng.New(*seed))
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}

	w := bufio.NewWriter(stdout)
	defer w.Flush()
	switch *format {
	case "dot":
		return topology.WriteDOT(w, g, *kind, nil)
	case "edges":
		fmt.Fprintf(w, "# %s n=%d m=%d avg_degree=%.2f\n", *kind, g.N(), g.M(), g.AvgDegree())
		if info != nil {
			// Domain labelling, consumable by hierarchical-mode tooling
			// and ignorable by plain edge-list readers.
			for v, d := range info.Domain {
				role := "stub"
				if info.Roles[v] == topology.RoleTransit {
					role = "transit"
				}
				fmt.Fprintf(w, "# domain %d %d %s\n", v, d, role)
			}
		}
		for u := 0; u < g.N(); u++ {
			for _, l := range g.Neighbors(topology.NodeID(u)) {
				if topology.NodeID(u) < l.To {
					fmt.Fprintf(w, "%d %d %.3f %.3f\n", u, l.To, l.Delay, l.Cost)
				}
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
}
