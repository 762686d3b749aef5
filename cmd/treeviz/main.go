// Command treeviz builds a multicast tree with any of the three
// algorithms and prints it as Graphviz DOT (tree edges bold) plus a
// stats line, for eyeballing what DCDM, KMB and SPT do differently:
//
//	treeviz -algo dcdm -kappa 1.5 -n 40 -group 8 -seed 3
//	treeviz -algo kmb  -n 40 -group 8 -seed 3
//	treeviz -algo spt  -n 40 -group 8 -seed 3
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"scmp/internal/rng"

	"scmp/internal/mtree"
	"scmp/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "treeviz:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("treeviz", flag.ContinueOnError)
	algo := fs.String("algo", "dcdm", "dcdm | kmb | spt")
	n := fs.Int("n", 40, "Waxman node count")
	group := fs.Int("group", 8, "group size")
	seed := fs.Int64("seed", 1, "random seed")
	kappa := fs.Float64("kappa", 1.5, "DCDM delay-constraint multiplier (0 = unconstrained)")
	root := fs.Int("root", 0, "m-router node")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *kappa != 0 && !(*kappa >= 1) {
		return fmt.Errorf("kappa %g is neither 0 nor at least 1", *kappa)
	}
	if *group < 1 {
		return fmt.Errorf("group %d has no members", *group)
	}
	rng := rng.New(*seed)
	wg, err := topology.Waxman(topology.DefaultWaxman(*n), rng)
	if err != nil {
		return err
	}
	g := wg.Graph
	if *root < 0 || *root >= g.N() {
		return fmt.Errorf("root %d out of range", *root)
	}
	rootID := topology.NodeID(*root)
	if *group >= g.N() {
		return fmt.Errorf("group %d too large for %d nodes", *group, g.N())
	}
	var members []topology.NodeID
	for _, v := range rng.Perm(g.N()) {
		if topology.NodeID(v) == rootID {
			continue
		}
		members = append(members, topology.NodeID(v))
		if len(members) == *group {
			break
		}
	}

	spDelay := topology.NewLazyAllPairs(g, topology.ByDelay)
	spCost := topology.NewLazyAllPairs(g, topology.ByCost)
	var tree *mtree.Tree
	switch *algo {
	case "dcdm":
		k := *kappa
		if k == 0 {
			k = math.Inf(1)
		}
		d := mtree.NewDCDM(g, rootID, k, spDelay, spCost)
		for _, m := range members {
			d.Join(m)
		}
		tree = d.Tree()
	case "kmb":
		tree = mtree.KMB(g, rootID, members, spCost)
	case "spt":
		tree = mtree.SPT(g, rootID, members, spDelay)
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}

	fmt.Fprintf(stdout, "// %s: root=%d members=%v\n", *algo, rootID, members)
	fmt.Fprintf(stdout, "// tree cost=%.0f tree delay=%.0f nodes=%d\n",
		tree.Cost(), tree.TreeDelay(), tree.Size())
	return topology.WriteDOT(stdout, g, *algo, tree.Edges())
}
