package experiment

import (
	"fmt"
	"io"

	"scmp/internal/mtree"
	"scmp/internal/rng"
	"scmp/internal/runner"
	"scmp/internal/topology"
)

// DomainsConfig parameterises the hierarchical-mode scalability sweep
// (PROTOCOL.md §13): the same join/leave workload on the same
// transit-stub instance, run once against the flat DCDM engine and once
// per domain grouping against the hierarchical composer, measuring how
// tree quality, control overhead and resident routing state move with
// the domain count. The sweep drives the routing engines directly (SCMP
// has no packet-level multi-domain runtime): what it varies is purely
// how the one fixed topology is cut into domains.
type DomainsConfig struct {
	Topology topology.TransitStubConfig
	// Groupings lists the domain-count ladder; see DomainGrouping.
	Groupings []DomainGrouping
	Members   int     // members joined (then removed) per run
	Kappa     float64 // DCDM relative delay-bound factor
	Seeds     int
	// Parallel bounds the worker goroutines fanning the per-seed shards
	// out: 0 means GOMAXPROCS, 1 the pure serial path.
	Parallel int
	// Progress, when set, observes shard completions (called
	// concurrently when Parallel > 1).
	Progress func(done, total int)
}

// DomainGrouping selects how the transit-stub hierarchy is folded into
// routing domains. Every grouping yields connected domains (a
// DomainView requirement): stubs only ever merge with the transit node
// they hang off.
type DomainGrouping int

const (
	// GroupFlat is the k=1 baseline: the flat engine with global lazy
	// all-pairs tables — what every other arm is measured against.
	GroupFlat DomainGrouping = iota
	// GroupTransit folds each transit domain with all stubs hanging off
	// its nodes: k = TransitDomains.
	GroupTransit
	// GroupAttach gives each transit node its own domain together with
	// its stubs: k = TransitDomains * TransitSize.
	GroupAttach
	// GroupNatural keeps the generator's own labels — every transit and
	// stub domain distinct: k = TransitDomains * (1 + TransitSize*StubsPerTransitNode).
	GroupNatural
)

func (g DomainGrouping) String() string {
	switch g {
	case GroupFlat:
		return "flat"
	case GroupTransit:
		return "transit"
	case GroupAttach:
		return "attach"
	case GroupNatural:
		return "natural"
	}
	return fmt.Sprintf("grouping(%d)", int(g))
}

// DefaultDomains returns the acceptance configuration: a 10k-node
// transit-stub instance (40 transit nodes, 120 stub domains of 83
// nodes), the size of the top rung of BenchmarkDomainJoinFlat/Hier's
// ladder, under a 256-member workload.
func DefaultDomains() DomainsConfig {
	return DomainsConfig{
		Topology: topology.TransitStubConfig{
			TransitDomains:      5,
			TransitSize:         8,
			StubsPerTransitNode: 3,
			StubSize:            83,
			EdgeProb:            0.4,
		},
		Groupings: []DomainGrouping{GroupFlat, GroupTransit, GroupAttach, GroupNatural},
		Members:   256,
		Kappa:     2.0,
		Seeds:     3,
	}
}

// domainsTable has one row per grouping arm, keyed (domains, grouping,
// nodes) so the arms list by domain count, then name. Its measures are
// the fields of domainsRun, in order.
var domainsTable = &spec{
	csv: []col{
		{"grouping", axis, 1}, {"domains", axis, 0}, {"nodes", axis, 2},
		{"tree_cost_mean", mean, 0}, {"tree_cost_ci95", ci95, 0},
		{"max_delay_mean", mean, 1}, {"max_delay_ci95", ci95, 1},
		{"ctrl_hops_mean", mean, 2}, {"ctrl_hops_ci95", ci95, 2},
		{"table_bytes_mean", mean, 3}, {"active_domains_mean", mean, 4},
	},
	flat: &flat{
		title: "Hierarchical domains sweep: flat engine vs per-domain composer",
		head: fmt.Sprintf("%-10s %8s %12s %10s %10s %12s %8s",
			"grouping", "domains", "tree_cost", "max_delay", "ctrl/join", "tables_MB", "active"),
		row:  "%-10s %8d %12.1f %10.1f %10.2f %12.2f %8.1f\n",
		show: []ref{{axis, 1}, {axis, 0}, {mean, 0}, {mean, 1}, {mean, 2}, {meanMiB, 3}, {mean, 4}},
	},
}

// domainsRun is what one arm's run measures.
type domainsRun struct {
	// cost / maxDelay are taken at full membership: total composed tree
	// cost and the worst member's multicast delay.
	cost     float64
	maxDelay float64
	// ctrl is the composer-level control message·hop count per join:
	// the JOIN's unicast walk to its serving m-router, the installed
	// graft-path hops, and — on a domain activation — the border GRAFT's
	// walk to the core plus the splice hops it installs. In the flat arm
	// every JOIN walks to the one global m-router; hierarchically it
	// stops at the local one.
	ctrl float64
	// tableB is the resident routing-table footprint at full
	// membership: the engine's materialized lazy all-pairs rows (flat),
	// or the domain view's per-domain tables plus the contracted
	// backbone (hierarchical).
	tableB float64
	// active is the number of domains holding members (and hence live
	// per-domain engines) at full membership; 1 in the flat arm.
	active float64
}

// DomainLabels folds the generated transit-stub hierarchy into the
// domain labelling of the requested grouping.
func DomainLabels(cfg topology.TransitStubConfig, info *topology.TransitStubInfo, grouping DomainGrouping) []int {
	labels := make([]int, len(info.Domain))
	switch grouping {
	case GroupFlat:
		// all zero
	case GroupTransit:
		for v := range labels {
			if info.Roles[v] == topology.RoleTransit {
				labels[v] = info.Domain[v]
			} else {
				labels[v] = int(info.Attachment[v]) / cfg.TransitSize
			}
		}
	case GroupAttach:
		for v := range labels {
			if info.Roles[v] == topology.RoleTransit {
				labels[v] = v // transit nodes occupy ids 0..transitN-1
			} else {
				labels[v] = int(info.Attachment[v])
			}
		}
	case GroupNatural:
		copy(labels, info.Domain)
	default:
		panic(fmt.Sprintf("experiment: unknown domain grouping %d", int(grouping)))
	}
	return labels
}

// pathHops counts the hops of the shortest-delay unicast walk from the
// row's source to dst.
func pathHops(row *topology.Paths, dst topology.NodeID) float64 {
	p := row.To(dst)
	if p == nil {
		return 0
	}
	return float64(len(p) - 1)
}

// RunDomains executes the sweep.
func RunDomains(cfg DomainsConfig) Table {
	opts := runner.Options{Parallel: cfg.Parallel, Progress: cfg.Progress}
	return fold(domainsTable, runner.Map(opts, cfg.Seeds, func(seed int) []obs {
		g, info, err := topology.TransitStub(cfg.Topology, rng.New(int64(seed)+1))
		if err != nil {
			panic(fmt.Sprintf("experiment: transit-stub config rejected: %v", err))
		}
		members := pickMembers(rng.New(int64(seed)*1e6+7), g.N(), cfg.Members, -1)
		out := make([]obs, 0, len(cfg.Groupings))
		for _, grouping := range cfg.Groupings {
			view, err := topology.NewDomainView(g, DomainLabels(cfg.Topology, info, grouping))
			if err != nil {
				panic(fmt.Sprintf("experiment: grouping %v yields an invalid domain view: %v", grouping, err))
			}
			var o domainsRun
			if grouping == GroupFlat {
				runDomainsFlat(g, view, members, cfg.Kappa, &o)
			} else {
				runDomainsHier(view, members, cfg.Kappa, &o)
			}
			out = append(out, obs{Key{view.K(), grouping.String(), g.N()},
				vals{o.cost, o.maxDelay, o.ctrl, o.tableB, o.active}})
		}
		return out
	}))
}

// runDomainsFlat drives the flat incremental DCDM over the whole graph:
// the k=1 baseline with global (lazy) routing tables, every control
// walk ending at the one global m-router.
func runDomainsFlat(g *topology.Graph, view *topology.DomainView, members []topology.NodeID, kappa float64, o *domainsRun) {
	root := view.MRouters()[0]
	spDelay := topology.NewLazyAllPairs(g, topology.ByDelay)
	spCost := topology.NewLazyAllPairs(g, topology.ByCost)
	d := mtree.NewDCDM(g, root, kappa, spDelay, spCost)
	rootRow := spDelay.Row(root)
	joins := 0.0
	for _, m := range members {
		res := d.Join(m)
		o.ctrl += pathHops(rootRow, m)
		if len(res.Path) > 1 {
			o.ctrl += float64(len(res.Path) - 1)
		}
		joins++
	}
	tree := d.Tree()
	o.cost = tree.Cost()
	for _, m := range members {
		if dl := tree.Delay(m); dl > o.maxDelay {
			o.maxDelay = dl
		}
	}
	o.tableB = float64(spDelay.MemoryBytes() + spCost.MemoryBytes())
	o.active = 1
	o.ctrl /= joins
	for _, m := range members {
		d.Leave(m)
	}
}

// runDomainsHier drives the hierarchical composer: per-domain engines
// and tables, JOINs terminating at the member's local m-router, only
// activation grafts walking to the core.
func runDomainsHier(view *topology.DomainView, members []topology.NodeID, kappa float64, o *domainsRun) {
	mrouters := view.MRouters()
	h := mtree.NewHierDCDM(view, mrouters, 0, kappa)
	// Measurement-only global table for the activation GRAFT's unicast
	// walk to the core; deliberately excluded from the table footprint —
	// the protocol itself never builds a global row.
	measure := topology.NewLazyAllPairs(view.Graph(), topology.ByDelay)
	rootRow := measure.Row(h.Root())
	joins := 0.0
	for _, m := range members {
		dom := view.Domain(m)
		sub := view.Sub(dom)
		lm := mrouters[dom]
		res := h.Join(m)
		o.ctrl += pathHops(sub.Delay().Row(sub.Local(lm)), sub.Local(m))
		if len(res.Path) > 1 {
			o.ctrl += float64(len(res.Path) - 1)
		}
		if res.Activated {
			o.ctrl += pathHops(rootRow, lm)
			if len(res.SplicePath) > 1 {
				o.ctrl += float64(len(res.SplicePath) - 1)
			}
		}
		joins++
	}
	tree := h.Tree()
	o.cost = tree.Cost()
	for _, m := range members {
		if dl := tree.Delay(m); dl > o.maxDelay {
			o.maxDelay = dl
		}
	}
	o.tableB = float64(h.TableBytes())
	o.active = float64(h.ActiveDomains())
	o.ctrl /= joins
	for _, m := range members {
		h.Leave(m)
	}
}

// WriteDomains prints the sweep as a paper-style table.
func WriteDomains(w io.Writer, t Table) { writeFlat(w, t) }
