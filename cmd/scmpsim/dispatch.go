package main

import (
	"fmt"
	"io"

	"scmp/internal/experiment"
)

// options collects the CLI knobs dispatch needs.
type options struct {
	experiment string
	seeds      int  // 0 = paper default
	quick      bool // shrink sweeps for a smoke run
	parallel   int  // worker pool width; 0 = GOMAXPROCS, 1 = serial
	format     string
	progress   io.Writer // shard progress sink (nil = silent)
}

// progressFor builds a per-experiment shard-completion reporter writing
// to opt.progress. It may be called concurrently from workers; each call
// is a single Write. Completions can land slightly out of order under
// parallelism — the line converges to total/total regardless.
func (opt options) progressFor(label string) func(done, total int) {
	if opt.progress == nil {
		return nil
	}
	return func(done, total int) {
		if done == total {
			fmt.Fprintf(opt.progress, "\r%s: %d/%d shards\n", label, done, total)
			return
		}
		fmt.Fprintf(opt.progress, "\r%s: %d/%d shards", label, done, total)
	}
}

// dispatch runs the selected experiment(s) and writes results as
// paper-style tables or CSV.
func dispatch(w io.Writer, opt options) error {
	if opt.format != "table" && opt.format != "csv" {
		return fmt.Errorf("unknown format %q (want table or csv)", opt.format)
	}
	csv := opt.format == "csv"
	header := func(s string, args ...any) {
		if !csv {
			fmt.Fprintf(w, s, args...)
		}
	}

	fig7cfg := func() experiment.Fig7Config {
		cfg := experiment.DefaultFig7()
		if opt.quick {
			// Sizes stay below quick-mode Nodes: the root is excluded, so
			// a 50-member group cannot be drawn from a 50-node graph.
			cfg.Nodes, cfg.GroupSizes, cfg.Seeds = 50, []int{10, 25, 45}, 3
		}
		if opt.seeds > 0 {
			cfg.Seeds = opt.seeds
		}
		cfg.Parallel, cfg.Progress = opt.parallel, opt.progressFor("fig7")
		return cfg
	}
	fig89cfg := func(label string) experiment.Fig89Config {
		cfg := experiment.DefaultFig89()
		if opt.quick {
			cfg.GroupSizes, cfg.Seeds, cfg.SimTime = []int{8, 24, 40}, 3, 10
		}
		if opt.seeds > 0 {
			cfg.Seeds = opt.seeds
		}
		cfg.Parallel, cfg.Progress = opt.parallel, opt.progressFor(label)
		return cfg
	}
	placementCfg := func() experiment.PlacementConfig {
		cfg := experiment.DefaultPlacement()
		if opt.quick {
			cfg.Seeds, cfg.Trials, cfg.Nodes = 2, 4, 50
		}
		if opt.seeds > 0 {
			cfg.Seeds = opt.seeds
		}
		cfg.Parallel, cfg.Progress = opt.parallel, opt.progressFor("placement")
		return cfg
	}
	stateCfg := func() experiment.StateConfig {
		cfg := experiment.DefaultState()
		if opt.quick {
			cfg.Groups, cfg.Seeds, cfg.Nodes = []int{1, 4}, 2, 30
		}
		if opt.seeds > 0 {
			cfg.Seeds = opt.seeds
		}
		cfg.Parallel, cfg.Progress = opt.parallel, opt.progressFor("state")
		return cfg
	}
	concentrationCfg := func() experiment.ConcentrationConfig {
		cfg := experiment.DefaultConcentration()
		if opt.quick {
			cfg.Seeds, cfg.Nodes, cfg.Rounds = 2, 30, 2
		}
		if opt.seeds > 0 {
			cfg.Seeds = opt.seeds
		}
		cfg.Parallel, cfg.Progress = opt.parallel, opt.progressFor("concentration")
		return cfg
	}

	faultsCfg := func() experiment.FaultsConfig {
		cfg := experiment.DefaultFaults()
		if opt.quick {
			cfg.LossRates, cfg.Seeds, cfg.SimTime, cfg.GroupSize = []float64{0, 0.05}, 3, 10, 8
		}
		if opt.seeds > 0 {
			cfg.Seeds = opt.seeds
		}
		cfg.Parallel, cfg.Progress = opt.parallel, opt.progressFor("faults")
		return cfg
	}

	churnCfg := func() experiment.ChurnConfig {
		cfg := experiment.DefaultChurn()
		if opt.quick {
			cfg.Rates = []float64{100, 2000}
			cfg.Seeds, cfg.GroupSize = 3, 10
			cfg.Duration, cfg.Settle = 3, 6
		}
		if opt.seeds > 0 {
			cfg.Seeds = opt.seeds
		}
		cfg.Parallel, cfg.Progress = opt.parallel, opt.progressFor("churn")
		return cfg
	}

	domainsCfg := func() experiment.DomainsConfig {
		cfg := experiment.DefaultDomains()
		if opt.quick {
			cfg.Topology.TransitSize, cfg.Topology.StubSize = 4, 12
			cfg.Members, cfg.Seeds = 48, 2
		}
		if opt.seeds > 0 {
			cfg.Seeds = opt.seeds
		}
		cfg.Parallel, cfg.Progress = opt.parallel, opt.progressFor("domains")
		return cfg
	}

	runFig7 := func() error {
		cfg := fig7cfg()
		header("== Fig. 7: multicast tree quality (Waxman n=%d, alpha=%.2f, beta=%.2f, %d seeds) ==\n",
			cfg.Nodes, cfg.Alpha, cfg.Beta, cfg.Seeds)
		points := experiment.RunFig7(cfg)
		if csv {
			return experiment.WriteFig7CSV(w, points)
		}
		experiment.WriteFig7(w, points)
		return nil
	}
	runFig7x := func() error {
		cfg := experiment.DefaultFig7x()
		if opt.quick {
			cfg.Seeds, cfg.GroupSize = 2, 12
		}
		if opt.seeds > 0 {
			cfg.Seeds = opt.seeds
		}
		cfg.Parallel, cfg.Progress = opt.parallel, opt.progressFor("fig7x")
		header("== Tree quality across topology families (DCDM kappa=%.1f, group %d) ==\n", cfg.Kappa, cfg.GroupSize)
		points := experiment.RunFig7x(cfg)
		if csv {
			return experiment.WriteFig7xCSV(w, points)
		}
		experiment.WriteFig7x(w, points)
		return nil
	}
	runPlacement := func() error {
		cfg := placementCfg()
		header("== m-router placement heuristics (Waxman n=%d, group %d) ==\n", cfg.Nodes, cfg.GroupSize)
		points := experiment.RunPlacement(cfg)
		if csv {
			return experiment.WritePlacementCSV(w, points)
		}
		experiment.WritePlacement(w, points)
		return nil
	}
	runState := func() error {
		cfg := stateCfg()
		header("== Routing-state scalability (n=%d, %d members, %d senders per group) ==\n",
			cfg.Nodes, cfg.Members, cfg.Senders)
		points := experiment.RunState(cfg)
		if csv {
			return experiment.WriteStateCSV(w, points)
		}
		experiment.WriteState(w, points)
		return nil
	}
	runConcentration := func() error {
		cfg := concentrationCfg()
		header("== Traffic concentration (core jam vs regional m-routers) ==\n")
		points := experiment.RunConcentration(cfg)
		if csv {
			return experiment.WriteConcentrationCSV(w, points)
		}
		experiment.WriteConcentration(w, points)
		return nil
	}

	runFaults := func() error {
		cfg := faultsCfg()
		header("== Chaos sweep: loss and link failures under the reliability stack (%d seeds, %.0f s runs) ==\n",
			cfg.Seeds, cfg.SimTime)
		res := experiment.RunFaults(cfg)
		if csv {
			return experiment.WriteFaultsCSV(w, res)
		}
		experiment.WriteFaults(w, res)
		return nil
	}

	switch opt.experiment {
	case "fig7":
		return runFig7()
	case "fig8":
		cfg := fig89cfg("fig8")
		header("== Fig. 8: data and protocol overhead (%d seeds, %.0f s runs) ==\n", cfg.Seeds, cfg.SimTime)
		points := experiment.RunFig89(cfg)
		if csv {
			return experiment.WriteFig89CSV(w, points)
		}
		experiment.WriteFig8(w, points)
		return nil
	case "fig9":
		cfg := fig89cfg("fig9")
		header("== Fig. 9: maximum end-to-end delay (%d seeds, %.0f s runs) ==\n", cfg.Seeds, cfg.SimTime)
		points := experiment.RunFig89(cfg)
		if csv {
			return experiment.WriteFig89CSV(w, points)
		}
		experiment.WriteFig9(w, points)
		return nil
	case "fig7x":
		return runFig7x()
	case "placement":
		return runPlacement()
	case "state":
		return runState()
	case "concentration":
		return runConcentration()
	case "faults":
		// Deliberately not part of "all": the chaos sweep measures the
		// robustness stack, not the paper's figures.
		return runFaults()
	case "churn":
		// Likewise outside "all": the churn sweep measures the overload
		// defences, not the paper's figures.
		cfg := churnCfg()
		header("== Churn sweep: membership flap rates under overload protection on/off (%d seeds, %.0fs churn + %.0fs settle) ==\n",
			cfg.Seeds, cfg.Duration, cfg.Settle)
		res := experiment.RunChurn(cfg)
		if csv {
			return experiment.WriteChurnCSV(w, res)
		}
		experiment.WriteChurn(w, res)
		return nil
	case "domains":
		// Outside "all" like faults and churn: the domains sweep measures
		// the hierarchical mode's scalability, not the paper's figures.
		cfg := domainsCfg()
		n := cfg.Topology.TransitDomains * cfg.Topology.TransitSize * (1 + cfg.Topology.StubsPerTransitNode*cfg.Topology.StubSize)
		header("== Hierarchical domains sweep: flat vs per-domain engines (transit-stub n=%d, %d members, %d seeds) ==\n",
			n, cfg.Members, cfg.Seeds)
		points := experiment.RunDomains(cfg)
		if csv {
			return experiment.WriteDomainsCSV(w, points)
		}
		experiment.WriteDomains(w, points)
		return nil
	case "all":
		if err := runFig7(); err != nil {
			return err
		}
		cfg := fig89cfg("fig8/9")
		points := experiment.RunFig89(cfg)
		if csv {
			if err := experiment.WriteFig89CSV(w, points); err != nil {
				return err
			}
		} else {
			fmt.Fprintf(w, "\n== Fig. 8: data and protocol overhead (%d seeds, %.0f s runs) ==\n", cfg.Seeds, cfg.SimTime)
			experiment.WriteFig8(w, points)
			fmt.Fprintf(w, "\n== Fig. 9: maximum end-to-end delay ==\n")
			experiment.WriteFig9(w, points)
		}
		header("\n")
		if err := runFig7x(); err != nil {
			return err
		}
		header("\n")
		if err := runPlacement(); err != nil {
			return err
		}
		header("\n")
		if err := runState(); err != nil {
			return err
		}
		header("\n")
		return runConcentration()
	default:
		return fmt.Errorf("unknown experiment %q (want fig7, fig7x, fig8, fig9, placement, state, concentration, faults, churn, domains or all)", opt.experiment)
	}
}
