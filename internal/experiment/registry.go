package experiment

import (
	"fmt"
	"io"
)

// Study is one name scmpsim's -experiment flag accepts.
type Study struct {
	Name string
	Doc  string // one line for the flag help
	// Run builds the default (or -quick) configuration, hands its sweep
	// knobs to tune under the progress label of the sweep, and runs it.
	Run func(quick bool, tune Tune) Report
}

// Tune overrides a sweep's averaging width, worker pool and progress
// sink before it runs.
type Tune func(label string, seeds, parallel *int, progress *func(done, total int))

// Report is what a study prints: Text writes the banner lines and
// paper-style tables, Tables are the same results for WriteCSV.
type Report struct {
	Tables []Table
	Text   func(w io.Writer)
}

// Studies lists every study in help order. faults, churn and domains
// are deliberately not part of "all": they measure the robustness
// stack, the overload defences and the hierarchical mode, not the
// paper's figures.
var Studies = []Study{
	{"fig7", "Fig. 7: tree delay / tree cost sweep", fig7Study},
	{"fig7x", "Fig. 7 across topology families", fig7xStudy},
	{"fig8", "Fig. 8: data + protocol overhead", fig89Study("fig8", writeFig8Section)},
	{"fig9", "Fig. 9: maximum end-to-end delay", fig89Study("fig9", func(w io.Writer, cfg Fig89Config, t Table) {
		fmt.Fprintf(w, "== Fig. 9: maximum end-to-end delay (%d seeds, %.0f s runs) ==\n", cfg.Seeds, cfg.SimTime)
		WriteFig9(w, t)
	})},
	{"placement", "§IV-A m-router placement heuristics", placementStudy},
	{"state", "§I routing-state scalability", stateStudy},
	{"concentration", "§I core jam vs regional m-routers", concentrationStudy},
	{"faults", "chaos sweep: loss + link failures", faultsStudy},
	{"churn", "membership churn x overload protection", churnStudy},
	{"domains", "hierarchical multi-domain scalability", domainsStudy},
	{"all", "fig7 through concentration in one run", allStudy},
}

// Lookup finds a study by name.
func Lookup(name string) (Study, bool) {
	for _, s := range Studies {
		if s.Name == name {
			return s, true
		}
	}
	return Study{}, false
}

// report is the common Report: a banner line over one table.
func report(banner string, t Table, write func(io.Writer, Table)) Report {
	return Report{[]Table{t}, func(w io.Writer) {
		fmt.Fprintln(w, banner)
		write(w, t)
	}}
}

func fig7Study(quick bool, tune Tune) Report {
	cfg := DefaultFig7()
	if quick {
		// Sizes stay below quick-mode Nodes: the root is excluded, so
		// a 50-member group cannot be drawn from a 50-node graph.
		cfg.Nodes, cfg.GroupSizes, cfg.Seeds = 50, []int{10, 25, 45}, 3
	}
	tune("fig7", &cfg.Seeds, &cfg.Parallel, &cfg.Progress)
	return report(fmt.Sprintf("== Fig. 7: multicast tree quality (Waxman n=%d, alpha=%.2f, beta=%.2f, %d seeds) ==",
		cfg.Nodes, cfg.Alpha, cfg.Beta, cfg.Seeds), RunFig7(cfg), WriteFig7)
}

func fig7xStudy(quick bool, tune Tune) Report {
	cfg := DefaultFig7x()
	if quick {
		cfg.Seeds, cfg.GroupSize = 2, 12
	}
	tune("fig7x", &cfg.Seeds, &cfg.Parallel, &cfg.Progress)
	return report(fmt.Sprintf("== Tree quality across topology families (DCDM kappa=%.1f, group %d) ==",
		cfg.Kappa, cfg.GroupSize), RunFig7x(cfg), WriteFig7x)
}

// fig89Study runs the Fig. 8/9 sweep under a progress label and prints
// it through one of the figures' sections.
func fig89Study(label string, section func(io.Writer, Fig89Config, Table)) func(bool, Tune) Report {
	return func(quick bool, tune Tune) Report {
		cfg := DefaultFig89()
		if quick {
			cfg.GroupSizes, cfg.Seeds, cfg.SimTime = []int{8, 24, 40}, 3, 10
		}
		tune(label, &cfg.Seeds, &cfg.Parallel, &cfg.Progress)
		t := RunFig89(cfg)
		return Report{[]Table{t}, func(w io.Writer) { section(w, cfg, t) }}
	}
}

func writeFig8Section(w io.Writer, cfg Fig89Config, t Table) {
	fmt.Fprintf(w, "== Fig. 8: data and protocol overhead (%d seeds, %.0f s runs) ==\n", cfg.Seeds, cfg.SimTime)
	WriteFig8(w, t)
}

func placementStudy(quick bool, tune Tune) Report {
	cfg := DefaultPlacement()
	if quick {
		cfg.Seeds, cfg.Trials, cfg.Nodes = 2, 4, 50
	}
	tune("placement", &cfg.Seeds, &cfg.Parallel, &cfg.Progress)
	return report(fmt.Sprintf("== m-router placement heuristics (Waxman n=%d, group %d) ==",
		cfg.Nodes, cfg.GroupSize), RunPlacement(cfg), WritePlacement)
}

func stateStudy(quick bool, tune Tune) Report {
	cfg := DefaultState()
	if quick {
		cfg.Groups, cfg.Seeds, cfg.Nodes = []int{1, 4}, 2, 30
	}
	tune("state", &cfg.Seeds, &cfg.Parallel, &cfg.Progress)
	return report(fmt.Sprintf("== Routing-state scalability (n=%d, %d members, %d senders per group) ==",
		cfg.Nodes, cfg.Members, cfg.Senders), RunState(cfg), WriteState)
}

func concentrationStudy(quick bool, tune Tune) Report {
	cfg := DefaultConcentration()
	if quick {
		cfg.Seeds, cfg.Nodes, cfg.Rounds = 2, 30, 2
	}
	tune("concentration", &cfg.Seeds, &cfg.Parallel, &cfg.Progress)
	return report("== Traffic concentration (core jam vs regional m-routers) ==",
		RunConcentration(cfg), WriteConcentration)
}

func faultsStudy(quick bool, tune Tune) Report {
	cfg := DefaultFaults()
	if quick {
		cfg.LossRates, cfg.Seeds, cfg.SimTime, cfg.GroupSize = []float64{0, 0.05}, 3, 10, 8
	}
	tune("faults", &cfg.Seeds, &cfg.Parallel, &cfg.Progress)
	res := RunFaults(cfg)
	return Report{[]Table{res.Loss, res.Recovery}, func(w io.Writer) {
		fmt.Fprintf(w, "== Chaos sweep: loss and link failures under the reliability stack (%d seeds, %.0f s runs) ==\n",
			cfg.Seeds, cfg.SimTime)
		WriteFaults(w, res)
	}}
}

func churnStudy(quick bool, tune Tune) Report {
	cfg := DefaultChurn()
	if quick {
		cfg.Rates = []float64{100, 2000}
		cfg.Seeds, cfg.GroupSize = 3, 10
		cfg.Duration, cfg.Settle = 3, 6
	}
	tune("churn", &cfg.Seeds, &cfg.Parallel, &cfg.Progress)
	return report(fmt.Sprintf("== Churn sweep: membership flap rates under overload protection on/off (%d seeds, %.0fs churn + %.0fs settle) ==",
		cfg.Seeds, cfg.Duration, cfg.Settle), RunChurn(cfg), WriteChurn)
}

func domainsStudy(quick bool, tune Tune) Report {
	cfg := DefaultDomains()
	if quick {
		cfg.Topology.TransitSize, cfg.Topology.StubSize = 4, 12
		cfg.Members, cfg.Seeds = 48, 2
	}
	tune("domains", &cfg.Seeds, &cfg.Parallel, &cfg.Progress)
	ts := cfg.Topology
	n := ts.TransitDomains * ts.TransitSize * (1 + ts.StubsPerTransitNode*ts.StubSize)
	return report(fmt.Sprintf("== Hierarchical domains sweep: flat vs per-domain engines (transit-stub n=%d, %d members, %d seeds) ==",
		n, cfg.Members, cfg.Seeds), RunDomains(cfg), WriteDomains)
}

// allStudy runs the paper's figures and the three §I/§IV-A studies,
// Fig. 8 and Fig. 9 from one sweep, a blank line between sections.
func allStudy(quick bool, tune Tune) Report {
	fig89 := fig89Study("fig8/9", func(w io.Writer, cfg Fig89Config, t Table) {
		writeFig8Section(w, cfg, t)
		fmt.Fprintf(w, "\n== Fig. 9: maximum end-to-end delay ==\n")
		WriteFig9(w, t)
	})
	var all Report
	var texts []func(io.Writer)
	for _, run := range []func(bool, Tune) Report{
		fig7Study, fig89, fig7xStudy, placementStudy, stateStudy, concentrationStudy,
	} {
		r := run(quick, tune)
		all.Tables = append(all.Tables, r.Tables...)
		texts = append(texts, r.Text)
	}
	all.Text = func(w io.Writer) {
		for i, text := range texts {
			if i > 0 {
				fmt.Fprintln(w)
			}
			text(w)
		}
	}
	return all
}
