// Command scmpsim regenerates the paper's evaluation figures and the
// companion studies, one -experiment at a time:
//
//	fig7, fig8, fig9   the paper's Fig. 7-9 sweeps (§IV)
//	placement          §IV-A m-router placement heuristics
//	fig7x, state, concentration
//	                   Fig. 7 across topology families, and the §I
//	                   routing-state and core-jam arguments
//	all                everything above (the default)
//	faults, churn, domains
//	                   the chaos, membership-churn and hierarchical
//	                   multi-domain sweeps
//
// The names, their banners and their default and -quick configurations
// live in internal/experiment's registry; `scmpsim -h` prints the list.
//
// Use -quick for a fast smoke run, -seeds to override the averaging
// width, -parallel to bound the worker pool fanning (topology, seed)
// shards out (results are byte-identical at any width), -format csv for
// plot-ready records, and -out to write to a file instead of stdout.
// -cpuprofile and -memprofile write pprof profiles of the run: CPU time,
// and the heap the run retained (taken after a GC at its end).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"scmp/internal/experiment"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scmpsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	var help strings.Builder
	for _, s := range experiment.Studies {
		fmt.Fprintf(&help, "\n%-14s %s", s.Name, s.Doc)
	}
	fs := flag.NewFlagSet("scmpsim", flag.ContinueOnError)
	opt := options{progress: os.Stderr}
	fs.StringVar(&opt.experiment, "experiment", "all", "one of:"+help.String())
	fs.IntVar(&opt.seeds, "seeds", 0, "override the number of seeds (0 = paper default)")
	fs.BoolVar(&opt.quick, "quick", false, "shrink the sweep for a fast smoke run")
	fs.IntVar(&opt.parallel, "parallel", 0, "worker goroutines per experiment (0 = GOMAXPROCS, 1 = serial)")
	fs.StringVar(&opt.out, "out", "", "write results to this file instead of stdout")
	fs.StringVar(&opt.format, "format", "table", "table | csv")
	fs.StringVar(&opt.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&opt.memprofile, "memprofile", "", "write a heap profile, taken after a GC at the end of the run, to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	return dispatch(stdout, opt)
}
