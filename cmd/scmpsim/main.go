// Command scmpsim regenerates the paper's evaluation figures:
//
//	scmpsim -experiment fig7       # Fig. 7: tree delay / tree cost sweep
//	scmpsim -experiment fig8       # Fig. 8: data + protocol overhead
//	scmpsim -experiment fig9       # Fig. 9: maximum end-to-end delay
//	scmpsim -experiment placement  # §IV-A m-router placement heuristics
//	scmpsim -experiment all        # everything
//
// Two more studies quantify the paper's architectural arguments:
//
//	scmpsim -experiment state          # §I routing-state scalability
//	scmpsim -experiment concentration  # §I core jam vs regional m-routers
//	scmpsim -experiment faults         # chaos sweep: loss + link failures
//	scmpsim -experiment churn          # membership churn x overload protection
//	scmpsim -experiment domains        # hierarchical multi-domain scalability
//
// Use -quick for a fast smoke run, -seeds to override the averaging
// width, -parallel to bound the worker pool fanning (topology, seed)
// shards out (results are byte-identical at any width), -format csv for
// plot-ready records, and -out to write to a file instead of stdout.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scmpsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("scmpsim", flag.ContinueOnError)
	experimentName := fs.String("experiment", "all", "fig7 | fig7x | fig8 | fig9 | placement | state | concentration | faults | churn | domains | all")
	seeds := fs.Int("seeds", 0, "override the number of seeds (0 = paper default)")
	quick := fs.Bool("quick", false, "shrink the sweep for a fast smoke run")
	parallel := fs.Int("parallel", 0, "worker goroutines per experiment (0 = GOMAXPROCS, 1 = serial)")
	outPath := fs.String("out", "", "write results to this file instead of stdout")
	format := fs.String("format", "table", "table | csv")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return dispatch(w, options{
		experiment: *experimentName,
		seeds:      *seeds,
		quick:      *quick,
		parallel:   *parallel,
		format:     *format,
		progress:   os.Stderr,
	})
}
