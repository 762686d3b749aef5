package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"scmp/internal/experiment"
)

// options collects the CLI knobs dispatch needs.
type options struct {
	experiment string
	seeds      int  // 0 = paper default
	quick      bool // shrink sweeps for a smoke run
	parallel   int  // worker pool width; 0 = GOMAXPROCS, 1 = serial
	format     string
	out        string    // results file ("" = stdout)
	progress   io.Writer // shard progress sink (nil = silent)
	cpuprofile string    // CPU profile of the run ("" = none)
	memprofile string    // heap profile after the run ("" = none)
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

// dispatch looks the selected experiment up in the registry, runs it
// with the CLI's overrides and writes its results — to opt.out when
// set, opened only once the options are known to be valid — as
// paper-style tables or CSV.
func dispatch(stdout io.Writer, opt options) (err error) {
	study, ok := experiment.Lookup(opt.experiment)
	switch {
	case !ok:
		names := make([]string, len(experiment.Studies))
		for i, s := range experiment.Studies {
			names[i] = s.Name
		}
		return fmt.Errorf("unknown experiment %q (want one of %s)", opt.experiment, strings.Join(names, ", "))
	case opt.format != "table" && opt.format != "csv":
		return fmt.Errorf("unknown format %q (want table or csv)", opt.format)
	case opt.seeds < 0:
		return fmt.Errorf("-seeds %d: want >= 0 (0 = paper default)", opt.seeds)
	case opt.parallel < 0:
		return fmt.Errorf("-parallel %d: want >= 0 (0 = GOMAXPROCS)", opt.parallel)
	}
	w := stdout
	if opt.out != "" {
		f, err := os.Create(opt.out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if opt.cpuprofile != "" {
		pf, perr := os.Create(opt.cpuprofile)
		if perr != nil {
			return perr
		}
		if perr := pprof.StartCPUProfile(pf); perr != nil {
			pf.Close()
			return perr
		}
		defer func() { // err is the named result
			pprof.StopCPUProfile()
			if cerr := pf.Close(); err == nil {
				err = cerr
			}
		}()
	}
	rep := study.Run(opt.quick, opt.tune)
	if opt.memprofile != "" {
		if err := writeHeapProfile(opt.memprofile); err != nil {
			return err
		}
	}
	return writeReport(w, rep, opt.format)
}

// tune is the experiment.Tune that applies the CLI's -seeds, -parallel
// and progress overrides to a sweep.
func (opt options) tune(label string, seeds, parallel *int, progress *func(done, total int)) {
	if opt.seeds > 0 {
		*seeds = opt.seeds
	}
	*parallel, *progress = opt.parallel, opt.progressFor(label)
}

// writeReport writes a study's report as paper-style tables or as CSV.
func writeReport(w io.Writer, rep experiment.Report, format string) error {
	if format == "csv" {
		return experiment.WriteCSV(w, rep.Tables...)
	}
	rep.Text(w)
	return nil
}

// writeHeapProfile writes the live heap to path after a collection, so
// the profile shows what the run retained, not what it allocated.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
