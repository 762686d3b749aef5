package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// worsening returns by what share of the old median the new one is
// worse, in the metric's own direction (negative = better).
func worsening(better string, old, cur float64) float64 {
	if old == 0 {
		return 0 // end-to-end metrics are chosen never to be 0
	}
	d := (cur - old) / old
	if better == "higher" {
		d = -d
	}
	return d
}

// allBetter reports whether every new value reads better than every old
// one — the only case in which a spread wider than the bound still
// resolves.
func allBetter(better string, old, cur []float64) bool {
	if len(old) == 0 || len(cur) == 0 {
		return false
	}
	oLo, oHi := minMax(old)
	nLo, nHi := minMax(cur)
	if better == "higher" {
		return nLo > oHi
	}
	return nHi < oLo
}

// verdict judges one (workload, metric) pair: regressed when the new
// median is worse than the old by more than the bound; unresolved when
// it is not, but either side's run-to-run spread is wider than the
// bound (so "no change" cannot be told from a change of that size),
// unless every new run beats every old run; ok otherwise.
func verdict(old, cur summary) string {
	if worsening(cur.Better, old.Median, cur.Median) > cur.Bound {
		return "regressed"
	}
	if (spread(old.Values) > cur.Bound || spread(cur.Values) > cur.Bound) &&
		!allBetter(cur.Better, old.Values, cur.Values) {
		return "unresolved"
	}
	return "ok"
}

func loadResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints one row per (workload, metric) of two result
// files and exits non-zero on any regression, any changed simulated
// statistic, or a higher share of failed operations.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	old, err := loadResults(oldPath)
	if err == nil {
		var cur *results
		if cur, err = loadResults(newPath); err == nil {
			return compareResults(old, cur, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func compareResults(old, cur *results, w io.Writer) int {
	if old.Env != cur.Env {
		fmt.Fprintf(w, "note: environments differ\n  old: %+v\n  new: %+v\n", old.Env, cur.Env)
	}
	if old.Seed != cur.Seed || old.Size != cur.Size {
		fmt.Fprintf(w, "note: inputs differ (seed %d/%s vs %d/%s): simulated statistics will not match\n",
			old.Seed, old.Size, cur.Seed, cur.Size)
	}
	byName := map[string]*report{}
	for _, r := range old.Workloads {
		byName[r.Workload] = r
	}
	fmt.Fprintf(w, "%-15s %-22s %-6s %13s %13s %8s %6s  %s\n",
		"workload", "metric", "unit", "old median", "new median", "change", "bound", "verdict")
	bad, unresolved := 0, 0
	for _, nr := range cur.Workloads {
		or := byName[nr.Workload]
		if or == nil {
			fmt.Fprintf(w, "%-15s only in the new file\n", nr.Workload)
			continue
		}
		oldMetric := map[string]summary{}
		for _, s := range or.Metrics {
			oldMetric[s.Name] = s
		}
		for _, ns := range nr.Metrics {
			prev, ok := oldMetric[ns.Name]
			if !ok {
				continue
			}
			v := verdict(prev, ns)
			switch v {
			case "regressed":
				bad++
			case "unresolved":
				unresolved++
			}
			fmt.Fprintf(w, "%-15s %-22s %-6s %13.6g %13.6g %+7.1f%% %5.0f%%  %s\n",
				nr.Workload, ns.Name, ns.Unit, prev.Median, ns.Median,
				100*(ns.Median-prev.Median)/prev.Median, 100*ns.Bound, v)
		}
		// Simulated statistics carry bound 0: they must repeat exactly.
		names := make([]string, 0, len(nr.Exact))
		for k := range nr.Exact {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			if ov, ok := or.Exact[k]; ok && ov != nr.Exact[k] {
				bad++
				fmt.Fprintf(w, "%-15s %-22s %-6s %13.6g %13.6g %8s %5.0f%%  changed\n",
					nr.Workload, k, "exact", ov, nr.Exact[k], "", 0.0)
			}
		}
		oldFail := float64(or.OpsFailed) / float64(max(or.OpsAttempted, 1))
		newFail := float64(nr.OpsFailed) / float64(max(nr.OpsAttempted, 1))
		v := "ok"
		if newFail > oldFail {
			v = "regressed"
			bad++
		}
		fmt.Fprintf(w, "%-15s %-22s %-6s %13.6g %13.6g %8s %5.0f%%  %s\n",
			nr.Workload, "ops_failed/attempted", "1", oldFail, newFail, "", 0.0, v)
	}
	fmt.Fprintf(w, "\n%d regressed or changed, %d unresolved\n", bad, unresolved)
	if bad > 0 {
		return 1
	}
	return 0
}
