package experiment

import (
	"cmp"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"

	"scmp/internal/stats"
)

// Every study has one shape. Its (topology, seed) shards fan out over
// runner.Map and each returns a flat list of observations; fold merges
// the lists in ascending job index into a Table with its rows in
// canonical order; writeFlat, writePivot and WriteCSV render the Table
// from the study's spec. A study is therefore a spec, a shard function
// and a registry entry (registry.go) — see EXPERIMENTS.md, "Adding a
// study".

const (
	maxAxes     = 4 // churn: topology, rate, loss, protection
	maxMeasures = 9 // churn
)

// Key locates a row by its axis values — each a string label, an int, a
// float64 or an OnOff — with nil past the table's last axis.
type Key [maxAxes]any

// OnOff is a two-valued axis: it prints as on/off and sorts on first.
type OnOff bool

func (b OnOff) String() string {
	if b {
		return "on"
	}
	return "off"
}

// vals holds one run's measures, indexed as the study's columns do.
type vals [maxMeasures]float64

// obs is one shard observation: the row it belongs to and what the run
// measured. A NaN measure was not observed: the row's sample skips it.
type obs struct {
	key Key
	v   vals
}

// Row is one cell of a study: the samples of its measures across seeds.
type Row struct {
	Key     Key
	Samples []stats.Sample
}

// Table is a study's result: rows in canonical order, rendered by the
// study's Write function or by WriteCSV.
type Table struct {
	spec *spec
	Rows []Row
}

// agg names what a column prints of a row.
type agg int

const (
	axis    agg = iota // the axis value Key[of]; the rest summarise measure of
	mean               // sample mean
	ci95               // 95% confidence half-width
	peak               // largest observation
	meanMiB            // mean of a byte count, in MiB
	sum                // sum and count print as integers
	count
)

// ref is one value of a rendered row; col is a ref with its CSV header.
type ref struct {
	agg agg
	of  int
}

type col struct {
	name string
	agg  agg
	of   int
}

// spec is a study's table shape, written once as data: how rows sort,
// what the CSV records hold, and how the paper-style table is laid out
// (flat or grid, whichever is set).
type spec struct {
	// order ranks a string axis's labels: those listed come first, in
	// this order, the rest alphabetically. It also names a grid's
	// columns. Rows sort by key, axis 0 most significant, numbers
	// ascending.
	order [maxAxes][]string
	csv   []col
	flat  *flat
	grid  *grid
}

// flat lays a table out one line per row.
type flat struct {
	title   string // when paneled: one table per axis-0 value, which %s takes
	paneled bool
	head    string // header line
	row     string // format of one line, newline included
	show    []ref
}

// grid lays a table out as row axis × column axis, one grid per metric
// and — when the row axis is 1 — per axis-0 value, which the metric's
// title takes as %s. A cell no row fills prints "-".
type grid struct {
	at         int    // row axis; the columns are order[at+1]
	head       string // header of the row-label column
	rowW, colW int
	metrics    []metric
}

type metric struct {
	title string
	cell  string // format of one cell, leading space included
	of    []ref
}

func (c ref) value(r *Row) any {
	if c.agg == axis {
		return r.Key[c.of]
	}
	s := &r.Samples[c.of]
	switch c.agg {
	case mean:
		return s.Mean()
	case ci95:
		return s.CI95()
	case peak:
		return s.Max()
	case meanMiB:
		return s.Mean() / (1 << 20)
	case sum:
		return int(s.Sum())
	default:
		return s.N()
	}
}

func (c col) value(r *Row) any { return ref{c.agg, c.of}.value(r) }

func values(r *Row, refs []ref) []any {
	out := make([]any, len(refs))
	for i, c := range refs {
		out[i] = c.value(r)
	}
	return out
}

// fold builds a study's Table from its shards' observations, consumed
// in ascending job index so every sample receives its values in the
// order a serial run would add them.
func fold(s *spec, shards [][]obs) Table {
	measures := 0
	for _, c := range s.csv {
		if c.agg != axis && c.of >= measures {
			measures = c.of + 1
		}
	}
	at := map[Key]int{}
	var rows []Row
	for _, shard := range shards {
		for _, o := range shard {
			i, ok := at[o.key]
			if !ok {
				i = len(rows)
				at[o.key] = i
				rows = append(rows, Row{o.key, make([]stats.Sample, measures)})
			}
			for m := range rows[i].Samples {
				if x := o.v[m]; !math.IsNaN(x) {
					rows[i].Samples[m].Add(x)
				}
			}
		}
	}
	sort.SliceStable(rows, func(a, b int) bool {
		for i, order := range s.order {
			if c := compareAxis(rows[a].Key[i], rows[b].Key[i], order); c != 0 {
				return c < 0
			}
		}
		return false
	})
	return Table{s, rows}
}

func compareAxis(a, b any, order []string) int {
	switch x := a.(type) {
	case int:
		return cmp.Compare(x, b.(int))
	case float64:
		return cmp.Compare(x, b.(float64))
	case OnOff:
		if y := b.(OnOff); x != y {
			if x {
				return -1
			}
			return 1
		}
	case string:
		y := b.(string)
		pos := func(s string) int {
			if i := slices.Index(order, s); i >= 0 {
				return i
			}
			return len(order)
		}
		if c := cmp.Compare(pos(x), pos(y)); c != 0 {
			return c
		}
		return strings.Compare(x, y)
	}
	return 0
}

// Value returns a measured CSV column's value in the row at key, or NaN
// when the table has no such row.
//
//scmplint:ignore testonly — the study tests and the root package's benchmarks read cells through it
func (t Table) Value(column string, key ...any) float64 {
	var k Key
	copy(k[:], key)
	for _, c := range t.spec.csv {
		if c.name != column {
			continue
		}
		for i := range t.Rows {
			if t.Rows[i].Key != k {
				continue
			}
			switch v := c.value(&t.Rows[i]).(type) {
			case float64:
				return v
			case int:
				return float64(v)
			}
		}
		return math.NaN()
	}
	panic("experiment: table has no column " + column)
}

// runs splits rows into the maximal runs sharing their value on axis ax.
func runs(rows []Row, ax int) [][]Row {
	var out [][]Row
	for lo, hi := 0, 0; lo < len(rows); lo = hi {
		for hi = lo; hi < len(rows) && rows[hi].Key[ax] == rows[lo].Key[ax]; hi++ {
		}
		out = append(out, rows[lo:hi])
	}
	return out
}

// panels writes body under title: once per axis-0 value, which the
// title takes as %s, or once over all rows (even none).
func panels(w io.Writer, rows []Row, split bool, title string, body func([]Row)) {
	if !split {
		fmt.Fprintf(w, "\n%s\n", title)
		body(rows)
		return
	}
	for _, panel := range runs(rows, 0) {
		fmt.Fprintf(w, "\n"+title+"\n", panel[0].Key[0])
		body(panel)
	}
}

func writeFlat(w io.Writer, t Table) {
	f := t.spec.flat
	panels(w, t.Rows, f.paneled, f.title, func(rows []Row) {
		fmt.Fprintln(w, f.head)
		for i := range rows {
			fmt.Fprintf(w, f.row, values(&rows[i], f.show)...)
		}
	})
}

func writePivot(w io.Writer, t Table, metrics ...metric) {
	g := t.spec.grid
	labels := t.spec.order[g.at+1]
	for _, m := range metrics {
		panels(w, t.Rows, g.at > 0, m.title, func(rows []Row) {
			fmt.Fprintf(w, "%-*s", g.rowW, g.head)
			for _, l := range labels {
				fmt.Fprintf(w, " %*s", g.colW, l)
			}
			fmt.Fprintln(w)
			for _, line := range runs(rows, g.at) {
				fmt.Fprintf(w, "%-*v", g.rowW, line[0].Key[g.at])
				for _, l := range labels {
					i := slices.IndexFunc(line, func(r Row) bool { return r.Key[g.at+1] == l })
					if i < 0 {
						fmt.Fprintf(w, " %*s", g.colW, "-")
						continue
					}
					fmt.Fprintf(w, m.cell, values(&line[i], m.of)...)
				}
				fmt.Fprintln(w)
			}
		})
	}
}

// WriteCSV renders tables as plot-ready records, one row per cell, with
// a blank line between tables.
func WriteCSV(w io.Writer, tables ...Table) error {
	for i, t := range tables {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		records := make([][]string, 1, len(t.Rows)+1)
		for _, c := range t.spec.csv {
			records[0] = append(records[0], c.name)
		}
		for r := range t.Rows {
			record := make([]string, len(t.spec.csv))
			for j, c := range t.spec.csv {
				switch v := c.value(&t.Rows[r]).(type) {
				case float64:
					record[j] = fmt.Sprintf("%.4f", v)
				default:
					record[j] = fmt.Sprint(v)
				}
			}
			records = append(records, record)
		}
		if err := csv.NewWriter(w).WriteAll(records); err != nil {
			return err
		}
	}
	return nil
}
