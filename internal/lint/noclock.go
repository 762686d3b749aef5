package lint

import "strconv"

// NoClock keeps wall-clock time and unseeded randomness out of the
// simulation, so a run is a pure function of its inputs. It is an import
// rule: only scmp/internal/rng imports math/rand or math/rand/v2, tests
// included (they draw from rng.New(seed) too), and only _test.go files
// and the frozen bench/ import time; simulated time is the DES clock.
var NoClock = &Analyzer{
	Name: "noclock",
	Doc:  "math/rand only in internal/rng; time only in tests and bench/",
	Run:  runNoClock,
}

// rngPackage is the only package that imports math/rand.
const rngPackage = "scmp/internal/rng"

func runNoClock(p *Pass) {
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			switch path, _ := strconv.Unquote(imp.Path.Value); {
			case (path == "math/rand" || path == "math/rand/v2") && p.Path != rngPackage:
				p.Reportf(imp.Pos(), "imports %s; draw from a seeded generator, rng.New(seed)", path)
			case path == "time" && !p.InTestFile(imp.Pos()) && !inBench(p.Path):
				p.Reportf(imp.Pos(), "imports time; simulated time is the DES clock, and only tests and bench/ may read the wall clock")
			}
		}
	}
}
