# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# targets; keep them in sync.

GO ?= go

.PHONY: all build lint test test-invariants loc loc-check bench bench-all smoke-parallel smoke-faults smoke-churn smoke-dcdm smoke-domains smoke-fuzz results-check

all: lint test

build:
	$(GO) build ./...

# gofmt, go vet of the default and the -tags invariants build, then the
# repo's own analysis suite (cmd/scmplint): the determinism analyzers,
# the dataflow analyzers (poollife, hotalloc, detshared) and testonly
# over every module package, _test.go files included. The
# stable-sorted findings list lands in scmplint.json as the CI artifact;
# the run fails on any finding not covered by an inline
# "//scmplint:ignore <analyzer> — <reason>".
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) vet -tags invariants ./...
	$(GO) run ./cmd/scmplint -tests -json ./... > scmplint.json

test:
	$(GO) test ./...

# Same tests with the runtime invariant hooks armed: every committed
# tree, every DCDM mutation and every routed fabric configuration is
# re-verified (see internal/invariant).
test-invariants:
	$(GO) test -tags invariants ./...

# Go line counts of the tracked sources, testdata/ excluded: non-test
# code (the metric ROADMAP aim 2 tracks; bench/ reported apart because
# it is frozen outside benchmark PRs) and test code.
loc:
	@git ls-files '*.go' | grep -v '/testdata/' | xargs wc -l | awk ' \
		$$2 == "total" { next } \
		$$2 ~ /_test\.go$$/ { t += $$1; next } \
		$$2 ~ /^bench\// { b += $$1; next } \
		{ n += $$1 } \
		END { printf "non-test Go lines: %d (+ %d in bench/)\ntest Go lines:     %d\n", n, b, t }'

# The ratchet on that metric: fail when non-test Go outside bench/ has
# grown past the committed budget. A PR that removes code lowers
# LOC_BUDGET to what `make loc` prints; one that must add code raises it
# in the same diff, where a reviewer sees it.
LOC_BUDGET := 17846
loc-check:
	@n=$$($(MAKE) -s loc | awk 'NR == 1 { print $$4 }'); \
	if [ "$$n" -gt $(LOC_BUDGET) ]; then \
		echo "non-test Go lines: $$n exceeds LOC_BUDGET $(LOC_BUDGET)"; exit 1; fi; \
	echo "non-test Go lines: $$n (budget $(LOC_BUDGET))"

# Every go test micro-benchmark in the module, one iteration each: a
# smoke that they still build and run. Per-layer numbers come from a
# longer -benchtime on the one benchmark of interest.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# The repository's benchmark (bench/README.md): five workloads, end to
# end and per layer, results in bench/out/.
bench-all:
	$(GO) run ./bench

# Incremental-DCDM differential gate: the fast-vs-ref equivalence churn
# (exact tree/result/bound equality) plus the engine unit tests, under
# the race detector with the invariant hooks armed — every mutation
# re-validates the dense tree and cross-checks the incremental bound
# against a member rescan.
smoke-dcdm:
	$(GO) test -race -tags invariants -count=1 -run 'TestDCDMFastMatchesRef|TestDCDMLeave|TestMaxMultiset|TestTreeSharedViews' ./internal/mtree/

# Hierarchical-engine differential gate: the composer's k=1-vs-flat
# exact equivalence (mtree and experiment level) and the domain
# labelling checks — race detector on, invariants armed (every
# composed-tree mutation re-validates the local/composed consistency
# contract) — then an end-to-end CLI check that the quick domains sweep
# renders the exact same bytes serial and fanned over 4 workers.
smoke-domains:
	$(GO) test -race -tags invariants -count=1 -run 'Hier|Domain' ./internal/mtree/ ./internal/topology/ ./internal/experiment/
	$(GO) run ./cmd/scmpsim -experiment domains -quick -parallel 1 -out smoke_domains_serial.txt
	$(GO) run -race ./cmd/scmpsim -experiment domains -quick -parallel 4 -out smoke_domains_p4.txt
	cmp smoke_domains_serial.txt smoke_domains_p4.txt
	rm -f smoke_domains_serial.txt smoke_domains_p4.txt

# Fuzz smoke: ten seconds each of four native fuzzers. FuzzResumableRow
# drives one lazy shortest-path row with arbitrary cursor programs (two
# cursors' Next, Settle, Row) on graphs either side of the size where
# rows start sparse, against the one-shot row. FuzzParse feeds arbitrary
# scenario scripts, seeded from scenarios/*.scn, to the parser and the
# setup lines (validation and network construction), which must return
# or error and never panic. FuzzRefEquivalence runs arbitrary scheduler
# programs (At, AtSink, AtTimer, Stop, LaneSink, RunUntil, Run, Step;
# tied, tiny, huge, -0 and +Inf times) on the pooled scheduler and the
# reference one, which must trace identically. FuzzScript installs
# arbitrary script steps (NaN, -0, +Inf and past times, out-of-range
# routers, non-edges) on SCMP over at most 16 routers: CheckStep rejects
# a step, or it runs without a panic. A finding lands in the package's
# testdata/fuzz/ as a regression seed.
smoke-fuzz:
	$(GO) test -run '^$$' -fuzz FuzzResumableRow -fuzztime 10s ./internal/topology/
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/scenario/
	$(GO) test -run '^$$' -fuzz FuzzRefEquivalence -fuzztime 10s ./internal/des/
	$(GO) test -run '^$$' -fuzz FuzzScript -fuzztime 10s ./internal/core/

# End-to-end smoke of the parallel runner under the race detector: a
# quick Fig. 7 sweep fanned over 4 workers.
smoke-parallel:
	$(GO) run -race ./cmd/scmpsim -experiment fig7 -quick -parallel 4 -out /dev/null

# Recorded-results gate: results_full.txt (what EXPERIMENTS.md quotes) is
# exactly what `scmpsim -experiment all` prints, serial and at the
# default width. Regenerate the file with
# `go run ./cmd/scmpsim -experiment all -out results_full.txt` when a
# change is meant to move the tables.
results-check:
	$(GO) run ./cmd/scmpsim -experiment all -parallel 1 | cmp - results_full.txt
	$(GO) run ./cmd/scmpsim -experiment all -parallel 0 | cmp - results_full.txt

# Chaos smoke: the fault-injection sweep (loss + link cuts + repair)
# in quick mode, race detector on and runtime invariants armed.
smoke-faults:
	$(GO) run -race -tags invariants ./cmd/scmpsim -experiment faults -quick -parallel 4 -out /dev/null

# Churn smoke: the high-churn membership tests (driver, overload
# protection, the m-router's service queue and request slots, sweep
# acceptance) and the run ledgers that grow with churn (the session
# manager's accounting log, netsim's delivery ledger) under the race
# detector with invariants armed, then an end-to-end CLI check that the
# quick churn sweep renders the exact same bytes serial and fanned over
# 4 workers.
smoke-churn:
	$(GO) test -race -tags invariants -count=1 -run 'Churn|Service|RequestSlot|Log|Ledger' ./internal/netsim/ ./internal/session/ ./internal/core/ ./internal/experiment/
	$(GO) run ./cmd/scmpsim -experiment churn -quick -parallel 1 -out smoke_churn_serial.txt
	$(GO) run -race ./cmd/scmpsim -experiment churn -quick -parallel 4 -out smoke_churn_p4.txt
	cmp smoke_churn_serial.txt smoke_churn_p4.txt
	rm -f smoke_churn_serial.txt smoke_churn_p4.txt
