# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# targets; keep them in sync.

GO ?= go

.PHONY: all build lint lint-baseline test test-invariants loc loc-check bench bench-all bench-quick bench-routing bench-dataplane bench-dataplane-quick bench-churn bench-dcdm bench-dcdm-quick bench-domains smoke-parallel smoke-faults smoke-churn smoke-dcdm smoke-domains smoke-fuzz results-check fmt

all: lint test

build:
	$(GO) build ./...

# gofmt, go vet of the default and the -tags invariants build, then the
# repo's own analysis suite (cmd/scmplint): the determinism analyzers,
# the dataflow analyzers (poollife, hotalloc, detshared) and testonly
# over every module package, _test.go files included. The
# full stable-sorted findings list (suppressed entries marked) lands in
# scmplint.json as the CI artifact; the run fails on any finding not
# covered by an inline ignore or the justified baseline
# (.scmplint-baseline.json).
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) vet -tags invariants ./...
	$(GO) run ./cmd/scmplint -tests -json ./... > scmplint.json

# Regenerate the suppression baseline from the current findings,
# preserving existing justifications. New entries start unjustified and
# must have a justification written before `make lint` accepts them.
lint-baseline:
	$(GO) run ./cmd/scmplint -tests -write-baseline ./...

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
LOC_BUDGET := 18272
loc-check:
	@n=$$($(MAKE) -s loc | awk 'NR == 1 { print $$4 }'); \
	if [ "$$n" -gt $(LOC_BUDGET) ]; then \
		echo "non-test Go lines: $$n exceeds LOC_BUDGET $(LOC_BUDGET)"; exit 1; fi; \
	echo "non-test Go lines: $$n (budget $(LOC_BUDGET))"

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# The repository's benchmark (bench/README.md): five workloads, end to
# end and per layer, results in bench/out/.
bench-all:
	$(GO) run ./bench

# Fast benchmark pass: just the serial-vs-parallel runner comparison.
bench-quick:
	$(GO) test -bench Fig89Parallelism -benchtime 1x -run '^$$' .

# Routing-engine perf gate: single-source, all-pairs, next-hop and
# fault-recompute benchmarks with allocation counts. The raw text
# (BENCH_routing.txt) is benchstat-compatible; cmd/benchjson converts
# it to BENCH_routing.json for the acceptance record. BENCHTIME=1x
# gives the quick CI pass; the default 3x smooths single-run noise.
BENCHTIME ?= 3x
bench-routing:
	{ $(GO) test -bench 'Shortest|AllPairs|NextHopTable' -benchtime $(BENCHTIME) -benchmem -run '^$$' ./internal/topology/ && \
	  $(GO) test -bench FaultRecompute -benchtime $(BENCHTIME) -benchmem -run '^$$' . ; } | tee BENCH_routing.txt
	$(GO) run ./cmd/benchjson < BENCH_routing.txt > BENCH_routing.json

# Data-plane benchmark: steady-state per-packet forwarding cost of the
# pooled scheduler + typed-sink path on the 400-node Waxman instance
# under the Fig. 8/9 load. The record is BENCH_dataplane.txt/.json; its
# committed `ref` rows measured a closure-per-hop path that no longer
# exists, so a rerun writes the single BenchmarkDataPlane row.
DATAPLANE_BENCHTIME ?= 20000x
bench-dataplane:
	$(GO) test -bench 'DataPlane$$' -benchtime $(DATAPLANE_BENCHTIME) -benchmem -run '^$$' . | tee BENCH_dataplane.txt
	$(GO) run ./cmd/benchjson BENCH_dataplane.txt > BENCH_dataplane.json

# Quick CI pass of the same benchmark (no artefact files).
bench-dataplane-quick:
	$(GO) test -bench 'DataPlane$$' -benchtime 500x -benchmem -run '^$$' .

# Churn perf gate: the high-churn membership engine with the overload
# defences on (2000 events/s, 5% control loss). The acceptance record
# is BENCH_churn.txt/.json: simulator events/sec plus the peak
# pending-operation queue the admission limit bounds.
CHURN_BENCHTIME ?= 3x
bench-churn:
	$(GO) test -bench 'BenchmarkChurn$$' -benchtime $(CHURN_BENCHTIME) -benchmem -run '^$$' . | tee BENCH_churn.txt
	$(GO) run ./cmd/benchjson BENCH_churn.txt > BENCH_churn.json

# Incremental-DCDM perf gate: steady-state joins, batched leaves and a
# whole churn lifecycle against the preserved map-backed reference
# engine (internal/mtree/ref_test.go) on the 400-node/128-member
# fixture, plus BenchmarkDCDMJoinCold: joins from routers whose
# shortest-path rows are untouched, on the 2440-node transit-stub.
# The acceptance record is BENCH_dcdm.txt/.json: >=5x ns/op fast vs ref
# on BenchmarkDCDMJoin and <=1 alloc/op steady state.
DCDM_BENCHTIME ?= 3s
bench-dcdm:
	$(GO) test -bench 'DCDM(Join|Leave|Churn)' -benchtime $(DCDM_BENCHTIME) -benchmem -run '^$$' ./internal/mtree/ | tee BENCH_dcdm.txt
	$(GO) run ./cmd/benchjson < BENCH_dcdm.txt > BENCH_dcdm.json

# Quick CI pass of the same benchmarks (no artefact files).
bench-dcdm-quick:
	$(GO) test -bench 'DCDM(Join|Leave|Churn)' -benchtime 1s -benchmem -run '^$$' ./internal/mtree/

# Hierarchical-mode perf gate: 256 member joins on the transit-stub
# node-count ladder (fixed 20-node domains, growing domain count), flat
# engine vs the per-domain composer. The acceptance record is
# BENCH_domains.txt/.json: flat ns/join and table-bytes grow ~linearly
# with n while the hier arms stay nearly put (sublinear), with the hier
# arm >=10x fast at every rung.
DOMAINS_BENCHTIME ?= 3x
bench-domains:
	$(GO) test -bench DomainJoin -benchtime $(DOMAINS_BENCHTIME) -benchmem -run '^$$' ./internal/mtree/ | tee BENCH_domains.txt
	$(GO) run ./cmd/benchjson < BENCH_domains.txt > BENCH_domains.json

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

# Fuzz smoke: ten seconds each of three native fuzzers. FuzzResumableRow
# drives one lazy shortest-path row with arbitrary cursor programs (two
# cursors' Next, Settle, Row) on graphs either side of the size where
# rows start sparse, against the one-shot row. FuzzParse feeds arbitrary
# scenario scripts, seeded from scenarios/*.scn, to the parser and the
# setup lines (validation and network construction), which must return
# or error and never panic. FuzzRefEquivalence runs arbitrary scheduler
# programs (At, AtSink, AtTimer, Stop, LaneSink, RunUntil, Run, Step;
# tied, tiny, huge, -0 and +Inf times) on the pooled scheduler and the
# reference one, which must trace identically. A finding lands in the
# package's testdata/fuzz/ as a regression seed.
smoke-fuzz:
	$(GO) test -run '^$$' -fuzz FuzzResumableRow -fuzztime 10s ./internal/topology/
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/scenario/
	$(GO) test -run '^$$' -fuzz FuzzRefEquivalence -fuzztime 10s ./internal/des/

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
