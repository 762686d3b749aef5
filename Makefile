# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# targets; keep them in sync.

GO ?= go

.PHONY: all build lint reach fma-check test test-invariants test-times loc loc-check bench bench-all smoke-parallel smoke-faults smoke-fuzz results-check

all: lint test

build:
	$(GO) build ./...

# gofmt, go vet of the default and the -tags invariants build, then the
# repo's own analysis suite (cmd/scmplint): the determinism analyzers
# and the ownership rules (poollife, detshared) over every module
# package, _test.go files included. The stable-sorted findings
# list lands in scmplint.json as the CI artifact; the run fails on any
# finding not covered by an inline
# "//scmplint:ignore <analyzer> — <reason>", and on any other
# "//scmplint:" comment. The zero-allocation contract is not a lint
# rule: the AllocsPerRun floors in `make test` guard it.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) vet -tags invariants ./...
	$(GO) run ./cmd/scmplint -tests -json ./... > scmplint.json

# Entry-point reach gate: production code is what an entry point
# reaches (DESIGN.md §1), measured. Every main is built with coverage
# over the whole module and the fixed run set below executes with
# GOCOVERDIR set; the scmplint runs over its detshared and poollife
# fixtures exit 1 by design (poollife's sits in a directory named
# netsim, so its Packet is the pooled one and every rule fires). The gate fails on a function outside
# bench/ that no run enters (0.0% in `go tool covdata func`) unless
# reach.allow lists it as "file func — reason"; on a listed entry that
# a run now enters or that no longer exists; and on a package with
# code that no main links.
reach:
	@set -e; export LC_ALL=C; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	mkdir "$$d/cov"; m=$$($(GO) list -m); \
	$(GO) build -cover -coverpkg=./... -o "$$d/" ./cmd/... ./examples/... ./bench; \
	export GOCOVERDIR="$$d/cov"; \
	for f in cmd/scmpsim/testdata/quick_*.txt; do e=$${f#*quick_}; \
		for fmt in table csv; do "$$d/scmpsim" -quick -experiment $${e%.txt} -format $$fmt > /dev/null 2>&1; done; done; \
	"$$d/scmpsim" -experiment all > /dev/null 2>&1; \
	"$$d/scmpsim" -quick -experiment fig7 -cpuprofile "$$d/cpu" -memprofile "$$d/mem" > /dev/null 2>&1; \
	for s in scenarios/*.scn; do "$$d/scenario" $$s > /dev/null; done; \
	for e in examples/*/; do "$$d/$$(basename $$e)" > /dev/null; done; \
	for k in waxman random arpanet transitstub; do for fmt in dot edges; do "$$d/topogen" -kind $$k -format $$fmt > /dev/null; done; done; \
	for a in "waxman -n 20" "waxman -alpha 0.3" "waxman -beta 0.3" "random -degree 4" "transitstub -transit-domains 2" \
		"transitstub -transit-size 2" "transitstub -stubs 1" "transitstub -stub-size 2" "transitstub -edge-prob 0.5"; do \
		"$$d/topogen" -kind $$a > /dev/null; done; \
	for a in dcdm kmb spt; do "$$d/treeviz" -algo $$a > /dev/null; done; \
	"$$d/bench" -smoke -out "$$d/out" > /dev/null 2>&1; \
	"$$d/scmplint" -tests -json ./... > /dev/null; \
	for fx in detshared poollife/netsim; do "$$d/scmplint" ./internal/lint/testdata/$$fx > /dev/null 2>&1 || [ $$? -eq 1 ]; done; \
	$(GO) tool covdata func -i "$$d/cov" | awk -v m="$$m/" '$$NF == "0.0%" && index($$1, m "bench/") != 1 \
		{ sub(/:[0-9]+:$$/, "", $$1); print substr($$1, length(m) + 1), $$2 }' | sort -u > "$$d/zero"; \
	awk '!/^#/ && NF { print $$1, $$2 }' reach.allow | sort > "$$d/allow"; \
	awk '!/^#/ && NF && ($$3 != "—" || NF < 4) { print "reach.allow:" NR ": entry without a reason" }' reach.allow > "$$d/fail"; \
	comm -23 "$$d/zero" "$$d/allow" | sed 's/^/reach: no entry point runs /' >> "$$d/fail"; \
	comm -13 "$$d/zero" "$$d/allow" | sed 's/^/reach: reach.allow lists a function that is run or gone: /' >> "$$d/fail"; \
	$(GO) list -f '{{if and .GoFiles (ne (join .GoFiles " ") "doc.go")}}{{.ImportPath}}{{end}}' ./... | sort > "$$d/pkgs"; \
	$(GO) tool covdata pkglist -i "$$d/cov" | sort | comm -23 "$$d/pkgs" - | sed 's/^/reach: no entry point links /' >> "$$d/fail"; \
	if [ -s "$$d/fail" ]; then cat "$$d/fail"; exit 1; fi; \
	echo "reach: every production function is entered or listed ($$(wc -l < "$$d/allow") in reach.allow)"

# Portable float arithmetic (DESIGN.md §6): no fused multiply-add in the
# module's own code, bench/ aside (it is frozen outside benchmark PRs).
# The Go spec lets a back-end fuse x*y + z into one rounding, and these
# back-ends do, which would move a result off amd64's by an ulp; an
# explicit float64(x*y) rounds the product and forbids it. Each
# architecture cross-compiles every other package with -S (the go
# command replays a cached compile's listing) and fails on a fused
# instruction, naming its line, or on a build error.
FMA_ARCHS := arm64 ppc64le s390x riscv64 loong64
fma-check:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	pkgs=$$($(GO) list ./... | grep -v '/bench$$'); m=$$($(GO) list -m); \
	for a in $(FMA_ARCHS); do \
		GOARCH=$$a $(GO) build -gcflags="$$m/...=-S" -o /dev/null $$pkgs > "$$d/$$a.s" 2>&1 || \
			{ GOARCH=$$a $(GO) build -o /dev/null $$pkgs; exit 1; }; \
		grep -E '[[:space:]]FN?M(ADD|SUB)[DS]?[[:space:]]' "$$d/$$a.s" | grep -oE '[^(]*\.go:[0-9]+' | sort -u | \
			sed "s|^$$PWD/||; s|^|fma-check: $$a fuses x*y + z at |" >> "$$d/fail"; \
	done; \
	if [ -s "$$d/fail" ]; then cat "$$d/fail"; exit 1; fi; \
	echo "fma-check: no fused multiply-add on $(FMA_ARCHS)"

test:
	$(GO) test ./...

# Per-package test wall time (ROADMAP item 30), slowest first: each
# package's result line from `go test -json` (pass, fail or skip) with
# its elapsed seconds, then the sum, so a slow or growing test shows.
test-times:
	@$(GO) test -count=1 -json ./... | awk '/"Action":"(pass|fail|skip)"/ && !/"Test":/ { \
		a = $$0; sub(/.*"Action":"/, "", a); sub(/".*/, "", a); \
		p = $$0; sub(/.*"Package":"/, "", p); sub(/".*/, "", p); \
		e = 0; if (match($$0, /"Elapsed":[0-9.]+/)) e = substr($$0, RSTART + 10, RLENGTH - 10); \
		printf "%8.2f s  %-4s  %s\n", e, a, p; sum += e } \
		END { printf "%8.2f s  sum of package times\n", sum }' | sort -rn

# Every test again under the race detector with the runtime invariant
# hooks armed (each package's hooks_on.go): every committed tree is
# checked for its root and re-validated, every DCDM mutation re-validates
# its tree, every routed fabric configuration is re-verified and every
# scheduler pop re-checks its slot generation and the clock.
# The differential gates (routing engine and store, incremental and
# hierarchical DCDM, data plane, scheduler oracle, churn) run here
# whole. The allocation floors skip under invariants; `make test` runs
# them.
test-invariants:
	$(GO) test -race -tags invariants ./...

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
LOC_BUDGET := 15420
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

# Fuzz smoke: ten seconds each of five native fuzzers. FuzzResumableRow
# drives one lazy shortest-path row with arbitrary cursor programs (two
# cursors' Next, Settle, Row, another source's cursor and Row, and
# Invalidate in between) on graphs either side of 256 routers, where a
# table keeps a repeat search only once it has labelled keepAt
# routers, against the one-shot rows and a clean-restart check. FuzzParse feeds arbitrary
# scenario scripts, seeded from scenarios/*.scn, to the parser and the
# setup lines (validation and network construction), which must return
# or error and never panic. FuzzRefEquivalence runs arbitrary scheduler
# programs (At, AtSink, AtTimer, Stop, LaneSink, RunUntil, Run, Step,
# Reserve and AtSinkSeq on a reserved number, the path a script takes;
# tied, tiny, huge, -0 and +Inf times) on the pooled scheduler and the
# reference one, which must trace identically. FuzzScript installs
# arbitrary script steps (NaN, -0, +Inf and past times, out-of-range
# routers, non-edges) on SCMP over at most 16 routers, with or without
# a standby m-router: CheckStep rejects a step, or it runs without a
# panic. FuzzDeliveryLedger runs arbitrary
# joins, leaves, sends, deliveries (any router, seq 0 and unissued seqs)
# and resets on up to 130 routers and compares every CheckDelivery with
# a model that keeps three router sets per packet. A finding lands in
# the package's testdata/fuzz/ as a regression seed.
smoke-fuzz:
	$(GO) test -run '^$$' -fuzz FuzzResumableRow -fuzztime 10s ./internal/topology/
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/scenario/
	$(GO) test -run '^$$' -fuzz FuzzRefEquivalence -fuzztime 10s ./internal/des/
	$(GO) test -run '^$$' -fuzz FuzzScript -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzDeliveryLedger -fuzztime 10s ./internal/netsim/

# End-to-end smoke of the parallel runner under the race detector: the
# quick `all` sweep (every paper study), the churn sweep and the
# hierarchical-domains sweep, each fanned over 4 workers, must render
# the exact bytes of its serial run. The churn and domains differential
# gates run in test-invariants.
smoke-parallel:
	@for exp in all churn domains; do \
		echo "smoke-parallel: $$exp"; \
		$(GO) run ./cmd/scmpsim -experiment $$exp -quick -parallel 1 -out smoke_$${exp}_serial.txt && \
		$(GO) run -race ./cmd/scmpsim -experiment $$exp -quick -parallel 4 -out smoke_$${exp}_p4.txt && \
		cmp smoke_$${exp}_serial.txt smoke_$${exp}_p4.txt || exit 1; \
		rm -f smoke_$${exp}_serial.txt smoke_$${exp}_p4.txt; \
	done

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
