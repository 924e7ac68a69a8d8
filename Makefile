# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test race lint lint-determinism lint-fuzz zero-alloc bench wall-smoke cover cover-check fuzz serve serve-smoke blame metrics experiments figures clean

all: build test lint

build:
	go build ./...
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

# Repo-specific static analysis, all thirteen checks: the syntactic
# determinism, guardedby, lockbalance and floateq; the interprocedural
# clocktaint, maporder and lockset; the hot-path proofs allocfree,
# goleak and padcheck; and the race-freedom proofs shareiso,
# atomicdiscipline and ctxcancel (see internal/lint,
# internal/lint/dataflow and cmd/execlint). -stale-suppressions also
# fails the run on any //lint:ignore directive that no longer
# suppresses anything.
lint:
	go run ./cmd/execlint -stale-suppressions ./...

# The linter's own determinism: diagnostics must be sorted, never
# map-ordered, so two consecutive runs are byte-identical — for the full
# suite and for every analyzer selected explicitly by name (their
# call-graph walks and layout maps must not leak map order either).
# `|| true` keeps a findings-bearing tree comparable; lint-determinism
# checks stability, `lint` checks cleanliness.
lint-determinism:
	go run ./cmd/execlint -json ./... > execlint_run1.json || true
	go run ./cmd/execlint -json ./... > execlint_run2.json || true
	diff execlint_run1.json execlint_run2.json
	go run ./cmd/execlint -json -analyzer determinism,guardedby,lockbalance,floateq,clocktaint,maporder,lockset,allocfree,goleak,padcheck,shareiso,atomicdiscipline,ctxcancel ./... > execlint_run1.json || true
	go run ./cmd/execlint -json -analyzer determinism,guardedby,lockbalance,floateq,clocktaint,maporder,lockset,allocfree,goleak,padcheck,shareiso,atomicdiscipline,ctxcancel ./... > execlint_run2.json || true
	diff execlint_run1.json execlint_run2.json
	rm -f execlint_run1.json execlint_run2.json

# Fuzz the execlint directive parsers: arbitrary comment text must never
# panic the linter.
lint-fuzz:
	go test ./internal/lint/ -fuzz FuzzDirectiveParse -fuzztime 30s -run '^$$'

# The zero-allocation gate from both sides: the dynamic AllocsPerRun
# tests (run without -race, which inserts allocations of its own) and
# the static allocfree proof over the same hot paths.
zero-alloc:
	go test ./internal/chem/ -run ZeroAlloc -count=1 -v
	go test ./internal/core/ -run ZeroAlloc -count=1 -v
	go run ./cmd/execlint -analyzer allocfree ./...

bench:
	go test -bench=. -benchmem ./...

# CI's "hfscf smoke" step: hfscf on the wall-clock backend under a
# feedback policy (RHF), a pull policy (UHF) and on the README's ionized
# doublet — each exits non-zero unless converged — and the refusals: an
# unknown -sched, closed-shell -mp2 under -uhf, a negative -block and a
# negative -screen.
wall-smoke:
	go run ./cmd/hfscf -molecule waters:2 -sched persistence-feedback -workers 2
	go run ./cmd/hfscf -molecule water -uhf -sched stealing -workers 2
	go run ./cmd/hfscf -molecule water -charge 1 -uhf
	! go run ./cmd/hfscf -sched bogus
	! go run ./cmd/hfscf -molecule water -uhf -mp2
	! go run ./cmd/hfscf -block -1
	! go run ./cmd/hfscf -screen -1

# Run the SCF job server locally (spool ./spool, Ctrl-C drains cleanly).
serve:
	go run ./cmd/scfd -addr :8080 -spool spool

# The kill -9 / restart / resume smoke CI runs: a long job killed
# mid-run, a burst of small jobs after restart that must all converge,
# checkpoint resume of the killed job, graceful drain.
serve-smoke:
	bash scripts/serve_smoke.sh

cover:
	go test -coverprofile=cover.out ./internal/...
	go tool cover -func=cover.out | tail -1

# Ratcheted coverage floor for the simulator core and the observability
# layer (together ~95% today; raise the floor, never lower it).
COVER_MIN = 90.0
cover-check:
	go test -coverprofile=cover.out ./internal/core/ ./internal/obs/
	@go tool cover -func=cover.out | tail -1 | awk -v min=$(COVER_MIN) \
		'{ pct = $$3 + 0; printf "coverage %.1f%% (floor %.1f%%)\n", pct, min; \
		   if (pct < min) { print "coverage regressed below the ratchet"; exit 1 } }'

# The short fuzz pass, 30 s a target; CI's "Fuzz" step runs this
# target, so the list lives here only: the scheduling comparability
# invariant; the job-server spec decoder (untrusted submissions never
# panic, accepted specs survive Validate and a JSON round trip); the
# Schwarz no-false-pruning bound; the ERI kernel against its oracle; the
# primitive-quartet skip's no-false-drop bound; and the Boys function's
# invariants.
fuzz:
	go test ./internal/core/ -fuzz FuzzSemiVsHypergraphAssignment -fuzztime 30s -run '^$$'
	go test ./internal/serve/ -fuzz FuzzJobSpecDecode -fuzztime 30s -run '^$$'
	go test ./internal/chem/ -fuzz FuzzSchwarzBound -fuzztime 30s -run '^$$'
	go test ./internal/chem/ -fuzz FuzzERIBlockPair -fuzztime 30s -run '^$$'
	go test ./internal/chem/ -fuzz FuzzPrimitiveBound -fuzztime 30s -run '^$$'
	go test ./internal/chem/ -fuzz FuzzBoys -fuzztime 30s -run '^$$'

# The observability walkthrough, run twice: byte-identical output is the
# layer's core promise.
blame:
	go run ./examples/blame > blame_run1.txt
	go run ./examples/blame > blame_run2.txt
	diff blame_run1.txt blame_run2.txt
	cat blame_run1.txt
	rm -f blame_run1.txt blame_run2.txt

# Per-model OpenMetrics dumps, JSON summaries and blame tables.
metrics:
	go run ./cmd/benchsuite -metrics metrics/ -ranks 8

# Regenerate the full evaluation at paper scale (minutes).
experiments:
	go run ./cmd/benchsuite -exp all -scale paper

figures:
	go run ./cmd/benchsuite -svg figures/

clean:
	rm -f cover.out test_output.txt bench_output.txt blame_run1.txt blame_run2.txt
	rm -f execlint_run1.json execlint_run2.json execlint.json
	rm -rf figures/ metrics/
