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

# Repo-specific static analysis, all five checks: the syntactic
# guardedby and floateq, and the interprocedural maporder, goleak and
# ctxcancel (see internal/lint, internal/lint/dataflow and
# cmd/execlint). -stale-suppressions also fails the run on any
# //lint:ignore directive that no longer suppresses anything.
lint:
	go run ./cmd/execlint -stale-suppressions ./...

# The linter's own determinism: diagnostics must be sorted, never
# map-ordered, so two consecutive runs are byte-identical. The binary is
# built once because `go run` reports execlint's exit status 2 as 1.
# Status 1 (findings) keeps a findings-bearing tree comparable; status 2
# (usage or load error) fails, since two empty outputs would diff equal.
# lint-determinism checks stability, `lint` checks cleanliness.
lint-determinism:
	go build -o execlint ./cmd/execlint
	for run in 1 2; do \
		status=0; ./execlint -json ./... > execlint_run$$run.json || status=$$?; \
		if [ $$status -gt 1 ]; then echo "execlint exited $$status" >&2; exit 1; fi; \
	done
	diff execlint_run1.json execlint_run2.json
	rm -f execlint execlint_run1.json execlint_run2.json

# Fuzz the execlint directive parser: arbitrary comment text must never
# panic the linter.
lint-fuzz:
	go test ./internal/lint/ -fuzz FuzzDirectiveParse -fuzztime 30s -run '^$$'

# The zero-allocation gate: the AllocsPerRun tests, run without -race,
# which inserts allocations of its own, and one iteration of every chem
# benchmark, whose kernel rows (ERIBlockPairClass, HermiteR) fail unless
# they allocate nothing.
zero-alloc:
	go test ./internal/chem/ -run ZeroAlloc -count=1 -v
	go test ./internal/core/ -run ZeroAlloc -count=1 -v
	go test ./internal/chem/ -run '^$$' -bench . -benchtime 1x

bench:
	go test -bench=. -benchmem ./...

# CI's "hfscf smoke" step: hfscf on the wall-clock backend under a
# feedback policy (RHF), a pull policy (UHF) and on the README's ionized
# doublet — each exits non-zero unless converged — and the refusals: an
# unknown -sched, -multiplicity without -uhf, a negative -block and a
# negative -screen.
wall-smoke:
	go run ./cmd/hfscf -molecule waters:2 -sched persistence-feedback -workers 2
	go run ./cmd/hfscf -molecule water -uhf -sched stealing -workers 2
	go run ./cmd/hfscf -molecule water -charge 1 -uhf
	go run ./cmd/hfscf -molecule waters:2 -basis 6-31g -uhf -maxiter 20
	! go run ./cmd/hfscf -sched bogus
	! go run ./cmd/hfscf -multiplicity 3
	! go run ./cmd/hfscf -uhf -diis=false
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
# primitive-quartet skip's and the density rule's no-false-drop bounds;
# the one-pass J/K digest against its per-permutation oracle; and the
# Boys function's invariants.
fuzz:
	go test ./internal/core/ -fuzz FuzzSemiVsHypergraphAssignment -fuzztime 30s -run '^$$'
	go test ./internal/serve/ -fuzz FuzzJobSpecDecode -fuzztime 30s -run '^$$'
	go test ./internal/chem/ -fuzz FuzzSchwarzBound -fuzztime 30s -run '^$$'
	go test ./internal/chem/ -fuzz FuzzERIBlockPair -fuzztime 30s -run '^$$'
	go test ./internal/chem/ -fuzz FuzzPrimitiveBound -fuzztime 30s -run '^$$'
	go test ./internal/chem/ -fuzz FuzzDensityBound -fuzztime 30s -run '^$$'
	go test ./internal/chem/ -fuzz FuzzDigestQuartet -fuzztime 30s -run '^$$'
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
