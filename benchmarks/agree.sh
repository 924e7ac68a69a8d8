#!/usr/bin/env bash
# Run the whole benchmark twice on the same tree and compare the two
# result sets under the benchmark's own bounds: a benchmark that cannot
# agree with itself cannot judge a change. Fails on any out-of-bound
# pair. Usage: benchmarks/agree.sh [seed]   (from the repository root)
set -euo pipefail

seed="${1:-7}"
out=".bench_build/agree"
mkdir -p "$out"
for side in A B; do
	bash benchmarks/run.sh -workload all -seed "$seed" -out "$out/$side-seed$seed.json"
done
bash benchmarks/run.sh -compare "$out/A-seed$seed.json" "$out/B-seed$seed.json"
