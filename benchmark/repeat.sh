#!/usr/bin/env bash
# Repeatability evidence: two sets (A, B) of five suites of the same commit,
# alternated A1 B1 A2 B2 …, each suite one untraced run of every workload.
# Every run has a seed of its own, as in the acceptance pipeline: the data
# set does not depend on it, so the counts must still agree to the last
# digit. Writes the comparison table to benchmark/REPEATABILITY.md. Takes
# about 2 × 5 × 4 × (SECONDS_PER_RUN + 1) s.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
seconds=${SECONDS_PER_RUN:-30}
target=${CARGO_TARGET_DIR:-$here/target}
out=$here/out/repeat

cargo build --release --offline --manifest-path "$here/Cargo.toml"
bin=$target/release/loom-benchmark
rm -rf "$out"

seed=0
for run in 1 2 3 4 5; do
  for set in A B; do
    seed=$((seed + 1))
    for workload in ingest churn point scan; do
      echo "set $set run $run (seed $seed): $workload" >&2
      "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        --out "$out/$set/run$run" >/dev/null
    done
  done
done

{
  echo "# Repeatability of loom-benchmark"
  echo
  echo "Two sets of five suites of the **same commit**, alternated (A1 B1 A2 B2 …),"
  echo "every run with a seed of its own (1–10); ${seconds} s of rounds per run. Written"
  echo "by \`benchmark/repeat.sh\`; the table is \`loom-benchmark compare A B\`. Each"
  echo "value is a run's result-line value (for a timed metric the median over the"
  echo "run's rounds, each round read at the reference host's speed — README, *The"
  echo "host-speed index*); median and quartiles are over the five runs of a set. A pair"
  echo "is \`unresolved\` when either set's spread (q3 − q1 over its median) exceeds"
  echo "the bound."
  echo
  echo "- revision: \`$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)\` (plus the working tree of this PR)"
  echo "- toolchain: \`$(rustc --version)\`, nproc $(nproc), $(uname -sr)"
  echo "- scratch filesystem: $(sed -n 's/.*"scratch_fs": *"\([^"]*\)".*/\1/p' "$out/A/run1/ingest/result.json")"
  echo
  "$bin" compare "$out/A" "$out/B" || true
} >"$here/REPEATABILITY.md"
echo "wrote $here/REPEATABILITY.md" >&2
