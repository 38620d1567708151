#!/usr/bin/env bash
# Everything that must hold before the benchmark is trusted: formatting,
# lints, tests, the declaration in /BENCHMARK.json against the built-in
# tables, a --quick run of every workload in both modes with every declared
# metric printed and none undeclared, and the suite/compare round trip.
# Run from anywhere; works offline. Takes about two minutes.
set -euo pipefail
cd "$(dirname "$0")"

for var in $(env | grep -o '^OIC_[A-Z_]*' || true); do
    echo "check.sh: $var is set; unset every OIC_* variable" >&2
    exit 2
done

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --release -q

cargo build --offline --release --quiet
bin="${CARGO_TARGET_DIR:-target}/release/oic-benchmark"
mkdir -p out

"$bin" declare | diff -u ../BENCHMARK.json - >/dev/null ||
    { echo "check.sh: BENCHMARK.json is not what 'declare' prints" >&2; exit 1; }

for workload in cold_forest_3k drift_tree_250 budget_tree_250 exec_fig7; do
    for trace in 0 1; do
        log="out/check-$workload-$trace.txt"
        "$bin" --workload "$workload" --seed 1994 --seconds 1 --trace "$trace" --quick >"$log"
        "$bin" verify ../BENCHMARK.json "$log" "$trace"
        tail -n 1 "$log" | grep -q '"correct": true, ' ||
            { echo "check.sh: $workload --trace $trace failed a check" >&2; exit 1; }
    done
done

# The one-command suite, twice, and the comparison under each metric's own
# bound. At --quick sizes the timings are noise, so only a report against
# itself must pass; the second comparison just exercises the table.
"$bin" suite --quick --seconds 2 --rounds 2 --seed 1994 --out out/check-suite-a.json >/dev/null
"$bin" suite --quick --seconds 2 --rounds 2 --seed 1994 --out out/check-suite-b.json >/dev/null
"$bin" compare out/check-suite-a.json out/check-suite-a.json >/dev/null
"$bin" compare out/check-suite-a.json out/check-suite-b.json || true
grep -o '"host": {[^}]*}' out/check-suite-a.json

echo "check.sh: ok"
