#!/usr/bin/env bash
# Smoke-run the examples so they cannot silently rot: each must exit 0 and
# print the landmark line asserted below, and each report must print its
# .expected file byte for byte.
# CI runs this after the test suite; run it locally as scripts/smoke.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    local example="$1" needle="$2"
    echo "── cargo run --release --example ${example}"
    local out
    out="$(cargo run --release --quiet --example "${example}")"
    if ! grep -qF "${needle}" <<<"${out}"; then
        echo "FAIL: example '${example}' no longer prints '${needle}'" >&2
        echo "--- captured output ---" >&2
        echo "${out}" >&2
        exit 1
    fi
    echo "ok: found '${needle}'"
}

# quickstart derives its own 3-step path and must still pick a split
# configuration with a cost matrix.
run quickstart "cost matrix"

# vehicle_registry runs the motivating query on real index structures; all
# four evaluation strategies must agree on the result set.
run vehicle_registry "all four evaluations agree on"

# mined_workload gates candidate admission behind frequent-subpath mining
# and must verify that support 0 reproduces the full plan bitwise.
run mined_workload "mined plan == full plan"

# paged_store builds a file-backed tree, drops every handle, and reopens
# it cold from the file alone behind an 8-frame cache, so the eviction
# path is exercised too.
run paged_store "survived drop/reopen"

# The two reports (the paper's figures, and the extension's tours) are
# diffed in tier-1 by tests/reports.rs in a debug build; here the release
# build must print the same bytes.
report() {
    local example="$1" expected="examples/$1.expected"
    echo "── cargo run --release --example ${example} | diff ${expected}"
    if ! cargo run --release --quiet --example "${example}" | diff -u "${expected}" -; then
        echo "FAIL: the release build of '${example}' differs from ${expected}" >&2
        exit 1
    fi
    echo "ok: byte-identical to ${expected}"
}
report paper
report workload

# The crash-injection sweep is the durability proof (DESIGN.md §5.14):
# a torn write at every write count, recovery must land on the last
# successful commit. Keep it in the smoke path so it cannot be skipped.
echo "── cargo test --release -p oic-pager --test crash_recovery"
cargo test --release --quiet -p oic-pager --test crash_recovery
echo "ok: crash-injection sweep recovered every torn commit"

# The identity suites at release speed: the budget search runs its two
# directions on separate threads, so parallel ≡ sequential is checked
# with release timings too, not only in the debug build of the tests. A
# warm plan is assembled from the ledger and configurations the advisor
# keeps across epochs, so warm ≡ cold is checked in release as well.
echo "── cargo test --release -p oic-sim --test parallel --test budgeted --test warm_epoch --test evolving"
cargo test --release --quiet -p oic-sim --test parallel --test budgeted --test warm_epoch --test evolving
echo "ok: release plans bit-identical at every lane count, warm ≡ cold"

echo "smoke: all examples alive"
