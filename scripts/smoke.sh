#!/usr/bin/env bash
# Smoke-run the examples so they cannot silently rot: each must exit 0 and
# print the landmark lines asserted below (tied to the paper's Example 5.1).
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

# The paper example (the reproduction report) is not run here: the tier-1
# test tests/paper.rs diffs its whole output against examples/paper.expected.

# evolving_workload drives the online advisor through drift epochs and
# asserts the incremental plan matches a cold rebuild exactly.
run evolving_workload "warm reoptimize == cold rebuild"

# multi_path runs two overlapping paths through one workload advisor,
# which prices their shared subpath index once, and must still report
# the consolidated objective.
run multi_path "consolidated total:"

# vehicle_registry runs the motivating query on real index structures; all
# four evaluation strategies must agree on the result set.
run vehicle_registry "all four evaluations agree on"

# budgeted_workload selects under shrinking page budgets; a feasible plan
# must report itself as such.
run budgeted_workload "within budget"

# parallel_workload runs the advisor sequentially and over an 8-lane pool
# and must verify the plans bit-identical.
run parallel_workload "parallel plan == sequential plan"

# large_workload tours the component descent on a 5000-path chain forest,
# cold then warm, and must verify the warm plan against a cold rebuild.
run large_workload "warm plan == cold rebuild"

# online_tuning re-learns hidden rate drift from a captured event stream
# and must land on exactly the oracle's plan after the final retune.
run online_tuning "tuned plan == oracle plan"

# mined_workload gates candidate admission behind frequent-subpath mining
# and must verify that support 0 reproduces the full plan bitwise.
run mined_workload "mined plan == full plan"

# migration schedules the deployment from a re-targeted plan and must beat
# (or tie) the naive build-all-then-drop ordering on interim cost.
run migration "interim cost ≤ naive ordering"

# paged_store builds a file-backed tree, drops every handle, and reopens
# it cold from the file alone behind an 8-frame cache, so the eviction
# path is exercised too.
run paged_store "survived drop/reopen"

# The crash-injection sweep is the durability proof (DESIGN.md §5.14):
# a torn write at every write count, recovery must land on the last
# successful commit. Keep it in the smoke path so it cannot be skipped.
echo "── cargo test --release -p oic-pager --test crash_recovery"
cargo test --release --quiet -p oic-pager --test crash_recovery
echo "ok: crash-injection sweep recovered every torn commit"

echo "smoke: all examples alive"
