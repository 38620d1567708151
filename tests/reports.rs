//! The two reports, diffed: `examples/paper.rs` sets every claim of the
//! paper beside the reproduced number, and `examples/workload.rs` runs the
//! extension's tours (several paths, budgets, drift, scale, lanes, online
//! tuning, migration). This test holds each output to its `.expected` file
//! byte for byte. A difference means a cost, a selection, a counter or the
//! executor's page accounting moved.
//!
//! After a deliberate change, rewrite a file with
//! `cargo test --test reports -- --ignored regenerate_paper` (or
//! `regenerate_workload`) and say why in CHANGES.md.

#[allow(dead_code)]
#[path = "../examples/paper.rs"]
mod paper;

#[allow(dead_code)]
#[path = "../examples/workload.rs"]
mod workload;

fn expected_path(name: &str) -> String {
    format!("{}/examples/{name}.expected", env!("CARGO_MANIFEST_DIR"))
}

/// Panics at the first line where `actual` differs from
/// `examples/{name}.expected`, printing the whole report.
fn assert_matches_expected(name: &str, actual: &str) {
    let path = expected_path(name);
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    if actual == expected {
        return;
    }
    let (line, (want, got)) = expected
        .lines()
        .chain(std::iter::repeat("<end of file>"))
        .zip(actual.lines().chain(std::iter::repeat("<end of report>")))
        .enumerate()
        .find(|(_, (want, got))| want != got)
        .expect("two different strings differ on some line");
    panic!(
        "examples/{name}.expected differs from the report at line {}:\n  \
         expected: {want}\n  actual:   {got}\n\nfull report:\n{actual}",
        line + 1
    );
}

#[test]
fn paper_report_matches_expected() {
    assert_matches_expected("paper", &paper::report());
}

#[test]
fn workload_report_matches_expected() {
    assert_matches_expected("workload", &workload::report());
}

#[test]
#[ignore = "rewrites examples/paper.expected"]
fn regenerate_paper() {
    std::fs::write(expected_path("paper"), paper::report()).expect("write paper.expected");
}

#[test]
#[ignore = "rewrites examples/workload.expected"]
fn regenerate_workload() {
    std::fs::write(expected_path("workload"), workload::report()).expect("write workload.expected");
}
