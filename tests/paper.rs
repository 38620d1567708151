//! The reproduction report, diffed: `examples/paper.rs` sets every claim of
//! the paper beside the reproduced number, and this test holds its output
//! to `examples/paper.expected` byte for byte. A difference means a cost,
//! a selection or the executor's page accounting moved.
//!
//! After a deliberate change, rewrite the file with
//! `cargo test --test paper -- --ignored regenerate` and say why in
//! CHANGES.md.

#[allow(dead_code)]
#[path = "../examples/paper.rs"]
mod paper;

const EXPECTED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/paper.expected");

#[test]
fn report_matches_expected() {
    let expected = std::fs::read_to_string(EXPECTED).expect("examples/paper.expected");
    let actual = paper::report();
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
        "examples/paper.expected differs from the report at line {}:\n  \
         expected: {want}\n  actual:   {got}\n\nfull report:\n{actual}",
        line + 1
    );
}

#[test]
#[ignore = "rewrites examples/paper.expected"]
fn regenerate() {
    std::fs::write(EXPECTED, paper::report()).expect("write examples/paper.expected");
}
