//! Rules about the shape of the repository, checked by a plain
//! `cargo test` rather than by a grep that only CI runs.

use std::fs;
use std::path::Path;

/// The names and paths of the files directly inside `dir` (relative to the
/// root of the repository) whose names end in `suffix`.
fn files(dir: &str, suffix: &str) -> Vec<(String, std::path::PathBuf)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter_map(|path| Some((path.file_name()?.to_str()?.to_string(), path)))
        .filter(|(name, _)| name.ends_with(suffix))
        .collect()
}

#[test]
fn no_orphan_bench_snapshots() {
    let benches: Vec<String> = files("crates/bench/benches", ".rs")
        .iter()
        .map(|(_, path)| fs::read_to_string(path).expect("bench source"))
        .collect();
    let snapshots: Vec<String> = files(".", ".json")
        .into_iter()
        .map(|(name, _)| name)
        .filter(|name| name.starts_with("BENCH_"))
        .collect();
    assert!(!snapshots.is_empty(), "no root BENCH_*.json found");
    for snapshot in &snapshots {
        assert!(
            benches
                .iter()
                .any(|source| source.contains(snapshot.as_str())),
            "{snapshot}: no bench writes it. A committed snapshot must have a \
             writer: a root BENCH_*.json that no bench target in \
             crates/bench/benches names has outlived the bench that produced it."
        );
    }
}
