//! Rules about the shape of the repository, checked by a plain
//! `cargo test`.
//!
//! Each rule names literal substrings that must not come back to a set of
//! files, and fails with the rule's reason and every `file:line` that
//! breaks it. A scan reads a file as bytes (lossily decoded), so a binary
//! file that contains a forbidden name fails the rule too. The rules quote
//! the names they forbid, so this file is outside every scope that would
//! cover it.

use std::fs;
use std::path::{Path, PathBuf};

/// This file, which spells out every forbidden name.
const THIS_FILE: &str = "tests/architecture.rs";

/// The root of the repository.
fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// A path from the root of the repository.
fn at(rel: &str) -> PathBuf {
    root().join(rel)
}

/// `path`, relative to the root of the repository, for messages.
fn shown(path: &Path) -> String {
    path.strip_prefix(root())
        .unwrap_or(path)
        .display()
        .to_string()
}

/// The files directly inside `dir` (relative to the root of the repository)
/// whose names end in `suffix`, in name order.
fn files_in(dir: &str, suffix: &str) -> Vec<PathBuf> {
    let dir = at(dir);
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.is_file())
        .filter(|path| path.to_str().is_some_and(|name| name.ends_with(suffix)))
        .collect();
    files.sort();
    files
}

/// Every file under `dir`, recursively, as `grep -r` reaches them: hidden
/// entries included, symbolic links not followed, and no directory for
/// which `skip` holds entered.
fn walk(dir: &Path, skip: &dyn Fn(&Path) -> bool) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut entries: Vec<_> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry"))
        .collect();
    entries.sort_by_key(|entry| entry.file_name());
    for entry in entries {
        let path = entry.path();
        let kind = entry.file_type().expect("file type");
        if kind.is_dir() && !skip(&path) {
            out.extend(walk(&path, skip));
        } else if kind.is_file() {
            out.push(path);
        }
    }
    out
}

/// Every file under each of `dirs` (relative to the root), recursively.
fn tree<'a>(dirs: impl IntoIterator<Item = &'a str>) -> Vec<PathBuf> {
    dirs.into_iter()
        .flat_map(|dir| walk(&at(dir), &|_| false))
        .collect()
}

/// `crates/*/<sub>`: the `sub` directory of every crate that has one.
fn crate_dirs(sub: &str) -> Vec<String> {
    let mut dirs: Vec<String> = fs::read_dir(at("crates"))
        .expect("crates/")
        .map(|entry| entry.expect("directory entry").file_name())
        .filter_map(|name| Some(format!("crates/{}/{sub}", name.to_str()?)))
        .filter(|dir| at(dir).is_dir())
        .collect();
    dirs.sort();
    dirs
}

/// A file's text; bytes that are not UTF-8 become U+FFFD, which no
/// forbidden name contains.
fn text(path: &Path) -> String {
    let bytes = fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    String::from_utf8_lossy(&bytes).into_owned()
}

/// How much of a file a scan reads.
#[derive(Clone, Copy, PartialEq)]
enum Reach {
    /// The whole file.
    All,
    /// The library part: the lines above the first `#[cfg(test)]` that
    /// opens an inline item, such as `mod tests { … }` — a test module may
    /// use what the library part may not. A `#[cfg(test)]` over an
    /// out-of-line `mod tests;` declaration ends nothing: the scan steps
    /// over it.
    AboveTests,
}

/// The lines of `source` that a scan with `reach` reads, numbered from 1.
fn lines(source: &str, reach: Reach) -> impl Iterator<Item = (usize, &str)> {
    let all: Vec<&str> = source.lines().collect();
    let declaration =
        |line: Option<&&str>| line.is_some_and(|l| l.starts_with("mod ") && l.ends_with(';'));
    let tests = |i: usize| all[i].starts_with("#[cfg(test)]") && !declaration(all.get(i + 1));
    let end = (0..all.len()).find(|&i| reach == Reach::AboveTests && tests(i));
    let end = end.unwrap_or(all.len());
    all.into_iter()
        .enumerate()
        .take(end)
        .map(|(i, line)| (i + 1, line))
}

/// Every line of `files` within `reach` that contains one of `literals`,
/// as `file:line: text`.
fn hits(files: &[PathBuf], literals: &[&str], reach: Reach) -> Vec<String> {
    let mut out = Vec::new();
    for file in files {
        let source = text(file);
        for (n, line) in lines(&source, reach) {
            if literals.iter().any(|literal| line.contains(literal)) {
                out.push(format!("{}:{n}: {}", shown(file), line.trim()));
            }
        }
    }
    out
}

/// Fails with `reason` and every offending line if any line of `files`
/// within `reach` contains one of `literals`.
fn forbid(reason: &str, files: &[PathBuf], literals: &[&str], reach: Reach) {
    assert!(!files.is_empty(), "{reason}\n(the rule's scope is empty)");
    let hits = hits(files, literals, reach);
    assert!(hits.is_empty(), "{reason}\n{}", hits.join("\n"));
}

/// Whether `line` contains `word` as a whole word, as `grep -w` matches
/// it: neither neighbour of some occurrence is a letter, digit or `_`.
fn has_word(line: &str, word: &str) -> bool {
    let is_word = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    line.match_indices(word).any(|(at, _)| {
        !is_word(line[..at].chars().next_back()) && !is_word(line[at + word.len()..].chars().next())
    })
}

// --- The library ---------------------------------------------------------

#[test]
fn no_environment_reads_in_the_library() {
    let dirs = crate_dirs("src");
    forbid(
        "The library is a pure function of its arguments: no source file of a \
         library crate or of the facade may read a process environment variable.",
        &tree(dirs.iter().map(String::as_str).chain(["src"])),
        &["env::var"],
        Reach::All,
    );
}

/// The panic sites the library may hold, at most: the count of this tree.
/// Lower it when sites go; it may not rise.
const PANIC_SITES: usize = 150;

/// Whether `line` holds a panic site: `assert!`, `assert_eq!` or
/// `assert_ne!` (not their `debug_` forms), `panic!`, `unreachable!`, or an
/// `unwrap(` or `expect(` call.
fn panics(line: &str) -> bool {
    let asserts = line.match_indices("assert").any(|(at, word)| {
        let after = &line[at + word.len()..];
        let bang = ["!", "_eq!", "_ne!"]
            .iter()
            .any(|tail| after.starts_with(tail));
        bang && !line[..at].ends_with("debug_")
    });
    let calls = ["panic!", "unreachable!", "unwrap(", "expect("];
    asserts || calls.iter().any(|call| line.contains(call))
}

#[test]
fn library_panic_sites_do_not_rise() {
    // One site per line, comment lines skipped, over the library part of
    // every source file of a library crate and of the facade but the
    // test-only `tests.rs` and `testutil.rs`.
    let dirs = crate_dirs("src");
    let files: Vec<PathBuf> = tree(dirs.iter().map(String::as_str).chain(["src"]))
        .into_iter()
        .filter(|file| file.extension().is_some_and(|ext| ext == "rs"))
        .filter(|file| !file.ends_with("tests.rs") && !file.ends_with("testutil.rs"))
        .collect();
    let mut sites = Vec::new();
    for file in &files {
        let source = text(file);
        for (n, line) in lines(&source, Reach::AboveTests) {
            if !line.trim_start().starts_with("//") && panics(line) {
                sites.push(format!("{}:{n}: {}", shown(file), line.trim()));
            }
        }
    }
    assert!(
        sites.len() <= PANIC_SITES,
        "Every public door is to become total (ROADMAP item 13), so the library's \
         panic sites may fall but not rise: {} found, {PANIC_SITES} allowed:\n{}",
        sites.len(),
        sites.join("\n")
    );
}

/// The lines DESIGN.md may hold, at most. It states mechanisms, invariants
/// and their pins; measurements and history belong in CHANGES.md.
const DESIGN_LINES: usize = 1100;

#[test]
fn design_doc_does_not_grow() {
    let lines = text(&at("DESIGN.md")).lines().count();
    assert!(
        lines <= DESIGN_LINES,
        "DESIGN.md may shrink but not grow: {lines} lines, {DESIGN_LINES} allowed"
    );
}

#[test]
fn no_second_engine_or_retired_switches() {
    // The whole tree, as far as `grep -r` reaches: hidden directories
    // included, every `.git` and `target` directory and the benchmark's own
    // workspace skipped, and the files that keep the history (or, here,
    // spell out the rule) excluded.
    let skip = |dir: &Path| {
        let name = dir.file_name().and_then(|name| name.to_str());
        matches!(name, Some(".git" | "target")) || dir == at("benchmark")
    };
    let excluded = ["CHANGES.md", "ROADMAP.md", "ci.yml"];
    let files: Vec<PathBuf> = walk(root(), &skip)
        .into_iter()
        .filter(|file| {
            let name = file.file_name().and_then(|name| name.to_str());
            !name.is_some_and(|name| excluded.contains(&name)) && *file != at(THIS_FILE)
        })
        .collect();
    forbid(
        "There is one selection engine and mining has no kill switch, one place \
         that builds a priced matrix and no post-hoc multi-path consolidator, and \
         no environment switch at all: the names of the deleted engine, its \
         builder, the four retired switches and their readers, the consolidator \
         and the matrix wrappers must not come back. Scenario timing lives in \
         benchmark/ alone: the answer mirror over the paged tree, its prediction \
         rows and the criterion shim and its one bench are gone. MX and MIX are \
         one multi-index with two groupings over one crate-private inherited \
         index: the simple-index and multi-inherited-index types and the uncalled \
         validation wrapper must not come back.",
        &files,
        &[
            "OIC_SHARDS",
            "OIC_MINE",
            "OIC_THREADS",
            "OIC_PAGE_CACHE",
            "THREADS_ENV",
            "from_env",
            "cache_capacity_from_env",
            "with_sharding",
            "global_descent",
            "extensions::multipath",
            "MultiPathPlan",
            "priced_matrix_inner",
            "priced_matrix_banned",
            "PagedMirror",
            "query_io_rows",
            "query_io_table",
            "QueryIoRow",
            "oic-criterion",
            "index_micro",
            "SimpleIndex",
            "MultiInheritedIndex",
            "validate_all",
        ],
        Reach::All,
    );
    let maintained: Vec<PathBuf> = files
        .iter()
        .filter(|file| {
            ["crates", "src", "tests", "examples", "scripts"]
                .iter()
                .any(|dir| file.starts_with(at(dir)))
                || [at("README.md"), at("DESIGN.md")].contains(file)
        })
        .cloned()
        .collect();
    forbid(
        "The B-tree layout is four `oic_btree` constants and the page size of the \
         tree's store, the page cache has no pins, and the cost model prices \
         equality predicates only: the layout struct's constructor, the pin \
         calls and their error, and the range-predicate switch must not come \
         back in the code or the maintained docs.",
        &maintained,
        &[
            "for_page_size",
            "fn pin(",
            "AllPinned",
            "with_matched_values",
        ],
        Reach::All,
    );
}

#[test]
fn no_unused_cost_overrides_mining_front_ends_or_executor_setter() {
    let crates = [crate_dirs("src"), crate_dirs("tests")].concat();
    let others = ["crates/bench/benches", "src", "examples", "tests"];
    let files: Vec<PathBuf> = tree(crates.iter().map(String::as_str).chain(others))
        .into_iter()
        .filter(|file| *file != at(THIS_FILE))
        .collect();
    forbid(
        "`CostParams` holds only what callers set, the page size and the NIX \
         maintenance granularity: the byte lengths are `oic_cost` constants, and \
         the `pr`/`pm` overrides and the whole-record switch no caller used must \
         not come back. The miner is a closed form over runs of frequent \
         positions, without the estimator and log front ends nobody called, and \
         the advisor has one lane-count setter.",
        &files,
        &[
            "pr_override",
            "pm_entry",
            "pm_aux",
            "whole_record_reads",
            "mine_log",
            "position_mass_from_estimator",
            "with_executor",
        ],
        Reach::All,
    );
}

// --- Storage and index structures ----------------------------------------

#[test]
fn no_copying_posting_list_accessor() {
    let mut files = vec![
        at("crates/btree/src/node.rs"),
        at("crates/btree/src/tree.rs"),
    ];
    files.extend(
        files_in("crates/index/src", ".rs")
            .into_iter()
            .filter(|file| !file.ends_with("testutil.rs")),
    );
    forbid(
        "Index records are read in place through visitors: the accessor that \
         cloned every matching entry into its own vector, and any owned \
         vector-of-vectors of entries, must not return to the in-memory tree or \
         the five organizations. Test modules (everything from `#[cfg(test)]` to \
         the end of a file) may collect what they like.",
        &files,
        &["lookup_filtered", "Vec<Vec<u8>>"],
        Reach::AboveTests,
    );
}

#[test]
fn no_decoded_node_in_the_paged_tree() {
    forbid(
        "A paged node is its page image: the decoded `Node` enum and the \
         whole-node encode / decode pair must not come back beside the slotted \
         views, in the tree or in its node module.",
        &[
            at("crates/btree/src/paged.rs"),
            at("crates/btree/src/slotted.rs"),
        ],
        &["enum Node", "fn decode(", "fn encode("],
        Reach::All,
    );
}

#[test]
fn stamped_op_scopes_in_the_page_store() {
    forbid(
        "An executed operation's distinct-page sets are epoch stamps in dense \
         vectors indexed by page id: every page touch of the in-memory executor \
         goes through them, so a SipHash set must not come back to the store.",
        &[at("crates/storage/src/store.rs")],
        &["HashSet"],
        Reach::All,
    );
}

#[test]
fn no_per_event_ordered_map_in_the_rate_estimator() {
    forbid(
        "A path's estimator cells live in a slot of a slab, found through one \
         probe per run of same-path events: the ordered map of cell vectors \
         probed on every event may live on only as the test oracle (everything \
         from `#[cfg(test)]` to the end of the file).",
        &[at("crates/workload/src/capture.rs")],
        &["BTreeMap<PathKey, Vec<Cell>>"],
        Reach::AboveTests,
    );
}

#[test]
fn one_small_pool_in_oic_exec() {
    const REASON: &str = "oic-exec is an order-stable par_map over parked workers \
         sharing one batch descriptor: the work-stealing pool's public scoped API, \
         its queues and its stealing must not come back, the library part of the \
         file (everything above `#[cfg(test)]`) stays within 307 lines, and it \
         keeps one `unsafe` block, the lifetime erasure of a batch's body.";
    const LIMIT: usize = 307;
    let file = at("crates/exec/src/lib.rs");
    forbid(
        REASON,
        std::slice::from_ref(&file),
        &["ThreadPool", "Scope", "VecDeque", "injector", "steal"],
        Reach::All,
    );
    let source = text(&file);
    let library = lines(&source, Reach::AboveTests).count();
    assert!(
        library <= LIMIT,
        "{REASON}\n{}:{}: line {library} above #[cfg(test)], {LIMIT} allowed",
        shown(&file),
        LIMIT + 1
    );
    let unsafe_lines: Vec<String> = lines(&source, Reach::All)
        .filter(|(_, line)| has_word(line, "unsafe"))
        .map(|(n, line)| format!("{}:{n}: {}", shown(&file), line.trim()))
        .collect();
    assert!(
        unsafe_lines.len() <= 1,
        "{REASON}\n{}",
        unsafe_lines.join("\n")
    );
}

// --- The core crate ------------------------------------------------------

#[test]
fn no_monolith_in_oic_core() {
    const LIMIT: usize = 1300;
    let long: Vec<String> = tree(["crates/core/src"])
        .iter()
        .filter(|file| file.extension().is_some_and(|ext| ext == "rs"))
        .filter_map(|file| {
            let newlines = fs::read(file)
                .expect("core source")
                .iter()
                .filter(|&&b| b == b'\n')
                .count();
            (newlines > LIMIT).then(|| {
                format!(
                    "{}:{}: {newlines} lines, {LIMIT} allowed",
                    shown(file),
                    LIMIT + 1
                )
            })
        })
        .collect();
    assert!(
        long.is_empty(),
        "workload_advisor.rs was a 3.3k-line monolith until it was split along its \
         seams; no file of the core crate may grow back past the largest \
         survivor's neighbourhood (select.rs reached ~1230 lines before its tests \
         moved to select/tests.rs).\n{}",
        long.join("\n")
    );
}

#[test]
fn no_hashed_candidate_keys_in_the_advisor() {
    const REASON: &str = "Candidate ids are dense, so the advisor keys every \
         per-candidate and per-`(candidate, organization)` table by its dense slot \
         (`ledger::slot`, `shard::components`), never through a hash map. The \
         migration planner interns each physical index once, through those slots, \
         and counts references per dense index id: no set or map over durable \
         index keys or path handles is rebuilt per wave.";
    let mut advisor = files_in("crates/core/src/workload_advisor", ".rs");
    advisor.push(at("crates/core/src/shard.rs"));
    forbid(
        REASON,
        &advisor,
        &[
            "PairMap",
            "PairSet",
            "PairHasher",
            "HashMap<CandidateId",
            "HashMap<Pair",
            "HashMap<(CandidateId",
            "HashMap<(Pair",
            "HashSet<CandidateId",
            "HashSet<Pair",
            "HashSet<(CandidateId",
            "HashSet<(Pair",
        ],
        Reach::All,
    );
    forbid(
        REASON,
        &[at("crates/core/src/migrate.rs")],
        &[
            "BTreeSet<IndexKey",
            "BTreeSet<&IndexKey",
            "BTreeMap<IndexKey",
            "BTreeMap<&IndexKey",
            "HashMap<IndexKey",
            "HashMap<&IndexKey",
            "HashMap<PathId",
            "HashMap<&PathId",
            "HashSet<IndexKey",
            "HashSet<&IndexKey",
            "HashSet<PathId",
            "HashSet<&PathId",
        ],
        Reach::All,
    );
}

#[test]
fn no_advisor_cost_matrix_or_hashed_descent_context() {
    const REASON: &str = "The advisor's DPs price each cell where the recurrence \
         reads it, through one cell rule (`workload_advisor::pricing::Cells`): no \
         cost matrix is built for them, and the descent reads sharing contexts \
         from dense per-component owner counts, not from a hashed context key.";
    forbid(
        REASON,
        &tree(["crates/core/src"]),
        &["priced_matrix", "matrix_selection", "from_planes"],
        Reach::All,
    );
    forbid(
        REASON,
        &[at("crates/core/src/workload_advisor/descent.rs")],
        &["context_key"],
        Reach::All,
    );
}

#[test]
fn one_repricing_job_per_path_shape() {
    forbid(
        "A path's query shares have one source, its signature's \
         `QueryBasis::eval`: re-pricing runs one job per dirty signature, and the \
         per-path from-scratch twin it replaced must not come back.",
        &[at("crates/core/src/workload_advisor/pricing.rs")],
        &["reprice_compute", "RepriceOut"],
        Reach::All,
    );
}

#[test]
fn sweep_memos_read_in_place_and_plans_share_paths() {
    const REASON: &str = "A warm epoch pays for its dirty set: the λ = 0 descent \
         reads each path's best-response trail where it lives instead of copying \
         every path's memo into its component job, and a plan shares the \
         advisor's paths instead of deep-copying the workload.";
    forbid(
        REASON,
        &files_in("crates/core/src/workload_advisor", ".rs"),
        &["sweep_memo.clone()"],
        Reach::All,
    );
    let plan = at("crates/core/src/workload_advisor/plan.rs");
    assert!(
        text(&plan).contains("pub path: Arc<Path>"),
        "{REASON}\n{}: no line declares `pub path: Arc<Path>`",
        shown(&plan)
    );
}

#[test]
fn one_component_build_in_oic_core() {
    // Test modules may build components to check the cache against: the
    // `tests.rs` files, and each file's inline test module.
    let files: Vec<PathBuf> = tree(["crates/core/src"])
        .into_iter()
        .filter(|file| !file.ends_with("tests.rs"))
        .collect();
    let sites = hits(&files, &["shard::components("], Reach::AboveTests);
    assert!(
        sites.len() == 1,
        "The candidate-sharing components are built in one place, the advisor's \
         cache fill, and kept while membership holds: a second build site would \
         bring back a rebuild on every call. Found {} sites:\n{}",
        sites.len(),
        sites.join("\n")
    );
}

#[test]
fn one_key_vector_per_interned_path() {
    forbid(
        "Interning probes borrowed slices of one key vector per path: a \
         per-subpath key vector, and the boxed lookup key built from it on every \
         probe, must not come back to the candidate space.",
        &[at("crates/core/src/space.rs")],
        &["step_keys("],
        Reach::All,
    );
}

// --- Documents and snapshots ---------------------------------------------

/// DESIGN.md's section numbers, from its `## N.` and `### N.M` headings.
fn design_sections() -> Vec<String> {
    text(&at("DESIGN.md"))
        .lines()
        .filter_map(|line| line.strip_prefix("## ").or(line.strip_prefix("### ")))
        .filter_map(section_number)
        .map(String::from)
        .collect()
}

/// The section number at the start of `s` (`5`, `5.12`), if any.
fn section_number(s: &str) -> Option<&str> {
    let mut end = 0;
    for (i, c) in s.char_indices() {
        let dot_then_digit = c == '.' && s[i + 1..].starts_with(|d: char| d.is_ascii_digit());
        if !(c.is_ascii_digit() || (end > 0 && dot_then_digit)) {
            break;
        }
        end = i + c.len_utf8();
    }
    (end > 0).then(|| &s[..end])
}

/// Every `DESIGN.md §N[.M]` that `source` cites, with its line: the `§`
/// may follow on the next line of a wrapped comment, and `§A/§B` cites
/// both.
fn design_citations(source: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (at, _) in source.match_indices("DESIGN.md") {
        let line = source[..at].matches('\n').count() + 1;
        let mut rest = source[at + "DESIGN.md".len()..]
            .trim_start_matches([' ', '\t'])
            .strip_prefix('\n')
            .map(|next| {
                next.trim_start()
                    .trim_start_matches(['/', '!', '*'])
                    .trim_start()
            })
            .unwrap_or_else(|| source[at + "DESIGN.md".len()..].trim_start_matches([' ', '\t']));
        while let Some(cited) = rest.strip_prefix('§') {
            let Some(number) = section_number(cited) else {
                break;
            };
            out.push((line, number.to_string()));
            rest = cited[number.len()..].strip_prefix('/').unwrap_or("");
        }
    }
    out
}

#[test]
fn design_section_references_resolve() {
    let sections = design_sections();
    assert!(
        sections.contains(&"5.19".to_string()),
        "DESIGN.md: no §5.19 heading: {sections:?}"
    );
    let mut cited = 0;
    let mut broken = Vec::new();
    for file in tree(["crates", "src", "tests", "examples"]) {
        if file.components().any(|part| part.as_os_str() == "target") {
            continue;
        }
        for (line, number) in design_citations(&text(&file)) {
            cited += 1;
            if !sections.contains(&number) {
                broken.push(format!("{}:{line}: DESIGN.md §{number}", shown(&file)));
            }
        }
    }
    assert!(cited > 0, "no `DESIGN.md §` citation found");
    assert!(
        broken.is_empty(),
        "Rustdoc and comments cite DESIGN.md by section number: every cited \
         section must have a heading in DESIGN.md.\n{}",
        broken.join("\n")
    );
}

#[test]
fn design_pins_name_live_tests() {
    let design = text(&at("DESIGN.md"));
    let mut section: Option<String> = None;
    let mut bodies: Vec<(String, Vec<(usize, &str)>)> = Vec::new();
    for (n, line) in design.lines().enumerate() {
        if line.starts_with('#') && line.trim_start_matches('#').starts_with(' ') {
            section = line
                .strip_prefix("### ")
                .and_then(section_number)
                .map(String::from);
            if let Some(number) = &section {
                bodies.push((number.clone(), Vec::new()));
            }
        } else if section.is_some() {
            bodies
                .last_mut()
                .expect("open section")
                .1
                .push((n + 1, line));
        }
    }
    let pinned: Vec<String> = (10..=19).map(|m| format!("5.{m}")).collect();
    let mut problems = Vec::new();
    for number in &pinned {
        let Some((_, body)) = bodies.iter().find(|(n, _)| n == number) else {
            problems.push(format!("DESIGN.md: no §{number} heading"));
            continue;
        };
        let Some(start) = body.iter().rposition(|(_, line)| *line == "Pinned by:") else {
            problems.push(format!(
                "DESIGN.md §{number}: does not end in a `Pinned by:` list"
            ));
            continue;
        };
        let list = &body[start + 1..];
        let mut listed = 0;
        for &(n, line) in list {
            if line.is_empty() || line.starts_with("  ") {
                continue;
            }
            let entry = line
                .strip_prefix("- `")
                .and_then(|rest| rest.split_once('`'))
                .map(|(entry, _)| entry);
            let Some((file, test)) = entry.and_then(|entry| entry.split_once("::")) else {
                problems.push(format!(
                    "DESIGN.md:{n}: §{number}'s `Pinned by:` list must end the section \
                     with `- `path/from/root.rs::test_fn`` entries, got: {line}"
                ));
                continue;
            };
            listed += 1;
            let test = test.rsplit("::").next().expect("a test name");
            let path = at(file);
            if !path.is_file() {
                problems.push(format!("DESIGN.md:{n}: {file}: no such file"));
            } else if !text(&path).contains(&format!("fn {test}(")) {
                problems.push(format!("DESIGN.md:{n}: {file} has no `fn {test}`"));
            }
        }
        if listed == 0 {
            problems.push(format!(
                "DESIGN.md §{number}: its `Pinned by:` list is empty"
            ));
        }
    }
    assert!(
        problems.is_empty(),
        "Every invariant of DESIGN.md §5.10–§5.19 names the live tests that pin \
         it: a pin that names a deleted or renamed test pins nothing.\n{}",
        problems.join("\n")
    );
}

#[test]
fn no_orphan_bench_snapshots() {
    let benches: Vec<String> = files_in("crates/bench/benches", ".rs")
        .iter()
        .map(|path| text(path))
        .collect();
    let snapshots: Vec<String> = files_in(".", ".json")
        .iter()
        .filter_map(|path| path.file_name()?.to_str().map(String::from))
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
