//! Shared helpers for the snapshot-writing benches in `benches/`.
//!
//! Both bench targets, `workload_scale_100k` and `candidate_mining`, commit
//! machine-readable results to the repository root (`BENCH_*.json`) so CI
//! and reviewers can diff performance claims. This module gives them one
//! tiny, dependency-free JSON value builder ([`Json`]) and one writer
//! ([`write_repo_snapshot`]) so every snapshot is valid JSON by
//! construction and is written to the same place the same way.

/// A JSON value with explicit float precision control (snapshots round
/// costs to fixed decimals so diffs stay readable).
#[derive(Debug, Clone)]
pub enum Json {
    /// A boolean.
    Bool(bool),
    /// An integer (covers `u64`/`u128` nanosecond counters).
    Int(i128),
    /// A float rendered with a fixed number of decimals.
    Fixed(f64, usize),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object from `(key, value)` pairs.
    pub fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Float with `precision` decimals (finite values only).
    pub fn fixed(value: f64, precision: usize) -> Json {
        assert!(value.is_finite(), "JSON cannot carry {value}");
        Json::Fixed(value, precision)
    }

    /// Renders with 2-space indentation and a trailing newline, matching
    /// the committed snapshot style.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        use std::fmt::Write as _;
        let pad = "  ".repeat(depth + 1);
        let close = "  ".repeat(depth);
        match self {
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Fixed(v, p) => {
                let _ = write!(out, "{v:.p$}");
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    item.write(out, depth + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&close);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    let _ = write!(out, "{pad}\"{k}\": ");
                    v.write(out, depth + 1);
                    out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
                }
                out.push_str(&close);
                out.push('}');
            }
        }
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Int(v as i128)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v as i128)
    }
}
impl From<u128> for Json {
    fn from(v: u128) -> Json {
        Json::Int(v as i128)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as i128)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

/// Writes a rendered snapshot to `<repo root>/<file_name>` (the bench crate
/// sits two levels below the root). Returns the absolute path written.
pub fn write_repo_snapshot(file_name: &str, json: &Json) -> std::io::Result<std::path::PathBuf> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file_name);
    std::fs::write(&path, json.render())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structures() {
        let j = Json::obj([
            ("bench", Json::from("demo")),
            ("ok", Json::from(true)),
            ("count", Json::from(3usize)),
            ("cost", Json::fixed(1.23456, 3)),
            (
                "rows",
                Json::Arr(vec![
                    Json::obj([("n", Json::from(1u64))]),
                    Json::Arr(vec![]),
                ]),
            ),
        ]);
        let s = j.render();
        assert!(s.contains("\"bench\": \"demo\""));
        assert!(s.contains("\"cost\": 1.235"));
        assert!(s.contains("\"rows\": [\n"));
        assert!(s.ends_with("}\n"));
    }

    #[test]
    fn escapes_strings() {
        let s = Json::Str("a\"b\\c\nd".into()).render();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"\n");
    }

    #[test]
    #[should_panic(expected = "JSON cannot carry")]
    fn rejects_non_finite_floats() {
        let _ = Json::fixed(f64::INFINITY, 2);
    }
}
