//! Index configurations (Definition 4.1).

use oic_cost::Org;
use oic_schema::SubpathId;
use std::fmt;
use std::sync::Arc;

/// What is allocated on a subpath: one of the paper's three organizations,
/// or nothing at all (the Section 6 “no index” extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Choice {
    /// An index of the given organization.
    Index(Org),
    /// No index; queries traverse the subpath by scanning (extension).
    NoIndex,
}

impl fmt::Display for Choice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Choice::Index(o) => write!(f, "{o}"),
            Choice::NoIndex => write!(f, "—"),
        }
    }
}

/// An index configuration `IC_m(P)` of degree `m` (Definition 4.1): a
/// sequence of `(subpath, index)` pairs whose subpaths concatenate to the
/// full path — every class belongs to exactly one subpath.
///
/// The pairs are shared: a clone is a reference-count bump, so a plan
/// that reports an unchanged configuration again copies no pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexConfiguration {
    pairs: Arc<[(SubpathId, Choice)]>,
}

impl IndexConfiguration {
    /// Builds a configuration, validating the concatenation property
    /// against a path of length `path_len`.
    pub fn new(pairs: Vec<(SubpathId, Choice)>, path_len: usize) -> Result<Self, String> {
        Self::collect(pairs, path_len)
    }

    /// [`Self::new`] over any sequence of pairs, collected straight into
    /// the shared slice.
    pub(crate) fn collect(
        pairs: impl IntoIterator<Item = (SubpathId, Choice)>,
        path_len: usize,
    ) -> Result<Self, String> {
        let pairs: Arc<[(SubpathId, Choice)]> = pairs.into_iter().collect();
        if pairs.is_empty() {
            return Err("a configuration needs at least one subpath".into());
        }
        let mut expect = 1usize;
        for (sub, _) in pairs.iter() {
            if sub.start != expect {
                return Err(format!(
                    "subpath {sub} does not start at position {expect}; \
                     subpaths must concatenate to the full path"
                ));
            }
            if sub.end < sub.start {
                return Err(format!("subpath {sub} is inverted"));
            }
            expect = sub.end + 1;
        }
        if expect != path_len + 1 {
            return Err(format!(
                "configuration covers positions 1..{}, path has length {path_len}",
                expect - 1
            ));
        }
        Ok(IndexConfiguration { pairs })
    }

    /// Whole-path configuration of degree 1.
    pub fn whole_path(org: Org, path_len: usize) -> Self {
        let whole = SubpathId {
            start: 1,
            end: path_len,
        };
        IndexConfiguration {
            pairs: Arc::new([(whole, Choice::Index(org))]),
        }
    }

    /// Every position its own subpath, each under `choice`: degree
    /// `path_len`.
    pub(crate) fn singletons(choice: Choice, path_len: usize) -> Self {
        IndexConfiguration {
            pairs: (1..=path_len)
                .map(|l| (SubpathId { start: l, end: l }, choice))
                .collect(),
        }
    }

    /// The `(subpath, choice)` pairs in path order.
    pub fn pairs(&self) -> &[(SubpathId, Choice)] {
        &self.pairs
    }

    /// Degree `m` — the number of subpaths.
    pub fn degree(&self) -> usize {
        self.pairs.len()
    }

    /// Renders against a schema/path for human-readable reports, e.g.
    /// `{(Person.owns.man, NIX), (Company.divs.name, MX)}`.
    pub fn render(&self, schema: &oic_schema::Schema, path: &oic_schema::Path) -> String {
        let parts: Vec<String> = self
            .pairs
            .iter()
            .map(|(sub, c)| {
                let sp = path
                    .subpath(schema, *sub)
                    .map(|p| p.display().to_string())
                    .unwrap_or_else(|_| sub.to_string());
                format!("({sp}, {c})")
            })
            .collect();
        format!("{{{}}}", parts.join(", "))
    }
}

impl fmt::Display for IndexConfiguration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self
            .pairs
            .iter()
            .map(|(s, c)| format!("({s}, {c})"))
            .collect();
        write!(f, "{{{}}}", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(s: usize, e: usize) -> SubpathId {
        SubpathId { start: s, end: e }
    }

    #[test]
    fn valid_configuration() {
        let c = IndexConfiguration::new(
            vec![
                (sid(1, 2), Choice::Index(Org::Nix)),
                (sid(3, 4), Choice::Index(Org::Mx)),
            ],
            4,
        )
        .unwrap();
        assert_eq!(c.degree(), 2);
        assert_eq!(c.pairs()[0].0.end, 2);
    }

    #[test]
    fn gaps_and_overlaps_rejected() {
        assert!(IndexConfiguration::new(
            vec![
                (sid(1, 2), Choice::Index(Org::Mx)),
                (sid(4, 4), Choice::Index(Org::Mx)),
            ],
            4
        )
        .is_err());
        assert!(IndexConfiguration::new(
            vec![
                (sid(1, 3), Choice::Index(Org::Mx)),
                (sid(3, 4), Choice::Index(Org::Mx)),
            ],
            4
        )
        .is_err());
        assert!(IndexConfiguration::new(vec![(sid(1, 3), Choice::Index(Org::Mx))], 4).is_err());
        assert!(IndexConfiguration::new(vec![], 4).is_err());
    }

    #[test]
    fn whole_path_constructor() {
        let c = IndexConfiguration::whole_path(Org::Nix, 5);
        assert_eq!(c.degree(), 1);
        assert_eq!(c.pairs()[0].0, sid(1, 5));
    }

    #[test]
    fn display_renders_pairs() {
        let c = IndexConfiguration::whole_path(Org::Nix, 2);
        assert_eq!(c.to_string(), "{(S1,2, NIX)}");
    }

    #[test]
    fn render_with_schema() {
        let (schema, _) = oic_schema::fixtures::paper_schema();
        let path = oic_schema::fixtures::paper_path_pexa(&schema);
        let c = IndexConfiguration::new(
            vec![
                (sid(1, 2), Choice::Index(Org::Nix)),
                (sid(3, 4), Choice::Index(Org::Mx)),
            ],
            4,
        )
        .unwrap();
        let r = c.render(&schema, &path);
        assert!(r.contains("Person.owns.man"));
        assert!(r.contains("Company.divs.name"));
        assert!(r.contains("NIX") && r.contains("MX"));
    }
}
