//! The `Opt_Ind_Con` procedure: branch-and-bound selection (Section 5),
//! the exhaustive `2^(n-1)` baseline, [`opt_ind_con_dp`] — the polynomial
//! interval dynamic program over the same candidate space — and its
//! two-objective generalization [`frontier_dp`], which carries `(cost,
//! size)` Pareto label sets through the same recurrence and answers *"the
//! cheapest configuration within a page budget"* for any budget at once.

use crate::trace::TraceEvent;
use crate::{Choice, CostMatrix, IndexConfiguration};
use oic_schema::SubpathId;

/// `2^(n-1)` — the recombination count of Section 5, saturating for paths
/// long enough to overflow (the DP handles those; enumeration never could).
pub fn candidate_space_size(n: usize) -> u64 {
    if n == 0 {
        0
    } else if n > u64::BITS as usize {
        u64::MAX
    } else {
        1u64 << (n - 1)
    }
}

/// Outcome of a selection run.
#[derive(Debug, Clone)]
pub struct SelectionResult {
    /// The optimal configuration.
    pub best: IndexConfiguration,
    /// Its processing cost (`PC_min`).
    pub cost: f64,
    /// Number of *complete* configurations whose total cost was computed.
    /// The paper reports this as “the procedure found the optimal
    /// configuration by exploring 4 index configurations instead of … 8”.
    pub evaluated: u64,
    /// Number of branch-and-bound cut-offs (partial prefixes abandoned
    /// because their accumulated cost already reached `PC_min`).
    pub pruned: u64,
    /// Total candidate space, `2^(n-1)`.
    pub candidate_space: u64,
}

/// Branch and bound over the recombinations of subpaths (Section 5).
///
/// The search follows the paper's order exactly: from any starting position
/// it first tries the longest remaining piece (the whole-path configuration
/// is therefore the first candidate evaluated, initializing `PC_min`), then
/// progressively shorter leading pieces. A partial prefix whose accumulated
/// minimum cost already reaches `PC_min` is abandoned together with every
/// configuration containing it; a piece that completes the path is always
/// evaluated against `PC_min` (computing its total *is* the evaluation).
pub fn opt_ind_con(matrix: &CostMatrix) -> SelectionResult {
    search(matrix, |_| ())
}

/// [`opt_ind_con`] reporting every evaluation and cut-off, in search
/// order, to `sink`. The event is handed over unbuilt, so a sink that
/// ignores it (the plain search) pays nothing for the narration.
pub(crate) fn search(
    matrix: &CostMatrix,
    sink: impl FnMut(&dyn Fn() -> TraceEvent),
) -> SelectionResult {
    let n = matrix.path_len();
    let mut state = Search {
        matrix,
        n,
        best: Vec::new(),
        best_cost: f64::INFINITY,
        evaluated: 0,
        pruned: 0,
        sink,
    };
    state.descend(1, 0.0, &mut Vec::new());
    let best = IndexConfiguration::new(state.best, n)
        .expect("search always finds a covering configuration");
    SelectionResult {
        best,
        cost: state.best_cost,
        evaluated: state.evaluated,
        pruned: state.pruned,
        candidate_space: candidate_space_size(n),
    }
}

/// `Opt_Ind_Con_DP` — exact selection by interval dynamic programming in
/// `O(n² · |choices|²)` time, replacing the `2^(n-1)` recombination search.
///
/// The path-partitioning structure the paper enumerates admits a polynomial
/// optimum (Jordan et al., *Optimal On The Fly Index Selection in Polynomial
/// Time*): every configuration is a sequence of cut positions, so the prefix
/// optima compose. The DP state is `(j, X)` — *the last piece ends at
/// position `j` and is organized as `X`* — and the transition closes a piece
/// `S_{i,j}`:
///
/// ```text
/// dp[j][X] = min over i ≤ j, Y:  dp[i-1][Y] + a(S_{i,j}, X)
/// ```
///
/// The `(j, X)` state carries the Section 4 adjacency coupling: the `CMD`
/// term — extra maintenance on the piece *preceding* a cut when an object
/// of the next piece's starting class is deleted — is priced by
/// `a(S_{i,j}, X)` against `X`, the organization that owns the boundary
/// index. Note that because Definition 4.2 folds `CMD` into the preceding
/// subpath's own cell, `a` is independent of the *successor*'s organization
/// `Y`; the min over `Y` therefore collapses into a running prefix optimum
/// and the implementation performs `O(n² · |choices|)` transitions. The
/// per-`X` state dimension is retained deliberately — it is where a
/// boundary term that *did* depend on the successor's organization would
/// live (a cost model pricing, say, cross-index pointer rewrites), and it
/// is what the reconstruction reads the chosen organizations from.
///
/// `evaluated` counts DP transitions (pieces priced), the polynomial
/// analogue of the branch-and-bound's evaluated-configuration counter;
/// `pruned` is always 0. Considers the no-index column when present,
/// with the same tie-breaking as [`CostMatrix::min_cost`] (first column
/// wins ties, longer last piece preferred like the paper's search order).
///
/// This is the **size-blind specialization** of [`frontier_dp`]: on a
/// size-free matrix every frontier label set collapses to exactly this
/// scalar optimum, and on sized matrices the frontier's cost minimum
/// equals this cost (property-tested; configurations agree up to cost
/// ties, where the frontier prefers the leaner one). The scalar recurrence
/// is kept as its own implementation so the `O(n²·|Org|)` bound — and the
/// scaling-bench story against branch and bound — survives on matrices
/// that carry a size plane, where the frontier's label sets cost real
/// work the cost-only callers never read.
pub fn opt_ind_con_dp(matrix: &CostMatrix) -> SelectionResult {
    use oic_cost::Org;
    let n = matrix.path_len();
    let mut choices: Vec<Choice> = Org::ALL.iter().copied().map(Choice::Index).collect();
    if matrix.has_no_index() {
        choices.push(Choice::NoIndex);
    }
    let nch = choices.len();
    // dp[j][c]: cheapest cover of positions 1..=j whose last piece uses
    // choices[c]; parent[j][c] = (start of last piece, choice index of the
    // piece before it; usize::MAX when the last piece starts at 1).
    let mut dp = vec![vec![f64::INFINITY; nch]; n + 1];
    let mut parent = vec![vec![(0usize, usize::MAX); nch]; n + 1];
    // Prefix optimum min_Y dp[j][Y] together with its arg, so the inner
    // loop stays O(|choices|) per (i, j) pair.
    let mut prefix_best = vec![(f64::INFINITY, usize::MAX); n + 1];
    prefix_best[0] = (0.0, usize::MAX);
    let mut evaluated = 0u64;
    for j in 1..=n {
        // Longer pieces first (i ascending), matching the paper's search
        // order so cost ties resolve toward the same configuration as the
        // branch and bound.
        for i in 1..=j {
            let sub = SubpathId { start: i, end: j };
            let (prev_cost, prev_choice) = prefix_best[i - 1];
            if !prev_cost.is_finite() {
                continue;
            }
            for (c, &choice) in choices.iter().enumerate() {
                let piece = matrix.choice_cost(sub, choice);
                evaluated += 1;
                let total = prev_cost + piece;
                if total < dp[j][c] {
                    dp[j][c] = total;
                    parent[j][c] = (i, prev_choice);
                }
            }
        }
        let mut best = (f64::INFINITY, usize::MAX);
        for (c, &cost) in dp[j].iter().enumerate() {
            if cost < best.0 {
                best = (cost, c);
            }
        }
        prefix_best[j] = best;
    }
    // Reconstruct the optimal configuration back-to-front.
    let (cost, mut c) = prefix_best[n];
    debug_assert!(cost.is_finite(), "matrix rows must cover the path");
    let mut pairs = Vec::new();
    let mut j = n;
    while j > 0 {
        let (i, prev_c) = parent[j][c];
        pairs.push((SubpathId { start: i, end: j }, choices[c]));
        j = i - 1;
        c = prev_c;
    }
    pairs.reverse();
    SelectionResult {
        best: IndexConfiguration::new(pairs, n).expect("DP pieces concatenate to the full path"),
        cost,
        evaluated,
        pruned: 0,
        candidate_space: candidate_space_size(n),
    }
}

/// One Pareto-optimal outcome of [`frontier_dp`]: a configuration, its
/// processing cost, and its footprint in pages.
#[derive(Debug, Clone)]
pub struct FrontierPoint {
    /// Total processing cost of the configuration.
    pub cost: f64,
    /// Total footprint in pages (the matrix's size plane summed over the
    /// pieces).
    pub size: f64,
    /// The configuration realizing this `(cost, size)` trade-off.
    pub config: IndexConfiguration,
}

/// The Pareto frontier of a path's `(cost, size)` trade-off, with the DP
/// telemetry mirroring [`SelectionResult`].
#[derive(Debug, Clone)]
pub struct FrontierResult {
    /// Pareto-optimal points, cost strictly ascending / size strictly
    /// descending. Never empty for a matrix whose rows cover the path: the
    /// first point is the unconstrained cost optimum, the last the
    /// smallest-footprint configuration worth considering.
    pub points: Vec<FrontierPoint>,
    /// Pieces priced — one per `(start, end, choice)` with a reachable
    /// prefix; equals [`opt_ind_con_dp`]'s transition count.
    pub evaluated: u64,
    /// Label extensions performed (the extra work the frontier carries over
    /// the scalar DP; equals `evaluated` when every label set is a
    /// singleton, i.e. on size-free matrices).
    pub labels: u64,
    /// Total candidate space, `2^(n-1)`.
    pub candidate_space: u64,
}

impl FrontierResult {
    /// The unconstrained cost optimum — the frontier's first point.
    pub fn min_cost(&self) -> &FrontierPoint {
        self.points.first().expect("matrix rows cover the path")
    }

    /// The cheapest configuration whose footprint fits `budget_pages`, or
    /// `None` when even the smallest-footprint point exceeds the budget.
    /// Costs ascend along the frontier as sizes descend, so the first
    /// fitting point is the answer.
    pub fn within_budget(&self, budget_pages: f64) -> Option<&FrontierPoint> {
        self.points.iter().find(|p| p.size <= budget_pages)
    }
}

/// One DP label: a Pareto-optimal `(cost, size)` way to cover positions
/// `1..=j`, remembering the last piece (`start`, `choice`) and the label of
/// the prefix it extends (`parent`, an index into position `start - 1`'s
/// label set) for reconstruction.
#[derive(Debug, Clone, Copy)]
struct Label {
    cost: f64,
    size: f64,
    start: usize,
    choice: usize,
    parent: usize,
}

/// `Frontier_DP` — the two-objective generalization of [`opt_ind_con_dp`]:
/// the same interval recurrence, but the state carries a **Pareto label
/// set** of `(cost, size)` pairs instead of a scalar, so one sweep yields
/// the whole cost-vs-footprint frontier of the path.
///
/// The scalar DP's state is `(end position j, organization of the last
/// piece)`; as there, the boundary `CMD` term is folded into the preceding
/// piece's own cell (Definition 4.2), so nothing in a transition depends on
/// the *successor's* organization and the per-organization dimension
/// collapses into one label set per position — each label records its last
/// piece's organization, which is all reconstruction needs. A transition
/// closes a piece `S_{i,j}` under choice `X`, extending every label of
/// position `i - 1` by `(a(S_{i,j}, X), size(S_{i,j}, X))`; dominated
/// extensions are pruned immediately, so label sets stay frontier-sized.
///
/// On a size-free matrix ([`CostMatrix::from_values`]) every label set
/// collapses to [`opt_ind_con_dp`]'s scalar singleton optimum — same
/// tie-breaking (longest last piece, first organization column),
/// bit-identical costs and configurations — so the scalar DP is exactly
/// this function's size-blind specialization (pinned by the fixture and
/// property tests; the scalar recurrence keeps its own `O(n²·|Org|)`
/// implementation for the cost-only hot paths). Ties in cost between
/// configurations of different footprint keep the smaller footprint (the
/// dominance rule), so on sized matrices the frontier's cost optimum is
/// the cheapest-to-store among cost-optimal configurations.
pub fn frontier_dp(matrix: &CostMatrix) -> FrontierResult {
    use oic_cost::Org;
    let n = matrix.path_len();
    let mut choices: Vec<Choice> = Org::ALL.iter().copied().map(Choice::Index).collect();
    if matrix.has_no_index() {
        choices.push(Choice::NoIndex);
    }
    // labels[j]: the Pareto set over covers of 1..=j. labels[0] is the
    // empty-prefix seed.
    let mut labels: Vec<Vec<Label>> = Vec::with_capacity(n + 1);
    labels.push(vec![Label {
        cost: 0.0,
        size: 0.0,
        start: 0,
        choice: usize::MAX,
        parent: usize::MAX,
    }]);
    let mut evaluated = 0u64;
    let mut label_work = 0u64;
    for j in 1..=n {
        let mut raw: Vec<Label> = Vec::new();
        // Choice-major, then longer pieces first (i ascending): with the
        // keep-first-on-ties prune below this reproduces the scalar DP's
        // tie-breaking exactly (first organization column, longest last
        // piece), because the earliest generated label among equals wins.
        for (c, &choice) in choices.iter().enumerate() {
            for i in 1..=j {
                if labels[i - 1].is_empty() {
                    continue;
                }
                let sub = SubpathId { start: i, end: j };
                let piece_cost = matrix.choice_cost(sub, choice);
                evaluated += 1;
                if !piece_cost.is_finite() {
                    continue;
                }
                let piece_size = matrix.choice_size(sub, choice);
                for (pi, prev) in labels[i - 1].iter().enumerate() {
                    raw.push(Label {
                        cost: prev.cost + piece_cost,
                        size: prev.size + piece_size,
                        start: i,
                        choice: c,
                        parent: pi,
                    });
                    label_work += 1;
                }
            }
        }
        labels.push(pareto_prune(raw));
    }
    // Each surviving label of position n is one frontier point; walk the
    // parent chain to reconstruct its configuration.
    let points = labels[n]
        .iter()
        .map(|label| {
            let mut pairs = Vec::new();
            let mut j = n;
            let mut cur = *label;
            loop {
                pairs.push((
                    SubpathId {
                        start: cur.start,
                        end: j,
                    },
                    choices[cur.choice],
                ));
                if cur.start == 1 {
                    break;
                }
                j = cur.start - 1;
                cur = labels[j][cur.parent];
            }
            pairs.reverse();
            FrontierPoint {
                cost: label.cost,
                size: label.size,
                config: IndexConfiguration::new(pairs, n)
                    .expect("DP pieces concatenate to the full path"),
            }
        })
        .collect();
    FrontierResult {
        points,
        evaluated,
        labels: label_work,
        candidate_space: candidate_space_size(n),
    }
}

/// Pareto-prunes labels: sorted by cost, keep only strict improvements in
/// size. Equal `(cost, size)` keeps the earliest-generated label (the
/// scalar DP's tie-breaking); equal cost with different sizes keeps the
/// smaller size (it dominates).
fn pareto_prune(raw: Vec<Label>) -> Vec<Label> {
    let mut order: Vec<usize> = (0..raw.len()).collect();
    order.sort_by(|&a, &b| {
        raw[a]
            .cost
            .total_cmp(&raw[b].cost)
            .then(raw[a].size.total_cmp(&raw[b].size))
            .then(a.cmp(&b))
    });
    let mut out = Vec::new();
    let mut min_size = f64::INFINITY;
    for idx in order {
        if raw[idx].size < min_size {
            min_size = raw[idx].size;
            out.push(raw[idx]);
        }
    }
    // Sorted by cost ascending (the sort order), size strictly descending
    // (the sweep's keep rule).
    out
}

/// Exhaustive `(cost, size)` Pareto frontier over all `2^(n-1)`
/// recombinations × per-piece choices — the brute-force baseline
/// [`frontier_dp`] is verified against. Returns `(cost, size)` pairs, cost
/// ascending.
pub fn exhaustive_frontier(matrix: &CostMatrix) -> Vec<(f64, f64)> {
    use oic_cost::Org;
    let n = matrix.path_len();
    let mut choices: Vec<Choice> = Org::ALL.iter().copied().map(Choice::Index).collect();
    if matrix.has_no_index() {
        choices.push(Choice::NoIndex);
    }
    let prune_pairs = |mut pairs: Vec<(f64, f64)>| -> Vec<(f64, f64)> {
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let mut out: Vec<(f64, f64)> = Vec::new();
        let mut min_size = f64::INFINITY;
        for (c, s) in pairs {
            if s < min_size {
                min_size = s;
                out.push((c, s));
            }
        }
        out
    };
    let mut all: Vec<(f64, f64)> = Vec::new();
    for mask in 0..(1u64 << (n - 1)) {
        let mut acc = vec![(0.0f64, 0.0f64)];
        let mut start = 1usize;
        for pos in 1..=n {
            let cut = pos == n || (mask >> (pos - 1)) & 1 == 1;
            if !cut {
                continue;
            }
            let sub = SubpathId { start, end: pos };
            let mut next = Vec::new();
            for &choice in &choices {
                let c = matrix.choice_cost(sub, choice);
                if !c.is_finite() {
                    continue;
                }
                let s = matrix.choice_size(sub, choice);
                for &(ac, asz) in &acc {
                    next.push((ac + c, asz + s));
                }
            }
            acc = prune_pairs(next);
            start = pos + 1;
        }
        all.extend(acc);
    }
    prune_pairs(all)
}

struct Search<'a, S> {
    matrix: &'a CostMatrix,
    n: usize,
    best: Vec<(SubpathId, Choice)>,
    best_cost: f64,
    evaluated: u64,
    pruned: u64,
    sink: S,
}

impl<S: FnMut(&dyn Fn() -> TraceEvent)> Search<'_, S> {
    fn descend(&mut self, start: usize, acc: f64, pieces: &mut Vec<(SubpathId, Choice)>) {
        // Longest-first, per the paper's walkthrough.
        for end in (start..=self.n).rev() {
            let sub = SubpathId { start, end };
            let (choice, cost) = self.matrix.min_cost(sub);
            let total = acc + cost;
            pieces.push((sub, choice));
            if end == self.n {
                // Completing piece: computing the sum is the evaluation.
                self.evaluated += 1;
                let new_best = total < self.best_cost;
                if new_best {
                    self.best_cost = total;
                    self.best.clone_from(pieces);
                }
                (self.sink)(&|| TraceEvent::Evaluated {
                    pieces: pieces.clone(),
                    cost: total,
                    new_best,
                });
            } else if total >= self.best_cost {
                // “… the index configuration including S will not be
                // considered any longer since its processing cost will be
                // higher than the processing cost of the best one.”
                self.pruned += 1;
                (self.sink)(&|| TraceEvent::Pruned {
                    pieces: pieces.clone(),
                    accumulated: total,
                    bound: self.best_cost,
                });
            } else {
                self.descend(end + 1, total, pieces);
            }
            pieces.pop();
        }
    }
}

/// Exhaustive baseline: enumerates all `2^(n-1)` recombinations, evaluating
/// each with the per-row minima. Used to verify branch and bound and for the
/// Section 5 complexity experiment.
pub fn exhaustive(matrix: &CostMatrix) -> SelectionResult {
    let n = matrix.path_len();
    let total = 1u64 << (n - 1);
    let mut best_cost = f64::INFINITY;
    let mut best: Vec<(SubpathId, Choice)> = Vec::new();
    for mask in 0..total {
        // Bit i set (i in 0..n-1) = a cut after position i+1.
        let mut parts = Vec::new();
        let mut start = 1usize;
        let mut cost = 0.0;
        for pos in 1..=n {
            let cut = pos == n || (mask >> (pos - 1)) & 1 == 1;
            if cut {
                let sub = SubpathId { start, end: pos };
                let (choice, c) = matrix.min_cost(sub);
                parts.push((sub, choice));
                cost += c;
                start = pos + 1;
            }
        }
        if cost < best_cost {
            best_cost = cost;
            best = parts;
        }
    }
    SelectionResult {
        best: IndexConfiguration::new(best, n).expect("masks cover the path"),
        cost: best_cost,
        evaluated: total,
        pruned: 0,
        candidate_space: total,
    }
}

/// CoPhy-style dominance pruning over a path's `(subpath rank ×
/// organization)` cell grid: a 3-bit mask per rank marking cells provably
/// absent from every optimum of [`opt_ind_con_dp`] on the full matrix —
/// under **any** sharing context, because covered cells bypass the mask
/// entirely (the advisor prices them before consulting it).
///
/// `query[r][o]` / `maint[r][o]` / `sizes[r][o]` are the query share, the
/// maintenance price and the page size of rank `r` under organization `o`;
/// `n` is the path length. Two strict arguments, both piece-local (the
/// DP's transition reads one `choice_cost` per piece, so replacing a
/// piece's cells never touches the rest of a configuration):
///
/// * **Org dominance** — prune `(r, o)` iff some other organization `o'`
///   at the same rank has `query[r][o] > query[r][o'] + maint[r][o']`
///   **and** `sizes[r][o'] ≤ sizes[r][o]`: even paying `o`'s query share
///   alone beats `o'`'s *full* price, and the swap never pays more pages.
///   The `(q + m)`-argmin organization always survives (`q ≤ q + m` as
///   `m ≥ 0`), so no rank is ever erased by this rule.
/// * **Rank elimination** — for a non-singleton rank, prune all three
///   cells iff `min_o query[r][o]` strictly exceeds the summed
///   singleton-replacement floor `Σ_{l ∈ r} min_o(query + maint)` at each
///   position's singleton rank, **and** the replacement's summed argmin
///   sizes fit under `min_o sizes[r][o]`: breaking the piece into
///   singletons is strictly cheaper than its query share alone and never
///   fatter. The replacement's argmin cells survive org dominance by the
///   first rule, and only this rule ever yields `0b111`.
///
/// Both bounds are **λ-uniform**: a struck cell prices as `q + m + λ·s`
/// for every `λ ≥ 0`, and its dominator's price `q' + m' + λ·s'` sits
/// strictly below it (`q > q' + m'` strictly on the cost axis, `s' ≤ s`
/// on the size axis) — so `cost + λ·size` can never win *or tie* for any
/// non-negative λ. The same swap shrinks both coordinates of any Pareto
/// label a struck cell could seed, so [`frontier_dp`]'s label sets are
/// unchanged too. Covered dominators only get cheaper (they pay `q'`
/// alone at size 0), which preserves the bound.
///
/// Strictness is what preserves **bit-identity**: a pruned cell's every DP
/// total is strictly above the prefix minimum at its column's position, so
/// it can neither win nor *tie* any `parent`/`prefix_best` entry on the
/// reconstruction chain — costs and tie-broken selections are unchanged,
/// not merely cost-equal (property-tested below and in `oic-sim`), at
/// λ = 0 and under every λ-priced sweep.
///
/// Bans are the one context the mask does not see: the advisor's eviction
/// trials re-validate per rank that no banned candidate participates in a
/// bound before applying it (`workload_advisor`'s `priced_matrix` carve-outs).
pub fn prune_dominated(
    query: &[[f64; 3]],
    maint: &[[f64; 3]],
    sizes: &[[f64; 3]],
    n: usize,
) -> Vec<u8> {
    let ranks = SubpathId::count(n);
    debug_assert_eq!(query.len(), ranks);
    debug_assert_eq!(maint.len(), ranks);
    debug_assert_eq!(sizes.len(), ranks);
    // Full-price floor of each position's singleton rank, plus the size of
    // the argmin cell realizing it (ties broken toward the thinner cell,
    // then the first organization — deterministic, and the thinner the
    // replacement the more ranks the size condition lets us strike).
    let mut single = vec![(f64::INFINITY, f64::INFINITY); n + 1];
    for (l, slot) in single.iter_mut().enumerate().skip(1) {
        let r = SubpathId { start: l, end: l }.rank(n);
        for o in 0..3 {
            let full = query[r][o] + maint[r][o];
            if full < slot.0 || (full == slot.0 && sizes[r][o] < slot.1) {
                *slot = (full, sizes[r][o]);
            }
        }
    }
    (0..ranks)
        .map(|r| {
            let sub = SubpathId::from_rank(n, r);
            let mut mask = 0u8;
            for (o, &q) in query[r].iter().enumerate() {
                let dominated = (0..3).any(|alt| {
                    alt != o && q > query[r][alt] + maint[r][alt] && sizes[r][alt] <= sizes[r][o]
                });
                if dominated {
                    mask |= 1 << o;
                }
            }
            if sub.start < sub.end {
                let (repl_cost, repl_size) = (sub.start..=sub.end)
                    .map(|l| single[l])
                    .fold((0.0, 0.0), |(c, s), (fc, fs)| (c + fc, s + fs));
                let cheapest = (0..3).map(|o| query[r][o]).fold(f64::INFINITY, f64::min);
                let thinnest = (0..3).map(|o| sizes[r][o]).fold(f64::INFINITY, f64::min);
                if cheapest > repl_cost && repl_size <= thinnest {
                    mask = 0b111;
                }
            }
            mask
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oic_cost::Org;

    fn sid(s: usize, e: usize) -> SubpathId {
        SubpathId { start: s, end: e }
    }

    /// A 3-position matrix where splitting wins.
    fn split_wins() -> CostMatrix {
        CostMatrix::from_values(
            3,
            &[
                (sid(1, 1), [1.0, 5.0, 5.0]),
                (sid(2, 2), [5.0, 1.0, 5.0]),
                (sid(3, 3), [5.0, 5.0, 1.0]),
                (sid(1, 2), [9.0, 9.0, 9.0]),
                (sid(2, 3), [9.0, 9.0, 9.0]),
                (sid(1, 3), [9.0, 9.0, 8.0]),
            ],
        )
    }

    /// A matrix where the whole path wins.
    fn whole_wins() -> CostMatrix {
        CostMatrix::from_values(
            3,
            &[
                (sid(1, 1), [4.0, 5.0, 5.0]),
                (sid(2, 2), [4.0, 5.0, 5.0]),
                (sid(3, 3), [4.0, 5.0, 5.0]),
                (sid(1, 2), [7.0, 9.0, 9.0]),
                (sid(2, 3), [7.0, 9.0, 9.0]),
                (sid(1, 3), [9.0, 9.0, 2.0]),
            ],
        )
    }

    #[test]
    fn bb_finds_three_way_split() {
        let r = opt_ind_con(&split_wins());
        assert_eq!(r.cost, 3.0);
        assert_eq!(r.best.degree(), 3);
        assert_eq!(r.best.pairs()[0], (sid(1, 1), Choice::Index(Org::Mx)));
        assert_eq!(r.best.pairs()[1], (sid(2, 2), Choice::Index(Org::Mix)));
        assert_eq!(r.best.pairs()[2], (sid(3, 3), Choice::Index(Org::Nix)));
    }

    #[test]
    fn bb_keeps_whole_path_when_best() {
        let r = opt_ind_con(&whole_wins());
        assert_eq!(r.cost, 2.0);
        assert_eq!(r.best.degree(), 1);
        // With PC_min = 2 after the first candidate, every proper prefix
        // (cost ≥ 4) is pruned immediately: only 1 evaluation.
        assert_eq!(r.evaluated, 1);
        assert_eq!(r.pruned, 2, "prefixes S1,2 and S1,1");
    }

    #[test]
    fn bb_matches_exhaustive() {
        for m in [split_wins(), whole_wins()] {
            let a = opt_ind_con(&m);
            let b = exhaustive(&m);
            assert_eq!(a.cost, b.cost);
            assert_eq!(a.best.pairs(), b.best.pairs());
            assert!(a.evaluated <= b.evaluated);
        }
    }

    #[test]
    fn exhaustive_candidate_count() {
        let r = exhaustive(&split_wins());
        assert_eq!(r.candidate_space, 4);
        assert_eq!(r.evaluated, 4);
    }

    #[test]
    fn single_position_path() {
        let m = CostMatrix::from_values(1, &[(sid(1, 1), [2.0, 3.0, 4.0])]);
        let r = opt_ind_con(&m);
        assert_eq!(r.cost, 2.0);
        assert_eq!(r.best.degree(), 1);
        assert_eq!(r.candidate_space, 1);
    }

    #[test]
    fn dp_matches_exhaustive_on_fixtures() {
        for m in [split_wins(), whole_wins(), crate::fig6::fig6_matrix()] {
            let dp = opt_ind_con_dp(&m);
            let ex = exhaustive(&m);
            assert!((dp.cost - ex.cost).abs() < 1e-9);
            assert_eq!(dp.best.pairs(), ex.best.pairs());
            // The configuration's cost re-derives from the matrix cells.
            let derived: f64 = dp
                .best
                .pairs()
                .iter()
                .map(|&(sub, choice)| match choice {
                    Choice::Index(org) => m.cost(sub, org),
                    Choice::NoIndex => unreachable!("no-index column not built"),
                })
                .sum();
            assert!((derived - dp.cost).abs() < 1e-9);
        }
    }

    #[test]
    fn dp_transition_count_is_polynomial() {
        let m = split_wins();
        let dp = opt_ind_con_dp(&m);
        // n(n+1)/2 pieces × 3 organizations.
        assert_eq!(dp.evaluated, 6 * 3);
        assert_eq!(dp.pruned, 0);
        assert_eq!(dp.candidate_space, 4);
    }

    #[test]
    fn dp_single_position_path() {
        let m = CostMatrix::from_values(1, &[(sid(1, 1), [2.0, 3.0, 4.0])]);
        let r = opt_ind_con_dp(&m);
        assert_eq!(r.cost, 2.0);
        assert_eq!(r.best.pairs(), &[(sid(1, 1), Choice::Index(Org::Mx))]);
    }

    /// A 3-position matrix with a real cost-vs-size tension: the cheap
    /// whole-path NIX is fat, the per-position MX split is lean but slower.
    fn tension() -> CostMatrix {
        CostMatrix::from_values_with_sizes(
            3,
            &[
                (sid(1, 1), [4.0, 5.0, 6.0], [10.0, 12.0, 20.0]),
                (sid(2, 2), [4.0, 5.0, 6.0], [10.0, 12.0, 20.0]),
                (sid(3, 3), [4.0, 5.0, 6.0], [10.0, 12.0, 20.0]),
                (sid(1, 2), [9.0, 8.0, 7.0], [25.0, 30.0, 60.0]),
                (sid(2, 3), [9.0, 8.0, 7.0], [25.0, 30.0, 60.0]),
                (sid(1, 3), [9.0, 9.0, 2.0], [40.0, 50.0, 100.0]),
            ],
        )
    }

    #[test]
    fn frontier_matches_exhaustive_on_fixtures() {
        for m in [
            split_wins(),
            whole_wins(),
            tension(),
            crate::fig6::fig6_matrix(),
        ] {
            let f = frontier_dp(&m);
            let ex = exhaustive_frontier(&m);
            assert_eq!(f.points.len(), ex.len(), "frontier cardinality");
            for (p, &(c, s)) in f.points.iter().zip(&ex) {
                assert!((p.cost - c).abs() < 1e-9, "{} vs {c}", p.cost);
                assert!((p.size - s).abs() < 1e-9, "{} vs {s}", p.size);
                // Each point's (cost, size) re-derives from its config.
                let derived_cost: f64 = p
                    .config
                    .pairs()
                    .iter()
                    .map(|&(sub, ch)| m.choice_cost(sub, ch))
                    .sum();
                let derived_size = m.configuration_size(&p.config);
                assert!((derived_cost - p.cost).abs() < 1e-9);
                assert!((derived_size - p.size).abs() < 1e-9);
            }
            // Frontier shape: cost strictly ascending, size strictly
            // descending.
            for w in f.points.windows(2) {
                assert!(w[0].cost < w[1].cost);
                assert!(w[0].size > w[1].size);
            }
        }
    }

    #[test]
    fn frontier_min_cost_equals_scalar_dp() {
        for m in [
            split_wins(),
            whole_wins(),
            tension(),
            crate::fig6::fig6_matrix(),
        ] {
            let f = frontier_dp(&m);
            let dp = opt_ind_con_dp(&m);
            assert_eq!(f.min_cost().cost.to_bits(), dp.cost.to_bits());
            assert_eq!(f.min_cost().config.pairs(), dp.best.pairs());
            assert_eq!(f.evaluated, dp.evaluated);
        }
    }

    #[test]
    fn frontier_collapses_to_singletons_without_sizes() {
        // Size-free matrices: every label set is the scalar optimum, so the
        // frontier has exactly one point and no extra label work beyond one
        // extension per priced piece.
        let m = split_wins();
        let f = frontier_dp(&m);
        assert_eq!(f.points.len(), 1);
        assert_eq!(f.labels, f.evaluated);
    }

    #[test]
    fn within_budget_picks_the_cheapest_fitting_point() {
        let m = tension();
        let f = frontier_dp(&m);
        // Unconstrained: whole-path NIX, cost 2, 100 pages.
        assert_eq!(f.min_cost().cost, 2.0);
        assert_eq!(f.min_cost().size, 100.0);
        // 100+ pages: the optimum fits.
        assert_eq!(f.within_budget(120.0).unwrap().cost, 2.0);
        // Under 100: forced off the whole-path; the three-way MX split
        // (cost 12, 30 pages) is the only lean alternative on this matrix.
        let p = f.within_budget(99.0).unwrap();
        assert!(p.cost > 2.0 && p.size <= 99.0);
        assert_eq!(f.within_budget(30.0).unwrap().size, 30.0);
        // Below the leanest configuration: infeasible.
        assert!(f.within_budget(29.0).is_none());
        // The budgeted answer always matches a brute-force scan.
        for budget in [29.0, 30.0, 45.0, 99.0, 100.0, 1e9] {
            let ex_best = exhaustive_frontier(&m)
                .into_iter()
                .filter(|&(_, s)| s <= budget)
                .map(|(c, _)| c)
                .fold(f64::INFINITY, f64::min);
            match f.within_budget(budget) {
                Some(p) => assert!((p.cost - ex_best).abs() < 1e-9, "budget {budget}"),
                None => assert!(ex_best.is_infinite(), "budget {budget}"),
            }
        }
    }

    #[test]
    fn frontier_handles_no_index_column() {
        // A no-index choice is free in pages: with the column built the
        // all-no-index configuration (size 0) anchors the frontier's lean
        // end.
        let m = fixtures_matrix();
        let f = frontier_dp(&m);
        let last = f.points.last().unwrap();
        assert_eq!(last.size, 0.0);
        assert!(last
            .config
            .pairs()
            .iter()
            .all(|&(_, c)| c == Choice::NoIndex));
        let ex = exhaustive_frontier(&m);
        assert_eq!(f.points.len(), ex.len());
    }

    /// A sized matrix with a no-index column, via the real model.
    fn fixtures_matrix() -> CostMatrix {
        use oic_cost::characteristics::example51;
        use oic_cost::{CostModel, CostParams};
        use oic_schema::fixtures;
        use oic_workload::example51_load;
        let (schema, _) = fixtures::paper_schema();
        let (path, chars) = example51(&schema);
        let ld = example51_load(&schema, &path);
        let model = CostModel::new(&schema, &path, &chars, CostParams::default());
        CostMatrix::build_with_no_index(&model, &ld)
    }

    #[test]
    fn frontier_single_position_path() {
        // n = 1: the only cover is S1,1 with one of the three
        // organizations; the frontier is the Pareto set of those three
        // (cost, size) cells.
        let m = CostMatrix::from_values_with_sizes(
            1,
            &[(sid(1, 1), [5.0, 4.0, 3.0], [10.0, 20.0, 30.0])],
        );
        let f = frontier_dp(&m);
        // All three cells are Pareto-optimal here (cost descends as size
        // ascends across Mx→Mix→Nix).
        assert_eq!(f.points.len(), 3);
        assert_eq!(f.min_cost().cost, 3.0);
        assert_eq!(f.min_cost().size, 30.0);
        assert_eq!(f.points.last().unwrap().size, 10.0);
        let ex = exhaustive_frontier(&m);
        assert_eq!(f.points.len(), ex.len());
        for (p, (c, s)) in f.points.iter().zip(ex) {
            assert_eq!((p.cost, p.size), (c, s));
            assert_eq!(p.config.degree(), 1);
        }
        // The scalar DP agrees bit-for-bit on the cost optimum.
        let dp = opt_ind_con_dp(&m);
        assert_eq!(f.min_cost().cost.to_bits(), dp.cost.to_bits());
        assert_eq!(f.min_cost().config.pairs(), dp.best.pairs());
        // A dominated cell never surfaces: make Mix worse in both axes.
        let m = CostMatrix::from_values_with_sizes(
            1,
            &[(sid(1, 1), [5.0, 9.0, 3.0], [10.0, 99.0, 30.0])],
        );
        let f = frontier_dp(&m);
        assert_eq!(f.points.len(), 2, "Mix is dominated by both neighbours");
    }

    #[test]
    fn frontier_with_all_zero_query_rates_is_maintenance_only() {
        // α = 0 everywhere: the load is pure maintenance. The matrix still
        // prices every cell (insert/delete traffic), the frontier still
        // has its full shape, and it matches the exhaustive baseline.
        use oic_cost::characteristics::example51;
        use oic_cost::{CostModel, CostParams};
        use oic_schema::fixtures;
        use oic_workload::{LoadDistribution, Triplet};
        let (schema, _) = fixtures::paper_schema();
        let (path, chars) = example51(&schema);
        let ld = LoadDistribution::build(&schema, &path, |_| Triplet::new(0.0, 0.1, 0.1));
        let model = CostModel::new(&schema, &path, &chars, CostParams::default());
        let m = CostMatrix::build(&model, &ld);
        let f = frontier_dp(&m);
        assert!(!f.points.is_empty());
        assert!(f.min_cost().cost > 0.0, "maintenance is not free");
        let ex = exhaustive_frontier(&m);
        assert_eq!(f.points.len(), ex.len());
        for (p, (c, s)) in f.points.iter().zip(ex) {
            assert!((p.cost - c).abs() < 1e-9 && (p.size - s).abs() < 1e-9);
        }
        // With the no-index column built, zero queries make "index
        // nothing" free — the frontier's lean anchor at (0 cost, 0 pages),
        // which is also the scalar optimum. One point: it dominates all.
        let m = CostMatrix::build_with_no_index(&model, &ld);
        let f = frontier_dp(&m);
        assert_eq!(f.points.len(), 1);
        let only = &f.points[0];
        assert_eq!((only.cost, only.size), (0.0, 0.0));
        assert!(only
            .config
            .pairs()
            .iter()
            .all(|&(_, c)| c == Choice::NoIndex));
        let dp = opt_ind_con_dp(&m);
        assert_eq!(dp.cost, 0.0);
        assert_eq!(only.config.pairs(), dp.best.pairs());
    }

    #[test]
    fn frontier_breaks_exact_cost_ties_toward_the_leaner_organization() {
        // Every organization of every subpath costs the same; only sizes
        // differ. Dominance must collapse each label set to the leanest
        // spelling, and the single frontier point is the min-size cover.
        let m = CostMatrix::from_values_with_sizes(
            2,
            &[
                (sid(1, 1), [4.0, 4.0, 4.0], [12.0, 10.0, 11.0]),
                (sid(2, 2), [4.0, 4.0, 4.0], [7.0, 9.0, 8.0]),
                (sid(1, 2), [8.0, 8.0, 8.0], [20.0, 16.0, 18.0]),
            ],
        );
        let f = frontier_dp(&m);
        assert_eq!(f.points.len(), 1, "equal costs: one Pareto point");
        let p = &f.points[0];
        assert_eq!(p.cost, 8.0);
        assert_eq!(p.size, 16.0, "whole-path Mix is the leanest 8.0 cover");
        assert_eq!(
            p.config.pairs(),
            &[(sid(1, 2), Choice::Index(Org::Mix))],
            "tie broken toward the leaner organization"
        );
        let ex = exhaustive_frontier(&m);
        assert_eq!(ex, vec![(8.0, 16.0)]);
        // Fully degenerate ties — equal cost *and* equal size — keep the
        // scalar DP's tie-breaking: longest last piece, first organization
        // column (Mx).
        let m = CostMatrix::from_values_with_sizes(
            2,
            &[
                (sid(1, 1), [4.0, 4.0, 4.0], [5.0, 5.0, 5.0]),
                (sid(2, 2), [4.0, 4.0, 4.0], [5.0, 5.0, 5.0]),
                (sid(1, 2), [8.0, 8.0, 8.0], [10.0, 10.0, 10.0]),
            ],
        );
        let f = frontier_dp(&m);
        let dp = opt_ind_con_dp(&m);
        assert_eq!(f.points.len(), 1);
        assert_eq!(f.points[0].config.pairs(), dp.best.pairs());
        assert_eq!(
            f.points[0].config.pairs(),
            &[(sid(1, 2), Choice::Index(Org::Mx))]
        );
    }

    #[test]
    fn budget_exactly_on_a_frontier_knee_takes_the_knee() {
        let m = tension();
        let f = frontier_dp(&m);
        assert!(f.points.len() >= 2, "the fixture has a real trade-off");
        for (k, p) in f.points.iter().enumerate() {
            // A budget exactly equal to a knee's footprint admits that
            // knee (≤, not <): no page of slack is required.
            let hit = f.within_budget(p.size).expect("the knee itself fits");
            assert_eq!(hit.cost.to_bits(), p.cost.to_bits(), "knee {k}");
            assert_eq!(hit.size.to_bits(), p.size.to_bits(), "knee {k}");
            // One ulp under the knee falls through to the next point (or
            // to infeasibility after the leanest knee).
            let under = f.within_budget(p.size - p.size.abs() * 1e-15 - f64::MIN_POSITIVE);
            match f.points.get(k + 1) {
                Some(next) => {
                    let under = under.expect("a leaner point exists");
                    assert_eq!(under.cost.to_bits(), next.cost.to_bits(), "below knee {k}");
                }
                None => assert!(under.is_none(), "below the leanest point: infeasible"),
            }
        }
    }

    #[test]
    fn candidate_space_saturates() {
        assert_eq!(candidate_space_size(1), 1);
        assert_eq!(candidate_space_size(4), 8);
        assert_eq!(candidate_space_size(64), 1u64 << 63);
        assert_eq!(candidate_space_size(65), u64::MAX);
        assert_eq!(candidate_space_size(200), u64::MAX);
    }

    #[test]
    fn dp_equals_bb_on_random_matrices() {
        let mut seed = 0xC0FFEE_u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % 1000) as f64 / 100.0 + 0.1
        };
        for n in 2..=10 {
            let mut values = Vec::new();
            for len in 1..=n {
                for start in 1..=(n - len + 1) {
                    values.push((sid(start, start + len - 1), [next(), next(), next()]));
                }
            }
            let m = CostMatrix::from_values(n, &values);
            let dp = opt_ind_con_dp(&m);
            let bb = opt_ind_con(&m);
            assert!(
                (dp.cost - bb.cost).abs() < 1e-9,
                "n={n}: dp {} vs bb {}",
                dp.cost,
                bb.cost
            );
        }
    }

    #[test]
    fn prune_dominated_strikes_dominated_orgs_and_keeps_argmins() {
        // Rank (1,1): Mx full price 2.0; Mix query 5.0 > 2.0 (pruned),
        // Nix query 1.5 ≤ 2.0 (kept). Argmin Mx always survives.
        let query = vec![
            [1.0, 5.0, 1.5],  // (1,1)
            [1.0, 1.0, 1.0],  // (2,2)
            [0.5, 0.6, 20.0], // (1,2): Nix query 20 > Mx full 1.5
        ];
        let maint = vec![
            [1.0, 1.0, 1.0], // (1,1): floor = 2.0 (Mx)
            [1.0, 1.0, 1.0],
            [1.0, 1.0, 1.0],
        ];
        let flat = vec![[1.0; 3]; 3];
        let masks = prune_dominated(&query, &maint, &flat, 2);
        assert_eq!(masks[sid(1, 1).rank(2)], 0b010, "Mix dominated at (1,1)");
        assert_eq!(masks[sid(2, 2).rank(2)], 0, "three-way tie keeps all");
        assert_eq!(masks[sid(1, 2).rank(2)], 0b100, "Nix dominated at (1,2)");
        // The λ guard: when every would-be dominator is *fatter* than the
        // dominated cell, a large enough λ could flip the comparison, so
        // the strike is withheld.
        let fat_dominators = vec![
            [9.0, 0.5, 9.0], // (1,1): Mix is the thinnest cell
            [1.0, 1.0, 1.0],
            [9.0, 9.0, 0.5], // (1,2): Nix is the thinnest cell
        ];
        let masks = prune_dominated(&query, &maint, &fat_dominators, 2);
        assert_eq!(masks[sid(1, 1).rank(2)], 0, "thin Mix survives every λ");
        assert_eq!(masks[sid(1, 2).rank(2)], 0, "thin Nix survives every λ");
    }

    #[test]
    fn prune_dominated_eliminates_ranks_beaten_by_singleton_floors() {
        // Singleton floors: 2.0 + 2.0 = 4.0. Rank (1,2)'s cheapest query
        // share alone is 10.0 > 4.0, and the replacement pair's pages
        // (1.0 + 1.0 = 2.0) fit under the rank's thinnest cell (2.0): the
        // whole rank is eliminated for every λ ≥ 0.
        let query = vec![[1.0, 1.5, 1.2], [1.0, 1.1, 1.3], [10.0, 11.0, 12.0]];
        let maint = vec![[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]];
        let sizes = vec![[1.0; 3], [1.0; 3], [2.0; 3]];
        let masks = prune_dominated(&query, &maint, &sizes, 2);
        assert_eq!(masks[sid(1, 2).rank(2)], 0b111, "rank eliminated");
        // Singleton ranks are never rank-eliminated, whatever their price.
        assert_ne!(masks[sid(1, 1).rank(2)], 0b111);
        assert_ne!(masks[sid(2, 2).rank(2)], 0b111);
        // The λ guard: a singleton replacement fatter than the rank's
        // thinnest cell could lose at large λ, so elimination is withheld
        // (the 2.0 + 2.0 = 4.0 replacement pages exceed the rank's 1.0).
        let fat_singletons = vec![[2.0; 3], [2.0; 3], [1.0, 1.0, 1.0]];
        let masks = prune_dominated(&query, &maint, &fat_singletons, 2);
        assert_ne!(masks[sid(1, 2).rank(2)], 0b111, "fat replacement kept");
    }

    /// The advisor-facing contract: masking pruned cells to `INFINITY`
    /// leaves the DP's cost *bits* and its tie-broken selection unchanged
    /// — on the uncovered pricing, under random coverage (covered cells
    /// pay query only and bypass the mask, exactly as
    /// the advisor's `priced_matrix` prices them), and under every λ-priced
    /// objective `q + m + λ·s` the budgeted sweeps construct.
    #[test]
    fn masked_dp_is_bit_identical_on_random_grids() {
        let mut seed = 0xDEC0DE_u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for n in 2..=8 {
            for trial in 0..8 {
                let ranks = SubpathId::count(n);
                let mut query = Vec::with_capacity(ranks);
                let mut maint = Vec::with_capacity(ranks);
                let mut sizes = Vec::with_capacity(ranks);
                for _ in 0..ranks {
                    let cell = |r: &mut dyn FnMut() -> u64| (r() % 1000) as f64 / 100.0;
                    query.push([cell(&mut rng), cell(&mut rng), cell(&mut rng)]);
                    maint.push([cell(&mut rng), cell(&mut rng), cell(&mut rng)]);
                    sizes.push([cell(&mut rng), cell(&mut rng), cell(&mut rng)]);
                }
                let masks = prune_dominated(&query, &maint, &sizes, n);
                // Random coverage (none on even trials).
                let covered: Vec<u8> = (0..ranks)
                    .map(|_| if trial % 2 == 0 { 0 } else { (rng() % 8) as u8 })
                    .collect();
                for lambda in [0.0, 0.7, 13.0] {
                    let price = |with_mask: bool| {
                        let values: Vec<(SubpathId, [f64; 3])> = (0..ranks)
                            .map(|r| {
                                let mut cell = [0.0; 3];
                                for o in 0..3 {
                                    cell[o] = if covered[r] & (1 << o) != 0 {
                                        query[r][o]
                                    } else if with_mask && masks[r] & (1 << o) != 0 {
                                        f64::INFINITY
                                    } else {
                                        query[r][o] + maint[r][o] + lambda * sizes[r][o]
                                    };
                                }
                                (SubpathId::from_rank(n, r), cell)
                            })
                            .collect();
                        opt_ind_con_dp(&CostMatrix::from_values(n, &values))
                    };
                    let full = price(false);
                    let masked = price(true);
                    assert_eq!(
                        full.cost.to_bits(),
                        masked.cost.to_bits(),
                        "n={n} trial={trial} λ={lambda}: cost {} vs {}",
                        full.cost,
                        masked.cost
                    );
                    assert_eq!(
                        full.best.pairs(),
                        masked.best.pairs(),
                        "n={n} trial={trial} λ={lambda}: selections diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn bb_equals_exhaustive_on_random_matrices() {
        // Deterministic pseudo-random matrices across path lengths.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % 1000) as f64 / 100.0 + 0.1
        };
        for n in 2..=8 {
            let mut values = Vec::new();
            for len in 1..=n {
                for start in 1..=(n - len + 1) {
                    values.push((sid(start, start + len - 1), [next(), next(), next()]));
                }
            }
            let m = CostMatrix::from_values(n, &values);
            let a = opt_ind_con(&m);
            let b = exhaustive(&m);
            assert!(
                (a.cost - b.cost).abs() < 1e-9,
                "n={n}: bb {} vs exhaustive {}",
                a.cost,
                b.cost
            );
            assert!(a.evaluated <= b.evaluated);
        }
    }
}
