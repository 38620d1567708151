//! The `Opt_Ind_Con` procedure: branch-and-bound selection (Section 5),
//! the exhaustive `2^(n-1)` baseline, [`opt_ind_con_dp`] — the polynomial
//! interval dynamic program over the same candidate space — and its
//! two-objective generalization [`frontier_dp`], which carries `(cost,
//! size)` Pareto label sets through the same recurrence and answers *"the
//! cheapest configuration within a page budget"* for any budget at once.

use crate::trace::TraceEvent;
use crate::{Choice, CostMatrix, IndexConfiguration};
use oic_cost::Org;
use oic_schema::SubpathId;

/// Every DP column, in the order the DPs try them: the organizations in
/// [`Org::ALL`] order, then the optional no-index column.
const CHOICES: [Choice; 4] = [
    Choice::Index(Org::Mx),
    Choice::Index(Org::Mix),
    Choice::Index(Org::Nix),
    Choice::NoIndex,
];

/// The index columns of [`CHOICES`].
const INDEXES: [Choice; 3] = [
    Choice::Index(Org::Mx),
    Choice::Index(Org::Mix),
    Choice::Index(Org::Nix),
];

/// The columns `matrix` prices.
fn choices(matrix: &CostMatrix) -> &'static [Choice] {
    &CHOICES[..if matrix.has_no_index() { 4 } else { 3 }]
}

/// `matrix`'s cells as the recurrences read them: a piece's `(cost,
/// size)` under each of `choices`.
pub(crate) fn matrix_cells<const NCH: usize>(
    matrix: &CostMatrix,
    choices: [Choice; NCH],
) -> impl Fn(SubpathId) -> [(f64, f64); NCH] + '_ {
    move |sub| {
        choices.map(|choice| {
            (
                matrix.choice_cost(sub, choice),
                matrix.choice_size(sub, choice),
            )
        })
    }
}

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
///
/// When no configuration has a finite cost — an infinite or overflowing
/// rate makes every one `+∞` or NaN — none wins, and the path's singletons
/// under the first column stand in, at `+∞` (what the workload advisor's
/// best response returns there).
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
    SelectionResult {
        best: covering_or_singletons(state.best, n),
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
///
/// A thin wrapper: the recurrence is `ScalarDp::run`, which reads each
/// piece through a closure — here the matrix's cell — so the workload
/// advisor runs the same recurrence over cells it prices in place. When
/// no configuration has a finite cost, it answers like [`opt_ind_con`]:
/// the singletons under the first column, at `+∞`.
pub fn opt_ind_con_dp(matrix: &CostMatrix) -> SelectionResult {
    let n = matrix.path_len();
    let mut dp = ScalarDp::default();
    let (cost, evaluated) = if matrix.has_no_index() {
        dp.run(n, |sub| CHOICES.map(|c| matrix.choice_cost(sub, c)))
    } else {
        dp.run(n, |sub| INDEXES.map(|c| matrix.choice_cost(sub, c)))
    };
    let mut pairs = Vec::new();
    if cost.is_finite() {
        dp.pieces_into(&mut pairs, |sub, c| (sub, CHOICES[c]));
    }
    SelectionResult {
        best: covering_or_singletons(pairs, n),
        cost,
        evaluated,
        pruned: 0,
        candidate_space: candidate_space_size(n),
    }
}

/// `pairs` as a configuration of a path of `n` positions — or, when they
/// do not cover it, which happens only when no configuration won, the
/// path's singletons under the first column.
fn covering_or_singletons(pairs: Vec<(SubpathId, Choice)>, n: usize) -> IndexConfiguration {
    IndexConfiguration::new(pairs, n)
        .unwrap_or_else(|_| IndexConfiguration::singletons(CHOICES[0], n))
}

/// The scalar recurrence of [`opt_ind_con_dp`] over reusable tables: a
/// caller that runs many DPs (the workload advisor, one table per job)
/// keeps one and re-runs it, so a DP allocates nothing once the tables
/// have grown to the longest path.
#[derive(Debug, Default)]
pub(crate) struct ScalarDp {
    /// `dp[j·nch + c]`: cheapest cover of positions `1..=j` whose last
    /// piece uses choice `c`.
    dp: Vec<f64>,
    /// `parent[j·nch + c]`: (start of that last piece, choice of the piece
    /// before it; `usize::MAX` when the last piece starts at 1).
    parent: Vec<(usize, usize)>,
    /// The prefix optimum `min_Y dp[j][Y]` with its arg, so the inner loop
    /// stays `O(nch)` per `(i, j)` pair.
    prefix_best: Vec<(f64, usize)>,
    /// Choices per piece in the last run.
    nch: usize,
}

impl ScalarDp {
    /// Runs the recurrence over a path of `n` positions with `NCH`
    /// choices per piece, reading piece `S_{i,j}`'s cost under each choice
    /// from `piece` once per transition: positions `j` ascending, then
    /// longer pieces first (`i` ascending, the paper's search order, so
    /// cost ties resolve toward the same configuration as the branch and
    /// bound), then choices in order. A piece whose prefix is unreachable
    /// is not read. Returns the optimum's cost (`INFINITY` when nothing
    /// covers the path) and the transitions evaluated.
    pub(crate) fn run<const NCH: usize>(
        &mut self,
        n: usize,
        mut piece: impl FnMut(SubpathId) -> [f64; NCH],
    ) -> (f64, u64) {
        let nch = NCH;
        self.nch = nch;
        let states = (n + 1) * nch;
        self.dp.clear();
        self.dp.resize(states, f64::INFINITY);
        self.parent.clear();
        self.parent.resize(states, (0, usize::MAX));
        self.prefix_best.clear();
        self.prefix_best.resize(n + 1, (f64::INFINITY, usize::MAX));
        self.prefix_best[0] = (0.0, usize::MAX);
        let mut evaluated = 0u64;
        for j in 1..=n {
            let row = j * nch..(j + 1) * nch;
            for i in 1..=j {
                let (prev_cost, prev_choice) = self.prefix_best[i - 1];
                if !prev_cost.is_finite() {
                    continue;
                }
                let costs = piece(SubpathId { start: i, end: j });
                let (dp, parent) = (&mut self.dp[row.clone()], &mut self.parent[row.clone()]);
                for (c, (best, from)) in dp.iter_mut().zip(parent).enumerate() {
                    let total = prev_cost + costs[c];
                    evaluated += 1;
                    if total < *best {
                        *best = total;
                        *from = (i, prev_choice);
                    }
                }
            }
            let mut best = (f64::INFINITY, usize::MAX);
            for (c, &cost) in self.dp[row].iter().enumerate() {
                if cost < best.0 {
                    best = (cost, c);
                }
            }
            self.prefix_best[j] = best;
        }
        (self.prefix_best[n].0, evaluated)
    }

    /// The last run's optimum as `f(piece, choice)` per piece, in path
    /// order, written over `out` (which grows at most once). The run must
    /// have covered the path.
    pub(crate) fn pieces_into<T>(&self, out: &mut Vec<T>, f: impl Fn(SubpathId, usize) -> T) {
        let n = self.prefix_best.len() - 1;
        // Back-to-front along the parent chain: `(end, choice)` per piece.
        let last = (n > 0).then_some((n, self.prefix_best[n].1));
        let chain = std::iter::successors(last, |&(end, c)| {
            let (start, prev) = self.parent[end * self.nch + c];
            (start > 1).then_some((start - 1, prev))
        });
        out.clear();
        out.reserve(chain.clone().count());
        for (end, c) in chain {
            let start = self.parent[end * self.nch + c].0;
            out.push(f(SubpathId { start, end }, c));
        }
        out.reverse();
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
    /// descending. Never empty: the first point is the unconstrained cost
    /// optimum, the last the smallest-footprint configuration worth
    /// considering. When no configuration has a finite cost, the one point
    /// is [`opt_ind_con`]'s stand-in: the path's singletons under the first
    /// column, at `+∞`.
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
        &self.points[0]
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
/// the prefix it extends (`parent`, an index into the label table) for
/// reconstruction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Label {
    pub(crate) cost: f64,
    pub(crate) size: f64,
    start: usize,
    choice: usize,
    parent: usize,
}

/// The label recurrence [`frontier_dp`] and [`frontier_point`] share, over
/// reusable tables: every position's Pareto label set, flattened —
/// position `j`'s labels are `labels[first[j]..first[j + 1]]`, cost
/// ascending. Like [`ScalarDp`], a caller running many DPs keeps one.
#[derive(Debug, Default)]
pub(crate) struct Labels {
    labels: Vec<Label>,
    first: Vec<usize>,
    /// The cells of the pieces ending at the position being closed, `NCH`
    /// per start.
    row: Vec<(f64, f64)>,
}

impl Labels {
    /// Runs the recurrence over a path of `n` positions with `NCH`
    /// choices per piece, reading piece `S_{i,j}`'s `(cost, size)` under
    /// each choice from `piece` once, when the position `j` it closes is
    /// reached and only if its prefix is reachable. Returns the
    /// transitions evaluated and the label extensions performed.
    pub(crate) fn run<const NCH: usize>(
        &mut self,
        n: usize,
        mut piece: impl FnMut(SubpathId) -> [(f64, f64); NCH],
    ) -> (u64, u64) {
        let Labels { labels, first, row } = self;
        // Position 0 holds the empty-prefix seed.
        let seed = Label {
            cost: 0.0,
            size: 0.0,
            start: 0,
            choice: usize::MAX,
            parent: usize::MAX,
        };
        labels.clear();
        // Label sets hold a few labels each on workload matrices.
        labels.reserve(4 * n + 1);
        labels.push(seed);
        first.clear();
        first.extend([0, 1]);
        let (mut evaluated, mut extended) = (0u64, 0u64);
        for j in 1..=n {
            let set = labels.len();
            row.clear();
            for i in 1..=j {
                let reachable = first[i - 1] < first[i];
                let sub = SubpathId { start: i, end: j };
                row.extend(if reachable {
                    piece(sub)
                } else {
                    [(f64::INFINITY, 0.0); NCH]
                });
            }
            // Choice-major, then longer pieces first (i ascending): with the
            // keep-first-on-ties rule of `pareto_insert` this reproduces the
            // scalar DP's tie-breaking exactly (first organization column,
            // longest last piece), because the earliest generated label
            // among equals wins.
            for c in 0..NCH {
                for i in 1..=j {
                    let prefix = first[i - 1]..first[i];
                    if prefix.is_empty() {
                        continue;
                    }
                    let (piece_cost, piece_size) = row[(i - 1) * NCH + c];
                    evaluated += 1;
                    if !piece_cost.is_finite() {
                        continue;
                    }
                    extended += prefix.len() as u64;
                    for parent in prefix {
                        let label = Label {
                            cost: labels[parent].cost + piece_cost,
                            size: labels[parent].size + piece_size,
                            start: i,
                            choice: c,
                            parent,
                        };
                        pareto_insert(labels, set, label);
                    }
                }
            }
            first.push(labels.len());
        }
        (evaluated, extended)
    }

    /// The last position's labels: one per frontier point.
    fn last(&self) -> &[Label] {
        &self.labels[self.first[self.first.len() - 2]..]
    }

    /// One of [`Self::last`]'s labels' configuration as `f(piece, choice)`
    /// per piece, in path order, written over `out` (which grows at most
    /// once): walks the label's parent chain.
    pub(crate) fn pieces_into<T>(
        &self,
        label: &Label,
        out: &mut Vec<T>,
        f: impl Fn(SubpathId, usize) -> T,
    ) {
        let n = self.first.len() - 2;
        let chain = std::iter::successors((n > 0).then_some((n, label)), |&(_, cur)| {
            (cur.start > 1).then(|| (cur.start - 1, &self.labels[cur.parent]))
        });
        out.clear();
        out.reserve(chain.clone().count());
        for (end, cur) in chain {
            out.push(f(
                SubpathId {
                    start: cur.start,
                    end,
                },
                cur.choice,
            ));
        }
        out.reverse();
    }

    /// The frontier point of one of [`Self::last`]'s labels.
    fn point(&self, label: &Label) -> FrontierPoint {
        let mut pairs = Vec::new();
        self.pieces_into(label, &mut pairs, |sub, c| (sub, CHOICES[c]));
        FrontierPoint {
            cost: label.cost,
            size: label.size,
            config: IndexConfiguration::new(pairs, self.first.len() - 2)
                .expect("DP pieces concatenate to the full path"),
        }
    }
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
///
/// When no configuration has a finite cost, the frontier is the path's
/// singletons under the first column at `+∞`, as [`opt_ind_con`] answers.
///
/// A thin wrapper over the label recurrence, which reads each piece
/// through a closure — here the matrix's cell.
pub fn frontier_dp(matrix: &CostMatrix) -> FrontierResult {
    let n = matrix.path_len();
    let mut dp = Labels::default();
    let (evaluated, labels) = if matrix.has_no_index() {
        dp.run(n, matrix_cells(matrix, CHOICES))
    } else {
        dp.run(n, matrix_cells(matrix, INDEXES))
    };
    let mut points: Vec<FrontierPoint> = dp.last().iter().map(|label| dp.point(label)).collect();
    if points.is_empty() {
        points.push(no_finite_cost(matrix));
    }
    FrontierResult {
        points,
        evaluated,
        labels,
        candidate_space: candidate_space_size(matrix.path_len()),
    }
}

/// The cheapest label of the frontier of the cells `piece` prices (over
/// `n` positions, `NCH` choices per piece) whose footprint fits
/// `budget_pages` — `frontier_dp(..).within_budget(budget_pages)` without
/// reconstructing a single point: [`Labels::pieces_into`] reads the
/// returned label's configuration. At `f64::INFINITY` it is the
/// frontier's first point, [`FrontierResult::min_cost`] (every label's
/// size is below `INFINITY`: the prune keeps none that is not), or `None`
/// when the cells cannot cover the path — where the public frontier holds
/// its `+∞` stand-in instead.
pub(crate) fn frontier_point<const NCH: usize>(
    labels: &mut Labels,
    n: usize,
    piece: impl FnMut(SubpathId) -> [(f64, f64); NCH],
    budget_pages: f64,
) -> Option<Label> {
    labels.run(n, piece);
    labels
        .last()
        .iter()
        .find(|label| label.size <= budget_pages)
        .copied()
}

/// Adds one generated `label` to the Pareto set `labels[set..]` (cost
/// ascending, size strictly descending), generation order being call
/// order. The set ends as sorting all of the position's labels by `(cost,
/// size)` — `total_cmp`, the earliest generated first among equals — and
/// keeping each label strictly leaner than every one before it would
/// leave it: a label is dropped when the leanest label ordered before it
/// is no fatter, and it drops the labels ordered after it that are no
/// leaner. So equal `(cost, size)` keeps the earliest-generated label
/// (the scalar DP's tie-breaking), and equal cost with different sizes
/// keeps the smaller size (it dominates).
fn pareto_insert(labels: &mut Vec<Label>, set: usize, label: Label) {
    let order = |l: &Label| {
        l.cost
            .total_cmp(&label.cost)
            .then(l.size.total_cmp(&label.size))
    };
    let at = set + labels[set..].partition_point(|l| order(l).is_le());
    let leanest_before = if at > set {
        labels[at - 1].size
    } else {
        f64::INFINITY
    };
    // A NaN or infinite size is never kept, so the sizes compare totally.
    if label.size < leanest_before {
        let fatter = labels[at..].iter().take_while(|l| label.size <= l.size);
        let end = at + fatter.count();
        labels.splice(at..end, [label]);
    }
}

/// The frontier point standing in when no configuration has a finite
/// cost: the path's singletons under the first column at `+∞`, its size
/// summed in path order like a label's.
fn no_finite_cost(matrix: &CostMatrix) -> FrontierPoint {
    let config = IndexConfiguration::singletons(CHOICES[0], matrix.path_len());
    let pairs = config.pairs().iter();
    FrontierPoint {
        cost: f64::INFINITY,
        size: pairs.fold(0.0, |size, &(sub, choice)| {
            size + matrix.choice_size(sub, choice)
        }),
        config,
    }
}

/// Exhaustive `(cost, size)` Pareto frontier over all `2^(n-1)`
/// recombinations × per-piece choices — the brute-force baseline
/// [`frontier_dp`] is verified against. Returns `(cost, size)` pairs, cost
/// ascending; like [`frontier_dp`], the one pair `(+∞, size)` of the
/// path's singletons under the first column when no configuration has a
/// finite cost.
pub fn exhaustive_frontier(matrix: &CostMatrix) -> Vec<(f64, f64)> {
    let n = matrix.path_len();
    let choices = choices(matrix);
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
            for &choice in choices {
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
    let frontier = prune_pairs(all);
    if frontier.is_empty() {
        let point = no_finite_cost(matrix);
        return vec![(point.cost, point.size)];
    }
    frontier
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
/// Section 5 complexity experiment. When no recombination has a finite
/// cost, it answers like [`opt_ind_con`].
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
        best: covering_or_singletons(best, n),
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
/// bound before applying it (the ban carve-outs of `workload_advisor`'s
/// cell rule).
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
mod tests;
