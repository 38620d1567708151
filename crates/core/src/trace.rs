//! Traced selection: the `Opt_Ind_Con` search as a narratable event stream,
//! mirroring the step-by-step exploration the paper walks through in
//! Section 5 (“We start with the index configuration {P, NIX} … Then the
//! path will be split into S1,n−1 and Sn,n …”).

use crate::select::{search, SelectionResult};
use crate::{Choice, CostMatrix};
use oic_schema::SubpathId;
use std::fmt;

/// One step of the branch-and-bound search.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A complete configuration's total cost was computed.
    Evaluated {
        /// The pieces (subpath, chosen organization).
        pieces: Vec<(SubpathId, Choice)>,
        /// Its total processing cost.
        cost: f64,
        /// Whether it became the best configuration so far.
        new_best: bool,
    },
    /// A partial prefix was abandoned: its accumulated cost already
    /// reached `PC_min`.
    Pruned {
        /// The prefix pieces.
        pieces: Vec<(SubpathId, Choice)>,
        /// Accumulated cost at the cut-off.
        accumulated: f64,
        /// The bound it failed against.
        bound: f64,
    },
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let render = |pieces: &[(SubpathId, Choice)]| -> String {
            let parts: Vec<String> = pieces.iter().map(|(s, c)| format!("({s}, {c})")).collect();
            format!("{{{}}}", parts.join(", "))
        };
        match self {
            TraceEvent::Evaluated {
                pieces,
                cost,
                new_best,
            } => {
                write!(f, "evaluate {} = {cost}", render(pieces))?;
                if *new_best {
                    write!(f, "   ← new best")?;
                }
                Ok(())
            }
            TraceEvent::Pruned {
                pieces,
                accumulated,
                bound,
            } => write!(
                f,
                "prune    {}… ({accumulated} ≥ PC_min {bound})",
                render(pieces)
            ),
        }
    }
}

/// Runs `Opt_Ind_Con` while recording every evaluation and pruning decision
/// in search order. Returns the selection result together with the trace.
pub fn opt_ind_con_traced(matrix: &CostMatrix) -> (SelectionResult, Vec<TraceEvent>) {
    let mut events = Vec::new();
    let result = search(matrix, |event| events.push(event()));
    (result, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig6::fig6_matrix;
    use crate::select::opt_ind_con;
    use oic_cost::Org;

    fn sid(s: usize, e: usize) -> SubpathId {
        SubpathId { start: s, end: e }
    }

    #[test]
    fn trace_reproduces_the_section5_narration() {
        // The paper narrates, in order: {P,NIX}=9 → {S13,S44}=12 →
        // {S12,S34}=12 → {S12,S33,S44}=12 → {S11,S24}=8 (best) →
        // prune {S11,S23} → {S11,S22,S34}=13 → prune {S11,S22,S33}.
        let (result, trace) = opt_ind_con_traced(&fig6_matrix());
        assert_eq!(result.cost, 8.0);
        let costs: Vec<(bool, f64)> = trace
            .iter()
            .map(|e| match e {
                TraceEvent::Evaluated { cost, .. } => (true, *cost),
                TraceEvent::Pruned { accumulated, .. } => (false, *accumulated),
            })
            .collect();
        assert_eq!(
            costs,
            vec![
                (true, 9.0),
                (true, 12.0),
                (true, 12.0),
                (true, 12.0),
                (true, 8.0),
                (false, 8.0), // {S11, S23} pruned at 3 + 5 = 8 ≥ 8
                (true, 13.0),
                (false, 9.0), // {S11, S22, S33} pruned at 3 + 4 + 2 = 9 ≥ 8
            ]
        );
        // The new-best flags: first candidate and the optimum.
        let best_flags: Vec<bool> = trace
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Evaluated { new_best, .. } => Some(*new_best),
                _ => None,
            })
            .collect();
        assert_eq!(best_flags, vec![true, false, false, false, true, false]);
    }

    #[test]
    fn traced_and_plain_agree() {
        // Fig. 6, and a 70-position path (past the 64 where `2^(n-1)`
        // saturates) whose whole-path index wins at once.
        let ranks = SubpathId::count(70);
        let long: Vec<_> = (0..ranks)
            .map(|r| (SubpathId::from_rank(70, r), [(ranks - r) as f64; 3]))
            .collect();
        for m in [fig6_matrix(), CostMatrix::from_values(70, &long)] {
            let plain = opt_ind_con(&m);
            let (traced, events) = opt_ind_con_traced(&m);
            assert_eq!(plain.cost, traced.cost);
            assert_eq!(plain.best.pairs(), traced.best.pairs());
            assert_eq!(plain.evaluated, traced.evaluated);
            assert_eq!(plain.pruned, traced.pruned);
            assert_eq!(plain.candidate_space, traced.candidate_space);
            assert_eq!((plain.evaluated + plain.pruned) as usize, events.len());
        }
    }

    #[test]
    fn trace_events_render() {
        let (_, trace) = opt_ind_con_traced(&fig6_matrix());
        let first = trace[0].to_string();
        assert!(first.contains("evaluate"));
        assert!(first.contains("new best"));
        let pruned = trace
            .iter()
            .find(|e| matches!(e, TraceEvent::Pruned { .. }))
            .unwrap()
            .to_string();
        assert!(pruned.contains("prune"));
        assert!(pruned.contains("PC_min"));
    }

    #[test]
    fn first_evaluated_piece_is_whole_path() {
        let (_, trace) = opt_ind_con_traced(&fig6_matrix());
        let TraceEvent::Evaluated { pieces, .. } = &trace[0] else {
            panic!("first event must be an evaluation");
        };
        assert_eq!(pieces.len(), 1);
        assert_eq!(pieces[0], (sid(1, 4), Choice::Index(Org::Nix)));
    }
}
