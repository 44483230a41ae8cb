//! Offline cache selection (§4.4, Appendix B).
//!
//! Given benefits/costs for every candidate, pick the nonoverlapping subset
//! `X` maximizing `Σ_{C∈X} benefit(C) − cost(C)`, where shared caches
//! (Definition 4.1) pay their maintenance cost **once** per group.
//! Equivalently (and how the approximation algorithms are stated): minimize
//! `Σ_{C∈X} proc(C) + Σ_{uncovered ops} d·c + Σ_{used groups} cost(group)` —
//! each join operator is either covered by a chosen cache or pays its raw
//! processing cost (operators as "zero-length caches").
//!
//! Four solvers, matching the paper:
//! * [`recursive::solve_recursive`] — the O(m) tree DP, optimal when no
//!   caches are shared (Theorems 4.1/4.2).
//! * [`exhaustive::solve_exhaustive`] — branch-and-bound over all subsets,
//!   optimal always; practical for the paper's `m ≤ ~20` (§4.4 notes 2^m
//!   search is "typically negligible for n ≤ 6").
//! * [`greedy::solve_greedy`] — the Appendix B set-cover-style greedy,
//!   O(log n)-approximate with sharing.
//! * [`randomized::solve_randomized`] — the Appendix B LP relaxation +
//!   randomized rounding, O(log n)-approximate, built on `acq-lp`.

pub mod exhaustive;
pub mod greedy;
pub mod incremental;
pub mod randomized;
pub mod recursive;

pub use exhaustive::solve_exhaustive;
pub use greedy::solve_greedy;
pub use incremental::solve_incremental;
pub use randomized::solve_randomized;
pub use recursive::solve_recursive;

/// One selectable cache, abstracted from pipelines to numbers.
#[derive(Debug, Clone)]
pub struct CacheChoice {
    /// Caller-meaningful candidate id (index into the engine's candidate
    /// list).
    pub id: usize,
    /// Hosting pipeline index.
    pub pipeline: usize,
    /// First covered operator position.
    pub start: usize,
    /// Last covered operator position (inclusive).
    pub end: usize,
    /// `benefit(C)` (§4.1).
    pub benefit: f64,
    /// `proc(C)` (§4.4).
    pub proc: f64,
    /// Shared group; `cost(group)` is paid once if any member is chosen.
    pub group: usize,
}

impl CacheChoice {
    /// Operators covered.
    pub fn ops(&self) -> usize {
        self.end - self.start + 1
    }

    /// Overlap test (same pipeline, intersecting spans).
    pub fn overlaps(&self, other: &CacheChoice) -> bool {
        self.pipeline == other.pipeline && self.start <= other.end && other.start <= self.end
    }
}

/// A cache-selection problem instance.
#[derive(Debug, Clone)]
pub struct SelectionInstance {
    /// `op_proc[i][j]` = `d_ij · c_ij`: unit-time processing cost of operator
    /// `j` of pipeline `i` when not covered by any cache.
    pub op_proc: Vec<Vec<f64>>,
    /// The candidates.
    pub choices: Vec<CacheChoice>,
    /// Per-group maintenance cost (indexed by `CacheChoice::group`).
    pub group_cost: Vec<f64>,
}

/// A solution: indices into `choices`, sorted, mutually nonoverlapping.
pub type Solution = Vec<usize>;

impl SelectionInstance {
    /// Total uncached processing cost `Σ_{i,j} op_proc[i][j]`.
    pub fn total_op_proc(&self) -> f64 {
        self.op_proc.iter().flatten().sum()
    }

    /// Is the solution feasible (valid ids, pairwise nonoverlapping)?
    pub fn is_feasible(&self, sol: &Solution) -> bool {
        for (a, &i) in sol.iter().enumerate() {
            if i >= self.choices.len() {
                return false;
            }
            for &j in &sol[a + 1..] {
                if self.choices[i].overlaps(&self.choices[j]) {
                    return false;
                }
            }
        }
        true
    }

    /// The maximization objective: `Σ benefit − Σ_{groups used} cost`.
    pub fn net_objective(&self, sol: &Solution) -> f64 {
        let mut benefit = 0.0;
        let mut groups_used = vec![false; self.group_cost.len()];
        for &i in sol {
            benefit += self.choices[i].benefit;
            groups_used[self.choices[i].group] = true;
        }
        let cost: f64 = groups_used
            .iter()
            .zip(&self.group_cost)
            .filter(|(used, _)| **used)
            .map(|(_, c)| *c)
            .sum();
        benefit - cost
    }

    /// The minimization objective: chosen `proc` + uncovered op costs +
    /// group costs. Equals `total_op_proc() − net_objective()` (§4.4
    /// duality; asserted in tests).
    pub fn total_cost(&self, sol: &Solution) -> f64 {
        let mut covered: Vec<Vec<bool>> =
            self.op_proc.iter().map(|p| vec![false; p.len()]).collect();
        let mut total = 0.0;
        let mut groups_used = vec![false; self.group_cost.len()];
        for &i in sol {
            let c = &self.choices[i];
            total += c.proc;
            groups_used[c.group] = true;
            for slot in &mut covered[c.pipeline][c.start..=c.end] {
                *slot = true;
            }
        }
        for (i, pipeline) in self.op_proc.iter().enumerate() {
            for (j, &p) in pipeline.iter().enumerate() {
                if !covered[i][j] {
                    total += p;
                }
            }
        }
        total
            + groups_used
                .iter()
                .zip(&self.group_cost)
                .filter(|(used, _)| **used)
                .map(|(_, c)| *c)
                .sum::<f64>()
    }

    /// True when some group has more than one member (sharing present).
    pub fn has_sharing(&self) -> bool {
        let mut seen = vec![0u32; self.group_cost.len()];
        for c in &self.choices {
            seen[c.group] += 1;
            if seen[c.group] > 1 {
                return true;
            }
        }
        false
    }

    /// Drop overlapping picks, keeping (greedily) the choice covering the
    /// most operators (Appendix B's final overlap resolution). Input order is
    /// irrelevant; output is sorted and feasible.
    pub fn resolve_overlaps(&self, mut picks: Vec<usize>) -> Solution {
        picks.sort_unstable();
        picks.dedup();
        // Prefer more ops; tie-break higher benefit, then lower id.
        picks.sort_by(|&a, &b| {
            let (ca, cb) = (&self.choices[a], &self.choices[b]);
            cb.ops()
                .cmp(&ca.ops())
                .then(cb.benefit.partial_cmp(&ca.benefit).unwrap())
                .then(a.cmp(&b))
        });
        let mut kept: Vec<usize> = Vec::new();
        for p in picks {
            if kept
                .iter()
                .all(|&k| !self.choices[p].overlaps(&self.choices[k]))
            {
                kept.push(p);
            }
        }
        kept.sort_unstable();
        kept
    }
}

/// Largest candidate count [`solve_auto`] still searches exhaustively
/// (§4.4: `2^m` search is negligible for the paper's `m`).
pub const EXHAUSTIVE_LIMIT: usize = 20;

/// Pick the best solver for an instance, per §4.4, and run it: the optimal
/// recursive algorithm when nothing is shared, exhaustive search up to
/// [`EXHAUSTIVE_LIMIT`] candidates, the greedy approximation beyond that.
/// Returns the solver's name (for selection traces) with its solution.
pub fn solve_auto(instance: &SelectionInstance) -> (&'static str, Solution) {
    if !instance.has_sharing() {
        (recursive::NAME, solve_recursive(instance))
    } else if instance.choices.len() <= EXHAUSTIVE_LIMIT {
        (exhaustive::NAME, solve_exhaustive(instance))
    } else {
        (greedy::NAME, solve_greedy(instance))
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// Build an instance quickly: `ops[i]` = op costs of pipeline `i`;
    /// `caches` = (pipeline, start, end, benefit, proc, group);
    /// `group_cost` per group.
    pub fn instance(
        ops: &[&[f64]],
        caches: &[(usize, usize, usize, f64, f64, usize)],
        group_cost: &[f64],
    ) -> SelectionInstance {
        SelectionInstance {
            op_proc: ops.iter().map(|p| p.to_vec()).collect(),
            choices: caches
                .iter()
                .enumerate()
                .map(
                    |(id, &(pipeline, start, end, benefit, proc, group))| CacheChoice {
                        id,
                        pipeline,
                        start,
                        end,
                        benefit,
                        proc,
                        group,
                    },
                )
                .collect(),
            group_cost: group_cost.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::instance;
    use super::*;

    #[test]
    fn duality_net_vs_total_cost() {
        // benefit must equal covered op_proc − proc for duality to hold; use
        // consistent numbers: cache covers ops worth 100+50, proc = 30 →
        // benefit = 120.
        let inst = instance(
            &[&[100.0, 50.0], &[70.0]],
            &[(0, 0, 1, 120.0, 30.0, 0)],
            &[10.0],
        );
        for sol in [vec![], vec![0usize]] {
            let net = inst.net_objective(&sol);
            let total = inst.total_cost(&sol);
            assert!(
                (inst.total_op_proc() - net - total).abs() < 1e-9,
                "duality broken for {sol:?}: {net} + {total} != {}",
                inst.total_op_proc()
            );
        }
    }

    #[test]
    fn feasibility_checks_overlap() {
        let inst = instance(
            &[&[1.0, 1.0, 1.0]],
            &[
                (0, 0, 1, 1.0, 0.1, 0),
                (0, 1, 2, 1.0, 0.1, 1),
                (0, 2, 2, 1.0, 0.1, 2),
            ],
            &[0.0, 0.0, 0.0],
        );
        assert!(inst.is_feasible(&vec![0]));
        assert!(inst.is_feasible(&vec![0, 2]));
        assert!(!inst.is_feasible(&vec![0, 1]));
        assert!(!inst.is_feasible(&vec![99]));
    }

    #[test]
    fn shared_group_cost_paid_once() {
        let inst = instance(
            &[&[10.0], &[10.0]],
            &[(0, 0, 0, 8.0, 1.0, 0), (1, 0, 0, 8.0, 1.0, 0)],
            &[5.0],
        );
        assert_eq!(inst.net_objective(&vec![0]), 3.0);
        assert_eq!(inst.net_objective(&vec![0, 1]), 11.0, "8+8−5, cost once");
        assert!(inst.has_sharing());
    }

    #[test]
    fn resolve_overlaps_keeps_biggest() {
        let inst = instance(
            &[&[1.0, 1.0, 1.0]],
            &[
                (0, 0, 2, 5.0, 0.1, 0), // covers 3 ops
                (0, 0, 0, 3.0, 0.1, 1),
                (0, 2, 2, 3.0, 0.1, 2),
            ],
            &[0.0; 3],
        );
        let sol = inst.resolve_overlaps(vec![1, 0, 2]);
        assert_eq!(
            sol,
            vec![0],
            "big cache wins, overlapping small ones dropped"
        );
        let sol2 = inst.resolve_overlaps(vec![1, 2]);
        assert_eq!(sol2, vec![1, 2], "nonoverlapping pair kept");
    }

    #[test]
    fn auto_dispatch() {
        let no_share = instance(&[&[10.0]], &[(0, 0, 0, 8.0, 1.0, 0)], &[1.0]);
        assert!(!no_share.has_sharing());
        assert_eq!(solve_auto(&no_share), (recursive::NAME, vec![0]));
        let shared = instance(
            &[&[10.0], &[10.0]],
            &[(0, 0, 0, 8.0, 1.0, 0), (1, 0, 0, 8.0, 1.0, 0)],
            &[5.0],
        );
        assert_eq!(solve_auto(&shared), (exhaustive::NAME, vec![0, 1]));
    }
}
