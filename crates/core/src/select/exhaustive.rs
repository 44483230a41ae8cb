//! Exhaustive (branch-and-bound) cache selection — exact for any instance.
//!
//! §4.4: *"our experiments indicate that the overhead of exhaustively
//! searching over the 2^m possible combinations of the candidate caches is
//! typically negligible for n ≤ 6, even in an adaptive setting."* §6 uses the
//! same exhaustive search (with the quota `m`) for globally-consistent
//! caches, since the independent-set-hard problem admits no good
//! approximation.
//!
//! Implementation: depth-first over candidates ordered by pipeline/span,
//! skipping infeasible (overlapping) picks, with an optimistic bound — the
//! sum of all remaining positive benefits — to prune hopeless branches.

use super::{SelectionInstance, Solution};

/// Solver name reported in selection traces and telemetry events.
pub const NAME: &str = "exhaustive";

/// Exact maximizer of `Σ benefit − Σ group costs` over nonoverlapping
/// subsets.
///
/// Runtime is `O(2^m)` worst case; callers should cap `m` (the §4.4
/// dispatch in [`super::solve_auto`] caps it at [`super::EXHAUSTIVE_LIMIT`]).
pub fn solve_exhaustive(instance: &SelectionInstance) -> Solution {
    let m = instance.choices.len();
    // Suffix bound: best-case additional benefit from choices i.. (group
    // costs can't make it better than raw benefits).
    let mut suffix_bound = vec![0.0f64; m + 1];
    for i in (0..m).rev() {
        suffix_bound[i] = suffix_bound[i + 1] + instance.choices[i].benefit.max(0.0);
    }

    struct Dfs<'a> {
        inst: &'a SelectionInstance,
        suffix_bound: &'a [f64],
        current: Vec<usize>,
        group_counts: Vec<u32>,
        current_value: f64,
        best: Vec<usize>,
        best_value: f64,
    }

    impl Dfs<'_> {
        fn run(&mut self, i: usize) {
            if self.current_value > self.best_value {
                self.best_value = self.current_value;
                self.best = self.current.clone();
            }
            if i == self.inst.choices.len() {
                return;
            }
            if self.current_value + self.suffix_bound[i] <= self.best_value {
                return; // prune
            }
            // Branch 1: take i if feasible.
            let ci = &self.inst.choices[i];
            let feasible = self
                .current
                .iter()
                .all(|&j| !ci.overlaps(&self.inst.choices[j]));
            if feasible {
                let g = ci.group;
                let group_new = self.group_counts[g] == 0;
                self.group_counts[g] += 1;
                let delta = ci.benefit
                    - if group_new {
                        self.inst.group_cost[g]
                    } else {
                        0.0
                    };
                self.current.push(i);
                self.current_value += delta;
                self.run(i + 1);
                self.current.pop();
                self.current_value -= delta;
                self.group_counts[g] -= 1;
            }
            // Branch 2: skip i.
            self.run(i + 1);
        }
    }

    let mut dfs = Dfs {
        inst: instance,
        suffix_bound: &suffix_bound,
        current: Vec::new(),
        group_counts: vec![0; instance.group_cost.len()],
        current_value: 0.0,
        best: Vec::new(),
        best_value: 0.0,
    };
    dfs.run(0);
    let mut sol = dfs.best;
    sol.sort_unstable();
    sol
}

#[cfg(test)]
mod tests {
    use super::super::testutil::instance;
    use super::*;

    #[test]
    fn empty_and_all_negative() {
        let inst = instance(&[&[1.0]], &[], &[]);
        assert!(solve_exhaustive(&inst).is_empty());
        let neg = instance(&[&[1.0]], &[(0, 0, 0, 1.0, 0.1, 0)], &[5.0]);
        assert!(
            solve_exhaustive(&neg).is_empty(),
            "net −4 < choose-nothing 0"
        );
    }

    #[test]
    fn sharing_synergy_found() {
        // Each member alone is negative (3 − 5), but together 3+3+3 − 5 = 4.
        let inst = instance(
            &[&[10.0], &[10.0], &[10.0]],
            &[
                (0, 0, 0, 3.0, 1.0, 0),
                (1, 0, 0, 3.0, 1.0, 0),
                (2, 0, 0, 3.0, 1.0, 0),
            ],
            &[5.0],
        );
        let sol = solve_exhaustive(&inst);
        assert_eq!(sol, vec![0, 1, 2]);
        assert!((inst.net_objective(&sol) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn overlap_forces_choice() {
        // Two overlapping caches: must pick the better one.
        let inst = instance(
            &[&[5.0, 5.0, 5.0]],
            &[(0, 0, 1, 6.0, 1.0, 0), (0, 1, 2, 9.0, 1.0, 1)],
            &[1.0, 1.0],
        );
        let sol = solve_exhaustive(&inst);
        assert_eq!(sol, vec![1]);
    }

    #[test]
    fn mixed_instance_exact() {
        // Shared pair (group 0) vs a big overlapping solo cache (group 1).
        // Shared: 4+4 − 6 = 2. Solo: 7 − 2 = 5, but overlaps member 0 only.
        // Best: solo + member 1 = 5 + (4 − 6) < 5? member 1 alone with group
        // cost 6 is negative → best = solo + nothing = 5? or shared pair = 2.
        let inst = instance(
            &[&[9.0, 9.0], &[9.0]],
            &[
                (0, 0, 0, 4.0, 1.0, 0),
                (1, 0, 0, 4.0, 1.0, 0),
                (0, 0, 1, 7.0, 2.0, 1),
            ],
            &[6.0, 2.0],
        );
        let sol = solve_exhaustive(&inst);
        assert_eq!(sol, vec![2]);
        assert!((inst.net_objective(&sol) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn prunes_but_stays_exact_on_moderate_m() {
        // 18 independent caches with varied benefits; optimum = all positive
        // nets.
        let mut caches = Vec::new();
        let mut group_cost = Vec::new();
        let mut ops: Vec<Vec<f64>> = Vec::new();
        let mut expected = 0.0;
        for i in 0..18usize {
            ops.push(vec![10.0]);
            let benefit = (i as f64) - 5.0; // −5 .. 12
            caches.push((i, 0usize, 0usize, benefit, 0.5, i));
            group_cost.push(1.0);
            if benefit - 1.0 > 0.0 {
                expected += benefit - 1.0;
            }
        }
        let refs: Vec<&[f64]> = ops.iter().map(|v| v.as_slice()).collect();
        let inst = instance(&refs, &caches, &group_cost);
        let sol = solve_exhaustive(&inst);
        assert!((inst.net_objective(&sol) - expected).abs() < 1e-9);
    }
}
