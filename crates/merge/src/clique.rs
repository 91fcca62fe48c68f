//! Maximum-weight clique search over the compatibility graph
//! (Fig. 5d of the paper).
//!
//! Exact branch-and-bound with a weight-sum upper bound under the
//! caller's [`Meter`] (search-node budget, wall-clock deadline, byte cap,
//! cooperative cancellation); a greedy multi-start pass seeds the
//! incumbent, so when
//! any limit trips the result degrades gracefully to the best clique found
//! so far and the [`Provenance`] in the solution says why the search
//! stopped. An optional *set feasibility* predicate supports constraints
//! that are not pairwise (datapath merging must reject candidate sets
//! whose union would create a combinational cycle).

use apex_fault::{ApexError, Budget, Meter, Provenance, Stage};

/// A max-weight-clique instance.
pub struct CliqueProblem<'a> {
    /// Node weights (all non-negative).
    pub weights: Vec<f64>,
    /// Pairwise compatibility (symmetric, irreflexive-irrelevant).
    pub compatible: Vec<Vec<bool>>,
    /// Set-level feasibility: may the candidate be added to the current
    /// clique? Called with (current clique, candidate).
    pub feasible: Option<&'a dyn Fn(&[usize], usize) -> bool>,
}

/// The result of a clique search: the members plus how the search ended.
#[derive(Debug, Clone, PartialEq)]
pub struct CliqueSolution {
    /// The best clique found (exact iff `provenance == Completed`).
    pub members: Vec<usize>,
    /// Whether the branch-and-bound ran to completion or was interrupted.
    pub provenance: Provenance,
    /// Search-tree nodes explored.
    pub explored: u64,
}

impl CliqueProblem<'_> {
    /// Rejects instances whose weights the branch-and-bound cannot order
    /// soundly: a NaN weight silently corrupts the descending sort and the
    /// suffix-sum pruning bound (the search can then prune the true
    /// max-weight clique), and an infinite weight poisons every suffix sum
    /// it participates in. Solver construction must refuse both.
    ///
    /// # Errors
    /// [`Stage::Merge`] error naming the first non-finite weight.
    pub fn validate(&self) -> Result<(), ApexError> {
        for (i, w) in self.weights.iter().enumerate() {
            if !w.is_finite() {
                return Err(ApexError::new(
                    Stage::Merge,
                    format!("clique weight {i} is {w}; merge savings must be finite"),
                ));
            }
        }
        Ok(())
    }

    /// Validates the instance and solves it — the entry point the merge
    /// stage uses, so malformed cost-model output is an error instead of a
    /// silently mis-pruned search.
    ///
    /// # Errors
    /// Propagates [`CliqueProblem::validate`] failures.
    pub fn try_solve(&self, meter: &mut Meter) -> Result<CliqueSolution, ApexError> {
        self.validate()?;
        Ok(self.solve(meter))
    }

    /// Solves the instance, ticking `meter` once per search-tree node and
    /// charging the solver's auxiliary arrays against it. The greedy
    /// seeding pass always runs, so even a zero step budget or an
    /// already-expired deadline yields a valid clique — just one with
    /// partial provenance. When the byte cap is exhausted the search
    /// degrades to the greedy incumbent (or the empty clique when even the
    /// ordering arrays do not fit) with [`Provenance::TruncatedByBudget`]
    /// instead of allocating anyway.
    ///
    /// Assumes finite weights (see [`CliqueProblem::try_solve`]); with a
    /// NaN in the instance the pruning bound is unsound.
    pub fn solve(&self, meter: &mut Meter) -> CliqueSolution {
        let n = self.weights.len();
        if n == 0 {
            return CliqueSolution {
                members: Vec::new(),
                provenance: Provenance::Completed,
                explored: 0,
            };
        }
        // ordering + suffix-sum arrays: without these not even the greedy
        // incumbent can run, so the search degrades to the empty clique
        // (a valid merge outcome: nothing merges)
        let order_bytes =
            (n * std::mem::size_of::<usize>() + (n + 1) * std::mem::size_of::<f64>()) as u64;
        if !meter.charge(order_bytes) {
            return CliqueSolution {
                members: Vec::new(),
                provenance: meter.provenance(),
                explored: 0,
            };
        }
        // order by weight descending for a tight suffix bound; total_cmp
        // keeps the order well-defined for every float (NaNs sort last
        // instead of scrambling their neighbourhood)
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| f64::total_cmp(&self.weights[b], &self.weights[a]));
        let mut suffix = vec![0.0; n + 1];
        for i in (0..n).rev() {
            suffix[i] = suffix[i + 1] + self.weights[order[i]];
        }

        // greedy seed: best of n single-start greedy passes (not metered —
        // this is the incumbent every degraded path relies on)
        let mut best: Vec<usize> = Vec::new();
        let mut best_w = f64::NEG_INFINITY;
        for start in 0..n.min(32) {
            let g = self.greedy(&order, start);
            let w = g.iter().map(|&i| self.weights[i]).sum::<f64>();
            if w > best_w {
                best_w = w;
                best = g;
            }
        }

        // coloring + bound arrays feed only the branch-and-bound
        // refinement; when they do not fit, the greedy incumbent stands
        let color_bytes =
            (n * std::mem::size_of::<usize>() + 2 * (n + 1) * std::mem::size_of::<f64>()) as u64;
        if !meter.charge(color_bytes) {
            return CliqueSolution {
                members: best,
                provenance: meter.provenance(),
                explored: 0,
            };
        }

        // Greedy coloring along the same weight-descending order: each
        // color class is an independent set of the compatibility graph, so
        // a clique contains at most one vertex per class. The per-suffix
        // sum of color-class maxima is then a second upper bound, usually
        // far tighter than the plain suffix sum on sparse compatibility
        // graphs. Keeping the traversal order itself unchanged preserves
        // the exact incumbent sequence: a sound bound only removes
        // subtrees that cannot strictly improve, so the returned members
        // are identical to the suffix-only search.
        let mut color = vec![0usize; n];
        let mut ncolors = 0usize;
        let mut used: Vec<bool> = Vec::new();
        for k in 0..n {
            used.clear();
            used.resize(ncolors + 1, false);
            for j in 0..k {
                if self.compatible[order[j]][order[k]] {
                    used[color[j]] = true;
                }
            }
            let c = used.iter().position(|&u| !u).unwrap_or(ncolors);
            color[k] = c;
            ncolors = ncolors.max(c + 1);
        }
        // colored[k]: sum of per-color maxima over order[k..], weights
        // clamped at zero (the search only ever adds positive weights)
        let mut colored = vec![0.0f64; n + 1];
        let mut colmax = vec![0.0f64; ncolors];
        let mut running = 0.0f64;
        for k in (0..n).rev() {
            let w = self.weights[order[k]].max(0.0);
            let c = color[k];
            if w > colmax[c] {
                running += w - colmax[c];
                colmax[c] = w;
            }
            colored[k] = running;
        }
        // the bound used at each depth: both bounds are sound, take the min
        let bound: Vec<f64> = (0..=n).map(|k| suffix[k].min(colored[k])).collect();

        let steps_before = meter.steps();
        let mut state = Search {
            problem: self,
            order: &order,
            bound: &bound,
            best,
            best_w,
        };
        // an already-expired deadline or tripped cancel flag skips the
        // branch-and-bound entirely and reports why
        if meter.check_slow() {
            state.recurse(&mut Vec::new(), 0.0, 0, meter);
        }
        CliqueSolution {
            members: state.best,
            provenance: meter.provenance(),
            explored: meter.steps() - steps_before,
        }
    }

    fn greedy(&self, order: &[usize], start: usize) -> Vec<usize> {
        let mut clique: Vec<usize> = Vec::new();
        for k in 0..order.len() {
            let cand = order[(start + k) % order.len()];
            if self.weights[cand] <= 0.0 {
                continue;
            }
            if clique.iter().all(|&c| self.compatible[c][cand])
                && self.feasible.is_none_or(|f| f(&clique, cand))
            {
                clique.push(cand);
            }
        }
        clique
    }
}

struct Search<'p, 'a> {
    problem: &'p CliqueProblem<'a>,
    order: &'p [usize],
    /// Per-depth upper bound on the weight still obtainable:
    /// `min(suffix sum, colored bound)` (see [`CliqueProblem::solve`]).
    bound: &'p [f64],
    best: Vec<usize>,
    best_w: f64,
}

impl Search<'_, '_> {
    fn recurse(&mut self, clique: &mut Vec<usize>, weight: f64, depth: usize, meter: &mut Meter) {
        if !meter.tick() {
            return;
        }
        if weight > self.best_w {
            self.best_w = weight;
            self.best = clique.clone();
        }
        if depth >= self.order.len() || weight + self.bound[depth] <= self.best_w {
            return;
        }
        let cand = self.order[depth];
        // branch 1: include cand (if allowed)
        if self.problem.weights[cand] > 0.0
            && clique.iter().all(|&c| self.problem.compatible[c][cand])
            && self.problem.feasible.is_none_or(|f| f(clique, cand))
        {
            clique.push(cand);
            self.recurse(clique, weight + self.problem.weights[cand], depth + 1, meter);
            clique.pop();
        }
        // branch 2: skip cand
        self.recurse(clique, weight, depth + 1, meter);
    }
}

/// Convenience wrapper for unconstrained instances under a search-node
/// budget.
pub fn max_weight_clique(weights: &[f64], compatible: &[Vec<bool>], budget: u64) -> Vec<usize> {
    CliqueProblem {
        weights: weights.to_vec(),
        compatible: compatible.to_vec(),
        feasible: None,
    }
    .solve(&mut Budget::unlimited().with_max_steps(budget).start())
    .members
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn full_matrix(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<bool>> {
        let mut m = vec![vec![false; n]; n];
        for &(a, b) in edges {
            m[a][b] = true;
            m[b][a] = true;
        }
        m
    }

    #[test]
    fn triangle_beats_heavy_singleton() {
        // nodes 0,1,2 form a triangle with weight 3; node 3 weighs 2.5 alone
        let compat = full_matrix(4, &[(0, 1), (0, 2), (1, 2)]);
        let w = vec![1.0, 1.0, 1.0, 2.5];
        let mut c = max_weight_clique(&w, &compat, 1 << 20);
        c.sort_unstable();
        assert_eq!(c, vec![0, 1, 2]);
    }

    #[test]
    fn heavy_singleton_beats_light_clique() {
        let compat = full_matrix(4, &[(0, 1), (0, 2), (1, 2)]);
        let w = vec![1.0, 1.0, 1.0, 10.0];
        let c = max_weight_clique(&w, &compat, 1 << 20);
        assert_eq!(c, vec![3]);
    }

    #[test]
    fn zero_weight_nodes_are_ignored() {
        let compat = full_matrix(3, &[(0, 1), (1, 2), (0, 2)]);
        let w = vec![0.0, 5.0, 0.0];
        let c = max_weight_clique(&w, &compat, 1 << 20);
        assert_eq!(c, vec![1]);
    }

    #[test]
    fn feasibility_predicate_blocks_sets() {
        // all pairwise compatible, but sets larger than 2 are forbidden
        // (the predicate must be order-invariant, like the acyclicity
        // constraint it models)
        let compat = full_matrix(3, &[(0, 1), (1, 2), (0, 2)]);
        let w = vec![1.0, 1.0, 1.0];
        let feasible = |clique: &[usize], _cand: usize| clique.len() < 2;
        let p = CliqueProblem {
            weights: w,
            compatible: compat,
            feasible: Some(&feasible),
        };
        let sol = p.solve(&mut Budget::unlimited().with_max_steps(1 << 20).start());
        assert_eq!(sol.provenance, Provenance::Completed);
        assert_eq!(sol.members.len(), 2, "best feasible clique has 2 nodes: {sol:?}");
    }

    #[test]
    fn exhausted_node_budget_reports_truncation() {
        // K5 with a set-feasibility cap of 2 members: the weight bounds
        // cannot see the predicate, so the bound at the root (5.0) stays
        // far above the best feasible weight (2.0) and the search keeps
        // branching until the 3-node budget cuts it off mid-tree
        let compat = full_matrix(
            5,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (1, 2),
                (1, 3),
                (1, 4),
                (2, 3),
                (2, 4),
                (3, 4),
            ],
        );
        let w = vec![1.0; 5];
        let feasible = |clique: &[usize], _cand: usize| clique.len() < 2;
        let p = CliqueProblem {
            weights: w.clone(),
            compatible: compat,
            feasible: Some(&feasible),
        };
        let sol = p.solve(&mut Budget::unlimited().with_max_steps(3).start());
        assert_eq!(sol.provenance, Provenance::TruncatedByBudget);
        // the greedy incumbent already found a best feasible pair
        let weight: f64 = sol.members.iter().map(|&i| w[i]).sum();
        assert_eq!(weight, 2.0, "{sol:?}");
    }

    #[test]
    fn expired_deadline_reports_timeout_but_returns_greedy() {
        let compat = full_matrix(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let w = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let p = CliqueProblem {
            weights: w.clone(),
            compatible: compat,
            feasible: None,
        };
        let budget = Budget::unlimited()
            .with_max_steps(1 << 22)
            .with_deadline(Duration::ZERO);
        let sol = p.solve(&mut budget.start());
        assert_eq!(sol.provenance, Provenance::TimedOut);
        let weight: f64 = sol.members.iter().map(|&i| w[i]).sum();
        assert_eq!(weight, 9.0, "greedy incumbent survives timeout: {sol:?}");
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        // deterministic xorshift RNG
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..60 {
            let n = 4 + (rand() % 9) as usize; // 4..12
            let mut compat = vec![vec![false; n]; n];
            for i in 0..n {
                for j in (i + 1)..n {
                    // vary density so the colored bound sees sparse and
                    // near-complete instances
                    if rand() % 4 > trial as u64 % 3 {
                        compat[i][j] = true;
                        compat[j][i] = true;
                    }
                }
            }
            // mix in zero and negative weights: the clamped colored bound
            // and the raw suffix sum must both stay sound
            let weights: Vec<f64> = (0..n)
                .map(|_| (rand() % 100) as f64 / 10.0 - 2.0)
                .collect();
            let got: f64 = max_weight_clique(&weights, &compat, 1 << 22)
                .iter()
                .map(|&i| weights[i])
                .sum();
            // brute force over all subsets
            let mut best = 0.0f64;
            for mask in 0u32..(1 << n) {
                let members: Vec<usize> = (0..n).filter(|&i| mask >> i & 1 == 1).collect();
                let ok = members
                    .iter()
                    .enumerate()
                    .all(|(k, &a)| members[k + 1..].iter().all(|&b| compat[a][b]));
                if ok {
                    let w: f64 = members.iter().map(|&i| weights[i]).sum();
                    best = best.max(w);
                }
            }
            assert!(
                (got - best).abs() < 1e-9,
                "trial {trial}: got {got}, brute force {best}"
            );
        }
    }

    /// The original suffix-sum-only branch-and-bound, retained as the
    /// executable specification of the search order: the colored bound may
    /// only remove subtrees that cannot strictly improve the incumbent, so
    /// the returned members must be *identical*, not merely equal-weight.
    fn reference_suffix_only(weights: &[f64], compat: &[Vec<bool>]) -> Vec<usize> {
        let n = weights.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| f64::total_cmp(&weights[b], &weights[a]));
        let mut suffix = vec![0.0; n + 1];
        for i in (0..n).rev() {
            suffix[i] = suffix[i + 1] + weights[order[i]];
        }
        struct R<'x> {
            weights: &'x [f64],
            compat: &'x [Vec<bool>],
            order: &'x [usize],
            suffix: &'x [f64],
            best: Vec<usize>,
            best_w: f64,
        }
        impl R<'_> {
            fn recurse(&mut self, clique: &mut Vec<usize>, weight: f64, depth: usize) {
                if weight > self.best_w {
                    self.best_w = weight;
                    self.best = clique.clone();
                }
                if depth >= self.order.len() || weight + self.suffix[depth] <= self.best_w {
                    return;
                }
                let cand = self.order[depth];
                if self.weights[cand] > 0.0
                    && clique.iter().all(|&c| self.compat[c][cand])
                {
                    clique.push(cand);
                    self.recurse(clique, weight + self.weights[cand], depth + 1);
                    clique.pop();
                }
                self.recurse(clique, weight, depth + 1);
            }
        }
        // same greedy multi-start seed as the production solver, so the
        // incumbent sequences start identical
        let mut best: Vec<usize> = Vec::new();
        let mut best_w = f64::NEG_INFINITY;
        for start in 0..n.min(32) {
            let mut clique: Vec<usize> = Vec::new();
            for k in 0..n {
                let cand = order[(start + k) % n];
                if weights[cand] > 0.0 && clique.iter().all(|&c| compat[c][cand]) {
                    clique.push(cand);
                }
            }
            let w = clique.iter().map(|&i| weights[i]).sum::<f64>();
            if w > best_w {
                best_w = w;
                best = clique;
            }
        }
        let mut r = R {
            weights,
            compat,
            order: &order,
            suffix: &suffix,
            best,
            best_w,
        };
        r.recurse(&mut Vec::new(), 0.0, 0);
        r.best
    }

    #[test]
    fn colored_bound_returns_identical_members_to_suffix_only_search() {
        let mut state = 0x9D2C_5680_1F83_D9ABu64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..40 {
            let n = 3 + (rand() % 10) as usize;
            let mut compat = vec![vec![false; n]; n];
            for i in 0..n {
                for j in (i + 1)..n {
                    if rand() % 3 != 0 {
                        compat[i][j] = true;
                        compat[j][i] = true;
                    }
                }
            }
            let weights: Vec<f64> = (0..n).map(|_| (rand() % 80) as f64 / 8.0).collect();
            let p = CliqueProblem {
                weights: weights.clone(),
                compatible: compat.clone(),
                feasible: None,
            };
            let sol = p.solve(&mut Budget::unlimited().with_max_steps(1 << 30).start());
            assert_eq!(sol.provenance, Provenance::Completed);
            let want = reference_suffix_only(&weights, &compat);
            assert_eq!(sol.members, want, "trial {trial} diverged");
        }
    }

    #[test]
    fn empty_problem() {
        assert!(max_weight_clique(&[], &[], 100).is_empty());
    }

    #[test]
    fn zero_memory_budget_degrades_to_empty_clique() {
        let compat = full_matrix(3, &[(0, 1), (1, 2), (0, 2)]);
        let p = CliqueProblem {
            weights: vec![1.0, 1.0, 1.0],
            compatible: compat,
            feasible: None,
        };
        let mut meter = Budget::unlimited().with_max_steps(1 << 20).with_max_bytes(0).start();
        let sol = p.solve(&mut meter);
        assert!(sol.members.is_empty());
        assert_eq!(sol.provenance, Provenance::TruncatedByBudget);
    }

    #[test]
    fn tight_memory_budget_returns_greedy_incumbent() {
        // enough for the ordering arrays (first charge) but not the
        // coloring/bound arrays (second charge): the greedy incumbent
        // stands, flagged TruncatedByBudget
        let n = 5;
        let compat = full_matrix(n, &[(0, 1), (0, 2), (1, 2)]);
        let w = vec![1.0, 1.0, 1.0, 0.5, 0.25];
        let order_bytes =
            (n * std::mem::size_of::<usize>() + (n + 1) * std::mem::size_of::<f64>()) as u64;
        let p = CliqueProblem {
            weights: w.clone(),
            compatible: compat,
            feasible: None,
        };
        let mut meter = Budget::unlimited().with_max_steps(1 << 20).with_max_bytes(order_bytes).start();
        let a = p.solve(&mut meter);
        assert_eq!(a.provenance, Provenance::TruncatedByBudget);
        assert!(!a.members.is_empty(), "greedy incumbent survives: {a:?}");
        // deterministic: same budget, same degradation
        let mut meter2 = Budget::unlimited().with_max_steps(1 << 20).with_max_bytes(order_bytes).start();
        let b = p.solve(&mut meter2);
        assert_eq!(a.members, b.members);
    }

    #[test]
    fn nan_weight_is_rejected_not_mispruned() {
        // regression: with partial_cmp(..).unwrap_or(Equal) the NaN left
        // the descending order (and the suffix bound) silently corrupted,
        // so branch-and-bound could prune the true max-weight clique
        let compat = full_matrix(4, &[(0, 1), (0, 2), (1, 2)]);
        let w = vec![1.0, f64::NAN, 1.0, 2.5];
        let p = CliqueProblem {
            weights: w,
            compatible: compat,
            feasible: None,
        };
        let err = p.try_solve(&mut Budget::unlimited().with_max_steps(1 << 20).start()).unwrap_err();
        assert_eq!(err.stage(), apex_fault::Stage::Merge);
        assert!(err.message().contains("weight 1"), "{err}");
    }

    #[test]
    fn infinite_weight_is_rejected() {
        let compat = full_matrix(2, &[(0, 1)]);
        for bad in [f64::INFINITY, f64::NEG_INFINITY] {
            let p = CliqueProblem {
                weights: vec![1.0, bad],
                compatible: compat.clone(),
                feasible: None,
            };
            assert!(p.try_solve(&mut Budget::unlimited().with_max_steps(1 << 20).start()).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn finite_instances_pass_validation() {
        let compat = full_matrix(3, &[(0, 1), (1, 2), (0, 2)]);
        let p = CliqueProblem {
            weights: vec![1.0, 2.0, 3.0],
            compatible: compat,
            feasible: None,
        };
        let sol = p.try_solve(&mut Budget::unlimited().with_max_steps(1 << 20).start()).unwrap();
        assert_eq!(sol.members.len(), 3);
    }
}
