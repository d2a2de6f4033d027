//! # fast-ilp — a self-contained 0/1 MILP solver
//!
//! The FAST paper solves its fusion ILP (Figure 8) with SCIP v7, configured
//! with a 20-minute timeout after which the best incumbent is taken (§6.1).
//! SCIP is not available to this reproduction, so this crate provides the
//! substrate from scratch:
//!
//! * a [`Problem`] builder for sparse mixed 0/1 linear programs,
//! * a two-phase primal [`simplex`] solver for LP relaxations on a
//!   sparse-indexed dense tableau (each pivot touches only nonzeros, with
//!   the pivots and answers of a plain dense tableau), with crash
//!   warm-starting from a related basis and an anti-cycling guard,
//! * a `presolve` pass (binary fixing, coefficient tightening) that
//!   shrinks the search without changing any answer,
//! * an LP-based [`branch_bound`] driver — best-bound node selection with
//!   pseudocost branching — with a deterministic node budget that returns
//!   the best incumbent on limit, the same contract FAST relies on.
//!   The pre-optimization depth-first solver survives as
//!   [`solve_milp_reference`], the oracle used by the `ilp_solve` bench.
//!
//! ```
//! use fast_ilp::{Problem, Sense, SolveOptions, solve_milp, MilpStatus};
//!
//! // max 6a + 10b + 12c  s.t.  a + 2b + 3c <= 5   (classic knapsack)
//! let mut p = Problem::new("knapsack");
//! let a = p.add_binary("a", -6.0);
//! let b = p.add_binary("b", -10.0);
//! let c = p.add_binary("c", -12.0);
//! p.add_constraint("cap", vec![(a, 1.0), (b, 2.0), (c, 3.0)], Sense::Le, 5.0);
//! let sol = solve_milp(&p, &SolveOptions::default());
//! assert_eq!(sol.status, MilpStatus::Optimal);
//! assert_eq!(sol.objective, -22.0);
//! ```

pub mod branch_bound;
pub(crate) mod presolve;
pub mod problem;
pub mod simplex;

pub use branch_bound::{solve_milp, solve_milp_reference, MilpSolution, MilpStatus, SolveOptions};
pub use problem::{Constraint, Problem, Sense, VarId, VarKind, Variable};
pub use simplex::{solve_lp, solve_lp_warm, Bounds, LpSolution, LpStatus};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn brute_force(values: &[f64], weights: &[Vec<f64>], caps: &[f64]) -> f64 {
        let n = values.len();
        let mut best = f64::INFINITY;
        for mask in 0..(1u32 << n) {
            let x: Vec<f64> =
                (0..n).map(|i| if mask & (1 << i) != 0 { 1.0 } else { 0.0 }).collect();
            let feasible = weights.iter().zip(caps).all(|(row, &cap)| {
                row.iter().zip(&x).map(|(a, b)| a * b).sum::<f64>() <= cap + 1e-9
            });
            if feasible {
                let obj: f64 = x.iter().zip(values).map(|(a, b)| a * b).sum();
                best = best.min(obj);
            }
        }
        best
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Branch-and-bound matches brute force on random multi-constraint
        /// binary problems (n <= 8, 2 rows).
        #[test]
        fn bb_matches_brute_force(
            values in prop::collection::vec(-9i32..=9, 2..=8),
            w1 in prop::collection::vec(0i32..=5, 8),
            w2 in prop::collection::vec(0i32..=5, 8),
            c1 in 0i32..=12,
            c2 in 0i32..=12,
        ) {
            let n = values.len();
            let values: Vec<f64> = values.iter().map(|&v| v as f64).collect();
            let rows: Vec<Vec<f64>> = vec![
                w1[..n].iter().map(|&v| v as f64).collect(),
                w2[..n].iter().map(|&v| v as f64).collect(),
            ];
            let caps = [c1 as f64, c2 as f64];

            let mut p = Problem::new("prop");
            let vars: Vec<VarId> = values
                .iter()
                .enumerate()
                .map(|(i, &v)| p.add_binary(format!("x{i}"), v))
                .collect();
            for (r, row) in rows.iter().enumerate() {
                let terms: Vec<(VarId, f64)> =
                    vars.iter().zip(row).map(|(&v, &w)| (v, w)).collect();
                p.add_constraint(format!("r{r}"), terms, Sense::Le, caps[r]);
            }
            let sol = solve_milp(&p, &SolveOptions::default());
            prop_assert_eq!(sol.status, MilpStatus::Optimal);
            let expect = brute_force(&values, &rows, &caps);
            prop_assert!((sol.objective - expect).abs() < 1e-6,
                "solver {} vs brute force {}", sol.objective, expect);
        }

        /// Every returned incumbent is feasible.
        #[test]
        fn incumbents_are_feasible(
            values in prop::collection::vec(-9i32..=0, 3..=10),
            weights in prop::collection::vec(1i32..=4, 10),
            cap in 1i32..=10,
        ) {
            let n = values.len();
            let mut p = Problem::new("prop2");
            let vars: Vec<VarId> = values
                .iter()
                .enumerate()
                .map(|(i, &v)| p.add_binary(format!("x{i}"), v as f64))
                .collect();
            let terms: Vec<(VarId, f64)> = vars
                .iter()
                .zip(&weights[..n])
                .map(|(&v, &w)| (v, w as f64))
                .collect();
            p.add_constraint("cap", terms, Sense::Le, cap as f64);
            let sol = solve_milp(&p, &SolveOptions { max_nodes: 12, ..Default::default() });
            if sol.status != MilpStatus::Unknown && sol.status != MilpStatus::Infeasible {
                prop_assert!(p.is_feasible(&sol.values, 1e-6));
            }
        }

        /// Warm-start soundness: for random problems and random *feasible*
        /// warm starts, the solve returns the same status and objective as
        /// the cold solve — warm starts may change node counts, never
        /// answers.
        #[test]
        fn feasible_warm_starts_never_change_answers(
            values in prop::collection::vec(-9i32..=0, 3..=9),
            weights in prop::collection::vec(1i32..=4, 9),
            cap in 1i32..=12,
            picks in prop::collection::vec(0i32..=1, 9),
        ) {
            let n = values.len();
            let mut p = Problem::new("warm");
            let vars: Vec<VarId> = values
                .iter()
                .enumerate()
                .map(|(i, &v)| p.add_binary(format!("x{i}"), v as f64))
                .collect();
            let terms: Vec<(VarId, f64)> = vars
                .iter()
                .zip(&weights[..n])
                .map(|(&v, &w)| (v, w as f64))
                .collect();
            p.add_constraint("cap", terms, Sense::Le, cap as f64);

            // Build a random feasible 0/1 point: greedily keep picked items
            // that still fit under the capacity.
            let mut ws = vec![0.0f64; n];
            let mut used = 0i32;
            for i in 0..n {
                if picks[i] == 1 && used + weights[i] <= cap {
                    ws[i] = 1.0;
                    used += weights[i];
                }
            }
            // Feasible by construction (positive weights, greedy fit).
            prop_assert!(p.is_feasible(&ws, 1e-9));

            let cold = solve_milp(&p, &SolveOptions::default());
            let warm = solve_milp(
                &p,
                &SolveOptions { warm_start: Some(ws), ..Default::default() },
            );
            prop_assert_eq!(warm.status, cold.status);
            prop_assert!((warm.objective - cold.objective).abs() < 1e-6,
                "warm {} vs cold {}", warm.objective, cold.objective);
        }

        /// LP relaxation is a valid lower bound for the MILP optimum.
        #[test]
        fn lp_bounds_milp(
            values in prop::collection::vec(-9i32..=9, 2..=7),
            weights in prop::collection::vec(0i32..=5, 7),
            cap in 0i32..=10,
        ) {
            let n = values.len();
            let mut p = Problem::new("prop3");
            let vars: Vec<VarId> = values
                .iter()
                .enumerate()
                .map(|(i, &v)| p.add_binary(format!("x{i}"), v as f64))
                .collect();
            let terms: Vec<(VarId, f64)> = vars
                .iter()
                .zip(&weights[..n])
                .map(|(&v, &w)| (v, w as f64))
                .collect();
            p.add_constraint("cap", terms, Sense::Le, cap as f64);
            let lp = solve_lp(&p, &Bounds::of(&p));
            let milp = solve_milp(&p, &SolveOptions::default());
            prop_assert_eq!(lp.status, LpStatus::Optimal);
            prop_assert_eq!(milp.status, MilpStatus::Optimal);
            prop_assert!(lp.objective <= milp.objective + 1e-6,
                "lp {} should lower-bound milp {}", lp.objective, milp.objective);
        }
    }
}
