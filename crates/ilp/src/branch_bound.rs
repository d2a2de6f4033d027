//! LP-based branch and bound for 0/1 MILPs.
//!
//! Matches the contract FAST relies on from SCIP (§6.1): solve to optimality
//! when the budget allows, otherwise return the **best incumbent** found
//! within the node limit.
//!
//! [`solve_milp`] is a best-bound search: open nodes live in a priority
//! queue ordered by their parent's LP bound (ties broken by creation order,
//! so exploration is fully deterministic), which closes the optimality gap
//! with far fewer nodes than the depth-first baseline. Three further
//! reductions ride on top, all exact — they never change the answer, only
//! the work:
//!
//! * a presolve pass fixes binaries implied by row
//!   bounds and tightens coefficients before the tree starts;
//! * branching is pseudocost-driven: per-variable objective degradations
//!   observed in child LPs pick the next branch variable, seeded from
//!   objective coefficients while unobserved (lowest index on ties);
//! * child LPs crash-start from the parent's optimal basis
//!   ([`crate::simplex::solve_lp_warm`]), so each child typically needs a
//!   handful of pivots instead of a full two-phase solve; every node LP is
//!   built into one reused simplex workspace.
//!
//! Termination is governed by the deterministic `max_nodes` budget; the
//! wall-clock limit is an opt-in escape hatch (`time_limit: Some(..)`) and
//! deliberately off by default, because a clock-based stop can flip
//! `proven`/incumbents between runs on a loaded machine.
//!
//! The pre-optimization solver is kept as [`solve_milp_reference`] — a
//! comparison oracle for the `ilp_solve` bench, which asserts the new
//! search returns identical decisions with a fraction of the nodes.

use crate::presolve::presolve;
use crate::problem::Problem;
use crate::simplex::{solve_lp, Bounds, LpStatus, Workspace};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Integrality tolerance for branching decisions.
const INT_TOL: f64 = 1e-6;

/// Solver limits and warm start.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Deterministic node budget — the primary stop. Exploration halts after
    /// this many LP-solved nodes and the best incumbent is returned.
    pub max_nodes: usize,
    /// Opt-in wall-clock escape hatch. `None` (the default) keeps the solve
    /// fully deterministic; `Some(limit)` additionally stops the search when
    /// the clock runs out, which may flip `proven` between runs.
    pub time_limit: Option<Duration>,
    /// Relative optimality gap used for pruning.
    pub gap_tol: f64,
    /// Optional warm-start assignment; adopted as the initial incumbent when
    /// feasible (checked against the problem), silently ignored otherwise.
    pub warm_start: Option<Vec<f64>>,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions { max_nodes: 10_000, time_limit: None, gap_tol: 1e-6, warm_start: None }
    }
}

/// Termination status of a MILP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MilpStatus {
    /// Proven optimal.
    Optimal,
    /// A feasible incumbent is returned but limits stopped the proof.
    Incumbent,
    /// Proven infeasible.
    Infeasible,
    /// Limits hit before any feasible point was found.
    Unknown,
}

/// Result of a MILP solve.
#[derive(Debug, Clone)]
pub struct MilpSolution {
    /// Termination status.
    pub status: MilpStatus,
    /// Objective of `values` (`f64::INFINITY` when none found).
    pub objective: f64,
    /// Best assignment found.
    pub values: Vec<f64>,
    /// Branch-and-bound nodes whose LP relaxation was solved.
    pub nodes_explored: usize,
    /// Total simplex pivots across all node LPs (crash + both phases).
    pub lp_pivots: u64,
}

/// Pruning cutoff for a given incumbent objective.
fn cutoff(best_obj: f64, gap_tol: f64) -> f64 {
    best_obj - gap_tol * best_obj.abs().max(1.0)
}

/// An open node: bounds plus the parent's LP bound and optimal basis.
struct Node {
    /// Valid lower bound on every integer point in this subtree (the
    /// parent's LP objective; `-inf` for the root).
    bound: f64,
    /// Creation order; deterministic tie-break for equal bounds.
    id: u64,
    bounds: Bounds,
    /// Parent's optimal basis (structural columns), shared by siblings.
    basis: Option<Rc<Vec<usize>>>,
    /// Branch that created this node: `(var, went_up, parent_obj, parent_frac)`.
    branch: Option<(usize, bool, f64, f64)>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the smallest (bound, id) pops.
        other.bound.total_cmp(&self.bound).then_with(|| other.id.cmp(&self.id))
    }
}

/// Per-variable pseudocost state: observed objective degradation per unit
/// of fractionality, in each branch direction.
#[derive(Clone, Copy, Default)]
struct Pseudocost {
    down_sum: f64,
    down_n: u32,
    up_sum: f64,
    up_n: u32,
}

impl Pseudocost {
    fn down(&self, seed: f64) -> f64 {
        if self.down_n == 0 {
            seed
        } else {
            self.down_sum / f64::from(self.down_n)
        }
    }
    fn up(&self, seed: f64) -> f64 {
        if self.up_n == 0 {
            seed
        } else {
            self.up_sum / f64::from(self.up_n)
        }
    }
}

/// Solves a 0/1 MILP by presolved, warm-started, best-bound branch and
/// bound. See the module docs for the search design; answers are a
/// deterministic function of `(problem, options)` unless `time_limit` is
/// set.
#[must_use]
pub fn solve_milp(problem: &Problem, options: &SolveOptions) -> MilpSolution {
    let start = options.time_limit.map(|limit| (Instant::now(), limit));
    let num_vars = problem.num_vars();
    let binaries = problem.binary_vars();

    let mut best_x: Option<Vec<f64>> = None;
    let mut best_obj = f64::INFINITY;
    if let Some(ws) = &options.warm_start {
        if problem.is_feasible(ws, 1e-6) {
            best_obj = problem.objective_value(ws);
            best_x = Some(ws.clone());
        }
    }

    let pre = presolve(problem, &Bounds::of(problem));
    if pre.infeasible {
        // Presolve's proof stands only when no incumbent contradicts it; a
        // feasible warm start (tolerances can disagree at the margin) is
        // still returned, conservatively unproven.
        return match best_x {
            Some(x) => MilpSolution {
                status: MilpStatus::Incumbent,
                objective: best_obj,
                values: x,
                nodes_explored: 0,
                lp_pivots: 0,
            },
            None => MilpSolution {
                status: MilpStatus::Infeasible,
                objective: f64::INFINITY,
                values: vec![0.0; num_vars],
                nodes_explored: 0,
                lp_pivots: 0,
            },
        };
    }
    let tightened = &pre.problem;
    let mut lp_workspace = Workspace::new(tightened);

    let mut heap: BinaryHeap<Node> = BinaryHeap::new();
    heap.push(Node {
        bound: f64::NEG_INFINITY,
        id: 0,
        bounds: pre.bounds,
        basis: None,
        branch: None,
    });
    let mut next_id: u64 = 1;

    let mut pseudo: Vec<Pseudocost> = vec![Pseudocost::default(); num_vars];
    let seeds: Vec<f64> = problem.variables().iter().map(|v| v.objective.abs() + 1e-6).collect();

    let mut nodes_explored = 0usize;
    let mut lp_pivots = 0u64;
    let mut proven = true;
    let mut closed = false;

    while let Some(node) = heap.pop() {
        // With best-bound order, the popped node has the least bound of all
        // open nodes: once it clears the cutoff the whole tree is pruned.
        if node.bound >= cutoff(best_obj, options.gap_tol) {
            closed = true;
            break;
        }
        if nodes_explored >= options.max_nodes {
            proven = false;
            break;
        }
        if let Some((t0, limit)) = start {
            if t0.elapsed() > limit {
                proven = false;
                break;
            }
        }
        nodes_explored += 1;

        let lp = lp_workspace.solve(&node.bounds, node.basis.as_deref().map(Vec::as_slice));
        lp_pivots += lp.pivots;
        match lp.status {
            LpStatus::Infeasible => continue,
            LpStatus::Unbounded => {
                proven = false;
                continue;
            }
            LpStatus::IterLimit => {
                // The point may be suboptimal: its objective is not a valid
                // bound, so don't prune on it — but still branch below.
                proven = false;
            }
            LpStatus::Optimal => {
                if let Some((var, up, parent_obj, frac)) = node.branch {
                    if parent_obj.is_finite() {
                        let gain = (lp.objective - parent_obj).max(0.0);
                        let pc = &mut pseudo[var];
                        if up {
                            pc.up_sum += gain / (1.0 - frac).max(INT_TOL);
                            pc.up_n += 1;
                        } else {
                            pc.down_sum += gain / frac.max(INT_TOL);
                            pc.down_n += 1;
                        }
                    }
                }
                if lp.objective >= cutoff(best_obj, options.gap_tol) {
                    continue;
                }
            }
        }
        let trusted = lp.status == LpStatus::Optimal;

        // Branch-variable selection: pseudocost product score over the
        // fractional binaries (lowest index wins ties via strict `>`).
        let mut best_var: Option<usize> = None;
        let mut best_score = f64::NEG_INFINITY;
        let mut best_val = 0.0;
        for v in &binaries {
            let i = v.index();
            let val = lp.values[i];
            let frac = (val - val.round()).abs();
            if frac > INT_TOL {
                let pc = &pseudo[i];
                let seed = seeds[i];
                let score =
                    (pc.down(seed) * frac).max(1e-12) * (pc.up(seed) * (1.0 - frac)).max(1e-12);
                if score > best_score {
                    best_score = score;
                    best_var = Some(i);
                    best_val = val;
                }
            }
        }

        let Some(branch_var) = best_var else {
            // Integral on all binaries: candidate incumbent.
            let mut x = lp.values.clone();
            for v in &binaries {
                x[v.index()] = x[v.index()].round();
            }
            if problem.is_feasible(&x, 1e-6) {
                let obj = problem.objective_value(&x);
                if obj < best_obj {
                    best_obj = obj;
                    best_x = Some(x);
                }
            }
            continue;
        };

        // Cheap rounding heuristic while we have no incumbent at all.
        if best_x.is_none() {
            let mut x = lp.values.clone();
            for v in &binaries {
                x[v.index()] = x[v.index()].round();
            }
            if problem.is_feasible(&x, 1e-6) {
                let obj = problem.objective_value(&x);
                if obj < best_obj {
                    best_obj = obj;
                    best_x = Some(x);
                }
            }
        }

        // Branch. Children inherit the tightest trusted bound on the path
        // and the parent's optimal basis as a crash hint; the side the
        // fraction leans toward gets the lower id (explored first on ties).
        let child_bound = if trusted { lp.objective } else { node.bound };
        let basis = if trusted { Some(Rc::new(lp.basic_structurals)) } else { node.basis.clone() };
        let parent_obj = if trusted { lp.objective } else { f64::INFINITY };
        let frac_part = (best_val - best_val.round()).abs();
        let order: [bool; 2] = if best_val >= 0.5 { [true, false] } else { [false, true] };
        for up in order {
            let mut child = node.bounds.clone();
            let v = if up { 1.0 } else { 0.0 };
            child.lo[branch_var] = v;
            child.hi[branch_var] = v;
            heap.push(Node {
                bound: child_bound,
                id: next_id,
                bounds: child,
                basis: basis.clone(),
                branch: Some((branch_var, up, parent_obj, frac_part)),
            });
            next_id += 1;
        }
    }
    if heap.is_empty() {
        closed = true;
    }

    let optimal = proven && closed;
    match best_x {
        Some(x) => MilpSolution {
            status: if optimal { MilpStatus::Optimal } else { MilpStatus::Incumbent },
            objective: best_obj,
            values: x,
            nodes_explored,
            lp_pivots,
        },
        None => MilpSolution {
            status: if optimal { MilpStatus::Infeasible } else { MilpStatus::Unknown },
            objective: f64::INFINITY,
            values: vec![0.0; num_vars],
            nodes_explored,
            lp_pivots,
        },
    }
}

/// The pre-optimization branch and bound: depth-first search with
/// most-fractional branching, no presolve, no basis reuse.
///
/// Kept as a comparison oracle so the `ilp_solve` bench can assert that
/// [`solve_milp`] returns identical decisions while exploring several times
/// fewer nodes. Not used on any production path.
#[must_use]
pub fn solve_milp_reference(problem: &Problem, options: &SolveOptions) -> MilpSolution {
    let start = options.time_limit.map(|limit| (Instant::now(), limit));
    let num_vars = problem.num_vars();
    let binaries = problem.binary_vars();

    let mut best_x: Option<Vec<f64>> = None;
    let mut best_obj = f64::INFINITY;
    if let Some(ws) = &options.warm_start {
        if problem.is_feasible(ws, 1e-6) {
            best_obj = problem.objective_value(ws);
            best_x = Some(ws.clone());
        }
    }

    let mut stack: Vec<Bounds> = vec![Bounds::of(problem)];
    let mut nodes_explored = 0usize;
    let mut lp_pivots = 0u64;
    let mut proven = true;

    while let Some(bounds) = stack.pop() {
        if nodes_explored >= options.max_nodes
            || start.is_some_and(|(t0, limit)| t0.elapsed() > limit)
        {
            proven = false;
            break;
        }
        nodes_explored += 1;

        let lp = solve_lp(problem, &bounds);
        lp_pivots += lp.pivots;
        match lp.status {
            LpStatus::Infeasible => continue,
            LpStatus::Unbounded => {
                proven = false;
                continue;
            }
            LpStatus::IterLimit => {
                proven = false;
            }
            LpStatus::Optimal => {}
        }
        if lp.status == LpStatus::Optimal
            && lp.objective >= best_obj - options.gap_tol * best_obj.abs().max(1.0)
        {
            continue;
        }

        // Most fractional binary.
        let mut branch_var: Option<usize> = None;
        let mut branch_frac = 0.0;
        for v in &binaries {
            let val = lp.values[v.index()];
            let frac = (val - val.round()).abs();
            if frac > INT_TOL && frac > branch_frac {
                branch_frac = frac;
                branch_var = Some(v.index());
            }
        }

        let Some(branch_var) = branch_var else {
            let mut x = lp.values.clone();
            for v in &binaries {
                x[v.index()] = x[v.index()].round();
            }
            if problem.is_feasible(&x, 1e-6) {
                let obj = problem.objective_value(&x);
                if obj < best_obj {
                    best_obj = obj;
                    best_x = Some(x);
                }
            }
            continue;
        };

        if best_x.is_none() {
            let mut x = lp.values.clone();
            for v in &binaries {
                x[v.index()] = x[v.index()].round();
            }
            if problem.is_feasible(&x, 1e-6) {
                let obj = problem.objective_value(&x);
                if obj < best_obj {
                    best_obj = obj;
                    best_x = Some(x);
                }
            }
        }

        let frac = lp.values[branch_var];
        let (near, far) = if frac >= 0.5 { (1.0, 0.0) } else { (0.0, 1.0) };
        let mut far_bounds = bounds.clone();
        far_bounds.lo[branch_var] = far;
        far_bounds.hi[branch_var] = far;
        stack.push(far_bounds);
        let mut near_bounds = bounds;
        near_bounds.lo[branch_var] = near;
        near_bounds.hi[branch_var] = near;
        stack.push(near_bounds);
    }

    let optimal = proven && stack.is_empty();
    match best_x {
        Some(x) => MilpSolution {
            status: if optimal { MilpStatus::Optimal } else { MilpStatus::Incumbent },
            objective: best_obj,
            values: x,
            nodes_explored,
            lp_pivots,
        },
        None => MilpSolution {
            status: if optimal { MilpStatus::Infeasible } else { MilpStatus::Unknown },
            objective: f64::INFINITY,
            values: vec![0.0; num_vars],
            nodes_explored,
            lp_pivots,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Sense;

    fn knapsack() -> Problem {
        // max 3a + 4b + 2c s.t. 2a + 3b + c <= 4  == min -(...)
        let mut p = Problem::new("knap");
        let a = p.add_binary("a", -3.0);
        let b = p.add_binary("b", -4.0);
        let c = p.add_binary("c", -2.0);
        p.add_constraint("cap", vec![(a, 2.0), (b, 3.0), (c, 1.0)], Sense::Le, 4.0);
        p
    }

    #[test]
    fn knapsack_exact() {
        let p = knapsack();
        let s = solve_milp(&p, &SolveOptions::default());
        assert_eq!(s.status, MilpStatus::Optimal);
        // Best: b + c = 4 + 2 = 6 (weight 4). a + c = 5 (weight 3). a+b over.
        assert!((s.objective - (-6.0)).abs() < 1e-6, "{}", s.objective);
        assert_eq!(s.values[0].round() as i64, 0);
        assert_eq!(s.values[1].round() as i64, 1);
        assert_eq!(s.values[2].round() as i64, 1);
        assert!(s.lp_pivots > 0);
    }

    #[test]
    fn mixed_integer_continuous() {
        // min -2a - y s.t. a + y <= 1.5, y in [0, 1], a binary.
        let mut p = Problem::new("mix");
        let a = p.add_binary("a", -2.0);
        let y = p.add_continuous("y", 0.0, 1.0, -1.0);
        p.add_constraint("c", vec![(a, 1.0), (y, 1.0)], Sense::Le, 1.5);
        let s = solve_milp(&p, &SolveOptions::default());
        assert_eq!(s.status, MilpStatus::Optimal);
        assert!((s.objective - (-2.5)).abs() < 1e-6);
        assert!((s.values[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn infeasible_milp() {
        let mut p = Problem::new("inf");
        let a = p.add_binary("a", 1.0);
        let b = p.add_binary("b", 1.0);
        p.add_constraint("c", vec![(a, 1.0), (b, 1.0)], Sense::Ge, 3.0);
        let s = solve_milp(&p, &SolveOptions::default());
        assert_eq!(s.status, MilpStatus::Infeasible);
    }

    #[test]
    fn warm_start_used_as_incumbent() {
        let p = knapsack();
        // Feasible but suboptimal: a only.
        let ws = vec![1.0, 0.0, 0.0];
        let s = solve_milp(
            &p,
            &SolveOptions { max_nodes: 0, warm_start: Some(ws), ..Default::default() },
        );
        assert_eq!(s.status, MilpStatus::Incumbent);
        assert!((s.objective - (-3.0)).abs() < 1e-6);
    }

    #[test]
    fn infeasible_warm_start_is_ignored() {
        let p = knapsack();
        let ws = vec![1.0, 1.0, 1.0]; // weight 6 > 4
        let s = solve_milp(&p, &SolveOptions { warm_start: Some(ws), ..Default::default() });
        assert_eq!(s.status, MilpStatus::Optimal);
        assert!((s.objective - (-6.0)).abs() < 1e-6);
    }

    #[test]
    fn node_limit_returns_incumbent_not_panic() {
        let mut p = Problem::new("big");
        let vars: Vec<_> =
            (0..12).map(|i| p.add_binary(format!("x{i}"), -(1.0 + i as f64))).collect();
        let terms: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        p.add_constraint("cap", terms, Sense::Le, 6.0);
        let s = solve_milp(&p, &SolveOptions { max_nodes: 5, ..Default::default() });
        assert!(matches!(s.status, MilpStatus::Incumbent | MilpStatus::Optimal));
        assert!(s.nodes_explored <= 5);
    }

    #[test]
    fn budget_limited_solve_is_bit_identical_across_runs() {
        // Satellite regression: with the wall clock demoted to an opt-in
        // escape hatch, a budget-limited solve must be a pure function of
        // (problem, options) — identical bits on every run.
        let mut p = Problem::new("repeat");
        let vars: Vec<_> =
            (0..14).map(|i| p.add_binary(format!("x{i}"), -((i % 5) as f64) - 0.5)).collect();
        let terms: Vec<_> =
            vars.iter().enumerate().map(|(i, &v)| (v, 1.0 + (i % 3) as f64)).collect();
        p.add_constraint("cap", terms, Sense::Le, 9.5);
        let opts = SolveOptions { max_nodes: 7, ..Default::default() };
        let first = solve_milp(&p, &opts);
        for _ in 0..5 {
            let again = solve_milp(&p, &opts);
            assert_eq!(again.status, first.status);
            assert_eq!(again.objective.to_bits(), first.objective.to_bits());
            assert_eq!(again.nodes_explored, first.nodes_explored);
            assert_eq!(again.lp_pivots, first.lp_pivots);
            let a: Vec<u64> = again.values.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = first.values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn matches_brute_force_on_small_problems() {
        for seed in 0..30u64 {
            let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let mut next = || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) as f64) / ((1u64 << 31) as f64)
            };
            let n = 4;
            let mut p = Problem::new("rand");
            let vars: Vec<_> =
                (0..n).map(|i| p.add_binary(format!("x{i}"), next() * 10.0 - 5.0)).collect();
            let terms: Vec<_> = vars.iter().map(|&v| (v, next() * 4.0)).collect();
            let rhs = next() * 8.0;
            p.add_constraint("cap", terms, Sense::Le, rhs);

            let sol = solve_milp(&p, &SolveOptions::default());

            // Brute force.
            let mut best = f64::INFINITY;
            for mask in 0..(1u32 << n) {
                let x: Vec<f64> =
                    (0..n).map(|i| if mask & (1 << i) != 0 { 1.0 } else { 0.0 }).collect();
                if p.is_feasible(&x, 1e-9) {
                    best = best.min(p.objective_value(&x));
                }
            }
            assert_eq!(sol.status, MilpStatus::Optimal, "seed {seed}");
            assert!(
                (sol.objective - best).abs() < 1e-6,
                "seed {seed}: {} vs {best}",
                sol.objective
            );
        }
    }

    #[test]
    fn reference_solver_agrees_on_status_and_objective() {
        for seed in 0..20u64 {
            let mut s = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let mut next = || {
                s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                ((s >> 33) as f64) / ((1u64 << 31) as f64)
            };
            let n = 8;
            let mut p = Problem::new("pair");
            let vars: Vec<_> =
                (0..n).map(|i| p.add_binary(format!("x{i}"), -next() * 10.0)).collect();
            let terms: Vec<_> = vars.iter().map(|&v| (v, 0.5 + next() * 4.0)).collect();
            p.add_constraint("cap", terms, Sense::Le, 6.0);
            let terms2: Vec<_> = vars.iter().map(|&v| (v, 0.5 + next() * 2.0)).collect();
            p.add_constraint("cap2", terms2, Sense::Le, 5.0);

            let fast = solve_milp(&p, &SolveOptions::default());
            let slow = solve_milp_reference(&p, &SolveOptions::default());
            assert_eq!(fast.status, MilpStatus::Optimal, "seed {seed}");
            assert_eq!(slow.status, MilpStatus::Optimal, "seed {seed}");
            assert!(
                (fast.objective - slow.objective).abs() < 1e-6,
                "seed {seed}: {} vs {}",
                fast.objective,
                slow.objective
            );
        }
    }

    #[test]
    fn time_limit_escape_hatch_still_works() {
        let p = knapsack();
        let s = solve_milp(
            &p,
            &SolveOptions { time_limit: Some(Duration::from_secs(30)), ..Default::default() },
        );
        assert_eq!(s.status, MilpStatus::Optimal);
    }
}
