//! Two-phase primal simplex for the LP relaxations, on a sparse-indexed
//! dense tableau.
//!
//! Engineering notes:
//! * Variables are shifted to nonnegative form; finite upper bounds become
//!   explicit slack rows (simple and adequate for the fusion-ILP sizes this
//!   solver targets).
//! * The tableau keeps its values row-major and dense, and beside them an
//!   index that lists every nonzero cell in its row's and its column's
//!   list. A pivot scales and updates only the pivot row's listed columns,
//!   and only in the rows the pivot column lists, adding fill-in to both
//!   lists as it arrives; a cell that cancels to zero leaves its lists
//!   lazily, when its row next pivots or a ratio test next reads its
//!   column. The ratio test and the crash scan a column's rows in ascending
//!   order, and pricing scans only the columns whose reduced cost is
//!   negative. A fusion-ILP pivot row holds about 9 nonzeros of over 1,000
//!   columns, so each step costs O(nonzeros) instead of O(rows × columns).
//! * The operations the index skips are exactly those with a ±0 operand.
//!   They could change only the sign of a zero, which no comparison sees
//!   and the shift added on extraction erases (for any lower bound other
//!   than `-0.0`), so every pivot choice and every returned bit equal those
//!   of a plain dense tableau.
//! * Dantzig pricing with an anti-cycling guard: after
//!   `DEGEN_PIVOT_LIMIT` consecutive degenerate pivots the pricing falls
//!   back to Bland's rule (which provably cannot cycle) until a pivot makes
//!   objective progress again. Both rules take the lowest column on ties.
//! * Phase 1 minimizes artificial infeasibility; redundant rows whose
//!   artificial cannot be pivoted out are left basic at zero.
//! * [`solve_lp_warm`] accepts a *crash basis* — the structural variables
//!   basic at a related solve's optimum. They are pivoted in before phase 1
//!   using min-ratio rows (feasibility-preserving), which typically leaves
//!   both phases only a few pivots of work on branch-and-bound child nodes.
//! * A `Workspace` serves every node LP of one branch-and-bound solve: it
//!   accumulates the constraint coefficients once per problem and builds
//!   each node's tableau into the previous node's buffers, resetting only
//!   the cells its index lists.

use crate::problem::{Problem, Sense, VarKind};

/// Termination status of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// Optimal basic solution found.
    Optimal,
    /// No feasible point exists (within tolerance).
    Infeasible,
    /// Objective unbounded below.
    Unbounded,
    /// Iteration limit hit; the returned point may be suboptimal.
    IterLimit,
}

/// Result of an LP solve, in the original variable space.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Termination status.
    pub status: LpStatus,
    /// Objective value at `values` (meaningful for `Optimal` / `IterLimit`).
    pub objective: f64,
    /// Variable assignment, indexed by [`crate::VarId`].
    pub values: Vec<f64>,
    /// Simplex pivots performed (crash + phase 1 + phase 2).
    pub pivots: u64,
    /// Structural variables basic at termination (sorted ascending). Feed
    /// these to [`solve_lp_warm`] to crash-start a related solve.
    pub basic_structurals: Vec<usize>,
}

/// Per-variable effective bounds used by branch-and-bound to fix binaries
/// without rebuilding the problem.
#[derive(Debug, Clone)]
pub struct Bounds {
    /// Lower bounds, indexed by variable.
    pub lo: Vec<f64>,
    /// Upper bounds, indexed by variable.
    pub hi: Vec<f64>,
}

impl Bounds {
    /// Natural bounds of the problem's variable domains (binaries relaxed to
    /// `[0,1]`).
    #[must_use]
    pub fn of(problem: &Problem) -> Self {
        let mut lo = Vec::with_capacity(problem.num_vars());
        let mut hi = Vec::with_capacity(problem.num_vars());
        for v in problem.variables() {
            match v.kind {
                VarKind::Binary => {
                    lo.push(0.0);
                    hi.push(1.0);
                }
                VarKind::Continuous { lower, upper } => {
                    lo.push(lower);
                    hi.push(upper);
                }
            }
        }
        Bounds { lo, hi }
    }
}

const EPS: f64 = 1e-9;

/// Consecutive degenerate pivots tolerated before pricing falls back to
/// Bland's rule (see [`Tableau::iterate`]).
const DEGEN_PIVOT_LIMIT: usize = 12;

/// Solves the LP relaxation of `problem` under `bounds`.
#[must_use]
pub fn solve_lp(problem: &Problem, bounds: &Bounds) -> LpSolution {
    solve_lp_warm(problem, bounds, None)
}

/// Solves the LP relaxation with an optional crash basis: structural
/// variable indices that were basic at a related solve's optimum (e.g. the
/// branch-and-bound parent node). They are pivoted in up front with
/// feasibility-preserving min-ratio pivots, which usually shortens both
/// simplex phases. The returned solution is unaffected by the hint.
#[must_use]
pub fn solve_lp_warm(problem: &Problem, bounds: &Bounds, crash: Option<&[usize]>) -> LpSolution {
    Workspace::new(problem).solve(bounds, crash)
}

/// Buffers for repeated LP solves of one problem under different bounds
/// (the node LPs of a branch-and-bound search). Each solve returns exactly
/// what a fresh [`solve_lp_warm`] returns.
pub(crate) struct Workspace<'p> {
    problem: &'p Problem,
    /// Per constraint: its summed coefficients as `(variable, value)`, each
    /// variable once, zero sums dropped.
    coefs: Vec<Vec<(usize, f64)>>,
    tableau: Tableau,
}

impl<'p> Workspace<'p> {
    pub(crate) fn new(problem: &'p Problem) -> Self {
        let mut dense = vec![0.0; problem.num_vars()];
        let coefs = problem
            .constraints()
            .iter()
            .map(|c| {
                for &(v, a) in &c.terms {
                    dense[v.index()] += a;
                }
                let mut row: Vec<(usize, f64)> = Vec::new();
                for &(v, _) in &c.terms {
                    let j = v.index();
                    if dense[j] != 0.0 {
                        row.push((j, dense[j]));
                    }
                    dense[j] = 0.0;
                }
                row
            })
            .collect();
        Workspace { problem, coefs, tableau: Tableau::default() }
    }

    /// Solves the LP relaxation under `bounds`, crash-starting from `crash`
    /// as [`solve_lp_warm`] does.
    pub(crate) fn solve(&mut self, bounds: &Bounds, crash: Option<&[usize]>) -> LpSolution {
        let t = &mut self.tableau;
        if !t.load(self.problem, &self.coefs, bounds) {
            return LpSolution {
                status: LpStatus::Infeasible,
                objective: f64::INFINITY,
                values: vec![0.0; self.problem.num_vars()],
                pivots: 0,
                basic_structurals: Vec::new(),
            };
        }
        if let Some(hint) = crash {
            t.crash_basis(hint, bounds);
        }
        t.solve(self.problem)
    }
}

/// `Tableau::listed` bit: the cell is in its row's list.
const IN_ROW: u8 = 1;
/// `Tableau::listed` bit: the cell is in its column's list.
const IN_COL: u8 = 2;

/// The simplex tableau. Cells outside the index are zero: every nonzero
/// cell is listed, once, in its row's and in its column's list. A list may
/// also hold cells that became zero after they were listed; a row drops
/// them when it is the pivot row and a column when a ratio test reads it
/// (dropping them on the spot would cost a search of a long list). The
/// right-hand sides live apart and are updated for every row a pivot
/// touches.
#[derive(Default)]
struct Tableau {
    /// Row-major constraint values, `rows × cols` (the buffer may be longer).
    a: Vec<f64>,
    /// `IN_ROW | IN_COL` bits of each cell, laid out as `a`.
    listed: Vec<u8>,
    /// Right-hand side per row.
    rhs: Vec<f64>,
    rows: usize,
    cols: usize,
    /// Listed columns of each row, unordered.
    row_nz: Vec<Vec<usize>>,
    /// Listed rows of each column, unordered until a ratio test sorts them.
    col_nz: Vec<Vec<usize>>,
    /// Basic variable (column index) per row.
    basis: Vec<usize>,
    /// Whether each column is basic.
    is_basic: Vec<bool>,
    /// Column index where artificial columns start (none may enter in phase 2).
    artificial_start: usize,
    /// Number of original (shifted) structural variables.
    n_struct: usize,
    /// Per-variable shift: x_original = x_shifted + shift.
    shifts: Vec<f64>,
    /// Objective row over the columns.
    cost: Vec<f64>,
    /// Objective row's right-hand side (minus the objective value).
    cost_rhs: f64,
    /// Columns whose reduced cost may be below `-EPS`, each once: the only
    /// columns pricing can choose. Pricing drops the others.
    candidates: Vec<usize>,
    /// Whether each column is in `candidates`.
    is_candidate: Vec<bool>,
    /// Pivots performed so far (crash + phase 1 + phase 2).
    pivots: u64,
}

impl Tableau {
    fn at(&self, r: usize, c: usize) -> f64 {
        self.a[r * self.cols + c]
    }

    /// Zeroes the cells the index lists and empties the index.
    fn clear(&mut self) {
        let w = self.cols;
        for (r, cols) in self.row_nz.iter_mut().enumerate().take(self.rows) {
            for &c in cols.iter() {
                self.a[r * w + c] = 0.0;
                self.listed[r * w + c] = 0;
            }
            cols.clear();
        }
        for (c, rows) in self.col_nz.iter_mut().enumerate().take(w) {
            for &r in rows.iter() {
                self.listed[r * w + c] = 0;
            }
            rows.clear();
        }
    }

    /// Builds the phase-1 tableau of `problem` under `bounds` into this
    /// tableau's buffers. Returns `false` when a variable's bounds are
    /// contradictory (lo > hi), which means trivially infeasible.
    fn load(&mut self, problem: &Problem, coefs: &[Vec<(usize, f64)>], bounds: &Bounds) -> bool {
        let n = problem.num_vars();
        if (0..n).any(|i| bounds.lo[i] > bounds.hi[i] + EPS) {
            return false;
        }
        self.clear();
        self.shifts.clear();
        self.shifts.extend_from_slice(&bounds.lo);

        // Right-hand sides after shifting: the constraint rows, then one
        // upper-bound row per finite range (x' <= hi - lo; a zero range
        // pins the variable at its shift).
        self.rhs.clear();
        for c in problem.constraints() {
            let mut rhs = c.rhs;
            for &(v, a) in &c.terms {
                rhs -= a * self.shifts[v.index()];
            }
            self.rhs.push(rhs);
        }
        let ranged = || (0..n).filter(|&i| (bounds.hi[i] - bounds.lo[i]).is_finite());
        for i in ranged() {
            self.rhs.push((bounds.hi[i] - bounds.lo[i]).max(0.0));
        }
        let m = self.rhs.len();
        let sense_of = |r: usize| problem.constraints().get(r).map_or(Sense::Le, |c| c.sense);
        let (mut n_slack, mut n_art) = (0, 0);
        for r in 0..m {
            match effective(sense_of(r), self.rhs[r]) {
                Sense::Le => n_slack += 1,
                Sense::Ge => {
                    n_slack += 1;
                    n_art += 1;
                }
                Sense::Eq => n_art += 1,
            }
        }

        let cols = n + n_slack + n_art;
        self.rows = m;
        self.cols = cols;
        self.artificial_start = n + n_slack;
        self.n_struct = n;
        self.pivots = 0;
        if self.a.len() < m * cols {
            self.a.resize(m * cols, 0.0);
            self.listed.resize(m * cols, 0);
        }
        if self.row_nz.len() < m {
            self.row_nz.resize_with(m, Vec::new);
        }
        if self.col_nz.len() < cols {
            self.col_nz.resize_with(cols, Vec::new);
        }
        self.basis.clear();
        self.basis.resize(m, 0);
        self.is_basic.clear();
        self.is_basic.resize(cols, false);
        self.cost.clear();
        self.cost.resize(cols, 0.0);
        self.cost_rhs = 0.0;
        self.candidates.clear();
        self.is_candidate.clear();
        self.is_candidate.resize(cols, false);

        let mut next = (n, n + n_slack);
        for (r, coef) in coefs.iter().enumerate() {
            self.place_row(r, sense_of(r), coef.iter().copied(), &mut next);
        }
        for (k, i) in ranged().enumerate() {
            self.place_row(coefs.len() + k, Sense::Le, [(i, 1.0)], &mut next);
        }
        #[cfg(test)]
        self.check_index();
        true
    }

    /// Writes row `r`: its coefficients, negated when the right-hand side
    /// is negative, then its slack and artificial cells. `next` holds the
    /// next free slack and artificial columns.
    fn place_row(
        &mut self,
        r: usize,
        sense: Sense,
        coef: impl IntoIterator<Item = (usize, f64)>,
        next: &mut (usize, usize),
    ) {
        let eff = effective(sense, self.rhs[r]);
        let sgn = if self.rhs[r] < 0.0 { -1.0 } else { 1.0 };
        for (j, c) in coef {
            self.set(r, j, sgn * c);
        }
        self.rhs[r] *= sgn;
        let (slack, art) = next;
        match eff {
            Sense::Le => {
                self.set(r, *slack, 1.0);
                self.basis[r] = *slack;
                *slack += 1;
            }
            Sense::Ge => {
                self.set(r, *slack, -1.0);
                *slack += 1;
                self.set(r, *art, 1.0);
                self.basis[r] = *art;
                *art += 1;
            }
            Sense::Eq => {
                self.set(r, *art, 1.0);
                self.basis[r] = *art;
                *art += 1;
            }
        }
        self.is_basic[self.basis[r]] = true;
    }

    /// Writes a nonzero into an empty cell.
    fn set(&mut self, r: usize, c: usize, v: f64) {
        self.a[r * self.cols + c] = v;
        self.listed[r * self.cols + c] = IN_ROW | IN_COL;
        self.row_nz[r].push(c);
        self.col_nz[c].push(r);
    }

    /// Rebuilds the cost row for the per-column objective `col_cost`,
    /// reduced against the current basis.
    fn load_costs(&mut self, col_cost: impl Fn(usize) -> f64) {
        for c in 0..self.cols {
            self.cost[c] = col_cost(c);
        }
        self.cost_rhs = 0.0;
        for r in 0..self.rows {
            let cb = col_cost(self.basis[r]);
            if cb != 0.0 {
                for &c in &self.row_nz[r] {
                    let v = self.a[r * self.cols + c];
                    if v != 0.0 {
                        self.cost[c] -= cb * v;
                    }
                }
                let v = self.rhs[r];
                if v != 0.0 {
                    self.cost_rhs -= cb * v;
                }
            }
        }
        self.candidates.clear();
        for c in 0..self.cols {
            self.is_candidate[c] = self.cost[c] < -EPS;
            if self.is_candidate[c] {
                self.candidates.push(c);
            }
        }
    }

    fn pivot(&mut self, pr: usize, pc: usize) {
        let w = self.cols;
        let piv = self.at(pr, pc);
        debug_assert!(piv.abs() > EPS);
        let inv = 1.0 / piv;
        // Drop the cells that became zero since this row last pivoted, then
        // scale the rest.
        let mut prow = std::mem::take(&mut self.row_nz[pr]);
        let (a, listed) = (&self.a, &mut self.listed);
        prow.retain(|&c| {
            let keep = a[pr * w + c] != 0.0;
            if !keep {
                listed[pr * w + c] &= !IN_ROW;
            }
            keep
        });
        for &c in &prow {
            self.a[pr * w + c] *= inv;
        }
        self.rhs[pr] *= inv;

        // Eliminate the pivot column from every other row it has a nonzero
        // in; rows with a negligible factor keep theirs untouched.
        let mut pcol = std::mem::take(&mut self.col_nz[pc]);
        pcol.retain(|&r| {
            let factor = self.a[r * w + pc];
            if r == pr || (factor != 0.0 && factor.abs() <= 1e-13) {
                return true;
            }
            self.listed[r * w + pc] &= !IN_COL;
            if factor == 0.0 {
                return false;
            }
            for &c in &prow {
                if c == pc {
                    continue;
                }
                let old = self.a[r * w + c];
                let new = old - factor * self.a[pr * w + c];
                self.a[r * w + c] = new;
                if old == 0.0 && new != 0.0 {
                    let bits = &mut self.listed[r * w + c];
                    if *bits & IN_ROW == 0 {
                        self.row_nz[r].push(c);
                    }
                    if *bits & IN_COL == 0 {
                        self.col_nz[c].push(r);
                    }
                    *bits = IN_ROW | IN_COL;
                }
            }
            self.rhs[r] -= factor * self.rhs[pr];
            self.a[r * w + pc] = 0.0;
            false
        });
        self.col_nz[pc] = pcol;

        let factor = self.cost[pc];
        if factor.abs() > 1e-13 {
            for &c in &prow {
                self.cost[c] -= factor * self.a[pr * w + c];
                if !self.is_candidate[c] && self.cost[c] < -EPS {
                    self.is_candidate[c] = true;
                    self.candidates.push(c);
                }
            }
            self.cost_rhs -= factor * self.rhs[pr];
            self.cost[pc] = 0.0;
        }
        self.row_nz[pr] = prow;
        self.is_basic[self.basis[pr]] = false;
        self.is_basic[pc] = true;
        self.basis[pr] = pc;
        self.pivots += 1;
        #[cfg(test)]
        self.check_index();
    }

    /// Drops column `c`'s zero cells from its list and sorts the rest
    /// ascending, the order the ratio tests scan in.
    fn tidy_column(&mut self, c: usize) {
        let w = self.cols;
        let (a, listed) = (&self.a, &mut self.listed);
        self.col_nz[c].retain(|&r| {
            let keep = a[r * w + c] != 0.0;
            if !keep {
                listed[r * w + c] &= !IN_COL;
            }
            keep
        });
        self.col_nz[c].sort_unstable();
    }

    /// Crash-pivots the hinted structural columns into the basis before any
    /// simplex phase runs. Each pivot uses the global minimum-ratio row
    /// (preserving the nonnegative RHS the phases rely on), with ties broken
    /// toward rows whose basic variable is a slack/artificial; a column is
    /// skipped when its min-ratio row holds another structural variable
    /// (never evict crashed work), when its pivot element is numerically
    /// risky, or when the variable is fixed in this node's bounds.
    fn crash_basis(&mut self, hint: &[usize], bounds: &Bounds) {
        for &j in hint {
            if j >= self.n_struct || bounds.hi[j] - bounds.lo[j] <= EPS || self.is_basic[j] {
                continue;
            }
            self.tidy_column(j);
            let mut pr: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for &r in &self.col_nz[j] {
                let a = self.at(r, j);
                if a > EPS {
                    let ratio = self.rhs[r] / a;
                    let better = ratio < best_ratio - EPS
                        || (ratio < best_ratio + EPS
                            && pr.is_some_and(|p| {
                                let (br, bp) = (self.basis[r], self.basis[p]);
                                let (r_aux, p_aux) = (br >= self.n_struct, bp >= self.n_struct);
                                (r_aux && !p_aux) || (r_aux == p_aux && br < bp)
                            }));
                    if better {
                        best_ratio = ratio;
                        pr = Some(r);
                    }
                }
            }
            let Some(pr) = pr else { continue };
            if self.basis[pr] < self.n_struct || self.at(pr, j) < 1e-7 {
                continue;
            }
            self.pivot(pr, j);
        }
    }

    /// The entering column: the most negative reduced cost below `limit`
    /// (Dantzig), or with `bland` the lowest column with a negative one;
    /// the lowest column wins ties. Drops columns that stopped being
    /// candidates.
    fn price(&mut self, limit: usize, bland: bool) -> Option<usize> {
        let mut pc: Option<usize> = None;
        let mut best = -EPS;
        let (cost, is_candidate) = (&self.cost, &mut self.is_candidate);
        self.candidates.retain(|&c| {
            let rc = cost[c];
            let entering = rc < -EPS;
            if !entering {
                is_candidate[c] = false;
                return false;
            }
            if c < limit {
                let lower = pc.is_none_or(|p| c < p);
                if (bland && lower) || (!bland && (rc < best || (rc == best && lower))) {
                    best = rc;
                    pc = Some(c);
                }
            }
            true
        });
        pc
    }

    /// The leaving row for entering column `pc` and its ratio, or `None`
    /// when the column has no positive element (unbounded). Rows are
    /// scanned in ascending order, as a dense tableau scans them: with the
    /// `EPS` tolerance a chain of near-equal ratios can end on a different
    /// row in another order. Near ties go to the lower basic variable.
    fn ratio_test(&mut self, pc: usize) -> Option<(usize, f64)> {
        self.tidy_column(pc);
        let mut pr: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for &r in &self.col_nz[pc] {
            let a = self.at(r, pc);
            if a > EPS {
                let ratio = self.rhs[r] / a;
                if ratio < best_ratio - EPS
                    || (ratio < best_ratio + EPS
                        && pr.is_some_and(|p| self.basis[r] < self.basis[p]))
                {
                    best_ratio = ratio;
                    pr = Some(r);
                }
            }
        }
        pr.map(|r| (r, best_ratio))
    }

    /// Runs simplex iterations until optimality/unboundedness/limit.
    /// `allow_artificial` permits artificial columns to enter (phase 1 only).
    fn iterate(&mut self, allow_artificial: bool, max_iters: usize) -> LpStatus {
        let mut iters = 0;
        // Anti-cycling guard: Dantzig pricing can cycle on degenerate
        // vertices. After DEGEN_PIVOT_LIMIT consecutive zero-progress
        // pivots, switch to Bland's rule (provably cycle-free) until a
        // pivot moves the objective again.
        let mut degenerate_run = 0usize;
        loop {
            if iters >= max_iters {
                return LpStatus::IterLimit;
            }
            iters += 1;
            let limit = if allow_artificial { self.cols } else { self.artificial_start };
            let Some(pc) = self.price(limit, degenerate_run >= DEGEN_PIVOT_LIMIT) else {
                return LpStatus::Optimal;
            };
            let Some((pr, ratio)) = self.ratio_test(pc) else { return LpStatus::Unbounded };
            if ratio <= EPS {
                degenerate_run += 1;
            } else {
                degenerate_run = 0;
            }
            self.pivot(pr, pc);
        }
    }

    fn solve(&mut self, problem: &Problem) -> LpSolution {
        let max_iters = 50 * (self.rows + self.cols) + 2000;

        // Phase 1: drive artificials to zero.
        if self.artificial_start < self.cols {
            let start = self.artificial_start;
            self.load_costs(|c| if c >= start { 1.0 } else { 0.0 });
            let st = self.iterate(true, max_iters);
            let infeas = -self.cost_rhs;
            if st == LpStatus::Unbounded || infeas > 1e-6 {
                return LpSolution {
                    status: LpStatus::Infeasible,
                    objective: f64::INFINITY,
                    values: vec![0.0; problem.num_vars()],
                    pivots: self.pivots,
                    basic_structurals: Vec::new(),
                };
            }
            // Pivot out any artificial still basic (at zero), entering the
            // lowest non-artificial column with a usable element.
            for r in 0..self.rows {
                if self.basis[r] >= start {
                    let pc = self.row_nz[r]
                        .iter()
                        .copied()
                        .filter(|&c| c < start && self.at(r, c).abs() > 1e-7)
                        .min();
                    if let Some(pc) = pc {
                        self.pivot(r, pc);
                    }
                }
            }
        }

        // Phase 2: original objective over structural columns.
        let vars = problem.variables();
        self.load_costs(|c| vars.get(c).map_or(0.0, |v| v.objective));
        let status = self.iterate(false, max_iters);
        if status == LpStatus::Unbounded {
            return LpSolution {
                status,
                objective: f64::NEG_INFINITY,
                values: vec![0.0; problem.num_vars()],
                pivots: self.pivots,
                basic_structurals: Vec::new(),
            };
        }

        // Extract solution.
        let mut x = vec![0.0; self.n_struct];
        let mut basic_structurals = Vec::new();
        for r in 0..self.rows {
            let b = self.basis[r];
            if b < self.n_struct {
                x[b] = self.rhs[r];
                basic_structurals.push(b);
            }
        }
        basic_structurals.sort_unstable();
        for (i, xi) in x.iter_mut().enumerate() {
            *xi += self.shifts[i];
        }
        let objective = problem.objective_value(&x);
        LpSolution {
            status: if status == LpStatus::IterLimit {
                LpStatus::IterLimit
            } else {
                LpStatus::Optimal
            },
            objective,
            values: x,
            pivots: self.pivots,
            basic_structurals,
        }
    }

    /// Checks that every nonzero cell is in both indexes, that the lists
    /// and the `listed` bits agree (each cell listed at most once), that
    /// every negative reduced cost is a candidate and that the basic flags
    /// match the basis.
    #[cfg(test)]
    fn check_index(&self) {
        for r in 0..self.rows {
            for c in 0..self.cols {
                let bits = self.listed[r * self.cols + c];
                let in_row = self.row_nz[r].iter().filter(|&&k| k == c).count();
                let in_col = self.col_nz[c].iter().filter(|&&k| k == r).count();
                assert_eq!(in_row, usize::from(bits & IN_ROW != 0), "row list at ({r}, {c})");
                assert_eq!(in_col, usize::from(bits & IN_COL != 0), "column list at ({r}, {c})");
                if self.at(r, c) != 0.0 {
                    assert_eq!(bits, IN_ROW | IN_COL, "unlisted nonzero at ({r}, {c})");
                }
            }
        }
        for c in 0..self.cols {
            let count = self.candidates.iter().filter(|&&k| k == c).count();
            assert_eq!(count, usize::from(self.is_candidate[c]), "candidate list at {c}");
            if self.cost[c] < -EPS {
                assert!(self.is_candidate[c], "unlisted candidate {c}");
            }
            let basic = self.basis[..self.rows].contains(&c);
            assert_eq!(basic, self.is_basic[c], "basic flag of {c}");
        }
    }
}

/// Row sense after a negative right-hand side flips the row's sign.
fn effective(sense: Sense, rhs: f64) -> Sense {
    match (sense, rhs < 0.0) {
        (Sense::Le, false) | (Sense::Ge, true) => Sense::Le,
        (Sense::Le, true) | (Sense::Ge, false) => Sense::Ge,
        (Sense::Eq, _) => Sense::Eq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Problem;

    fn solve(p: &Problem) -> LpSolution {
        solve_lp(p, &Bounds::of(p))
    }

    #[test]
    fn simple_le_lp() {
        // min -x - 2y s.t. x + y <= 4, x <= 3, y <= 2  -> x=3 (wait y=2, x=2)
        // Optimum: y=2, x=2, obj = -6.
        let mut p = Problem::new("t");
        let x = p.add_continuous("x", 0.0, 3.0, -1.0);
        let y = p.add_continuous("y", 0.0, 2.0, -2.0);
        p.add_constraint("cap", vec![(x, 1.0), (y, 1.0)], crate::Sense::Le, 4.0);
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective - (-6.0)).abs() < 1e-6, "{}", s.objective);
        assert!((s.values[0] - 2.0).abs() < 1e-6);
        assert!((s.values[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn ge_and_eq_rows() {
        // min x + y s.t. x + y >= 2, x - y = 0 -> x=y=1, obj 2.
        let mut p = Problem::new("t");
        let x = p.add_continuous("x", 0.0, f64::INFINITY, 1.0);
        let y = p.add_continuous("y", 0.0, f64::INFINITY, 1.0);
        p.add_constraint("c1", vec![(x, 1.0), (y, 1.0)], crate::Sense::Ge, 2.0);
        p.add_constraint("c2", vec![(x, 1.0), (y, -1.0)], crate::Sense::Eq, 0.0);
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective - 2.0).abs() < 1e-6);
        assert!((s.values[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::new("t");
        let x = p.add_continuous("x", 0.0, 1.0, 1.0);
        p.add_constraint("c", vec![(x, 1.0)], crate::Sense::Ge, 2.0);
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::new("t");
        let x = p.add_continuous("x", 0.0, f64::INFINITY, -1.0);
        p.add_constraint("c", vec![(x, -1.0)], crate::Sense::Le, 0.0);
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Unbounded);
    }

    #[test]
    fn shifted_lower_bounds() {
        // min x with x >= 5 via bounds.
        let mut p = Problem::new("t");
        let x = p.add_continuous("x", 5.0, 10.0, 1.0);
        p.add_constraint("c", vec![(x, 1.0)], crate::Sense::Le, 9.0);
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.values[0] - 5.0).abs() < 1e-6);
    }

    #[test]
    fn negative_rhs_rows() {
        // min y s.t. -x - y <= -3 (i.e. x + y >= 3), x <= 2 -> y = 1.
        let mut p = Problem::new("t");
        let x = p.add_continuous("x", 0.0, 2.0, 0.0);
        let y = p.add_continuous("y", 0.0, f64::INFINITY, 1.0);
        p.add_constraint("c", vec![(x, -1.0), (y, -1.0)], crate::Sense::Le, -3.0);
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective - 1.0).abs() < 1e-6, "{}", s.objective);
    }

    #[test]
    fn binary_relaxation_is_fractional() {
        // min -x1 - x2 s.t. x1 + x2 <= 1.5 over binaries -> LP gives 1.5.
        let mut p = Problem::new("t");
        let a = p.add_binary("a", -1.0);
        let b = p.add_binary("b", -1.0);
        p.add_constraint("c", vec![(a, 1.0), (b, 1.0)], crate::Sense::Le, 1.5);
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective + 1.5).abs() < 1e-6);
    }

    #[test]
    fn fixed_variable_via_bounds() {
        let mut p = Problem::new("t");
        let a = p.add_binary("a", -1.0);
        let b = p.add_binary("b", -1.0);
        p.add_constraint("c", vec![(a, 1.0), (b, 1.0)], crate::Sense::Le, 2.0);
        let mut bounds = Bounds::of(&p);
        bounds.lo[0] = 0.0;
        bounds.hi[0] = 0.0; // fix a = 0
        let s = solve_lp(&p, &bounds);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.values[0]).abs() < 1e-9);
        assert!((s.values[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn contradictory_bounds_infeasible() {
        let mut p = Problem::new("t");
        let _a = p.add_binary("a", -1.0);
        let mut bounds = Bounds::of(&p);
        bounds.lo[0] = 1.0;
        bounds.hi[0] = 0.0;
        let s = solve_lp(&p, &bounds);
        assert_eq!(s.status, LpStatus::Infeasible);
    }

    #[test]
    fn beale_cycling_lp_terminates_quickly() {
        // Beale's classic example: Dantzig pricing with naive tie-breaking
        // cycles forever at the degenerate origin vertex. The degenerate-run
        // counter must hand pricing to Bland's rule long before the
        // iteration limit, so the solve both finishes and stays cheap.
        let mut p = Problem::new("beale");
        let x1 = p.add_continuous("x1", 0.0, f64::INFINITY, -0.75);
        let x2 = p.add_continuous("x2", 0.0, f64::INFINITY, 150.0);
        let x3 = p.add_continuous("x3", 0.0, f64::INFINITY, -0.02);
        let x4 = p.add_continuous("x4", 0.0, f64::INFINITY, 6.0);
        p.add_constraint(
            "r1",
            vec![(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
            crate::Sense::Le,
            0.0,
        );
        p.add_constraint(
            "r2",
            vec![(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
            crate::Sense::Le,
            0.0,
        );
        p.add_constraint("r3", vec![(x3, 1.0)], crate::Sense::Le, 1.0);
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective - (-0.05)).abs() < 1e-9, "{}", s.objective);
        assert!(s.pivots < 200, "anti-cycling guard did not engage: {} pivots", s.pivots);
    }

    #[test]
    fn crash_basis_preserves_answer() {
        let mut p = Problem::new("t");
        let x = p.add_continuous("x", 0.0, 3.0, -1.0);
        let y = p.add_continuous("y", 0.0, 2.0, -2.0);
        p.add_constraint("cap", vec![(x, 1.0), (y, 1.0)], crate::Sense::Le, 4.0);
        let cold = solve_lp(&p, &Bounds::of(&p));
        assert_eq!(cold.status, LpStatus::Optimal);
        assert!(cold.pivots > 0);
        assert_eq!(cold.basic_structurals, vec![0, 1]);
        let warm = solve_lp_warm(&p, &Bounds::of(&p), Some(&cold.basic_structurals));
        assert_eq!(warm.status, LpStatus::Optimal);
        assert!((warm.objective - cold.objective).abs() < 1e-9);
        assert!((warm.values[0] - cold.values[0]).abs() < 1e-9);
        assert!((warm.values[1] - cold.values[1]).abs() < 1e-9);
    }

    #[test]
    fn crash_basis_skips_fixed_and_out_of_range_hints() {
        let mut p = Problem::new("t");
        let a = p.add_binary("a", -1.0);
        let b = p.add_binary("b", -1.0);
        p.add_constraint("c", vec![(a, 1.0), (b, 1.0)], crate::Sense::Le, 2.0);
        let mut bounds = Bounds::of(&p);
        bounds.lo[0] = 0.0;
        bounds.hi[0] = 0.0; // fixed: the hint for column 0 must be ignored
        let s = solve_lp_warm(&p, &bounds, Some(&[0, 1, 99]));
        assert_eq!(s.status, LpStatus::Optimal);
        assert!(s.values[0].abs() < 1e-9);
        assert!((s.values[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Many redundant rows through the origin.
        let mut p = Problem::new("t");
        let x = p.add_continuous("x", 0.0, 10.0, -1.0);
        let y = p.add_continuous("y", 0.0, 10.0, -1.0);
        for i in 0..20 {
            let a = 1.0 + (i as f64) * 0.01;
            p.add_constraint(format!("c{i}"), vec![(x, a), (y, 1.0)], crate::Sense::Le, 10.0);
        }
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!(s.objective < -9.0);
    }

    #[test]
    fn ratio_test_scans_rows_ascending_whatever_the_list_order() {
        // Ratios 1 + 1.5e-9, 1 + 0.8e-9 and 1 chain within EPS: scanned in
        // ascending row order the test ends on row 2, in descending order
        // on row 0. Fill-in appends rows to a column's list in any order,
        // so the list is reversed before the test runs.
        let mut p = Problem::new("chain");
        let x = p.add_continuous("x", 0.0, f64::INFINITY, -1.0);
        for (i, above) in [1.5e-9, 0.8e-9, 0.0].into_iter().enumerate() {
            p.add_constraint(format!("r{i}"), vec![(x, 1.0)], crate::Sense::Le, 1.0 + above);
        }
        let mut ws = Workspace::new(&p);
        let t = &mut ws.tableau;
        assert!(t.load(&p, &ws.coefs, &Bounds::of(&p)));
        t.col_nz[0].reverse();
        assert_eq!(t.ratio_test(0).map(|(r, _)| r), Some(2));
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn reused_workspace_matches_fresh_solves_bit_for_bit() {
        // Bound fixes that turn right-hand sides negative flip rows between
        // `Le` and `Ge`, so the slack and artificial counts, and with them
        // the tableau width, change from node to node; bounding `y` adds a
        // row. One reused workspace must answer every node exactly as a
        // fresh one does, crash hints included.
        let mut p = Problem::new("flips");
        let x: Vec<_> = (0..4).map(|i| p.add_binary(format!("x{i}"), -1.0 - i as f64)).collect();
        let y = p.add_continuous("y", 0.0, f64::INFINITY, 0.5);
        let z = p.add_continuous("z", -1.0, 3.0, -0.25);
        p.add_constraint("le", vec![(x[0], 1.0), (x[1], 1.0), (y, -1.0)], crate::Sense::Le, 1.5);
        p.add_constraint("ge", vec![(x[2], 1.0), (x[3], 1.0), (z, 1.0)], crate::Sense::Ge, 0.5);
        let eq = vec![(x[0], 1.0), (x[2], -1.0), (y, 1.0), (z, -1.0)];
        p.add_constraint("eq", eq, crate::Sense::Eq, 0.5);
        p.add_constraint("cap", x.iter().map(|&v| (v, 2.0)).collect(), crate::Sense::Le, 5.0);
        let root = Bounds::of(&p);
        let with = |pairs: &[(usize, f64, f64)]| {
            let mut b = root.clone();
            for &(i, lo, hi) in pairs {
                b.lo[i] = lo;
                b.hi[i] = hi;
            }
            b
        };
        let nodes = [
            root.clone(),
            with(&[(0, 1.0, 1.0), (1, 1.0, 1.0)]),
            with(&[(2, 1.0, 1.0), (3, 1.0, 1.0)]),
            with(&[(0, 1.0, 1.0), (1, 1.0, 1.0), (2, 1.0, 1.0), (3, 1.0, 1.0)]),
            with(&[(0, 0.0, 0.0)]),
            with(&[(4, 2.0, 2.5)]),
            with(&[(0, 1.0, 0.0)]),
            root.clone(),
        ];
        let mut ws = Workspace::new(&p);
        let mut shapes = std::collections::BTreeSet::new();
        let mut hint: Option<Vec<usize>> = None;
        for (k, b) in nodes.iter().enumerate() {
            let reused = ws.solve(b, hint.as_deref());
            shapes.insert((ws.tableau.rows, ws.tableau.cols));
            let fresh = Workspace::new(&p).solve(b, hint.as_deref());
            assert_eq!(reused.status, fresh.status, "node {k}");
            assert_eq!(reused.pivots, fresh.pivots, "node {k}");
            assert_eq!(reused.objective.to_bits(), fresh.objective.to_bits(), "node {k}");
            assert_eq!(bits(&reused.values), bits(&fresh.values), "node {k}");
            assert_eq!(reused.basic_structurals, fresh.basic_structurals, "node {k}");
            if reused.status == LpStatus::Optimal {
                hint = Some(reused.basic_structurals);
            }
        }
        assert!(shapes.len() >= 4, "the nodes must change the tableau's shape: {shapes:?}");
    }
}
