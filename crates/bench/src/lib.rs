//! # fast-bench — the FAST paper's evaluation, regenerated
//!
//! One function (and one binary) per table and figure of the paper's §4/§6.
//! Each returns the formatted report it prints, so integration tests can
//! smoke-run the cheap ones. `EXPERIMENTS.md` archives paper-vs-measured
//! values produced by these functions.
//!
//! | binary | experiment |
//! |---|---|
//! | `zoo_table` | model zoo — per-family graph statistics |
//! | `tab01_working_sets` | Table 1 — EfficientNet storage requirements |
//! | `tab02_b7_op_runtime` | Table 2 — B7 FLOP% vs runtime% per op class |
//! | `fig02_family_latency` | Figure 2 — step time vs ImageNet top-1 |
//! | `fig03_op_intensity` | Figure 3 — fusion strategies vs op intensity |
//! | `fig04_b7_block_util` | Figure 4 — B7 per-block fraction of peak |
//! | `fig05_bert_ops` | Figure 5 — BERT runtime share vs sequence length |
//! | `fig06_roi_curves` | Figure 6 — ROI vs deployment volume |
//! | `fig09_throughput` | Figure 9 — throughput vs TPU-v3 |
//! | `fig10_perf_tdp` | Figure 10 — Perf/TDP vs TPU-v3 |
//! | `fig11_convergence` | Figure 11 — optimizer convergence |
//! | `fig12_pareto` | Figure 12 — step time vs TDP / area Pareto |
//! | `fig13_fusion_sweep` | Figure 13 — op intensity vs GM × batch |
//! | `fig14_b7_fast_util` | Figure 14 — B7 per-block util on FAST-Large |
//! | `fig15_breakdown` | Figure 15 — component breakdown |
//! | `tab04_roi_volumes` | Table 4 — volumes for ROI targets |
//! | `tab05_example_designs` | Table 5 — example designs |
//! | `tab06_ablation` | Table 6 — FAST-Large ablation |
//! | `sweep_frontiers` | budget sweep — per-scenario Pareto frontiers + ROI |
//! | `surrogate_smoke` | exact vs surrogate-screened sweep: savings, ρ, hypervolume |
//! | `repro_all` | everything above, in order |
//!
//! The `sweep_frontiers` and `repro_all` binaries are *durable*: pass
//! `--checkpoint DIR` to persist progress and `--resume` to continue a
//! killed run bit-identically (see [`pareto_figs::SweepRunOptions`]).
//!
//! ```
//! use fast_bench::Table;
//!
//! let mut t = Table::new(["design", "QPS"]);
//! t.row(["FAST-Large", "12000"]);
//! let rendered = t.render();
//! assert!(rendered.contains("FAST-Large"));
//! assert_eq!(rendered.lines().count(), 3); // header, rule, one row
//! ```

pub mod calibration;
pub mod cli;
pub mod figures;
pub mod headline;
pub mod pareto_figs;
pub mod search_figs;
pub mod surrogate_smoke;
pub mod tables;
pub mod zoo;

use std::fmt::Write as _;

/// Simple fixed-width table renderer used by all reports.
#[derive(Debug, Default, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        Table { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends one row (stringified cells).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Renders with right-aligned columns (first column left-aligned).
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate().take(cols) {
                if i == 0 {
                    let _ = write!(out, "{c:<width$}", width = widths[0]);
                } else {
                    let _ = write!(out, "  {c:>width$}", width = widths[i]);
                }
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }
}

/// Number of search trials used by the search-driven figures; override with
/// the `FAST_TRIALS` environment variable (the paper runs 5000 per study —
/// budget accordingly).
#[must_use]
pub fn trial_budget(default: usize) -> usize {
    std::env::var("FAST_TRIALS").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["name", "value"]);
        t.row(["alpha", "1"]);
        t.row(["b", "22222"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].starts_with("alpha"));
    }

    #[test]
    fn trial_budget_default() {
        std::env::remove_var("FAST_TRIALS");
        assert_eq!(trial_budget(42), 42);
    }
}
