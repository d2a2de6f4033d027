//! A deterministic work gate for the production sweep.
//!
//! The bench-matrix sweep (LCS, batch 8, 48 trials per scenario) is run for
//! two study seeds from empty caches, and each run's per-stage cache
//! traffic and the FNV-1a digest of its frontier-points table are pinned.
//! The traffic counts are a function of the proposals alone: the op tier
//! counts a lookup per matrix op, the sim tier one per workload of every
//! admitted design and the fuse tier one per schedulable workload, so they
//! repeat exactly at every thread count. A change that does more mapping,
//! assembly or fusion work per sweep moves a miss count; a change that
//! moves a frontier moves the digest.

use fast_bench::pareto_figs::{bench_config, bench_matrix};
use fast_core::{points_table, CacheStats, OptimizerKind, SweepConfig, SweepRunner};

/// `(study seed, op, sim, fuse, points-table digest)`, each tier as
/// `(hits, misses)`.
type Expected = (u64, (u64, u64), (u64, u64), (u64, u64), u64);

const EXPECTED: [Expected; 2] = [
    (1, (4569, 1105), (448, 82), (448, 82), 0xbb27_df91_07d2_b33b),
    (199, (4717, 1372), (681, 88), (681, 88), 0xf76e_6418_7d9c_2a14),
];

#[test]
fn bench_matrix_sweep_does_the_recorded_work() {
    let mut got = Vec::new();
    for (seed, ..) in EXPECTED {
        let config = SweepConfig {
            trials: 48,
            optimizer: OptimizerKind::Lcs,
            seed,
            batch: 8,
            ..bench_config()
        };
        let result = SweepRunner::new(bench_matrix(), config).run();
        let records: Vec<_> = result.scenarios.iter().map(|s| s.record()).collect();
        let staged = result.total_staged;
        let pair = |c: CacheStats| (c.hits, c.misses);
        got.push((
            seed,
            pair(staged.op),
            pair(staged.sim),
            pair(staged.fuse),
            serde::bin::fnv1a(points_table(&records).as_bytes()),
        ));
    }
    assert_eq!(got, EXPECTED, "sweep work or frontiers drifted; now {got:#x?}");
}
