//! Runner-speed calibration for the gate benches.
//!
//! A gate bench times its own pass interleaved with [`calibration_kernel`],
//! keeps the fastest round of each, and reports pass seconds ÷ calibration
//! seconds (`staged_norm` in `staged_eval`, `ilp_norm` in `ilp_solve`).
//! The ratio cancels the runner's single-thread speed, so `bench_trend`
//! can gate it against the archived `BENCH_pr*.json` figures.

use std::collections::HashMap;

/// Iterations of the calibration kernel: a few milliseconds.
const CALIBRATION_ITERS: u64 = 200_000;

/// A fixed calibration kernel that is not program code, with the
/// instruction mix of cache lookups and per-design assembly: hash-map
/// updates, short-lived allocations and a dependent multiply–rotate chain.
/// Its time tracks the runner's single-thread speed.
#[must_use]
pub fn calibration_kernel() -> u64 {
    let mut counts: HashMap<u64, u64> = HashMap::new();
    let mut acc = 0x243f_6a88_85a3_08d3_u64;
    let mut folded = 0u64;
    for i in 0..CALIBRATION_ITERS {
        acc = (acc ^ i).wrapping_mul(0xff51_afd7_ed55_8ccd).rotate_left(23);
        *counts.entry(acc >> 51).or_insert(0) += 1;
        if i % 32 == 0 {
            let row: Vec<f64> = (0..48).map(|k| (acc >> k) as f64).collect();
            folded ^= row.iter().sum::<f64>().to_bits();
        }
    }
    counts.values().fold(acc ^ folded, |a, &b| a.rotate_left(1) ^ b)
}

/// Wall seconds of one call of `f`, its result kept opaque to the
/// optimizer.
pub fn seconds<T>(f: impl FnOnce() -> T) -> f64 {
    let start = std::time::Instant::now();
    std::hint::black_box(f());
    start.elapsed().as_secs_f64()
}
