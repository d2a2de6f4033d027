//! # fast-fusion — the FAST fusion pass (§5.5, Figure 8)
//!
//! FAST fusion is a secondary pass over the XLA-partially-fused region graph:
//! it assigns intermediate **activation** tensors and pinnable **weight**
//! tensors from DRAM to leftover Global-Memory capacity so as to directly
//! minimize total execution time as modeled by the simulator — not an
//! indirect proxy like total memory accesses.
//!
//! The optimization problem is the paper's Figure-8 ILP verbatim:
//!
//! * binary `p^k_i` for `k ∈ {I, O, W}` decides whether layer `i`'s tensor of
//!   type `k` lives in Global Memory;
//! * `T_i ≥ T_i^min` and `T_i ≥ T_i^max − Σ_k t^k_i · p^k_i` linearize the
//!   per-layer time as tensors move on-chip;
//! * a Global-Memory capacity row per layer charges resident streaming
//!   buffers `B_i`, this layer's on-chip tensors, and every pinned weight;
//! * producer/consumer linkage plus the adjacency restriction: an input can
//!   only be read from Global Memory when its producer executed *immediately
//!   before* (activations have short lifetimes — multi-fanout regions benefit
//!   at most once).
//!
//! Solving follows the paper's SCIP-with-timeout contract: a greedy
//! benefit-per-byte warm start, then LP-based branch and bound when the
//! problem is small enough, falling back to the incumbent otherwise.
//!
//! ```
//! use fast_fusion::{fuse_workload, FusionOptions};
//! use fast_models::Workload;
//! use fast_sim::{simulate, SimOptions};
//!
//! let cfg = fast_arch::presets::fast_large();
//! let graph = Workload::EfficientNet(fast_models::EfficientNet::B0).build(8).unwrap();
//! let perf = simulate(&graph, &cfg, &SimOptions::default()).unwrap();
//! let fused = fuse_workload(&perf, &cfg, &FusionOptions::default());
//! // Fusion moves tensor traffic on-chip: never slower than pre-fusion,
//! // never faster than pure compute.
//! assert!(fused.total_seconds <= perf.prefusion_seconds * (1.0 + 1e-9));
//! assert!(fused.total_seconds >= perf.compute_seconds * (1.0 - 1e-9));
//! ```

use fast_arch::DatapathConfig;
use fast_ilp::{solve_milp, MilpStatus, Problem, Sense, SolveOptions, VarId};
use fast_sim::{RegionPerf, WorkloadPerf};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// A collision-resistant fingerprint of the fusion inputs: everything
/// [`fuse_regions`] reads from the region statistics, as a canonical
/// sequence of 64-bit words hashed by two independent digests, together
/// with the word count. Two identical fingerprints identify identical
/// fusion problems for all practical purposes (a collision needs two stat
/// blocks agreeing on both 64-bit digests *and* their length).
///
/// This is the `FuseKey` ingredient evaluation caches key Stage C on:
/// datapaths that differ only in mapper-invisible *and* fusion-invisible
/// ways (or distinct workloads with identical region statistics) share one
/// fusion solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StatsFingerprint {
    /// First digest of the canonical word sequence.
    pub hash_a: u64,
    /// Second, independent digest of the same words.
    pub hash_b: u64,
    /// Number of words hashed.
    pub len: u64,
}

impl serde::bin::Encode for StatsFingerprint {
    fn encode(&self, w: &mut serde::bin::Writer) {
        let StatsFingerprint { hash_a, hash_b, len } = *self;
        hash_a.encode(w);
        hash_b.encode(w);
        len.encode(w);
    }
}

impl serde::bin::Decode for StatsFingerprint {
    fn decode(r: &mut serde::bin::Reader<'_>) -> Result<Self, serde::bin::DecodeError> {
        Ok(StatsFingerprint {
            hash_a: u64::decode(r)?,
            hash_b: u64::decode(r)?,
            len: u64::decode(r)?,
        })
    }
}

/// FNV-1a with a caller-chosen initial state (the second, independent
/// digest of [`StructureKey`]).
fn fnv1a_seeded(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Two independent multiply–xorshift digests over a stream of 64-bit
/// words: each word is folded into both states, which are then multiplied
/// by distinct odd constants and xor-shifted so high-bit differences reach
/// the low bits before the next word.
struct WordDigest {
    a: u64,
    b: u64,
    words: u64,
}

impl WordDigest {
    fn new() -> Self {
        WordDigest { a: 0xcbf2_9ce4_8422_2325, b: 0x8422_2325_cbf2_9ce4, words: 0 }
    }

    fn word(&mut self, w: u64) {
        self.a = (self.a ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.a ^= self.a >> 29;
        self.b = (self.b ^ w).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        self.b ^= self.b >> 32;
        self.words += 1;
    }
}

/// Fingerprints the inputs of [`fuse_regions`] (minus the Global-Memory
/// capacity and the options, which cache keys carry verbatim).
///
/// Every [`RegionPerf`] field the pass reads is hashed as one word — floats
/// as raw bits, `primary_input` as `0` for none and `i + 1` otherwise —
/// via an exhaustive destructure, so adding a field without classifying it
/// here is a compile error. Three fields are deliberately *excluded* as
/// identity/display-only: the region id and the name (node names and graph
/// ids never influence placements — only `primary_input`, the positional
/// linkage the ILP consumes, does) and the group tag.
#[must_use]
pub fn stats_fingerprint(regions: &[RegionPerf], compute_seconds: f64) -> StatsFingerprint {
    let mut d = WordDigest::new();
    d.word(compute_seconds.to_bits());
    d.word(regions.len() as u64);
    for r in regions {
        let RegionPerf {
            region: _, // graph id: identity-only, never read by fusion
            name: _,   // display-only
            group: _,  // display-only
            compute_seconds,
            flops,
            in_bytes,
            primary_in_bytes,
            out_bytes,
            weight_bytes,
            weight_store_bytes,
            spill_bytes,
            t_min,
            t_max,
            t_in,
            t_fixed,
            t_out,
            t_weight,
            resident_buffer_bytes,
            primary_input,
            row_streamable,
        } = r;
        d.word(compute_seconds.to_bits());
        d.word(*flops);
        d.word(*in_bytes);
        d.word(*primary_in_bytes);
        d.word(*out_bytes);
        d.word(*weight_bytes);
        d.word(*weight_store_bytes);
        d.word(*spill_bytes);
        d.word(t_min.to_bits());
        d.word(t_max.to_bits());
        d.word(t_in.to_bits());
        d.word(t_fixed.to_bits());
        d.word(t_out.to_bits());
        d.word(t_weight.to_bits());
        d.word(*resident_buffer_bytes);
        d.word(primary_input.map_or(0, |p| p as u64 + 1));
        d.word(u64::from(*row_streamable));
    }
    StatsFingerprint { hash_a: d.a, hash_b: d.b, len: d.words }
}

/// Per-region tensor placement decided by FAST fusion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Placement {
    /// Input activation read from Global Memory.
    pub input_gm: bool,
    /// Output activation written to Global Memory.
    pub output_gm: bool,
    /// Weights pinned in Global Memory across inferences.
    pub weight_gm: bool,
}

/// How the fusion ILP was solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FusionSolver {
    /// LP-based branch and bound proved optimality.
    ExactOptimal,
    /// Branch and bound hit a limit; best incumbent returned.
    ExactIncumbent,
    /// Problem exceeded the exact-solver size threshold; greedy incumbent.
    Heuristic,
    /// No Global Memory configured — fusion disabled, all tensors in DRAM.
    Disabled,
}

/// Options for the fusion pass.
///
/// `Eq`/`Hash` let evaluation caches key on the exact fusion configuration
/// (all fields are integral, so float-hashing caveats don't apply).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FusionOptions {
    /// Maximum binary variable count for the exact branch-and-bound path.
    pub exact_binary_limit: usize,
    /// Branch-and-bound node limit.
    pub max_nodes: usize,
    /// Branch-and-bound time limit (the paper uses 20 minutes of SCIP; we
    /// default far smaller since the search loop calls this per trial).
    pub time_limit: Duration,
    /// Maximum execution-order distance between a producer and the consumer
    /// reading its activation from Global Memory; capacity is charged on
    /// every intervening layer row. `1` is the paper's strict Figure-8
    /// adjacency ("executes immediately after"); the default of 8 implements
    /// the generalization the paper defers to future work — without it the
    /// squeeze-and-excite skip inside every MBConv block re-reads its large
    /// tensor from DRAM and fusion cannot reach the reported stall reduction.
    pub residency_window: usize,
    /// Completely disables the pass (ablation rows "Without FAST Fusion").
    pub disabled: bool,
}

impl Default for FusionOptions {
    fn default() -> Self {
        FusionOptions {
            exact_binary_limit: 160,
            max_nodes: 600,
            time_limit: Duration::from_secs(5),
            residency_window: 8,
            disabled: false,
        }
    }
}

impl FusionOptions {
    /// Heuristic-only options (used inside hot search loops).
    #[must_use]
    pub fn heuristic_only() -> Self {
        FusionOptions { exact_binary_limit: 0, ..FusionOptions::default() }
    }

    /// The paper's strict Figure-8 semantics: producer must execute
    /// immediately before the consumer.
    #[must_use]
    pub fn strict_adjacency() -> Self {
        FusionOptions { residency_window: 1, ..FusionOptions::default() }
    }

    /// A disabled pass: every tensor streams from DRAM (ablation baseline).
    #[must_use]
    pub fn disabled() -> Self {
        FusionOptions { disabled: true, ..FusionOptions::default() }
    }
}

// Binary-codec impls (part of the evaluation-cache snapshot key). The
// vendored serde derives generate no code, so the layout is spelled out
// here; the time limit is persisted as whole nanoseconds.
impl serde::bin::Encode for FusionOptions {
    fn encode(&self, w: &mut serde::bin::Writer) {
        let FusionOptions { exact_binary_limit, max_nodes, time_limit, residency_window, disabled } =
            self;
        exact_binary_limit.encode(w);
        max_nodes.encode(w);
        u64::try_from(time_limit.as_nanos()).unwrap_or(u64::MAX).encode(w);
        residency_window.encode(w);
        disabled.encode(w);
    }
}

impl serde::bin::Decode for FusionOptions {
    fn decode(r: &mut serde::bin::Reader<'_>) -> Result<Self, serde::bin::DecodeError> {
        Ok(FusionOptions {
            exact_binary_limit: usize::decode(r)?,
            max_nodes: usize::decode(r)?,
            time_limit: Duration::from_nanos(u64::decode(r)?),
            residency_window: usize::decode(r)?,
            disabled: bool::decode(r)?,
        })
    }
}

/// Result of the fusion pass.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FusionResult {
    /// Placement per compute region, in execution order.
    pub placements: Vec<Placement>,
    /// Post-fusion per-region execution times (seconds): the ILP's `T_i`
    /// (per-region `max(compute, DRAM)` — the quantity Figure 8 minimizes).
    pub region_seconds: Vec<f64>,
    /// Post-fusion step time with cross-region DMA overlap:
    /// `max(Σ compute, Σ post-fusion DRAM)`.
    pub total_seconds: f64,
    /// Σ of the per-region `T_i` (the ILP objective value).
    pub sum_region_seconds: f64,
    /// Bytes of weights pinned across inferences.
    pub pinned_weight_bytes: u64,
    /// Peak Global-Memory usage across layer rows.
    pub peak_gm_bytes: u64,
    /// DRAM traffic per step after fusion.
    pub dram_bytes: u64,
    /// Solver path taken.
    pub solver: FusionSolver,
}

impl FusionResult {
    /// Post-fusion operational intensity.
    #[must_use]
    pub fn op_intensity(&self, total_flops: u64) -> f64 {
        if self.dram_bytes == 0 {
            f64::INFINITY
        } else {
            total_flops as f64 / self.dram_bytes as f64
        }
    }
}

/// What scoring reads of a fusion solve: the three numbers of a
/// [`FusionResult`] that are not per-region detail. The evaluator's fuse
/// tier stores exactly this ([`fuse_regions_totals`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusionTotals {
    /// Post-fusion step time with cross-region DMA overlap:
    /// `max(Σ compute, Σ post-fusion DRAM)`.
    pub total_seconds: f64,
    /// Bytes of weights pinned across inferences.
    pub pinned_weight_bytes: u64,
    /// DRAM traffic per step after fusion.
    pub dram_bytes: u64,
}

impl FusionTotals {
    /// The totals of `placements`, the post-fusion DRAM seconds summed in
    /// region order.
    fn of(regions: &[RegionPerf], compute_seconds: f64, placements: &[Placement]) -> FusionTotals {
        let mut pinned_weight_bytes = 0;
        let mut dram_bytes = 0;
        let mut dram_seconds = 0.0;
        for (r, p) in regions.iter().zip(placements) {
            if p.weight_gm {
                pinned_weight_bytes += r.weight_store_bytes;
            }
            dram_bytes += r.dram_bytes_with_placements(p.input_gm, p.output_gm, p.weight_gm);
            let mut d = r.t_fixed;
            if !p.input_gm {
                d += r.t_in;
            }
            if !p.output_gm {
                d += r.t_out;
            }
            if !p.weight_gm {
                d += r.t_weight;
            }
            dram_seconds += d;
        }
        FusionTotals {
            total_seconds: compute_seconds.max(dram_seconds),
            pinned_weight_bytes,
            dram_bytes,
        }
    }
}

// The fuse tier's persisted value.
impl serde::bin::Encode for FusionTotals {
    fn encode(&self, w: &mut serde::bin::Writer) {
        let FusionTotals { total_seconds, pinned_weight_bytes, dram_bytes } = *self;
        total_seconds.encode(w);
        pinned_weight_bytes.encode(w);
        dram_bytes.encode(w);
    }
}

impl serde::bin::Decode for FusionTotals {
    fn decode(r: &mut serde::bin::Reader<'_>) -> Result<Self, serde::bin::DecodeError> {
        Ok(FusionTotals {
            total_seconds: f64::decode(r)?,
            pinned_weight_bytes: u64::decode(r)?,
            dram_bytes: u64::decode(r)?,
        })
    }
}

/// Counters describing the exact-solver work behind fusion solves and how
/// much of it the cross-point warm-start tier absorbed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolverStats {
    /// Exact solves that found a usable cross-point incumbent.
    pub warm_hits: u64,
    /// Exact solves with no cross-point incumbent available.
    pub warm_misses: u64,
    /// Branch-and-bound nodes spent in warm-seeded solves.
    pub warm_nodes: u64,
    /// Branch-and-bound nodes spent in cold (greedy-seeded) solves.
    pub cold_nodes: u64,
    /// Total simplex pivots across all exact solves.
    pub lp_pivots: u64,
}

impl SolverStats {
    /// Warm-start hit rate over the exact solves (0 when none ran).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.warm_hits + self.warm_misses;
        if total == 0 {
            0.0
        } else {
            self.warm_hits as f64 / total as f64
        }
    }

    /// Counter deltas accumulated after `before` was sampled.
    #[must_use]
    pub fn since(&self, before: &SolverStats) -> SolverStats {
        SolverStats {
            warm_hits: self.warm_hits.saturating_sub(before.warm_hits),
            warm_misses: self.warm_misses.saturating_sub(before.warm_misses),
            warm_nodes: self.warm_nodes.saturating_sub(before.warm_nodes),
            cold_nodes: self.cold_nodes.saturating_sub(before.cold_nodes),
            lp_pivots: self.lp_pivots.saturating_sub(before.lp_pivots),
        }
    }
}

impl serde::bin::Encode for SolverStats {
    fn encode(&self, w: &mut serde::bin::Writer) {
        let SolverStats { warm_hits, warm_misses, warm_nodes, cold_nodes, lp_pivots } = *self;
        warm_hits.encode(w);
        warm_misses.encode(w);
        warm_nodes.encode(w);
        cold_nodes.encode(w);
        lp_pivots.encode(w);
    }
}

impl serde::bin::Decode for SolverStats {
    fn decode(r: &mut serde::bin::Reader<'_>) -> Result<Self, serde::bin::DecodeError> {
        Ok(SolverStats {
            warm_hits: u64::decode(r)?,
            warm_misses: u64::decode(r)?,
            warm_nodes: u64::decode(r)?,
            cold_nodes: u64::decode(r)?,
            lp_pivots: u64::decode(r)?,
        })
    }
}

/// Datapath-free fingerprint of a workload's fusion *structure*: region
/// count, producer linkage, row-streamability, the eligibility pattern, and
/// the residency window — exactly what determines the ILP's variable layout
/// — and none of the `T_i`/byte magnitudes that vary across datapath search
/// points. Neighboring points that share a key share a 0/1 incumbent shape,
/// which is what makes cross-point warm-starting possible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StructureKey {
    /// FNV-1a over the canonical structure encoding.
    pub hash_a: u64,
    /// Independent second digest of the same bytes.
    pub hash_b: u64,
    /// Length of the canonical encoding in bytes.
    pub len: u64,
}

impl serde::bin::Encode for StructureKey {
    fn encode(&self, w: &mut serde::bin::Writer) {
        let StructureKey { hash_a, hash_b, len } = *self;
        hash_a.encode(w);
        hash_b.encode(w);
        len.encode(w);
    }
}

impl serde::bin::Decode for StructureKey {
    fn decode(r: &mut serde::bin::Reader<'_>) -> Result<Self, serde::bin::DecodeError> {
        Ok(StructureKey { hash_a: u64::decode(r)?, hash_b: u64::decode(r)?, len: u64::decode(r)? })
    }
}

// Placement rides inside warm-tier snapshot values.
impl serde::bin::Encode for Placement {
    fn encode(&self, w: &mut serde::bin::Writer) {
        let Placement { input_gm, output_gm, weight_gm } = *self;
        input_gm.encode(w);
        output_gm.encode(w);
        weight_gm.encode(w);
    }
}

impl serde::bin::Decode for Placement {
    fn decode(r: &mut serde::bin::Reader<'_>) -> Result<Self, serde::bin::DecodeError> {
        Ok(Placement {
            input_gm: bool::decode(r)?,
            output_gm: bool::decode(r)?,
            weight_gm: bool::decode(r)?,
        })
    }
}

/// Fingerprints the fusion structure of `regions` under `opts` (see
/// [`StructureKey`]).
#[must_use]
pub fn structure_key(regions: &[RegionPerf], opts: &FusionOptions) -> StructureKey {
    let elig = eligibility(regions, opts.residency_window.max(1));
    structure_key_from_elig(regions, opts, &elig)
}

/// [`structure_key`] over a precomputed eligibility vector (the solver
/// already has one in hand).
fn structure_key_from_elig(
    regions: &[RegionPerf],
    opts: &FusionOptions,
    elig: &[Eligibility],
) -> StructureKey {
    use serde::bin::Encode as _;
    let window = opts.residency_window.max(1);
    let mut w = serde::bin::Writer::new();
    (regions.len() as u64).encode(&mut w);
    (window as u64).encode(&mut w);
    for (r, e) in regions.iter().zip(elig) {
        r.primary_input.encode(&mut w);
        r.row_streamable.encode(&mut w);
        e.input.encode(&mut w);
        e.output.encode(&mut w);
        e.weight.encode(&mut w);
    }
    let bytes = w.into_bytes();
    StructureKey {
        hash_a: serde::bin::fnv1a(&bytes),
        hash_b: fnv1a_seeded(0x8422_2325_CBF2_9CE4, &bytes),
        len: bytes.len() as u64,
    }
}

/// Cross-point warm-start tier: remembers, per [`StructureKey`], the 0/1
/// fusion incumbent last proven good at a neighboring search point, plus
/// counters describing how much solver work the reuse saved.
///
/// The tier is strictly a *performance hint* — fusion results are
/// bit-identical with or without it (see [`fuse_regions_warm`]) — so it can
/// be persisted, shared, dropped, or merged freely without affecting any
/// study output.
#[derive(Debug, Default)]
pub struct WarmStartTier {
    entries: std::sync::Mutex<WarmEntries>,
    warm_hits: std::sync::atomic::AtomicU64,
    warm_misses: std::sync::atomic::AtomicU64,
    warm_nodes: std::sync::atomic::AtomicU64,
    cold_nodes: std::sync::atomic::AtomicU64,
    lp_pivots: std::sync::atomic::AtomicU64,
}

/// What the warm tier's lock guards: the incumbents, plus the log of keys
/// recorded since the last [`WarmStartTier::take_new`] (`None` until
/// [`WarmStartTier::track_new`]).
#[derive(Debug, Default)]
struct WarmEntries {
    map: std::collections::HashMap<StructureKey, Vec<Placement>>,
    new: Option<Vec<StructureKey>>,
}

impl WarmStartTier {
    /// Creates an empty tier.
    #[must_use]
    pub fn new() -> Self {
        WarmStartTier::default()
    }

    /// Incumbent recorded for `key`, if any. Counts a warm hit or miss.
    fn lookup(&self, key: &StructureKey) -> Option<Vec<Placement>> {
        use std::sync::atomic::Ordering;
        let got = self.entries.lock().expect("warm tier poisoned").map.get(key).cloned();
        if got.is_some() {
            self.warm_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.warm_misses.fetch_add(1, Ordering::Relaxed);
        }
        got
    }

    /// Records the incumbent decided for `key`. First write wins (matching
    /// the evaluation tiers' merge semantics).
    fn record(&self, key: StructureKey, placements: &[Placement]) {
        let mut guard = self.entries.lock().expect("warm tier poisoned");
        let WarmEntries { map, new } = &mut *guard;
        if let std::collections::hash_map::Entry::Vacant(slot) = map.entry(key) {
            slot.insert(placements.to_vec());
            if let Some(log) = new {
                log.push(key);
            }
        }
    }

    /// Accumulates one exact solve's work into the counters.
    fn note_solve(&self, warm: bool, nodes: u64, pivots: u64) {
        use std::sync::atomic::Ordering;
        if warm {
            self.warm_nodes.fetch_add(nodes, Ordering::Relaxed);
        } else {
            self.cold_nodes.fetch_add(nodes, Ordering::Relaxed);
        }
        self.lp_pivots.fetch_add(pivots, Ordering::Relaxed);
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> SolverStats {
        use std::sync::atomic::Ordering;
        SolverStats {
            warm_hits: self.warm_hits.load(Ordering::Relaxed),
            warm_misses: self.warm_misses.load(Ordering::Relaxed),
            warm_nodes: self.warm_nodes.load(Ordering::Relaxed),
            cold_nodes: self.cold_nodes.load(Ordering::Relaxed),
            lp_pivots: self.lp_pivots.load(Ordering::Relaxed),
        }
    }

    /// Number of remembered incumbents.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.lock().expect("warm tier poisoned").map.len()
    }

    /// Whether the tier holds no incumbents.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All entries, for persistence.
    #[must_use]
    pub fn export(&self) -> Vec<(StructureKey, Vec<Placement>)> {
        self.entries
            .lock()
            .expect("warm tier poisoned")
            .map
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect()
    }

    /// Merges persisted entries; existing entries win. Merged entries never
    /// join the new-entry log.
    pub fn merge(&self, entries: Vec<(StructureKey, Vec<Placement>)>) {
        let mut guard = self.entries.lock().expect("warm tier poisoned");
        for (k, v) in entries {
            guard.map.entry(k).or_insert(v);
        }
    }

    /// Turns on the new-entry log: from now on every incumbent recorded
    /// under a new key is logged until a [`WarmStartTier::take_new`]
    /// returns it. Idempotent.
    pub fn track_new(&self) {
        self.entries.lock().expect("warm tier poisoned").new.get_or_insert_with(Vec::new);
    }

    /// Drains the new-entry log: the incumbents recorded under new keys
    /// since the previous call, each returned by exactly one call. Empty
    /// when the log is off.
    #[must_use]
    pub fn take_new(&self) -> Vec<(StructureKey, Vec<Placement>)> {
        let mut guard = self.entries.lock().expect("warm tier poisoned");
        let WarmEntries { map, new } = &mut *guard;
        let Some(log) = new else { return Vec::new() };
        log.drain(..).map(|k| (k, map[&k].clone())).collect()
    }
}

/// Eligibility of each region's three placement decisions, after pruning.
struct Eligibility {
    input: bool,
    output: bool,
    weight: bool,
}

/// Computes which placements can possibly help (the variable pruning pass).
fn eligibility(regions: &[RegionPerf], window: usize) -> Vec<Eligibility> {
    let n = regions.len();
    let mut elig: Vec<Eligibility> =
        (0..n).map(|_| Eligibility { input: false, output: false, weight: false }).collect();
    for (i, r) in regions.iter().enumerate() {
        // Input from GM only if the producer ran within the residency window.
        if let Some(j) = r.primary_input {
            if j < i && i - j <= window && r.primary_in_bytes > 0 {
                elig[i].input = true;
            }
        }
        if r.weight_store_bytes > 0 && r.t_weight > 0.0 {
            elig[i].weight = true;
        }
    }
    // Output to GM only if some in-window successor consumes it.
    for i in 0..n {
        let consumer_ok = (i + 1..n.min(i + window + 1))
            .any(|k| elig[k].input && regions[k].primary_input == Some(i));
        elig[i].output = consumer_ok && regions[i].out_bytes > 0;
    }
    // Inputs whose producer cannot store: disable.
    for i in 0..n {
        if elig[i].input {
            let j = regions[i].primary_input.expect("checked above");
            if !elig[j].output {
                elig[i].input = false;
            }
        }
    }
    elig
}

/// Global-Memory bytes a fused input tensor occupies: whole tensors in
/// general, but adjacent row-streamable chains (attention einsum → softmax →
/// einsum) are inter-op blocked and only hold a streaming tile (§5.5).
fn fused_input_charge(regions: &[RegionPerf], i: usize, gm_bytes: u64) -> u64 {
    let r = &regions[i];
    let blockable = r.row_streamable
        && r.primary_input.is_some_and(|j| j + 1 == i && regions[j].row_streamable);
    if blockable {
        r.primary_in_bytes.min(gm_bytes / 4)
    } else {
        r.primary_in_bytes
    }
}

/// Per-layer Global-Memory usage rows for a placement vector: streaming
/// buffers + pinned weights + every fused activation resident across its
/// producer→consumer span.
fn capacity_rows(regions: &[RegionPerf], gm_bytes: u64, placements: &[Placement]) -> Vec<u64> {
    let pinned: u64 = regions
        .iter()
        .zip(placements)
        .filter(|(_, p)| p.weight_gm)
        .map(|(r, _)| r.weight_store_bytes)
        .sum();
    let mut rows: Vec<u64> = regions.iter().map(|r| r.resident_buffer_bytes + pinned).collect();
    for (i, (r, p)) in regions.iter().zip(placements).enumerate() {
        if p.input_gm {
            if let Some(j) = r.primary_input {
                let charge = fused_input_charge(regions, i, gm_bytes);
                for row in rows.iter_mut().take(i + 1).skip(j) {
                    *row += charge;
                }
            }
        }
    }
    rows
}

/// Checks that `placements` respect the per-layer capacity rows.
fn feasible(regions: &[RegionPerf], gm_bytes: u64, placements: &[Placement]) -> bool {
    capacity_rows(regions, gm_bytes, placements).into_iter().all(|row| row <= gm_bytes)
}

/// "No region": the end of a consumer list, or a region whose fuse move is
/// not eligible.
const NO_REGION: u32 = u32::MAX;

/// What the greedy kernel reads of one region, copied once per solve into
/// a flat array.
#[derive(Debug, Clone, Copy)]
struct GreedyRegion {
    t_fixed: f64,
    t_in: f64,
    t_out: f64,
    t_weight: f64,
    compute_seconds: f64,
    /// Bytes pinning the weights takes (`W_i`).
    weight_store_bytes: u64,
    /// Global-Memory bytes fusing the primary input takes.
    fuse_bytes: u64,
    /// The producer of the primary input when the fuse move is eligible,
    /// else [`NO_REGION`].
    producer: u32,
    /// Head of this region's list of fuse-eligible consumers.
    first_consumer: u32,
    /// Next fuse-eligible consumer of this region's producer.
    next_consumer: u32,
    /// Whether pinning the weights is eligible.
    weight_eligible: bool,
}

impl GreedyRegion {
    /// [`RegionPerf::time_with_placements`], in the same floating-point
    /// order.
    fn time(&self, in_gm: bool, out_gm: bool, weight_gm: bool) -> f64 {
        let mut dram = self.t_fixed;
        if !in_gm {
            dram += self.t_in;
        }
        if !out_gm {
            dram += self.t_out;
        }
        if !weight_gm {
            dram += self.t_weight;
        }
        self.compute_seconds.max(dram)
    }

    fn time_at(&self, p: Placement) -> f64 {
        self.time(p.input_gm, p.output_gm, p.weight_gm)
    }
}

/// The greedy kernel's buffers, kept per thread between solves.
#[derive(Debug)]
struct GreedyScratch {
    regions: Vec<GreedyRegion>,
    /// Row usage excluding the global pinned term.
    row_local: Vec<u64>,
    /// Current version of each candidate slot `2i + kind`.
    versions: Vec<u32>,
    heap: std::collections::BinaryHeap<u128>,
}

thread_local! {
    /// Created empty, so a thread allocates nothing until its first solve.
    static GREEDY_SCRATCH: std::cell::RefCell<GreedyScratch> =
        const {
            std::cell::RefCell::new(GreedyScratch {
                regions: Vec::new(),
                row_local: Vec::new(),
                versions: Vec::new(),
                heap: std::collections::BinaryHeap::new(),
            })
        };
}

/// Greedy warm start: repeatedly take the feasible move with the best
/// time-saved per Global-Memory byte.
///
/// Moves are (a) pin one region's weights, (b) fuse one adjacent
/// producer→consumer activation edge. Per-move deltas are computed locally
/// (only the touched regions change time; pinning shrinks every row's
/// slack), and candidates wait in a lazy max-heap: a density is recomputed
/// only when an accepted move touches one of the regions it reads, and
/// feasibility — which is *monotone* (pinned bytes and row residency only
/// grow, so an infeasible move can never become feasible) — is checked at
/// pop time. This makes the pass `O(moves · log n)`-ish instead of a full
/// `O(n)` rescan per accepted move, while selecting the exact same move
/// sequence as the scan did.
///
/// The kernel runs over a flat per-region copy of what it reads, with each
/// producer's fuse-eligible consumers linked through region indices, and
/// buffers kept per thread between solves; the only allocation per solve is
/// the returned placement vector. A heap entry is one packed `u128` key:
/// the density's bits, then `u32::MAX − slot` with `slot = 2i + kind` (kind
/// 0 pins weights, kind 1 fuses the input), then the slot's version. So a
/// higher density pops first, ties go to the smaller region index and then
/// to the weight move — the scan evaluated candidates in `(i,
/// weight-then-fuse)` order and replaced only on a strict improvement —
/// and a stale entry (older version) never outranks the live one of its
/// slot. Every density is finite and positive (`saved > 1e-15` over at
/// least one byte), and for non-negative doubles the bit patterns order
/// exactly as [`f64::total_cmp`] does, so the integer order is the
/// historical `(density, i, kind)` order.
fn greedy(regions: &[RegionPerf], gm_bytes: u64, elig: &[Eligibility]) -> Vec<Placement> {
    GREEDY_SCRATCH.with(|scratch| scratch.borrow_mut().solve(regions, gm_bytes, elig))
}

impl GreedyScratch {
    fn solve(
        &mut self,
        regions: &[RegionPerf],
        gm_bytes: u64,
        elig: &[Eligibility],
    ) -> Vec<Placement> {
        let n = regions.len();
        assert!(n < (u32::MAX / 2) as usize, "{n} regions overflow the greedy's slot index");
        let GreedyScratch { regions: rs, row_local, versions, heap } = self;
        rs.clear();
        rs.extend(regions.iter().zip(elig).enumerate().map(|(i, (r, e))| GreedyRegion {
            t_fixed: r.t_fixed,
            t_in: r.t_in,
            t_out: r.t_out,
            t_weight: r.t_weight,
            compute_seconds: r.compute_seconds,
            weight_store_bytes: r.weight_store_bytes,
            fuse_bytes: if e.input { fused_input_charge(regions, i, gm_bytes) } else { 0 },
            producer: match r.primary_input {
                Some(j) if e.input => j as u32,
                _ => NO_REGION,
            },
            first_consumer: NO_REGION,
            next_consumer: NO_REGION,
            weight_eligible: e.weight,
        }));
        // Link each producer's consumers, walking down so every list runs
        // in increasing region order.
        for i in (0..n).rev() {
            let j = rs[i].producer;
            if j != NO_REGION {
                rs[i].next_consumer = rs[j as usize].first_consumer;
                rs[j as usize].first_consumer = i as u32;
            }
        }
        row_local.clear();
        row_local.extend(regions.iter().map(|r| r.resident_buffer_bytes));
        // The running maximum of `row_local` (monotone: fusing only adds
        // residency).
        let mut local_peak = row_local.iter().copied().max().unwrap_or(0);
        let mut pinned: u64 = 0;
        versions.clear();
        versions.resize(2 * n, 0);
        heap.clear();
        let mut placements = vec![Placement::default(); n];

        for slot in 0..2 * n as u32 {
            push(heap, rs, &placements, versions, slot);
        }
        while let Some(key) = heap.pop() {
            let slot = u32::MAX - (key >> 32) as u32;
            if key as u32 != versions[slot as usize] {
                continue; // stale: a fresher entry (or none) superseded it
            }
            let i = (slot / 2) as usize;
            let fuse = slot % 2 == 1;
            if fuse {
                let j = rs[i].producer as usize;
                let bytes = rs[i].fuse_bytes;
                if !row_local[j..=i].iter().all(|&row| row + bytes + pinned <= gm_bytes) {
                    continue; // monotone: rows and pinned bytes only grow
                }
                placements[i].input_gm = true;
                placements[j].output_gm = true;
                for row in &mut row_local[j..=i] {
                    *row += bytes;
                    local_peak = local_peak.max(*row);
                }
            } else {
                // Pinning must fit under every row (it is globally resident).
                let w = rs[i].weight_store_bytes;
                if pinned + w + local_peak > gm_bytes {
                    continue; // monotone: can never fit later either
                }
                placements[i].weight_gm = true;
                pinned += w;
            }
            // Re-key every candidate whose density reads a changed region:
            // its own moves, and the fuse moves of its consumers.
            // (Feasibility shifts from `pinned`/`row_local` growth need no
            // re-keying — pops recheck them against the live state.)
            bump_region(heap, rs, &placements, versions, i);
            if fuse {
                bump_region(heap, rs, &placements, versions, rs[i].producer as usize);
            }
        }
        placements
    }
}

/// Moves region `r`'s own candidates and its consumers' fuse candidates to
/// a new version, re-keyed under the current placements.
fn bump_region(
    heap: &mut std::collections::BinaryHeap<u128>,
    rs: &[GreedyRegion],
    placements: &[Placement],
    versions: &mut [u32],
    r: usize,
) {
    let mut c = rs[r].first_consumer;
    while c != NO_REGION {
        push(heap, rs, placements, versions, 2 * c + 1);
        c = rs[c as usize].next_consumer;
    }
    push(heap, rs, placements, versions, 2 * r as u32);
    push(heap, rs, placements, versions, 2 * r as u32 + 1);
}

/// Bumps `slot`'s version and, when its move is open and saves time, pushes
/// its key under the current placements.
fn push(
    heap: &mut std::collections::BinaryHeap<u128>,
    rs: &[GreedyRegion],
    placements: &[Placement],
    versions: &mut [u32],
    slot: u32,
) {
    let version = &mut versions[slot as usize];
    *version = version.wrapping_add(1);
    if let Some(density) = density(rs, placements, slot) {
        heap.push(
            u128::from(density.to_bits()) << 64
                | u128::from(u32::MAX - slot) << 32
                | u128::from(*version),
        );
    }
}

/// Time saved per Global-Memory byte by `slot`'s move under the current
/// placements; `None` when the move is spent, ineligible, or saves
/// nothing (the scan's `saved > 1e-15` gate). Feasibility is deliberately
/// not part of this — it is checked against the monotone capacity state at
/// pop time.
fn density(rs: &[GreedyRegion], placements: &[Placement], slot: u32) -> Option<f64> {
    let i = (slot / 2) as usize;
    let r = &rs[i];
    let p = placements[i];
    let (saved, bytes) = if slot % 2 == 1 {
        if r.producer == NO_REGION || p.input_gm {
            return None;
        }
        let producer = &rs[r.producer as usize];
        let pj = placements[r.producer as usize];
        let mut before = r.time_at(p);
        if !pj.output_gm {
            before += producer.time_at(pj);
        }
        let mut after = r.time(true, p.output_gm, p.weight_gm);
        if !pj.output_gm {
            after += producer.time(pj.input_gm, true, pj.weight_gm);
        }
        (before - after, r.fuse_bytes)
    } else {
        if !r.weight_eligible || p.weight_gm {
            return None;
        }
        (r.time_at(p) - r.time(p.input_gm, p.output_gm, true), r.weight_store_bytes)
    };
    (saved > 1e-15).then(|| saved / bytes.max(1) as f64)
}

/// Variable handles of the Figure-8 ILP.
struct IlpVars {
    p_in: Vec<Option<VarId>>,
    p_out: Vec<Option<VarId>>,
    p_w: Vec<Option<VarId>>,
    t: Vec<VarId>,
}

fn build_ilp(
    regions: &[RegionPerf],
    label: &str,
    gm_bytes: u64,
    elig: &[Eligibility],
) -> (Problem, IlpVars) {
    let n = regions.len();
    let mut prob = Problem::new(format!("fast-fusion:{label}"));
    let mut vars = IlpVars {
        p_in: vec![None; n],
        p_out: vec![None; n],
        p_w: vec![None; n],
        t: Vec::with_capacity(n),
    };

    for (i, e) in elig.iter().enumerate() {
        if e.input {
            vars.p_in[i] = Some(prob.add_binary(format!("pI_{i}"), 0.0));
        }
        if e.output {
            vars.p_out[i] = Some(prob.add_binary(format!("pO_{i}"), 0.0));
        }
        if e.weight {
            vars.p_w[i] = Some(prob.add_binary(format!("pW_{i}"), 0.0));
        }
    }
    // Time variables and rows: T_i >= T_min via bound, plus the Figure-8 row
    // T_i + t^I pI + t^O pO + t^W pW >= T_max.
    for (i, r) in regions.iter().enumerate() {
        let t_min = r.time_with_placements(true, true, true);
        let t = prob.add_continuous(format!("T_{i}"), t_min, f64::INFINITY, 1.0);
        vars.t.push(t);
        let mut terms = vec![(t, 1.0)];
        if let Some(v) = vars.p_in[i] {
            terms.push((v, r.t_in));
        }
        if let Some(v) = vars.p_out[i] {
            terms.push((v, r.t_out));
        }
        if let Some(v) = vars.p_w[i] {
            terms.push((v, r.t_weight));
        }
        prob.add_constraint(format!("time_{i}"), terms, Sense::Ge, r.t_max);
    }
    // Capacity row per layer k: B_k + Σ resident activations + Σ_j W_j pW_j
    // <= C. A fused activation read by layer i from producer j is resident on
    // rows j..=i.
    for (k, rk) in regions.iter().enumerate() {
        let mut terms = Vec::new();
        for (i, r) in regions.iter().enumerate() {
            if let Some(v) = vars.p_in[i] {
                let j = r.primary_input.expect("eligible input has producer");
                if j <= k && k <= i {
                    terms.push((v, fused_input_charge(regions, i, gm_bytes) as f64));
                }
            }
        }
        for rj in regions.iter().zip(&vars.p_w) {
            if let (r, Some(v)) = rj {
                terms.push((*v, r.weight_store_bytes as f64));
            }
        }
        if terms.is_empty() {
            continue;
        }
        prob.add_constraint(
            format!("cap_{k}"),
            terms,
            Sense::Le,
            gm_bytes as f64 - rk.resident_buffer_bytes as f64,
        );
    }
    // Linkage: consumer reads from GM only if producer wrote it, and an
    // output is only stored if its consumer reads it.
    for i in 0..n {
        if let Some(pi) = vars.p_in[i] {
            let j = regions[i].primary_input.expect("eligible input has producer");
            if let Some(po) = vars.p_out[j] {
                prob.add_constraint(
                    format!("link_{j}_{i}"),
                    vec![(po, 1.0), (pi, -1.0)],
                    Sense::Ge,
                    0.0,
                );
            }
        }
        if let Some(po) = vars.p_out[i] {
            // Output useful only if some eligible consumer reads it from GM.
            let readers: Vec<(VarId, f64)> = (i + 1..n)
                .filter(|&k| regions[k].primary_input == Some(i))
                .filter_map(|k| vars.p_in[k].map(|v| (v, 1.0)))
                .collect();
            if !readers.is_empty() {
                let mut terms = readers;
                terms.push((po, -1.0));
                prob.add_constraint(format!("useful_{i}"), terms, Sense::Ge, 0.0);
            }
        }
    }
    (prob, vars)
}

/// Runs FAST fusion on a simulated workload.
///
/// Thin wrapper over [`fuse_regions`] — the keyed, cacheable entry point
/// that takes exactly the inputs the pass reads (region statistics,
/// aggregate compute floor, Global-Memory capacity).
#[must_use]
pub fn fuse_workload(
    perf: &WorkloadPerf,
    cfg: &DatapathConfig,
    opts: &FusionOptions,
) -> FusionResult {
    fuse_regions(
        &perf.regions,
        perf.compute_seconds,
        cfg.global_memory_bytes(),
        opts,
        &perf.workload,
    )
}

/// Runs FAST fusion on raw region statistics — Stage C of the staged
/// evaluation pipeline.
///
/// This is a pure function of `(regions, compute_seconds, gm_bytes, opts)`
/// (given a deterministic solver configuration; see
/// [`FusionOptions::time_limit`]), which is what makes its results
/// cacheable under a [`stats_fingerprint`]-based key: sweeping fusion
/// options, objectives or budgets re-solves the ILP at most, and never
/// re-runs the mapper. `label` names the ILP problem for logs and has no
/// effect on the solution.
#[must_use]
pub fn fuse_regions(
    regions: &[RegionPerf],
    compute_seconds: f64,
    gm_bytes: u64,
    opts: &FusionOptions,
    label: &str,
) -> FusionResult {
    fuse_regions_warm(regions, compute_seconds, gm_bytes, opts, label, None)
}

/// [`fuse_regions`] with an optional cross-point [`WarmStartTier`].
///
/// Results are **bit-identical** to the tier-less path. The tier only
/// supplies a better *incumbent seed* to the branch-and-bound; when the
/// warm-seeded solve proves the optimum lies inside the cold solver's
/// pruning band around the greedy objective, the cold answer is — by the
/// solver's own cutoff rule — the greedy vector, which we return without
/// re-running the cold solve. In every other case (no tier, tier miss,
/// unusable incumbent, optimum strictly better than greedy, budget hit) the
/// exact cold solve runs and its answer is used. The only observable
/// difference is the [`FusionSolver`] tag, which can report `ExactOptimal`
/// where the budget-starved cold solve would have said `ExactIncumbent` —
/// the placements and all derived numbers are the same.
///
/// The placements and the [`FusionTotals`] come from the one solve path
/// [`fuse_regions_totals`] runs, so the two never disagree; only the
/// per-region times, their sum and the peak Global-Memory row are computed
/// here in addition.
#[must_use]
pub fn fuse_regions_warm(
    regions: &[RegionPerf],
    compute_seconds: f64,
    gm_bytes: u64,
    opts: &FusionOptions,
    label: &str,
    tier: Option<&WarmStartTier>,
) -> FusionResult {
    let (placements, solver) = place(regions, gm_bytes, opts, label, tier);
    let FusionTotals { total_seconds, pinned_weight_bytes, dram_bytes } =
        FusionTotals::of(regions, compute_seconds, &placements);
    let region_seconds: Vec<f64> = regions
        .iter()
        .zip(&placements)
        .map(|(r, p)| r.time_with_placements(p.input_gm, p.output_gm, p.weight_gm))
        .collect();
    let mut sum_region_seconds = 0.0;
    for t in &region_seconds {
        sum_region_seconds += t;
    }
    let peak_gm_bytes =
        capacity_rows(regions, gm_bytes, &placements).into_iter().max().unwrap_or(0);
    FusionResult {
        placements,
        region_seconds,
        total_seconds,
        sum_region_seconds,
        pinned_weight_bytes,
        peak_gm_bytes,
        dram_bytes,
        solver,
    }
}

/// [`fuse_regions_warm`] reduced to what scoring reads: the same solve and
/// the same [`FusionTotals`], bit for bit, without building the
/// per-region vectors of a [`FusionResult`].
#[must_use]
pub fn fuse_regions_totals(
    regions: &[RegionPerf],
    compute_seconds: f64,
    gm_bytes: u64,
    opts: &FusionOptions,
    label: &str,
    tier: Option<&WarmStartTier>,
) -> FusionTotals {
    let (placements, _) = place(regions, gm_bytes, opts, label, tier);
    FusionTotals::of(regions, compute_seconds, &placements)
}

/// Stage C's one solve path: the placements and how they were found.
fn place(
    regions: &[RegionPerf],
    gm_bytes: u64,
    opts: &FusionOptions,
    label: &str,
    tier: Option<&WarmStartTier>,
) -> (Vec<Placement>, FusionSolver) {
    if opts.disabled || gm_bytes == 0 || regions.is_empty() {
        return (vec![Placement::default(); regions.len()], FusionSolver::Disabled);
    }
    let elig = eligibility(regions, opts.residency_window.max(1));
    let warm = greedy(regions, gm_bytes, &elig);
    let n_binaries: usize = elig
        .iter()
        .map(|e| usize::from(e.input) + usize::from(e.output) + usize::from(e.weight))
        .sum();
    if n_binaries > 0 && n_binaries <= opts.exact_binary_limit {
        solve_exact(regions, label, gm_bytes, opts, &elig, &warm, tier)
    } else {
        (warm, FusionSolver::Heuristic)
    }
}

/// Exact branch of the fusion solve: builds the Figure-8 ILP, seeds it with
/// the best available incumbent (cross-point from `tier` when strictly
/// better than greedy, greedy otherwise), and decodes the answer. See
/// [`fuse_regions_warm`] for the bit-identity argument.
fn solve_exact(
    regions: &[RegionPerf],
    label: &str,
    gm_bytes: u64,
    opts: &FusionOptions,
    elig: &[Eligibility],
    greedy_warm: &[Placement],
    tier: Option<&WarmStartTier>,
) -> (Vec<Placement>, FusionSolver) {
    let n = regions.len();
    let (prob, vars) = build_ilp(regions, label, gm_bytes, elig);

    let ws_of = |placements: &[Placement]| -> Vec<f64> {
        let mut ws = vec![0.0; prob.num_vars()];
        for (i, p) in placements.iter().enumerate() {
            if let Some(v) = vars.p_in[i] {
                ws[v.index()] = f64::from(u8::from(p.input_gm));
            }
            if let Some(v) = vars.p_out[i] {
                ws[v.index()] = f64::from(u8::from(p.output_gm));
            }
            if let Some(v) = vars.p_w[i] {
                ws[v.index()] = f64::from(u8::from(p.weight_gm));
            }
        }
        for (i, r) in regions.iter().enumerate() {
            ws[vars.t[i].index()] = r.time_with_placements(
                placements[i].input_gm,
                placements[i].output_gm,
                placements[i].weight_gm,
            );
        }
        ws
    };
    let solve_opts = |seed: Vec<f64>| SolveOptions {
        max_nodes: opts.max_nodes,
        // Fusion opts in to the wall-clock escape hatch: this mirrors the
        // paper's SCIP-with-timeout contract (§6.1). The deterministic node
        // budget above is the primary limit.
        time_limit: Some(opts.time_limit),
        gap_tol: 1e-6,
        warm_start: Some(seed),
    };
    let decode = |values: &[f64]| -> Vec<Placement> {
        let mut placements = vec![Placement::default(); n];
        for (i, p) in placements.iter_mut().enumerate() {
            if let Some(v) = vars.p_in[i] {
                p.input_gm = values[v.index()] > 0.5;
            }
            if let Some(v) = vars.p_out[i] {
                p.output_gm = values[v.index()] > 0.5;
            }
            if let Some(v) = vars.p_w[i] {
                p.weight_gm = values[v.index()] > 0.5;
            }
        }
        placements
    };

    let greedy_ws = ws_of(greedy_warm);
    let greedy_obj = prob.objective_value(&greedy_ws);
    // The solver prunes every node whose bound clears this line; a cold
    // solve seeded with the greedy incumbent therefore returns the greedy
    // vector itself whenever the true optimum is at or above it.
    let greedy_cutoff = greedy_obj - 1e-6 * greedy_obj.abs().max(1.0);

    // Cross-point incumbent: usable only when it is feasible for *this*
    // point's ILP and strictly better than the greedy seed (otherwise it
    // adds nothing the cold solve doesn't already have).
    let key = tier.map(|_| structure_key_from_elig(regions, opts, elig));
    let cross: Option<Vec<f64>> = match (tier, key) {
        (Some(t), Some(k)) => t
            .lookup(&k)
            .filter(|p| p.len() == n)
            .map(|p| ws_of(&p))
            .filter(|ws| prob.is_feasible(ws, 1e-6) && prob.objective_value(ws) < greedy_cutoff),
        _ => None,
    };

    let mut decided: Option<(Vec<Placement>, FusionSolver)> = None;
    if let (Some(t), Some(ws)) = (tier, cross) {
        let sol = solve_milp(&prob, &solve_opts(ws));
        t.note_solve(true, sol.nodes_explored as u64, sol.lp_pivots);
        // Bit-identity gate: only trust the warm solve when it *proved* the
        // optimum and the optimum is at or above the greedy cutoff — the
        // regime where the cold answer is the greedy vector by the cutoff
        // rule. Anything else (optimum beats greedy, budget hit) falls
        // through to the cold solve so the answer comes from the exact same
        // computation the tier-less path runs.
        if sol.status == MilpStatus::Optimal && sol.objective >= greedy_cutoff {
            decided = Some((greedy_warm.to_vec(), FusionSolver::ExactOptimal));
        }
    }

    let (placements, solver) = decided.unwrap_or_else(|| {
        let sol = solve_milp(&prob, &solve_opts(greedy_ws));
        if let Some(t) = tier {
            t.note_solve(false, sol.nodes_explored as u64, sol.lp_pivots);
        }
        match sol.status {
            MilpStatus::Optimal | MilpStatus::Incumbent => {
                let placements = decode(&sol.values);
                let status = if sol.status == MilpStatus::Optimal {
                    FusionSolver::ExactOptimal
                } else {
                    FusionSolver::ExactIncumbent
                };
                // Guard against solver tolerance artifacts.
                if feasible(regions, gm_bytes, &placements) {
                    (placements, status)
                } else {
                    (greedy_warm.to_vec(), FusionSolver::Heuristic)
                }
            }
            _ => (greedy_warm.to_vec(), FusionSolver::Heuristic),
        }
    });

    if let (Some(t), Some(k)) = (tier, key) {
        t.record(k, &placements);
    }
    (placements, solver)
}

/// Builds the Figure-8 ILP for a workload's region statistics, paired with
/// the greedy warm-start vector the exact path seeds it with.
///
/// This is the benchmarking/diagnostic window into the solver: it exposes
/// the *same* `(Problem, incumbent)` pair [`fuse_regions`] hands to
/// `solve_milp`, so solver comparisons (node counts, pivot counts,
/// objective bit-identity) run against the production ILPs rather than
/// synthetic ones. Returns `None` when the exact path would not run — no
/// eligible binaries, or more than `opts.exact_binary_limit` of them.
#[must_use]
pub fn figure8_problem(
    regions: &[RegionPerf],
    gm_bytes: u64,
    opts: &FusionOptions,
    label: &str,
) -> Option<(Problem, Vec<f64>)> {
    if opts.disabled || gm_bytes == 0 || regions.is_empty() {
        return None;
    }
    let elig = eligibility(regions, opts.residency_window.max(1));
    let n_binaries: usize = elig
        .iter()
        .map(|e| usize::from(e.input) + usize::from(e.output) + usize::from(e.weight))
        .sum();
    if n_binaries == 0 || n_binaries > opts.exact_binary_limit {
        return None;
    }
    let warm = greedy(regions, gm_bytes, &elig);
    let (prob, vars) = build_ilp(regions, label, gm_bytes, &elig);
    let mut ws = vec![0.0; prob.num_vars()];
    for (i, p) in warm.iter().enumerate() {
        if let Some(v) = vars.p_in[i] {
            ws[v.index()] = f64::from(u8::from(p.input_gm));
        }
        if let Some(v) = vars.p_out[i] {
            ws[v.index()] = f64::from(u8::from(p.output_gm));
        }
        if let Some(v) = vars.p_w[i] {
            ws[v.index()] = f64::from(u8::from(p.weight_gm));
        }
    }
    for (i, r) in regions.iter().enumerate() {
        ws[vars.t[i].index()] =
            r.time_with_placements(warm[i].input_gm, warm[i].output_gm, warm[i].weight_gm);
    }
    Some((prob, ws))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_arch::presets;
    use fast_models::{EfficientNet, Workload};
    use fast_sim::{simulate, SimOptions};

    fn perf_of(w: Workload, batch: u64, cfg: &DatapathConfig) -> WorkloadPerf {
        let g = w.build(batch).unwrap();
        simulate(&g, cfg, &SimOptions::default()).unwrap()
    }

    #[test]
    fn fusion_options_round_trip_through_codec() {
        use serde::bin::{Decode as _, Encode as _};
        for opts in [
            FusionOptions::default(),
            FusionOptions::heuristic_only(),
            FusionOptions::strict_adjacency(),
            FusionOptions::disabled(),
        ] {
            assert_eq!(FusionOptions::from_bytes(&opts.to_bytes()).unwrap(), opts);
        }
    }

    #[test]
    fn fusion_never_slower_than_prefusion() {
        let cfg = presets::fast_large();
        for w in [Workload::EfficientNet(EfficientNet::B0), Workload::ResNet50] {
            let perf = perf_of(w, 8, &cfg);
            let fused = fuse_workload(&perf, &cfg, &FusionOptions::default());
            assert!(
                fused.total_seconds <= perf.prefusion_seconds * (1.0 + 1e-9),
                "{w}: fused {} vs prefusion {}",
                fused.total_seconds,
                perf.prefusion_seconds
            );
            assert!(fused.total_seconds >= perf.compute_seconds * (1.0 - 1e-9));
        }
    }

    #[test]
    fn fusion_disabled_without_global_memory() {
        let mut cfg = presets::fast_large();
        cfg.global_memory_mib = 0;
        let perf = perf_of(Workload::EfficientNet(EfficientNet::B0), 8, &cfg);
        let fused = fuse_workload(&perf, &cfg, &FusionOptions::default());
        assert_eq!(fused.solver, FusionSolver::Disabled);
        assert!((fused.total_seconds - perf.prefusion_seconds).abs() < 1e-12);
        assert_eq!(fused.pinned_weight_bytes, 0);
    }

    #[test]
    fn bigger_gm_fuses_more() {
        let mut small = presets::fast_large();
        small.global_memory_mib = 8;
        let mut big = presets::fast_large();
        big.global_memory_mib = 128;
        let w = Workload::EfficientNet(EfficientNet::B4);
        let perf_small = perf_of(w, 8, &small);
        let perf_big = perf_of(w, 8, &big);
        let f_small = fuse_workload(&perf_small, &small, &FusionOptions::heuristic_only());
        let f_big = fuse_workload(&perf_big, &big, &FusionOptions::heuristic_only());
        assert!(
            f_big.dram_bytes <= f_small.dram_bytes,
            "big GM should cut DRAM traffic: {} vs {}",
            f_big.dram_bytes,
            f_small.dram_bytes
        );
        let g = w.build(8).unwrap();
        assert!(f_big.op_intensity(g.total_flops()) >= f_small.op_intensity(g.total_flops()));
    }

    #[test]
    fn placements_respect_capacity() {
        let cfg = presets::fast_large();
        let perf = perf_of(Workload::EfficientNet(EfficientNet::B7), 8, &cfg);
        let fused = fuse_workload(&perf, &cfg, &FusionOptions::default());
        assert!(feasible(&perf.regions, cfg.global_memory_bytes(), &fused.placements));
        assert!(fused.peak_gm_bytes <= cfg.global_memory_bytes());
    }

    #[test]
    fn linkage_inputs_have_producing_outputs() {
        let cfg = presets::fast_large();
        let perf = perf_of(Workload::EfficientNet(EfficientNet::B3), 8, &cfg);
        let fused = fuse_workload(&perf, &cfg, &FusionOptions::default());
        for (i, p) in fused.placements.iter().enumerate() {
            if p.input_gm {
                let j = perf.regions[i].primary_input.expect("input needs producer");
                assert!(fused.placements[j].output_gm, "region {i} reads GM without producer");
                assert!(j < i && i - j <= 8, "residency window violated: {j} -> {i}");
            }
        }
    }

    #[test]
    fn exact_matches_or_beats_heuristic_on_small_model() {
        let cfg = presets::fast_large();
        let perf = perf_of(Workload::EfficientNet(EfficientNet::B0), 1, &cfg);
        let heur = fuse_workload(&perf, &cfg, &FusionOptions::heuristic_only());
        let exact = fuse_workload(
            &perf,
            &cfg,
            &FusionOptions {
                exact_binary_limit: 10_000,
                max_nodes: 4000,
                time_limit: Duration::from_secs(30),
                ..FusionOptions::default()
            },
        );
        assert!(
            exact.total_seconds <= heur.total_seconds * (1.0 + 1e-9),
            "exact {} vs heuristic {}",
            exact.total_seconds,
            heur.total_seconds
        );
    }

    /// The historical full-scan greedy (pre-heap), kept as the reference
    /// implementation: the production heap must select the exact same move
    /// sequence.
    fn greedy_scan_reference(
        regions: &[RegionPerf],
        gm_bytes: u64,
        elig: &[Eligibility],
    ) -> Vec<Placement> {
        let n = regions.len();
        let mut placements = vec![Placement::default(); n];
        let mut pinned: u64 = 0;
        let mut row_local: Vec<u64> = regions.iter().map(|r| r.resident_buffer_bytes).collect();
        let time_of = |placements: &[Placement], i: usize| {
            regions[i].time_with_placements(
                placements[i].input_gm,
                placements[i].output_gm,
                placements[i].weight_gm,
            )
        };
        #[derive(Clone, Copy)]
        enum Move {
            PinWeight(usize),
            FuseEdge(usize),
        }
        loop {
            let mut best: Option<(f64, Move)> = None;
            let local_peak = row_local.iter().copied().max().unwrap_or(0);
            for i in 0..n {
                let r = &regions[i];
                if elig[i].weight && !placements[i].weight_gm {
                    let w = r.weight_store_bytes;
                    if pinned + w + local_peak <= gm_bytes {
                        let before = time_of(&placements, i);
                        let c = placements[i];
                        let after = r.time_with_placements(c.input_gm, c.output_gm, true);
                        let saved = before - after;
                        let density = saved / w.max(1) as f64;
                        if saved > 1e-15 && best.is_none_or(|(b, _)| density > b) {
                            best = Some((density, Move::PinWeight(i)));
                        }
                    }
                }
                if elig[i].input && !placements[i].input_gm {
                    let j = r.primary_input.expect("eligible input has producer");
                    let bytes = fused_input_charge(regions, i, gm_bytes);
                    if (j..=i).all(|k| row_local[k] + bytes + pinned <= gm_bytes) {
                        let mut before = time_of(&placements, i);
                        let mut cj = placements[j];
                        if !cj.output_gm {
                            before += time_of(&placements, j);
                        }
                        let ci = placements[i];
                        let mut after =
                            regions[i].time_with_placements(true, ci.output_gm, ci.weight_gm);
                        if !cj.output_gm {
                            cj.output_gm = true;
                            after += regions[j].time_with_placements(
                                cj.input_gm,
                                cj.output_gm,
                                cj.weight_gm,
                            );
                        }
                        let saved = before - after;
                        let density = saved / bytes.max(1) as f64;
                        if saved > 1e-15 && best.is_none_or(|(b, _)| density > b) {
                            best = Some((density, Move::FuseEdge(i)));
                        }
                    }
                }
            }
            match best {
                Some((_, Move::PinWeight(i))) => {
                    placements[i].weight_gm = true;
                    pinned += regions[i].weight_store_bytes;
                }
                Some((_, Move::FuseEdge(i))) => {
                    let j = regions[i].primary_input.expect("checked");
                    placements[i].input_gm = true;
                    placements[j].output_gm = true;
                    let bytes = fused_input_charge(regions, i, gm_bytes);
                    for row in row_local.iter_mut().take(i + 1).skip(j) {
                        *row += bytes;
                    }
                }
                None => break,
            }
        }
        placements
    }

    /// The packed-key greedy kernel must reproduce the historical full-scan
    /// greedy move for move — across the zoo's convolutional, attention and
    /// serving families, the three presets, several Global-Memory
    /// capacities (feasibility pressure) and residency windows (eligibility
    /// shape).
    #[test]
    fn heap_greedy_matches_scan_reference_exactly() {
        let mapper = fast_sim::MapperCache::new();
        for (preset, base) in [
            ("fast_large", presets::fast_large()),
            ("fast_small", presets::fast_small()),
            ("tpu_v3", presets::tpu_v3()),
        ] {
            for w in [
                Workload::EfficientNet(EfficientNet::B0),
                Workload::EfficientNet(EfficientNet::B4),
                Workload::EfficientNet(EfficientNet::B7),
                Workload::ResNet50,
                Workload::Bert { seq_len: 128 },
                Workload::LlmPrefill { seq_len: 512 },
                Workload::LlmDecode { context: 2048 },
                Workload::Dlrm,
                Workload::DiffusionUNet,
            ] {
                let g = w.build(8).unwrap();
                for gm_mib in [4u64, 16, 64, 128, 256] {
                    let cfg = DatapathConfig { global_memory_mib: gm_mib, ..base };
                    let perf = fast_sim::simulate_staged(&g, &cfg, &SimOptions::default(), &mapper)
                        .unwrap();
                    for window in [1usize, 8] {
                        let elig = eligibility(&perf.regions, window);
                        let fast = greedy(&perf.regions, cfg.global_memory_bytes(), &elig);
                        let reference =
                            greedy_scan_reference(&perf.regions, cfg.global_memory_bytes(), &elig);
                        assert_eq!(
                            fast, reference,
                            "{w} on {preset} gm={gm_mib}MiB window={window}: heap greedy \
                             diverged from scan"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn keyed_entry_point_is_bit_identical_to_fuse_workload() {
        let cfg = presets::fast_large();
        let perf = perf_of(Workload::EfficientNet(EfficientNet::B2), 8, &cfg);
        for opts in [
            FusionOptions::heuristic_only(),
            FusionOptions::strict_adjacency(),
            FusionOptions::disabled(),
        ] {
            let whole = fuse_workload(&perf, &cfg, &opts);
            let keyed = fuse_regions(
                &perf.regions,
                perf.compute_seconds,
                cfg.global_memory_bytes(),
                &opts,
                "any-label-at-all",
            );
            assert_eq!(whole.placements, keyed.placements);
            assert_eq!(whole.total_seconds.to_bits(), keyed.total_seconds.to_bits());
            assert_eq!(whole.dram_bytes, keyed.dram_bytes);
            assert_eq!(whole.pinned_weight_bytes, keyed.pinned_weight_bytes);
            assert_eq!(whole.solver, keyed.solver);
        }
    }

    #[test]
    fn fingerprint_ignores_names_and_tracks_stats() {
        let cfg = presets::fast_large();
        let perf = perf_of(Workload::EfficientNet(EfficientNet::B0), 8, &cfg);
        let base = stats_fingerprint(&perf.regions, perf.compute_seconds);
        assert_eq!(base, stats_fingerprint(&perf.regions, perf.compute_seconds));

        // Renaming a region (a node-name artifact) must not change the key.
        let mut renamed = perf.regions.clone();
        renamed[0].name = "totally/different/name".into();
        renamed[1].group = Some(99);
        assert_eq!(base, stats_fingerprint(&renamed, perf.compute_seconds));

        // Any stat the pass reads must change it.
        let mut bumped = perf.regions.clone();
        bumped[0].t_weight += 1e-9;
        assert_ne!(base, stats_fingerprint(&bumped, perf.compute_seconds));
        let mut linked = perf.regions.clone();
        linked[3].primary_input = None;
        assert_ne!(base, stats_fingerprint(&linked, perf.compute_seconds));
        assert_ne!(base, stats_fingerprint(&perf.regions, perf.compute_seconds * 2.0));

        // Every field the pass reads, changed alone, changes the key.
        let changes: [fn(&mut RegionPerf); 17] = [
            |r| r.compute_seconds *= 1.5,
            |r| r.flops += 1,
            |r| r.in_bytes += 1,
            |r| r.primary_in_bytes += 1,
            |r| r.out_bytes += 1,
            |r| r.weight_bytes += 1,
            |r| r.weight_store_bytes += 1,
            |r| r.spill_bytes += 1,
            |r| r.t_min *= 1.5,
            |r| r.t_max *= 1.5,
            |r| r.t_in += 1e-9,
            |r| r.t_fixed += 1e-9,
            |r| r.t_out += 1e-9,
            |r| r.t_weight += 1e-9,
            |r| r.resident_buffer_bytes += 1,
            |r| r.primary_input = Some(r.primary_input.map_or(0, |p| p + 1)),
            |r| r.row_streamable = !r.row_streamable,
        ];
        for (i, change) in changes.iter().enumerate() {
            for at in [0, perf.regions.len() / 2, perf.regions.len() - 1] {
                let mut changed = perf.regions.clone();
                change(&mut changed[at]);
                let fp = stats_fingerprint(&changed, perf.compute_seconds);
                assert_ne!(base, fp, "field change {i} at region {at} kept the fingerprint");
            }
        }

        // And a different workload's stats are (overwhelmingly) distinct.
        let other = perf_of(Workload::ResNet50, 8, &cfg);
        assert_ne!(base, stats_fingerprint(&other.regions, other.compute_seconds));
    }

    /// Exact fusion options sized so the B0/batch-1 problem actually enters
    /// the branch-and-bound (the default path is heuristic-only).
    fn exact_opts() -> FusionOptions {
        FusionOptions {
            exact_binary_limit: 10_000,
            max_nodes: 4000,
            time_limit: Duration::from_secs(30),
            ..FusionOptions::default()
        }
    }

    #[test]
    fn warm_tier_is_bit_identical_to_cold_solve() {
        let opts = exact_opts();
        // Neighboring search points: same workload, clocks apart. Structure
        // (and hence the tier key) is shared; every T_i magnitude differs.
        let mut cfgs = Vec::new();
        for clock in [0.94, 1.2, 1.5] {
            let mut c = presets::fast_large();
            c.clock_ghz = clock;
            cfgs.push(c);
        }
        let perfs: Vec<WorkloadPerf> =
            cfgs.iter().map(|c| perf_of(Workload::EfficientNet(EfficientNet::B0), 1, c)).collect();

        let colds: Vec<FusionResult> =
            perfs.iter().zip(&cfgs).map(|(p, c)| fuse_workload(p, c, &opts)).collect();

        let tier = WarmStartTier::new();
        for round in 0..2 {
            for ((p, c), cold) in perfs.iter().zip(&cfgs).zip(&colds) {
                let warm = fuse_regions_warm(
                    &p.regions,
                    p.compute_seconds,
                    c.global_memory_bytes(),
                    &opts,
                    &p.workload,
                    Some(&tier),
                );
                assert_eq!(warm.placements, cold.placements, "round {round}");
                assert_eq!(
                    warm.total_seconds.to_bits(),
                    cold.total_seconds.to_bits(),
                    "round {round}"
                );
                assert_eq!(warm.pinned_weight_bytes, cold.pinned_weight_bytes);
                assert_eq!(warm.dram_bytes, cold.dram_bytes);
            }
        }
        let stats = tier.stats();
        // First point of round 1 misses; everything after shares its key.
        assert_eq!(stats.warm_hits + stats.warm_misses, 6, "every solve consults the tier");
        assert!(stats.warm_hits >= 1, "neighboring points must hit: {stats:?}");
        assert_eq!(tier.len(), 1, "three clocks share one structure");
    }

    #[test]
    fn structure_key_ignores_datapath_magnitudes() {
        let opts = FusionOptions::default();
        let mut slow = presets::fast_large();
        slow.clock_ghz = 0.5;
        let fast = presets::fast_large();
        let a = perf_of(Workload::EfficientNet(EfficientNet::B0), 8, &fast);
        let b = perf_of(Workload::EfficientNet(EfficientNet::B0), 8, &slow);
        // Same structure, different magnitudes: stats fingerprints diverge,
        // structure keys collide — that collision is the warm-start reuse.
        assert_ne!(
            stats_fingerprint(&a.regions, a.compute_seconds),
            stats_fingerprint(&b.regions, b.compute_seconds)
        );
        assert_eq!(structure_key(&a.regions, &opts), structure_key(&b.regions, &opts));

        // Different workload or residency window: different structure.
        let other = perf_of(Workload::ResNet50, 8, &fast);
        assert_ne!(structure_key(&a.regions, &opts), structure_key(&other.regions, &opts));
        let narrow = FusionOptions { residency_window: 1, ..FusionOptions::default() };
        assert_ne!(structure_key(&a.regions, &opts), structure_key(&a.regions, &narrow));
    }

    #[test]
    fn warm_tier_logs_each_new_incumbent_once_while_tracking() {
        let opts = exact_opts();
        let cfg = presets::fast_large();
        let perf = perf_of(Workload::EfficientNet(EfficientNet::B0), 1, &cfg);
        let solve = |tier: &WarmStartTier| {
            let _ = fuse_regions_warm(
                &perf.regions,
                perf.compute_seconds,
                cfg.global_memory_bytes(),
                &opts,
                &perf.workload,
                Some(tier),
            );
        };
        let untracked = WarmStartTier::new();
        solve(&untracked);
        assert_eq!(untracked.len(), 1);
        assert!(untracked.take_new().is_empty(), "no log unless tracking");

        let tier = WarmStartTier::new();
        tier.track_new();
        solve(&tier);
        assert_eq!(tier.take_new(), tier.export(), "the new incumbent, once");
        solve(&tier);
        assert!(tier.take_new().is_empty(), "a warm re-solve records nothing new");
    }

    #[test]
    fn warm_tier_snapshot_round_trips_and_merges_keep_first() {
        use serde::bin::{Decode as _, Encode as _};
        let opts = exact_opts();
        let cfg = presets::fast_large();
        let perf = perf_of(Workload::EfficientNet(EfficientNet::B0), 1, &cfg);
        let tier = WarmStartTier::new();
        let _ = fuse_regions_warm(
            &perf.regions,
            perf.compute_seconds,
            cfg.global_memory_bytes(),
            &opts,
            &perf.workload,
            Some(&tier),
        );
        assert_eq!(tier.len(), 1);

        // Codec round trip of the exported entries.
        let entries = tier.export();
        let mut w = serde::bin::Writer::new();
        entries.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = serde::bin::Reader::new(&bytes);
        let back: Vec<(StructureKey, Vec<Placement>)> = Vec::decode(&mut r).unwrap();
        assert_eq!(back, entries);

        // Merge into a tier that already has the key: existing entry wins.
        let other = WarmStartTier::new();
        let key = entries[0].0;
        let sentinel = vec![Placement::default(); entries[0].1.len()];
        other.merge(vec![(key, sentinel.clone())]);
        other.merge(entries);
        assert_eq!(other.export(), vec![(key, sentinel)]);

        // Counter deltas.
        let s0 = SolverStats { warm_hits: 1, cold_nodes: 5, ..SolverStats::default() };
        let s1 = SolverStats { warm_hits: 3, cold_nodes: 9, lp_pivots: 7, ..s0 };
        let d = s1.since(&s0);
        assert_eq!(d.warm_hits, 2);
        assert_eq!(d.cold_nodes, 4);
        assert_eq!(d.lp_pivots, 7);
        assert!((s1.hit_rate() - 1.0).abs() < 1e-12);
        assert!(SolverStats::default().hit_rate().abs() < 1e-12);
    }

    #[test]
    fn b7_fusion_removes_most_memory_stall() {
        // Table 5: FAST-Large on B7 — pre-fusion 63% stall, post-fusion ~9%,
        // fusion efficiency 85%.
        let cfg = presets::fast_large();
        let perf = perf_of(Workload::EfficientNet(EfficientNet::B7), 8, &cfg);
        let fused = fuse_workload(&perf, &cfg, &FusionOptions::default());
        let pre_stall = perf.prefusion_memory_stall_fraction();
        let post_stall = (1.0 - perf.compute_seconds / fused.total_seconds).max(0.0);
        assert!(pre_stall > 0.3, "pre stall {pre_stall}");
        assert!(post_stall < pre_stall * 0.6, "post stall {post_stall} vs pre {pre_stall}");
    }
}
