//! Stage A of the staged evaluation pipeline: the shared, keyed per-op
//! mapper cache.
//!
//! Identical conv/matmul shapes recur across EfficientNet variants, batch
//! sizes, and neighboring search points, and the mapper is a pure function
//! of far fewer inputs than a whole [`DatapathConfig`] — so its results are
//! memoized under [`OpKey`], which canonicalizes exactly the fields the
//! mapper reads. Sweeping Global Memory, DRAM channels, clock, L2 or fusion
//! knobs therefore never re-runs the mapper; only changes to the systolic
//! array, the PE grid, the L1 buffers, or the padding/dataflow options do.
//!
//! Cached failures are stored as name-free [`MapFailure`]s: two ops equal
//! up to node names and graph position share one entry, and the name of the
//! op that actually trips the failure is re-attached at lookup time.

use crate::engine::SimOptions;
use crate::error::{MapFailure, SimError};
use crate::mapper::{map_op, DataflowSet, Mapping, PaddingMode};
use fast_arch::{BufferSharing, DatapathConfig};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Canonical cache identity of one mapper invocation: the loop nest plus
/// every [`DatapathConfig`]/[`SimOptions`] field the mapper actually reads.
///
/// Node names and graph position are deliberately absent — mapping is a
/// function of the *shape*, so equal nests on different nodes (or in
/// different workloads) share one entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpKey {
    /// The canonical 7-D loop nest (plus latch/reuse attributes).
    pub nest: fast_ir::LoopNest,
    /// Systolic-array rows per PE.
    pub sa_x: u64,
    /// Systolic-array columns per PE.
    pub sa_y: u64,
    /// PE grid extent in x.
    pub pes_x: u64,
    /// PE grid extent in y.
    pub pes_y: u64,
    /// L1 sharing mode.
    pub l1_config: BufferSharing,
    /// L1 input buffer per PE, KiB.
    pub l1_input_kib: u64,
    /// L1 weight buffer per PE, KiB.
    pub l1_weight_kib: u64,
    /// L1 output buffer per PE, KiB.
    pub l1_output_kib: u64,
    /// Tensor-padding pre-pass mode.
    pub padding: PaddingMode,
    /// Dataflows the schedule search may use.
    pub dataflows: DataflowSet,
}

impl OpKey {
    /// The single source of truth for Stage-A key identity. The exhaustive
    /// destructuring (no `..`) makes adding a [`DatapathConfig`] or
    /// [`SimOptions`] field a compile error here, so the key can never
    /// silently ignore one: a new field must either join the key (the
    /// mapper reads it) or join the discard list below (it provably does
    /// not).
    #[must_use]
    pub fn of(nest: &fast_ir::LoopNest, cfg: &DatapathConfig, opts: &SimOptions) -> OpKey {
        let DatapathConfig {
            pes_x,
            pes_y,
            sa_x,
            sa_y,
            l1_config,
            l1_input_kib,
            l1_weight_kib,
            l1_output_kib,
            // Everything below is invisible to the mapper: the VPU width,
            // L2 and Global Memory levels, the DRAM system, batch (already
            // folded into the nest), clock (applied by the engine when
            // converting cycles to seconds) and core count.
            vector_multiplier: _,
            l2_config: _,
            l2_input_mult: _,
            l2_weight_mult: _,
            l2_output_mult: _,
            global_memory_mib: _,
            dram_channels: _,
            memory: _,
            native_batch: _,
            clock_ghz: _,
            cores: _,
        } = *cfg;
        let SimOptions {
            padding,
            dataflows,
            // Softmax choice is a VPU matter; schedule quality scales the
            // clock in the engine, not the mapping.
            softmax: _,
            schedule_quality: _,
        } = *opts;
        OpKey {
            nest: *nest,
            sa_x,
            sa_y,
            pes_x,
            pes_y,
            l1_config,
            l1_input_kib,
            l1_weight_kib,
            l1_output_kib,
            padding,
            dataflows,
        }
    }
}

/// Hit/miss counters of one memoization tier (monotonic totals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that ran the underlying stage.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0 when untouched).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl serde::bin::Encode for CacheStats {
    fn encode(&self, w: &mut serde::bin::Writer) {
        let CacheStats { hits, misses } = *self;
        hits.encode(w);
        misses.encode(w);
    }
}

impl serde::bin::Decode for CacheStats {
    fn decode(r: &mut serde::bin::Reader<'_>) -> Result<Self, serde::bin::DecodeError> {
        Ok(CacheStats { hits: u64::decode(r)?, misses: u64::decode(r)? })
    }
}

/// rustc's FxHash: each word is folded in with one rotate, xor and
/// multiply. Fast on the tiers' small fixed-size keys, and seedless; see
/// [`Tier`] for why a fixed hash is safe there.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("an 8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        self.add(u64::from_le_bytes(tail));
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A memoization tier whose values are computed at most once per key:
/// losers of an insertion race block on the winner's `OnceLock` instead of
/// recomputing, so hit/miss totals are deterministic (first asker per key
/// is the one miss) regardless of thread scheduling. The building block of
/// every stage cache in the evaluation pipeline — the op tier here, the
/// sim and fuse tiers in `fast-core`.
///
/// A persisted tier can also log its first-computed entries
/// ([`Tier::track_new`]) so an append-only checkpoint writes each entry
/// once ([`Tier::take_new`]) instead of re-exporting the whole table.
///
/// The table hashes with `FxHasher`, a fixed multiply–rotate hash, in
/// place of the standard library's seeded SipHash: every lookup hashes its
/// key under the tier's lock, and SipHash's defence against crafted
/// collisions buys nothing here, because every key derives from the
/// bounded Table-3 search space and the in-tree graphs, never from outside
/// input (a served job's seed designs are encoded into that space before
/// anything is evaluated). No output depends on the table's iteration
/// order: exports are sorted before they are written.
pub struct Tier<K, V> {
    entries: Mutex<Entries<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

type Cell<V> = Arc<OnceLock<V>>;

/// What the tier's lock guards: the table, plus the log of first-computed
/// entries not yet taken (`None` until [`Tier::track_new`]).
struct Entries<K, V> {
    map: HashMap<K, Cell<V>, BuildHasherDefault<FxHasher>>,
    new: Option<Vec<(K, Cell<V>)>>,
}

impl<K: Eq + Hash + Clone, V> Entries<K, V> {
    /// The cell for `key` and whether this call created it (the key's one
    /// miss); a created cell joins the new-entry log when it is on.
    fn cell(&mut self, key: K) -> (Cell<V>, bool) {
        match self.map.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => (e.get().clone(), false),
            std::collections::hash_map::Entry::Vacant(e) => {
                let cell: Cell<V> = Arc::new(OnceLock::new());
                if let Some(log) = &mut self.new {
                    log.push((e.key().clone(), cell.clone()));
                }
                (e.insert(cell).clone(), true)
            }
        }
    }
}

impl<K, V> Default for Tier<K, V> {
    fn default() -> Self {
        Tier {
            entries: Mutex::new(Entries { map: HashMap::default(), new: None }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Tier<K, V> {
    /// The memoized value for `key`, running `compute` only if this is the
    /// key's first asker; concurrent askers block until the winner's value
    /// is ready and adopt it, so every reader of a key observes one single
    /// result.
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> V {
        let (cell, winner) = self.entries.lock().expect("cache tier poisoned").cell(key);
        if winner {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        cell.get_or_init(compute).clone()
    }

    /// Batched [`Tier::get_or_compute`]: resolves a whole key list in one
    /// pass, computing all of this call's first-asked keys together.
    ///
    /// `compute_batch` receives the indices (into `keys`) this call owns —
    /// each distinct uncached key exactly once, at its first occurrence —
    /// and must return one value per index, in order. `compute_one` is the
    /// rare fallback for a key whose cell another thread registered but has
    /// not finished computing (this call then resolves it alone, exactly
    /// like the sequential path).
    ///
    /// Hit/miss accounting is identical to asking the keys one at a time in
    /// order: the first occurrence of an uncached key is the one miss;
    /// duplicates and already-cached keys are hits. `repeats` more lookups,
    /// which the caller answers from this batch's values because they
    /// repeat one of its keys, count as hits too.
    pub fn get_or_compute_batch(
        &self,
        keys: Vec<K>,
        repeats: u64,
        compute_batch: impl FnOnce(&[usize]) -> Vec<V>,
        mut compute_one: impl FnMut(usize) -> V,
    ) -> Vec<V> {
        let mut cells: Vec<Arc<OnceLock<V>>> = Vec::with_capacity(keys.len());
        let mut owned: Vec<usize> = Vec::new();
        self.hits.fetch_add(repeats, Ordering::Relaxed);
        {
            let mut entries = self.entries.lock().expect("cache tier poisoned");
            for (i, key) in keys.into_iter().enumerate() {
                let (cell, winner) = entries.cell(key);
                if winner {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    owned.push(i);
                } else {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                }
                cells.push(cell);
            }
        }
        if !owned.is_empty() {
            let values = compute_batch(&owned);
            debug_assert_eq!(values.len(), owned.len(), "one value per owned index");
            for (&i, v) in owned.iter().zip(values) {
                // The cell was created by this call; nobody else sets it.
                let _ = cells[i].set(v);
            }
        }
        cells
            .iter()
            .enumerate()
            .map(|(i, cell)| cell.get_or_init(|| compute_one(i)).clone())
            .collect()
    }

    /// Hit/miss totals since this tier was created.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of memoized entries (pending ones included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache tier poisoned").map.len()
    }

    /// Whether the tier is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Initialized `(key, value)` pairs, for persistence layers (pending
    /// cells are skipped).
    #[must_use]
    pub fn export(&self) -> Vec<(K, V)> {
        self.entries
            .lock()
            .expect("cache tier poisoned")
            .map
            .iter()
            .filter_map(|(k, cell)| cell.get().map(|v| (k.clone(), v.clone())))
            .collect()
    }

    /// Merges already-computed values (e.g. from a loaded snapshot);
    /// existing entries win over merged ones. Merged entries are already
    /// persisted somewhere, so they never join the new-entry log.
    pub fn merge(&self, entries: impl IntoIterator<Item = (K, V)>) {
        let mut guard = self.entries.lock().expect("cache tier poisoned");
        for (k, v) in entries {
            guard.map.entry(k).or_insert_with(|| {
                let cell = OnceLock::new();
                let _ = cell.set(v);
                Arc::new(cell)
            });
        }
    }

    /// Turns on the new-entry log: from now on every key this tier
    /// computes first is logged until a [`Tier::take_new`] returns it.
    /// Idempotent. Off by default, so a tier nobody checkpoints keeps no
    /// log.
    pub fn track_new(&self) {
        self.entries.lock().expect("cache tier poisoned").new.get_or_insert_with(Vec::new);
    }

    /// Drains the finished entries of the new-entry log: every key first
    /// computed since the previous call (or since [`Tier::track_new`]) comes
    /// out of exactly one call, in first-asked order. A key whose value is
    /// still being computed stays logged for a later call. Empty when the
    /// log is off.
    #[must_use]
    pub fn take_new(&self) -> Vec<(K, V)> {
        let done: Vec<(K, Cell<V>)> = {
            let mut guard = self.entries.lock().expect("cache tier poisoned");
            let Some(log) = guard.new.as_mut() else { return Vec::new() };
            let (done, pending) =
                std::mem::take(log).into_iter().partition(|(_, cell)| cell.get().is_some());
            *log = pending;
            done
        };
        done.into_iter()
            .map(|(k, cell)| (k, cell.get().expect("partitioned as finished").clone()))
            .collect()
    }
}

/// The shared per-op mapper cache (Stage A): a [`Tier`] over [`OpKey`].
///
/// Thread-safe and clone-cheap behind an `Arc`: every evaluator clone and
/// every worker thread of a parallel study feeds one memoization table.
/// Failures are cached alongside successes — an unmappable nest is
/// unmappable forever on the same array/L1 geometry.
#[derive(Default)]
pub struct MapperCache {
    tier: Tier<OpKey, Result<Mapping, MapFailure>>,
}

impl MapperCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        MapperCache::default()
    }

    /// Memoized [`crate::map_matrix_op`]: answers from the cache when the
    /// exact [`OpKey`] has been mapped before — for any op name, in any
    /// workload, by any thread — and otherwise runs the mapper and records
    /// the outcome.
    ///
    /// # Errors
    /// Returns the (possibly cached) [`MapFailure`] with `op`'s name
    /// attached.
    pub fn map(
        &self,
        nest: &fast_ir::LoopNest,
        cfg: &DatapathConfig,
        opts: &SimOptions,
        op: &str,
    ) -> Result<Mapping, SimError> {
        let key = OpKey::of(nest, cfg, opts);
        self.tier
            .get_or_compute(key, || map_op(nest, cfg, opts.padding, opts.dataflows))
            .map_err(|cause| cause.for_op(op))
    }

    /// Batched [`MapperCache::map`] over a workload's distinct loop nests
    /// ([`fast_ir::SimPlan::nests`]): answers hits from the cache and prices
    /// all misses together through the batched mapper (`map_ops_batch`) —
    /// one L1 precondition check and a contiguous costing pass instead of
    /// per-op dispatch. Failures come back name-free; the caller attaches
    /// the name of the op that asks ([`MapFailure::for_op`]).
    ///
    /// `repeats` counts the workload's other matrix ops, whose nests repeat
    /// one of `nests` and which the caller prices from these results. They
    /// count as hits, so the totals equal a [`MapperCache::map`] per matrix
    /// op in node order.
    pub fn map_batch(
        &self,
        nests: &[fast_ir::LoopNest],
        repeats: u64,
        cfg: &DatapathConfig,
        opts: &SimOptions,
    ) -> Vec<Result<Mapping, MapFailure>> {
        let keys: Vec<OpKey> = nests.iter().map(|n| OpKey::of(n, cfg, opts)).collect();
        self.tier.get_or_compute_batch(
            keys,
            repeats,
            |owned| {
                let miss_nests: Vec<fast_ir::LoopNest> = owned.iter().map(|&i| nests[i]).collect();
                crate::mapper::map_ops_batch(&miss_nests, cfg, opts.padding, opts.dataflows)
            },
            |i| map_op(&nests[i], cfg, opts.padding, opts.dataflows),
        )
    }

    /// Hit/miss totals since this cache was created.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.tier.stats()
    }

    /// Number of memoized mapper results.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tier.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tier.is_empty()
    }

    /// A snapshot of every entry, for persistence layers.
    #[must_use]
    pub fn export(&self) -> Vec<(OpKey, Result<Mapping, MapFailure>)> {
        self.tier.export()
    }

    /// Merges entries (e.g. from a loaded snapshot) into the cache.
    /// Existing in-memory entries win over merged ones.
    pub fn merge(&self, entries: impl IntoIterator<Item = (OpKey, Result<Mapping, MapFailure>)>) {
        self.tier.merge(entries);
    }

    /// Turns on the new-entry log ([`Tier::track_new`]).
    pub fn track_new(&self) {
        self.tier.track_new();
    }

    /// Mapper results first computed since the last call ([`Tier::take_new`]).
    #[must_use]
    pub fn take_new(&self) -> Vec<(OpKey, Result<Mapping, MapFailure>)> {
        self.tier.take_new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_arch::presets;
    use fast_ir::LoopNest;
    use proptest::prelude::*;

    fn nest(b: u64, hw: u64, if_: u64, of: u64) -> LoopNest {
        LoopNest {
            b,
            oh: hw,
            ow: hw,
            if_,
            of,
            kh: 1,
            kw: 1,
            weight_latches: 1,
            stationary_is_activation: false,
            input_reuse: 1,
        }
    }

    #[test]
    fn traffic_hit_rate() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let t = CacheStats { hits: 3, misses: 1 };
        assert!((t.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn cache_hits_on_repeat_across_op_names() {
        let cache = MapperCache::new();
        let cfg = presets::fast_large();
        let opts = SimOptions::default();
        let n = nest(8, 28, 256, 256);
        let a = cache.map(&n, &cfg, &opts, "conv_a").unwrap();
        let b = cache.map(&n, &cfg, &opts, "conv_b").unwrap();
        assert_eq!(a, b);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cached_failures_carry_the_asking_ops_name() {
        let cache = MapperCache::new();
        let mut cfg = presets::tpu_v3();
        cfg.l1_input_kib = 1;
        cfg.l1_weight_kib = 1;
        cfg.l1_output_kib = 1;
        let opts = SimOptions::default();
        let n = nest(1, 28, 256, 256);
        let first = cache.map(&n, &cfg, &opts, "conv_1").unwrap_err();
        let second = cache.map(&n, &cfg, &opts, "conv_2").unwrap_err();
        assert_eq!(first.op, "conv_1");
        assert_eq!(second.op, "conv_2");
        assert_eq!(first.cause, second.cause, "the cause is shared; the name is not");
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn cached_mapping_is_identical_to_uncached() {
        let cache = MapperCache::new();
        let cfg = presets::fast_large();
        let opts = SimOptions::default();
        let n = nest(4, 14, 512, 128);
        let cached = cache.map(&n, &cfg, &opts, "op").unwrap();
        let direct = crate::map_matrix_op(&n, &cfg, opts.padding, opts.dataflows, "op").unwrap();
        assert_eq!(cached, direct);
    }

    #[test]
    fn batch_counts_hits_and_misses_like_sequential() {
        let cfg = presets::fast_large();
        let opts = SimOptions::default();
        let a = nest(8, 28, 256, 256);
        let b = nest(8, 14, 512, 512);
        let c = nest(4, 14, 512, 128);

        // Pre-warm `b`, then ask for the ops [a, b, a, c]: sequentially
        // that is miss, hit, hit (duplicate), miss. Batched, the duplicate is
        // either in the list or a repeat the caller answers itself.
        let cache = MapperCache::new();
        let _ = cache.map(&b, &cfg, &opts, "warm").unwrap();
        let batch = cache.map_batch(&[a, b, a, c], 0, &cfg, &opts);
        assert_eq!(cache.stats(), CacheStats { hits: 2, misses: 3 });
        assert_eq!(cache.len(), 3);
        let distinct = MapperCache::new();
        let _ = distinct.map(&b, &cfg, &opts, "warm").unwrap();
        let by_nest = distinct.map_batch(&[a, b, c], 1, &cfg, &opts);
        assert_eq!(distinct.stats(), CacheStats { hits: 2, misses: 3 });
        assert_eq!([&batch[0], &batch[1], &batch[3]], [&by_nest[0], &by_nest[1], &by_nest[2]]);

        // Values equal the sequential path's, entry for entry.
        let seq = MapperCache::new();
        let _ = seq.map(&b, &cfg, &opts, "warm").unwrap();
        for (n, got) in [a, b, a, c].iter().zip(&batch) {
            let want = seq.map(n, &cfg, &opts, "x").unwrap();
            assert_eq!(got.as_ref().unwrap(), &want);
        }
        assert_eq!(seq.stats(), CacheStats { hits: 2, misses: 3 });
    }

    #[test]
    fn batch_failures_carry_each_asking_ops_name() {
        // One unmappable shape asked by two differently named ops: the
        // batch's failure is name-free and cached, and each simulation names
        // the op that asked.
        let cache = MapperCache::new();
        let mut cfg = presets::tpu_v3();
        cfg.l1_input_kib = 1;
        cfg.l1_weight_kib = 1;
        cfg.l1_output_kib = 1;
        let opts = SimOptions::default();
        let graph = |op: &str| {
            let mut g = fast_ir::Graph::new(op, fast_ir::DType::Bf16);
            let x = g.input("x", [1, 256]);
            let m = g.matmul(op, x, fast_ir::MatMulGeom { k: 256, n: 256 }).unwrap();
            g.mark_output(m);
            g
        };
        let first = crate::simulate_staged(&graph("conv_1"), &cfg, &opts, &cache).unwrap_err();
        let second = crate::simulate_staged(&graph("conv_2"), &cfg, &opts, &cache).unwrap_err();
        assert_eq!(first.op, "conv_1");
        assert_eq!(second.op, "conv_2");
        assert_eq!(first.cause, second.cause);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn export_merge_round_trips() {
        let cache = MapperCache::new();
        let cfg = presets::fast_large();
        let opts = SimOptions::default();
        let _ = cache.map(&nest(8, 28, 256, 256), &cfg, &opts, "a").unwrap();
        let _ = cache.map(&nest(8, 14, 512, 512), &cfg, &opts, "b").unwrap();
        let other = MapperCache::new();
        other.merge(cache.export());
        assert_eq!(other.len(), 2);
        // Re-asking through the merged cache is a hit, and identical.
        let m = other.map(&nest(8, 28, 256, 256), &cfg, &opts, "a").unwrap();
        assert_eq!(m, cache.map(&nest(8, 28, 256, 256), &cfg, &opts, "a").unwrap());
        assert_eq!(other.stats().misses, 0);
    }

    #[test]
    fn take_new_drains_every_first_computed_key_exactly_once_under_concurrency() {
        let tier: Tier<u64, u64> = Tier::default();
        tier.track_new();
        let tier = &tier;
        let asking = std::sync::atomic::AtomicBool::new(true);
        let drained = std::thread::scope(|s| {
            let asking = &asking;
            let drainer = s.spawn(move || {
                let mut got = Vec::new();
                while asking.load(Ordering::Acquire) {
                    got.extend(tier.take_new());
                    std::thread::yield_now();
                }
                got
            });
            // Four askers over overlapping key ranges, half through the
            // batched path.
            let askers: Vec<_> = (0..4u64)
                .map(|t| {
                    s.spawn(move || {
                        let keys: Vec<u64> = (t * 50..t * 50 + 100).collect();
                        if t % 2 == 0 {
                            for &k in &keys {
                                assert_eq!(tier.get_or_compute(k, || k * k), k * k);
                            }
                        } else {
                            let got = tier.get_or_compute_batch(
                                keys.clone(),
                                0,
                                |owned| owned.iter().map(|&i| keys[i] * keys[i]).collect(),
                                |i| keys[i] * keys[i],
                            );
                            assert!(got.iter().zip(&keys).all(|(v, k)| *v == k * k));
                        }
                    })
                })
                .collect();
            for asker in askers {
                asker.join().unwrap();
            }
            asking.store(false, Ordering::Release);
            let mut got = drainer.join().unwrap();
            got.extend(tier.take_new());
            got
        });
        let mut keys: Vec<u64> = drained.iter().map(|&(k, _)| k).collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..250).collect::<Vec<_>>(), "each key drained exactly once");
        assert!(drained.iter().all(|&(k, v)| v == k * k));
        assert_eq!(tier.stats().misses, 250);
    }

    #[test]
    fn take_new_keeps_a_pending_key_for_a_later_drain() {
        let tier: Tier<u64, u64> = Tier::default();
        tier.track_new();
        let tier = &tier;
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            let slow = s.spawn(move || {
                tier.get_or_compute(7, || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    49
                })
            });
            started_rx.recv().unwrap();
            assert_eq!(tier.get_or_compute(1, || 1), 1);
            assert_eq!(tier.take_new(), vec![(1, 1)], "key 7 is still being computed");
            release_tx.send(()).unwrap();
            assert_eq!(slow.join().unwrap(), 49);
        });
        assert_eq!(tier.take_new(), vec![(7, 49)], "the pending key comes out once finished");
        assert!(tier.take_new().is_empty());
    }

    #[test]
    fn a_tier_whose_log_was_never_turned_on_records_nothing() {
        let tier: Tier<u64, u64> = Tier::default();
        let _ = tier.get_or_compute(1, || 1);
        let _ = tier.get_or_compute_batch(
            vec![2, 3],
            0,
            |owned| owned.iter().map(|&i| i as u64).collect(),
            |i| i as u64,
        );
        assert!(tier.take_new().is_empty());
        tier.track_new();
        assert!(tier.take_new().is_empty(), "turning the log on does not backfill it");
        tier.merge([(9, 81)]);
        assert!(tier.take_new().is_empty(), "merged entries are persisted already");
        assert_eq!(tier.get_or_compute(4, || 16), 16);
        assert_eq!(tier.take_new(), vec![(4, 16)]);
    }

    /// Strategy over arbitrary-ish loop nests (power-of-two-free on purpose:
    /// key identity must not depend on mappability).
    struct AnyNest;

    impl Strategy for AnyNest {
        type Value = LoopNest;
        fn sample(&self, rng: &mut rand::rngs::StdRng) -> LoopNest {
            let ((b, oh, ow, if_), (of, kh, kw, latches), (act, reuse)) = (
                (1u64..64, 1u64..32, 1u64..32, 1u64..512),
                (1u64..512, 1u64..4, 1u64..4, 1u64..8),
                (0u64..2, 1u64..10),
            )
                .sample(rng);
            LoopNest {
                b,
                oh,
                ow,
                if_,
                of,
                kh,
                kw,
                weight_latches: latches,
                stationary_is_activation: act != 0,
                input_reuse: reuse,
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Two ops equal up to node names and graph position produce the
        /// same `OpKey` — the key is a function of the nest and the mapper
        /// inputs only, so the cache holds exactly one entry for them.
        #[test]
        fn op_key_ignores_names_and_graph_position(n in AnyNest) {
            let cfg = presets::fast_large();
            let opts = SimOptions::default();
            prop_assert_eq!(OpKey::of(&n, &cfg, &opts), OpKey::of(&n, &cfg, &opts));
            let cache = MapperCache::new();
            let a = cache.map(&n, &cfg, &opts, "block_1/conv");
            let b = cache.map(&n, &cfg, &opts, "block_7/conv");
            match (a, b) {
                (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
                (Err(x), Err(y)) => prop_assert_eq!(x.cause, y.cause),
                (a, b) => prop_assert!(false, "cache disagreed with itself: {a:?} vs {b:?}"),
            }
            prop_assert_eq!(cache.len(), 1, "one shape, one entry");
        }

        /// Every mapper-relevant `DatapathConfig`/`SimOptions` field change
        /// produces a different `OpKey`; every mapper-irrelevant change
        /// produces the same one. (The exhaustive destructure in
        /// `OpKey::of` makes *new* fields a compile error; this pins the
        /// classification of the existing ones.)
        #[test]
        fn op_key_tracks_exactly_the_mapper_relevant_fields(n in AnyNest, bump in 1u64..4) {
            let cfg = presets::fast_large();
            let opts = SimOptions::default();
            let base = OpKey::of(&n, &cfg, &opts);

            // Relevant config fields: any change must change the key.
            let relevant: [fn(&mut fast_arch::DatapathConfig, u64); 8] = [
                |c, b| c.sa_x += b,
                |c, b| c.sa_y += b,
                |c, b| c.pes_x += b,
                |c, b| c.pes_y += b,
                |c, _| {
                    c.l1_config = match c.l1_config {
                        BufferSharing::Shared => BufferSharing::Private,
                        BufferSharing::Private => BufferSharing::Shared,
                    }
                },
                |c, b| c.l1_input_kib += b,
                |c, b| c.l1_weight_kib += b,
                |c, b| c.l1_output_kib += b,
            ];
            for (i, change) in relevant.iter().enumerate() {
                let mut c = cfg;
                change(&mut c, bump);
                prop_assert!(OpKey::of(&n, &c, &opts) != base, "relevant field {} ignored", i);
            }
            for (i, opt_change) in [
                |o: &mut SimOptions| o.padding = PaddingMode::Exact,
                |o: &mut SimOptions| o.dataflows = DataflowSet::WeightStationaryOnly,
            ]
            .iter()
            .enumerate()
            {
                let mut o = opts;
                opt_change(&mut o);
                prop_assert!(OpKey::of(&n, &cfg, &o) != base, "relevant option {} ignored", i);
            }

            // Irrelevant config fields: the mapper provably never reads
            // them, so changing them must *keep* the key (that is the whole
            // Stage-A reuse story: GM/clock/DRAM sweeps re-map nothing).
            let irrelevant: [fn(&mut fast_arch::DatapathConfig, u64); 11] = [
                |c, b| c.vector_multiplier += b,
                |c, _| c.l2_config = fast_arch::L2Config::Private,
                |c, b| c.l2_input_mult += b,
                |c, b| c.l2_weight_mult += b,
                |c, b| c.l2_output_mult += b,
                |c, b| c.global_memory_mib += b,
                |c, b| c.dram_channels += b,
                |c, _| c.memory = fast_arch::MemoryTech::Hbm2,
                |c, b| c.native_batch += b,
                |c, b| c.clock_ghz += b as f64 * 0.1,
                |c, b| c.cores += b,
            ];
            for (i, change) in irrelevant.iter().enumerate() {
                let mut c = cfg;
                change(&mut c, bump);
                prop_assert_eq!(OpKey::of(&n, &c, &opts), base, "irrelevant field {} leaked", i);
            }
            for opt_change in [
                |o: &mut SimOptions| o.softmax = crate::SoftmaxMode::TwoPass,
                |o: &mut SimOptions| o.schedule_quality = crate::engine::ScheduleQuality::XlaDefault,
            ] {
                let mut o = opts;
                opt_change(&mut o);
                prop_assert_eq!(OpKey::of(&n, &cfg, &o), base, "irrelevant option leaked");
            }

            // And a nest change always changes the key.
            let mut n2 = n;
            n2.of += 1;
            prop_assert!(OpKey::of(&n2, &cfg, &opts) != base);
        }
    }
}
