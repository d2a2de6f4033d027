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
//!
//! The table has two levels: the array geometry (every [`OpKey`] field but
//! the nest), then the nest. A simulation prices one graph on one
//! geometry, so it takes the outer lock once and resolves all its nests
//! under that geometry's own lock, with the values stored inline.

use crate::engine::SimOptions;
use crate::error::{MapFailure, SimError};
use crate::mapper::{map_ops_batch, DataflowSet, Mapping, PaddingMode};
use fast_arch::{BufferSharing, DatapathConfig};
use fast_ir::LoopNest;
use std::collections::hash_map::Entry;
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

    /// The key's array geometry and its nest; [`Geometry::key`] joins them
    /// back. Both build their struct in full, so a new key field does not
    /// compile until the geometry carries it.
    fn split(self) -> (Geometry, LoopNest) {
        let geometry = Geometry {
            sa_x: self.sa_x,
            sa_y: self.sa_y,
            pes_x: self.pes_x,
            pes_y: self.pes_y,
            l1_config: self.l1_config,
            l1_input_kib: self.l1_input_kib,
            l1_weight_kib: self.l1_weight_kib,
            l1_output_kib: self.l1_output_kib,
            padding: self.padding,
            dataflows: self.dataflows,
        };
        (geometry, self.nest)
    }
}

/// Every [`OpKey`] field but the nest: the array a nest is mapped on, and
/// the op tier's outer key. Only ever split off an `OpKey`, so
/// [`OpKey::of`] stays the one place that classifies the config's fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Geometry {
    sa_x: u64,
    sa_y: u64,
    pes_x: u64,
    pes_y: u64,
    l1_config: BufferSharing,
    l1_input_kib: u64,
    l1_weight_kib: u64,
    l1_output_kib: u64,
    padding: PaddingMode,
    dataflows: DataflowSet,
}

impl Geometry {
    /// The [`OpKey`] of `nest` on this geometry.
    fn key(self, nest: LoopNest) -> OpKey {
        OpKey {
            nest,
            sa_x: self.sa_x,
            sa_y: self.sa_y,
            pes_x: self.pes_x,
            pes_y: self.pes_y,
            l1_config: self.l1_config,
            l1_input_kib: self.l1_input_kib,
            l1_weight_kib: self.l1_weight_kib,
            l1_output_kib: self.l1_output_kib,
            padding: self.padding,
            dataflows: self.dataflows,
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
/// [`Tier`] for why a fixed hash is safe there and in [`MapperCache`].
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

/// A hash map on [`FxHasher`].
type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A memoization tier whose values are computed at most once per key:
/// losers of an insertion race block on the winner's `OnceLock` instead of
/// recomputing, so hit/miss totals are deterministic (first asker per key
/// is the one miss) regardless of thread scheduling. The building block of
/// the sim and fuse tiers in `fast-core`; the op tier is a
/// [`MapperCache`].
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
    map: FxMap<K, Cell<V>>,
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

/// A mapper result as the op tier stores it: name-free.
type Mapped = Result<Mapping, MapFailure>;

/// One array geometry's mapper results, by nest, stored inline.
type GeometryTable = Mutex<FxMap<LoopNest, Mapped>>;

/// The shared per-op mapper cache (Stage A): mapper results by array
/// geometry, then by nest.
///
/// Thread-safe and clone-cheap behind an `Arc`: every evaluator clone and
/// every worker thread of a parallel study feeds one memoization table.
/// Failures are cached alongside successes — an unmappable nest is
/// unmappable forever on the same array/L1 geometry.
///
/// A lookup holds the outer lock only to find its geometry's table, then
/// prices its misses under that table's lock. So lookups on different
/// geometries run at the same time, and a concurrent asker of a key that
/// is being priced waits and adopts the value: each key is computed once,
/// and hit/miss totals do not depend on thread scheduling. Lock order is
/// outer table, geometry table, new-entry log, and the outer lock is
/// released before a geometry lock is taken. Tables hash with
/// `FxHasher`, for the reasons given on [`Tier`]. An empty cache allocates
/// nothing.
#[derive(Default)]
pub struct MapperCache {
    geometries: Mutex<FxMap<Geometry, Arc<GeometryTable>>>,
    /// Entries inserted since the last [`MapperCache::take_new`]; `None`
    /// until [`MapperCache::track_new`].
    new: Mutex<Option<Vec<(OpKey, Mapped)>>>,
    hits: AtomicU64,
    misses: AtomicU64,
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
    /// the outcome. A one-nest [`MapperCache::map_batch`].
    ///
    /// # Errors
    /// Returns the (possibly cached) [`MapFailure`] with `op`'s name
    /// attached.
    pub fn map(
        &self,
        nest: &LoopNest,
        cfg: &DatapathConfig,
        opts: &SimOptions,
        op: &str,
    ) -> Result<Mapping, SimError> {
        let mut mapped = self.map_batch(std::slice::from_ref(nest), 0, cfg, opts);
        mapped.pop().expect("one result per nest").map_err(|cause| cause.for_op(op))
    }

    /// Batched [`MapperCache::map`] over a workload's distinct loop nests
    /// ([`fast_ir::SimPlan::nests`]): answers hits from the cache and prices
    /// all misses together through the batched mapper (`map_ops_batch`) —
    /// one L1 precondition check and a contiguous costing pass instead of
    /// per-op dispatch — under the geometry's lock. Failures come back
    /// name-free; the caller attaches the name of the op that asks
    /// ([`MapFailure::for_op`]).
    ///
    /// Hit/miss accounting equals asking the nests one at a time in order:
    /// the first occurrence of an uncached nest is the one miss; duplicates
    /// and cached nests are hits. `repeats` counts the workload's other
    /// matrix ops, whose nests repeat one of `nests` and which the caller
    /// prices from these results. They count as hits, so the totals equal a
    /// [`MapperCache::map`] per matrix op in node order.
    pub fn map_batch(
        &self,
        nests: &[LoopNest],
        repeats: u64,
        cfg: &DatapathConfig,
        opts: &SimOptions,
    ) -> Vec<Mapped> {
        self.hits.fetch_add(repeats, Ordering::Relaxed);
        let Some(first) = nests.first() else { return Vec::new() };
        let (geometry, _) = OpKey::of(first, cfg, opts).split();
        let table = self.table(geometry);
        let mut table = table.lock().expect("op tier poisoned");
        let mut mapped: Vec<Option<Mapped>> = nests.iter().map(|n| table.get(n).cloned()).collect();
        let missed: Vec<usize> = (0..nests.len()).filter(|&i| mapped[i].is_none()).collect();
        let mut misses = 0;
        if !missed.is_empty() {
            let miss_nests: Vec<LoopNest> = missed.iter().map(|&i| nests[i]).collect();
            let values = map_ops_batch(&miss_nests, cfg, opts.padding, opts.dataflows);
            table.reserve(missed.len());
            let mut log = self.new.lock().expect("op tier poisoned");
            for (&i, value) in missed.iter().zip(values) {
                // A nest listed twice is priced twice but stored once: its
                // first occurrence is the miss.
                if let Entry::Vacant(slot) = table.entry(nests[i]) {
                    misses += 1;
                    if let Some(log) = log.as_mut() {
                        log.push((geometry.key(nests[i]), value.clone()));
                    }
                    slot.insert(value.clone());
                }
                mapped[i] = Some(value);
            }
        }
        self.misses.fetch_add(misses, Ordering::Relaxed);
        self.hits.fetch_add(nests.len() as u64 - misses, Ordering::Relaxed);
        mapped.into_iter().map(|m| m.expect("every nest is resolved")).collect()
    }

    /// The table of `geometry`, created empty on first use.
    fn table(&self, geometry: Geometry) -> Arc<GeometryTable> {
        Arc::clone(self.geometries.lock().expect("op tier poisoned").entry(geometry).or_default())
    }

    /// Every geometry's table, taken out of the outer lock.
    fn tables(&self) -> Vec<(Geometry, Arc<GeometryTable>)> {
        let geometries = self.geometries.lock().expect("op tier poisoned");
        geometries.iter().map(|(g, t)| (*g, Arc::clone(t))).collect()
    }

    /// Hit/miss totals since this cache was created.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of memoized mapper results.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tables().iter().map(|(_, t)| t.lock().expect("op tier poisoned").len()).sum()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of every entry, for persistence layers, in no particular
    /// order.
    #[must_use]
    pub fn export(&self) -> Vec<(OpKey, Mapped)> {
        let mut entries = Vec::new();
        for (geometry, table) in self.tables() {
            let table = table.lock().expect("op tier poisoned");
            entries.extend(table.iter().map(|(nest, m)| (geometry.key(*nest), m.clone())));
        }
        entries
    }

    /// Merges entries (e.g. from a loaded snapshot) into the cache.
    /// Existing in-memory entries win over merged ones. Merged entries are
    /// already persisted somewhere, so they never join the new-entry log.
    pub fn merge(&self, entries: impl IntoIterator<Item = (OpKey, Mapped)>) {
        let mut by_geometry: FxMap<Geometry, Vec<(LoopNest, Mapped)>> = FxMap::default();
        for (key, m) in entries {
            let (geometry, nest) = key.split();
            by_geometry.entry(geometry).or_default().push((nest, m));
        }
        for (geometry, entries) in by_geometry {
            let table = self.table(geometry);
            let mut table = table.lock().expect("op tier poisoned");
            for (nest, m) in entries {
                table.entry(nest).or_insert(m);
            }
        }
    }

    /// Turns on the new-entry log: from now on every entry this cache
    /// computes is logged until a [`MapperCache::take_new`] returns it.
    /// Idempotent. Off by default, so a cache nobody checkpoints keeps no
    /// log.
    pub fn track_new(&self) {
        self.new.lock().expect("op tier poisoned").get_or_insert_with(Vec::new);
    }

    /// Drains the new-entry log: every mapper result computed since the
    /// previous call (or since [`MapperCache::track_new`]) comes out of
    /// exactly one call. Empty when the log is off.
    #[must_use]
    pub fn take_new(&self) -> Vec<(OpKey, Mapped)> {
        self.new.lock().expect("op tier poisoned").as_mut().map(std::mem::take).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_arch::presets;
    use fast_ir::LoopNest;
    use proptest::prelude::*;
    use serde::bin::Encode;

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
            // Four askers over overlapping key ranges.
            let askers: Vec<_> = (0..4u64)
                .map(|t| {
                    s.spawn(move || {
                        for k in t * 50..t * 50 + 100 {
                            assert_eq!(tier.get_or_compute(k, || k * k), k * k);
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
        assert!(tier.take_new().is_empty());
        tier.track_new();
        assert!(tier.take_new().is_empty(), "turning the log on does not backfill it");
        tier.merge([(9, 81)]);
        assert!(tier.take_new().is_empty(), "merged entries are persisted already");
        assert_eq!(tier.get_or_compute(4, || 16), 16);
        assert_eq!(tier.take_new(), vec![(4, 16)]);
    }

    #[test]
    fn an_op_tier_whose_log_was_never_turned_on_records_nothing() {
        let cfg = presets::fast_large();
        let opts = SimOptions::default();
        let (a, b, c) = (nest(8, 28, 256, 256), nest(8, 14, 512, 512), nest(4, 14, 512, 128));
        let cache = MapperCache::new();
        let _ = cache.map_batch(&[a, b], 0, &cfg, &opts);
        assert!(cache.take_new().is_empty());
        cache.track_new();
        assert!(cache.take_new().is_empty(), "turning the log on does not backfill it");
        let mut roomy = cfg;
        roomy.l1_weight_kib *= 2;
        cache.merge([(
            OpKey::of(&a, &roomy, &opts),
            Err(MapFailure::OutputTileDoesNotFit { required: 1, available: 0 }),
        )]);
        assert!(cache.take_new().is_empty(), "merged entries are persisted already");
        let got = cache.map_batch(&[a, c, b], 0, &cfg, &opts);
        assert_eq!(cache.take_new(), vec![(OpKey::of(&c, &cfg, &opts), got[1].clone())]);
        assert!(cache.take_new().is_empty());
    }

    /// Two geometries: FAST-Large with padding, and TPU-v3 without, where
    /// nests that do not factorize onto the array fail.
    fn two_geometries() -> [(DatapathConfig, SimOptions); 2] {
        let exact = SimOptions { padding: PaddingMode::Exact, ..SimOptions::default() };
        [(presets::fast_large(), SimOptions::default()), (presets::tpu_v3(), exact)]
    }

    /// 25 distinct nests; on TPU-v3 without padding some of them fail.
    fn nest_pool() -> Vec<LoopNest> {
        (0..25u64)
            .map(|i| nest(1 + i % 4, 7 + i, 128 * (1 + i % 3) + 32 * (i % 2), 96 + 8 * i))
            .collect()
    }

    #[test]
    fn concurrent_batches_compute_each_geometry_and_nest_once() {
        let geometries = two_geometries();
        let pool = nest_pool();
        let cache = MapperCache::new();
        cache.track_new();
        let (cache, geometries, pool) = (&cache, &geometries, &pool);
        let start = std::sync::Barrier::new(4);
        let asking = std::sync::atomic::AtomicBool::new(true);
        let (lookups, drained) = std::thread::scope(|s| {
            let (start, asking) = (&start, &asking);
            let drainer = s.spawn(move || {
                let mut got = Vec::new();
                while asking.load(Ordering::Acquire) {
                    got.extend(cache.take_new());
                    std::thread::yield_now();
                }
                got
            });
            // Four askers over overlapping windows of the pool, each under
            // both geometries in its own order, listing one nest twice and
            // answering `t` more repeats.
            let askers: Vec<_> = (0..4usize)
                .map(|t| {
                    s.spawn(move || {
                        let mut window = pool[t * 5..t * 5 + 10].to_vec();
                        window.push(window[t]);
                        start.wait();
                        for g in [t % 2, 1 - t % 2] {
                            let (cfg, opts) = &geometries[g];
                            let got = cache.map_batch(&window, t as u64, cfg, opts);
                            for (n, m) in window.iter().zip(got) {
                                let want =
                                    crate::map_matrix_op(n, cfg, opts.padding, opts.dataflows, "x");
                                assert_eq!(m.map_err(|cause| cause.for_op("x")), want);
                            }
                        }
                        2 * (window.len() as u64 + t as u64)
                    })
                })
                .collect();
            let lookups: u64 = askers.into_iter().map(|a| a.join().unwrap()).sum();
            asking.store(false, Ordering::Release);
            let mut drained = drainer.join().unwrap();
            drained.extend(cache.take_new());
            (lookups, drained)
        });

        // The windows cover pool[0..25]: 25 nests under each geometry.
        let distinct = 2 * pool.len() as u64;
        let stats = cache.stats();
        assert_eq!(stats.misses, distinct, "one miss per (geometry, nest)");
        assert_eq!(stats.hits, lookups - distinct);
        assert_eq!(cache.len() as u64, distinct);
        let mut keys: Vec<Vec<u8>> = drained.iter().map(|(k, _)| k.to_bytes()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), drained.len(), "each key drained exactly once");
        assert_eq!(keys.len() as u64, distinct);
        for (key, m) in &drained {
            let (cfg, opts) =
                geometries.iter().find(|(c, o)| OpKey::of(&key.nest, c, o) == *key).unwrap();
            assert_eq!(m, &map_ops_batch(&[key.nest], cfg, opts.padding, opts.dataflows)[0]);
        }
        assert!(drained.iter().any(|(_, m)| m.is_err()), "failures are cached too");
    }

    #[test]
    fn export_then_merge_round_trips_across_geometries() {
        let pool = nest_pool();
        let mut small_l1 = presets::fast_small();
        small_l1.l1_input_kib = 1;
        let mut configs: Vec<(DatapathConfig, SimOptions)> = two_geometries().to_vec();
        configs.push((presets::fast_small(), SimOptions::default()));
        configs.push((small_l1, SimOptions::default()));
        let cache = MapperCache::new();
        for (i, (cfg, opts)) in configs.iter().enumerate() {
            let _ = cache.map_batch(&pool[i..i + 12], 0, cfg, opts);
        }
        let exported = cache.export();
        assert_eq!(exported.len(), 4 * 12);

        let merged = MapperCache::new();
        merged.track_new();
        merged.merge(exported.clone());
        assert_eq!(merged.len(), cache.len());
        assert!(merged.take_new().is_empty(), "merged entries never join the log");
        let sorted = |mut entries: Vec<(OpKey, Mapped)>| {
            entries.sort_by_key(|(k, _)| k.to_bytes());
            entries
        };
        assert_eq!(sorted(merged.export()), sorted(exported));
        // Every merged entry answers as a hit, with the original value.
        for (i, (cfg, opts)) in configs.iter().enumerate() {
            assert_eq!(
                merged.map_batch(&pool[i..i + 12], 0, cfg, opts),
                cache.map_batch(&pool[i..i + 12], 0, cfg, opts)
            );
        }
        assert_eq!(merged.stats(), CacheStats { hits: 4 * 12, misses: 0 });
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
