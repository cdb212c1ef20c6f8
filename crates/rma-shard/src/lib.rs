//! # rma-shard — a sharded concurrent front-end for the Rewired Memory Array
//!
//! The single-threaded [`Rma`](rma_core::Rma) of De Leo & Boncz (ICDE
//! 2019) is `&mut self` end to end: nothing can serve two clients at
//! once. This crate wraps it in the canonical first concurrency layer
//! for PMA-family structures — **key-range sharding** — which works
//! because rebalances are window-local and therefore shard-local by
//! construction:
//!
//! * a [`ShardedRma`] partitions the key space across N shards with
//!   [`Splitters`] (learned from a bulk-load batch, given
//!   explicitly, or spread uniformly);
//! * point operations route through a **branch-free** splitter search
//!   and touch exactly one shard; a rebalance or resize inside one
//!   shard never blocks its siblings;
//! * [`scan`](ShardedRma::scan) / [`sum_range`](ShardedRma::sum_range)
//!   stitch results across shard boundaries;
//! * [`apply_batch`](ShardedRma::apply_batch) partitions a sorted
//!   batch by shard and applies the sub-batches on parallel threads
//!   through the paper's bottom-up bulk-load machinery;
//! * every shard carries an [`AccessStats`] histogram — lock-free
//!   `AtomicU64` bucket counters bumped on every operation and
//!   periodically halved so stale hotspots fade;
//! * maintenance is an **incremental plan engine**
//!   ([`maintenance`] module):
//!   [`rebalance_shards`](ShardedRma::rebalance_shards) and
//!   [`relearn_splitters`](ShardedRma::relearn_splitters) *plan*
//!   bounded [`MaintenanceStep`]s — splits, merges, boundary
//!   *nudges* for drifting hotspots, and capped range rebuilds —
//!   and an executor applies one step at a time, each publishing its
//!   own copy-on-write topology, so even a full multi-way re-learn
//!   never stalls a writer for more than one step;
//!   [`maintain`](ShardedRma::maintain) combines both, and
//!   [`start_maintainer`](ShardedRma::start_maintainer) drains plans
//!   from a dedicated background thread on a per-tick step budget
//!   with inter-step sleeps.
//!
//! ## The optimistic read path
//!
//! Point lookups and range sums take **zero locks** on the happy
//! path:
//!
//! * **Routing** never locks: the topology (splitters + shard list)
//!   lives behind an epoch-published handle
//!   (`optimistic::TopoHandle`) — an `AtomicPtr` swap plus
//!   generation-counted reader pins, so maintenance replaces the
//!   topology while readers keep serving from the one they pinned.
//! * **Shard reads** are seqlock-optimistic: each shard carries an
//!   even/odd version word bumped around every `&mut Rma` section.
//!   Readers pin the shard, verify the version is even, read through
//!   the ordinary safe accessors, and validate the version after.
//!   Writers publish the odd version *and wait for pinned readers to
//!   drain* before mutating, which makes the optimistic read sound
//!   (never concurrent with mutation — crucial because a racing
//!   resize can unmap pages) while keeping readers wait-free: a
//!   reader never spins on a writer; after a few failed attempts it
//!   falls back to the shard's `RwLock`.
//!
//! The result: maintenance no longer stalls the read fleet — and,
//! since the plan engine, no longer stalls the *write* fleet either:
//! a full re-learn proceeds shard-by-shard, and a writer only ever
//! waits out the one step currently restructuring its shard (the
//! `fig18_write_stall` benchmark pins the worst single insert under
//! background re-learning to ≤ 10 ms at 2^20 scale, vs hundreds of
//! milliseconds for the monolithic baseline). Readers observing a
//! retired topology serve the pre-swap snapshot, which is
//! linearizable at the instant they acquired the topology pointer.
//! Writers that reach a retired shard re-route through the fresh
//! topology (a bounded retry). [`ShardedRma::lock_acquisitions`] is
//! the test hook proving the happy path stays lock-free;
//! [`ShardedRma::maintenance_stats`] exposes the plan engine's
//! steps, migrations and worst-step wall time.
//!
//! Concurrency contract: each operation is atomic within the shard(s)
//! it touches; multi-shard reads (scans) visit shards left to right,
//! so a concurrent writer may be observed between shards but never
//! inside one. This matches the per-partition consistency that
//! partitioned stores ship in practice.
//!
//! ```
//! use rma_shard::{ShardConfig, ShardedRma};
//!
//! let index = ShardedRma::new(ShardConfig::default());
//! for k in 0..1000i64 {
//!     index.insert(k, k * 2); // &self: callers can share it
//! }
//! assert_eq!(index.get(421), Some(842));
//! let (visited, _sum) = index.sum_range(100, 50);
//! assert_eq!(visited, 50);
//! index.apply_batch(&[(2000, 1), (2001, 2)], &[421]);
//! assert_eq!(index.get(421), None);
//! assert_eq!(index.len(), 1001);
//! ```
//!
//! Background maintenance (see [`maintainer`] for the lifecycle):
//!
//! ```
//! use rma_shard::{MaintainerConfig, ShardConfig, ShardedRma};
//! use std::sync::Arc;
//!
//! let index = Arc::new(ShardedRma::new(ShardConfig::default()));
//! let maintainer = index.start_maintainer(MaintainerConfig::default());
//! for k in 0..1000i64 {
//!     index.insert(k, k);
//! }
//! let stats = maintainer.stop(); // joins the thread deterministically
//! println!("background maintenance ran {} times", stats.runs);
//! assert_eq!(index.len(), 1000);
//! ```

pub mod access;
mod batch;
pub mod config;
pub mod durability;
pub mod maintainer;
pub mod maintenance;
pub mod obs;
mod optimistic;
mod scan;
mod shard;
pub mod splitter;

pub use access::AccessStats;
pub use config::{BalancePolicy, ConfigError, RelearnStrategy, ShardConfig};
pub use durability::{DurabilityOp, DurabilitySink};
pub use maintainer::{Maintainer, MaintainerConfig, MaintainerSnapshot, MaintainerStats};
pub use maintenance::{
    DrainReport, MaintenancePlan, MaintenanceReport, MaintenanceStep, RelearnReport, ShardStats,
    StepReport,
};
pub use obs::EngineObs;
pub use shard::LockStats;
pub use splitter::Splitters;

use optimistic::{RetiredTopology, TopoGuard, TopoHandle};
use rma_core::{Key, Value};
use shard::{ShardWriteGuard, Topology};
use std::sync::atomic::{
    fence, AtomicU64, Ordering::Acquire, Ordering::Relaxed, Ordering::Release, Ordering::SeqCst,
};
use std::sync::{Arc, Mutex, MutexGuard};

/// Shard-local operations between advances of the shared decay clock
/// (batching keeps the global cache line off the per-op hot path).
pub(crate) const DECAY_TICK_BATCH: u64 = 64;

/// Attempts [`ShardedRma::masses_of`] makes to read between decay
/// sweeps; the pauses between them sum to about 0.2 s.
const MASS_READ_RETRIES: u32 = 200;

rma_obs::metric_set! {
    /// One coherent snapshot of the engine's observable state, produced
    /// by [`ShardedRma::stats_snapshot`]. Everything the five historic
    /// getters returned, in one read: content totals, the access-balance
    /// signal, the lock-freedom proof counters, and the maintenance plan
    /// engine's lifetime counters.
    #[derive(Debug, Clone, PartialEq)]
    pub struct EngineSnapshot {
        /// Stored elements across all shards.
        len: usize => Gauge "rma_len",
        /// Shards in the live topology.
        num_shards: usize => Gauge "rma_shards",
        /// Resident bytes across all shards.
        memory_footprint: usize => Gauge "rma_memory_bytes",
        /// Bytes held by the splitter array the router searches — grows
        /// with the live shard count, shrinks under consolidation.
        splitter_bytes: usize => Gauge "rma_splitter_bytes",
        /// Operations recorded on the shared decay clock (in
        /// `DECAY_TICK_BATCH`-sized granules for point ops).
        op_count: u64 => Counter "rma_op_clock_total",
        /// Max/mean decayed access mass across shards (`1.0` = balanced).
        access_imbalance: f64 => Gauge "rma_access_imbalance",
        /// Shared `RwLock` acquisitions since construction — stays flat
        /// while the optimistic read path is winning.
        read_locks: u64 => Counter "rma_read_locks_total",
        /// Exclusive `RwLock` acquisitions since construction.
        write_locks: u64 => Counter "rma_write_locks_total",
        /// Failed seqlock read attempts since construction (each is one
        /// retry or one step toward the lock fallback) — the contention
        /// signal behind flat lock counters.
        seqlock_retries: u64 => Counter "rma_seqlock_retries_total",
        /// The incremental maintenance engine's lifetime counters.
        maintenance: MaintenanceStats,
    }
}

/// A concurrent, key-range-sharded collection of [`rma_core::Rma`]s.
/// All operations take `&self`; see the crate docs for the
/// consistency contract and the lock-free read path.
pub struct ShardedRma {
    cfg: ShardConfig,
    handle: TopoHandle,
    /// Serializes topology publication: rebalance, re-learning and
    /// the background maintainer all run under it. Readers and
    /// writers never touch it.
    maint_lock: Mutex<()>,
    /// Shared decay clock: total recorded operations (in
    /// [`DECAY_TICK_BATCH`] granules). Every `cfg.decay_every` ticks,
    /// *all* shard histograms halve together — a global halving
    /// preserves the relative masses the re-learner compares, whereas
    /// per-shard decay clocks would drive every busy shard toward the
    /// same steady-state mass.
    op_clock: AtomicU64,
    /// Decay sweeps begun and finished. A sweep halves the shards one
    /// at a time, so readers of the masses validate against this pair,
    /// seqlock-style, to read only between sweeps (see
    /// [`masses_of`](Self::masses_of)).
    sweeps_begun: AtomicU64,
    sweeps_done: AtomicU64,
    lock_stats: Arc<LockStats>,
    /// Counters behind [`maintenance_stats`](Self::maintenance_stats):
    /// bumped by the plan engine and the batch re-route path.
    maint_counters: MaintCounters,
    /// Event journal + maintenance histograms (see [`EngineObs`]).
    obs: EngineObs,
    /// Write-ahead log hook: every applied mutation is appended here
    /// under the mutating shard's write lock (see [`durability`]).
    /// `None` (the default) keeps the hot paths free of the check's
    /// cost beyond one branch.
    wal: Option<Arc<dyn DurabilitySink>>,
}

rma_obs::metric_set! {
    /// Internal atomics behind [`MaintenanceStats`]: bumped by the plan
    /// engine, topology publication and the re-route paths.
    pub(crate) struct MaintCounters =>
    /// Snapshot of the incremental maintenance engine's lifetime
    /// counters ([`ShardedRma::maintenance_stats`]). All counts are
    /// monotonic since construction.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct MaintenanceStats {
        /// Non-empty [`MaintenancePlan`]s produced by the planners.
        plans: Counter => "rma_maintenance_plans_total",
        /// Steps emitted into plans.
        steps_planned: Counter => "rma_maintenance_steps_planned_total",
        /// Steps that executed and published a topology (or validated
        /// as an exact no-op).
        steps_executed: Counter => "rma_maintenance_steps_executed_total",
        /// Steps skipped as stale (the topology moved between planning
        /// and execution).
        steps_skipped: Counter => "rma_maintenance_steps_skipped_total",
        /// Steps dropped un-executed by the scheduler's staleness
        /// check: the live shard count or access masses drifted past
        /// the drift bound, so the plan's remaining tail was discarded
        /// and the caller re-planned instead.
        steps_dropped: Counter => "rma_maintenance_steps_dropped_total",
        /// Elements moved into rebuilt shards across all executed
        /// steps (a nudge counts only the migrated range; a rebuild
        /// counts the rebuilt range's residents).
        keys_migrated: Counter => "rma_maintenance_keys_migrated_total",
        /// Executed [`MaintenanceStep::NudgeBoundary`] steps.
        nudges: Counter => "rma_maintenance_nudges_total",
        /// Copy-on-write topologies published since construction
        /// (maintenance steps of every kind, including monolithic
        /// re-learns).
        topologies_published: Counter => "rma_topologies_published_total",
        /// Worst time one executed step held its shard write locks, in
        /// nanoseconds (drain + rebuild + publish; shell pre-creation
        /// and the reader grace wait run outside the locks and are
        /// excluded) — the bound on how long a writer could have
        /// queued behind maintenance.
        max_step_wall_ns: Counter => "rma_max_step_wall_ns",
        /// `apply_batch` rounds that had to re-route leftovers after a
        /// step retired their target shard mid-flight.
        batch_reroutes: Counter => "rma_batch_reroutes_total",
        /// Single-key mutations that reached a retired shard and had
        /// to re-route through a fresh topology.
        write_reroutes: Counter => "rma_write_reroutes_total",
    }
}

impl ShardedRma {
    /// Empty index with splitters spread uniformly over the 62-bit
    /// positive key domain (the workload generators' domain). Prefer
    /// [`with_splitters`](Self::with_splitters) or
    /// [`load_bulk`](Self::load_bulk) when the key distribution is
    /// known.
    pub fn new(cfg: ShardConfig) -> Self {
        Self::with_splitters(cfg, Splitters::uniform(cfg.num_shards))
    }

    /// Empty index with explicit splitter keys.
    pub fn with_splitters(cfg: ShardConfig, splitters: Splitters) -> Self {
        cfg.validate();
        let lock_stats = Arc::new(LockStats::default());
        let topo = Topology::empty(splitters, &cfg, &lock_stats);
        Self::from_parts(cfg, topo, lock_stats)
    }

    pub(crate) fn from_parts(cfg: ShardConfig, topo: Topology, lock_stats: Arc<LockStats>) -> Self {
        ShardedRma {
            cfg,
            handle: TopoHandle::new(topo),
            maint_lock: Mutex::new(()),
            op_clock: AtomicU64::new(0),
            sweeps_begun: AtomicU64::new(0),
            sweeps_done: AtomicU64::new(0),
            lock_stats,
            maint_counters: MaintCounters::default(),
            obs: EngineObs::default(),
            wal: None,
        }
    }

    /// The engine's observability state: maintenance event journal
    /// plus step/tick duration histograms.
    pub fn obs(&self) -> &EngineObs {
        &self.obs
    }

    /// Reconfigures observability. `&mut self`: callers (the `Db`
    /// builder) do this before the engine is shared, so the hot paths
    /// can read the flag without synchronization.
    pub fn set_observability(&mut self, enabled: bool, journal_capacity: usize) {
        self.obs = EngineObs::new(enabled, journal_capacity);
    }

    /// Installs the write-ahead log sink. `&mut self` for the same
    /// reason as [`set_observability`](Self::set_observability): the
    /// builder wires durability before the engine is shared, so the
    /// mutation paths read the hook without synchronization.
    ///
    /// Recovery replays the log *before* calling this, so replayed
    /// mutations are not re-logged.
    pub fn set_durability(&mut self, sink: Arc<dyn DurabilitySink>) {
        self.wal = Some(sink);
    }

    /// The installed durability sink, if any.
    pub fn durability(&self) -> Option<&Arc<dyn DurabilitySink>> {
        self.wal.as_ref()
    }

    /// Pins the current topology (lock-free; see
    /// [`optimistic::TopoHandle`]).
    pub(crate) fn topo(&self) -> TopoGuard<'_> {
        self.handle.pin()
    }

    pub(crate) fn topo_handle(&self) -> &TopoHandle {
        &self.handle
    }

    pub(crate) fn lock_stats_arc(&self) -> &Arc<LockStats> {
        &self.lock_stats
    }

    /// Serializes maintenance; every topology publication happens
    /// under this guard.
    pub(crate) fn maintenance_guard(&self) -> MutexGuard<'_, ()> {
        self.maint_lock.lock().expect("maintenance lock poisoned")
    }

    /// Advances the shared decay clock by `n` recorded operations;
    /// for every `cfg.decay_every` boundary the clock crosses, every
    /// shard's histogram halves in one sweep. Capped at 64 halvings —
    /// beyond that a u64 counter is zero anyway.
    ///
    /// Point-op paths call this once per [`DECAY_TICK_BATCH`]
    /// shard-local operations (not per op), so the shared clock's
    /// cache line is touched ~64× less often than the shards' own
    /// counters — the histogram layer stays coordination-free on the
    /// hot path. The clock always advances (the background maintainer
    /// reads it as the op-rate signal) even when decay is disabled.
    pub(crate) fn tick_decay(&self, topo: &Topology, n: u64) {
        let prev = self.op_clock.fetch_add(n, Relaxed);
        let period = self.cfg.decay_every;
        if period == 0 {
            return;
        }
        let crossings = ((prev + n) / period - prev / period).min(64);
        if crossings == 0 {
            return;
        }
        self.sweeps_begun.fetch_add(1, SeqCst);
        fence(Release);
        for _ in 0..crossings {
            for shard in &topo.shards {
                shard.stats.decay();
            }
        }
        self.sweeps_done.fetch_add(1, SeqCst);
    }

    /// The decayed access mass of every shard of `topo`, read between
    /// decay sweeps so a reader never mixes halved and unhalved shards
    /// (which on uniform traffic reads as an imbalance up to 2.0).
    /// Seqlock-style: no sweep may be in flight when the read starts
    /// or begin while it runs, else it retries with a growing pause.
    /// Sweeps never wait for readers, so the op path takes no lock;
    /// after [`MASS_READ_RETRIES`] attempts the last read is returned
    /// as is.
    pub(crate) fn masses_of(&self, topo: &Topology) -> Vec<u64> {
        let mut masses = Vec::new();
        for attempt in 0..MASS_READ_RETRIES {
            if attempt > 0 {
                std::thread::sleep(std::time::Duration::from_micros(1 << attempt.min(10)));
            }
            let done = self.sweeps_done.load(SeqCst);
            let begun = self.sweeps_begun.load(SeqCst);
            masses.clear();
            masses.extend(topo.shards.iter().map(|s| s.stats.total()));
            fence(Acquire);
            if begun == done && self.sweeps_begun.load(SeqCst) == begun {
                break;
            }
        }
        masses
    }

    /// Total operations recorded on the shared clock (in
    /// `DECAY_TICK_BATCH` granules for point ops; exact for
    /// batches). The background maintainer differentiates this to
    /// estimate the op rate.
    pub fn op_count(&self) -> u64 {
        self.op_clock.load(Relaxed)
    }

    /// The configuration this index was built with.
    pub fn config(&self) -> &ShardConfig {
        &self.cfg
    }

    /// `RwLock` acquisitions (shared, exclusive) since construction —
    /// the hook that verifies the happy-path read takes zero locks.
    pub fn lock_acquisitions(&self) -> (u64, u64) {
        (
            self.lock_stats.read_locks.load(Relaxed),
            self.lock_stats.write_locks.load(Relaxed),
        )
    }

    pub(crate) fn maint_counters(&self) -> &MaintCounters {
        &self.maint_counters
    }

    /// Publishes `next` as the current topology (see
    /// [`TopoHandle::publish`]) and counts the publication.
    pub(crate) fn publish(&self, next: Topology) -> RetiredTopology {
        self.maint_counters
            .topologies_published
            .fetch_add(1, Relaxed);
        self.handle.publish(next)
    }

    /// Lifetime counters of the incremental maintenance engine: plans
    /// and steps (planned / executed / skipped), elements migrated,
    /// topologies published, and the worst single-step wall time —
    /// the observable proof that maintenance proceeds in bounded
    /// steps rather than monolithic stalls.
    pub fn maintenance_stats(&self) -> MaintenanceStats {
        self.maint_counters.snapshot()
    }

    /// One coherent observability snapshot: gathers what used to take
    /// five separate getters ([`maintenance_stats`](Self::maintenance_stats),
    /// [`lock_acquisitions`](Self::lock_acquisitions),
    /// [`access_imbalance`](Self::access_imbalance),
    /// [`op_count`](Self::op_count),
    /// [`memory_footprint`](Self::memory_footprint)) plus the shard
    /// count and resident-element total, reading each shard once.
    /// The lock counters are captured *before* the per-shard sweep,
    /// and the sweep itself reads optimistically (read-lock fallback
    /// only under writer interference), so a monitoring loop calling
    /// this does not drift the lock-freedom proof counters.
    pub fn stats_snapshot(&self) -> EngineSnapshot {
        let (read_locks, write_locks) = self.lock_acquisitions();
        let seqlock_retries = self.lock_stats.opt_retries.load(Relaxed);
        let maintenance = self.maintenance_stats();
        let topo = self.topo();
        let mut len = 0usize;
        let mut memory_footprint = 0usize;
        for shard in &topo.shards {
            let (l, m) = shard
                .try_optimistic(|rma| (rma.len(), rma.memory_footprint()))
                .unwrap_or_else(|| {
                    let g = shard.read();
                    (g.len(), g.memory_footprint())
                });
            len += l;
            memory_footprint += m;
        }
        let access_imbalance = imbalance(&self.masses_of(&topo));
        EngineSnapshot {
            len,
            num_shards: topo.shards.len(),
            memory_footprint,
            splitter_bytes: std::mem::size_of_val(topo.splitters.keys()),
            op_count: self.op_count(),
            access_imbalance,
            read_locks,
            write_locks,
            seqlock_retries,
            maintenance,
        }
    }

    /// Current number of shards (maintenance may change it).
    pub fn num_shards(&self) -> usize {
        self.topo().shards.len()
    }

    /// Current splitter keys (cloned snapshot).
    pub fn splitters(&self) -> Splitters {
        self.topo().splitters.clone()
    }

    /// Total stored elements. Sums per-shard lengths under read locks;
    /// concurrent writers may move the value while it is being read.
    pub fn len(&self) -> usize {
        let topo = self.topo();
        topo.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True when no shard stores any element.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident bytes across all shards.
    pub fn memory_footprint(&self) -> usize {
        let topo = self.topo();
        topo.shards
            .iter()
            .map(|s| s.read().memory_footprint())
            .sum()
    }

    // ------------------------------------------------- point ops --

    /// Point lookup. Lock-free on the happy path: routes through the
    /// pinned topology and reads the shard optimistically, falling
    /// back to the shard's read lock only after repeated writer
    /// interference.
    pub fn get(&self, k: Key) -> Option<Value> {
        let topo = self.topo();
        let shard = &topo.shards[topo.splitters.route(k)];
        let prev = shard.reads.fetch_add(1, Relaxed);
        shard.stats.record(k);
        if (prev + 1).is_multiple_of(DECAY_TICK_BATCH) {
            self.tick_decay(&topo, DECAY_TICK_BATCH);
        }
        match shard.try_optimistic(|rma| rma.get(k)) {
            Some(found) => found,
            None => shard.read().get(k),
        }
    }

    /// Runs `attempt` against a freshly pinned topology until it
    /// succeeds. An attempt returns `None` to signal it found only
    /// retired state (a maintenance step replaced its target shard
    /// mid-flight) and must re-route. The retry is immediate — no
    /// yield: a retired flag only becomes observable under a shard
    /// lock the step released *after* publishing its successor
    /// topology, so re-pinning is guaranteed to see the fresh routing
    /// (yielding here would donate a scheduler slice to the busy
    /// maintainer thread and stretch the writer's stall for nothing).
    /// The single home of the retire-retry idiom shared by `insert`,
    /// `remove` and `remove_successor`.
    pub(crate) fn with_topo_retry<R>(&self, mut attempt: impl FnMut(&Topology) -> Option<R>) -> R {
        loop {
            let topo = self.topo();
            if let Some(out) = attempt(&topo) {
                return out;
            }
            drop(topo);
            std::hint::spin_loop();
        }
    }

    /// Routes `k` to its shard, takes the shard's write lock, records
    /// the access, and runs `op` on the guard — re-routing through a
    /// fresh topology whenever a maintenance step retired the target
    /// shard first. Every single-key mutation goes through here, so
    /// the step executor's frequent topology swaps exercise exactly
    /// one retry path.
    fn route_mut_with_retry<R>(
        &self,
        k: Key,
        mut op: impl FnMut(&mut ShardWriteGuard<'_>) -> R,
    ) -> R {
        self.with_topo_retry(|topo| {
            let shard = &topo.shards[topo.splitters.route(k)];
            let mut guard = shard.write();
            if guard.is_retired() {
                self.maint_counters.write_reroutes.fetch_add(1, Relaxed);
                return None;
            }
            let prev = shard.writes.fetch_add(1, Relaxed);
            shard.stats.record(k);
            if (prev + 1).is_multiple_of(DECAY_TICK_BATCH) {
                self.tick_decay(topo, DECAY_TICK_BATCH);
            }
            Some(op(&mut guard))
        })
    }

    /// Inserts `(k, v)` (duplicates kept): routes to one shard and
    /// writes under its exclusive lock (plus the seqlock writer
    /// protocol). A rebalance or resize this triggers stays inside
    /// the shard. Re-routes if maintenance retired the shard
    /// mid-flight.
    pub fn insert(&self, k: Key, v: Value) {
        self.route_mut_with_retry(k, |guard| {
            guard.mutate(|rma| rma.insert(k, v));
            if let Some(wal) = &self.wal {
                wal.append(DurabilityOp::Insert(k, v));
            }
        });
    }

    /// Removes one element with key exactly `k`, returning its value.
    pub fn remove(&self, k: Key) -> Option<Value> {
        self.route_mut_with_retry(k, |guard| {
            let out = guard.mutate(|rma| rma.remove(k));
            if out.is_some() {
                if let Some(wal) = &self.wal {
                    wal.append(DurabilityOp::Remove(k));
                }
            }
            out
        })
    }

    // ---------------------------------------------- access signal --

    /// Decayed access mass per shard, in shard order — the signal
    /// maintenance balances on.
    pub fn access_masses(&self) -> Vec<u64> {
        self.masses_of(&self.topo())
    }

    /// Length of the largest shard (lock-free estimate: optimistic
    /// per-shard reads, `0` for a shard under writer interference —
    /// good enough for the maintenance trigger that watches the
    /// [`ShardConfig::max_shard_len`] length backstop).
    pub fn max_shard_len(&self) -> usize {
        let topo = self.topo();
        topo.shards
            .iter()
            .map(|s| s.try_optimistic(|rma| rma.len()).unwrap_or(0))
            .max()
            .unwrap_or(0)
    }

    /// Max/mean access imbalance across shards: `1.0` is perfectly
    /// balanced; returns `1.0` when no access has been recorded.
    pub fn access_imbalance(&self) -> f64 {
        imbalance(&self.access_masses())
    }

    /// Zeroes every shard's access histogram and the decay clock
    /// (measurement hook: the replay harness resets between phases to
    /// attribute mass to one phase).
    pub fn reset_access_stats(&self) {
        let topo = self.topo();
        for shard in &topo.shards {
            shard.stats.clear();
        }
        self.op_clock.store(0, Relaxed);
    }

    // ------------------------------------------------ validation --

    /// Exhaustive structural check across all shards; test helper.
    /// Verifies every per-shard RMA invariant plus the sharding
    /// invariant: each shard's keys lie inside its splitter range
    /// (equivalently, every stored key routes back to its shard).
    pub fn check_invariants(&self) {
        let topo = self.topo();
        for (i, shard) in topo.shards.iter().enumerate() {
            let g = shard.read();
            g.check_invariants();
            let (lo, hi) = topo.splitters.range_of(i);
            if let Some((min, _)) = g.first_ge(Key::MIN) {
                let max = g.iter().last().expect("non-empty shard").0;
                assert!(
                    lo.is_none_or(|l| l <= min),
                    "shard {i} min {min} below lower bound {lo:?}"
                );
                assert!(
                    hi.is_none_or(|h| max < h),
                    "shard {i} max {max} at/above upper bound {hi:?}"
                );
                assert_eq!(topo.splitters.route(min), i, "min routes elsewhere");
                assert_eq!(topo.splitters.route(max), i, "max routes elsewhere");
            }
        }
    }
}

/// Max/mean of `masses`; `1.0` when nothing was recorded.
fn imbalance(masses: &[u64]) -> f64 {
    let total: u64 = masses.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let mean = total as f64 / masses.len() as f64;
    *masses.iter().max().expect("at least one shard") as f64 / mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use rma_core::{RewiringMode, RmaConfig};

    pub(crate) fn small_cfg(n: usize) -> ShardConfig {
        ShardConfig {
            num_shards: n,
            rma: RmaConfig {
                segment_size: 8,
                rewiring: RewiringMode::Disabled,
                reserve_bytes: 1 << 24,
                ..Default::default()
            },
            min_split_len: 64,
            ..Default::default()
        }
    }

    #[test]
    fn point_ops_round_trip() {
        let s = ShardedRma::with_splitters(small_cfg(4), Splitters::new(vec![250, 500, 750]));
        for k in 0..1000i64 {
            s.insert(k, k * 3);
        }
        s.check_invariants();
        assert_eq!(s.len(), 1000);
        assert_eq!(s.num_shards(), 4);
        for k in (0..1000).step_by(37) {
            assert_eq!(s.get(k), Some(k * 3));
        }
        assert_eq!(s.remove(500), Some(1500));
        assert_eq!(s.get(500), None);
        assert_eq!(s.len(), 999);
    }

    #[test]
    fn shared_across_threads() {
        let s = ShardedRma::with_splitters(small_cfg(4), Splitters::new(vec![2500, 5000, 7500]));
        std::thread::scope(|sc| {
            for t in 0..4i64 {
                let s = &s;
                sc.spawn(move || {
                    for i in 0..2500i64 {
                        let k = t * 2500 + i;
                        s.insert(k, k);
                        assert_eq!(s.get(k), Some(k));
                    }
                });
            }
        });
        s.check_invariants();
        assert_eq!(s.len(), 10_000);
    }

    #[test]
    fn duplicate_heavy_workload_stays_consistent() {
        let s = ShardedRma::with_splitters(small_cfg(3), Splitters::new(vec![10, 20]));
        for _ in 0..500 {
            s.insert(10, 1);
            s.insert(20, 2);
            s.insert(15, 3);
        }
        s.check_invariants();
        assert_eq!(s.len(), 1500);
        // Boundary keys must land right of their splitter.
        assert_eq!(s.splitters().route(10), 1);
        assert_eq!(s.splitters().route(20), 2);
    }

    #[test]
    fn point_ops_advance_the_decay_clock_in_batches() {
        let mut cfg = small_cfg(2);
        cfg.decay_every = 64;
        let s = ShardedRma::with_splitters(cfg, Splitters::new(vec![1000]));
        // One key → one bucket, so halving has no per-bucket floor
        // rounding and the arithmetic below is exact.
        for v in 0..64i64 {
            s.insert(7, v);
        }
        // The 64th shard op ticks the clock across one decay period:
        // 64 recorded accesses, halved once.
        assert_eq!(s.access_masses()[0], 32);
    }

    #[test]
    fn batched_ingest_decays_once_per_period() {
        let mut cfg = small_cfg(2);
        cfg.decay_every = 64;
        let s = ShardedRma::with_splitters(cfg, Splitters::new(vec![1000]));
        // One key → one bucket: exact halving arithmetic.
        let inserts: Vec<(i64, i64)> = (0..256).map(|v| (7, v)).collect();
        s.apply_batch(&inserts, &[]);
        // One 256-op batch spans four decay periods: the clock must
        // apply all four halvings, not one. 256 → 16.
        assert_eq!(s.access_masses().iter().sum::<u64>(), 16);
    }

    /// A decay sweep halves the shards' histograms one shard at a
    /// time. Readers of the masses must see the state before or after
    /// a sweep, never the mix: on equal masses a half-halved read
    /// reports an imbalance up to 2.0 where the truth is 1.0.
    #[test]
    fn access_masses_never_read_a_half_decayed_sweep() {
        const SHARDS: i64 = 64;
        const PER_SHARD: i64 = 512;
        for round in 0..6 {
            let mut cfg = small_cfg(SHARDS as usize);
            // Wide histograms make one sweep long enough to overlap
            // several reads.
            cfg.hist_buckets = 1 << 14;
            // The set-up batch stops one op per shard short of the
            // period; the trigger batch crosses it exactly once.
            cfg.decay_every = (SHARDS * (PER_SHARD + 1)) as u64;
            let s = ShardedRma::with_splitters(
                cfg,
                Splitters::new((1..SHARDS).map(|i| i * 1000).collect()),
            );
            // One key per shard: one bucket each, so halving is exact.
            let setup: Vec<(Key, Value)> = (0..SHARDS)
                .flat_map(|i| (0..PER_SHARD).map(move |j| (i * 1000, j)))
                .collect();
            s.apply_batch(&setup, &[]);
            assert_eq!(s.access_imbalance(), 1.0);

            let done = std::sync::atomic::AtomicBool::new(false);
            let reads = std::sync::atomic::AtomicU64::new(0);
            let worst = std::thread::scope(|sc| {
                let reader = sc.spawn(|| {
                    let mut worst = 0.0f64;
                    while !done.load(Relaxed) {
                        worst = worst.max(s.access_imbalance());
                        reads.fetch_add(1, Relaxed);
                    }
                    worst
                });
                while reads.load(Relaxed) == 0 {
                    std::hint::spin_loop();
                }
                let trigger: Vec<(Key, Value)> = (0..SHARDS).map(|i| (i * 1000, 0)).collect();
                s.apply_batch(&trigger, &[]);
                done.store(true, Relaxed);
                reader.join().expect("reader panicked")
            });
            // PER_SHARD + 1 accesses per shard, halved exactly once.
            let halved = (PER_SHARD as u64 + 1) >> 1;
            assert_eq!(
                s.access_masses(),
                vec![halved; SHARDS as usize],
                "exactly one sweep ran"
            );
            // Consistent states differ by at most one access per
            // shard: an imbalance of (256 + 1) / 256.
            assert!(
                worst < 1.01,
                "round {round}: torn sweep read, imbalance {worst}"
            );
        }
    }

    #[test]
    fn happy_path_get_takes_no_locks() {
        let s = ShardedRma::with_splitters(small_cfg(4), Splitters::new(vec![250, 500, 750]));
        for k in 0..1000i64 {
            s.insert(k, k);
        }
        let (reads_before, writes_before) = s.lock_acquisitions();
        for k in (0..1000).step_by(3) {
            assert_eq!(s.get(k), Some(k));
        }
        let (reads_after, writes_after) = s.lock_acquisitions();
        assert_eq!(
            reads_after - reads_before,
            0,
            "uncontended gets must not take the read lock"
        );
        assert_eq!(writes_after - writes_before, 0);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn invalid_config_panics() {
        let cfg = ShardConfig {
            num_shards: 0,
            ..ShardConfig::default()
        };
        // Explicit splitters, so the config validator is what panics
        // (`new` would stop earlier, in `Splitters::uniform`).
        let _ = ShardedRma::with_splitters(cfg, Splitters::new(Vec::new()));
    }
}
