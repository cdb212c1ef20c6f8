//! Shard maintenance: per-shard load statistics and the **incremental
//! maintenance plan engine** — planners that emit bounded
//! [`MaintenanceStep`]s and an executor that applies one step at a
//! time, each publishing its own copy-on-write topology.
//!
//! PR 3 made *readers* immune to maintenance (optimistic seqlock
//! shards behind an epoch-published topology), but writers could
//! still stall ~100 ms at 2^20 scale: `relearn_splitters()` drained
//! every shard under its write lock and published the rebuilt
//! topology in one swap. Following the paper's incremental-rebalance
//! philosophy (restructuring must not stall the data path, §V) one
//! level up, this module decomposes maintenance:
//!
//! * **planners** ([`ShardedRma::plan_maintenance`],
//!   [`ShardedRma::plan_relearn`], [`ShardedRma::plan_rebalance`],
//!   in `plan.rs`) read the access histograms and emit a
//!   [`MaintenancePlan`] of bounded steps — [`SplitShard`]
//!   (one shard; its work is bounded by that shard's size, which the
//!   opt-in `ShardConfig::max_shard_len` backstop keeps within a
//!   step's budget), [`MergePair`] / [`NudgeBoundary`] (two adjacent
//!   shards), [`RebuildShard`] (one target key range, capped at
//!   `ShardConfig::max_step_elems` residents);
//! * the **executor** ([`ShardedRma::execute_step`] /
//!   [`ShardedRma::drain_plan`], in `executor.rs`) applies one step at
//!   a time: it locks only the shards inside the step's key range,
//!   drains them, publishes a successor topology that reuses every
//!   untouched shard's `Arc`, and waits out the read grace period —
//!   so a full re-learn proceeds shard-by-shard and **a writer only
//!   ever waits out the one step currently restructuring its shard,
//!   never the whole topology**;
//! * the **monolithic baseline**
//!   ([`ShardedRma::relearn_splitters_monolithic`], in
//!   `monolithic.rs`) keeps the PR-3 single-swap rebuild as an
//!   explicit comparison point for the `fig18_write_stall` benchmark.
//!
//! [`NudgeBoundary`] is the cheap path for *drifting* hotspots: when
//! the histogram CDF says one boundary move recovers most of the
//! predicted re-learn gain, the planner migrates just the key range
//! between the old and new boundary (bulk extract from the donor,
//! bulk append into the receiver) instead of rebuilding the topology.
//!
//! The public entry points [`ShardedRma::rebalance_shards`],
//! [`ShardedRma::relearn_splitters`] and [`ShardedRma::maintain`]
//! keep their PR-2/PR-3 signatures — they now plan and immediately
//! drain. The background maintainer ([`crate::maintainer`]) instead
//! drains plans a few steps per tick with inter-step sleeps.
//!
//! # Maintenance vs. the lock-free read path
//!
//! Every structural change remains copy-on-write: a step (serialized
//! by the maintenance mutex) drains the affected shards under their
//! write locks, builds a successor `Topology` that reuses the
//! untouched shards' `Arc`s, marks the replaced shards retired, swaps
//! the topology pointer, releases the locks, and only then waits out
//! the readers still pinned to the displaced topology. Readers never
//! block behind maintenance; writers that reach a retired shard
//! re-route (`ShardedRma::with_topo_retry`). Restructured shards are
//! rebuilt through the paper's bulk-load machinery and their
//! histograms are **re-seeded** from the learned signal, so
//! maintenance never resets what the workload taught the structure.
//!
//! [`SplitShard`]: MaintenanceStep::SplitShard
//! [`MergePair`]: MaintenanceStep::MergePair
//! [`NudgeBoundary`]: MaintenanceStep::NudgeBoundary
//! [`RebuildShard`]: MaintenanceStep::RebuildShard

pub(crate) mod executor;
pub(crate) mod monolithic;
pub(crate) mod plan;

pub use executor::{DrainReport, StepReport};
pub use plan::{MaintenancePlan, MaintenanceStep};

use crate::shard::{Shard, Topology};
use crate::{BalancePolicy, RelearnStrategy, ShardedRma, Splitters};
use rma_core::{Key, Rma, Value};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// A snapshot of one shard's load.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard index in splitter order.
    pub shard: usize,
    /// Stored elements.
    pub len: usize,
    /// Segments of the inner RMA.
    pub segments: usize,
    /// Reads routed to this shard since construction (or since the
    /// shard was last restructured).
    pub reads: u64,
    /// Write operations routed likewise.
    pub writes: u64,
    /// Decayed access mass of the shard's histogram (survives
    /// restructuring via re-seeding, unlike `reads`/`writes`).
    pub access_mass: u64,
    /// Inclusive lower key bound (`None` = unbounded).
    pub lower_bound: Option<Key>,
    /// Exclusive upper key bound (`None` = unbounded).
    pub upper_bound: Option<Key>,
}

/// What one [`ShardedRma::rebalance_shards`] call changed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// Hot shards split in two.
    pub splits: usize,
    /// Cold adjacent pairs merged into one.
    pub merges: usize,
}

/// What one [`ShardedRma::relearn_splitters`] call decided.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct RelearnReport {
    /// Whether the splitter set was actually changed (any re-learn
    /// step — nudge, split, rebuild or merge — executed).
    pub relearned: bool,
    /// Max/mean access imbalance observed before the call (0 when no
    /// access mass had been recorded).
    pub imbalance_before: f64,
    /// Predicted max/mean imbalance under the chosen plan (only set
    /// when a candidate was evaluated).
    pub imbalance_predicted: f64,
    /// Shard count before the call.
    pub shards_before: usize,
    /// Shard count after the call.
    pub shards_after: usize,
}

/// Clips weighted buckets to `[lo, hi)`, scaling each straddling
/// bucket's mass by its overlap fraction (piecewise-uniform model).
pub(super) fn clip_weights(
    wb: &[(Key, Key, u64)],
    lo: Option<Key>,
    hi: Option<Key>,
) -> Vec<(Key, Key, u64)> {
    wb.iter()
        .filter_map(|&(blo, bhi, w)| {
            let clo = lo.map_or(blo, |l| blo.max(l));
            let chi = hi.map_or(bhi, |h| bhi.min(h));
            if chi <= clo {
                return None;
            }
            let span = (bhi as i128 - blo as i128).max(1);
            let part = chi as i128 - clo as i128;
            let share = ((w as i128 * part) / span) as u64;
            (share > 0).then_some((clo, chi, share))
        })
        .collect()
}

/// Access mass each shard of `splitters` would receive from the
/// weighted buckets (piecewise-uniform distribution of straddlers).
pub(super) fn predicted_masses(wb: &[(Key, Key, u64)], splitters: &Splitters) -> Vec<f64> {
    let mut masses = vec![0f64; splitters.num_shards()];
    for &(blo, bhi, w) in wb {
        let span = (bhi as i128 - blo as i128).max(1) as f64;
        let first = splitters.route(blo);
        let last = splitters.route(bhi.saturating_sub(1).max(blo));
        for (i, m) in masses.iter_mut().enumerate().take(last + 1).skip(first) {
            let (slo, shi) = splitters.range_of(i);
            let clo = slo.map_or(blo, |l| blo.max(l));
            let chi = shi.map_or(bhi, |h| bhi.min(h));
            if chi > clo {
                *m += w as f64 * (chi as i128 - clo as i128) as f64 / span;
            }
        }
    }
    masses
}

/// Concatenated weighted histogram of the adjacent shard pair
/// `(l, l + 1)` — the signal both the nudge planner and the
/// merge/nudge executors seed successor shards from (one home, so
/// planner predictions and executor seeding can never diverge).
pub(super) fn pair_weighted_buckets(topo: &Topology, l: usize) -> Vec<(Key, Key, u64)> {
    let mut pair_wb = topo.shards[l].stats.weighted_buckets();
    pair_wb.extend(topo.shards[l + 1].stats.weighted_buckets());
    pair_wb
}

/// Max/mean of a mass vector; `1.0` for empty or all-zero input.
pub(super) fn imbalance_of(masses: &[f64]) -> f64 {
    let total: f64 = masses.iter().sum();
    if total <= 0.0 || masses.is_empty() {
        return 1.0;
    }
    let mean = total / masses.len() as f64;
    masses.iter().cloned().fold(0f64, f64::max) / mean
}

impl ShardedRma {
    /// Per-shard load snapshot, in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        let topo = self.topo();
        topo.shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let g = s.read();
                let (lower_bound, upper_bound) = topo.splitters.range_of(i);
                ShardStats {
                    shard: i,
                    len: g.len(),
                    segments: g.num_segments(),
                    reads: s.reads.load(Relaxed),
                    writes: s.writes.load(Relaxed),
                    access_mass: s.stats.total(),
                    lower_bound,
                    upper_bound,
                }
            })
            .collect()
    }

    /// Per-shard weights the configured [`BalancePolicy`] balances on.
    /// Under `ByAccess` this is the decayed histogram mass, falling
    /// back to element counts while no access has been recorded (a
    /// freshly bulk-loaded index still balances by residency).
    pub(super) fn balance_weights(
        lens: &[usize],
        masses: &[u64],
        policy: BalancePolicy,
    ) -> Vec<u64> {
        match policy {
            BalancePolicy::ByLen => lens.iter().map(|&l| l as u64).collect(),
            BalancePolicy::ByAccess => {
                if masses.iter().all(|&m| m == 0) {
                    lens.iter().map(|&l| l as u64).collect()
                } else {
                    masses.to_vec()
                }
            }
        }
    }

    /// An empty RMA ready to become a successor shard. Creating one
    /// costs a memfd + reservation mapping (milliseconds under the
    /// rewired backend), so the step executor pre-creates its shells
    /// *before* taking any shard lock — the locked window pays only
    /// for draining and loading the actual elements.
    pub(super) fn shard_shell(&self) -> Rma {
        Rma::new(self.cfg.rma)
    }

    /// Bulk-loads `elems` into a pre-created shell and wraps it as
    /// the shard covering range `i` of `splitters`, histogram seeded
    /// from `wb`.
    pub(super) fn finish_shard(
        &self,
        mut shell: Rma,
        splitters: &Splitters,
        i: usize,
        elems: &[(Key, Value)],
        wb: &[(Key, Key, u64)],
    ) -> Arc<Shard> {
        shell.load_bulk(elems);
        let (lo, hi) = splitters.range_of(i);
        let shard = Shard::new(shell, lo, hi, &self.cfg, Arc::clone(self.lock_stats_arc()));
        shard.stats.seed(&clip_weights(wb, lo, hi));
        Arc::new(shard)
    }

    /// Builds a successor shard over `elems` covering shard range `i`
    /// of `splitters`, histogram seeded from `wb`.
    pub(super) fn build_shard(
        &self,
        splitters: &Splitters,
        i: usize,
        elems: &[(Key, Value)],
        wb: &[(Key, Key, u64)],
    ) -> Arc<Shard> {
        self.finish_shard(self.shard_shell(), splitters, i, elems, wb)
    }

    /// Splits shards whose balance weight exceeds `split_factor ×` the
    /// mean and merges adjacent pairs whose combined weight falls
    /// below the `merge_factor ×` mean floor, by planning and
    /// immediately draining bounded rounds of [`MaintenanceStep`]s.
    /// Under the default [`BalancePolicy::ByAccess`], split points
    /// come from the shard histogram's equal-access CDF point and
    /// restructured shards inherit their parents' (clipped)
    /// histograms. Each step publishes a copy-on-write topology:
    /// concurrent readers keep serving throughout, writers re-route
    /// past the replaced shards. Restructured shards restart their
    /// read/write counters.
    pub fn rebalance_shards(&self) -> MaintenanceReport {
        let mut report = MaintenanceReport::default();
        // Bounded rounds: each round plans against the fresh topology
        // and drains, so a pathological distribution cannot spin here
        // forever.
        for _ in 0..16 {
            let mut plan = self.plan_rebalance();
            if plan.is_empty() {
                break;
            }
            let drained = self.drain_plan(&mut plan);
            report.splits += drained.splits;
            report.merges += drained.merges;
            if drained.splits + drained.merges == 0 {
                break; // every step went stale: re-plan next call
            }
        }
        report
    }

    /// Re-learns the splitter set from the global access histogram —
    /// multi-way equal-access quantiles, guarded twice (observed
    /// imbalance must reach `relearn_trigger` **and** the predicted
    /// imbalance must improve by `relearn_min_gain`), so uniform
    /// workloads cause zero churn.
    ///
    /// Under the default [`RelearnStrategy::Incremental`] the rebuild
    /// is planned as bounded steps and drained immediately — each
    /// step publishes its own topology, so writers only ever queue
    /// behind the one step touching their shard. A single
    /// [`MaintenanceStep::NudgeBoundary`] replaces the whole plan
    /// when one boundary move recovers most of the predicted gain
    /// (the drifting-hotspot fast path).
    /// [`RelearnStrategy::Monolithic`] restores the PR-3 single-swap
    /// drain; [`RelearnStrategy::NudgeOnly`] never rebuilds, it only
    /// chases boundaries.
    pub fn relearn_splitters(&self) -> RelearnReport {
        if self.cfg.relearn_strategy == RelearnStrategy::Monolithic {
            return self.relearn_splitters_monolithic();
        }
        let mut plan = self.plan_relearn();
        let mut report = plan.relearn_report();
        let mut executed = self.drain_plan(&mut plan).executed();
        // A nudge sweep is one round of *local* moves; convergence to
        // the equal-access topology comes from cascading them (each
        // round re-plans against the moved boundaries), like a Lloyd
        // iteration. Bounded so a pathological histogram cannot spin.
        if self.cfg.relearn_strategy == RelearnStrategy::NudgeOnly && executed > 0 {
            for _ in 0..7 {
                let mut next = self.plan_relearn();
                if next.is_empty() {
                    break;
                }
                let drained = self.drain_plan(&mut next).executed();
                executed += drained;
                if drained == 0 {
                    break;
                }
            }
        }
        report.relearned = executed > 0;
        report.shards_after = self.num_shards();
        report
    }

    /// Periodic maintenance entry point: splitter re-learning (when
    /// `ShardConfig::relearn` is on) followed by the incremental
    /// split/merge pass. Plans and drains synchronously; the
    /// background maintainer uses the plan/step API directly instead
    /// so it can pace the steps.
    pub fn maintain(&self) -> (RelearnReport, MaintenanceReport) {
        let relearn = if self.cfg.relearn {
            self.relearn_splitters()
        } else {
            RelearnReport::default()
        };
        (relearn, self.rebalance_shards())
    }

    /// Synchronous shard-count consolidation: plans and drains
    /// [`plan_consolidation`](Self::plan_consolidation) rounds until
    /// the live shard count reaches the configured `num_shards`
    /// target or no further cap-bounded merge applies, returning the
    /// merges executed. The background maintainer runs the same chain
    /// one idle tick at a time; this is the on-demand form (quiesce a
    /// workload, then `compact()` before the next burst).
    pub fn compact(&self) -> usize {
        let mut merges = 0;
        // Bounded rounds, same rationale as `rebalance_shards`: each
        // round re-plans against the fresh topology.
        for _ in 0..64 {
            let mut plan = self.plan_consolidation();
            if plan.is_empty() {
                break;
            }
            let drained = self.drain_plan(&mut plan).merges;
            merges += drained;
            if drained == 0 {
                break; // every step went stale or over-bound
            }
        }
        merges
    }
}

#[cfg(test)]
mod tests {
    use crate::tests::small_cfg;
    use crate::{BalancePolicy, MaintenanceReport, ShardConfig, ShardedRma, Splitters};
    use rma_core::{RewiringMode, RmaConfig};
    use std::sync::atomic::AtomicBool;
    use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};

    #[test]
    fn stats_report_bounds_and_counters() {
        let s = ShardedRma::with_splitters(small_cfg(3), Splitters::new(vec![100, 200]));
        for k in 0..300i64 {
            s.insert(k, k);
        }
        let _ = s.get(150);
        let stats = s.shard_stats();
        assert_eq!(stats.len(), 3);
        assert_eq!(stats[0].lower_bound, None);
        assert_eq!(stats[1].lower_bound, Some(100));
        assert_eq!(stats[1].upper_bound, Some(200));
        assert_eq!(stats.iter().map(|st| st.len).sum::<usize>(), 300);
        assert_eq!(stats[1].reads, 1);
        assert_eq!(stats[1].access_mass, 101, "100 inserts + 1 get");
        assert!(stats.iter().all(|st| st.writes == 100));
    }

    #[test]
    fn hot_shard_splits() {
        let s = ShardedRma::with_splitters(small_cfg(4), Splitters::new(vec![1000, 2000, 3000]));
        // Hammer shard 0 only.
        for k in 0..1000i64 {
            s.insert(k, k);
        }
        let before = s.collect_all();
        let report = s.rebalance_shards();
        assert!(report.splits >= 1, "skewed load must split: {report:?}");
        s.check_invariants();
        assert_eq!(s.collect_all(), before, "maintenance must not lose data");
        let stats = s.shard_stats();
        let max = stats.iter().map(|st| st.len).max().unwrap();
        assert!(max < 1000, "hot shard still intact: {stats:?}");
    }

    #[test]
    fn access_cut_splits_at_the_hot_point_not_the_median() {
        // Shard 0 holds keys 0..1000 but only the top decile is ever
        // touched after loading: the access CDF cut must land inside
        // [900, 1000), not at the median 500.
        let mut cfg = small_cfg(2);
        cfg.split_factor = 1.5;
        let s = ShardedRma::with_splitters(cfg, Splitters::new(vec![5000]));
        for k in 0..1000i64 {
            s.insert(k, k);
        }
        s.reset_access_stats();
        for _ in 0..50 {
            for k in 900..1000i64 {
                let _ = s.get(k);
            }
        }
        // Something must make shard 0 hot relative to shard 1.
        let _ = s.get(6000);
        let report = s.rebalance_shards();
        assert!(report.splits >= 1, "{report:?}");
        let new_keys = s.splitters();
        let inner: Vec<i64> = new_keys
            .keys()
            .iter()
            .copied()
            .filter(|&k| (0..1000).contains(&k))
            .collect();
        assert!(
            inner.iter().any(|&k| (850..=1000).contains(&k)),
            "cut missed the hot decile: {inner:?}"
        );
        s.check_invariants();
    }

    #[test]
    fn cold_neighbours_merge() {
        let splitters: Vec<i64> = (1..16).map(|i| i * 100).collect();
        let s = ShardedRma::with_splitters(small_cfg(16), Splitters::new(splitters));
        // Only two shards get data; the rest are cold and merge away.
        for k in 0..100i64 {
            s.insert(k, k);
            s.insert(1500 + k, k);
        }
        let before = s.collect_all();
        let report = s.rebalance_shards();
        assert!(report.merges >= 1, "{report:?}");
        s.check_invariants();
        assert!(s.num_shards() < 16);
        assert_eq!(s.collect_all(), before);
    }

    #[test]
    fn balanced_load_is_left_alone() {
        let batch: Vec<(i64, i64)> = (0..8000).map(|i| (i, i)).collect();
        let s = ShardedRma::load_bulk(small_cfg(8), &batch);
        assert_eq!(s.rebalance_shards(), MaintenanceReport::default());
        assert_eq!(s.num_shards(), 8);
    }

    #[test]
    fn duplicate_only_shard_does_not_split() {
        let s = ShardedRma::with_splitters(small_cfg(2), Splitters::new(vec![1000]));
        for _ in 0..500 {
            s.insert(7, 7);
        }
        let report = s.rebalance_shards();
        assert_eq!(report.splits, 0);
        s.check_invariants();
        assert_eq!(s.len(), 500);
    }

    #[test]
    fn empty_index_keeps_its_splitters() {
        let s = ShardedRma::with_splitters(small_cfg(4), Splitters::new(vec![10, 20, 30]));
        assert_eq!(s.rebalance_shards(), MaintenanceReport::default());
        assert_eq!(s.num_shards(), 4);
    }

    #[test]
    fn bylen_policy_reproduces_median_splits() {
        let mut cfg = small_cfg(4);
        cfg.balance = BalancePolicy::ByLen;
        let s = ShardedRma::with_splitters(cfg, Splitters::new(vec![1000, 2000, 3000]));
        for k in 0..1000i64 {
            s.insert(k, k);
        }
        let report = s.rebalance_shards();
        assert!(report.splits >= 1);
        // The first split of 0..1000 under ByLen lands at the median.
        assert!(
            s.splitters().keys().contains(&500),
            "median cut expected: {:?}",
            s.splitters().keys()
        );
        s.check_invariants();
    }

    #[test]
    fn relearn_rebuilds_topology_around_the_hotspot() {
        let mut cfg = small_cfg(4);
        cfg.num_shards = 4;
        let s = ShardedRma::with_splitters(cfg, Splitters::new(vec![1000, 2000, 3000]));
        for k in 0..4000i64 {
            s.insert(k, k);
        }
        s.reset_access_stats();
        // Hammer a narrow band inside shard 2.
        for _ in 0..20 {
            for k in 2100..2200i64 {
                let _ = s.get(k);
            }
        }
        let before = s.collect_all();
        let report = s.relearn_splitters();
        assert!(report.relearned, "{report:?}");
        assert!(report.imbalance_before > 3.0, "{report:?}");
        assert!(report.imbalance_predicted < report.imbalance_before);
        s.check_invariants();
        assert_eq!(s.collect_all(), before, "re-learning must not lose data");
        // Most splitters should now sit inside the hammered band.
        let inside = s
            .splitters()
            .keys()
            .iter()
            .filter(|&&k| (2100..2200).contains(&k))
            .count();
        assert!(inside >= 2, "splitters: {:?}", s.splitters().keys());
    }

    #[test]
    fn relearn_skips_balanced_access() {
        let batch: Vec<(i64, i64)> = (0..4000).map(|i| (i, i)).collect();
        let s = ShardedRma::load_bulk(small_cfg(4), &batch);
        // Uniform touches: every key once.
        for k in 0..4000i64 {
            let _ = s.get(k);
        }
        let splitters_before = s.splitters();
        let report = s.relearn_splitters();
        assert!(!report.relearned, "uniform access must not churn");
        assert_eq!(s.splitters(), splitters_before);
    }

    #[test]
    fn relearn_without_any_access_is_a_noop() {
        let batch: Vec<(i64, i64)> = (0..1000).map(|i| (i, i)).collect();
        let s = ShardedRma::load_bulk(small_cfg(4), &batch);
        let report = s.relearn_splitters();
        assert!(!report.relearned);
        assert_eq!(report.imbalance_before, 0.0);
    }

    #[test]
    fn maintain_combines_relearn_and_rebalance() {
        let s = ShardedRma::new(small_cfg(4));
        for k in 0..500i64 {
            s.insert(k, k);
        }
        let (relearn, rebalance) = s.maintain();
        s.check_invariants();
        assert_eq!(s.len(), 500);
        // All mass in shard 0 of a 62-bit uniform topology: either
        // path may fire, but the combination must leave a consistent,
        // more balanced topology.
        assert!(relearn.relearned || rebalance.splits > 0 || rebalance.merges > 0);
    }

    #[test]
    fn concurrent_reads_survive_relearn_publication() {
        // A reader that pinned a pre-step topology must keep serving
        // correct values while the incremental drain publishes one
        // topology per step.
        let mut cfg = small_cfg(4);
        cfg.min_split_len = 64;
        let s = ShardedRma::with_splitters(cfg, Splitters::new(vec![1000, 2000, 3000]));
        for k in 0..4000i64 {
            s.insert(k, k);
        }
        s.reset_access_stats();
        for _ in 0..20 {
            for k in 2100..2200i64 {
                let _ = s.get(k);
            }
        }
        // Plan before the reader starts: its uniform gets would dilute
        // the hot signal the planner needs.
        let mut plan = s.plan_relearn();
        let mut report = plan.relearn_report();
        let stop = AtomicBool::new(false);
        let warmed = AtomicBool::new(false);
        std::thread::scope(|sc| {
            // Stops the reader on every path, so a failed assertion
            // fails the test instead of leaving the reader spinning.
            struct StopOnDrop<'a>(&'a AtomicBool);
            impl Drop for StopOnDrop<'_> {
                fn drop(&mut self) {
                    self.0.store(true, Relaxed);
                }
            }
            let _stop = StopOnDrop(&stop);
            let reader = sc.spawn(|| {
                let mut checked = 0u64;
                loop {
                    for k in (0..4000i64).step_by(97) {
                        assert_eq!(s.get(k), Some(k));
                        checked += 1;
                    }
                    warmed.store(true, Release);
                    if stop.load(Relaxed) {
                        return checked;
                    }
                }
            });
            // The drain starts only once the reader has finished one
            // verified pass, so it overlaps the publications. The
            // reader's own gets move the access mass, so the drain runs
            // with the staleness bound off: they must not drop the plan.
            while !warmed.load(Acquire) && !reader.is_finished() {
                std::thread::yield_now();
            }
            let mut executed = 0;
            while let Some(step) = s.execute_step_with(&mut plan, f64::INFINITY) {
                executed += usize::from(step.executed);
            }
            report.relearned = executed > 0;
            assert!(report.relearned, "{report:?}");
            stop.store(true, Relaxed);
            assert!(reader.join().unwrap() > 0);
        });
        s.check_invariants();
    }

    /// Asserts every shard wires less than 1.25 × the 16 B (key plus
    /// value) its slots need: a whole-array spare buffer left behind
    /// by a load would read about 2×.
    fn assert_no_spare_buffer(s: &ShardedRma, what: &str) {
        for (i, shard) in s.topo().shards.iter().enumerate() {
            let rma = shard.read();
            let slot_bytes = 16 * rma.capacity();
            assert!(
                rma.memory_footprint() * 4 < slot_bytes * 5,
                "{what}: shard {i} wires {} B for {slot_bytes} B of slots",
                rma.memory_footprint()
            );
        }
    }

    #[test]
    fn loaded_and_split_shards_wire_no_spare_buffer() {
        let cfg = ShardConfig {
            num_shards: 4,
            rma: RmaConfig {
                rewiring: RewiringMode::Enabled { page_bytes: 4096 },
                reserve_bytes: 1 << 26,
                huge_pages: false,
                ..Default::default()
            },
            min_split_len: 64,
            ..Default::default()
        };
        let batch: Vec<(i64, i64)> = (0..1 << 16).map(|i| (i, i)).collect();
        let s = ShardedRma::load_bulk(cfg, &batch);
        assert_no_spare_buffer(&s, "load_bulk");
        // A hot band inside shard 0 makes it split into successors.
        s.reset_access_stats();
        for _ in 0..20 {
            for k in 1000..3000i64 {
                let _ = s.get(k);
            }
        }
        let report = s.rebalance_shards();
        assert!(report.splits >= 1, "{report:?}");
        assert_no_spare_buffer(&s, "split successors");
        assert_eq!(s.collect_all(), batch);
    }
}
