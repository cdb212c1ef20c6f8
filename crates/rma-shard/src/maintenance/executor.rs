//! The step executor: applies one [`MaintenanceStep`] at a time, each
//! publishing its own copy-on-write topology through the epoch
//! handle.
//!
//! Execution protocol per step (under the maintenance mutex, which
//! serializes publications but is held only for the *one* step):
//!
//! 1. re-validate the step against the live topology — the plan may
//!    be stale (a concurrent planner, or earlier steps of this very
//!    plan, moved the boundaries); invalid steps are **skipped**,
//!    never mis-applied;
//! 2. write-lock only the shards inside the step's key range
//!    ([`StepGuards`], ascending order), drain them, and build the
//!    replacement shards through the paper's bulk-load machinery,
//!    histograms re-seeded from the parents;
//! 3. retire the drained shards, publish the successor topology
//!    (untouched shards shared by `Arc`), release the locks, and wait
//!    out the reader grace period.
//!
//! Writers therefore only ever queue behind the shards of the step in
//! flight; a writer blocked when a step begins is released when that
//! step publishes — the `fig18_write_stall` benchmark and the
//! writer-progress stress test pin this down.

use super::plan::{MaintenancePlan, MaintenanceStep};
use crate::shard::{Shard, StepGuards, Topology};
use crate::{ShardedRma, Splitters};
use rma_core::Key;
use rma_obs::EventKind;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// Default relative drift bound for the scheduler's staleness check:
/// a plan whose live shard count or total decayed access mass has
/// moved more than this fraction from its anchor since the last
/// progress point has its remaining steps dropped, not executed.
pub(crate) const DEFAULT_STALE_DRIFT: f64 = 0.5;

/// The journal kind for a step.
fn step_kind(step: &MaintenanceStep) -> EventKind {
    match step {
        MaintenanceStep::SplitShard { .. } => EventKind::Split,
        MaintenanceStep::MergePair { .. } => EventKind::Merge,
        MaintenanceStep::NudgeBoundary { .. } => EventKind::Nudge,
        MaintenanceStep::RebuildShard { .. } => EventKind::Rebuild,
        MaintenanceStep::CheckpointShard { .. } => EventKind::Checkpoint,
    }
}

/// What one [`ShardedRma::execute_step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepReport {
    /// The step that was popped from the plan.
    pub step: MaintenanceStep,
    /// False when the step was skipped as stale (or would have
    /// exceeded the per-step element cap).
    pub executed: bool,
    /// Elements moved into rebuilt shards by this step (for a nudge:
    /// just the migrated range).
    pub migrated: u64,
}

/// Aggregate of one [`ShardedRma::drain_plan`] call, by step kind.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Executed [`MaintenanceStep::SplitShard`] steps.
    pub splits: usize,
    /// Executed [`MaintenanceStep::MergePair`] steps.
    pub merges: usize,
    /// Executed [`MaintenanceStep::NudgeBoundary`] steps.
    pub nudges: usize,
    /// Executed [`MaintenanceStep::RebuildShard`] steps.
    pub rebuilds: usize,
    /// Executed [`MaintenanceStep::CheckpointShard`] steps (sealed
    /// checkpoints; failed seals count as skipped).
    pub checkpoints: usize,
    /// Steps skipped as stale.
    pub skipped: usize,
}

impl DrainReport {
    /// Total steps that executed (checkpoints included — they publish
    /// no topology but did their work).
    pub fn executed(&self) -> usize {
        self.splits + self.merges + self.nudges + self.rebuilds + self.checkpoints
    }
}

impl ShardedRma {
    /// Executes the plan's next step (one copy-on-write publication),
    /// returning what happened — or `None` when the plan is drained.
    /// Safe to interleave with any concurrent operation; the step
    /// re-validates against the live topology and is skipped if
    /// stale. This is the background maintainer's pacing primitive.
    pub fn execute_step(&self, plan: &mut MaintenancePlan) -> Option<StepReport> {
        self.execute_step_with(plan, DEFAULT_STALE_DRIFT)
    }

    /// As [`execute_step`](Self::execute_step), with an explicit
    /// staleness bound: before popping, the live shard count and
    /// total decayed access mass are compared against the plan's
    /// anchor (refreshed after every step), and if either drifted
    /// more than `stale_drift` (a relative fraction) the remaining
    /// steps are **dropped** — counted in
    /// [`MaintenanceStats::steps_dropped`](crate::MaintenanceStats),
    /// journaled as [`EventKind::StepDropped`], never executed — and
    /// `None` is returned so the caller re-plans from fresh signals.
    /// A non-finite or non-positive bound disables the check.
    pub fn execute_step_with(
        &self,
        plan: &mut MaintenancePlan,
        stale_drift: f64,
    ) -> Option<StepReport> {
        if plan.is_empty() {
            return None;
        }
        let live_shards = self.num_shards();
        let live_mass: u64 = self.access_masses().iter().sum();
        if plan.is_stale(live_shards, live_mass, stale_drift) {
            let n = plan.drop_remaining();
            self.maint_counters().steps_dropped.fetch_add(n, Relaxed);
            self.obs()
                .log(EventKind::StepDropped, rma_obs::Event::NO_SHARD, 0, n);
            return None;
        }
        let step = plan.pop()?;
        let obs_on = self.obs().enabled();
        // Anchor the journal entry to the step's pre-execution shard
        // index (execution replaces the topology underneath it).
        let anchor = if obs_on { self.step_anchor(&step) } else { 0 };
        let t0 = if obs_on { rma_obs::now_ns() } else { 0 };
        // Consolidation plans run behind the idle gate, so their
        // merges are allowed the wider idle bound.
        let merge_cap = if plan.consolidation_planned() {
            self.consolidation_bound()
        } else {
            self.merge_bound()
        };
        let migrated = {
            let _maint = self.maintenance_guard();
            match step {
                MaintenanceStep::SplitShard { at } => self.exec_split(at),
                MaintenanceStep::MergePair { splitter } => self.exec_merge(splitter, merge_cap),
                MaintenanceStep::NudgeBoundary {
                    from,
                    to,
                    target_key,
                    boundary,
                } => self.exec_nudge(from, to, target_key, boundary),
                MaintenanceStep::RebuildShard { lo, hi } => self.exec_rebuild(lo, hi),
                MaintenanceStep::CheckpointShard { partition } => self.exec_checkpoint(partition),
            }
        };
        let counters = self.maint_counters();
        let report = match migrated {
            Some(moved) => {
                counters.steps_executed.fetch_add(1, Relaxed);
                counters.keys_migrated.fetch_add(moved, Relaxed);
                if matches!(step, MaintenanceStep::NudgeBoundary { .. }) {
                    counters.nudges.fetch_add(1, Relaxed);
                }
                if obs_on {
                    let dur = rma_obs::now_ns().saturating_sub(t0);
                    self.obs().record_step(dur);
                    self.obs().log(step_kind(&step), anchor, dur, moved);
                }
                StepReport {
                    step,
                    executed: true,
                    migrated: moved,
                }
            }
            None => {
                counters.steps_skipped.fetch_add(1, Relaxed);
                StepReport {
                    step,
                    executed: false,
                    migrated: 0,
                }
            }
        };
        // Re-anchor at the post-step state: the step itself may have
        // changed the shard count, and the plan's own progress must
        // never read as drift.
        plan.reanchor(self.num_shards(), self.access_masses().iter().sum());
        Some(report)
    }

    /// Executes every remaining step back-to-back (the synchronous
    /// mode behind [`maintain`](Self::maintain) and the tests).
    pub fn drain_plan(&self, plan: &mut MaintenancePlan) -> DrainReport {
        let mut report = DrainReport::default();
        while let Some(sr) = self.execute_step(plan) {
            if !sr.executed {
                report.skipped += 1;
                continue;
            }
            match sr.step {
                MaintenanceStep::SplitShard { .. } => report.splits += 1,
                MaintenanceStep::MergePair { .. } => report.merges += 1,
                MaintenanceStep::NudgeBoundary { .. } => report.nudges += 1,
                MaintenanceStep::RebuildShard { .. } => report.rebuilds += 1,
                MaintenanceStep::CheckpointShard { .. } => report.checkpoints += 1,
            }
        }
        report
    }

    /// The shard index a step's journal entry is anchored to, on the
    /// topology current *before* execution (the left shard for merges
    /// and nudges).
    fn step_anchor(&self, step: &MaintenanceStep) -> u32 {
        let topo = self.topo();
        match *step {
            MaintenanceStep::SplitShard { at } => topo.splitters.route(at) as u32,
            MaintenanceStep::MergePair { splitter } => {
                topo.splitters.route(splitter).saturating_sub(1) as u32
            }
            MaintenanceStep::NudgeBoundary { from, .. } => from as u32,
            MaintenanceStep::RebuildShard { lo, .. } => {
                lo.map_or(0, |l| topo.splitters.route(l)) as u32
            }
            // Checkpoints are partition-scoped, not shard-scoped: the
            // journal's `shard` field carries the partition index.
            MaintenanceStep::CheckpointShard { partition } => partition as u32,
        }
    }

    /// Retires the drained shards, publishes the successor topology,
    /// releases the step's locks, and waits out the reader grace
    /// period — the shared tail of every step.
    fn publish_step(&self, guards: StepGuards<'_>, next: Topology) {
        guards.retire_all();
        let next_shards = next.shards.len() as u64;
        let retired = self.publish(next);
        // The locked window ends here: record it just before release.
        // Shell pre-creation and the grace wait below run outside the
        // locks, so they are deliberately *not* part of this stat —
        // it bounds what a queued writer could have waited.
        let held_ns = guards.held().as_nanos() as u64;
        self.maint_counters()
            .max_step_wall_ns
            .fetch_max(held_ns, Relaxed);
        self.obs().log(
            EventKind::TopologyPublish,
            rma_obs::Event::NO_SHARD,
            held_ns,
            next_shards,
        );
        // Release the shard locks before the grace wait: queued
        // writers must be able to wake and re-route.
        drop(guards);
        self.topo_handle().reclaim(retired);
    }

    /// Split the shard containing `at` so `at` becomes a splitter.
    fn exec_split(&self, at: Key) -> Option<u64> {
        let topo = self.topo_handle().load_exclusive();
        let i = topo.splitters.route(at);
        let (lower, _) = topo.splitters.range_of(i);
        if lower == Some(at) {
            return None; // already a boundary: stale step
        }
        // Shells first: the memfd + reservation setup runs while
        // writers still own the shard.
        let (left_shell, right_shell) = (self.shard_shell(), self.shard_shell());
        let parent_wb = topo.shards[i].stats.weighted_buckets();
        let mut splitters = topo.splitters.clone();
        splitters.split_shard(i, at);
        let guards = StepGuards::lock(&topo.shards, i..=i);
        let elems = guards.collect_elems();
        let cut = elems.partition_point(|p| p.0 < at);
        let left = self.finish_shard(left_shell, &splitters, i, &elems[..cut], &parent_wb);
        let right = self.finish_shard(right_shell, &splitters, i + 1, &elems[cut..], &parent_wb);
        let mut shards = topo.shards.clone();
        shards[i] = left;
        shards.insert(i + 1, right);
        self.publish_step(guards, Topology { splitters, shards });
        Some(elems.len() as u64)
    }

    /// The largest shard a merge may produce: twice the per-step work
    /// cap (one merge *is* the step, so this directly bounds its
    /// locked window), further clamped to the `max_shard_len`
    /// backstop when one is configured — merging past the backstop
    /// would just make the next round split the result again
    /// (a permanent merge/split oscillation).
    pub(crate) fn merge_bound(&self) -> usize {
        let cap = self.cfg.max_step_elems.saturating_mul(2);
        self.cfg.max_shard_len.map_or(cap, |m| cap.min(m))
    }

    /// The wider merge bound the idle-time consolidation chain plans
    /// and executes against. [`merge_bound`](Self::merge_bound)
    /// protects *foreground* writers — a merge is one locked window,
    /// so under load it must stay inside the per-step work cap — but
    /// consolidation only runs once the op-rate gate says the index
    /// is idle, and with the strict cap a topology whose natural
    /// shard size exceeds `2 x max_step_elems` could never merge at
    /// all, leaving the configured target unreachable at scale. The
    /// idle bound therefore also admits any merge no bigger than two
    /// average target-count shards, still clamped to the
    /// `max_shard_len` backstop.
    pub(crate) fn consolidation_bound(&self) -> usize {
        let natural = (self.len() / self.cfg.num_shards.max(1)).saturating_mul(2);
        let widened = self.merge_bound().max(natural);
        self.cfg.max_shard_len.map_or(widened, |m| widened.min(m))
    }

    /// Remove `splitter`, merging its two adjacent shards — unless it
    /// vanished (stale) or the merged shard would exceed `bound`
    /// ([`merge_bound`](Self::merge_bound) for load-driven plans, the
    /// wider [`consolidation_bound`](Self::consolidation_bound) for
    /// idle consolidation).
    fn exec_merge(&self, splitter: Key, bound: usize) -> Option<u64> {
        let topo = self.topo_handle().load_exclusive();
        let l = topo.splitters.keys().binary_search(&splitter).ok()?;
        // Cheap pre-check against the lock-free lengths before paying
        // for a shell or the locks.
        let rough: usize = topo.shards[l..=l + 1]
            .iter()
            .map(|s| s.try_optimistic(|rma| rma.len()).unwrap_or(0))
            .sum();
        if rough > bound {
            return None; // would blow the per-step work bound
        }
        let shell = self.shard_shell();
        let pair_wb = super::pair_weighted_buckets(topo, l);
        let mut splitters = topo.splitters.clone();
        splitters.merge_with_next(l);
        let guards = StepGuards::lock(&topo.shards, l..=l + 1);
        let elems = guards.collect_elems();
        if elems.len() > bound {
            return None; // re-check under the locks (lengths moved)
        }
        let merged = self.finish_shard(shell, &splitters, l, &elems, &pair_wb);
        let mut shards = topo.shards.clone();
        shards[l] = merged;
        shards.remove(l + 1);
        self.publish_step(guards, Topology { splitters, shards });
        Some(elems.len() as u64)
    }

    /// Move the boundary between adjacent shards `from`/`to` to
    /// `target`, migrating the key range in between: bulk-extract it
    /// from the donor's sorted run and bulk-append it into the
    /// receiver's rebuild. Both shards are replaced copy-on-write (an
    /// in-place move would let a reader pinned to the previous
    /// topology see the migrated keys twice — or not at all).
    fn exec_nudge(&self, from: usize, to: usize, target: Key, expected: Key) -> Option<u64> {
        let topo = self.topo_handle().load_exclusive();
        let n = topo.shards.len();
        if from >= n || to >= n || from.abs_diff(to) != 1 {
            return None;
        }
        let l = from.min(to);
        let boundary = *topo.splitters.keys().get(l)?;
        if boundary != expected {
            return None; // the topology shifted under the plan: stale
        }
        let (pair_lo, _) = topo.splitters.range_of(l);
        let (_, pair_hi) = topo.splitters.range_of(l + 1);
        if target == boundary
            || pair_lo.is_some_and(|lo| target <= lo)
            || pair_hi.is_some_and(|hi| target >= hi)
        {
            return None;
        }
        // Direction re-validation: moving the boundary left sheds
        // `[target, boundary)` from the left shard; the planned donor
        // must agree or the plan is stale.
        if (target < boundary) != (from == l) {
            return None;
        }
        let pair_wb = super::pair_weighted_buckets(topo, l);
        let (left_shell, right_shell) = (self.shard_shell(), self.shard_shell());
        let guards = StepGuards::lock(&topo.shards, l..=l + 1);
        let mut left_elems = Vec::new();
        guards.guards()[0].rma().collect_into(&mut left_elems);
        let mut right_elems = Vec::new();
        guards.guards()[1].rma().collect_into(&mut right_elems);
        let (new_left, new_right, moved) = if target < boundary {
            // Left shard donates its suffix `[target, boundary)`.
            let cut = left_elems.partition_point(|p| p.0 < target);
            let mut receiver = left_elems.split_off(cut);
            let moved = receiver.len();
            receiver.extend_from_slice(&right_elems);
            (left_elems, receiver, moved)
        } else {
            // Right shard donates its prefix `[boundary, target)`.
            let cut = right_elems.partition_point(|p| p.0 < target);
            let rest = right_elems.split_off(cut);
            let moved = right_elems.len();
            left_elems.extend_from_slice(&right_elems);
            (left_elems, rest, moved)
        };
        let mut keys = topo.splitters.keys().to_vec();
        keys[l] = target;
        let splitters = Splitters::new(keys);
        let left = self.finish_shard(left_shell, &splitters, l, &new_left, &pair_wb);
        let right = self.finish_shard(right_shell, &splitters, l + 1, &new_right, &pair_wb);
        let mut shards = topo.shards.clone();
        shards[l] = left;
        shards[l + 1] = right;
        self.publish_step(guards, Topology { splitters, shards });
        Some(moved as u64)
    }

    /// Rebuild the key range `[lo, hi)` into exactly one shard,
    /// carving partial overlaps out of the edge shards (which are
    /// rebuilt as the prefix/suffix remainders).
    fn exec_rebuild(&self, lo: Option<Key>, hi: Option<Key>) -> Option<u64> {
        if let (Some(l), Some(h)) = (lo, hi) {
            if h <= l {
                return None; // degenerate range: malformed step
            }
        }
        let topo = self.topo_handle().load_exclusive();
        let n = topo.shards.len();
        let j0 = lo.map_or(0, |l| topo.splitters.route(l));
        let j1 = hi.map_or(n - 1, |h| topo.splitters.route(h.saturating_sub(1)));
        if j1 < j0 {
            return None;
        }
        let (union_lo, _) = topo.splitters.range_of(j0);
        let (_, union_hi) = topo.splitters.range_of(j1);
        if j0 == j1 && union_lo == lo && union_hi == hi {
            return Some(0); // the range already is exactly one shard
        }
        let need_prefix = lo != union_lo;
        let need_suffix = hi != union_hi;
        // Cheap lock-free pre-check before paying for shells or the
        // locks, on the same measure the planner capped (the union's
        // total residency) with the same slack as the locked re-check
        // below: if the overlapped shards already exceed it, the step
        // is stale and re-planning is cheaper than draining.
        let cap = self.cfg.max_step_elems;
        let rough: usize = topo.shards[j0..=j1]
            .iter()
            .map(|s| s.try_optimistic(|rma| rma.len()).unwrap_or(0))
            .sum();
        if rough > cap + cap / 2 {
            return None;
        }
        let shells: Vec<_> = (0..1 + usize::from(need_prefix) + usize::from(need_suffix))
            .map(|_| self.shard_shell())
            .collect();
        let guards = StepGuards::lock(&topo.shards, j0..=j1);
        let elems = guards.collect_elems();
        // Re-check the actual residents under the locks, with slack:
        // the planner capped the same measure (the union's residency)
        // from slightly stale lengths, and skipping on a small drift
        // would just re-plan the same range forever. In SLO
        // deployments the admission additionally clamps to the
        // `max_shard_len` backstop — their whole point is that no
        // locked window outgrows the step budget. Anything past that
        // is a monolithic stall in the making and is refused (the
        // planner falls back to split/merge alignment for the range
        // on its next pass).
        let admit = cap + cap / 2;
        let admit = self
            .cfg
            .max_shard_len
            .map_or(admit, |m| admit.min(m.max(cap)));
        if elems.len() > admit {
            return None;
        }
        let p = lo.map_or(0, |l| elems.partition_point(|e| e.0 < l));
        let q = hi.map_or(elems.len(), |h| elems.partition_point(|e| e.0 < h));
        let union_wb: Vec<(Key, Key, u64)> = topo.shards[j0..=j1]
            .iter()
            .flat_map(|s| s.stats.weighted_buckets())
            .collect();
        // Successor splitters: drop the union's internal boundaries,
        // then pin `lo`/`hi` where they cut an edge shard in two.
        let mut keys = topo.splitters.keys().to_vec();
        keys.drain(j0..j1);
        let mut insert_at = j0;
        if need_prefix {
            keys.insert(insert_at, lo.expect("bounded prefix edge"));
            insert_at += 1;
        }
        if need_suffix {
            keys.insert(insert_at, hi.expect("bounded suffix edge"));
        }
        let splitters = Splitters::new(keys);
        let mut built: Vec<Arc<Shard>> = Vec::with_capacity(3);
        let mut shells = shells.into_iter();
        let mut idx = j0;
        if need_prefix {
            let shell = shells.next().expect("one shell per built shard");
            built.push(self.finish_shard(shell, &splitters, idx, &elems[..p], &union_wb));
            idx += 1;
        }
        let shell = shells.next().expect("one shell per built shard");
        built.push(self.finish_shard(shell, &splitters, idx, &elems[p..q], &union_wb));
        idx += 1;
        if need_suffix {
            let shell = shells.next().expect("one shell per built shard");
            built.push(self.finish_shard(shell, &splitters, idx, &elems[q..], &union_wb));
        }
        let mut shards = topo.shards.clone();
        shards.splice(j0..=j1, built);
        self.publish_step(guards, Topology { splitters, shards });
        Some((q - p) as u64)
    }

    /// Seal a checkpoint of durability partition `p`: under write
    /// locks on every shard overlapping the partition's key range,
    /// draw the cut LSN (no same-partition append can race it — the
    /// sink logs under these very locks) and copy the residents out;
    /// then release the locks and do the file I/O. Unlike every other
    /// step this restructures nothing: no shard is retired, no
    /// topology published, so the locked window is one read sweep of
    /// the partition.
    fn exec_checkpoint(&self, p: usize) -> Option<u64> {
        let sink = Arc::clone(self.durability()?);
        if p >= sink.partitions() {
            return None;
        }
        let (lo, hi) = sink.partition_range(p);
        let topo = self.topo_handle().load_exclusive();
        let n = topo.shards.len();
        let j0 = lo.map_or(0, |l| topo.splitters.route(l));
        let j1 = hi.map_or(n - 1, |h| topo.splitters.route(h.saturating_sub(1)));
        let (cut, elems) = {
            let guards = StepGuards::lock(&topo.shards, j0..=j1);
            let cut = sink.checkpoint_cut(p);
            let mut elems = guards.collect_elems();
            // Edge shards may straddle the partition boundary; the
            // checkpoint owns exactly `[lo, hi)`.
            elems.retain(|&(k, _)| lo.is_none_or(|l| k >= l) && hi.is_none_or(|h| k < h));
            (cut, elems)
        };
        sink.seal_checkpoint(p, cut, &elems)
            .then_some(elems.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use crate::maintenance::plan::MaintenanceStep;
    use crate::tests::small_cfg;
    use crate::{RelearnStrategy, ShardedRma, Splitters};

    /// Hand-built plans exercise each step kind through the public
    /// plan type? No — plans only come from planners; these tests
    /// drive the executor through planner output and direct
    /// single-step execution.
    #[test]
    fn each_executed_step_publishes_one_topology() {
        let s = ShardedRma::with_splitters(small_cfg(4), Splitters::new(vec![1000, 2000, 3000]));
        for k in 0..4000i64 {
            s.insert(k, k);
        }
        s.reset_access_stats();
        for _ in 0..20 {
            for k in 2100..2200i64 {
                let _ = s.get(k);
            }
        }
        let mut plan = s.plan_relearn();
        assert!(!plan.is_empty(), "hot band must produce a plan");
        let planned = plan.len();
        let before = s.maintenance_stats();
        let mut published = 0u64;
        while let Some(report) = s.execute_step(&mut plan) {
            let now = s.maintenance_stats().topologies_published;
            if report.executed && report.migrated > 0 {
                assert!(now > published, "executed step must publish");
            }
            assert!(
                now - published <= 1,
                "a step may publish at most one topology"
            );
            published = now;
            s.check_invariants(); // every intermediate topology is consistent
        }
        let after = s.maintenance_stats();
        assert_eq!(
            after.steps_executed + after.steps_skipped
                - before.steps_executed
                - before.steps_skipped,
            planned as u64
        );
        assert_eq!(s.len(), 4000);
    }

    #[test]
    fn stale_merge_step_is_skipped_not_misapplied() {
        let s = ShardedRma::with_splitters(
            small_cfg(16),
            Splitters::new((1..16).map(|i| i * 100).collect()),
        );
        for k in 0..100i64 {
            s.insert(k, k);
            s.insert(1500 + k, k);
        }
        let mut plan = s.plan_rebalance();
        assert!(!plan.is_empty());
        // Drain once: the cold pairs merge and their splitters vanish.
        let first = s.drain_plan(&mut plan);
        assert!(first.merges >= 1);
        // Re-plan against the *old* state by rebuilding the same plan
        // is impossible from outside; instead re-execute a plan built
        // before a second drain mutates the topology underneath it.
        let mut stale = s.plan_rebalance();
        let content = s.collect_all();
        s.rebalance_shards(); // mutates the topology under `stale`
        let drained = s.drain_plan(&mut stale);
        let _ = drained; // some steps may still apply; none may corrupt
        s.check_invariants();
        assert_eq!(s.collect_all(), content, "stale steps must not lose data");
    }

    #[test]
    fn nudge_step_migrates_the_boundary_range() {
        let mut cfg = small_cfg(2);
        cfg.relearn_strategy = RelearnStrategy::NudgeOnly;
        let s = ShardedRma::with_splitters(cfg, Splitters::new(vec![1000]));
        for k in 0..2000i64 {
            s.insert(k, k);
        }
        s.reset_access_stats();
        // Hammer a band straddling nothing: all mass in shard 0's top
        // quarter, so the boundary should nudge left toward it.
        for _ in 0..50 {
            for k in 800..1000i64 {
                let _ = s.get(k);
            }
        }
        let before = s.collect_all();
        let mut plan = s.plan_relearn();
        assert!(
            plan.steps()
                .all(|st| matches!(st, MaintenanceStep::NudgeBoundary { .. })),
            "NudgeOnly must plan only nudges: {plan:?}"
        );
        assert!(!plan.is_empty(), "lopsided pair must plan a nudge");
        let drained = s.drain_plan(&mut plan);
        assert_eq!(drained.nudges, 1, "{drained:?}");
        s.check_invariants();
        assert_eq!(s.collect_all(), before, "nudge must not lose data");
        let moved = s.splitters().keys()[0];
        assert!(
            (790..1000).contains(&moved),
            "boundary should chase the hot band: {moved}"
        );
        assert_eq!(s.num_shards(), 2, "nudges never change the shard count");
        assert!(s.maintenance_stats().nudges >= 1);
        assert!(s.maintenance_stats().keys_migrated > 0);
    }

    #[test]
    fn rebuild_step_consolidates_a_range_spanning_shards() {
        // Directly exercise exec_rebuild through a relearn whose
        // target ranges span multiple current shards: hammer one band
        // across a fragmented topology.
        let mut cfg = small_cfg(8);
        cfg.num_shards = 2;
        let s = ShardedRma::with_splitters(cfg, Splitters::new((1..8).map(|i| i * 500).collect()));
        for k in 0..4000i64 {
            s.insert(k, k);
        }
        s.reset_access_stats();
        for _ in 0..50 {
            for k in 3800..4000i64 {
                let _ = s.get(k);
            }
        }
        let before = s.collect_all();
        let report = s.relearn_splitters();
        assert!(report.relearned, "{report:?}");
        s.check_invariants();
        assert_eq!(s.collect_all(), before);
        // The re-learn steers toward cfg.num_shards = 2: the cold
        // left shards must have been consolidated by range rebuilds.
        assert!(
            s.num_shards() < 8,
            "cold ranges must consolidate: {} shards",
            s.num_shards()
        );
    }

    #[test]
    fn rebalance_plan_pops_splits_before_merges() {
        // Hot shard 0 plus cold pairs on the right: the plan must
        // contain both kinds, and the priority queue must yield every
        // split before any merge (splits live a tier above).
        let s = ShardedRma::with_splitters(
            small_cfg(16),
            Splitters::new((1..16).map(|i| i * 100).collect()),
        );
        for k in 0..100i64 {
            s.insert(k, k);
            s.insert(1500 + k, k);
        }
        for _ in 0..50 {
            for k in 0..100i64 {
                let _ = s.get(k);
            }
        }
        let plan = s.plan_rebalance();
        let kinds: Vec<bool> = plan
            .steps()
            .map(|st| matches!(st, MaintenanceStep::SplitShard { .. }))
            .collect();
        assert!(kinds.iter().any(|&k| k), "hot shard must plan a split");
        assert!(kinds.iter().any(|&k| !k), "cold pairs must plan merges");
        let first_merge = kinds.iter().position(|&k| !k).expect("has a merge");
        assert!(
            kinds[first_merge..].iter().all(|&k| !k),
            "all splits must pop before any merge: {kinds:?}"
        );
    }

    #[test]
    fn consolidation_targets_the_coldest_pairs_first() {
        let mut cfg = small_cfg(8);
        cfg.num_shards = 4;
        let s = ShardedRma::with_splitters(cfg, Splitters::new((1..8).map(|i| i * 1000).collect()));
        for k in 0..8000i64 {
            s.insert(k, k);
        }
        s.reset_access_stats();
        // Shards 0..4 hot, 4..8 cold: the first merges must come from
        // the cold right half.
        for _ in 0..20 {
            for k in 0..4000i64 {
                let _ = s.get(k);
            }
        }
        let mut plan = s.plan_consolidation();
        assert!(plan.consolidation_planned());
        assert!(
            plan.len() <= 4,
            "must not merge past the target: {}",
            plan.len()
        );
        let first = *plan.steps().next().expect("plans at least one merge");
        let MaintenanceStep::MergePair { splitter } = first else {
            panic!("consolidation plans only merges: {first:?}");
        };
        assert!(
            splitter >= 4000,
            "coldest pair must pop first, got splitter {splitter}"
        );
        let before = s.collect_all();
        let drained = s.drain_plan(&mut plan);
        assert!(drained.merges >= 1, "{drained:?}");
        s.check_invariants();
        assert_eq!(s.collect_all(), before, "merges must not lose data");
        assert!(s.num_shards() >= 4, "never below the configured target");
        // Synchronous chain walks all the way down to the target.
        s.compact();
        assert_eq!(s.num_shards(), 4);
        assert!(s.plan_consolidation().is_empty(), "at target: no churn");
    }

    #[test]
    fn consolidation_outruns_the_write_stall_merge_bound() {
        // Shards so large that no pair fits the foreground per-step
        // work cap: load-driven merges are rightly impossible, but
        // the idle chain must still be able to reach the target via
        // the wider consolidation bound.
        let mut cfg = small_cfg(8);
        cfg.num_shards = 2;
        cfg.max_step_elems = 128; // merge_bound = 256 < any 400+400 pair
        let s = ShardedRma::with_splitters(cfg, Splitters::new((1..8).map(|i| i * 400).collect()));
        for k in 0..3200i64 {
            s.insert(k, k);
        }
        assert!(s.merge_bound() < 800, "pairs must exceed the strict cap");
        assert!(
            s.consolidation_bound() >= 3200,
            "idle bound must admit two natural target shards: {}",
            s.consolidation_bound()
        );
        let before = s.collect_all();
        let merges = s.compact();
        assert_eq!(merges, 6, "8 shards must consolidate to the target of 2");
        assert_eq!(s.num_shards(), 2);
        s.check_invariants();
        assert_eq!(s.collect_all(), before, "compaction must not lose data");
    }

    #[test]
    fn stale_plan_tail_is_dropped_and_counted() {
        let s = ShardedRma::with_splitters(
            small_cfg(16),
            Splitters::new((1..16).map(|i| i * 100).collect()),
        );
        for k in 0..1600i64 {
            s.insert(k, k);
        }
        assert!(
            s.plan_consolidation().is_empty(),
            "at target: nothing to consolidate"
        );
        // Build a real plan against a fragmented configuration.
        let mut cfg2 = small_cfg(16);
        cfg2.num_shards = 2;
        let frag =
            ShardedRma::with_splitters(cfg2, Splitters::new((1..16).map(|i| i * 100).collect()));
        for k in 0..1600i64 {
            frag.insert(k, k);
        }
        let mut plan = frag.plan_consolidation();
        let planned = plan.len();
        assert!(planned > 1, "fragmented index must plan merges");
        // Mutate the world out from under the plan.
        let merged = frag.compact();
        assert!(merged > 0);
        let content = frag.collect_all();
        // A tiny drift bound must drop the whole remaining plan.
        let before = frag.maintenance_stats().steps_dropped;
        assert!(frag.execute_step_with(&mut plan, 1e-6).is_none());
        let stats = frag.maintenance_stats();
        assert_eq!(
            stats.steps_dropped - before,
            planned as u64,
            "every un-executed step must be counted as dropped"
        );
        assert_eq!(plan.dropped(), planned as u64);
        assert!(plan.is_empty());
        frag.check_invariants();
        assert_eq!(frag.collect_all(), content, "drops must not touch data");
    }

    #[test]
    fn uniform_load_plans_zero_steps() {
        let batch: Vec<(i64, i64)> = (0..8000).map(|i| (i, i)).collect();
        let s = ShardedRma::load_bulk(small_cfg(8), &batch);
        for k in 0..8000i64 {
            let _ = s.get(k);
        }
        assert!(
            s.plan_maintenance().is_empty(),
            "uniform load must not churn"
        );
        assert_eq!(s.maintenance_stats().plans, 0);
        assert_eq!(s.maintenance_stats().steps_planned, 0);
    }

    #[test]
    fn oversized_cold_range_stays_subdivided_under_the_step_cap() {
        // A tiny max_step_elems forces the planner down the
        // split+capped-merge path: the hot band still gets its
        // splitters, merges that would exceed the cap are refused,
        // and no executed step ever moves more than the cap.
        let mut cfg = small_cfg(4);
        cfg.max_step_elems = 256;
        let s = ShardedRma::with_splitters(cfg, Splitters::new(vec![1000, 2000, 3000]));
        for k in 0..4000i64 {
            s.insert(k, k);
        }
        s.reset_access_stats();
        for _ in 0..30 {
            for k in 3900..4000i64 {
                let _ = s.get(k);
            }
        }
        let before = s.collect_all();
        let report = s.relearn_splitters();
        s.check_invariants();
        assert_eq!(s.collect_all(), before);
        let stats = s.maintenance_stats();
        assert!(report.relearned, "{report:?} {stats:?}");
        // 4000 cold residents over a 256-element cap: consolidation
        // into one cold shard is impossible, so the topology keeps
        // intermediate boundaries instead of stalling on a huge step.
        assert!(
            s.num_shards() > s.config().num_shards,
            "cap must leave extra shards: {}",
            s.num_shards()
        );
    }
}
