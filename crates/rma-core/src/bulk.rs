//! Batch updates (§III "Bulk loading").
//!
//! The paper's **bottom-up** scheme works in three passes over a
//! sorted batch:
//!
//! 1. route every batch element to its target segment and compute the
//!    segments' *final* cardinalities;
//! 2. walk the touched segments and, for each overflow, find the
//!    smallest calibrator window whose upper threshold absorbs the new
//!    total — merging overlapping windows;
//! 3. left to right: segments not covered by a window merge their run
//!    in place; each window is rebalanced once, merging its runs with
//!    its existing elements.
//!
//! The **top-down** scheme of Durand et al. (VRIPHYS 2012) — the
//! paper's baseline — propagates the batch from the calibrator root:
//! when a child's (tighter) threshold would be violated, the *parent*
//! window is rebalanced with the batch merged in. Starting from the
//! top, where densities are tighter, causes rebalances the bottom-up
//! scheme avoids (the effect measured in Fig. 13b).
//!
//! A batch that overflows the whole array (always the case for an
//! empty RMA) skips the passes: one layout pass at the grown capacity
//! writes the stored elements merged with the batch straight into
//! their final slots. Into an empty RMA it writes each pair once, in
//! place, with no auxiliary buffer and no spare pages left wired.
//!
//! Batches with deletions run an initial deletion pass with rebalances
//! disabled, then load the insertions.

use crate::rma::Rma;
use crate::{Key, Value};

impl Rma {
    /// Bottom-up bulk load of a batch sorted by key.
    ///
    /// Duplicates follow the [`insert`](Rma::insert) contract with the
    /// batch as the newest writes: a batch entry lands ahead of the
    /// elements already stored under its key, and equal keys within
    /// the batch keep their batch order (the first is the newest). So
    /// loading an RMA's own [`iter`](Rma::iter) order into an empty
    /// RMA reproduces it exactly.
    ///
    /// A batch the array cannot absorb, which includes any batch into
    /// an empty RMA, is laid out in one pass at the grown capacity
    /// (an even spread, at most `B − 1` per segment); into an empty
    /// RMA every pair is written once, straight into its final slot.
    pub fn load_bulk(&mut self, batch: &[(Key, Value)]) {
        debug_assert!(
            batch.windows(2).all(|w| w[0].0 <= w[1].0),
            "bulk batch must be sorted"
        );
        if batch.is_empty() {
            return;
        }
        // Pass 1: final cardinality per segment.
        let runs = self.route_batch(batch);
        let m = self.num_segments_internal();
        let b = self.segment_size_internal();
        let new_cards: Vec<usize> = (0..m)
            .map(|s| self.card_internal(s) + runs[s].len())
            .collect();

        // Global overflow: fall back to a rebuild at grown capacity.
        let total: usize = new_cards.iter().sum();
        let height = self.height_internal();
        let root_max = self
            .thresholds_internal()
            .max_card(height, height, m * b)
            .min(m * (b - 1));
        if total > root_max {
            self.rebuild_with_batch(batch);
            return;
        }

        // Pass 2: windows for overflowing segments, merged when they
        // overlap (windows at the same level are aligned, so any two
        // overlapping windows are nested — keep the larger).
        let windows = self.plan_windows(&new_cards);

        // Pass 3: apply right-to-left so slot movements of one window
        // never disturb the unprocessed segments to its left.
        let mut covered = vec![false; m];
        for w in &windows {
            for s in w.clone() {
                covered[s] = true;
            }
        }
        for w in windows.iter().rev() {
            self.merge_window(w.clone(), batch, &runs);
        }
        for s in (0..m).rev() {
            if !covered[s] && !runs[s].is_empty() {
                self.merge_segment(s, &batch[runs[s].clone()]);
            }
        }
        self.note_bulk_inserted(batch.len());
    }

    /// Top-down bulk load (the DRF12 baseline).
    pub fn load_bulk_top_down(&mut self, batch: &[(Key, Value)]) {
        debug_assert!(
            batch.windows(2).all(|w| w[0].0 <= w[1].0),
            "bulk batch must be sorted"
        );
        if batch.is_empty() {
            return;
        }
        let runs = self.route_batch(batch);
        let m = self.num_segments_internal();
        let b = self.segment_size_internal();
        let total: usize = (0..m)
            .map(|s| self.card_internal(s) + runs[s].len())
            .collect::<Vec<_>>()
            .iter()
            .sum();
        let height = self.height_internal();
        let root_max = self
            .thresholds_internal()
            .max_card(height, height, m * b)
            .min(m * (b - 1));
        if total > root_max {
            self.rebuild_with_batch(batch);
            return;
        }
        self.top_down_rec(0..m, height, batch, &runs);
        self.note_bulk_inserted(batch.len());
    }

    /// Batch with both insertions and deletions: deletions first (no
    /// rebalances), then the insertion load. `deletes` are exact keys;
    /// missing keys are ignored. Returns the number actually deleted.
    pub fn apply_batch(&mut self, inserts: &[(Key, Value)], deletes: &[Key]) -> usize {
        let deleted = self.delete_pass(deletes);
        self.load_bulk(inserts);
        deleted
    }

    fn top_down_rec(
        &mut self,
        segs: std::ops::Range<usize>,
        level: usize,
        batch: &[(Key, Value)],
        runs: &[std::ops::Range<usize>],
    ) {
        let m = segs.len();
        let b = self.segment_size_internal();
        if m == 1 {
            let s = segs.start;
            if !runs[s].is_empty() {
                self.merge_segment(s, &batch[runs[s].clone()]);
            }
            return;
        }
        // Check each child; a violated child threshold rebalances the
        // *current* window with the batch merged in.
        let half = 1usize << (usize::BITS - 1 - (m - 1).leading_zeros());
        let height = self.height_internal();
        let children = [segs.start..segs.start + half, segs.start + half..segs.end];
        for child in &children {
            let cap = child.len() * b;
            let new_total: usize = child
                .clone()
                .map(|s| self.card_internal(s) + runs[s].len())
                .sum();
            let child_level = level.saturating_sub(1).max(1);
            let max = self
                .thresholds_internal()
                .max_card(child_level, height, cap)
                .min(child.len() * if child.len() == 1 { b } else { b - 1 });
            if new_total > max {
                self.merge_window(segs, batch, runs);
                return;
            }
        }
        for child in children {
            if child.clone().any(|s| !runs[s].is_empty()) {
                self.top_down_rec(child, level - 1, batch, runs);
            }
        }
    }
}

// ----------------------------------------------------------------- //
// Internal passes shared by the bottom-up and top-down schemes.      //
// ----------------------------------------------------------------- //

use crate::rma::{cap_targets, even_targets, merge_newest_first};

impl Rma {
    pub(crate) fn num_segments_internal(&self) -> usize {
        self.storage.seg_count()
    }

    pub(crate) fn segment_size_internal(&self) -> usize {
        self.cfg.segment_size
    }

    pub(crate) fn card_internal(&self, s: usize) -> usize {
        self.storage.card(s)
    }

    pub(crate) fn height_internal(&self) -> usize {
        self.height()
    }

    pub(crate) fn thresholds_internal(&self) -> &crate::thresholds::Thresholds {
        &self.cfg.thresholds
    }

    pub(crate) fn note_bulk_inserted(&mut self, n: usize) {
        self.len += n;
    }

    /// Pass 1: the contiguous batch run destined for each segment,
    /// routed like [`insert`](Rma::insert): a key equal to a separator
    /// goes to the segment before it, the key's global lower bound.
    pub(crate) fn route_batch(&self, batch: &[(Key, Value)]) -> Vec<std::ops::Range<usize>> {
        let m = self.storage.seg_count();
        let mut runs = Vec::with_capacity(m);
        let mut cursor = 0usize;
        for s in 0..m {
            if s + 1 < m {
                let sep = self
                    .index
                    .separator(s + 1)
                    .expect("separator for non-zero segment");
                let end = cursor + batch[cursor..].partition_point(|p| p.0 <= sep);
                runs.push(cursor..end);
                cursor = end;
            } else {
                runs.push(cursor..batch.len());
            }
        }
        runs
    }

    /// Pass 2: the smallest window absorbing each overflowing segment,
    /// with overlapping windows merged.
    pub(crate) fn plan_windows(&self, new_cards: &[usize]) -> Vec<std::ops::Range<usize>> {
        let m = self.storage.seg_count();
        let b = self.cfg.segment_size;
        let height = self.height();
        let mut raw: Vec<std::ops::Range<usize>> = Vec::new();
        for s in 0..m {
            if new_cards[s] <= b {
                continue;
            }
            let mut w = 2usize;
            let mut level = 2usize;
            loop {
                assert!(level <= height, "global pre-check guarantees a window");
                let start = (s / w) * w;
                let end = (start + w).min(m);
                let cap = (end - start) * b;
                let total: usize = new_cards[start..end].iter().sum();
                let max = self
                    .cfg
                    .thresholds
                    .max_card(level, height, cap)
                    .min((end - start) * (b - 1));
                if total <= max {
                    raw.push(start..end);
                    break;
                }
                w *= 2;
                level += 1;
            }
        }
        raw.sort_by_key(|r| (r.start, std::cmp::Reverse(r.end)));
        let mut merged: Vec<std::ops::Range<usize>> = Vec::new();
        for r in raw {
            match merged.last_mut() {
                Some(last) if r.start < last.end => last.end = last.end.max(r.end),
                _ => merged.push(r),
            }
        }
        merged
    }

    /// Pass 3a: merges a batch run into one segment in place.
    pub(crate) fn merge_segment(&mut self, s: usize, run: &[(Key, Value)]) {
        let b = self.cfg.segment_size;
        let card = self.storage.card(s);
        assert!(card + run.len() <= b, "segment overflow in merge");
        self.scratch_keys.clear();
        self.scratch_vals.clear();
        let stored = self
            .storage
            .seg_keys(s)
            .iter()
            .copied()
            .zip(self.storage.seg_vals(s).iter().copied());
        for (k, v) in merge_newest_first(stored, run) {
            self.scratch_keys.push(k);
            self.scratch_vals.push(v);
        }
        let new_card = self.scratch_keys.len();
        let base = s * b;
        let dst = if crate::storage::Storage::packs_right(s) {
            base + b - new_card..base + b
        } else {
            base..base + new_card
        };
        self.storage.keys.as_mut_slice()[dst.clone()].copy_from_slice(&self.scratch_keys);
        self.storage.vals.as_mut_slice()[dst].copy_from_slice(&self.scratch_vals);
        self.storage.cards[s] = new_card as u32;
        if s > 0 {
            self.index.update(s, self.storage.seg_min(s));
        }
    }

    /// Pass 3b: rebalances a window once, merging its batch runs with
    /// its existing elements (even spread).
    pub(crate) fn merge_window(
        &mut self,
        segs: std::ops::Range<usize>,
        batch: &[(Key, Value)],
        runs: &[std::ops::Range<usize>],
    ) {
        let b = self.cfg.segment_size;
        let m = segs.len();
        let run_lo = runs[segs.start].start;
        let run_hi = runs[segs.end - 1].end;
        let run = &batch[run_lo..run_hi];
        let existing: usize = segs.clone().map(|s| self.storage.card(s)).sum();
        let total = existing + run.len();
        let mut targets = even_targets(total, m);
        cap_targets(&mut targets, b, total);
        self.stats.rebalances += 1;
        self.redistribute(segs.clone(), &targets, run);
        self.refresh_separators(segs);
    }

    /// Fallback for batches that overflow the whole array: one layout
    /// pass at the smallest doubled capacity that fits, with the batch
    /// merged in (see [`resize_to`](Rma::resize_to)).
    pub(crate) fn rebuild_with_batch(&mut self, batch: &[(Key, Value)]) {
        let b = self.cfg.segment_size;
        let needed = self.len + batch.len();
        let mut segs = self.storage.seg_count().max(1);
        loop {
            let height = if segs <= 1 {
                1
            } else {
                (usize::BITS - (segs - 1).leading_zeros()) as usize + 1
            };
            let root_max = self
                .cfg
                .thresholds
                .max_card(height, height, segs * b)
                .min(segs * (b - 1));
            if needed <= root_max {
                break;
            }
            segs *= 2;
        }
        self.stats.grows += 1;
        self.resize_to(segs, batch);
    }

    /// Deletion pass with rebalances disabled (§III, batch deletes).
    pub(crate) fn delete_pass(&mut self, deletes: &[Key]) -> usize {
        let mut removed = 0usize;
        for &k in deletes {
            let Some((seg, pos)) = self.locate_lower_bound(k) else {
                continue;
            };
            if self.storage.seg_keys(seg)[pos] == k {
                self.storage.remove_from_segment(seg, pos);
                if pos == 0 && self.storage.card(seg) > 0 {
                    let new_min = self.storage.seg_min(seg);
                    self.index.update(seg, new_min);
                }
                self.len -= 1;
                removed += 1;
            }
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{RewiringMode, RmaConfig};
    use crate::rma::Rma;
    use crate::DetectorConfig;

    fn cfg() -> RmaConfig {
        RmaConfig {
            segment_size: 8,
            rewiring: RewiringMode::Disabled,
            adaptive: None,
            reserve_bytes: 1 << 26,
            ..Default::default()
        }
    }

    fn rewired_cfg() -> RmaConfig {
        RmaConfig {
            segment_size: 16,
            rewiring: RewiringMode::Enabled { page_bytes: 4096 },
            adaptive: None,
            reserve_bytes: 1 << 26,
            ..Default::default()
        }
    }

    #[test]
    fn bulk_load_into_empty() {
        let mut r = Rma::new(cfg());
        let batch: Vec<(i64, i64)> = (0..1000).map(|i| (i * 2, i)).collect();
        r.load_bulk(&batch);
        r.check_invariants();
        assert_eq!(r.len(), 1000);
        let got: Vec<(i64, i64)> = r.iter().collect();
        assert_eq!(got, batch);
    }

    #[test]
    fn bulk_load_matches_individual_inserts() {
        let mut bulk = Rma::new(cfg());
        let mut single = Rma::new(cfg());
        // Pre-populate both identically.
        let base: Vec<(i64, i64)> = (0..2000).map(|i| (i * 3, i)).collect();
        bulk.load_bulk(&base);
        for &(k, v) in &base {
            single.insert(k, v);
        }
        // Batch of interleaved keys.
        let mut batch: Vec<(i64, i64)> = (0..500).map(|i| (i * 11 + 1, -i)).collect();
        batch.sort_unstable();
        bulk.load_bulk(&batch);
        for &(k, v) in &batch {
            single.insert(k, v);
        }
        bulk.check_invariants();
        let a: Vec<(i64, i64)> = bulk.iter().collect();
        let mut want: Vec<(i64, i64)> = base.iter().chain(batch.iter()).copied().collect();
        want.sort_unstable();
        let b_sorted: Vec<(i64, i64)> = single.iter().collect();
        // Key order must match exactly; value order among equal keys
        // may differ between the two code paths.
        assert_eq!(
            a.iter().map(|p| p.0).collect::<Vec<_>>(),
            want.iter().map(|p| p.0).collect::<Vec<_>>()
        );
        assert_eq!(a.len(), b_sorted.len());
    }

    #[test]
    fn top_down_produces_same_content() {
        let base: Vec<(i64, i64)> = (0..3000).map(|i| (i * 5, i)).collect();
        let batch: Vec<(i64, i64)> = (0..800).map(|i| (i * 17 + 2, -i)).collect();
        let mut bu = Rma::new(cfg());
        bu.load_bulk(&base);
        bu.load_bulk(&batch);
        let mut td = Rma::new(cfg());
        td.load_bulk(&base);
        td.load_bulk_top_down(&batch);
        td.check_invariants();
        assert_eq!(
            bu.iter().map(|p| p.0).collect::<Vec<_>>(),
            td.iter().map(|p| p.0).collect::<Vec<_>>()
        );
    }

    #[test]
    fn repeated_batches_grow_structure() {
        let mut r = Rma::new(cfg());
        for round in 0..50i64 {
            let batch: Vec<(i64, i64)> = (0..200).map(|i| (round * 200 + i, round)).collect();
            r.load_bulk(&batch);
        }
        r.check_invariants();
        assert_eq!(r.len(), 10_000);
        assert!(r.stats().grows > 0);
    }

    #[test]
    fn bulk_load_rewired_path() {
        let mut r = Rma::new(rewired_cfg());
        for round in 0..20i64 {
            let mut batch: Vec<(i64, i64)> = (0..500)
                .map(|i| ((round * 500 + i) * 48271 % 1_000_000, i))
                .collect();
            batch.sort_unstable();
            r.load_bulk(&batch);
        }
        r.check_invariants();
        assert_eq!(r.len(), 10_000);
        let keys: Vec<i64> = r.iter().map(|(k, _)| k).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn batch_with_deletions_keeps_cardinality() {
        let mut r = Rma::new(cfg());
        let base: Vec<(i64, i64)> = (0..5000).map(|i| (i, i)).collect();
        r.load_bulk(&base);
        // Delete 1000 even keys, insert 1000 fresh keys.
        let deletes: Vec<i64> = (0..1000).map(|i| i * 2).collect();
        let inserts: Vec<(i64, i64)> = (0..1000).map(|i| (10_000 + i, i)).collect();
        let deleted = r.apply_batch(&inserts, &deletes);
        assert_eq!(deleted, 1000);
        r.check_invariants();
        assert_eq!(r.len(), 5000);
        assert_eq!(r.get(0), None);
        assert_eq!(r.get(1), Some(1));
        assert_eq!(r.get(10_500), Some(500));
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut r = Rma::new(cfg());
        r.insert(1, 1);
        r.load_bulk(&[]);
        r.load_bulk_top_down(&[]);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn batch_of_duplicates() {
        let mut r = Rma::new(cfg());
        let batch: Vec<(i64, i64)> = (0..500).map(|i| (42, i)).collect();
        r.load_bulk(&batch);
        r.check_invariants();
        assert_eq!(r.len(), 500);
        assert!(r.iter().all(|(k, _)| k == 42));
    }

    #[test]
    fn huge_batch_triggers_rebuild() {
        let mut r = Rma::new(cfg());
        r.insert(0, 0);
        let batch: Vec<(i64, i64)> = (1..20_000).map(|i| (i, i)).collect();
        r.load_bulk(&batch);
        r.check_invariants();
        assert_eq!(r.len(), 20_000);
    }

    /// Both rewiring modes, with the Detector on so its metadata is
    /// part of the footprint.
    fn one_pass_cfgs() -> [RmaConfig; 2] {
        [
            RewiringMode::Enabled { page_bytes: 4096 },
            RewiringMode::Disabled,
        ]
        .map(|rewiring| RmaConfig {
            segment_size: 16,
            rewiring,
            adaptive: Some(DetectorConfig::default()),
            reserve_bytes: 1 << 26,
            ..Default::default()
        })
    }

    /// Sorted pairs in duplicate runs of 25 and 15, which span
    /// segments; values record the batch position.
    fn batch_with_runs(n: i64) -> Vec<(i64, i64)> {
        (0..n)
            .map(|i| ((i / 40) * 2 + i64::from(i % 40 >= 25), i))
            .collect()
    }

    #[test]
    fn load_into_empty_wires_no_spare_pages() {
        for cfg in one_pass_cfgs() {
            let mut r = Rma::new(cfg);
            let batch: Vec<(i64, i64)> = (0..10_000).map(|i| (i * 7, i)).collect();
            r.load_bulk(&batch);
            r.check_invariants();
            let page_bytes = match cfg.rewiring {
                RewiringMode::Enabled { page_bytes } => page_bytes,
                RewiringMode::Disabled => 64 << 10,
            };
            let column = r.capacity().div_ceil(page_bytes / 8) * page_bytes;
            let det = r
                .detector
                .as_ref()
                .map_or(0, |d| d.num_segments() * (d.config().queue_len * 8 + 48));
            let want =
                2 * column + r.storage.cards.capacity() * 4 + r.index.memory_footprint() + det;
            assert!(det > 0);
            assert_eq!(r.memory_footprint(), want, "{:?}", cfg.rewiring);
        }
    }

    #[test]
    fn load_into_empty_keeps_the_batch_exactly() {
        for cfg in one_pass_cfgs() {
            let batch = batch_with_runs(5_000);
            assert!(batch.windows(2).all(|w| w[0].0 <= w[1].0));
            let mut r = Rma::new(cfg);
            r.load_bulk(&batch);
            r.check_invariants();
            assert_eq!(r.iter().collect::<Vec<_>>(), batch, "{:?}", cfg.rewiring);
        }
    }

    #[test]
    fn overflowing_batch_goes_ahead_of_stored_equal_keys() {
        for cfg in one_pass_cfgs() {
            let mut r = Rma::new(cfg);
            let stored = batch_with_runs(2_000);
            r.load_bulk(&stored);
            let cap = r.capacity();
            // Every stored key again, plus fresh ones: the array must
            // grow, and each batch entry is the newer write.
            let batch: Vec<(i64, i64)> = batch_with_runs(6_000)
                .into_iter()
                .map(|(k, v)| (k, -1 - v))
                .collect();
            r.load_bulk(&batch);
            r.check_invariants();
            assert!(r.capacity() > cap, "{:?}", cfg.rewiring);
            let mut want = Vec::new();
            let (mut i, mut j) = (0, 0);
            while i < stored.len() || j < batch.len() {
                if j < batch.len() && (i == stored.len() || batch[j].0 <= stored[i].0) {
                    want.push(batch[j]);
                    j += 1;
                } else {
                    want.push(stored[i]);
                    i += 1;
                }
            }
            assert_eq!(r.iter().collect::<Vec<_>>(), want, "{:?}", cfg.rewiring);
            assert_eq!(r.get(0), Some(batch[0].1));
        }
    }

    #[test]
    fn every_reorganisation_commits_once_after_loads() {
        for cfg in one_pass_cfgs() {
            let mut r = Rma::new(cfg);
            r.load_bulk(&batch_with_runs(3_000));
            let st = *r.stats();
            assert_eq!(st.grows, 1, "{:?}", cfg.rewiring);
            assert_eq!(st.rewired_commits + st.copied_commits, st.reorganisations());
            for round in 0..10i64 {
                let batch: Vec<(i64, i64)> = (0..700).map(|i| (i * 13 + round, i)).collect();
                r.load_bulk(&batch);
                let st = r.stats();
                assert_eq!(st.rewired_commits + st.copied_commits, st.reorganisations());
            }
            r.check_invariants();
            assert_eq!(r.len(), 10_000);
        }
    }
}
