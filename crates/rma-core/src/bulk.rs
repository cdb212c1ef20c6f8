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

use crate::rma::{cap_targets, even_targets, window_layout};

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
        merge_into(
            self.storage.seg_keys(s),
            self.storage.seg_vals(s),
            run,
            &mut self.scratch_keys,
            &mut self.scratch_vals,
        );
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
        self.stats.elements_moved += total as u64;

        // Merge the window's elements with the run into scratch; the
        // rewired path then writes scratch into buffer pages (one copy
        // of scratch, which itself consumed one read of the array).
        self.scratch_keys.clear();
        self.scratch_vals.clear();
        {
            let mut ex_iter = segs
                .clone()
                .flat_map(|s| {
                    let r = self.storage.seg_range(s);
                    self.storage.keys.as_slice()[r.clone()]
                        .iter()
                        .copied()
                        .zip(self.storage.vals.as_slice()[r].iter().copied())
                })
                .peekable();
            let mut run_iter = run.iter().copied().peekable();
            loop {
                let take_run = match (ex_iter.peek(), run_iter.peek()) {
                    (Some(&(ek, _)), Some(&(rk, _))) => rk <= ek,
                    (None, Some(_)) => true,
                    (Some(_), None) => false,
                    (None, None) => break,
                };
                let (k, v) = if take_run {
                    run_iter.next().expect("peeked")
                } else {
                    ex_iter.next().expect("peeked")
                };
                self.scratch_keys.push(k);
                self.scratch_vals.push(v);
            }
        }
        debug_assert_eq!(self.scratch_keys.len(), total);

        let first_slot = segs.start * b;
        let slots = m * b;
        let dst_ranges = window_layout(segs.start, b, &targets);
        let epp = self.storage.keys.elems_per_page();
        let rewire = matches!(
            self.cfg.rewiring,
            crate::config::RewiringMode::Enabled { .. }
        ) && first_slot.is_multiple_of(epp)
            && slots.is_multiple_of(epp)
            && slots >= epp;
        if rewire {
            self.stats.rewired_commits += 1;
            let (_, kbuf) = self.storage.keys.array_and_buffer_mut(slots);
            let mut cursor = 0usize;
            for dst in &dst_ranges {
                kbuf[dst.clone()].copy_from_slice(&self.scratch_keys[cursor..cursor + dst.len()]);
                cursor += dst.len();
            }
            self.storage.keys.commit_window_swap(first_slot, slots);
            let (_, vbuf) = self.storage.vals.array_and_buffer_mut(slots);
            let mut cursor = 0usize;
            for dst in &dst_ranges {
                vbuf[dst.clone()].copy_from_slice(&self.scratch_vals[cursor..cursor + dst.len()]);
                cursor += dst.len();
            }
            self.storage.vals.commit_window_swap(first_slot, slots);
        } else {
            self.stats.copied_commits += 1;
            let mut cursor = 0usize;
            for dst in &dst_ranges {
                let n = dst.len();
                self.storage.keys.as_mut_slice()[first_slot + dst.start..first_slot + dst.end]
                    .copy_from_slice(&self.scratch_keys[cursor..cursor + n]);
                self.storage.vals.as_mut_slice()[first_slot + dst.start..first_slot + dst.end]
                    .copy_from_slice(&self.scratch_vals[cursor..cursor + n]);
                cursor += n;
            }
        }
        for (i, s) in segs.clone().enumerate() {
            self.storage.cards[s] = targets[i] as u32;
        }
        self.refresh_separators(segs);
    }

    /// Fallback for batches that overflow the whole array: resize to a
    /// capacity that fits, then load normally.
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
        self.resize_to(segs);
        self.load_bulk(batch);
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

/// Two-pointer merge of a segment's content with a batch run; on equal
/// keys the batch entry goes first.
fn merge_into(
    seg_keys: &[Key],
    seg_vals: &[Value],
    run: &[(Key, Value)],
    out_keys: &mut Vec<Key>,
    out_vals: &mut Vec<Value>,
) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < seg_keys.len() || j < run.len() {
        let take_run = j < run.len() && (i >= seg_keys.len() || run[j].0 <= seg_keys[i]);
        if take_run {
            out_keys.push(run[j].0);
            out_vals.push(run[j].1);
            j += 1;
        } else {
            out_keys.push(seg_keys[i]);
            out_vals.push(seg_vals[i]);
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{RewiringMode, RmaConfig};
    use crate::rma::Rma;

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
}
