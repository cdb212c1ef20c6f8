//! The Rewired Memory Array: public operations, calibrator-tree
//! window search, rebalancing and resizing.

use crate::adaptive::{adaptive_targets, compute_marked_intervals, MarkedInterval};
use crate::config::{RewiringMode, RmaConfig};
use crate::detector::Detector;
use crate::index::StaticIndex;
use crate::stats::RmaStats;
use crate::storage::Storage;
use crate::{Key, Value};

/// A sorted key/value container over a sparse array with fixed-size
/// clustered segments, a static index, rewired rebalances and
/// adaptive rebalancing. See the crate docs for the feature overview.
/// Duplicate keys are kept, the newest leftmost (see
/// [`insert`](Self::insert)).
pub struct Rma {
    pub(crate) cfg: RmaConfig,
    pub(crate) storage: Storage,
    pub(crate) index: StaticIndex,
    pub(crate) detector: Option<Detector>,
    pub(crate) len: usize,
    pub(crate) stats: RmaStats,
    /// Reusable auxiliary buffers for copy-path rebalances.
    pub(crate) scratch_keys: Vec<i64>,
    pub(crate) scratch_vals: Vec<i64>,
}

impl Rma {
    /// Creates an empty RMA.
    pub fn new(cfg: RmaConfig) -> Self {
        cfg.validate();
        let storage = Storage::new(&cfg);
        let index = StaticIndex::build(&[Key::MIN], cfg.index_fanout);
        let detector = cfg.adaptive.map(|d| Detector::new(d, 1));
        Rma {
            cfg,
            storage,
            index,
            detector,
            len: 0,
            stats: RmaStats::default(),
            scratch_keys: Vec::new(),
            scratch_vals: Vec::new(),
        }
    }

    /// Number of stored elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot capacity of the underlying sparse array.
    pub fn capacity(&self) -> usize {
        self.storage.capacity()
    }

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.storage.seg_count()
    }

    /// The configuration this RMA was built with.
    pub fn config(&self) -> &RmaConfig {
        &self.cfg
    }

    /// Cumulative operation statistics.
    pub fn stats(&self) -> &RmaStats {
        &self.stats
    }

    /// Whether storage ended up on the mmap (rewirable) backend.
    pub fn backend_kind(&self) -> rewiring::BackendKind {
        self.storage.backend_kind()
    }

    /// Resident bytes: columns + cards + index + detector.
    pub fn memory_footprint(&self) -> usize {
        let det = self
            .detector
            .as_ref()
            .map_or(0, |d| d.num_segments() * (d.config().queue_len * 8 + 48));
        self.storage.memory_footprint() + self.index.memory_footprint() + det
    }

    /// Calibrator tree height for the current segment count.
    pub(crate) fn height(&self) -> usize {
        let m = self.storage.seg_count();
        if m <= 1 {
            1
        } else {
            (usize::BITS - (m - 1).leading_zeros()) as usize + 1
        }
    }

    // ------------------------------------------------------ lookup --
    //
    // Every accessor below takes `&self` and reads only through safe
    // slices: concurrent callers may share an RMA freely as long as no
    // `&mut self` method runs at the same time. The sharded front-end
    // relies on exactly this contract for its optimistic (seqlock)
    // read path — readers run these methods lock-free while writers
    // are fenced out, so nothing here may cache state or mutate
    // through interior mutability.

    /// Returns the newest value stored under `k`, if any (see the
    /// duplicate contract on [`insert`](Self::insert)).
    pub fn get(&self, k: Key) -> Option<Value> {
        let (seg, pos) = self.locate_lower_bound(k)?;
        (self.storage.seg_keys(seg)[pos] == k).then(|| self.storage.seg_vals(seg)[pos])
    }

    /// First element with key `>= k` in sorted order.
    pub fn first_ge(&self, k: Key) -> Option<(Key, Value)> {
        let (seg, pos) = self.locate_lower_bound(k)?;
        Some((
            self.storage.seg_keys(seg)[pos],
            self.storage.seg_vals(seg)[pos],
        ))
    }

    /// Position of the first element `>= k`: the one routing rule
    /// every lookup, insert and delete shares. The index sends `k` to
    /// the first segment that can hold an element `>= k`, so a
    /// duplicate run spanning segments is entered at its left end.
    pub(crate) fn locate_lower_bound(&self, k: Key) -> Option<(usize, usize)> {
        if self.len == 0 {
            return None;
        }
        let mut seg = self.index.search_lower_bound(k);
        let pos = self.storage.seg_lower_bound(seg, k);
        if pos < self.storage.card(seg) {
            return Some((seg, pos));
        }
        // Walk right to the next non-empty segment.
        seg += 1;
        while seg < self.storage.seg_count() {
            if self.storage.card(seg) > 0 {
                return Some((seg, 0));
            }
            seg += 1;
        }
        None
    }

    // -------------------------------------------------------- scan --

    /// Visits up to `count` elements in key order starting from the
    /// first element `>= start`; returns the number visited. Thanks to
    /// clustering, the inner loops run over dense slices with no
    /// per-slot gap tests.
    pub fn scan<F: FnMut(Key, Value)>(&self, start: Key, count: usize, mut f: F) -> usize {
        let Some((mut seg, mut pos)) = self.locate_lower_bound(start) else {
            return 0;
        };
        let mut visited = 0usize;
        while visited < count && seg < self.storage.seg_count() {
            let keys = self.storage.seg_keys(seg);
            let vals = self.storage.seg_vals(seg);
            let take = (keys.len() - pos).min(count - visited);
            for i in pos..pos + take {
                f(keys[i], vals[i]);
            }
            visited += take;
            seg += 1;
            pos = 0;
        }
        visited
    }

    /// Sums up to `count` values starting at the first key `>= start`
    /// — the scan kernel of Fig. 1, 10c and 12b.
    pub fn sum_range(&self, start: Key, count: usize) -> (usize, i64) {
        let Some((mut seg, mut pos)) = self.locate_lower_bound(start) else {
            return (0, 0);
        };
        let mut visited = 0usize;
        let mut sum = 0i64;
        while visited < count && seg < self.storage.seg_count() {
            let vals = self.storage.seg_vals(seg);
            let take = (vals.len() - pos).min(count - visited);
            for &v in &vals[pos..pos + take] {
                sum = sum.wrapping_add(v);
            }
            visited += take;
            seg += 1;
            pos = 0;
        }
        (visited, sum)
    }

    /// Iterates over all elements in key order.
    pub fn iter(&self) -> impl Iterator<Item = (Key, Value)> + '_ {
        (0..self.storage.seg_count()).flat_map(move |seg| {
            let keys = self.storage.seg_keys(seg);
            let vals = self.storage.seg_vals(seg);
            keys.iter().copied().zip(vals.iter().copied())
        })
    }

    /// Appends every element in key order to `out`, reserving once up
    /// front — the allocation-friendly drain used by shard
    /// maintenance when it rebuilds topologies.
    pub fn collect_into(&self, out: &mut Vec<(Key, Value)>) {
        out.reserve(self.len);
        for seg in 0..self.storage.seg_count() {
            let keys = self.storage.seg_keys(seg);
            let vals = self.storage.seg_vals(seg);
            out.extend(keys.iter().copied().zip(vals.iter().copied()));
        }
    }

    // ------------------------------------------------------ insert --

    /// Inserts `(k, v)`; duplicates are kept. Amortised
    /// `O(log²N / B)` slot moves per insertion.
    ///
    /// Duplicate contract: the newest duplicate is leftmost. The new
    /// element goes to the global lower bound of `k`, ahead of every
    /// element already stored under `k`; rebalances move runs without
    /// reordering them. So [`get`](Self::get) returns the value
    /// inserted last, [`remove`](Self::remove) pops duplicates newest
    /// first, and scans yield a run newest to oldest.
    pub fn insert(&mut self, k: Key, v: Value) {
        let mut seg = self.index.search_lower_bound(k);
        if self.storage.card(seg) == self.cfg.segment_size {
            // τ₁ = 1: the segment filled completely; rebalance now.
            self.rebalance_for_insert(seg);
            seg = self.index.search_lower_bound(k);
            debug_assert!(self.storage.card(seg) < self.cfg.segment_size);
        }
        let pos = self.storage.insert_into_segment(seg, k, v);
        if pos == 0 {
            self.index.update(seg, k);
        }
        if self.detector.is_some() {
            let (pred, succ) = self.neighbours(seg, pos);
            if let Some(det) = &mut self.detector {
                det.on_insert(seg, k, pred, succ);
            }
        }
        self.len += 1;
    }

    /// Array neighbours of the element at `(seg, pos)`, looking at
    /// most two segments away (Detector metadata tolerates misses).
    fn neighbours(&self, seg: usize, pos: usize) -> (Option<Key>, Option<Key>) {
        let keys = self.storage.seg_keys(seg);
        let pred = if pos > 0 {
            Some(keys[pos - 1])
        } else {
            (seg.saturating_sub(2)..seg)
                .rev()
                .find(|&s| self.storage.card(s) > 0)
                .map(|s| *self.storage.seg_keys(s).last().expect("non-empty"))
        };
        let succ = if pos + 1 < keys.len() {
            Some(keys[pos + 1])
        } else {
            (seg + 1..(seg + 3).min(self.storage.seg_count()))
                .find(|&s| self.storage.card(s) > 0)
                .map(|s| self.storage.seg_keys(s)[0])
        };
        (pred, succ)
    }

    // ------------------------------------------------------ delete --

    /// Removes the newest element with key exactly `k`, returning its
    /// value.
    pub fn remove(&mut self, k: Key) -> Option<Value> {
        let (seg, pos) = self.locate_lower_bound(k)?;
        if self.storage.seg_keys(seg)[pos] != k {
            return None;
        }
        Some(self.remove_at(seg, pos).1)
    }

    /// Removes the first element with key `>= k`, or the maximum when
    /// every key is smaller (the mixed-workload delete operator).
    /// Returns `None` only on an empty array.
    pub fn remove_successor(&mut self, k: Key) -> Option<(Key, Value)> {
        if self.len == 0 {
            return None;
        }
        if let Some((seg, pos)) = self.locate_lower_bound(k) {
            return Some(self.remove_at(seg, pos));
        }
        // Remove the global maximum.
        let seg = (0..self.storage.seg_count())
            .rev()
            .find(|&s| self.storage.card(s) > 0)
            .expect("non-empty array");
        let pos = self.storage.card(seg) - 1;
        Some(self.remove_at(seg, pos))
    }

    fn remove_at(&mut self, seg: usize, pos: usize) -> (Key, Value) {
        let out = self.storage.remove_from_segment(seg, pos);
        if pos == 0 && self.storage.card(seg) > 0 {
            let new_min = self.storage.seg_min(seg);
            self.index.update(seg, new_min);
        }
        if let Some(det) = &mut self.detector {
            det.on_delete(seg);
        }
        self.len -= 1;
        self.after_delete(seg);
        out
    }

    // ------------------------------------ calibrator-tree triggers --

    /// Finds and rebalances the smallest enclosing window whose upper
    /// density threshold tolerates the overflowing segment, growing
    /// the array if even the root violates it.
    fn rebalance_for_insert(&mut self, seg: usize) {
        let m = self.storage.seg_count();
        let height = self.height();
        let b = self.cfg.segment_size;
        // Hammer-escalation rule: when the Detector says this segment
        // is being hammered, a rebalance is only worthwhile if the
        // window has enough slack to leave real gaps at the hot spot —
        // otherwise the very next insertions re-trigger it. Demanding
        // half a segment of headroom makes hammered triggers escalate
        // to windows that amortise (the effect adaptive rebalancing is
        // for, §IV).
        let hammered = self
            .detector
            .as_ref()
            .is_some_and(|d| d.segment(seg).sc.unsigned_abs() >= d.config().theta_sc as u16);
        let headroom = if hammered { b / 2 } else { 0 };
        let mut w = 2usize;
        let mut level = 2usize;
        while level <= height {
            let start = (seg / w) * w;
            let end = (start + w).min(m);
            let cap = (end - start) * b;
            let cards: usize = (start..end).map(|s| self.storage.card(s)).sum();
            // Progress guard on top of the density test: the window
            // must be able to leave every segment with a free slot.
            if cards <= self.cfg.thresholds.max_card(level, height, cap)
                && cards + headroom <= (end - start) * (b - 1)
            {
                self.rebalance_window(start..end);
                return;
            }
            w *= 2;
            level += 1;
        }
        self.resize_grow();
    }

    /// After a deletion from `seg`: rebalance the smallest window
    /// satisfying its lower threshold, shrink when even the root
    /// cannot, and enforce the scan-oriented 50% fill rule.
    fn after_delete(&mut self, seg: usize) {
        let m = self.storage.seg_count();
        // Scan-oriented extra rule: fill factor below 50% forces a
        // resize regardless of the per-window thresholds.
        if self.cfg.thresholds.policy == crate::thresholds::ResizePolicy::Proportional {
            if m > 1 && self.len * 2 < self.capacity() {
                self.resize_shrink();
            }
            return;
        }
        let height = self.height();
        let b = self.cfg.segment_size;
        let min_seg = self.cfg.thresholds.min_card(1, height, b);
        if self.storage.card(seg) >= min_seg {
            return;
        }
        let mut w = 2usize;
        let mut level = 2usize;
        while level <= height {
            let start = (seg / w) * w;
            let end = (start + w).min(m);
            let cap = (end - start) * b;
            let cards: usize = (start..end).map(|s| self.storage.card(s)).sum();
            if cards >= self.cfg.thresholds.min_card(level, height, cap) {
                self.rebalance_window(start..end);
                return;
            }
            w *= 2;
            level += 1;
        }
        if m > 1 {
            self.resize_shrink();
        }
    }

    // -------------------------------------------------- rebalances --

    /// Redistributes the elements of `segs` according to the adaptive
    /// algorithm (if enabled and hammering was detected) or an even
    /// spread, then refreshes the affected separators.
    fn rebalance_window(&mut self, segs: std::ops::Range<usize>) {
        let m = segs.len();
        let b = self.cfg.segment_size;
        let total: usize = segs.clone().map(|s| self.storage.card(s)).sum();
        let mut intervals: Vec<MarkedInterval> = match &self.detector {
            Some(det) => compute_marked_intervals(det, &self.storage, segs.clone()),
            None => Vec::new(),
        };
        // Conflicting predictions (insert-hot and delete-hot intervals
        // in the same window, as in the mixed workload's alternating
        // phases) carry no usable position signal: honouring one side
        // starves the other and the window thrashes. Fall back to the
        // even spread, which §IV's scoring would also converge to.
        if intervals.iter().any(|i| i.score > 0) && intervals.iter().any(|i| i.score < 0) {
            intervals.clear();
        }
        let mut targets = if intervals.is_empty() {
            even_targets(total, m)
        } else {
            self.stats.adaptive_rebalances += 1;
            adaptive_targets(b, m, total, &intervals, &self.cfg.thresholds, self.height())
        };
        // Progress guarantee: no segment may end up completely full,
        // or the very next insert would re-trigger the same rebalance.
        cap_targets(&mut targets, b, total);
        self.stats.rebalances += 1;
        self.redistribute(segs.clone(), &targets, &[]);
        self.refresh_separators(segs);
    }

    /// Physically moves the window's elements into the target layout,
    /// with the sorted `run` merged in ahead of stored equal keys,
    /// through page rewiring when the window is page-aligned, and the
    /// auxiliary-buffer copy path otherwise.
    pub(crate) fn redistribute(
        &mut self,
        segs: std::ops::Range<usize>,
        targets: &[usize],
        run: &[(Key, Value)],
    ) {
        let b = self.cfg.segment_size;
        let first_slot = segs.start * b;
        let slots = segs.len() * b;
        self.stats.elements_moved += targets.iter().sum::<usize>() as u64;

        // Source ranges (absolute), captured before mutation.
        let src_ranges: Vec<std::ops::Range<usize>> =
            segs.clone().map(|s| self.storage.seg_range(s)).collect();
        // Destination ranges relative to the window start.
        let dst_ranges = window_layout(segs.start, b, targets);

        let epp = self.storage.keys.elems_per_page();
        let rewire = matches!(self.cfg.rewiring, RewiringMode::Enabled { .. })
            && first_slot.is_multiple_of(epp)
            && slots.is_multiple_of(epp)
            && slots >= epp;
        let st = &mut self.storage;
        if rewire {
            // Write the window straight into buffer pages and swap
            // them in: one copy per element.
            self.stats.rewired_commits += 1;
            let (karr, kbuf) = st.keys.array_and_buffer_mut(slots);
            let (varr, vbuf) = st.vals.array_and_buffer_mut(slots);
            let stored = src_ranges.into_iter().flatten().map(|i| (karr[i], varr[i]));
            scatter(merge_newest_first(stored, run), &dst_ranges, kbuf, vbuf);
            st.keys.commit_window_swap(first_slot, slots);
            st.vals.commit_window_swap(first_slot, slots);
        } else {
            // Copy path: gather into scratch (first copy), scatter
            // back (second copy) — the paper's two-pass scheme.
            self.stats.copied_commits += 1;
            self.scratch_keys.clear();
            self.scratch_vals.clear();
            let (keys, vals) = (st.keys.as_slice(), st.vals.as_slice());
            let stored = src_ranges.into_iter().flatten().map(|i| (keys[i], vals[i]));
            for (k, v) in merge_newest_first(stored, run) {
                self.scratch_keys.push(k);
                self.scratch_vals.push(v);
            }
            let window = first_slot..first_slot + slots;
            scatter(
                self.scratch_keys
                    .iter()
                    .copied()
                    .zip(self.scratch_vals.iter().copied()),
                &dst_ranges,
                &mut st.keys.as_mut_slice()[window.clone()],
                &mut st.vals.as_mut_slice()[window],
            );
        }
        for (i, s) in segs.enumerate() {
            st.cards[s] = targets[i] as u32;
        }
    }

    /// Recomputes the separators of a window after a rebalance: a
    /// non-empty segment's separator is its minimum; an empty one
    /// inherits the next non-empty minimum (or one past the window
    /// maximum for a trailing run), keeping separators monotone.
    pub(crate) fn refresh_separators(&mut self, segs: std::ops::Range<usize>) {
        let window_max: Option<Key> = segs
            .clone()
            .rev()
            .find(|&s| self.storage.card(s) > 0)
            .map(|s| *self.storage.seg_keys(s).last().expect("non-empty"));
        let Some(window_max) = window_max else {
            return; // fully empty window: previous separators still bound it
        };
        let mut next_sep = window_max.saturating_add(1);
        for s in segs.rev() {
            if self.storage.card(s) > 0 {
                next_sep = self.storage.seg_min(s);
            }
            if s > 0 {
                self.index.update(s, next_sep);
            }
        }
    }

    // ------------------------------------------------------ resize --

    fn grow_target_segments(&self) -> usize {
        let b = self.cfg.segment_size;
        match self.cfg.thresholds.policy {
            crate::thresholds::ResizePolicy::Double => self.storage.seg_count() * 2,
            crate::thresholds::ResizePolicy::Proportional => {
                let denom = self.cfg.thresholds.tau_h + self.cfg.thresholds.rho_h;
                let slots = (2.0 * self.len as f64 / denom).ceil() as usize;
                slots.div_ceil(b).max(self.storage.seg_count() + 1)
            }
        }
    }

    fn shrink_target_segments(&self) -> usize {
        let b = self.cfg.segment_size;
        match self.cfg.thresholds.policy {
            crate::thresholds::ResizePolicy::Double => (self.storage.seg_count() / 2).max(1),
            crate::thresholds::ResizePolicy::Proportional => {
                let denom = self.cfg.thresholds.tau_h + self.cfg.thresholds.rho_h;
                let slots = (2.0 * self.len as f64 / denom).ceil() as usize;
                slots
                    .div_ceil(b)
                    .clamp(1, self.storage.seg_count().saturating_sub(1).max(1))
            }
        }
    }

    fn resize_grow(&mut self) {
        self.stats.grows += 1;
        let new_segs = self.grow_target_segments();
        self.resize_to(new_segs, &[]);
    }

    fn resize_shrink(&mut self) {
        self.stats.shrinks += 1;
        let new_segs = self.shrink_target_segments();
        if new_segs >= self.storage.seg_count() {
            return;
        }
        self.resize_to(new_segs, &[]);
    }

    /// Lays the array out at `new_segs` segments, even spread capped
    /// at `B − 1`, with the sorted `batch` merged in ahead of stored
    /// equal keys (the newest-leftmost contract). One copy per
    /// element: an empty RMA grows both columns in place and writes
    /// each pair straight into its final slot, wiring no buffer pages;
    /// otherwise the merged stream is written into a rewiring buffer
    /// that is swapped in, or into fresh storage when rewiring is off.
    pub(crate) fn resize_to(&mut self, new_segs: usize, batch: &[(Key, Value)]) {
        let b = self.cfg.segment_size;
        let total = self.len + batch.len();
        debug_assert!(total <= new_segs * b, "resize target too small");
        let mut targets = even_targets(total, new_segs);
        cap_targets(&mut targets, b, total);
        self.stats.elements_moved += total as u64;
        let dst_ranges = window_layout(0, b, &targets);
        let new_slots = new_segs * b;
        let st = &mut self.storage;
        let src_ranges: Vec<std::ops::Range<usize>> =
            (0..st.seg_count()).map(|s| st.seg_range(s)).collect();

        if self.len == 0 {
            // Nothing to gather: no buffer, no scratch.
            self.stats.copied_commits += 1;
            st.keys.resize_in_place(new_slots);
            st.vals.resize_in_place(new_slots);
            scatter(
                batch.iter().copied(),
                &dst_ranges,
                st.keys.as_mut_slice(),
                st.vals.as_mut_slice(),
            );
        } else if matches!(self.cfg.rewiring, RewiringMode::Enabled { .. }) {
            self.stats.rewired_commits += 1;
            let (karr, kbuf) = st.keys.array_and_buffer_mut(new_slots);
            let (varr, vbuf) = st.vals.array_and_buffer_mut(new_slots);
            let stored = src_ranges.into_iter().flatten().map(|i| (karr[i], varr[i]));
            scatter(merge_newest_first(stored, batch), &dst_ranges, kbuf, vbuf);
            st.keys.commit_resize_swap(new_slots);
            st.vals.commit_resize_swap(new_slots);
        } else {
            self.stats.copied_commits += 1;
            // Standard resize: fresh storage, one copy per element
            // (plus the OS-level page zeroing the paper highlights).
            let mut fresh = Storage::new(&self.cfg);
            fresh.keys.resize_in_place(new_slots);
            fresh.vals.resize_in_place(new_slots);
            let (keys, vals) = (st.keys.as_slice(), st.vals.as_slice());
            let stored = src_ranges.into_iter().flatten().map(|i| (keys[i], vals[i]));
            scatter(
                merge_newest_first(stored, batch),
                &dst_ranges,
                fresh.keys.as_mut_slice(),
                fresh.vals.as_mut_slice(),
            );
            *st = fresh;
        }
        st.cards = targets.iter().map(|&t| t as u32).collect();
        self.len = total;
        // The index is static: a resize rebuilds it from scratch.
        self.rebuild_index();
        if let Some(det) = &mut self.detector {
            det.reset(new_segs);
        }
    }

    fn rebuild_index(&mut self) {
        let m = self.storage.seg_count();
        let mut minima = vec![Key::MIN; m];
        let mut next_sep = self
            .iter_last_key()
            .map_or(Key::MIN, |k| k.saturating_add(1));
        for (s, slot) in minima.iter_mut().enumerate().rev() {
            if self.storage.card(s) > 0 {
                next_sep = self.storage.seg_min(s);
            }
            *slot = next_sep;
        }
        self.index = StaticIndex::build(&minima, self.cfg.index_fanout);
    }

    fn iter_last_key(&self) -> Option<Key> {
        (0..self.storage.seg_count())
            .rev()
            .find(|&s| self.storage.card(s) > 0)
            .map(|s| *self.storage.seg_keys(s).last().expect("non-empty"))
    }

    // -------------------------------------------------- validation --

    /// Exhaustive structural check; test helper.
    pub fn check_invariants(&self) {
        self.storage.check_invariants();
        assert_eq!(self.storage.total_cards(), self.len, "len mismatch");
        // Separator invariants: monotone; equal to the minimum for
        // non-empty segments; routing-consistent for empty ones.
        let mut prev_sep = Key::MIN;
        let mut prev_max = Key::MIN;
        for s in 0..self.storage.seg_count() {
            if let Some(sep) = self.index.separator(s) {
                assert!(sep >= prev_sep, "separators not monotone at {s}");
                assert!(
                    sep >= prev_max,
                    "separator at {s} below the keys to its left"
                );
                if self.storage.card(s) > 0 {
                    assert_eq!(sep, self.storage.seg_min(s), "separator != min at {s}");
                }
                prev_sep = sep;
            }
            if self.storage.card(s) > 0 {
                prev_max = *self.storage.seg_keys(s).last().expect("non-empty");
            }
        }
    }
}

/// Even spread: `total` elements over `m` segments, remainder to the
/// leftmost segments (the TPMA policy).
pub(crate) fn even_targets(total: usize, m: usize) -> Vec<usize> {
    let base = total / m;
    let rem = total % m;
    (0..m).map(|i| base + usize::from(i < rem)).collect()
}

/// Caps every target at `B − 1` so no segment leaves a rebalance
/// already full; donates the excess to the least-filled segments.
pub(crate) fn cap_targets(targets: &mut [usize], b: usize, total: usize) {
    let m = targets.len();
    if m <= 1 || total > m * (b - 1) {
        return; // single segment may legitimately be full
    }
    for i in 0..m {
        while targets[i] >= b {
            let j = (0..m)
                .min_by_key(|&j| targets[j])
                .expect("non-empty targets");
            targets[i] -= 1;
            targets[j] += 1;
        }
    }
}

/// Merges stored elements (in key order) with a sorted batch run; on
/// equal keys the batch entry goes first, as the newer write.
pub(crate) fn merge_newest_first<'a>(
    stored: impl Iterator<Item = (Key, Value)> + 'a,
    run: &'a [(Key, Value)],
) -> impl Iterator<Item = (Key, Value)> + 'a {
    let mut stored = stored.peekable();
    let mut run = run.iter().copied().peekable();
    std::iter::from_fn(move || match (stored.peek(), run.peek()) {
        (Some(&(sk, _)), Some(&(rk, _))) if sk < rk => stored.next(),
        (_, Some(_)) => run.next(),
        (Some(_), None) => stored.next(),
        (None, None) => None,
    })
}

/// Writes `src`, in order, into the slots of `dst_ranges` of the two
/// columns; `src` must yield exactly as many pairs as the ranges hold.
fn scatter(
    mut src: impl Iterator<Item = (Key, Value)>,
    dst_ranges: &[std::ops::Range<usize>],
    keys: &mut [Key],
    vals: &mut [Value],
) {
    for dst in dst_ranges {
        for slot in dst.clone() {
            let (k, v) = src.next().expect("targets sum to the source length");
            keys[slot] = k;
            vals[slot] = v;
        }
    }
    debug_assert!(src.next().is_none(), "source longer than the layout");
}

/// Occupied slot ranges (window-relative) for the clustered layout of
/// segments starting at global index `seg0` with the given targets.
pub(crate) fn window_layout(
    seg0: usize,
    b: usize,
    targets: &[usize],
) -> Vec<std::ops::Range<usize>> {
    targets
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let base = i * b;
            if Storage::packs_right(seg0 + i) {
                base + b - t..base + b
            } else {
                base..base + t
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thresholds::Thresholds;

    fn small_cfg() -> RmaConfig {
        RmaConfig {
            segment_size: 8,
            rewiring: RewiringMode::Disabled,
            adaptive: None,
            reserve_bytes: 1 << 26,
            ..Default::default()
        }
    }

    #[test]
    fn insert_and_get_small() {
        let mut r = Rma::new(small_cfg());
        for k in [5i64, 1, 9, 3, 7, 2, 8, 4, 6, 0] {
            r.insert(k, k * 10);
        }
        r.check_invariants();
        for k in 0..10 {
            assert_eq!(r.get(k), Some(k * 10), "get {k}");
        }
        assert_eq!(r.get(42), None);
    }

    #[test]
    fn grows_through_many_resizes() {
        let mut r = Rma::new(small_cfg());
        for k in 0..10_000i64 {
            r.insert((k * 2654435761) % 100_000, k);
        }
        r.check_invariants();
        assert_eq!(r.len(), 10_000);
        assert!(r.stats().grows >= 5, "expected several resizes");
        let collected: Vec<i64> = r.iter().map(|(k, _)| k).collect();
        assert!(collected.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(collected.len(), 10_000);
    }

    #[test]
    fn sequential_inserts() {
        let mut r = Rma::new(small_cfg());
        for k in 0..5000i64 {
            r.insert(k, k);
        }
        r.check_invariants();
        for k in (0..5000).step_by(97) {
            assert_eq!(r.get(k), Some(k));
        }
    }

    #[test]
    fn reverse_sequential_inserts() {
        let mut r = Rma::new(small_cfg());
        for k in (0..5000i64).rev() {
            r.insert(k, -k);
        }
        r.check_invariants();
        assert_eq!(r.get(0), Some(0));
        assert_eq!(r.get(4999), Some(-4999));
    }

    #[test]
    fn duplicates_everywhere() {
        let mut r = Rma::new(small_cfg());
        for i in 0..1000 {
            r.insert(7, i);
        }
        for i in 0..500 {
            r.insert(3, i);
            r.insert(11, i);
        }
        r.check_invariants();
        assert_eq!(r.len(), 2000);
        assert!(r.get(7).is_some());
        assert_eq!(r.iter().filter(|&(k, _)| k == 7).count(), 1000);
    }

    /// The duplicate contract: the newest duplicate is leftmost, so
    /// `get` returns the value inserted last even once the duplicate
    /// run spans segments and rebalances triggered by other keys move
    /// it, and `remove` pops duplicates newest first.
    #[test]
    fn get_sees_the_newest_duplicate() {
        let mut r = Rma::new(RmaConfig {
            segment_size: 16,
            rewiring: RewiringMode::Disabled,
            reserve_bytes: 1 << 26,
            ..Default::default()
        });
        r.insert(0, 0);
        for v in 1..=64i64 {
            r.insert(0, v);
            assert_eq!(r.get(0), Some(v), "after insert {v}");
            r.insert(v, -v); // a fresh filler key between inserts
            assert_eq!(r.get(0), Some(v), "after the filler following insert {v}");
        }
        r.check_invariants();
        for v in (0..=64i64).rev() {
            assert_eq!(r.remove(0), Some(v), "remove pops the newest first");
        }
        assert_eq!(r.get(0), None);
    }

    /// A batch ranks as the newest writes: its duplicates land ahead
    /// of the stored ones in batch order, and reloading an RMA's own
    /// iteration order reproduces it.
    #[test]
    fn bulk_duplicates_keep_the_newest_leftmost() {
        let mut r = Rma::new(RmaConfig {
            segment_size: 16,
            ..small_cfg()
        });
        for v in 0..40i64 {
            r.insert(5, v);
            r.insert(v * 3, -v);
        }
        r.apply_batch(&[(5, 100), (5, 101), (6, 0)], &[5]);
        assert_eq!(r.get(5), Some(100), "first batch entry is the newest");
        r.check_invariants();
        let order: Vec<(Key, Value)> = r.iter().collect();
        let mut copy = Rma::new(small_cfg());
        copy.load_bulk(&order);
        assert_eq!(copy.iter().collect::<Vec<_>>(), order);
        let fives: Vec<Value> = order.iter().filter(|e| e.0 == 5).map(|e| e.1).collect();
        let want: Vec<Value> = [100, 101].into_iter().chain((0..39).rev()).collect();
        assert_eq!(fives, want, "delete pass popped the newest (39)");
    }

    #[test]
    fn remove_exact() {
        let mut r = Rma::new(small_cfg());
        for k in 0..2000i64 {
            r.insert(k, k);
        }
        for k in (0..2000).step_by(2) {
            assert_eq!(r.remove(k), Some(k), "remove {k}");
        }
        r.check_invariants();
        assert_eq!(r.len(), 1000);
        for k in 0..2000 {
            assert_eq!(r.get(k).is_some(), k % 2 == 1);
        }
        assert!(r.stats().shrinks + r.stats().rebalances > 0);
    }

    #[test]
    fn remove_to_empty_and_reuse() {
        let mut r = Rma::new(small_cfg());
        for k in 0..500i64 {
            r.insert(k, k);
        }
        for k in 0..500i64 {
            assert_eq!(r.remove(k), Some(k));
        }
        assert!(r.is_empty());
        r.check_invariants();
        r.insert(1, 1);
        assert_eq!(r.get(1), Some(1));
    }

    #[test]
    fn remove_successor_semantics() {
        let mut r = Rma::new(small_cfg());
        for k in [10i64, 20, 30] {
            r.insert(k, k);
        }
        assert_eq!(r.remove_successor(15), Some((20, 20)));
        assert_eq!(r.remove_successor(100), Some((30, 30)));
        assert_eq!(r.remove_successor(0), Some((10, 10)));
        assert_eq!(r.remove_successor(0), None);
    }

    #[test]
    fn scan_sums_and_order() {
        let mut r = Rma::new(small_cfg());
        for k in 0..3000i64 {
            r.insert(k, 1);
        }
        let (n, sum) = r.sum_range(100, 500);
        assert_eq!((n, sum), (500, 500));
        let mut seen = Vec::new();
        r.scan(2990, 100, |k, _| seen.push(k));
        assert_eq!(seen, (2990..3000).collect::<Vec<i64>>());
        assert_eq!(r.sum_range(99999, 5).0, 0);
    }

    #[test]
    fn first_ge_crosses_segments() {
        let mut r = Rma::new(small_cfg());
        for k in (0..1000).step_by(10) {
            r.insert(k, k);
        }
        assert_eq!(r.first_ge(-5), Some((0, 0)));
        assert_eq!(r.first_ge(15), Some((20, 20)));
        assert_eq!(r.first_ge(990), Some((990, 990)));
        assert_eq!(r.first_ge(991), None);
    }

    #[test]
    fn adaptive_mode_stays_consistent() {
        let cfg = RmaConfig {
            segment_size: 8,
            rewiring: RewiringMode::Disabled,
            reserve_bytes: 1 << 26,
            ..Default::default()
        };
        assert!(cfg.adaptive.is_some());
        let mut r = Rma::new(cfg);
        for k in 0..20_000i64 {
            r.insert(k, k); // sequential hammering
        }
        r.check_invariants();
        assert_eq!(r.len(), 20_000);
        for k in (0..20_000).step_by(371) {
            assert_eq!(r.get(k), Some(k));
        }
    }

    #[test]
    fn rewired_mode_matches_copy_mode() {
        let mk = |rewired: bool| {
            let cfg = RmaConfig {
                segment_size: 16,
                rewiring: if rewired {
                    RewiringMode::Enabled { page_bytes: 4096 }
                } else {
                    RewiringMode::Disabled
                },
                adaptive: None,
                reserve_bytes: 1 << 26,
                ..Default::default()
            };
            let mut r = Rma::new(cfg);
            for k in 0..30_000i64 {
                r.insert((k * 48271) % 65_536, k);
            }
            r.iter().collect::<Vec<_>>()
        };
        let a = mk(true);
        let b = mk(false);
        assert_eq!(a.len(), 30_000);
        assert_eq!(
            a, b,
            "rewired and copy paths must produce identical content"
        );
    }

    #[test]
    fn scan_oriented_thresholds_work() {
        let cfg = RmaConfig {
            segment_size: 8,
            rewiring: RewiringMode::Disabled,
            adaptive: None,
            thresholds: Thresholds::scan_oriented(),
            reserve_bytes: 1 << 26,
            ..Default::default()
        };
        let mut r = Rma::new(cfg);
        for k in 0..10_000i64 {
            r.insert((k * 7919) % 50_000, k);
        }
        r.check_invariants();
        // ST keeps the array dense: fill factor near 75%.
        let fill = r.len() as f64 / r.capacity() as f64;
        assert!(fill > 0.55, "ST fill factor too low: {fill}");
        // Delete most elements: the 50% rule must kick in.
        for _ in 0..9_000 {
            r.remove_successor(0);
        }
        r.check_invariants();
        let fill = r.len() as f64 / r.capacity() as f64;
        assert!(fill >= 0.45, "ST shrink rule failed: fill {fill}");
        assert!(r.stats().shrinks > 0);
    }

    #[test]
    fn mixed_churn_against_btreemap() {
        use std::collections::BTreeMap;
        let mut r = Rma::new(small_cfg());
        let mut oracle: BTreeMap<i64, usize> = BTreeMap::new();
        let mut x = 99u64;
        for step in 0..30_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = ((x >> 52) & 0x7FF) as i64;
            if step % 3 == 2 {
                let want = oracle
                    .range(k..)
                    .next()
                    .map(|(&kk, _)| kk)
                    .or_else(|| oracle.keys().next_back().copied());
                let got = r.remove_successor(k).map(|(kk, _)| kk);
                assert_eq!(got, want, "step {step} delete_succ {k}");
                if let Some(kk) = want {
                    let c = oracle.get_mut(&kk).expect("oracle has key");
                    *c -= 1;
                    if *c == 0 {
                        oracle.remove(&kk);
                    }
                }
            } else {
                r.insert(k, step as i64);
                *oracle.entry(k).or_insert(0) += 1;
            }
            let total: usize = oracle.values().sum();
            assert_eq!(r.len(), total, "step {step}");
        }
        r.check_invariants();
    }

    #[test]
    fn cap_targets_prevents_full_segments() {
        let mut t = vec![8, 0, 8, 0];
        cap_targets(&mut t, 8, 16);
        assert_eq!(t.iter().sum::<usize>(), 16);
        assert!(t.iter().all(|&x| x < 8), "{t:?}");
    }

    #[test]
    fn even_targets_distributes_remainder() {
        assert_eq!(even_targets(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(even_targets(0, 3), vec![0, 0, 0]);
    }

    #[test]
    fn footprint_reports_resident_bytes() {
        let mut r = Rma::new(small_cfg());
        let empty = r.memory_footprint();
        for k in 0..100_000i64 {
            r.insert(k, k);
        }
        assert!(r.memory_footprint() > empty * 10);
    }
}
