//! The static index (§III "Index", Fig. 5).
//!
//! A pointer-eliminated B+-tree over the segment minima of the RMA:
//!
//! * built once per resize for a fixed number of segments — hence
//!   *static*: the shape never changes between resizes;
//! * separator keys are packed in one contiguous array; node traversal
//!   needs no per-child pointers, only each node's first-child offset
//!   (children are allocated contiguously, breadth-first);
//! * every segment `s ≥ 1` contributes exactly one separator (its
//!   minimum key) stored in exactly one node, so updating a separator
//!   during a rebalance is a single O(1) array write
//!   ([`StaticIndex::update`]).
//!
//! Following the paper's structure, a node has at most `f - 1`
//! separators and `f` children; the leftmost children of the root are
//! full subtrees and the rightmost child is a (possibly smaller)
//! partial subtree.

use crate::Key;

#[derive(Debug, Clone, Copy)]
struct NodeMeta {
    /// Offset of this node's separators in `keys`.
    key_off: u32,
    /// Number of separators in this node.
    nkeys: u16,
    /// If `leaf_children`: the first segment id; else the node id of
    /// the first child (children have consecutive ids).
    first_child: u32,
    /// True when children are segments of the RMA.
    leaf_children: bool,
}

/// Static, pointer-free index over segment minima.
#[derive(Debug)]
pub struct StaticIndex {
    num_segments: usize,
    /// All separators, packed by node in breadth-first order.
    keys: Vec<Key>,
    nodes: Vec<NodeMeta>,
    /// Flat position in `keys` of the separator of segment `s` (undefined
    /// for segment 0, which has no separator).
    slot_of: Vec<u32>,
}

impl StaticIndex {
    /// Builds the index for segments whose minima are `minima`
    /// (`minima[s]` = separator for segment `s`; `minima[0]` is
    /// ignored). `fanout` is the maximum child count per node.
    pub fn build(minima: &[Key], fanout: usize) -> Self {
        assert!(fanout >= 2);
        let n = minima.len();
        assert!(n >= 1, "index needs at least one segment");
        let mut idx = StaticIndex {
            num_segments: n,
            keys: Vec::new(),
            nodes: Vec::new(),
            slot_of: vec![u32::MAX; n],
        };
        // Breadth-first construction: a queue of segment ranges, one
        // per pending node, so each node's children receive
        // consecutive node ids.
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(0..n);
        while let Some(range) = queue.pop_front() {
            let count = range.len();
            let key_off = idx.keys.len() as u32;
            if count <= fanout {
                // Children are segments.
                #[allow(clippy::needless_range_loop)] // s is a segment id
                for s in range.start + 1..range.end {
                    idx.slot_of[s] = idx.keys.len() as u32;
                    idx.keys.push(minima[s]);
                }
                idx.nodes.push(NodeMeta {
                    key_off,
                    nkeys: (count - 1) as u16,
                    first_child: range.start as u32,
                    leaf_children: true,
                });
                continue;
            }
            // Children are subtrees of `chunk` segments each: the
            // largest power of `fanout` below `count` (full subtrees),
            // with a partial final child for the remainder.
            let mut chunk = fanout;
            while chunk * fanout < count {
                chunk *= fanout;
            }
            let first_child = (idx.nodes.len() + 1 + queue.len()) as u32;
            let mut boundaries = 0u16;
            let mut s = range.start;
            while s < range.end {
                let end = (s + chunk).min(range.end);
                if s > range.start {
                    idx.slot_of[s] = idx.keys.len() as u32;
                    idx.keys.push(minima[s]);
                    boundaries += 1;
                }
                queue.push_back(s..end);
                s = end;
            }
            idx.nodes.push(NodeMeta {
                key_off,
                nkeys: boundaries,
                first_child,
                leaf_children: false,
            });
        }
        idx
    }

    /// Number of indexed segments.
    pub fn num_segments(&self) -> usize {
        self.num_segments
    }

    /// The leftmost segment that can contain an element `>= k`: the
    /// segment after all separators `< k` (segment 0 when `k` precedes
    /// every separator). Every element of earlier segments is bounded
    /// by such a separator, hence strictly below `k`, so a duplicate
    /// run spanning segments is entered at its left end. The RMA's one
    /// routing rule: lookups, inserts, deletes and scans all use it.
    #[inline]
    pub fn search_lower_bound(&self, k: Key) -> usize {
        let mut node = &self.nodes[0];
        loop {
            let off = node.key_off as usize;
            let seps = &self.keys[off..off + node.nkeys as usize];
            let j = seps.partition_point(|&s| s < k);
            let child = node.first_child as usize + j;
            if node.leaf_children {
                return child;
            }
            node = &self.nodes[child];
        }
    }

    /// O(1) update of the separator of segment `seg` (1-based
    /// segments; segment 0 has no separator and is ignored).
    #[inline]
    pub fn update(&mut self, seg: usize, new_sep: Key) {
        if seg == 0 {
            return;
        }
        let slot = self.slot_of[seg];
        self.keys[slot as usize] = new_sep;
    }

    /// Current separator of segment `seg` (`None` for segment 0).
    pub fn separator(&self, seg: usize) -> Option<Key> {
        if seg == 0 {
            return None;
        }
        Some(self.keys[self.slot_of[seg] as usize])
    }

    /// Resident bytes of the index.
    pub fn memory_footprint(&self) -> usize {
        self.keys.capacity() * 8
            + self.nodes.capacity() * std::mem::size_of::<NodeMeta>()
            + self.slot_of.capacity() * 4
    }

    /// Test helper: asserts the index routes exactly like a flat
    /// binary search over the separator list.
    pub fn check_against(&self, minima: &[Key]) {
        assert_eq!(minima.len(), self.num_segments);
        for (s, &m) in minima.iter().enumerate().skip(1) {
            assert_eq!(self.separator(s), Some(m), "separator {s}");
        }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // loop variables are segment ids
mod tests {
    use super::*;

    /// Reference: the segment after every separator `< k`.
    fn reference_search(minima: &[Key], k: Key) -> usize {
        minima[1..].partition_point(|&m| m < k)
    }

    fn probe_all(minima: &[Key], fanout: usize) {
        let idx = StaticIndex::build(minima, fanout);
        idx.check_against(minima);
        for probe in -2..(minima.len() as i64 * 10 + 2) {
            assert_eq!(
                idx.search_lower_bound(probe),
                reference_search(minima, probe),
                "n={} f={fanout} probe={probe}",
                minima.len()
            );
        }
    }

    #[test]
    fn single_segment_routes_everything_to_zero() {
        let idx = StaticIndex::build(&[0], 64);
        assert_eq!(idx.search_lower_bound(i64::MIN), 0);
        assert_eq!(idx.search_lower_bound(i64::MAX), 0);
        assert_eq!(idx.separator(0), None);
    }

    #[test]
    fn search_matches_reference_at_many_shapes() {
        for f in [2, 3, 4, 64] {
            for n in [
                1usize, 2, 3, 4, 5, 8, 9, 16, 17, 63, 64, 65, 100, 256, 257, 1000,
            ] {
                let minima: Vec<Key> = (0..n as i64).map(|i| i * 10).collect();
                probe_all(&minima, f);
            }
        }
    }

    #[test]
    fn search_lower_bound_matches_flat_partition() {
        for f in [2, 3, 64] {
            for n in [1usize, 2, 5, 9, 64, 65, 257] {
                // Duplicate separators stress the leftmost bias.
                let minima: Vec<Key> = (0..n as i64).map(|i| (i / 3) * 10).collect();
                let idx = StaticIndex::build(&minima, f);
                for probe in -2..(n as i64 * 4 + 2) {
                    let want = minima[1..].partition_point(|&m| m < probe);
                    assert_eq!(
                        idx.search_lower_bound(probe),
                        want,
                        "n={n} f={f} probe={probe}"
                    );
                }
            }
        }
    }

    #[test]
    fn update_is_visible_to_search() {
        let minima: Vec<Key> = (0..100).map(|i| i * 10).collect();
        let mut idx = StaticIndex::build(&minima, 4);
        // Move segment 50's separator from 500 to 505.
        idx.update(50, 505);
        assert_eq!(idx.search_lower_bound(504), 49);
        assert_eq!(idx.search_lower_bound(505), 49);
        assert_eq!(idx.search_lower_bound(506), 50);
        assert_eq!(idx.separator(50), Some(505));
    }

    #[test]
    fn update_every_separator() {
        let minima: Vec<Key> = (0..333).map(|i| i * 2).collect();
        let mut idx = StaticIndex::build(&minima, 64);
        let shifted: Vec<Key> = minima.iter().map(|m| m + 1).collect();
        for s in 1..shifted.len() {
            idx.update(s, shifted[s]);
        }
        idx.check_against(&shifted);
        for probe in 0..700 {
            assert_eq!(
                idx.search_lower_bound(probe),
                reference_search(&shifted, probe)
            );
        }
    }

    #[test]
    fn duplicate_separators_route_right() {
        // Empty segments inherit the next minimum, creating duplicate
        // separators. Equal keys stop before the duplicates (the run's
        // left end); only larger keys route right past them.
        let minima: Vec<Key> = vec![0, 10, 10, 10, 20];
        let idx = StaticIndex::build(&minima, 2);
        assert_eq!(idx.search_lower_bound(10), 0);
        assert_eq!(idx.search_lower_bound(9), 0);
        assert_eq!(idx.search_lower_bound(15), 3);
        assert_eq!(idx.search_lower_bound(20), 3);
    }

    #[test]
    fn update_of_segment_zero_is_ignored() {
        let minima: Vec<Key> = vec![0, 10];
        let mut idx = StaticIndex::build(&minima, 64);
        idx.update(0, 999);
        assert_eq!(idx.search_lower_bound(5), 0);
    }

    #[test]
    fn footprint_scales_with_segments() {
        let small = StaticIndex::build(&(0..10i64).collect::<Vec<_>>(), 64);
        let large = StaticIndex::build(&(0..10_000i64).collect::<Vec<_>>(), 64);
        assert!(large.memory_footprint() > small.memory_footprint() * 100);
    }
}
