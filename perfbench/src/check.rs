//! The reply checker: verifies every reply against what the generator
//! knows, and the post-restart check that every acknowledged insert
//! survived.
//!
//! What a reply must satisfy, per request kind:
//!
//! * read — every key is live (preloaded, or an acknowledged insert not
//!   removed), so each `Get` returns `Found(Some(value_of(k)))`;
//! * insert — `Inserted`; remove — `Removed(Some(value_of(k)))` (removes
//!   only target this connection's own earlier, acknowledged inserts);
//! * `SumRange` / `Scan` — visit exactly the requested count when at
//!   least that many preloaded keys follow the start (preloaded keys are
//!   never removed), otherwise at least the preloaded keys that follow;
//!   a `Scan` must also return keys in order, from `start` on, each with
//!   its [`value_of`], and skip no preloaded key inside the span it
//!   covers.
//!
//! A `Refused` reply, a missing reply or any other shape is a failure.
//! Failures are counted per op.

use crate::gen::{value_of, Kind, SCAN_COUNT, SUM_RANGE_COUNT};
use rma_core::{Key, Value};
use rma_db::Reply;

/// Checks replies against the sorted preload.
pub struct Checker<'a> {
    preload: &'a [(Key, Value)],
}

impl<'a> Checker<'a> {
    pub fn new(preload: &'a [(Key, Value)]) -> Self {
        Checker { preload }
    }

    /// Preloaded keys at or after `start`.
    fn preloaded_from(&self, start: Key) -> usize {
        self.preload.len() - self.preload.partition_point(|p| p.0 < start)
    }

    /// Whether `visited` elements is a correct count for a range op
    /// from `start` asking for `count`.
    fn count_ok(&self, start: Key, count: usize, visited: usize) -> bool {
        let floor = self.preloaded_from(start).min(count);
        visited >= floor && visited <= count
    }

    /// Failed ops among the replies to one request of `kind` over `keys`.
    pub fn failures(&self, kind: Kind, keys: &[Key], replies: &[Reply]) -> usize {
        let ops = match kind {
            Kind::SumRange | Kind::Scan => 1,
            _ => keys.len(),
        };
        if replies.len() != ops {
            return ops;
        }
        match kind {
            Kind::Read => keys
                .iter()
                .zip(replies)
                .filter(|(&k, r)| **r != Reply::Found(Some(value_of(k))))
                .count(),
            Kind::Insert => replies.iter().filter(|r| **r != Reply::Inserted).count(),
            Kind::Remove => keys
                .iter()
                .zip(replies)
                .filter(|(&k, r)| **r != Reply::Removed(Some(value_of(k))))
                .count(),
            Kind::SumRange => match replies[0] {
                Reply::Sum { visited, .. } if self.count_ok(keys[0], SUM_RANGE_COUNT, visited) => 0,
                _ => 1,
            },
            Kind::Scan => match &replies[0] {
                Reply::Entries(es) if self.scan_ok(keys[0], es) => 0,
                _ => 1,
            },
        }
    }

    fn scan_ok(&self, start: Key, es: &[(Key, Value)]) -> bool {
        if !self.count_ok(start, SCAN_COUNT, es.len()) {
            return false;
        }
        if es.first().is_some_and(|e| e.0 < start)
            || es.windows(2).any(|w| w[0].0 > w[1].0)
            || es.iter().any(|&(k, v)| v != value_of(k))
        {
            return false;
        }
        // Every preloaded key inside the covered span must be present.
        let Some(&(last, _)) = es.last() else {
            return true;
        };
        let from = self.preload.partition_point(|p| p.0 < start);
        let to = self.preload.partition_point(|p| p.0 <= last);
        let mut at = 0usize;
        for &(pk, _) in &self.preload[from..to] {
            while at < es.len() && es[at].0 < pk {
                at += 1;
            }
            if at == es.len() || es[at].0 != pk {
                return false;
            }
        }
        true
    }
}

/// Acknowledged inserts that a reopened store no longer returns with
/// their value.
pub fn missing_acked(get: impl Fn(Key) -> Option<Value>, acked: &[Key]) -> usize {
    acked
        .iter()
        .filter(|&&k| get(k) != Some(value_of(k)))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{fresh_key, preload_pairs};
    use std::collections::BTreeMap;

    fn scan_reply(pre: &[(Key, Value)], start: Key, n: usize) -> Vec<(Key, Value)> {
        pre.iter()
            .copied()
            .filter(|p| p.0 >= start)
            .take(n)
            .collect()
    }

    #[test]
    fn correct_replies_pass() {
        let pre = preload_pairs(10_000);
        let c = Checker::new(&pre);
        let keys: Vec<Key> = pre.iter().step_by(600).map(|p| p.0).collect();
        let found: Vec<Reply> = keys
            .iter()
            .map(|&k| Reply::Found(Some(value_of(k))))
            .collect();
        assert_eq!(c.failures(Kind::Read, &keys, &found), 0);
        let start = pre[100].0 - 1;
        let sum = Reply::Sum {
            visited: SUM_RANGE_COUNT,
            sum: 0,
        };
        assert_eq!(c.failures(Kind::SumRange, &[start], &[sum]), 0);
        let es = scan_reply(&pre, start, SCAN_COUNT);
        assert_eq!(c.failures(Kind::Scan, &[start], &[Reply::Entries(es)]), 0);
        // Near the end fewer keys follow: a short range is correct.
        let tail = pre[pre.len() - 10].0;
        let es = scan_reply(&pre, tail, SCAN_COUNT);
        assert_eq!(es.len(), 10);
        assert_eq!(c.failures(Kind::Scan, &[tail], &[Reply::Entries(es)]), 0);
    }

    #[test]
    fn corrupted_replies_are_flagged() {
        let pre = preload_pairs(10_000);
        let c = Checker::new(&pre);
        let keys: Vec<Key> = pre.iter().take(16).map(|p| p.0).collect();
        let mut found: Vec<Reply> = keys
            .iter()
            .map(|&k| Reply::Found(Some(value_of(k))))
            .collect();
        found[3] = Reply::Found(Some(value_of(keys[3]) ^ 1));
        found[9] = Reply::Found(None);
        assert_eq!(c.failures(Kind::Read, &keys, &found), 2);
        assert_eq!(
            c.failures(Kind::Read, &keys, &found[..15]),
            16,
            "a lost reply"
        );

        let ins: Vec<Key> = (0..16).map(|i| fresh_key(0, i)).collect();
        let mut acks = vec![Reply::Inserted; 16];
        acks[0] = Reply::Refused;
        assert_eq!(c.failures(Kind::Insert, &ins, &acks), 1, "refused");
        let removed = vec![Reply::Removed(None); 16];
        assert_eq!(c.failures(Kind::Remove, &ins, &removed), 16);

        let start = pre[10].0;
        let short = Reply::Sum {
            visited: SUM_RANGE_COUNT - 1,
            sum: 0,
        };
        assert_eq!(c.failures(Kind::SumRange, &[start], &[short]), 1);
        // Skip one preloaded key and take the next one past the end, so
        // the count, order and values are all still right.
        let mut es = scan_reply(&pre, start, SCAN_COUNT + 1);
        es.remove(500);
        assert_eq!(
            c.failures(Kind::Scan, &[start], &[Reply::Entries(es)]),
            1,
            "a skipped preloaded key"
        );
        let mut es = scan_reply(&pre, start, SCAN_COUNT);
        es[7].1 ^= 1;
        assert_eq!(
            c.failures(Kind::Scan, &[start], &[Reply::Entries(es)]),
            1,
            "bad value"
        );
    }

    #[test]
    fn missing_acknowledged_write_is_flagged() {
        let acked: Vec<Key> = (0..100).map(|i| fresh_key(1, i)).collect();
        let mut store: BTreeMap<Key, Value> = acked.iter().map(|&k| (k, value_of(k))).collect();
        assert_eq!(missing_acked(|k| store.get(&k).copied(), &acked), 0);
        store.remove(&acked[42]);
        store.insert(acked[7], 0);
        assert_eq!(missing_acked(|k| store.get(&k).copied(), &acked), 2);
    }
}
