//! Workload definitions and seeded request-stream generation.
//!
//! Every input of a run is a pure function of `(workload, seed,
//! connection)`, generated before the timed window; the system under
//! test only ever sees the resulting requests. Keys are drawn from two
//! disjoint families so no check depends on which duplicate a `get`
//! returns:
//!
//! * preloaded keys are even: `2 · scramble(i)` for `i < preload`;
//! * freshly inserted keys are odd, so they never collide with a
//!   preloaded key (on `point_uniform` and `ingest_durable` they are
//!   also distinct from each other: `2 · scramble(c) + 1` over a
//!   per-connection counter range).
//!
//! Every stored value is [`value_of`] its key, so a reader can verify
//! any reply without knowing which request wrote the key.

use rma_core::{Key, Value};
use workloads::{HotspotConfig, HotspotMotion, ShiftingHotspot, SplitMix64};

/// Ops in one read or write request.
pub const OPS_PER_REQ: usize = 16;
/// Elements one `SumRange` request asks for.
pub const SUM_RANGE_COUNT: usize = 1024;
/// Elements one `Scan` request asks for (larger than the server's
/// default `scan_chunk`, so replies stream in several chunks).
pub const SCAN_COUNT: usize = 4096;
/// Requests each connection keeps in flight.
pub const DEPTH: usize = 8;
/// A request may depend only on requests at least this far behind it
/// (reads of acknowledged inserts, removes of earlier inserts), so in
/// the common case the dependency is already answered when it is sent.
pub const LAG: usize = 2 * DEPTH;
/// Client threads, one wire connection each.
pub const CONNECTIONS: usize = 2;

/// The three workloads of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PointUniform,
    IngestDurable,
    ScanHotspot,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PointUniform,
        Workload::IngestDurable,
        Workload::ScanHotspot,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointUniform => "point_uniform",
            Workload::IngestDurable => "ingest_durable",
            Workload::ScanHotspot => "scan_hotspot",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Elements bulk-loaded before the run.
    pub fn preload(self) -> usize {
        match self {
            Workload::PointUniform => 1 << 23,
            Workload::IngestDurable => 1 << 20,
            Workload::ScanHotspot => 1 << 22,
        }
    }

    /// Requests per second per connection the pre-generated stream is
    /// sized for: two to three times the rate measured on a quiet
    /// 2-core host. A connection that exhausts its stream ends the
    /// window early (reported, not failed).
    fn requests_per_sec_cap(self) -> usize {
        match self {
            Workload::PointUniform => 30_000,
            Workload::IngestDurable => 15_000,
            Workload::ScanHotspot => 12_000,
        }
    }

    /// Requests generated per connection for a run measuring
    /// `seconds` (plus warm-up and slack).
    pub fn stream_len(self, seconds: f64) -> usize {
        (self.requests_per_sec_cap() as f64 * (seconds + 2.0)) as usize
    }

    /// Requests of connection 0's stream the per-layer ladder replays
    /// at every rung.
    pub fn ladder_len(self) -> usize {
        match self {
            Workload::PointUniform => 20_000,
            Workload::IngestDurable => 1_000,
            Workload::ScanHotspot => 8_000,
        }
    }

    /// The store size at which a growing workload's memory per element
    /// is read, so the figure does not depend on how far the run got.
    /// `None`: the size stays about flat, and the figure is the median
    /// of the sub-window samples.
    pub fn mem_probe_len(self) -> Option<usize> {
        match self {
            Workload::IngestDurable => Some(self.preload() + self.preload() / 4),
            _ => None,
        }
    }

    /// Whether the run's `Db` logs to a write-ahead log.
    pub fn durable(self) -> bool {
        self == Workload::IngestDurable
    }

    /// Whether `setup_s` counts wall seconds rather than the process's
    /// CPU seconds; each workload uses the clock on which its set-up
    /// reads steadily on a shared host. An in-memory bulk load is bound by
    /// compute: stolen time stretches its wall time and not its CPU
    /// time. The durable bulk load is bound by fsync: the host's steal
    /// lands while it waits on the disk, its wall time holds, and its
    /// CPU clock falls as steal rises.
    pub fn setup_on_wall_clock(self) -> bool {
        self.durable()
    }

    /// Hotspot band draws per phase on `scan_hotspot` (per connection).
    pub const HOT_PHASE_DRAWS: u64 = 50_000;
}

/// A bijection on `[0, 2^61)`: two odd-multiplier / xor-shift rounds.
/// Distinct inputs give distinct, uniformly spread outputs.
pub fn scramble61(x: u64) -> u64 {
    const MASK: u64 = (1 << 61) - 1;
    let mut x = x & MASK;
    x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15) & MASK;
    x ^= x >> 29;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9) & MASK;
    x ^= x >> 32;
    x
}

/// The `i`-th preloaded key (even).
pub fn preload_key(i: u64) -> Key {
    (scramble61(i) << 1) as Key
}

/// First counter of the fresh-key family; above every preload index.
const FRESH_BASE: u64 = 1 << 48;

/// The `c`-th fresh key of connection `conn` (odd, never preloaded,
/// distinct across connections and counters).
pub fn fresh_key(conn: usize, c: u64) -> Key {
    ((scramble61(FRESH_BASE + ((conn as u64) << 40) + c) << 1) | 1) as Key
}

/// The value stored under `k`.
pub fn value_of(k: Key) -> Value {
    let mut z = (k as u64) ^ 0x5851_F42D_4C95_7F2D;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as Value
}

/// The preload, sorted by key, each paired with [`value_of`].
pub fn preload_pairs(n: usize) -> Vec<(Key, Value)> {
    let mut keys: Vec<Key> = (0..n as u64).map(preload_key).collect();
    keys.sort_unstable();
    keys.into_iter().map(|k| (k, value_of(k))).collect()
}

/// One request type; reads and writes carry [`OPS_PER_REQ`] keys,
/// scans one start key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Insert,
    Remove,
    SumRange,
    Scan,
}

impl Kind {
    /// Ops in the request, which is also the number of keys it
    /// carries in [`Stream::keys`].
    pub fn ops(self) -> usize {
        match self {
            Kind::Read | Kind::Insert | Kind::Remove => OPS_PER_REQ,
            Kind::SumRange | Kind::Scan => 1,
        }
    }

    /// Latency class the request is reported under.
    pub fn class(self) -> Class {
        match self {
            Kind::Read => Class::Read,
            Kind::Insert | Kind::Remove => Class::Write,
            Kind::SumRange | Kind::Scan => Class::Scan,
        }
    }
}

/// Request classes with their own latency metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Read = 0,
    Write = 1,
    Scan = 2,
}

/// `NO_DEP`: the request depends on no earlier request.
pub const NO_DEP: u32 = u32::MAX;

/// One pre-generated request: its kind, where its keys start in
/// [`Stream::keys`], and the latest earlier request of the same
/// connection that must be acknowledged before it is sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Req {
    pub kind: Kind,
    pub at: u32,
    pub dep: u32,
}

/// One connection's request stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stream {
    pub reqs: Vec<Req>,
    pub keys: Vec<Key>,
}

impl Stream {
    pub fn keys_of(&self, r: &Req) -> &[Key] {
        &self.keys[r.at as usize..r.at as usize + r.kind.ops()]
    }

    /// The wire ops of request `r`, appended to `out` after clearing it.
    pub fn ops_into(&self, r: &Req, out: &mut Vec<rma_db::Op>) {
        use rma_db::Op;
        out.clear();
        let keys = self.keys_of(r);
        match r.kind {
            Kind::Read => out.extend(keys.iter().map(|&k| Op::Get(k))),
            Kind::Insert => out.extend(keys.iter().map(|&k| Op::Insert(k, value_of(k)))),
            Kind::Remove => out.extend(keys.iter().map(|&k| Op::Remove(k))),
            Kind::SumRange => out.push(Op::SumRange {
                start: keys[0],
                count: SUM_RANGE_COUNT,
            }),
            Kind::Scan => out.push(Op::Scan {
                start: keys[0],
                count: SCAN_COUNT,
            }),
        }
    }

    fn push(&mut self, kind: Kind, keys: impl IntoIterator<Item = Key>, dep: u32) {
        let at = self.keys.len() as u32;
        self.keys.extend(keys);
        debug_assert_eq!(self.keys.len() - at as usize, kind.ops());
        self.reqs.push(Req { kind, at, dep });
    }
}

/// Connection `conn`'s stream of `len` requests for `workload` under
/// `seed`. `preload` is the sorted preload the run loads.
pub fn stream(
    workload: Workload,
    seed: u64,
    conn: usize,
    len: usize,
    preload: &[(Key, Value)],
) -> Stream {
    let mut rng = SplitMix64::new(seed ^ 0xC0DE_0000_0000 ^ ((conn as u64 + 1) << 20));
    let mut s = Stream {
        reqs: Vec::with_capacity(len),
        keys: Vec::with_capacity(len * OPS_PER_REQ),
    };
    let n = preload.len() as u64;
    let mut fresh = 0u64;
    let mut next_fresh = || {
        fresh += 1;
        fresh_key(conn, fresh)
    };
    match workload {
        Workload::PointUniform => {
            // Inserted, not yet removed: (key, inserting request).
            let mut fifo: std::collections::VecDeque<(Key, usize)> = Default::default();
            for j in 0..len {
                let r = rng.next_f64();
                let removable = fifo.len() >= OPS_PER_REQ && fifo[OPS_PER_REQ - 1].1 + LAG <= j;
                if r < 0.8 {
                    let keys: Vec<Key> = (0..OPS_PER_REQ)
                        .map(|_| preload[rng.next_below(n) as usize].0)
                        .collect();
                    s.push(Kind::Read, keys, NO_DEP);
                } else if r < 0.9 || !removable {
                    let keys: Vec<Key> = (0..OPS_PER_REQ).map(|_| next_fresh()).collect();
                    fifo.extend(keys.iter().map(|&k| (k, j)));
                    s.push(Kind::Insert, keys, NO_DEP);
                } else {
                    let taken: Vec<(Key, usize)> = fifo.drain(..OPS_PER_REQ).collect();
                    let dep = taken.iter().map(|t| t.1).max().expect("non-empty") as u32;
                    s.push(Kind::Remove, taken.into_iter().map(|t| t.0), dep);
                }
            }
        }
        Workload::IngestDurable => {
            // Keys inserted by this connection, in request order, and
            // the count inserted by requests `0..=j`.
            let mut inserted: Vec<Key> = Vec::new();
            let mut inserted_through: Vec<usize> = Vec::with_capacity(len);
            for j in 0..len {
                let eligible = if j >= LAG {
                    inserted_through[j - LAG]
                } else {
                    0
                };
                if rng.next_f64() < 0.7 {
                    let keys: Vec<Key> = (0..OPS_PER_REQ).map(|_| next_fresh()).collect();
                    inserted.extend_from_slice(&keys);
                    s.push(Kind::Insert, keys, NO_DEP);
                } else if eligible > 0 {
                    let keys: Vec<Key> = (0..OPS_PER_REQ)
                        .map(|_| inserted[rng.next_below(eligible as u64) as usize])
                        .collect();
                    s.push(Kind::Read, keys, (j - LAG) as u32);
                } else {
                    let keys: Vec<Key> = (0..OPS_PER_REQ)
                        .map(|_| preload[rng.next_below(n) as usize].0)
                        .collect();
                    s.push(Kind::Read, keys, NO_DEP);
                }
                inserted_through.push(inserted.len());
            }
        }
        Workload::ScanHotspot => {
            // The band's position per phase comes from the workload
            // seed alone, so both connections hammer the same band;
            // the draws inside it use each connection's own rng.
            let hot = ShiftingHotspot::new(hotspot_config(), seed);
            let cfg = *hot.config();
            let mut draws = 0u64;
            let mut draw = |rng: &mut SplitMix64| -> Key {
                let phase = hot.phase_of(draws);
                draws += 1;
                if rng.next_f64() < cfg.hot_fraction {
                    let (lo, _) = hot.hot_range(phase);
                    lo + rng.next_below(cfg.hot_width as u64) as Key
                } else {
                    rng.next_below(cfg.domain as u64) as Key
                }
            };
            for _ in 0..len {
                let r = rng.next_f64();
                if r < 0.5 {
                    s.push(Kind::SumRange, [draw(&mut rng)], NO_DEP);
                } else if r < 0.6 {
                    s.push(Kind::Scan, [draw(&mut rng)], NO_DEP);
                } else if r < 0.9 {
                    // Reads hit the preloaded key at or after the draw,
                    // so they land in the band and have a known answer.
                    let keys: Vec<Key> = (0..OPS_PER_REQ)
                        .map(|_| {
                            let d = draw(&mut rng);
                            let at = preload.partition_point(|p| p.0 < d);
                            preload[at.min(preload.len() - 1)].0
                        })
                        .collect();
                    s.push(Kind::Read, keys, NO_DEP);
                } else {
                    let keys: Vec<Key> = (0..OPS_PER_REQ).map(|_| draw(&mut rng) | 1).collect();
                    s.push(Kind::Insert, keys, NO_DEP);
                }
            }
        }
    }
    s
}

/// The `scan_hotspot` key distribution: a band 1/64 of the domain
/// wide draws 90 % of keys and jumps every
/// [`Workload::HOT_PHASE_DRAWS`] draws.
pub fn hotspot_config() -> HotspotConfig {
    HotspotConfig {
        domain: 1 << 62,
        phase_len: Workload::HOT_PHASE_DRAWS,
        hot_fraction: 0.9,
        hot_width: 1 << 56,
        motion: HotspotMotion::Jump,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scramble_is_injective_on_a_sample() {
        let mut seen: Vec<u64> = (0..200_000).map(scramble61).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 200_000);
        assert!(seen.iter().all(|&x| x < 1 << 61));
    }

    #[test]
    fn key_families_are_disjoint() {
        assert!((0..1000).all(|i| preload_key(i) % 2 == 0));
        assert!((0..1000).all(|c| fresh_key(1, c) % 2 == 1));
        assert_ne!(fresh_key(0, 5), fresh_key(1, 5));
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let pre = preload_pairs(4096);
        for w in Workload::ALL {
            let a = stream(w, 7, 1, 3000, &pre);
            let b = stream(w, 7, 1, 3000, &pre);
            let c = stream(w, 8, 1, 3000, &pre);
            let other_conn = stream(w, 7, 0, 3000, &pre);
            assert_eq!(a, b, "{}: same seed, same stream", w.name());
            assert_ne!(a, c, "{}: another seed, another stream", w.name());
            assert_ne!(a, other_conn, "{}: connections differ", w.name());
        }
    }

    #[test]
    fn mixes_match_the_workload_shapes() {
        let pre = preload_pairs(4096);
        let count = |s: &Stream, k: Kind| s.reqs.iter().filter(|r| r.kind == k).count() as f64;
        let n = 20_000;
        let p = stream(Workload::PointUniform, 3, 0, n, &pre);
        assert!((count(&p, Kind::Read) / n as f64 - 0.8).abs() < 0.02);
        assert!(count(&p, Kind::Remove) > 0.08 * n as f64);
        let i = stream(Workload::IngestDurable, 3, 0, n, &pre);
        assert!((count(&i, Kind::Insert) / n as f64 - 0.7).abs() < 0.02);
        let h = stream(Workload::ScanHotspot, 3, 0, n, &pre);
        assert!((count(&h, Kind::SumRange) / n as f64 - 0.5).abs() < 0.02);
        assert!((count(&h, Kind::Scan) / n as f64 - 0.1).abs() < 0.02);
    }

    #[test]
    fn dependencies_point_far_enough_back() {
        let pre = preload_pairs(4096);
        for w in [Workload::PointUniform, Workload::IngestDurable] {
            let s = stream(w, 11, 0, 5000, &pre);
            for (j, r) in s.reqs.iter().enumerate() {
                if r.dep != NO_DEP {
                    assert!(r.dep as usize + LAG <= j, "{} request {j}", w.name());
                }
            }
        }
    }

    #[test]
    fn removes_only_target_earlier_inserts() {
        let pre = preload_pairs(4096);
        let s = stream(Workload::PointUniform, 5, 0, 20_000, &pre);
        let mut live = std::collections::HashSet::new();
        for r in &s.reqs {
            for &k in s.keys_of(r) {
                match r.kind {
                    Kind::Insert => assert!(live.insert(k), "fresh keys are distinct"),
                    Kind::Remove => assert!(live.remove(&k), "remove of a live insert"),
                    _ => {}
                }
            }
        }
    }
}
