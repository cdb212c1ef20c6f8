//! The per-layer ladder: one request stream replayed at every layer's
//! public entry point.
//!
//! The first [`Workload::ladder_len`] requests of connection 0's stream
//! — the same request ids the wire run sent first — are replayed one at
//! a time, on one thread, at five rungs, each over a fresh store holding
//! the same preload:
//!
//! | rung      | entry point                                   |
//! |-----------|-----------------------------------------------|
//! | `wire`    | `WireClient::call` over loopback, one request in flight |
//! | `session` | `Session::submit` → `Ticket::wait`            |
//! | `db`      | direct `Db` calls, one per op                 |
//! | `shard`   | direct `ShardedRma` calls, one per op         |
//! | `rma`     | one single-threaded `rma_core::Rma`           |
//!
//! Each request gets one span per rung, keyed by its request id. A hop's
//! self time for a request is its rung's span minus the next rung's span
//! for the same id; summed over requests and divided by ops it is the
//! ns/op the hop adds. Every reply is checked like the wire run's.
//!
//! On the durable workload the three `Db` rungs log to a fresh WAL each.
//! The session groups a request's writes behind one commit barrier,
//! while a direct `Db` write commits on its own, so the `db` rung pays
//! one barrier per op there; the `session` → `db` hop is then taken
//! over read requests only ([`Ladder::hop_on`]), where neither commits.

use crate::check::Checker;
use crate::drive::{self, Span, WorkDir};
use crate::gen::{Kind, Stream, Workload};
use rma_core::{Key, Rma, RmaConfig, RmaStats, Value};
use rma_db::{Db, Op, Reply};
use rma_net::WireClient;
use rma_shard::{ShardConfig, ShardedRma};
use std::time::Instant;

/// Rung names, top (wire) to bottom (rma).
pub const RUNGS: [&str; 5] = ["wire", "session", "db", "shard", "rma"];

/// One rung's replay.
pub struct Rung {
    pub name: &'static str,
    /// One span per replayed request, in request order (connection 0;
    /// times in ns since the rung started).
    pub spans: Vec<Span>,
    /// Span time and ops per request kind, indexed like [`kind_index`].
    pub kind_ns: [u64; 5],
    pub kind_ops: [u64; 5],
    /// Elements visited by `SumRange` requests.
    pub sum_range_elems: u64,
    pub ops: u64,
    pub failed: u64,
}

impl Rung {
    pub fn total_ns(&self) -> u64 {
        self.spans.iter().map(|s| s.end - s.start).sum()
    }

    pub fn ns_per_op(&self) -> f64 {
        self.total_ns() as f64 / self.ops.max(1) as f64
    }
}

fn kind_index(k: Kind) -> usize {
    match k {
        Kind::Read => 0,
        Kind::Insert => 1,
        Kind::Remove => 2,
        Kind::SumRange => 3,
        Kind::Scan => 4,
    }
}

/// The ladder's result: every rung, plus the `rma` rung's store carried
/// on through the rest of the stream the wire run answered.
pub struct Ladder {
    pub rungs: Vec<Rung>,
    pub core: Core,
}

/// The paper's layer over the whole answered stream of connection 0:
/// the `rma` rung's replay continued past the ladder's requests, with
/// the `Rma`'s own counters around it.
pub struct Core {
    /// Time and ops per request kind, indexed like [`kind_index`].
    pub kind_ns: [u64; 5],
    pub kind_ops: [u64; 5],
    pub sum_range_elems: u64,
    pub before: RmaStats,
    pub after: RmaStats,
    pub bytes_per_elem: f64,
}

impl Ladder {
    pub fn rung(&self, name: &str) -> &Rung {
        self.rungs
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("rung {name}"))
    }

    /// ns/op rung `upper` adds over rung `lower` on the same requests.
    pub fn hop(&self, upper: &str, lower: &str) -> f64 {
        let (u, l) = (self.rung(upper), self.rung(lower));
        (u.total_ns() as f64 - l.total_ns() as f64) / u.ops.max(1) as f64
    }

    /// ns/op rung `upper` adds over rung `lower`, over the requests of
    /// `kinds` only.
    pub fn hop_on(&self, upper: &str, lower: &str, kinds: &[Kind]) -> f64 {
        let (u, l) = (self.rung(upper), self.rung(lower));
        let sum = |a: &[u64; 5]| -> u64 { kinds.iter().map(|&k| a[kind_index(k)]).sum() };
        (sum(&u.kind_ns) as f64 - sum(&l.kind_ns) as f64) / sum(&u.kind_ops).max(1) as f64
    }

    pub fn failed(&self) -> u64 {
        self.rungs.iter().map(|r| r.failed).sum()
    }
}

/// Replays the requests `range` of `stream` through `call`, timing each.
fn replay(
    name: &'static str,
    stream: &Stream,
    range: std::ops::Range<usize>,
    checker: &Checker,
    mut call: impl FnMut(&[Op]) -> Vec<Reply>,
) -> Rung {
    let mut rung = Rung {
        name,
        spans: Vec::with_capacity(range.len()),
        kind_ns: [0; 5],
        kind_ops: [0; 5],
        sum_range_elems: 0,
        ops: 0,
        failed: 0,
    };
    let mut ops = Vec::with_capacity(16);
    let epoch = Instant::now();
    for j in range {
        let req = &stream.reqs[j];
        stream.ops_into(req, &mut ops);
        let start = epoch.elapsed().as_nanos() as u64;
        let replies = call(&ops);
        let end = epoch.elapsed().as_nanos() as u64;
        let ns = end - start;
        rung.spans.push(Span {
            conn: 0,
            req: j as u32,
            start,
            end,
        });
        let k = kind_index(req.kind);
        rung.kind_ns[k] += ns;
        rung.kind_ops[k] += ops.len() as u64;
        rung.ops += ops.len() as u64;
        if let Some(Reply::Sum { visited, .. }) = replies.first() {
            rung.sum_range_elems += *visited as u64;
        }
        rung.failed += checker.failures(req.kind, stream.keys_of(req), &replies) as u64;
    }
    rung
}

/// The synchronous surface the three direct rungs share.
trait Direct {
    fn get(&mut self, k: Key) -> Option<Value>;
    fn insert(&mut self, k: Key, v: Value);
    fn remove(&mut self, k: Key) -> Option<Value>;
    fn sum_range(&mut self, start: Key, count: usize) -> (usize, i64);
    fn scan(&mut self, start: Key, count: usize, out: &mut Vec<(Key, Value)>);
}

impl Direct for &Db {
    fn get(&mut self, k: Key) -> Option<Value> {
        Db::get(self, k)
    }
    fn insert(&mut self, k: Key, v: Value) {
        Db::insert(self, k, v)
    }
    fn remove(&mut self, k: Key) -> Option<Value> {
        Db::remove(self, k)
    }
    fn sum_range(&mut self, start: Key, count: usize) -> (usize, i64) {
        Db::sum_range(self, start, count)
    }
    fn scan(&mut self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) {
        Db::scan(self, start, count, |k, v| out.push((k, v)));
    }
}

impl Direct for &ShardedRma {
    fn get(&mut self, k: Key) -> Option<Value> {
        ShardedRma::get(self, k)
    }
    fn insert(&mut self, k: Key, v: Value) {
        ShardedRma::insert(self, k, v)
    }
    fn remove(&mut self, k: Key) -> Option<Value> {
        ShardedRma::remove(self, k)
    }
    fn sum_range(&mut self, start: Key, count: usize) -> (usize, i64) {
        ShardedRma::sum_range(self, start, count)
    }
    fn scan(&mut self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) {
        ShardedRma::scan(self, start, count, |k, v| out.push((k, v)));
    }
}

impl Direct for Rma {
    fn get(&mut self, k: Key) -> Option<Value> {
        Rma::get(self, k)
    }
    fn insert(&mut self, k: Key, v: Value) {
        Rma::insert(self, k, v)
    }
    fn remove(&mut self, k: Key) -> Option<Value> {
        Rma::remove(self, k)
    }
    fn sum_range(&mut self, start: Key, count: usize) -> (usize, i64) {
        Rma::sum_range(self, start, count)
    }
    fn scan(&mut self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) {
        Rma::scan(self, start, count, |k, v| out.push((k, v)));
    }
}

/// Executes `ops` one call each, answering like a session would.
fn direct(d: &mut impl Direct, ops: &[Op]) -> Vec<Reply> {
    ops.iter()
        .map(|op| match *op {
            Op::Get(k) => Reply::Found(d.get(k)),
            Op::Insert(k, v) => {
                d.insert(k, v);
                Reply::Inserted
            }
            Op::Remove(k) => Reply::Removed(d.remove(k)),
            Op::SumRange { start, count } => {
                let (visited, sum) = d.sum_range(start, count);
                Reply::Sum { visited, sum }
            }
            Op::Scan { start, count } => {
                let mut es = Vec::with_capacity(count);
                d.scan(start, count, &mut es);
                Reply::Entries(es)
            }
            Op::FirstGe(_) => unreachable!("the benchmark sends no FirstGe"),
        })
        .collect()
}

/// Replays the first `workload.ladder_len()` requests of `stream` at
/// every rung, then carries the `rma` rung on to request `answered`.
pub fn run(
    workload: Workload,
    stream: &Stream,
    answered: usize,
    preload: &[(Key, Value)],
    work: &mut WorkDir,
) -> Ladder {
    let n = workload.ladder_len().min(answered);
    let checker = Checker::new(preload);
    let wal = |work: &mut WorkDir| workload.durable().then(|| work.fresh());
    let mut rungs = Vec::with_capacity(RUNGS.len());

    let (served, _, _) = drive::setup(preload, wal(work));
    let mut client = WireClient::connect(served.server.port()).expect("connect to the server");
    rungs.push(replay("wire", stream, 0..n, &checker, |ops| {
        client.call(ops).expect("wire call")
    }));
    drop(client);
    served.shut_down();

    let db = drive::builder(wal(work).as_deref())
        .build_bulk(preload)
        .expect("benchmark configuration is valid");
    let mut session = db.session();
    rungs.push(replay("session", stream, 0..n, &checker, |ops| {
        session.submit(ops).wait()
    }));
    drop(session);
    drop(db);

    let db = drive::builder(wal(work).as_deref())
        .build_bulk(preload)
        .expect("benchmark configuration is valid");
    let mut d = &db;
    rungs.push(replay("db", stream, 0..n, &checker, |ops| {
        direct(&mut d, ops)
    }));
    drop(db);

    let engine = ShardedRma::load_bulk(ShardConfig::default(), preload);
    let mut e = &engine;
    rungs.push(replay("shard", stream, 0..n, &checker, |ops| {
        direct(&mut e, ops)
    }));
    drop(engine);

    let mut rma = Rma::new(RmaConfig::default());
    rma.load_bulk(preload);
    let before = *rma.stats();
    rungs.push(replay("rma", stream, 0..n, &checker, |ops| {
        direct(&mut rma, ops)
    }));
    let rest = replay("rma", stream, n..answered, &checker, |ops| {
        direct(&mut rma, ops)
    });
    let head = rungs.last().expect("the rma rung");
    let core = Core {
        kind_ns: std::array::from_fn(|i| head.kind_ns[i] + rest.kind_ns[i]),
        kind_ops: std::array::from_fn(|i| head.kind_ops[i] + rest.kind_ops[i]),
        sum_range_elems: head.sum_range_elems + rest.sum_range_elems,
        before,
        after: *rma.stats(),
        bytes_per_elem: rma.memory_footprint() as f64 / rma.len().max(1) as f64,
    };
    rungs.last_mut().expect("the rma rung").failed += rest.failed;
    Ladder { rungs, core }
}
