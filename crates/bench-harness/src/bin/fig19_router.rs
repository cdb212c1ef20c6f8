//! Figure 19 (beyond the paper) — throughput of the session-pipelined
//! request router vs direct engine calls.
//!
//! The `rma-db` facade routes typed operations through channel-fed,
//! shard-affine worker threads so one process can serve many
//! pipelined clients. That indirection must not eat the engine's
//! throughput: this driver measures an identical 90/10 read/write
//! uniform mix against one preloaded `Db` in two shapes —
//!
//! * `direct` — each client thread calls `Db::get` / `Db::insert`
//!   synchronously (the embedded-library shape);
//! * `pipelined` — each client thread opens a [`rma_db::Session`], submits
//!   the same operations in batches and keeps several tickets in
//!   flight, with the router workers executing (the serving shape).
//!
//! swept over client counts. The repository's acceptance bar:
//! pipelined throughput at **1 session ≥ 0.8×** the direct path on
//! this 1-core host — the router's per-op overhead (routing, channel
//! hop, ticket fill) stays bounded. On multi-core hosts the pipelined
//! path additionally overlaps client batch-building with worker
//! execution.
//!
//! Writes `BENCH_router_throughput.json`; schema in
//! `crates/bench-harness/README.md`.

use bench_harness::{fmt_throughput, median_of, throughput, time, Cli};
use rma_core::RmaConfig;
use rma_db::{Db, Op, Ticket};
use std::collections::VecDeque;
use workloads::{MixOp, ReadWriteMix, SplitMix64};

const SHARDS: usize = 8;
/// Ops per submitted batch (amortizes the channel hop).
const BATCH: usize = 1024;
/// Tickets each session keeps in flight before collecting.
const DEPTH: usize = 4;
const READ_FRACTION: f64 = 0.9;
const SESSION_COUNTS: [usize; 3] = [1, 2, 4];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Shape {
    Direct,
    Pipelined,
}

impl Shape {
    fn label(self) -> &'static str {
        match self {
            Shape::Direct => "direct",
            Shape::Pipelined => "pipelined",
        }
    }
}

struct Row {
    shape: Shape,
    sessions: usize,
    ops_per_sec: f64,
}

fn preloaded(cli: &Cli) -> Db {
    let mut base: Vec<(i64, i64)> = {
        let mut rng = SplitMix64::new(cli.seed ^ 0xB00B_5EED);
        (0..cli.scale)
            .map(|i| ((rng.next_u64() >> 2) as i64, i as i64))
            .collect()
    };
    base.sort_unstable();
    Db::builder()
        .shards(SHARDS)
        .rma(RmaConfig::with_segment_size(cli.seg))
        .build_bulk(&base)
        .expect("static driver config is valid")
}

fn mix_for(cli: &Cli, client: usize) -> ReadWriteMix<impl FnMut() -> i64> {
    let mut rng = SplitMix64::new(cli.seed ^ (0x5E55_0000 + client as u64));
    ReadWriteMix::new(
        move || (rng.next_u64() >> 2) as i64,
        READ_FRACTION,
        cli.seed ^ (0xC01D_0000 + client as u64),
    )
}

fn run_one(cli: &Cli, shape: Shape, sessions: usize) -> f64 {
    let per_client = (cli.scale / sessions).max(1);
    median_of(cli.reps, || {
        let db = preloaded(cli);
        let (_, secs) = time(|| {
            std::thread::scope(|sc| {
                for client in 0..sessions {
                    let db = &db;
                    sc.spawn(move || {
                        let mut mix = mix_for(cli, client);
                        match shape {
                            Shape::Direct => {
                                let mut checksum = 0i64;
                                for _ in 0..per_client {
                                    match mix.next_op() {
                                        MixOp::Read(k) => {
                                            checksum =
                                                checksum.wrapping_add(db.get(k).unwrap_or(0));
                                        }
                                        MixOp::Write(k, v) => db.insert(k, v),
                                    }
                                }
                                std::hint::black_box(checksum);
                            }
                            Shape::Pipelined => {
                                let mut session = db.session();
                                let mut in_flight: VecDeque<Ticket> = VecDeque::new();
                                let mut batch = Vec::with_capacity(BATCH);
                                let mut submitted = 0usize;
                                while submitted < per_client {
                                    batch.clear();
                                    while batch.len() < BATCH
                                        && submitted + batch.len() < per_client
                                    {
                                        batch.push(match mix.next_op() {
                                            MixOp::Read(k) => Op::Get(k),
                                            MixOp::Write(k, v) => Op::Insert(k, v),
                                        });
                                    }
                                    submitted += batch.len();
                                    in_flight.push_back(session.submit(&batch));
                                    if in_flight.len() >= DEPTH {
                                        let replies =
                                            in_flight.pop_front().expect("non-empty").wait();
                                        std::hint::black_box(replies.len());
                                    }
                                }
                                for ticket in in_flight {
                                    std::hint::black_box(ticket.wait().len());
                                }
                            }
                        }
                    });
                }
            });
        });
        throughput(per_client * sessions, secs)
    })
}

fn write_json(path: &str, rows: &[Row], cli: &Cli, workers: u64, hw: usize) -> std::io::Result<()> {
    let rate = |shape: Shape, sessions: usize| {
        rows.iter()
            .find(|r| r.shape == shape && r.sessions == sessions)
            .map(|r| r.ops_per_sec)
            .unwrap_or(f64::NAN)
    };
    let max_sessions = *SESSION_COUNTS.last().expect("non-empty sweep");
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"router_throughput\",\n");
    json.push_str(&format!(
        "  \"scale\": {},\n  \"ops_per_sweep\": {},\n  \"batch\": {BATCH},\n  \"depth\": {DEPTH},\n",
        cli.scale, cli.scale
    ));
    json.push_str(&format!(
        "  \"read_fraction\": {READ_FRACTION},\n  \"shards\": {SHARDS},\n  \"router_workers\": {workers},\n"
    ));
    json.push_str(&format!(
        "  \"seed\": {},\n  \"segment_size\": {},\n  \"reps\": {},\n  \"hw_threads\": {hw},\n",
        cli.seed, cli.seg, cli.reps
    ));
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"{}\", \"sessions\": {}, \"ops_per_sec\": {:.1}}}{}\n",
            r.shape.label(),
            r.sessions,
            r.ops_per_sec,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"ratio_pipelined_vs_direct_1s\": {:.4},\n",
        rate(Shape::Pipelined, 1) / rate(Shape::Direct, 1)
    ));
    json.push_str(&format!(
        "  \"ratio_pipelined_vs_direct_{max_sessions}s\": {:.4},\n",
        rate(Shape::Pipelined, max_sessions) / rate(Shape::Direct, max_sessions)
    ));
    json.push_str("  \"ratio_bar_1s\": 0.8\n}\n");
    std::fs::write(path, json)
}

fn main() {
    let cli = Cli::parse();
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    // One throwaway build reports the resolved worker count.
    let workers = preloaded(&Cli {
        scale: 16,
        ..cli.clone()
    })
    .stats()
    .router
    .workers;
    println!(
        "# Fig. 19 — session router throughput: N={} preloaded, N mixed ops ({} reads), {SHARDS} shards, {workers} router workers, batch {BATCH}, depth {DEPTH}, B={}, hw_threads={hw}",
        cli.scale, READ_FRACTION, cli.seg
    );
    print!("{:<11}", "mode");
    for s in SESSION_COUNTS {
        print!(" {:>12}", format!("{s} session(s)"));
    }
    println!();

    let mut rows = Vec::new();
    for shape in [Shape::Direct, Shape::Pipelined] {
        print!("{:<11}", shape.label());
        for sessions in SESSION_COUNTS {
            let rate = run_one(&cli, shape, sessions);
            print!(" {:>12}", fmt_throughput(rate as usize, 1.0).trim());
            rows.push(Row {
                shape,
                sessions,
                ops_per_sec: rate,
            });
        }
        println!();
    }
    let rate = |shape: Shape, sessions: usize| {
        rows.iter()
            .find(|r| r.shape == shape && r.sessions == sessions)
            .map(|r| r.ops_per_sec)
            .unwrap_or(0.0)
    };
    println!(
        "# pipelined/direct throughput ratio at 1 session: {:.3} (bar: >= 0.8)",
        rate(Shape::Pipelined, 1) / rate(Shape::Direct, 1).max(1e-9)
    );

    let path = "BENCH_router_throughput.json";
    match write_json(path, &rows, &cli, workers, hw) {
        Ok(()) => println!("# wrote {path}"),
        Err(e) => eprintln!("# could not write {path}: {e}"),
    }
}
