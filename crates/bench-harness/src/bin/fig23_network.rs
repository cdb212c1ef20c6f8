//! Figure 23 (beyond the paper) — throughput of the wire-protocol
//! network front-end vs in-process pipelined sessions.
//!
//! The `rma-net` front-end serves the session router over loopback
//! TCP: length-prefixed CRC-checked frames, an epoll event loop, and
//! wire-side group commit that merges small requests from many
//! connections into one router pass. Framing, checksums and two
//! socket hops per round-trip must not eat the router's throughput:
//! this driver measures an identical 90/10 read/write uniform mix
//! against one preloaded `Db` in two shapes —
//!
//! * `pipelined` — each client thread opens a [`rma_db::Session`]
//!   and submits batches directly (fig. 19's serving shape, the
//!   in-process baseline);
//! * `networked` — each client thread opens a [`rma_net::WireClient`]
//!   over loopback and sends the same batches as request frames,
//!   keeping several correlation ids in flight, with the epoll event
//!   loop decoding into the same router.
//!
//! swept over client/connection counts. The repository's acceptance
//! bar: networked throughput at **4 connections ≥ 0.5×** the
//! in-process pipelined path — the whole wire stack (encode, CRC,
//! syscalls, event loop, decode, reply streaming) costs at most half
//! the serving capacity on this host.
//!
//! Writes `BENCH_network.json`; schema in
//! `crates/bench-harness/README.md`.

use bench_harness::{fmt_throughput, median_of, throughput, time, Cli};
use rma_core::RmaConfig;
use rma_db::{Db, Op, Ticket};
use rma_net::{NetConfig, NetServer, NetSnapshot, WireClient};
use std::collections::VecDeque;
use std::sync::Arc;
use workloads::{MixOp, ReadWriteMix, SplitMix64};

const SHARDS: usize = 8;
/// Ops per submitted batch / request frame (amortizes the channel
/// hop and the frame overhead identically).
const BATCH: usize = 1024;
/// Batches each client keeps in flight before collecting.
const DEPTH: usize = 4;
const READ_FRACTION: f64 = 0.9;
const CONN_COUNTS: [usize; 3] = [1, 2, 4];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Shape {
    Pipelined,
    Networked,
}

impl Shape {
    fn label(self) -> &'static str {
        match self {
            Shape::Pipelined => "pipelined",
            Shape::Networked => "networked",
        }
    }
}

struct Row {
    shape: Shape,
    connections: usize,
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

fn next_batch(mix: &mut ReadWriteMix<impl FnMut() -> i64>, len: usize, out: &mut Vec<Op>) {
    out.clear();
    for _ in 0..len {
        out.push(match mix.next_op() {
            MixOp::Read(k) => Op::Get(k),
            MixOp::Write(k, v) => Op::Insert(k, v),
        });
    }
}

fn run_pipelined(cli: &Cli, clients: usize) -> f64 {
    let per_client = (cli.scale / clients).max(1);
    median_of(cli.reps, || {
        let db = preloaded(cli);
        let (_, secs) = time(|| {
            std::thread::scope(|sc| {
                for client in 0..clients {
                    let db = &db;
                    sc.spawn(move || {
                        let mut mix = mix_for(cli, client);
                        let mut session = db.session();
                        let mut in_flight: VecDeque<Ticket> = VecDeque::new();
                        let mut batch = Vec::with_capacity(BATCH);
                        let mut submitted = 0usize;
                        while submitted < per_client {
                            next_batch(&mut mix, BATCH.min(per_client - submitted), &mut batch);
                            submitted += batch.len();
                            in_flight.push_back(session.submit(&batch));
                            if in_flight.len() >= DEPTH {
                                let replies = in_flight.pop_front().expect("non-empty").wait();
                                std::hint::black_box(replies.len());
                            }
                        }
                        for ticket in in_flight {
                            std::hint::black_box(ticket.wait().len());
                        }
                    });
                }
            });
        });
        throughput(per_client * clients, secs)
    })
}

/// Returns (ops/sec, net-stats snapshot from the run's server).
fn run_networked(cli: &Cli, clients: usize) -> (f64, NetSnapshot) {
    let per_client = (cli.scale / clients).max(1);
    let mut last_snapshot = None;
    let rate = median_of(cli.reps, || {
        let db = Arc::new(preloaded(cli));
        let srv = NetServer::spawn(Arc::clone(&db), NetConfig::default()).expect("loopback bind");
        let port = srv.port();
        let (_, secs) = time(|| {
            std::thread::scope(|sc| {
                for client in 0..clients {
                    sc.spawn(move || {
                        let mut mix = mix_for(cli, client);
                        let mut wire = WireClient::connect(port).expect("client connect");
                        let mut batch = Vec::with_capacity(BATCH);
                        let mut submitted = 0usize;
                        while submitted < per_client {
                            next_batch(&mut mix, BATCH.min(per_client - submitted), &mut batch);
                            submitted += batch.len();
                            wire.send(&batch).expect("send");
                            while wire.in_flight() >= DEPTH {
                                let done = wire.recv().expect("recv");
                                std::hint::black_box(done.replies.len());
                            }
                        }
                        while wire.in_flight() > 0 {
                            let done = wire.recv().expect("drain");
                            std::hint::black_box(done.replies.len());
                        }
                    });
                }
            });
        });
        last_snapshot = Some(srv.stats());
        throughput(per_client * clients, secs)
    });
    (rate, last_snapshot.expect("at least one rep ran"))
}

fn write_json(
    path: &str,
    rows: &[Row],
    net: &NetSnapshot,
    cli: &Cli,
    workers: u64,
    hw: usize,
) -> std::io::Result<()> {
    let rate = |shape: Shape, connections: usize| {
        rows.iter()
            .find(|r| r.shape == shape && r.connections == connections)
            .map(|r| r.ops_per_sec)
            .unwrap_or(f64::NAN)
    };
    let max_conns = *CONN_COUNTS.last().expect("non-empty sweep");
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"network\",\n");
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
            "    {{\"mode\": \"{}\", \"connections\": {}, \"ops_per_sec\": {:.1}}}{}\n",
            r.shape.label(),
            r.connections,
            r.ops_per_sec,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"net_{max_conns}c\": {{\"frames_in\": {}, \"frames_out\": {}, \"bytes_in\": {}, \
         \"bytes_out\": {}, \"merged_submits\": {}, \"merged_requests\": {}, \
         \"backpressure_pauses\": {}, \"decode_errors\": {}}},\n",
        net.frames_in,
        net.frames_out,
        net.bytes_in,
        net.bytes_out,
        net.merged_submits,
        net.merged_requests,
        net.backpressure_pauses,
        net.decode_errors,
    ));
    json.push_str(&format!(
        "  \"ratio_networked_vs_pipelined_{max_conns}c\": {:.4},\n",
        rate(Shape::Networked, max_conns) / rate(Shape::Pipelined, max_conns)
    ));
    json.push_str(&format!(
        "  \"ratio_networked_vs_pipelined_1c\": {:.4},\n",
        rate(Shape::Networked, 1) / rate(Shape::Pipelined, 1)
    ));
    json.push_str(&format!("  \"ratio_bar_{max_conns}c\": 0.5\n}}\n"));
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
        "# Fig. 23 — network front-end throughput: N={} preloaded, N mixed ops ({} reads), {SHARDS} shards, {workers} router workers, batch {BATCH}, depth {DEPTH}, B={}, hw_threads={hw}",
        cli.scale, READ_FRACTION, cli.seg
    );
    print!("{:<11}", "mode");
    for c in CONN_COUNTS {
        print!(" {:>15}", format!("{c} connection(s)"));
    }
    println!();

    let mut rows = Vec::new();
    let mut net_at_max: Option<NetSnapshot> = None;
    for shape in [Shape::Pipelined, Shape::Networked] {
        print!("{:<11}", shape.label());
        for connections in CONN_COUNTS {
            let rate = match shape {
                Shape::Pipelined => run_pipelined(&cli, connections),
                Shape::Networked => {
                    let (rate, snap) = run_networked(&cli, connections);
                    if connections == *CONN_COUNTS.last().expect("non-empty") {
                        net_at_max = Some(snap);
                    }
                    rate
                }
            };
            print!(" {:>15}", fmt_throughput(rate as usize, 1.0).trim());
            rows.push(Row {
                shape,
                connections,
                ops_per_sec: rate,
            });
        }
        println!();
    }
    let rate = |shape: Shape, connections: usize| {
        rows.iter()
            .find(|r| r.shape == shape && r.connections == connections)
            .map(|r| r.ops_per_sec)
            .unwrap_or(0.0)
    };
    let max_conns = *CONN_COUNTS.last().expect("non-empty sweep");
    println!(
        "# networked/pipelined throughput ratio at {max_conns} connections: {:.3} (bar: >= 0.5)",
        rate(Shape::Networked, max_conns) / rate(Shape::Pipelined, max_conns).max(1e-9)
    );
    let net = net_at_max.expect("networked sweep ran");
    println!(
        "# wire at {max_conns} connections: {} frames in, {} merged submits covering {} requests, {} decode errors",
        net.frames_in, net.merged_submits, net.merged_requests, net.decode_errors
    );

    let path = "BENCH_network.json";
    match write_json(path, &rows, &net, &cli, workers, hw) {
        Ok(()) => println!("# wrote {path}"),
        Err(e) => eprintln!("# could not write {path}: {e}"),
    }
}
