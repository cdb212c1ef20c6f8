//! `perfbench` — the benchmark of the served store.
//!
//! ```text
//! perfbench --workload <point_uniform|ingest_durable|scan_hotspot|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (or all three with `all`) closed-loop over loopback
//! against an in-process `NetServer`, checks every reply, and prints each
//! metric with its unit. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics (counter
//! deltas around the window plus the replay ladder of `ladder.rs`) with
//! `--trace 1`. Spans of a traced run are written to
//! `perfbench/out/spans-<workload>.csv` when it ends.
//!
//! The run fails — exit code 1, no result line — when a mechanism
//! counter reads the wrong way (see [`mechanism_checks`]): zero where
//! the workload exercises its mechanism, or non-zero where it bypasses
//! it. The one exception is an expectation listed in [`KNOWN_DEFECTS`]:
//! its violation is printed and the run still reports.

mod check;
mod drive;
mod gen;
mod ladder;
mod report;
mod window;

use drive::{RunOut, Snap, Span, WorkDir};
use gen::{Class, Kind, Workload, CONNECTIONS, DEPTH};
use report::{ratio, HistDelta, Metrics, END_TO_END, PER_LAYER};
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use window::{WindowStats, SUB_WINDOWS};

/// Mechanism expectations the program is known to break now and then,
/// as `(workload, counter)`. A violation is printed as a `# <workload>
/// known defect:` line and does not fail the run; the counter itself is
/// a per-layer metric.
///
/// `maint.runs` on `point_uniform`: `ShardedRma::tick_decay` halves the
/// shards' access histograms one shard at a time, so a maintainer poll
/// that lands mid-sweep reads an access imbalance of up to 2 on uniform
/// traffic (e.g. masses `[1028, 1033, 1034, 1042, 1604, 2083, 2041,
/// 2050]`) and plans maintenance the traffic does not call for.
const KNOWN_DEFECTS: &[(Workload, &str)] = &[(Workload::PointUniform, "maint.runs")];

/// Set-ups per untraced run; `setup_s` is their median on the workload's
/// set-up clock (see [`Workload::setup_on_wall_clock`]).
const SETUPS: usize = 7;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workloads = if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&v).ok_or(format!("unknown workload {v}"))?]
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// What one workload's run produced.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    /// I/O errors: reasons the run is not correct beyond failed ops.
    problems: Vec<String>,
    /// Mechanism counters that read the wrong way. They describe what
    /// the system did, not whether its answers were right: they leave
    /// `correct` alone and fail the run instead.
    mechanism: Vec<String>,
    /// Violations of [`KNOWN_DEFECTS`]: printed, not fatal.
    known: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("# {}", host_line());
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut outcomes = Vec::new();
    for &w in &args.workloads {
        let o = run_workload(w, &args);
        // Every metric the run measured, whichever table the result
        // line carries.
        for t in [END_TO_END, PER_LAYER] {
            print!(
                "{}",
                report::table_lines(&format!("{} ", w.name()), &o.metrics, t)
            );
        }
        for p in &o.problems {
            println!("# {} problem: {p}", w.name());
        }
        for p in &o.mechanism {
            println!("# {} mechanism: {p}", w.name());
        }
        for p in &o.known {
            println!("# {} known defect: {p}", w.name());
        }
        outcomes.push((w, o));
    }
    if outcomes.iter().any(|(_, o)| !o.mechanism.is_empty()) {
        println!("# mechanism check failed: no result");
        let _ = std::io::stdout().flush();
        return ExitCode::FAILURE;
    }
    let correct = outcomes
        .iter()
        .all(|(_, o)| o.failed == 0 && o.problems.is_empty());
    let attempted = outcomes.iter().map(|(_, o)| o.attempted).sum();
    let failed = outcomes.iter().map(|(_, o)| o.failed).sum();
    let metrics = if let [(_, o)] = outcomes.as_slice() {
        report::metrics_json(&o.metrics, table)
    } else {
        // `all`: one object per workload.
        let per: Vec<String> = outcomes
            .iter()
            .map(|(w, o)| {
                format!(
                    "\"{}\": {}",
                    w.name(),
                    report::metrics_json(&o.metrics, table)
                )
            })
            .collect();
        format!("{{{}}}", per.join(", "))
    };
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    let _ = std::io::stdout().flush();
    ExitCode::SUCCESS
}

/// Hardware and configuration every result depends on.
fn host_line() -> String {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let l3 = l3_bytes().map_or("unknown".into(), |b| format!("{}KiB", b >> 10));
    let workers = drive::builder(None)
        .build()
        .expect("benchmark configuration is valid")
        .stats()
        .router
        .workers;
    format!(
        "hw_threads={hw} l3={l3} router_workers={workers} client_threads={CONNECTIONS} \
         connections={CONNECTIONS} depth={DEPTH}"
    )
}

/// The L3 cache size from CPUID (Intel leaf 4, AMD leaf 0x8000_001D).
#[cfg(target_arch = "x86_64")]
fn l3_bytes() -> Option<u64> {
    use std::arch::x86_64::{__cpuid, __cpuid_count};
    let (vendor, max_ext) = (__cpuid(0), __cpuid(0x8000_0000).eax);
    let amd = vendor.ebx == u32::from_le_bytes(*b"Auth");
    let leaf = if amd && max_ext >= 0x8000_001D {
        0x8000_001D
    } else {
        4
    };
    for sub in 0..16 {
        // Cache type 0 marks the end of the cache list.
        let r = __cpuid_count(leaf, sub);
        if r.eax & 0x1f == 0 {
            break;
        }
        if (r.eax >> 5) & 7 == 3 {
            let ways = u64::from((r.ebx >> 22) & 0x3ff) + 1;
            let partitions = u64::from((r.ebx >> 12) & 0x3ff) + 1;
            let line = u64::from(r.ebx & 0xfff) + 1;
            let sets = u64::from(r.ecx) + 1;
            return Some(ways * partitions * line * sets);
        }
    }
    None
}

#[cfg(not(target_arch = "x86_64"))]
fn l3_bytes() -> Option<u64> {
    None
}

fn run_workload(w: Workload, args: &Args) -> Outcome {
    let t_run = Instant::now();
    let preload = gen::preload_pairs(w.preload());
    let len = w.stream_len(args.seconds);
    let streams: Vec<gen::Stream> = (0..CONNECTIONS)
        .map(|c| gen::stream(w, args.seed, c, len, &preload))
        .collect();
    let mut work = WorkDir::new(w);
    let wal = |work: &mut WorkDir| w.durable().then(|| work.fresh());

    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_secs = Vec::with_capacity(setups);
    let mut setup_cpu = Vec::with_capacity(setups);
    let mut served = None;
    for _ in 0..setups {
        if let Some(s) = served.take() {
            remove_wal(drive::Served::shut_down(s));
        }
        let (s, secs, cpu) = drive::setup(&preload, wal(&mut work));
        setup_secs.push(secs);
        setup_cpu.push(cpu);
        served = Some(s);
    }
    let served = served.expect("at least one set-up");
    let secs3 = |xs: &[f64]| {
        let xs: Vec<String> = xs.iter().map(|x| format!("{x:.3}")).collect();
        xs.join(" ")
    };
    println!(
        "# {}: set-ups in run order: cpu s {} | wall s {}",
        w.name(),
        secs3(&setup_cpu),
        secs3(&setup_secs)
    );
    setup_secs.sort_by(f64::total_cmp);
    setup_cpu.sort_by(f64::total_cmp);

    let run = drive::run(&served, &streams, &preload, args.seconds, w.mem_probe_len());
    let end = served.db.stats();
    let wal_dir = served.shut_down();

    let mut m = Metrics::default();
    let mut problems = Vec::new();
    let attempted: u64 = run.clients.iter().map(|c| c.attempted).sum();
    let mut failed: u64 = run.clients.iter().map(|c| c.failed).sum();
    for c in &run.clients {
        if let Some(e) = &c.io_error {
            problems.push(format!("I/O error: {e}"));
        }
    }
    if run.clients.iter().any(|c| c.exhausted) {
        println!(
            "# {}: a request stream ran out; the window closed early",
            w.name()
        );
    }

    // Restart check: every acknowledged insert survives recovery.
    let (mut recovery_s, mut replay_us, mut lost) = (0.0, 0.0, 0u64);
    if let Some(dir) = &wal_dir {
        let t0 = Instant::now();
        let db = drive::builder(Some(dir))
            .recover()
            .expect("recover the run's WAL");
        recovery_s = t0.elapsed().as_secs_f64();
        lost = run
            .clients
            .iter()
            .map(|c| check::missing_acked(|k| db.get(k), &c.acked) as u64)
            .sum();
        replay_us = db
            .metrics()
            .wal
            .map_or(0.0, |w| w.replay.p50() as f64 / 1e3);
        failed += lost;
    }
    remove_wal(wal_dir);

    // End to end.
    let win = window::stats(&run.clients, &run.cuts, &run.cpu_s);
    m.set("e2e.throughput_ops_s", win.throughput);
    m.set("e2e.cpu_us_per_op", win.cpu_us_per_op);
    m.set("e2e.read_p50_us", win.p50_us[Class::Read as usize]);
    m.set("e2e.read_p99_us", win.p99_us[Class::Read as usize]);
    m.set("e2e.write_p50_us", win.p50_us[Class::Write as usize]);
    m.set("e2e.write_p99_us", win.p99_us[Class::Write as usize]);
    let mem = match (w.mem_probe_len(), run.mem_at_probe) {
        (None, _) => window::percentile(run.mem_per_elem.clone(), 0.5),
        (Some(_), Some(m)) => m,
        (Some(len), None) => {
            println!(
                "# {}: the store never reached {len} elements; memory read at the window's end",
                w.name()
            );
            run.mem_per_elem.last().copied().unwrap_or(0.0)
        }
    };
    m.set("mem_bytes_per_elem", mem);
    let (wall, cpu) = (setup_secs[setups / 2], setup_cpu[setups / 2]);
    m.set("setup_s", if w.setup_on_wall_clock() { wall } else { cpu });
    m.set("e2e.setup_wall_s", wall);
    m.set("e2e.setup_cpu_s", cpu);

    // Workload-specific figures.
    m.set("e2e.scan_p50_us", win.p50_us[Class::Scan as usize]);
    m.set("e2e.scan_p99_us", win.p99_us[Class::Scan as usize]);
    m.set("e2e.scan_elems_s", win.elems_s);
    m.set("e2e.recovery_s", recovery_s);
    m.set("e2e.read_samples", win.samples[Class::Read as usize] as f64);
    m.set(
        "e2e.write_samples",
        win.samples[Class::Write as usize] as f64,
    );
    m.set("e2e.scan_samples", win.samples[Class::Scan as usize] as f64);
    m.set("wal.replay_us.p50", replay_us);
    m.set("wal.lost_acked_writes", lost as f64);
    layer_deltas(&mut m, &run, &win, &end);
    let (mechanism, known) = mechanism_checks(w, &m);

    let mut attempted = attempted;
    if args.trace {
        // The window did the same work as an untraced run's; what
        // tracing adds is the replay ladder and writing the spans.
        let t_trace = Instant::now();
        let answered = run.clients[0].done.len();
        let ladder = ladder::run(w, &streams[0], answered, &preload, &mut work);
        ladder_metrics(&mut m, w, &ladder);
        print_ladder(w, &ladder);
        failed += ladder.failed();
        attempted += ladder.rungs.iter().map(|r| r.ops).sum::<u64>();
        write_spans(w, &run, &ladder);
        m.set("trace.overhead_s", t_trace.elapsed().as_secs_f64());
    } else {
        m.set("trace.overhead_s", 0.0);
    }
    m.set(
        "e2e.failed_ops_frac",
        ratio(failed as f64, attempted as f64),
    );
    let join = |xs: Vec<f64>| {
        let xs: Vec<String> = xs.iter().map(|x| format!("{x:.0}")).collect();
        xs.join(" ")
    };
    let steal = |a: (u64, u64), b: (u64, u64)| ratio((b.0 - a.0) as f64, (b.1 - a.1) as f64);
    let sub_steal: Vec<String> = run
        .host
        .windows(2)
        .map(|h| format!("{:.2}", steal(h[0], h[1])))
        .collect();
    println!(
        "# {}: seed {} window {:.3} s, run {:.1} s, host steal {:.2}; per sub-window: ops/s {} | cpu us/op {} | host steal {} | read p99 us {} | write p99 us {}",
        w.name(),
        args.seed,
        win.secs,
        t_run.elapsed().as_secs_f64(),
        steal(run.host[0], run.host[SUB_WINDOWS]),
        join(win.sub_throughput.clone()),
        win.sub_cpu_us_per_op
            .iter()
            .map(|x| format!("{x:.2}"))
            .collect::<Vec<_>>()
            .join(" "),
        sub_steal.join(" "),
        join(win.sub_p99_us.iter().map(|p| p[Class::Read as usize]).collect()),
        join(win.sub_p99_us.iter().map(|p| p[Class::Write as usize]).collect()),
    );
    Outcome {
        metrics: m,
        attempted,
        failed,
        problems,
        mechanism,
        known,
    }
}

fn remove_wal(dir: Option<std::path::PathBuf>) {
    if let Some(d) = dir {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// Per-layer counter deltas around the timed window.
fn layer_deltas(m: &mut Metrics, run: &RunOut, win: &WindowStats, end: &rma_db::DbSnapshot) {
    let (b, a): (&Snap, &Snap) = (&run.before, &run.after);
    let (ops, writes, scans) = (win.ops as f64, win.write_ops as f64, win.scans as f64);

    // rma-net
    let d = |f: fn(&rma_net::NetSnapshot) -> u64| (f(&a.net) - f(&b.net)) as f64;
    let frames_in = d(|s| s.frames_in);
    let fs = HistDelta::between(&b.net.frame_service_ns, &a.net.frame_service_ns);
    m.set("net.frame_service_us.p50", fs.quantile(0.5) / 1e3);
    m.set("net.frame_service_us.p99", fs.quantile(0.99) / 1e3);
    m.set(
        "net.requests_per_submit",
        ratio(d(|s| s.merged_requests), d(|s| s.merged_submits)),
    );
    m.set(
        "net.merged_frac",
        ratio(d(|s| s.merged_requests), frames_in),
    );
    m.set("net.bytes_in_per_op", ratio(d(|s| s.bytes_in), ops));
    m.set("net.bytes_out_per_op", ratio(d(|s| s.bytes_out), ops));
    m.set(
        "net.backpressure_pauses_per_kreq",
        ratio(d(|s| s.backpressure_pauses) * 1e3, frames_in),
    );
    m.set("net.merged_submits", d(|s| s.merged_submits));
    m.set("net.backpressure_pauses", d(|s| s.backpressure_pauses));
    m.set(
        "net.scan_chunks_per_scan",
        ratio(d(|s| s.scan_chunks), scans),
    );
    m.set("net.decode_errors", d(|s| s.decode_errors));
    m.set("net.refused_ops", d(|s| s.refused_ops));

    // rma-db
    let (bm, am) = (&b.metrics, &a.metrics);
    m.set(
        "db.ops_per_batch",
        ratio(
            (am.db.router.ops_submitted - bm.db.router.ops_submitted) as f64,
            (am.db.router.batches_submitted - bm.db.router.batches_submitted) as f64,
        ),
    );
    let tw = HistDelta::between(&bm.ticket_wait, &am.ticket_wait);
    m.set("db.ticket_wait_us.p50", tw.quantile(0.5) / 1e3);
    m.set("db.ticket_wait_us.p99", tw.quantile(0.99) / 1e3);
    let qd = HistDelta::between(&bm.queue_depth, &am.queue_depth);
    m.set("db.queue_depth.p50", qd.quantile(0.5));
    m.set("db.queue_depth.p99", qd.quantile(0.99));
    for (name, i) in [
        ("db.exec_ns.get.p50", 0),
        ("db.exec_ns.insert.p50", 1),
        ("db.exec_ns.remove.p50", 2),
        ("db.exec_ns.sum_range.p50", 3),
        ("db.exec_ns.scan.p50", 5),
    ] {
        let h = HistDelta::between(&bm.op_latency[i], &am.op_latency[i]);
        m.set(name, h.quantile(0.5));
    }

    // rma-wal
    let (maint_b, maint_a) = (
        bm.db.maintainer.expect("maintenance configured"),
        am.db.maintainer.expect("maintenance configured"),
    );
    let (mut commits, mut fsyncs) = (0.0, 0.0);
    let (mut commit_p50, mut commit_p99, mut fsync_p50, mut fsync_p99) = (0.0, 0.0, 0.0, 0.0);
    if let (Some(wb), Some(wa)) = (&bm.wal, &am.wal) {
        let c = HistDelta::between(&wb.commit, &wa.commit);
        let f = HistDelta::between(&wb.fsync, &wa.fsync);
        (commits, fsyncs) = (c.count() as f64, f.count() as f64);
        (commit_p50, commit_p99) = (c.quantile(0.5) / 1e3, c.quantile(0.99) / 1e3);
        (fsync_p50, fsync_p99) = (f.quantile(0.5) / 1e3, f.quantile(0.99) / 1e3);
    }
    m.set("wal.commits", commits);
    m.set("wal.commit_us.p50", commit_p50);
    m.set("wal.commit_us.p99", commit_p99);
    m.set("wal.fsyncs", fsyncs);
    m.set("wal.fsync_us.p50", fsync_p50);
    m.set("wal.fsync_us.p99", fsync_p99);
    m.set("wal.ops_per_fsync", ratio(writes, fsyncs));
    // On-disk footprint (checkpoints plus log) per byte of live user
    // data at the end of the window; checkpoints truncate the log, so
    // growth over the window alone can be negative.
    m.set(
        "wal.bytes_per_user_byte",
        ratio(a.wal_bytes as f64, am.db.engine.len as f64 * 16.0),
    );
    m.set(
        "wal.checkpoints",
        (maint_a.checkpoints - maint_b.checkpoints) as f64,
    );

    // rma-shard and the maintainer
    let (eb, ea) = (&bm.db.engine, &am.db.engine);
    m.set(
        "shard.seqlock_retries_per_kop",
        ratio((ea.seqlock_retries - eb.seqlock_retries) as f64 * 1e3, ops),
    );
    m.set(
        "shard.write_locks_per_write",
        ratio((ea.write_locks - eb.write_locks) as f64, writes),
    );
    m.set("shard.num_shards_end", end.engine.num_shards as f64);
    m.set("shard.access_imbalance_end", end.engine.access_imbalance);
    m.set("shard.splitter_bytes_end", end.engine.splitter_bytes as f64);
    let (mb, ma) = (&eb.maintenance, &ea.maintenance);
    m.set("shard.plans", (ma.plans - mb.plans) as f64);
    m.set(
        "shard.steps_executed",
        (ma.steps_executed - mb.steps_executed) as f64,
    );
    m.set(
        "shard.steps_dropped",
        (ma.steps_dropped - mb.steps_dropped) as f64,
    );
    m.set(
        "shard.keys_migrated_per_op",
        ratio((ma.keys_migrated - mb.keys_migrated) as f64, ops),
    );
    m.set("shard.max_step_wall_ms", ma.max_step_wall_ns as f64 / 1e6);
    m.set(
        "shard.write_reroutes",
        (ma.write_reroutes - mb.write_reroutes) as f64,
    );
    m.set(
        "shard.relearns",
        (maint_a.relearns - maint_b.relearns) as f64,
    );
    m.set("shard.splits", (maint_a.splits - maint_b.splits) as f64);
    m.set("shard.merges", (maint_a.merges - maint_b.merges) as f64);
    m.set(
        "shard.consolidations",
        (maint_a.consolidations - maint_b.consolidations) as f64,
    );
    m.set("maint.runs", (maint_a.runs - maint_b.runs) as f64);
    m.set("maint.steps", (maint_a.steps - maint_b.steps) as f64);
}

/// Counters that must read non-zero where the workload exercises their
/// mechanism and zero where it bypasses it. Returns the ones that read
/// the wrong way: those that fail the run, then those listed in
/// [`KNOWN_DEFECTS`].
fn mechanism_checks(w: Workload, m: &Metrics) -> (Vec<String>, Vec<String>) {
    let v = |name: &str| m.get(name).expect("measured");
    let mut expect: Vec<(&str, bool)> = Vec::new();
    match w {
        Workload::PointUniform => {
            expect.extend([
                ("net.merged_submits", true),
                ("net.backpressure_pauses", true),
                ("maint.runs", false),
            ]);
        }
        Workload::ScanHotspot => {
            expect.extend([("net.scan_chunks_per_scan", true), ("maint.steps", true)]);
        }
        Workload::IngestDurable => {
            expect.extend([("wal.fsyncs", true), ("wal.checkpoints", true)]);
        }
    }
    if !w.durable() {
        expect.extend([
            ("wal.commits", false),
            ("wal.fsyncs", false),
            ("wal.checkpoints", false),
        ]);
    }
    let (mut fatal, mut known) = (Vec::new(), Vec::new());
    for (name, nonzero) in expect {
        if (v(name) != 0.0) == nonzero {
            continue;
        }
        let text = format!(
            "{name} = {} where it should be {}",
            v(name),
            if nonzero { "non-zero" } else { "zero" }
        );
        if KNOWN_DEFECTS.contains(&(w, name)) {
            known.push(text);
        } else {
            fatal.push(text);
        }
    }
    (fatal, known)
}

fn ladder_metrics(m: &mut Metrics, w: Workload, l: &ladder::Ladder) {
    m.set("net.ns_per_op", l.rung("wire").ns_per_op());
    m.set("net.hop_ns_per_op", l.hop("wire", "session"));
    m.set("db.session_ns_per_op", l.rung("session").ns_per_op());
    m.set("db.ns_per_op", l.rung("db").ns_per_op());
    // With a WAL a session commits once per request and a direct `Db`
    // write once per op, so there the hop is taken over reads only,
    // where neither rung commits.
    let db_hop = if w.durable() {
        l.hop_on("session", "db", &[Kind::Read])
    } else {
        l.hop("session", "db")
    };
    m.set("db.hop_ns_per_op", db_hop);
    m.set("shard.ns_per_op", l.rung("shard").ns_per_op());
    m.set("shard.hop_ns_per_op", l.hop("shard", "rma"));
    m.set("core.ns_per_op", l.rung("rma").ns_per_op());
    let c = &l.core;
    let per = |i: usize| ratio(c.kind_ns[i] as f64, c.kind_ops[i] as f64);
    m.set("core.get_ns", per(0));
    m.set("core.insert_ns", per(1));
    m.set("core.remove_ns", per(2));
    m.set(
        "core.sum_range_ns_per_elem",
        ratio(c.kind_ns[3] as f64, c.sum_range_elems as f64),
    );
    let (b, a) = (&c.before, &c.after);
    let inserts = c.kind_ops[1] as f64;
    m.set(
        "core.rebalances_per_kinsert",
        ratio((a.rebalances - b.rebalances) as f64 * 1e3, inserts),
    );
    m.set(
        "core.elements_moved_per_insert",
        ratio((a.elements_moved - b.elements_moved) as f64, inserts),
    );
    m.set("core.grows", (a.grows - b.grows) as f64);
    let rewired = (a.rewired_commits - b.rewired_commits) as f64;
    let copied = (a.copied_commits - b.copied_commits) as f64;
    m.set("core.rewired_frac", ratio(rewired, rewired + copied));
    m.set("core.bytes_per_elem", c.bytes_per_elem);
}

/// The ladder, each rung with the rung below it as its base.
fn print_ladder(w: Workload, l: &ladder::Ladder) {
    for pair in ladder::RUNGS.windows(2) {
        let (upper, lower) = (l.rung(pair[0]), l.rung(pair[1]));
        println!(
            "# {} ladder {:<8} {:>10.1} ns/op = {:>10.1} ns/op ({} base) {:+10.1} ns/op",
            w.name(),
            upper.name,
            upper.ns_per_op(),
            lower.ns_per_op(),
            lower.name,
            l.hop(pair[0], pair[1])
        );
    }
    if w.durable() {
        println!(
            "# {} ladder session over db on reads only (writes commit per op at db): {:+10.1} ns/op",
            w.name(),
            l.hop_on("session", "db", &[Kind::Read])
        );
    }
    let rma = l.rung("rma");
    println!(
        "# {} ladder {:<8} {:>10.1} ns/op (base of the ladder, {} requests)",
        w.name(),
        rma.name,
        rma.ns_per_op(),
        rma.spans.len()
    );
}

/// Writes every span of a traced run: one `wire.request` span per
/// request sent in the timed window and one `ladder.<rung>` span per
/// replayed request.
fn write_spans(w: Workload, run: &RunOut, l: &ladder::Ladder) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}.csv", w.name()));
    let mut text = String::from("span,conn,req,start_ns,end_ns\n");
    let mut add = |name: &str, spans: &[Span]| {
        for s in spans {
            text.push_str(&format!(
                "{name},{},{},{},{}\n",
                s.conn, s.req, s.start, s.end
            ));
        }
    };
    for (conn, c) in run.clients.iter().enumerate() {
        let spans: Vec<Span> = c
            .done
            .iter()
            .filter(|d| (run.cuts[0]..run.cuts[SUB_WINDOWS]).contains(&d.sent))
            .map(|d| Span {
                conn: conn as u8,
                req: d.req,
                start: d.sent,
                end: d.done,
            })
            .collect();
        add("wire.request", &spans);
    }
    for r in &l.rungs {
        add(&format!("ladder.{}", r.name), &r.spans);
    }
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => println!("# {}: spans written to {}", w.name(), path.display()),
        Err(e) => println!("# {}: could not write spans: {e}", w.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metrics with every counter the checks read, each as `point_uniform`
    /// should have it.
    fn point_uniform_as_expected() -> Metrics {
        let mut m = Metrics::default();
        for (name, v) in [
            ("net.merged_submits", 10.0),
            ("net.backpressure_pauses", 3.0),
            ("maint.runs", 0.0),
            ("wal.commits", 0.0),
            ("wal.fsyncs", 0.0),
            ("wal.checkpoints", 0.0),
        ] {
            m.set(name, v);
        }
        m
    }

    #[test]
    fn mechanism_checks_pass_when_counters_read_as_expected() {
        let (fatal, known) = mechanism_checks(Workload::PointUniform, &point_uniform_as_expected());
        assert!(fatal.is_empty() && known.is_empty(), "{fatal:?} {known:?}");
    }

    #[test]
    fn mechanism_violations_fail_the_run_unless_a_known_defect() {
        let mut m = point_uniform_as_expected();
        m.set("net.backpressure_pauses", 0.0);
        m.set("wal.fsyncs", 2.0);
        m.set("maint.runs", 1.0);
        let (fatal, known) = mechanism_checks(Workload::PointUniform, &m);
        assert_eq!(fatal.len(), 2, "{fatal:?}");
        assert!(fatal[0].starts_with("net.backpressure_pauses = 0"));
        assert!(fatal[1].starts_with("wal.fsyncs = 2"));
        assert_eq!(known, ["maint.runs = 1 where it should be zero"]);
    }
}
