//! The exposition schema of `Db::metrics().render_text()`: every
//! `# TYPE` family the full stack emits (engine, maintenance engine,
//! background maintainer, router, latency distributions and the WAL),
//! each required to appear exactly once, with the value a fixed,
//! deterministic state implies.
//!
//! The state: a durable four-shard database whose maintainer never
//! polls (one-hour interval, stopped before any tick), observability
//! timing every op, and one session submitting two batches.

use rma_repro::db::{CommitPolicy, Db, DurabilityConfig, ObsConfig, Op};
use rma_repro::rma::{RewiringMode, RmaConfig};
use rma_repro::shard::{MaintainerConfig, ShardConfig};
use std::collections::HashMap;
use std::time::Duration;

/// Parses the exposition into `# TYPE` counts per `(family, type)` and
/// sample values keyed by the full series name (labels included).
fn parse(text: &str) -> (HashMap<(String, String), usize>, HashMap<String, String>) {
    let mut types = HashMap::new();
    let mut samples = HashMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (family, kind) = rest.split_once(' ').expect("TYPE line has a kind");
            *types
                .entry((family.to_string(), kind.to_string()))
                .or_insert(0) += 1;
        } else if !line.starts_with('#') && !line.is_empty() {
            let (series, value) = line.rsplit_once(' ').expect("sample has a value");
            let prev = samples.insert(series.to_string(), value.to_string());
            assert!(prev.is_none(), "series {series} emitted twice");
        }
    }
    (types, samples)
}

#[test]
fn render_text_emits_every_family_once_with_its_value() {
    let dir = std::env::temp_dir().join(format!(
        "rma-metrics-schema-{}-{}",
        std::process::id(),
        rma_repro::rewiring::monotonic_ns()
    ));
    let db = Db::builder()
        .shard_config(ShardConfig {
            num_shards: 4,
            rma: RmaConfig {
                segment_size: 8,
                rewiring: RewiringMode::Disabled,
                reserve_bytes: 1 << 24,
                ..Default::default()
            },
            ..Default::default()
        })
        .router_workers(2)
        .observability(ObsConfig {
            sample_every: 1,
            ..Default::default()
        })
        .maintenance(MaintainerConfig {
            poll_interval: Duration::from_secs(3600),
            ..Default::default()
        })
        .durability(
            DurabilityConfig::new(&dir)
                .policy(CommitPolicy::Always)
                .partitions(2),
        )
        .build()
        .expect("valid config");
    db.stop_maintenance().expect("maintenance was running");
    let mut s = db.session();
    s.submit(&[Op::Insert(1, 10), Op::Insert(2, 20), Op::Insert(3, 30)])
        .wait();
    s.submit(&[Op::Get(1), Op::Remove(2)]).wait();
    drop(s);

    let m = db.metrics();
    let e = &m.db.engine;
    let w = m.wal.as_ref().expect("durability configured");
    let (types, samples) = parse(&m.render_text());

    let summaries: [(&str, u64); 8] = [
        ("rma_batch_size_ops", 2),
        ("rma_queue_depth", m.queue_depth.count()),
        ("rma_ticket_wait_ns", 2),
        ("rma_maintenance_step_ns", 0),
        ("rma_maintainer_tick_ns", 0),
        ("rma_wal_commit_ns", w.commit.count()),
        ("rma_wal_fsync_ns", w.fsync.count()),
        ("rma_recovery_replay_ns", 0),
    ];
    let gauges: [(&str, String); 7] = [
        ("rma_len", "2".into()),
        ("rma_shards", "4".into()),
        ("rma_memory_bytes", e.memory_footprint.to_string()),
        ("rma_splitter_bytes", "24".into()),
        ("rma_router_workers", "2".into()),
        ("rma_access_imbalance", e.access_imbalance.to_string()),
        ("rma_wal_degraded", "0".into()),
    ];
    let counters: [(&str, u64); 29] = [
        ("rma_op_clock_total", e.op_count),
        ("rma_read_locks_total", e.read_locks),
        ("rma_write_locks_total", e.write_locks),
        ("rma_seqlock_retries_total", e.seqlock_retries),
        ("rma_maintenance_plans_total", 0),
        ("rma_maintenance_steps_planned_total", 0),
        ("rma_maintenance_steps_executed_total", 0),
        ("rma_maintenance_steps_skipped_total", 0),
        ("rma_maintenance_steps_dropped_total", 0),
        ("rma_maintenance_keys_migrated_total", 0),
        ("rma_maintenance_nudges_total", 0),
        ("rma_topologies_published_total", 0),
        ("rma_max_step_wall_ns", 0),
        ("rma_batch_reroutes_total", 0),
        ("rma_write_reroutes_total", 0),
        ("rma_sessions_opened_total", 1),
        ("rma_batches_submitted_total", 2),
        ("rma_ops_submitted_total", 5),
        ("rma_ops_executed_total", 5),
        ("rma_maintainer_polls_total", 0),
        ("rma_maintainer_runs_total", 0),
        ("rma_maintainer_relearns_total", 0),
        ("rma_maintainer_splits_total", 0),
        ("rma_maintainer_merges_total", 0),
        ("rma_maintainer_nudges_total", 0),
        ("rma_maintainer_steps_total", 0),
        ("rma_maintainer_checkpoints_total", 0),
        ("rma_maintainer_steps_dropped_total", 0),
        ("rma_maintainer_consolidations_total", 0),
    ];

    let mut want_types: HashMap<(String, String), usize> = HashMap::new();
    let mut family = |name: &str, kind: &str| {
        want_types.insert((name.to_string(), kind.to_string()), 1);
    };
    family("rma_op_latency_ns", "summary");
    for (name, _) in summaries {
        family(name, "summary");
    }
    for (name, _) in &gauges {
        family(name, "gauge");
    }
    for (name, _) in counters {
        family(name, "counter");
    }
    assert_eq!(types, want_types, "every family exactly once, nothing else");

    let sample = |series: &str| -> &str {
        samples
            .get(series)
            .unwrap_or_else(|| panic!("series {series} missing"))
    };
    for (name, v) in counters {
        assert_eq!(sample(name), v.to_string(), "{name}");
    }
    for (name, v) in &gauges {
        assert_eq!(sample(name), v.as_str(), "{name}");
    }
    for (name, count) in summaries {
        assert_eq!(
            sample(&format!("{name}_count")),
            count.to_string(),
            "{name}"
        );
        for q in ["0.5", "0.95", "0.99"] {
            sample(&format!("{name}{{quantile=\"{q}\"}}"));
        }
        sample(&format!("{name}_sum"));
        sample(&format!("{name}_max"));
    }
    let op_counts = [
        ("get", 1),
        ("insert", 3),
        ("remove", 1),
        ("sum_range", 0),
        ("first_ge", 0),
        ("scan", 0),
    ];
    for (op, count) in op_counts {
        let series = |suffix: &str| format!("rma_op_latency_ns{suffix}{{op=\"{op}\"}}");
        assert_eq!(sample(&series("_count")), count.to_string(), "{op}");
        for q in ["0.5", "0.95", "0.99"] {
            sample(&format!(
                "rma_op_latency_ns{{op=\"{op}\",quantile=\"{q}\"}}"
            ));
        }
        sample(&series("_sum"));
        sample(&series("_max"));
    }
    let per_summary = 6;
    assert_eq!(
        samples.len(),
        counters.len() + gauges.len() + (summaries.len() + op_counts.len()) * per_summary,
        "no stray series"
    );

    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}
