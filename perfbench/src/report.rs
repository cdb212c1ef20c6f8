//! Metric names, units and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the benchmark's contract: the
//! names, units and order every run prints, matched against
//! `BENCHMARK.json` by this module's tests.

use rma_obs::HistogramSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed with `--trace 0`: the figures a shared
/// host lets a run measure steadily (see `README.md`, "Steadiness").
pub const END_TO_END: &[(&str, &str)] = &[("mem_bytes_per_elem", "B/elem"), ("setup_s", "s")];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // End-to-end figures that move with CPU time stolen by other
    // guests, and workload-specific ones (absent work reads 0).
    ("e2e.throughput_ops_s", "ops/s"),
    ("e2e.cpu_us_per_op", "us/op"),
    ("e2e.setup_wall_s", "s"),
    ("e2e.setup_cpu_s", "s"),
    ("e2e.read_p50_us", "us"),
    ("e2e.read_p99_us", "us"),
    ("e2e.write_p50_us", "us"),
    ("e2e.write_p99_us", "us"),
    ("e2e.scan_p50_us", "us"),
    ("e2e.scan_p99_us", "us"),
    ("e2e.scan_elems_s", "elems/s"),
    ("e2e.recovery_s", "s"),
    ("e2e.failed_ops_frac", "ratio"),
    ("e2e.read_samples", "count"),
    ("e2e.write_samples", "count"),
    ("e2e.scan_samples", "count"),
    ("trace.overhead_s", "s"),
    // rma-net
    ("net.ns_per_op", "ns/op"),
    ("net.hop_ns_per_op", "ns/op"),
    ("net.frame_service_us.p50", "us"),
    ("net.frame_service_us.p99", "us"),
    ("net.requests_per_submit", "ratio"),
    ("net.merged_frac", "ratio"),
    ("net.bytes_in_per_op", "B/op"),
    ("net.bytes_out_per_op", "B/op"),
    ("net.backpressure_pauses_per_kreq", "count/kreq"),
    ("net.merged_submits", "count"),
    ("net.backpressure_pauses", "count"),
    ("net.scan_chunks_per_scan", "ratio"),
    ("net.decode_errors", "count"),
    ("net.refused_ops", "count"),
    // rma-db
    ("db.session_ns_per_op", "ns/op"),
    ("db.ns_per_op", "ns/op"),
    ("db.hop_ns_per_op", "ns/op"),
    ("db.ops_per_batch", "ratio"),
    ("db.ticket_wait_us.p50", "us"),
    ("db.ticket_wait_us.p99", "us"),
    ("db.queue_depth.p50", "count"),
    ("db.queue_depth.p99", "count"),
    ("db.exec_ns.get.p50", "ns"),
    ("db.exec_ns.insert.p50", "ns"),
    ("db.exec_ns.remove.p50", "ns"),
    ("db.exec_ns.sum_range.p50", "ns"),
    ("db.exec_ns.scan.p50", "ns"),
    // rma-wal
    ("wal.commits", "count"),
    ("wal.commit_us.p50", "us"),
    ("wal.commit_us.p99", "us"),
    ("wal.fsyncs", "count"),
    ("wal.fsync_us.p50", "us"),
    ("wal.fsync_us.p99", "us"),
    ("wal.ops_per_fsync", "ratio"),
    ("wal.bytes_per_user_byte", "ratio"),
    ("wal.checkpoints", "count"),
    ("wal.replay_us.p50", "us"),
    ("wal.lost_acked_writes", "count"),
    // rma-shard (and the maintainer that drives it)
    ("shard.ns_per_op", "ns/op"),
    ("shard.hop_ns_per_op", "ns/op"),
    ("shard.seqlock_retries_per_kop", "count/kop"),
    ("shard.write_locks_per_write", "ratio"),
    ("shard.num_shards_end", "count"),
    ("shard.access_imbalance_end", "ratio"),
    ("shard.splitter_bytes_end", "B"),
    ("shard.plans", "count"),
    ("shard.steps_executed", "count"),
    ("shard.steps_dropped", "count"),
    ("shard.keys_migrated_per_op", "ratio"),
    ("shard.max_step_wall_ms", "ms"),
    ("shard.write_reroutes", "count"),
    ("shard.relearns", "count"),
    ("shard.splits", "count"),
    ("shard.merges", "count"),
    ("shard.consolidations", "count"),
    ("maint.runs", "count"),
    ("maint.steps", "count"),
    // rma-core + rewiring
    ("core.ns_per_op", "ns/op"),
    ("core.get_ns", "ns/op"),
    ("core.insert_ns", "ns/op"),
    ("core.remove_ns", "ns/op"),
    ("core.sum_range_ns_per_elem", "ns/elem"),
    ("core.rebalances_per_kinsert", "count/kop"),
    ("core.elements_moved_per_insert", "ratio"),
    ("core.grows", "count"),
    ("core.rewired_frac", "ratio"),
    ("core.bytes_per_elem", "B/elem"),
];

/// The metric values of one run, keyed by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `name`, which must be one of the contract's names.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the benchmark contract"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// The `table` metrics of `m` as the result's `metrics` object; every
/// name of the table must be present.
pub fn metrics_json(m: &Metrics, table: &[(&str, &str)]) -> String {
    let mut out = String::from("{");
    for (i, (name, unit)) in table.iter().enumerate() {
        let v = m
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    out.push('}');
    out
}

/// The result line: the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    )
}

/// Human-readable lines, one metric each, with its unit.
pub fn table_lines(prefix: &str, m: &Metrics, table: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (name, unit) in table {
        if let Some(v) = m.get(name) {
            let _ = writeln!(out, "{prefix}{name:<34} {v:>16.4} {unit}");
        }
    }
    out
}

/// The `q`-quantile of `xs` (nearest rank), sorting it in place.
pub fn quantile(xs: &mut [u32], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_unstable();
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    f64::from(xs[rank - 1])
}

/// The distribution recorded between two snapshots of one histogram.
pub struct HistDelta {
    /// `(lo, hi, count)` of every bucket that grew, ascending.
    buckets: Vec<(u64, u64, u64)>,
    count: u64,
}

impl HistDelta {
    pub fn between(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistDelta {
        let old: BTreeMap<u64, u64> = before.nonzero_buckets().map(|(lo, _, c)| (lo, c)).collect();
        let buckets: Vec<(u64, u64, u64)> = after
            .nonzero_buckets()
            .filter_map(|(lo, hi, c)| {
                let d = c - old.get(&lo).copied().unwrap_or(0);
                (d > 0).then_some((lo, hi, d))
            })
            .collect();
        let count = buckets.iter().map(|b| b.2).sum();
        HistDelta { buckets, count }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile, interpolated inside its bucket; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(lo, hi, c) in &self.buckets {
            if seen + c >= rank {
                let within = (rank - seen) as f64 / c as f64;
                return lo as f64 + (hi - lo) as f64 * within;
            }
            seen += c;
        }
        0.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names listed under `section` in `BENCHMARK.json`, with their
    /// units, in file order.
    fn contract(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let at = text
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("section {section}"));
        let body = &text[at..];
        let body = &body[..body.find(']').expect("section ends")];
        let field = |obj: &str, key: &str| -> String {
            let k = obj.find(&format!("\"{key}\"")).expect("field present");
            let rest = &obj[k + key.len() + 2..];
            let open = rest.find('"').expect("value opens") + 1;
            let close = open + rest[open..].find('"').expect("value closes");
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_names_match_the_benchmark_file() {
        assert_eq!(contract("end_to_end"), table(END_TO_END));
        assert_eq!(contract("per_layer"), table(PER_LAYER));
    }

    #[test]
    fn result_line_carries_every_contract_metric() {
        let mut m = Metrics::default();
        for (i, (name, _)) in END_TO_END.iter().chain(PER_LAYER).enumerate() {
            m.set(name, i as f64 + 0.5);
        }
        for t in [END_TO_END, PER_LAYER] {
            let line = result_line(true, 10, 0, &metrics_json(&m, t));
            for (name, unit) in t {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name}"
                );
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "not in the benchmark contract")]
    fn unknown_metric_is_rejected() {
        Metrics::default().set("no_such_metric", 1.0);
    }

    #[test]
    fn histogram_delta_ignores_earlier_samples() {
        let h = rma_obs::Histogram::new();
        for _ in 0..1000 {
            h.record(10);
        }
        let before = h.snapshot();
        for v in 1000..2000 {
            h.record(v);
        }
        let d = HistDelta::between(&before, &h.snapshot());
        assert_eq!(d.count(), 1000);
        let p50 = d.quantile(0.5);
        assert!((1400.0..1600.0).contains(&p50), "{p50}");
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let mut xs: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut xs, 0.5), 50.0);
        assert_eq!(quantile(&mut xs, 0.99), 99.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }
}
