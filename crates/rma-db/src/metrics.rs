//! Metrics assembly and exposition: the router-side observability
//! state ([`RouterObs`]), the builder-facing switch ([`ObsConfig`]),
//! and the full-stack [`MetricsSnapshot`] returned by
//! [`Db::metrics`](crate::Db::metrics) with its Prometheus-style
//! [`render_text`](MetricsSnapshot::render_text) exposition.
//!
//! Instrumentation philosophy: per-operation latency is *sampled* —
//! workers bracket one in [`ObsConfig::sample_every`] operations with
//! a pair of monotonic clock reads (vDSO `clock_gettime`, no syscall)
//! and record the difference; the rest run untimed. A clock read is
//! not free relative to a point lookup, so timing every op would cost
//! double-digit percent throughput, while the sampled distribution
//! converges to the same quantiles at a steady-state cost of
//! `2/sample_every` clock reads per op (and zero when observability
//! is disabled). Everything else (batch sizes, queue depth, ticket
//! wait) is one relaxed atomic or clock read per *batch*, not per op,
//! and is never sampled.

use crate::session::Op;
use crate::DbSnapshot;
use rma_obs::{
    write_line, write_summary, write_text, Event, Histogram, HistogramSnapshot, Kind, Metric,
    MetricValue,
};
use std::fmt::Write as _;
use std::sync::atomic::AtomicU64;

/// Observability switch for [`DbBuilder`](crate::DbBuilder). Default
/// **on**: recording costs one atomic per event and one clock read
/// per op boundary, which the `fig20_obs_overhead` bench bounds at
/// well under 10% of throughput; opt out for benchmark baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Master switch: when `false` no clocks are read, no histograms
    /// recorded, no journal events written (the structures still
    /// exist so snapshots render, empty).
    pub enabled: bool,
    /// Router workers time one in `sample_every` operations into the
    /// per-op-type latency histograms (`1` times every op). Sampling
    /// is what keeps default-on affordable: a clock read costs a
    /// meaningful fraction of a point lookup, so timing every op
    /// would tax throughput ~30-40% while 1-in-16 sampling costs
    /// ~2%, and the sampled distribution converges to the same
    /// quantiles. Batch-granular series (batch size, queue depth,
    /// ticket wait) and maintenance events are never sampled.
    pub sample_every: u32,
    /// Maintenance-event journal capacity (events retained,
    /// overwrite-oldest; rounded up to a power of two, minimum 8).
    pub journal_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: true,
            sample_every: 16,
            journal_capacity: rma_shard::obs::DEFAULT_JOURNAL_CAPACITY,
        }
    }
}

/// Operation kinds the router tracks latency for: the stable order of
/// [`MetricsSnapshot::op_latency`].
pub const OP_LATENCY_NAMES: [&str; 6] =
    ["get", "insert", "remove", "sum_range", "first_ge", "scan"];

/// The histogram index for an op — same order as [`OP_LATENCY_NAMES`].
pub(crate) fn op_index(op: &Op) -> usize {
    match op {
        Op::Get(_) => 0,
        Op::Insert(..) => 1,
        Op::Remove(_) => 2,
        Op::SumRange { .. } => 3,
        Op::FirstGe(_) => 4,
        Op::Scan { .. } => 5,
    }
}

/// Router-side observability state, shared (`Arc`) between the
/// router's workers, every session, and every in-flight ticket.
/// Always allocated so hot paths branch on one `bool`.
pub(crate) struct RouterObs {
    /// Mirrors [`ObsConfig::enabled`].
    pub(crate) enabled: bool,
    /// Mirrors [`ObsConfig::sample_every`], clamped to ≥ 1.
    pub(crate) sample_every: u32,
    /// Per-op-type service latency (worker-side, excludes queue
    /// wait), nanoseconds; indexed by [`op_index`]. Populated from
    /// one in [`Self::sample_every`] operations.
    pub(crate) op_latency: [Histogram; 6],
    /// Operations per submitted batch.
    pub(crate) batch_size: Histogram,
    /// Work items queued but not yet picked up, sampled at each send.
    pub(crate) queue_depth: Histogram,
    /// Submit-to-last-reply wall time per batch, nanoseconds (includes
    /// queue wait — the client-visible number).
    pub(crate) ticket_wait: Histogram,
    /// Live count of sent-but-not-received work items (the queue-depth
    /// sample source).
    pub(crate) pending: AtomicU64,
}

impl RouterObs {
    pub(crate) fn new(enabled: bool, sample_every: u32) -> Self {
        RouterObs {
            enabled,
            sample_every: sample_every.max(1),
            op_latency: std::array::from_fn(|_| Histogram::new()),
            batch_size: Histogram::new(),
            queue_depth: Histogram::new(),
            ticket_wait: Histogram::new(),
            pending: AtomicU64::new(0),
        }
    }
}

rma_obs::metric_set! {
    /// Everything the database measures, frozen at one instant:
    /// the [`DbSnapshot`] counters plus the latency/size distributions
    /// and the tail of the maintenance event journal. Obtained from
    /// [`Db::metrics`](crate::Db::metrics); render with
    /// [`render_text`](Self::render_text) or `Display`.
    #[derive(Debug, Clone)]
    pub struct MetricsSnapshot {
        /// The counter snapshot ([`Db::stats`](crate::Db::stats)).
        db: DbSnapshot,
        /// Per-op-type worker service latency, nanoseconds, in
        /// `get, insert, remove, sum_range, first_ge, scan` order.
        op_latency: [HistogramSnapshot; 6],
        /// Operations per submitted batch.
        batch_size: HistogramSnapshot => Summary "rma_batch_size_ops",
        /// Router queue depth sampled at each work-item send.
        queue_depth: HistogramSnapshot => Summary "rma_queue_depth",
        /// Submit-to-completion wall time per batch, nanoseconds.
        ticket_wait: HistogramSnapshot => Summary "rma_ticket_wait_ns",
        /// Executed maintenance-step wall durations, nanoseconds.
        step_duration: HistogramSnapshot => Summary "rma_maintenance_step_ns",
        /// Background maintainer tick wall durations, nanoseconds.
        maint_tick: HistogramSnapshot => Summary "rma_maintainer_tick_ns",
        /// The retained maintenance events, oldest first.
        journal: Vec<Event>,
        /// Durability distributions and state; `None` when the database
        /// was built without [`DbBuilder::durability`](crate::DbBuilder).
        wal: Option<WalMetrics>,
    }
}

rma_obs::metric_set! {
    /// The durability slice of a [`MetricsSnapshot`]: the WAL's commit
    /// and fsync latency distributions, the recovery replay times (only
    /// populated on a handle opened through `recover()`), and the
    /// degraded-mode latch.
    #[derive(Debug, Clone)]
    pub struct WalMetrics {
        /// Group-commit barrier wall time per commit call, nanoseconds
        /// (covers staged-buffer write plus any fsync).
        commit: HistogramSnapshot => Summary "rma_wal_commit_ns",
        /// `fsync`/`fdatasync` wall time, nanoseconds.
        fsync: HistogramSnapshot => Summary "rma_wal_fsync_ns",
        /// Per-partition log-tail replay wall time during recovery,
        /// nanoseconds.
        replay: HistogramSnapshot => Summary "rma_recovery_replay_ns",
        /// True when a durability fault latched the database read-only.
        degraded: bool => Gauge "rma_wal_degraded",
    }
}

/// The family of the per-op latency summaries, one series per op type.
const OP_LATENCY_FAMILY: &str = "rma_op_latency_ns";

impl DbSnapshot {
    /// The counter sets in report order, each with its section name.
    fn sections(&self) -> Vec<(&'static str, Vec<Metric<'_>>)> {
        let mut sections = vec![
            ("engine", self.engine.metrics()),
            ("maintenance", self.engine.maintenance.metrics()),
        ];
        if let Some(m) = &self.maintainer {
            sections.push(("maintainer", m.metrics()));
        }
        sections.push(("router", self.router.metrics()));
        sections
    }
}

impl MetricsSnapshot {
    /// Prometheus-style text exposition: one `summary` family per
    /// latency/size distribution (p50/p95/p99 plus `_sum`, `_count`,
    /// `_max`), `gauge`/`counter` lines for every [`DbSnapshot`]
    /// number, and the journal tail as trailing comment lines. Every
    /// op type is always emitted (zeros when unused) so the schema is
    /// stable for scrapers.
    pub fn render_text(&self) -> String {
        let mut out = String::with_capacity(4096);
        let _ = writeln!(out, "# TYPE {OP_LATENCY_FAMILY} summary");
        for (name, h) in OP_LATENCY_NAMES.iter().zip(&self.op_latency) {
            write_summary(&mut out, OP_LATENCY_FAMILY, &format!("op=\"{name}\""), h);
        }
        write_text(&mut out, self.metrics());
        if let Some(w) = &self.wal {
            write_text(&mut out, w.metrics());
        }
        for (_, table) in self.db.sections() {
            write_text(&mut out, table);
        }
        for ev in &self.journal {
            let _ = writeln!(out, "# journal {ev}");
        }
        out
    }
}

impl std::fmt::Display for MetricsSnapshot {
    /// A human-readable report: the [`DbSnapshot`] lines, then one line
    /// each for per-op latency, the router and maintenance
    /// distributions, the WAL, and the last eight journal events.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.db)?;
        let latency = OP_LATENCY_NAMES
            .iter()
            .zip(&self.op_latency)
            .map(|(&field, h)| Metric {
                field,
                family: OP_LATENCY_FAMILY,
                kind: Kind::Summary,
                value: h.value(),
            });
        write_line(f, "latency", latency)?;
        write_line(f, "distributions", self.metrics())?;
        if let Some(w) = &self.wal {
            write_line(f, "wal", w.metrics())?;
        }
        for ev in &self.journal[self.journal.len().saturating_sub(8)..] {
            writeln!(f, "journal: {ev}")?;
        }
        Ok(())
    }
}

impl std::fmt::Display for DbSnapshot {
    /// One line per counter set — engine, maintenance, maintainer (when
    /// configured), router — what the examples print instead of
    /// hand-formatting fields.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (section, table) in self.sections() {
            write_line(f, section, table)?;
        }
        Ok(())
    }
}
