//! One metrics surface: the declaration macro every counter set in
//! the workspace is written with, and the one exposition writer that
//! renders all of them.
//!
//! A counter set is declared once, with [`metric_set!`]: each entry
//! names the field, its exposition [`Kind`] and its family, under its
//! doc comment. From that one list the macro generates the live struct
//! (atomics and histograms), the snapshot struct with the same field
//! names, `snapshot()` between them, and the snapshot's
//! [`metrics`](Metric) table. [`write_text`] renders a table as
//! Prometheus-style text and [`write_line`] as a human-readable line,
//! so adding a metric is one line in one declaration.

use crate::HistogramSnapshot;
use std::fmt::{self, Write as _};

/// The exposition type of a family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotonically increasing count.
    Counter,
    /// An instantaneous level.
    Gauge,
    /// A distribution: p50/p95/p99 plus `_sum`, `_count` and `_max`.
    Summary,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Summary => "summary",
        }
    }
}

/// One sample value of a [`Metric`].
#[derive(Debug, Clone, Copy)]
pub enum Value<'a> {
    /// An integer count or level.
    Int(u64),
    /// A ratio.
    Float(f64),
    /// A distribution.
    Summary(&'a HistogramSnapshot),
}

impl fmt::Display for Value<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v:.2}"),
            Value::Summary(h) => write!(
                f,
                "n={} p50={} p99={} max={}",
                h.count(),
                h.p50(),
                h.p99(),
                h.max()
            ),
        }
    }
}

/// A snapshot field type that renders as a [`Value`].
pub trait MetricValue {
    /// The field's sample value.
    fn value(&self) -> Value<'_>;
}

macro_rules! int_value {
    ($($t:ty),*) => {$(
        impl MetricValue for $t {
            fn value(&self) -> Value<'_> {
                Value::Int(*self as u64)
            }
        }
    )*};
}
int_value!(u64, usize, bool);

impl MetricValue for f64 {
    fn value(&self) -> Value<'_> {
        Value::Float(*self)
    }
}

impl MetricValue for HistogramSnapshot {
    fn value(&self) -> Value<'_> {
        Value::Summary(self)
    }
}

/// One entry of a snapshot's metric table.
#[derive(Debug, Clone, Copy)]
pub struct Metric<'a> {
    /// The snapshot field (the label of the human-readable line).
    pub field: &'static str,
    /// The exposition family name.
    pub family: &'static str,
    /// The exposition type.
    pub kind: Kind,
    /// The sample value.
    pub value: Value<'a>,
}

/// Appends the Prometheus-style exposition of `metrics`: a `# TYPE`
/// line per family, then its sample (a summary's series via
/// [`write_summary`]).
pub fn write_text<'a>(out: &mut String, metrics: impl IntoIterator<Item = Metric<'a>>) {
    for m in metrics {
        let _ = writeln!(out, "# TYPE {} {}", m.family, m.kind.name());
        match m.value {
            Value::Int(v) => {
                let _ = writeln!(out, "{} {v}", m.family);
            }
            Value::Float(v) => {
                let _ = writeln!(out, "{} {v}", m.family);
            }
            Value::Summary(h) => write_summary(out, m.family, "", h),
        }
    }
}

/// Appends one summary's series — p50/p95/p99 quantiles, `_sum`,
/// `_count` and `_max` — each carrying `label` (such as `op="get"`;
/// empty for none). Writes no `# TYPE` line, so several labelled
/// series can share one family.
pub fn write_summary(out: &mut String, name: &str, label: &str, h: &HistogramSnapshot) {
    let (sel, sep) = if label.is_empty() {
        (String::new(), "")
    } else {
        (format!("{{{label}}}"), ",")
    };
    for (q, v) in [("0.5", h.p50()), ("0.95", h.p95()), ("0.99", h.p99())] {
        let _ = writeln!(out, "{name}{{{label}{sep}quantile=\"{q}\"}} {v}");
    }
    let _ = writeln!(out, "{name}_sum{sel} {}", h.sum());
    let _ = writeln!(out, "{name}_count{sel} {}", h.count());
    let _ = writeln!(out, "{name}_max{sel} {}", h.max());
}

/// Writes `metrics` as one human-readable line,
/// `section: field value, field value, …` (ratios to two decimals,
/// summaries as `n=… p50=… p99=… max=…`).
pub fn write_line<'a>(
    f: &mut impl fmt::Write,
    section: &str,
    metrics: impl IntoIterator<Item = Metric<'a>>,
) -> fmt::Result {
    write!(f, "{section}:")?;
    for (i, m) in metrics.into_iter().enumerate() {
        let sep = if i == 0 { " " } else { ", " };
        write!(f, "{sep}{} {}", m.field, m.value)?;
    }
    writeln!(f)
}

/// Declares a set of metrics once.
///
/// Each entry is `field: Kind => "family"` under its doc comment,
/// where `Kind` is `Counter`, `Gauge` or `Summary`. Two forms:
///
/// * **live** — `struct Live => struct Snapshot { … }` generates the
///   live struct (an `AtomicU64` per counter or gauge, a
///   [`Histogram`](crate::Histogram) per summary; fields `pub(crate)`, `Default`), the
///   snapshot struct (`u64` / [`HistogramSnapshot`] fields of the same
///   names), `Live::snapshot()` and the snapshot's `metrics()` table;
/// * **snapshot only** — `struct Snapshot { field: Type => Kind
///   "family", … }` for values computed at snapshot time; an entry
///   without `=> Kind "family"` is a plain field outside the table.
///
/// ```
/// rma_obs::metric_set! {
///     /// Live counters.
///     pub struct Live =>
///     /// Frozen counters.
///     #[derive(Debug, Clone)]
///     pub struct Frozen {
///         /// Requests served.
///         served: Counter => "demo_served_total",
///         /// Service time, nanoseconds.
///         service_ns: Summary => "demo_service_ns",
///     }
/// }
///
/// let live = Live::default();
/// live.served.fetch_add(2, std::sync::atomic::Ordering::Relaxed);
/// live.service_ns.record(1000);
/// let mut text = String::new();
/// rma_obs::write_text(&mut text, live.snapshot().metrics());
/// assert!(text.starts_with("# TYPE demo_served_total counter\ndemo_served_total 2\n"));
/// assert!(text.contains("demo_service_ns_count 1\n"));
/// ```
#[macro_export]
macro_rules! metric_set {
    (
        $(#[$lmeta:meta])*
        $lvis:vis struct $Live:ident =>
        $(#[$smeta:meta])*
        $svis:vis struct $Snap:ident {
            $( $(#[$fmeta:meta])* $field:ident: $kind:ident => $family:literal, )*
        }
    ) => {
        $(#[$lmeta])*
        #[derive(Debug, Default)]
        $lvis struct $Live {
            $( $(#[$fmeta])* pub(crate) $field: $crate::__metric_type!(live $kind), )*
        }

        impl $Live {
            /// Freezes every field into a snapshot.
            pub fn snapshot(&self) -> $Snap {
                $Snap {
                    $( $field: $crate::__metric_type!(freeze $kind, self.$field), )*
                }
            }
        }

        $crate::metric_set! {
            $(#[$smeta])*
            $svis struct $Snap {
                $(
                    $(#[$fmeta])*
                    $field: $crate::__metric_type!(frozen $kind) => $kind $family,
                )*
            }
        }
    };
    (
        $(#[$smeta:meta])*
        $svis:vis struct $Snap:ident {
            $( $(#[$fmeta:meta])* $field:ident: $ty:ty $(=> $kind:ident $family:literal)?, )*
        }
    ) => {
        $(#[$smeta])*
        $svis struct $Snap {
            $( $(#[$fmeta])* pub $field: $ty, )*
        }

        impl $Snap {
            /// This snapshot's metric table, in declaration order.
            pub fn metrics(&self) -> Vec<$crate::Metric<'_>> {
                vec![$($(
                    $crate::Metric {
                        field: stringify!($field),
                        family: $family,
                        kind: $crate::Kind::$kind,
                        value: $crate::MetricValue::value(&self.$field),
                    },
                )?)*]
            }
        }
    };
}

/// The live and frozen field types of a metric kind, and the freeze
/// between them (used by [`metric_set!`]).
#[doc(hidden)]
#[macro_export]
macro_rules! __metric_type {
    (live Summary) => {
        $crate::Histogram
    };
    (live $kind:ident) => {
        ::std::sync::atomic::AtomicU64
    };
    (frozen Summary) => {
        $crate::HistogramSnapshot
    };
    (frozen $kind:ident) => {
        u64
    };
    (freeze Summary, $live:expr) => {
        $live.snapshot()
    };
    (freeze $kind:ident, $live:expr) => {
        $live.load(::std::sync::atomic::Ordering::Relaxed)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Histogram;

    #[test]
    fn summary_label_formatting_is_well_formed() {
        let h = Histogram::new();
        h.record(100);
        let snap = h.snapshot();
        let mut out = String::new();
        write_summary(&mut out, "x_ns", "op=\"get\"", &snap);
        assert!(out.contains("x_ns{op=\"get\",quantile=\"0.5\"} "));
        assert!(out.contains("x_ns_count{op=\"get\"} 1"));
        let mut out = String::new();
        write_summary(&mut out, "y_ns", "", &snap);
        assert!(out.contains("y_ns{quantile=\"0.99\"} "));
        assert!(out.contains("y_ns_sum 100"));
    }
}
