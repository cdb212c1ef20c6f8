//! Connection and protocol counters for the network front-end, plus
//! the per-frame service-time distribution. Shared (`Arc`) between
//! the event-loop thread and [`NetServer::stats`] callers; every
//! update is one relaxed atomic.
//!
//! [`NetServer::stats`]: crate::NetServer::stats

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

rma_obs::metric_set! {
    /// Live counters. Snapshot with [`snapshot`](Self::snapshot).
    pub struct NetStats =>
    /// A frozen [`NetStats`] snapshot. Render with
    /// [`render_text`](Self::render_text) (Prometheus-style, the same
    /// writer as the engine's `MetricsSnapshot::render_text`) or
    /// `Display`.
    #[derive(Debug, Clone)]
    pub struct NetSnapshot {
        /// Currently open connections.
        connections: Gauge => "rma_net_connections",
        /// Connections ever accepted.
        accepted: Counter => "rma_net_accepted_total",
        /// Connections ever closed (peer hangup, protocol error or
        /// shutdown).
        closed: Counter => "rma_net_closed_total",
        /// Payload + header bytes read off sockets.
        bytes_in: Counter => "rma_net_bytes_in_total",
        /// Bytes written to sockets.
        bytes_out: Counter => "rma_net_bytes_out_total",
        /// Request frames decoded.
        frames_in: Counter => "rma_net_frames_in_total",
        /// Response frames sent (several per request when scans stream).
        frames_out: Counter => "rma_net_frames_out_total",
        /// Malformed frames; each one closed its connection.
        decode_errors: Counter => "rma_net_decode_errors_total",
        /// Ops answered [`Refused`](rma_db::Reply::Refused) (degraded
        /// read-only mode), reported as a typed wire error code.
        refused_ops: Counter => "rma_net_refused_ops_total",
        /// Router submits that carried requests from more than one
        /// decode pass entry (wire-side group commit).
        merged_submits: Counter => "rma_net_merged_submits_total",
        /// Requests that travelled inside a merged submit.
        merged_requests: Counter => "rma_net_merged_requests_total",
        /// Scan continuation chunks submitted beyond each scan's first.
        scan_chunks: Counter => "rma_net_scan_chunks_total",
        /// Times a connection's reads were paused (in-flight cap or
        /// write-buffer cap reached).
        backpressure_pauses: Counter => "rma_net_backpressure_pauses_total",
        /// High-water mark of any single connection's write buffer,
        /// bytes.
        peak_conn_write_buf: Counter => "rma_net_peak_conn_write_buf_bytes",
        /// Decode-to-final-frame wall time per request, nanoseconds.
        frame_service_ns: Summary => "rma_net_frame_service_ns",
    }
}

impl NetStats {
    pub(crate) fn bump(field: &AtomicU64) {
        field.fetch_add(1, Relaxed);
    }

    pub(crate) fn add(field: &AtomicU64, n: u64) {
        field.fetch_add(n, Relaxed);
    }

    pub(crate) fn track_peak(&self, wbuf_len: usize) {
        self.peak_conn_write_buf.fetch_max(wbuf_len as u64, Relaxed);
    }
}

impl NetSnapshot {
    /// Prometheus-style text exposition of every counter plus the
    /// frame service-time summary.
    pub fn render_text(&self) -> String {
        let mut out = String::with_capacity(1024);
        rma_obs::write_text(&mut out, self.metrics());
        out
    }
}

impl std::fmt::Display for NetSnapshot {
    /// One human-readable `net:` line of every counter (the examples
    /// print this next to `Db::metrics`).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        rma_obs::write_line(f, "net", self.metrics())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_text_lists_every_family_once() {
        let stats = NetStats::default();
        NetStats::bump(&stats.accepted);
        NetStats::add(&stats.bytes_in, 123);
        stats.track_peak(777);
        stats.track_peak(5); // smaller: peak must survive
        stats.frame_service_ns.record(1000);
        let text = stats.snapshot().render_text();
        for family in [
            "rma_net_connections",
            "rma_net_accepted_total",
            "rma_net_closed_total",
            "rma_net_bytes_in_total",
            "rma_net_bytes_out_total",
            "rma_net_frames_in_total",
            "rma_net_frames_out_total",
            "rma_net_decode_errors_total",
            "rma_net_refused_ops_total",
            "rma_net_merged_submits_total",
            "rma_net_merged_requests_total",
            "rma_net_scan_chunks_total",
            "rma_net_backpressure_pauses_total",
            "rma_net_peak_conn_write_buf_bytes",
            "rma_net_frame_service_ns",
        ] {
            assert_eq!(
                text.matches(&format!("# TYPE {family} ")).count(),
                1,
                "family {family} missing or duplicated:\n{text}"
            );
        }
        assert!(text.contains("rma_net_accepted_total 1"));
        assert!(text.contains("rma_net_bytes_in_total 123"));
        assert!(text.contains("rma_net_peak_conn_write_buf_bytes 777"));
        assert!(text.contains("rma_net_frame_service_ns_count 1"));
    }
}
