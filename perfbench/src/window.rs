//! End-to-end figures of the timed window.
//!
//! The window is cut into [`SUB_WINDOWS`] sub-windows of equal length,
//! and throughput, CPU time per op and each latency percentile are
//! computed per sub-window.
//! A figure reports the median of its sub-window values. On a shared
//! host other guests steal CPU time in bursts of a few seconds; the
//! median reads the program's own speed as long as fewer than half of
//! the sub-windows caught such a burst, while a change that slows the
//! program in most sub-windows — a slower maintainer step, a longer
//! checkpoint seal that recurs through the run — moves it. The
//! per-sub-window values are kept for diagnosis. A request counts
//! toward the throughput of the sub-window it completes in and toward
//! the latency of the sub-window it was sent in; latency runs from
//! `send` to the fully reassembled completion. At the benchmark's
//! window every sub-window holds over a thousand samples of each
//! request class a workload sends, so each sub-window's p99 has at
//! least ten samples beyond it.

use crate::drive::ClientOut;
use crate::gen::{Class, Kind};
use crate::report::quantile;

/// Sub-windows per timed window.
pub const SUB_WINDOWS: usize = 10;

/// The window's figures.
pub struct WindowStats {
    pub secs: f64,
    /// Completed inside the window: ops, write ops, `Scan` requests and
    /// elements visited by range ops.
    pub ops: u64,
    pub write_ops: u64,
    pub scans: u64,
    /// Latency samples per [`Class`] over the whole window.
    pub samples: [usize; 3],
    /// Medians over sub-windows: ops/s, range elements/s, CPU
    /// microseconds per op, and per-class p50 and p99 latency in
    /// microseconds (0 for an absent class).
    pub throughput: f64,
    pub cpu_us_per_op: f64,
    pub elems_s: f64,
    pub p50_us: [f64; 3],
    pub p99_us: [f64; 3],
    /// Ops/s, CPU us per op and per-class p99 latency (us) of each
    /// sub-window.
    pub sub_throughput: Vec<f64>,
    pub sub_cpu_us_per_op: Vec<f64>,
    pub sub_p99_us: Vec<[f64; 3]>,
}

/// The `q`-quantile of `xs`, interpolated between neighbours; 0 when
/// empty.
pub fn percentile(mut xs: Vec<f64>, q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let at = q * (xs.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (at - lo as f64)
}

/// Figures of the window cut at `cuts` (`SUB_WINDOWS + 1` ascending
/// times, ns since the run's epoch), with `cpu_s[i]` the process's CPU
/// seconds at `cuts[i]`.
pub fn stats(clients: &[ClientOut], cuts: &[u64], cpu_s: &[f64]) -> WindowStats {
    assert_eq!(cuts.len(), SUB_WINDOWS + 1);
    assert_eq!(cpu_s.len(), SUB_WINDOWS + 1);
    let (start, end) = (cuts[0], cuts[SUB_WINDOWS]);
    let len = (end - start).max(1);
    let sub_of = |t: u64| cuts.partition_point(|&c| c <= t) - 1;
    let mut sub_ops = [0u64; SUB_WINDOWS];
    let mut sub_elems = [0u64; SUB_WINDOWS];
    let mut sub_lat: Vec<[Vec<u32>; 3]> = (0..SUB_WINDOWS).map(|_| Default::default()).collect();
    let (mut ops, mut write_ops, mut scans) = (0, 0, 0);
    let mut samples = [0usize; 3];
    for d in clients.iter().flat_map(|c| &c.done) {
        let n = d.kind.ops() as u64;
        if d.done >= start && d.done < end {
            let s = sub_of(d.done);
            sub_ops[s] += n;
            sub_elems[s] += u64::from(d.elems);
            ops += n;
            if d.kind.class() == Class::Write {
                write_ops += n;
            }
            scans += u64::from(d.kind == Kind::Scan);
        }
        if d.sent >= start && d.sent < end {
            let class = d.kind.class() as usize;
            let lat = (d.done - d.sent).min(u64::from(u32::MAX)) as u32;
            sub_lat[sub_of(d.sent)][class].push(lat);
            samples[class] += 1;
        }
    }
    let sub_secs: Vec<f64> = cuts
        .windows(2)
        .map(|c| (c[1] - c[0]).max(1) as f64 / 1e9)
        .collect();
    let per_sec = |xs: &[u64; SUB_WINDOWS]| -> Vec<f64> {
        xs.iter()
            .zip(&sub_secs)
            .map(|(&x, s)| x as f64 / s)
            .collect()
    };
    let sub_throughput = per_sec(&sub_ops);
    let sub_cpu_us_per_op: Vec<f64> = cpu_s
        .windows(2)
        .zip(&sub_ops)
        .map(|(c, &o)| (c[1] - c[0]) * 1e6 / o.max(1) as f64)
        .collect();
    let mut per_class = |q: f64| -> [f64; 3] {
        std::array::from_fn(|c| {
            percentile(
                sub_lat
                    .iter_mut()
                    .filter(|l| !l[c].is_empty())
                    .map(|l| quantile(&mut l[c], q) / 1e3)
                    .collect(),
                0.5,
            )
        })
    };
    let (p50_us, p99_us) = (per_class(0.5), per_class(0.99));
    let sub_p99_us = sub_lat
        .iter_mut()
        .map(|l| std::array::from_fn(|c| quantile(&mut l[c], 0.99) / 1e3))
        .collect();
    WindowStats {
        secs: len as f64 / 1e9,
        ops,
        write_ops,
        scans,
        samples,
        throughput: percentile(sub_throughput.clone(), 0.5),
        cpu_us_per_op: percentile(sub_cpu_us_per_op.clone(), 0.5),
        elems_s: percentile(per_sec(&sub_elems), 0.5),
        p50_us,
        p99_us,
        sub_throughput,
        sub_cpu_us_per_op,
        sub_p99_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::Done;

    /// Equal cuts of `[start, end)` and a CPU clock at one second per
    /// sub-window.
    fn even(start: u64, end: u64) -> (Vec<u64>, Vec<f64>) {
        let cuts = (0..=SUB_WINDOWS as u64)
            .map(|i| start + (end - start) * i / SUB_WINDOWS as u64)
            .collect();
        (cuts, (0..=SUB_WINDOWS).map(|i| i as f64).collect())
    }

    fn window(c: ClientOut, start: u64, end: u64) -> WindowStats {
        let (cuts, cpu) = even(start, end);
        stats(&[c], &cuts, &cpu)
    }

    fn done(kind: Kind, sent: u64, lat: u64) -> Done {
        Done {
            req: 0,
            kind,
            sent,
            done: sent + lat,
            elems: 0,
        }
    }

    #[test]
    fn a_minority_of_slow_sub_windows_does_not_move_the_median() {
        let mut c = ClientOut::default();
        // 10 sub-windows of 100 ns; reads take 10 ns, except in the
        // four sub-windows a burst of interference hit.
        for t in 0..1000 {
            let lat = if (300..700).contains(&t) { 90 } else { 10 };
            c.done.push(done(Kind::Read, t, lat));
        }
        let s = window(c, 0, 1000);
        assert_eq!(s.p50_us[Class::Read as usize], 10.0 / 1e3);
        assert_eq!(s.p99_us[Class::Read as usize], 10.0 / 1e3);
        assert_eq!(s.samples[Class::Read as usize], 1000);
        assert_eq!(s.p50_us[Class::Scan as usize], 0.0, "absent class");
    }

    #[test]
    fn a_slowdown_of_most_sub_windows_shows() {
        let mut c = ClientOut::default();
        for t in 0..1000 {
            let lat = if (300..900).contains(&t) { 90 } else { 10 };
            c.done.push(done(Kind::Read, t, lat));
        }
        let s = window(c, 0, 1000);
        assert_eq!(s.p50_us[Class::Read as usize], 90.0 / 1e3);
    }

    #[test]
    fn a_slowdown_of_every_sub_window_shows() {
        let mut c = ClientOut::default();
        for t in 0..1000 {
            c.done
                .push(done(Kind::Read, t, if t % 100 < 80 { 10 } else { 90 }));
        }
        let s = window(c, 0, 1000);
        assert_eq!(s.p99_us[Class::Read as usize], 90.0 / 1e3);
    }

    #[test]
    fn percentile_interpolates() {
        let xs: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(percentile(xs.clone(), 0.25), 2.5);
        assert_eq!(percentile(xs, 0.75), 7.5);
        assert_eq!(percentile(vec![], 0.5), 0.0);
    }

    #[test]
    fn throughput_counts_completions_inside_the_window() {
        let mut c = ClientOut::default();
        for t in 0..2000 {
            c.done.push(done(Kind::Insert, t, 1));
        }
        let s = window(c, 500, 1500);
        assert_eq!(s.ops, 1000 * 16);
        assert_eq!(s.write_ops, 1000 * 16);
        // 16 ops per ns in every sub-window, and one CPU second over
        // each sub-window's 1600 ops.
        assert!((s.throughput - 16e9).abs() < 1.0, "{}", s.throughput);
        assert!((s.cpu_us_per_op - 1e6 / 1600.0).abs() < 1e-6);
    }
}
