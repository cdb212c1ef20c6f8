//! Set-up and the closed-loop wire run.
//!
//! One in-process [`NetServer`] serves one [`Db`] built the way a user
//! gets it: default shards, router workers resolved from
//! `available_parallelism`, observability on, and a background
//! maintainer with `MaintainerConfig::default()` (plus a checkpoint
//! interval and a WAL under `CommitPolicy::Always` on the durable
//! workload). [`CONNECTIONS`] client threads each drive one
//! [`WireClient`] with [`DEPTH`] requests in flight: a closed loop, so
//! each connection sends its next request only when one completes.

use crate::check::Checker;
use crate::gen::{Kind, Stream, Workload, CONNECTIONS, DEPTH, NO_DEP};
use crate::window::SUB_WINDOWS;
use rewiring::libc;
use rma_core::{Key, Value};
use rma_db::{CommitPolicy, Db, DbBuilder, DurabilityConfig, MetricsSnapshot, Op, Reply};
use rma_net::{NetConfig, NetServer, NetSnapshot, WireClient};
use rma_shard::MaintainerConfig;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed, Ordering::SeqCst};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Checkpoint cadence on the durable workload: several seal per run.
pub const CHECKPOINT_INTERVAL: Duration = Duration::from_secs(2);
/// Closed-loop traffic before the timed window (caches fill, the
/// maintainer settles); replies are checked but not measured.
pub const WARMUP: Duration = Duration::from_secs(1);

/// The builder every `Db` of a run comes from.
pub fn builder(wal_dir: Option<&Path>) -> DbBuilder {
    let mut maintenance = MaintainerConfig::default();
    let mut b = Db::builder();
    if let Some(dir) = wal_dir {
        maintenance.checkpoint_interval = Some(CHECKPOINT_INTERVAL);
        b = b.durability(DurabilityConfig::new(dir).policy(CommitPolicy::Always));
    }
    b.maintenance(maintenance)
}

/// Fresh directories for write-ahead logs, inside the benchmark's own
/// directory; removed when dropped.
pub struct WorkDir {
    root: PathBuf,
    next: u32,
}

impl WorkDir {
    pub fn new(workload: Workload) -> WorkDir {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("{}-{}", workload.name(), std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create the benchmark work directory");
        WorkDir { root, next: 0 }
    }

    /// A path that does not exist yet.
    pub fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(format!("wal-{}", self.next))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // The shared parent goes too once no other run uses it.
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Bytes under `dir`, recursively (0 when absent).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A served store: the `Db`, its server, and its WAL directory.
pub struct Served {
    pub db: Arc<Db>,
    pub server: NetServer,
    pub wal_dir: Option<PathBuf>,
}

/// Builds the store from `pairs` and starts the server. Returns it with
/// the wall-clock seconds from the first call into the system until the
/// server listens, and the CPU seconds the process was charged for them.
pub fn setup(pairs: &[(Key, Value)], wal_dir: Option<PathBuf>) -> (Served, f64, f64) {
    let (t0, cpu0) = (Instant::now(), process_cpu_s());
    let db = builder(wal_dir.as_deref())
        .build_bulk(pairs)
        .expect("benchmark configuration is valid");
    let db = Arc::new(db);
    let server = NetServer::spawn(Arc::clone(&db), NetConfig::default()).expect("bind loopback");
    let secs = t0.elapsed().as_secs_f64();
    (
        Served {
            db,
            server,
            wal_dir,
        },
        secs,
        process_cpu_s() - cpu0,
    )
}

impl Served {
    /// Stops the server and the `Db`; returns the WAL directory.
    pub fn shut_down(self) -> Option<PathBuf> {
        let Served {
            db,
            server,
            wal_dir,
        } = self;
        drop(server);
        drop(Arc::try_unwrap(db).expect("the server released its handle"));
        wal_dir
    }
}

/// Counter snapshots taken at one window boundary.
pub struct Snap {
    pub net: NetSnapshot,
    pub metrics: MetricsSnapshot,
    pub wal_bytes: u64,
}

impl Snap {
    pub fn take(s: &Served) -> Snap {
        Snap {
            net: s.server.stats(),
            metrics: s.db.metrics(),
            wal_bytes: s.wal_dir.as_deref().map_or(0, dir_bytes),
        }
    }
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: libc::c_int = 2;

/// CPU seconds this process was charged so far, user plus system, over
/// all its threads, exited ones included. Time the hypervisor gave to
/// other guests is accounted as steal, not charged to the process.
fn process_cpu_s() -> f64 {
    let mut t = libc::timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable timespec for the call.
    let rc = unsafe { libc::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    t.tv_sec as f64 + t.tv_nsec as f64 / 1e9
}

/// Host-wide CPU ticks from the first line of `/proc/stat`: (stolen by
/// the hypervisor for other guests, all); zeros elsewhere.
fn host_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    (f.get(7).copied().unwrap_or(0), f.iter().take(8).sum())
}

/// One recorded request span: connection, request index, start and
/// end in nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub conn: u8,
    pub req: u32,
    pub start: u64,
    pub end: u64,
}

/// One answered request: its index in the connection's stream, its
/// kind, send and completion time (ns since the run's epoch) and the
/// elements a range op visited. It is both a latency sample and the
/// request's `wire.request` span.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    pub req: u32,
    pub kind: Kind,
    pub sent: u64,
    pub done: u64,
    pub elems: u32,
}

/// What one client thread saw.
#[derive(Default)]
pub struct ClientOut {
    /// Every answered request, warm-up and drain included.
    pub done: Vec<Done>,
    /// Ops sent over the whole run, and the ones that failed a check or
    /// never got an answer.
    pub attempted: u64,
    pub failed: u64,
    /// Inserts acknowledged over the whole run (durable workload only).
    pub acked: Vec<Key>,
    /// The stream ran out before the window closed.
    pub exhausted: bool,
    pub io_error: Option<String>,
}

/// State shared by the coordinator and the clients: the run's clock,
/// the coordinator's stop switch, and what clients report back.
struct Window {
    epoch: Instant,
    stop: AtomicBool,
    /// Set by a client whose stream ran out; ends the window early.
    exhausted: AtomicBool,
}

impl Window {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// The result of a closed-loop run.
pub struct RunOut {
    pub clients: Vec<ClientOut>,
    /// Sub-window boundaries (ns since the run's epoch; the timed
    /// window runs from the first to the last), and at each the
    /// process's CPU seconds and the host's CPU ticks.
    pub cuts: Vec<u64>,
    pub cpu_s: Vec<f64>,
    pub host: Vec<(u64, u64)>,
    pub before: Snap,
    pub after: Snap,
    /// Engine bytes per live element at the end of each sub-window.
    pub mem_per_elem: Vec<f64>,
    /// Engine bytes per live element when the store first held the
    /// probe size or more elements (`None` without a probe, or when the
    /// store never got there).
    pub mem_at_probe: Option<f64>,
}

/// Drives the closed loop: warm-up, `seconds` of measurement, drain.
/// A traced run does the same work: every request's send and
/// completion time is taken either way, and a traced run only writes
/// them out as spans after the window.
///
/// With `mem_probe`, the store size is polled every few milliseconds
/// until it first reaches that many elements, and its memory per
/// element is read then.
pub fn run(
    served: &Served,
    streams: &[Stream],
    preload: &[(Key, Value)],
    seconds: f64,
    mem_probe: Option<usize>,
) -> RunOut {
    let win = Window {
        epoch: Instant::now(),
        stop: AtomicBool::new(false),
        exhausted: AtomicBool::new(false),
    };
    let checker = Checker::new(preload);
    let port = served.server.port();
    let durable = served.wal_dir.is_some();
    let go = Barrier::new(CONNECTIONS + 1);
    std::thread::scope(|sc| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                let (win, checker, go) = (&win, &checker, &go);
                sc.spawn(move || client(port, stream, checker, win, go, durable))
            })
            .collect();
        go.wait();
        let mut mem_at_probe = None;
        let mut probe = || {
            if let (Some(len), None) = (mem_probe, mem_at_probe) {
                let e = served.db.stats().engine;
                if e.len >= len {
                    mem_at_probe = Some(e.memory_footprint as f64 / e.len as f64);
                }
            }
        };
        sleep_unless_exhausted(&win, Instant::now() + WARMUP, &mut probe);
        let before = Snap::take(served);
        let t0 = Instant::now();
        let mut cuts = vec![win.now()];
        let mut cpu_s = vec![process_cpu_s()];
        let mut host = vec![host_ticks()];
        // Memory is sampled at each sub-window boundary.
        let mut mem_per_elem = Vec::with_capacity(SUB_WINDOWS);
        let sub = Duration::from_secs_f64(seconds / SUB_WINDOWS as f64);
        for i in 1..=SUB_WINDOWS as u32 {
            sleep_unless_exhausted(&win, t0 + sub * i, &mut probe);
            cuts.push(win.now());
            cpu_s.push(process_cpu_s());
            host.push(host_ticks());
            let e = served.db.stats().engine;
            mem_per_elem.push(e.memory_footprint as f64 / e.len.max(1) as f64);
        }
        let after = Snap::take(served);
        win.stop.store(true, SeqCst);
        let clients: Vec<ClientOut> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        RunOut {
            clients,
            cuts,
            cpu_s,
            host,
            before,
            after,
            mem_per_elem,
            mem_at_probe,
        }
    })
}

/// Sleeps until `until` or until a client's stream runs out, calling
/// `tick` every few milliseconds.
fn sleep_unless_exhausted(win: &Window, until: Instant, tick: &mut impl FnMut()) {
    while !win.exhausted.load(Relaxed) {
        let now = Instant::now();
        if now >= until {
            return;
        }
        tick();
        std::thread::sleep((until - now).min(Duration::from_millis(20)));
    }
}

/// One connection's closed loop.
fn client(
    port: u16,
    stream: &Stream,
    checker: &Checker,
    win: &Window,
    go: &Barrier,
    durable: bool,
) -> ClientOut {
    let mut out = ClientOut::default();
    let wire = WireClient::connect(port);
    go.wait();
    let mut wire = match wire {
        Ok(w) => w,
        Err(e) => {
            out.io_error = Some(e.to_string());
            return out;
        }
    };
    let n = stream.reqs.len();
    // Per request: send and completion time (0 = unanswered) and the
    // elements a range op visited.
    let mut sent_at = vec![0u64; n];
    let mut done_at = vec![0u64; n];
    let mut elems = vec![0u32; n];
    let mut done_prefix = 0usize;
    let mut ops = Vec::<Op>::with_capacity(16);
    let mut next = 0usize;

    // Collects one completion; returns how many leading requests are
    // now all answered, or `None` on an I/O error.
    let mut complete = |wire: &mut WireClient, out: &mut ClientOut| -> Option<usize> {
        let c = match wire.recv() {
            Ok(c) => c,
            Err(e) => {
                out.io_error = Some(e.to_string());
                return None;
            }
        };
        let j = c.corr as usize;
        done_at[j] = win.now();
        let req = &stream.reqs[j];
        let keys = stream.keys_of(req);
        let failed = checker.failures(req.kind, keys, &c.replies);
        out.failed += failed as u64;
        elems[j] = match c.replies.first() {
            Some(Reply::Sum { visited, .. }) => *visited as u32,
            Some(Reply::Entries(es)) => es.len() as u32,
            _ => 0,
        };
        if durable && req.kind == Kind::Insert && failed == 0 {
            out.acked.extend_from_slice(keys);
        }
        while done_prefix < n && done_at[done_prefix] != 0 {
            done_prefix += 1;
        }
        Some(done_prefix)
    };

    let mut in_flight = 0usize;
    let mut answered = 0usize; // every request below this is answered
    let mut ok = true;
    while ok && !win.stop.load(Relaxed) {
        if next == n {
            out.exhausted = true;
            win.exhausted.store(true, Relaxed);
            break;
        }
        let req = stream.reqs[next];
        while ok && (in_flight >= DEPTH || (req.dep != NO_DEP && answered <= req.dep as usize)) {
            match complete(&mut wire, &mut out) {
                Some(a) => (answered, in_flight) = (a, in_flight - 1),
                None => ok = false,
            }
        }
        if !ok {
            break;
        }
        stream.ops_into(&req, &mut ops);
        sent_at[next] = win.now();
        if let Err(e) = wire.send(&ops) {
            out.io_error = Some(e.to_string());
            break;
        }
        out.attempted += ops.len() as u64;
        next += 1;
        in_flight += 1;
    }
    while ok && in_flight > 0 {
        ok = complete(&mut wire, &mut out).is_some();
        in_flight -= usize::from(ok);
    }

    for (j, req) in stream.reqs[..next].iter().enumerate() {
        if done_at[j] == 0 {
            // Sent but never answered.
            out.failed += req.kind.ops() as u64;
            continue;
        }
        out.done.push(Done {
            req: j as u32,
            kind: req.kind,
            sent: sent_at[j],
            done: done_at[j],
            elems: elems[j],
        });
    }
    out
}
