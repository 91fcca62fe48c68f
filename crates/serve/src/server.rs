//! The daemon: acceptor, connection handling, admission control,
//! backpressure, and graceful drain.
//!
//! Threading model (no thread polls on a request's path):
//!
//! * the **acceptor** (`apex-accept`) blocks in `accept()` and hands
//!   each connection to its own thread;
//! * **connection threads** (one per client, capped) do all socket I/O
//!   under read/write timeouts and a bounded line length — a slow or
//!   malicious client burns its own thread for at most the idle timeout,
//!   never a pool worker. An admission is journaled, then submitted
//!   straight to the pool;
//! * **pool workers** ([`apex_par::WorkerPool`]) wake on the pool's
//!   condvar, run the DSE jobs, and never touch a socket;
//! * the **supervisor** (the caller of [`Server::run`]) notices drain or
//!   a signal within 20 ms (a signal handler cannot notify a condvar),
//!   then wakes the acceptor with one loopback connection, joins it and
//!   shuts the pool down.
//!
//! Backpressure: admission is bounded by `queue_limit` over the job
//! table's queued count. Past the limit the daemon sheds with a
//! structured `overloaded` response carrying a `retry_after_ms` hint —
//! it never queues unboundedly. Drain (SIGINT/SIGTERM or the `drain`
//! op): stop admitting, abandon queued pool jobs (their admissions are
//! journaled; `--resume` re-runs them), cancel running jobs
//! cooperatively via the shared stop flag, flush, report unfinished
//! count for the exit code.

use crate::proto::{self, Request};
use crate::runner::{JobRunner, JobSpec};
use crate::state::{Admission, JobState, JobTable, PendingJob};
use apex_core::{SweepJournal, VariantCache, JOURNAL_FORMAT};
use apex_fault::{ApexError, Provenance, Stage};
use apex_par::{JobPanic, WorkerPool};
use std::io::{ErrorKind, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The supervisor's drain/signal check period and the accept back-off.
const TICK: Duration = Duration::from_millis(20);

/// Tuning knobs for one daemon instance. `Default` is sized for tests
/// and small deployments; the CLI exposes the ones operators need.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7341` (`:0` = ephemeral).
    pub addr: String,
    /// Pool workers; `0` = [`apex_par::default_jobs`].
    pub workers: usize,
    /// Admission bound: submissions beyond this many queued jobs are
    /// shed with `overloaded`.
    pub queue_limit: usize,
    /// Concurrent connection cap; excess connections are turned away
    /// with `overloaded` before a request is read.
    pub max_conns: usize,
    /// Per-connection read/write timeout; an idle or trickling client
    /// is disconnected after this long without a complete line.
    pub idle_timeout: Duration,
    /// Request line byte bound (DFG text dominates); longer lines get
    /// `line_too_long` and a disconnect.
    pub line_limit: usize,
    /// Deadline applied to jobs that do not request one.
    pub default_deadline: Duration,
    /// The `retry_after_ms` hint shed submissions carry.
    pub retry_after: Duration,
    /// Replay the journal and re-run unfinished jobs on startup.
    pub resume: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7341".to_owned(),
            workers: 0,
            queue_limit: 32,
            max_conns: 64,
            idle_timeout: Duration::from_secs(10),
            line_limit: proto::MAX_LINE_BYTES,
            default_deadline: Duration::from_secs(300),
            retry_after: Duration::from_millis(500),
            resume: false,
        }
    }
}

/// The daemon's default journal (one well-known identity per workspace
/// and journal format, so a restarted `apex serve --resume` finds its
/// predecessor's state and a format bump starts a fresh file).
pub fn default_journal() -> SweepJournal {
    SweepJournal::for_sweep(apex_core::fnv1a(&[JOURNAL_FORMAT, "apex-serve v1"]))
}

/// Counters shared across the daemon's threads, surfaced by `stats`.
#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    shed: AtomicU64,
    timeouts: AtomicU64,
    bad_lines: AtomicU64,
}

/// State shared by the acceptor, connection threads, and job closures.
struct Shared {
    table: JobTable,
    /// Admissions go straight here from connection threads.
    pool: WorkerPool,
    runner: Box<dyn JobRunner>,
    /// Set on drain: admissions are refused, running jobs see cancel,
    /// the acceptor exits at its next wake-up.
    stop: Arc<AtomicBool>,
    /// Set by the `drain` op (the signal path sets the interrupt flag).
    drain_requested: AtomicBool,
    conns: AtomicUsize,
    counters: Counters,
    config: ServeConfig,
}

/// What a finished [`Server::run`] reports; the CLI maps `unfinished >
/// 0` to exit code 3 (resumable), mirroring the sweep convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Jobs concluded (done or failed) over the daemon's lifetime.
    pub concluded: u64,
    /// Jobs still pending at drain (journaled; re-run by `--resume`).
    pub unfinished: usize,
    /// Submissions shed by backpressure.
    pub shed: u64,
    /// Connections dropped by the idle/read timeout.
    pub timeouts: u64,
}

/// One `apex serve` instance.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    pending: Vec<PendingJob>,
}

impl Server {
    /// Binds the listener, starts the pool, and replays the journal
    /// (under `config.resume`). No connection is accepted and no job
    /// runs until [`Server::run`]. The runner is generic so tests can
    /// inject fast fakes.
    ///
    /// # Errors
    /// Address bind failures.
    pub fn bind(
        config: ServeConfig,
        journal: SweepJournal,
        runner: impl JobRunner,
    ) -> Result<Self, ApexError> {
        let listener = TcpListener::bind(&config.addr).map_err(|e| {
            ApexError::with_source(Stage::Cli, e)
        })?;
        let (table, pending) = JobTable::new(journal, config.resume);
        let shared = Arc::new(Shared {
            table,
            pool: WorkerPool::new(match config.workers {
                0 => apex_par::default_jobs(),
                n => n,
            }),
            runner: Box::new(runner),
            stop: Arc::new(AtomicBool::new(false)),
            drain_requested: AtomicBool::new(false),
            conns: AtomicUsize::new(0),
            counters: Counters::default(),
            config,
        });
        Ok(Server {
            listener,
            shared,
            pending,
        })
    }

    /// The bound address (`:0` binds resolve to a real port here).
    ///
    /// # Errors
    /// The OS refusing to report the local address.
    pub fn local_addr(&self) -> Result<SocketAddr, ApexError> {
        self.listener
            .local_addr()
            .map_err(|e| ApexError::with_source(Stage::Cli, e))
    }

    /// Runs the daemon until drain (SIGINT/SIGTERM via
    /// `apex_fault::interrupt`, or a client `drain` op), then shuts the
    /// pool down and reports. Blocks the calling thread.
    pub fn run(self) -> RunSummary {
        let shared = &self.shared;
        // never fails for a bound socket; if it did, the port-0 wake-up
        // dial would fail and drain would detach the acceptor
        let local = self
            .local_addr()
            .unwrap_or_else(|_| ([127, 0, 0, 1], 0).into());
        log_line(
            "INFO",
            &format!(
                "listening on {local} ({} workers, queue limit {})",
                shared.pool.workers(),
                shared.config.queue_limit
            ),
        );
        let n = self.pending.len();
        if n > 0 {
            log_line(
                "INFO",
                &format!("resuming {n} unfinished job(s) from the journal"),
            );
        }
        for job in self.pending {
            submit_job(shared, job);
        }
        let (listener, owner) = (self.listener, Arc::clone(shared));
        let acceptor = std::thread::Builder::new()
            .name("apex-accept".to_owned())
            .spawn(move || accept_loop(&listener, &owner));
        if let Err(e) = &acceptor {
            // the daemon cannot serve without an acceptor: drain at once
            log_line("ERROR", &format!("cannot spawn the accept thread: {e}"));
            shared.drain_requested.store(true, Ordering::SeqCst);
        }
        while !apex_fault::interrupt::interrupted()
            && !shared.drain_requested.load(Ordering::Relaxed)
        {
            std::thread::sleep(TICK);
        }
        log_line("INFO", "draining: admissions closed");
        shared.stop.store(true, Ordering::SeqCst);
        if let Ok(acceptor) = acceptor {
            stop_acceptor(acceptor, local);
        }
        drain(shared)
    }
}

/// The acceptor: blocks in `accept()` until drain sets `stop` and wakes
/// it with a loopback connection. Returning drops the listener.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        // before the failpoint, so an armed `serve::accept_error` cannot
        // swallow the drain's wake-up connection
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, peer)) => {
                #[cfg(feature = "fault-injection")]
                if apex_fault::failpoints::should_fire("serve::accept_error") {
                    // injected transient accept failure: the daemon
                    // must drop the connection and keep serving
                    log_line("WARN", &format!("accept error (injected), dropped {peer}"));
                    drop(stream);
                    continue;
                }
                spawn_conn(shared, stream, peer);
            }
            Err(e) => {
                // transient accept errors (EMFILE, aborted handshake)
                // must not kill the daemon
                log_line("WARN", &format!("accept error: {e}"));
                std::thread::sleep(TICK);
            }
        }
    }
}

/// Hands one admitted job to the pool. If drain raced the admission the
/// pool refuses it, and the job stays `Queued` and journaled for resume.
fn submit_job(shared: &Arc<Shared>, job: PendingJob) {
    let owner = Arc::clone(shared);
    shared.pool.submit(move || run_job(&owner, job));
}

/// Spawns one connection thread (or turns the client away when the
/// connection cap is reached).
fn spawn_conn(shared: &Arc<Shared>, stream: TcpStream, peer: SocketAddr) {
    if shared.conns.load(Ordering::Relaxed) >= shared.config.max_conns {
        let line = proto::err_response(
            "overloaded",
            &[(
                "retry_after_ms",
                shared.config.retry_after.as_millis().to_string(),
            )],
        );
        let _ = stream.set_write_timeout(Some(shared.config.idle_timeout));
        let _ = write_line(&stream, &line);
        return;
    }
    shared.conns.fetch_add(1, Ordering::Relaxed);
    let owner = Arc::clone(shared);
    let builder = std::thread::Builder::new().name(format!("apex-conn-{peer}"));
    let spawned = builder.spawn(move || {
        handle_conn(&owner, stream);
        owner.conns.fetch_sub(1, Ordering::Relaxed);
    });
    if spawned.is_err() {
        // thread spawn failure: release the slot and move on
        shared.conns.fetch_sub(1, Ordering::Relaxed);
        log_line("WARN", &format!("cannot spawn connection thread for {peer}"));
    }
}

/// Wakes the acceptor out of `accept()` with one loopback connection
/// (it sees `stop` and returns, dropping the listener) and joins it. If
/// the connection fails the acceptor is detached rather than hang drain.
fn stop_acceptor(acceptor: std::thread::JoinHandle<()>, mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    match TcpStream::connect_timeout(&addr, Duration::from_secs(1)) {
        // the acceptor body cannot panic
        Ok(_) => drop(acceptor.join()),
        Err(e) => log_line(
            "WARN",
            &format!("cannot wake the acceptor ({e}); detaching it"),
        ),
    }
}

/// Graceful drain, once admissions are closed and the acceptor stopped:
/// abandon queued pool jobs (journaled — resume re-runs them), wait for
/// running jobs to see the cancel flag, then account what is left.
fn drain(shared: &Shared) -> RunSummary {
    // queued-but-unstarted jobs stay Queued in the table
    shared.pool.shutdown();
    // running jobs have now either concluded or reported Cancelled
    let (_, _, done, failed, cancelled) = shared.table.counts();
    let unfinished = shared.table.unfinished();
    let summary = RunSummary {
        concluded: (done + failed) as u64,
        unfinished,
        shed: shared.counters.shed.load(Ordering::Relaxed),
        timeouts: shared.counters.timeouts.load(Ordering::Relaxed),
    };
    log_line(
        "INFO",
        &format!(
            "drained: {} concluded, {} unfinished ({} cancelled mid-flight), {} shed",
            summary.concluded, summary.unfinished, cancelled, summary.shed
        ),
    );
    if unfinished > 0 {
        log_line("INFO", "restart with --resume to finish the remaining jobs");
    }
    summary
}

/// Runs one job on a pool worker.
fn run_job(shared: &Shared, job: PendingJob) {
    if shared.stop.load(Ordering::Relaxed) {
        // drain raced the dispatch: leave the job Queued for resume
        return;
    }
    #[cfg(feature = "fault-injection")]
    if apex_fault::failpoints::should_fire("serve::mid_job_kill") {
        // injected daemon kill: the first job to start flips the
        // interrupt flag, as if SIGTERM arrived mid-flight (disarmed so
        // the drain itself runs normally)
        apex_fault::failpoints::disarm("serve::mid_job_kill");
        apex_fault::interrupt::trigger();
    }
    shared.table.mark_running(job.key);
    let deadline = job
        .deadline_ms
        .map(Duration::from_millis)
        .unwrap_or(shared.config.default_deadline);
    let spec = JobSpec {
        tenant: job.tenant,
        graph: job.graph,
        deadline,
        cancel: Arc::clone(&shared.stop),
    };
    // a panicking runner concludes its job as failed, like any
    // deterministic error: left Running it would never finish, block its
    // resubmission and re-run on every resume
    let ran = catch_unwind(AssertUnwindSafe(|| shared.runner.run(&spec))).unwrap_or_else(|p| {
        let payload = JobPanic::caught(0, p).payload;
        Err(ApexError::new(Stage::Sweep, format!("job runner panicked: {payload}")))
    });
    match ran {
        Ok(report) if report.provenance == Provenance::Cancelled => {
            // interrupted by drain: not journaled, resume re-runs it
            shared.table.cancel(job.key);
        }
        Ok(report) => shared.table.complete(job.key, &report),
        Err(e) => {
            log_line("WARN", &format!("job {:016x} failed: {}", job.key, e.render_chain()));
            shared.table.fail(job.key, &e);
        }
    }
}

/// Reads newline-terminated lines from a socket under a byte bound and
/// a per-line wall-clock deadline. The socket read timeout alone cannot
/// defeat a trickling client — one byte per interval keeps every
/// individual `read` fast while the line never completes — so each
/// `next_line` call also carries a deadline for the *whole* line.
struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
    limit: usize,
    idle: Duration,
}

/// Why a connection read ended.
enum ReadOutcome {
    Line(String),
    Eof,
    TooLong,
    IdleTimeout,
    Error,
}

impl LineReader {
    fn next_line(&mut self) -> ReadOutcome {
        let deadline = std::time::Instant::now() + self.idle;
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                let text = String::from_utf8_lossy(&line[..pos]).into_owned();
                return ReadOutcome::Line(text);
            }
            if self.buf.len() > self.limit {
                return ReadOutcome::TooLong;
            }
            // checked before the read so a trickling client is cut off at
            // most one socket-timeout past the line deadline
            if std::time::Instant::now() >= deadline {
                return ReadOutcome::IdleTimeout;
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return ReadOutcome::Eof,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return ReadOutcome::IdleTimeout;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return ReadOutcome::Error,
            }
        }
    }
}

/// Serves one connection until EOF, timeout, oversized line, or drain.
fn handle_conn(shared: &Arc<Shared>, stream: TcpStream) {
    let idle = shared.config.idle_timeout;
    if stream.set_read_timeout(Some(idle)).is_err() || stream.set_write_timeout(Some(idle)).is_err()
    {
        return;
    }
    let mut reader = LineReader {
        stream,
        buf: Vec::new(),
        limit: shared.config.line_limit,
        idle,
    };
    loop {
        match reader.next_line() {
            ReadOutcome::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                let response = handle_request(shared, &line);
                if write_line(&reader.stream, &response).is_err() {
                    return;
                }
            }
            ReadOutcome::Eof | ReadOutcome::Error => return,
            ReadOutcome::TooLong => {
                shared.counters.bad_lines.fetch_add(1, Ordering::Relaxed);
                let _ = write_line(
                    &reader.stream,
                    &proto::err_response(
                        "line_too_long",
                        &[("limit", shared.config.line_limit.to_string())],
                    ),
                );
                return;
            }
            ReadOutcome::IdleTimeout => {
                shared.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                log_line("WARN", "idle connection disconnected");
                let _ = write_line(&reader.stream, &proto::err_response("idle_timeout", &[]));
                return;
            }
        }
    }
}

/// One `write` per line: a lone trailing `\n` would be a second segment
/// that Nagle's algorithm holds until the first is acknowledged.
fn write_line(mut w: &TcpStream, line: &str) -> std::io::Result<()> {
    w.write_all(format!("{line}\n").as_bytes())
}

/// Dispatches one parsed request to a response line.
fn handle_request(shared: &Arc<Shared>, line: &str) -> String {
    let request = match proto::parse_request(line) {
        Ok(r) => r,
        Err(e) => {
            shared.counters.bad_lines.fetch_add(1, Ordering::Relaxed);
            return proto::err_response("bad_request", &[("detail", e.detail())]);
        }
    };
    match request {
        Request::Ping => proto::ok_response(
            "pong",
            &[
                ("queued", shared.table.queued().to_string()),
                ("running", shared.table.running().to_string()),
                (
                    "draining",
                    draining(shared).to_string(),
                ),
            ],
        ),
        Request::Submit {
            tenant,
            graph,
            deadline_ms,
        } => handle_submit(shared, tenant, graph, deadline_ms),
        Request::Status { job } => match shared.table.state(job) {
            None => proto::err_response("unknown_job", &[("job", format!("{job:016x}"))]),
            Some(state) => {
                let mut extra = vec![
                    ("job", format!("{job:016x}")),
                    ("state", state.name().to_owned()),
                ];
                if let JobState::Done { provenance, .. } = &state {
                    extra.push(("provenance", provenance.marker().to_owned()));
                }
                proto::ok_response("status", &extra)
            }
        },
        Request::Result { job } => match shared.table.state(job) {
            None => proto::err_response("unknown_job", &[("job", format!("{job:016x}"))]),
            Some(JobState::Done {
                payload,
                provenance,
                degradations,
            }) => proto::ok_response(
                "result",
                &[
                    ("job", format!("{job:016x}")),
                    ("payload", payload),
                    ("provenance", provenance.marker().to_owned()),
                    ("degradations", degradations),
                ],
            ),
            Some(JobState::Failed { error }) => proto::err_response(
                "job_failed",
                &[("job", format!("{job:016x}")), ("detail", error)],
            ),
            Some(state) => proto::err_response(
                "not_done",
                &[
                    ("job", format!("{job:016x}")),
                    ("state", state.name().to_owned()),
                ],
            ),
        },
        Request::Stats => {
            let (queued, running, done, failed, cancelled) = shared.table.counts();
            let cache = VariantCache::shared();
            proto::ok_response(
                "stats",
                &[
                    ("queued", queued.to_string()),
                    ("running", running.to_string()),
                    ("done", done.to_string()),
                    ("failed", failed.to_string()),
                    ("cancelled", cancelled.to_string()),
                    (
                        "accepted",
                        shared.counters.accepted.load(Ordering::Relaxed).to_string(),
                    ),
                    ("shed", shared.counters.shed.load(Ordering::Relaxed).to_string()),
                    (
                        "timeouts",
                        shared.counters.timeouts.load(Ordering::Relaxed).to_string(),
                    ),
                    (
                        "bad_lines",
                        shared.counters.bad_lines.load(Ordering::Relaxed).to_string(),
                    ),
                    ("conns", shared.conns.load(Ordering::Relaxed).to_string()),
                    ("cache_hits", cache.hits().to_string()),
                    ("cache_misses", cache.misses().to_string()),
                    ("cache_evicted", cache.evicted().to_string()),
                ],
            )
        }
        Request::Drain => {
            shared.drain_requested.store(true, Ordering::SeqCst);
            proto::ok_response("draining", &[])
        }
    }
}

fn draining(shared: &Shared) -> bool {
    shared.stop.load(Ordering::Relaxed)
        || shared.drain_requested.load(Ordering::Relaxed)
        || apex_fault::interrupt::interrupted()
}

/// Admission control: drain and backpressure checks, then write-ahead
/// journal + table insert + pool submit.
fn handle_submit(
    shared: &Arc<Shared>,
    tenant: String,
    graph: String,
    deadline_ms: Option<u64>,
) -> String {
    if draining(shared) {
        return proto::err_response("draining", &[]);
    }
    let queued = shared.table.queued();
    if queued >= shared.config.queue_limit {
        shared.counters.shed.fetch_add(1, Ordering::Relaxed);
        return proto::err_response(
            "overloaded",
            &[
                (
                    "retry_after_ms",
                    shared.config.retry_after.as_millis().to_string(),
                ),
                ("queued", queued.to_string()),
            ],
        );
    }
    match shared.table.admit(&tenant, &graph, deadline_ms) {
        Err(e) => {
            // the admission journal is the durability guarantee; refusing
            // is safer than accepting work a crash would silently drop
            log_line("WARN", &format!("admission journal write failed: {}", e.render_chain()));
            proto::err_response("journal_error", &[("detail", e.message().to_owned())])
        }
        Ok((key, admission)) => {
            // read before the submit, so a fresh admission reports
            // `queued` even when a worker picks it up at once
            let state = shared
                .table
                .state(key)
                .map(|s| s.name().to_owned())
                .unwrap_or_else(|| "queued".to_owned());
            if admission == Admission::New {
                shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
                let job = PendingJob {
                    key,
                    tenant,
                    graph,
                    deadline_ms,
                };
                submit_job(shared, job);
            }
            proto::ok_response(
                "accepted",
                &[("job", format!("{key:016x}")), ("state", state)],
            )
        }
    }
}

/// One structured stderr log line; CI greps for `ERROR` to assert a
/// clean run, so levels are part of the contract (INFO/WARN/ERROR).
fn log_line(level: &str, message: &str) {
    eprintln!("serve [{level}] {message}");
}
