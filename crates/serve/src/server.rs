//! The daemon: accept loop, connection handling, admission control,
//! backpressure, and graceful drain.
//!
//! Threading model (three tiers, deliberately separated so no tier can
//! starve another):
//!
//! * the **accept loop** (caller's thread) polls the listener
//!   non-blockingly, feeds admitted jobs to the pool, and watches the
//!   interrupt flag;
//! * **connection threads** (one per client, capped) do all socket I/O
//!   under read/write timeouts and a bounded line length — a slow or
//!   malicious client burns its own thread for at most the idle timeout,
//!   never a pool worker;
//! * **pool workers** ([`apex_par::WorkerPool`]) run the DSE jobs and
//!   never touch a socket.
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
use apex_par::WorkerPool;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

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
    refused_conns: AtomicU64,
}

/// State shared by the accept loop, connection threads, and job
/// closures.
struct Shared {
    table: JobTable,
    /// Keys admitted by connection threads, waiting for the accept loop
    /// to hand them to the pool (connection threads never own the pool).
    inbox: Mutex<VecDeque<PendingJob>>,
    /// Set on drain: admissions are refused, running jobs see cancel.
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

/// One `apex serve` instance, generic over the job runner so tests can
/// inject fast fakes.
pub struct Server<R: JobRunner> {
    listener: TcpListener,
    shared: Arc<Shared>,
    runner: Arc<R>,
    pending: Vec<PendingJob>,
}

impl<R: JobRunner> Server<R> {
    /// Binds the listener and replays the journal (under
    /// `config.resume`). No connection is accepted until [`Server::run`].
    ///
    /// # Errors
    /// Address bind failures.
    pub fn bind(config: ServeConfig, journal: SweepJournal, runner: R) -> Result<Self, ApexError> {
        let listener = TcpListener::bind(&config.addr).map_err(|e| {
            ApexError::with_source(Stage::Cli, e)
        })?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ApexError::with_source(Stage::Cli, e))?;
        let (table, pending) = JobTable::new(journal, config.resume);
        let shared = Arc::new(Shared {
            table,
            inbox: Mutex::new(VecDeque::new()),
            stop: Arc::new(AtomicBool::new(false)),
            drain_requested: AtomicBool::new(false),
            conns: AtomicUsize::new(0),
            counters: Counters::default(),
            config,
        });
        Ok(Server {
            listener,
            shared,
            runner: Arc::new(runner),
            pending,
        })
    }

    /// The bound address (`:0` binds resolve to a real port here).
    ///
    /// # Errors
    /// The OS refusing to report the local address.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, ApexError> {
        self.listener
            .local_addr()
            .map_err(|e| ApexError::with_source(Stage::Cli, e))
    }

    /// Runs the daemon until drain (SIGINT/SIGTERM via
    /// `apex_fault::interrupt`, or a client `drain` op), then shuts the
    /// pool down and reports. Blocks the calling thread.
    pub fn run(self) -> RunSummary {
        let workers = if self.shared.config.workers == 0 {
            apex_par::default_jobs()
        } else {
            self.shared.config.workers
        };
        let pool = WorkerPool::new(workers);
        log_line(
            "INFO",
            &format!(
                "listening on {} ({} workers, queue limit {})",
                self.local_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| self.shared.config.addr.clone()),
                workers,
                self.shared.config.queue_limit
            ),
        );
        // resumed jobs go through the same inbox as fresh admissions
        if !self.pending.is_empty() {
            log_line(
                "INFO",
                &format!("resuming {} unfinished job(s) from the journal", self.pending.len()),
            );
            let mut inbox = lock_inbox(&self.shared.inbox);
            inbox.extend(self.pending.iter().cloned());
        }
        loop {
            if apex_fault::interrupt::interrupted()
                || self.shared.drain_requested.load(Ordering::Relaxed)
            {
                break;
            }
            self.dispatch_inbox(&pool);
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    #[cfg(feature = "fault-injection")]
                    if apex_fault::failpoints::should_fire("serve::accept_error") {
                        // injected transient accept failure: the daemon
                        // must drop the connection and keep serving
                        log_line("WARN", &format!("accept error (injected), dropped {peer}"));
                        drop(stream);
                        continue;
                    }
                    self.spawn_conn(stream, peer);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => {
                    // transient accept errors (EMFILE, aborted handshake)
                    // must not kill the daemon
                    log_line("WARN", &format!("accept error: {e}"));
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
        self.drain(pool)
    }

    /// Hands admitted jobs to the pool (only the accept loop touches the
    /// pool, so drain can consume it).
    fn dispatch_inbox(&self, pool: &WorkerPool) {
        loop {
            let job = {
                let mut inbox = lock_inbox(&self.shared.inbox);
                inbox.pop_front()
            };
            let Some(job) = job else { return };
            let shared = Arc::clone(&self.shared);
            let runner = Arc::clone(&self.runner);
            let submitted = pool.submit(move || run_job(&shared, runner.as_ref(), &job));
            if !submitted {
                // pool already shut down; the admission is journaled and
                // will re-run on resume
                return;
            }
        }
    }

    /// Spawns one connection thread (or turns the client away when the
    /// connection cap is reached).
    fn spawn_conn(&self, mut stream: TcpStream, peer: std::net::SocketAddr) {
        let shared = Arc::clone(&self.shared);
        if shared.conns.load(Ordering::Relaxed) >= shared.config.max_conns {
            shared.counters.refused_conns.fetch_add(1, Ordering::Relaxed);
            let line = proto::err_response(
                "overloaded",
                &[(
                    "retry_after_ms",
                    shared.config.retry_after.as_millis().to_string(),
                )],
            );
            let _ = stream.set_write_timeout(Some(shared.config.idle_timeout));
            let _ = stream.write_all(line.as_bytes());
            let _ = stream.write_all(b"\n");
            return;
        }
        shared.conns.fetch_add(1, Ordering::Relaxed);
        let builder = std::thread::Builder::new().name(format!("apex-conn-{peer}"));
        let spawned = builder.spawn(move || {
            handle_conn(&shared, stream);
            shared.conns.fetch_sub(1, Ordering::Relaxed);
        });
        if spawned.is_err() {
            // thread spawn failure: release the slot and move on
            self.shared.conns.fetch_sub(1, Ordering::Relaxed);
            log_line("WARN", &format!("cannot spawn connection thread for {peer}"));
        }
    }

    /// Graceful drain: refuse admissions, abandon queued pool jobs
    /// (journaled — resume re-runs them), cancel running jobs
    /// cooperatively, then account what is left.
    fn drain(self, pool: WorkerPool) -> RunSummary {
        log_line("INFO", "draining: admissions closed");
        self.shared.stop.store(true, Ordering::SeqCst);
        // queued-but-undispatched inbox jobs stay Queued in the table
        pool.shutdown(false);
        // running jobs have now either concluded or reported Cancelled
        let (_, _, done, failed, cancelled) = self.shared.table.counts();
        let unfinished = self.shared.table.unfinished();
        let summary = RunSummary {
            concluded: (done + failed) as u64,
            unfinished,
            shed: self.shared.counters.shed.load(Ordering::Relaxed),
            timeouts: self.shared.counters.timeouts.load(Ordering::Relaxed),
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
}

/// Recovers a poisoned inbox lock (pushes/pops are single operations;
/// the queue is always consistent).
fn lock_inbox(m: &Mutex<VecDeque<PendingJob>>) -> std::sync::MutexGuard<'_, VecDeque<PendingJob>> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Runs one job on a pool worker.
fn run_job<R: JobRunner>(shared: &Shared, runner: &R, job: &PendingJob) {
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
        tenant: job.tenant.clone(),
        graph: job.graph.clone(),
        deadline,
        cancel: Arc::clone(&shared.stop),
    };
    match runner.run(&spec) {
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
fn handle_conn(shared: &Shared, stream: TcpStream) {
    let idle = shared.config.idle_timeout;
    if stream.set_read_timeout(Some(idle)).is_err() || stream.set_write_timeout(Some(idle)).is_err()
    {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
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
                if write_line(&mut writer, &response).is_err() {
                    return;
                }
            }
            ReadOutcome::Eof | ReadOutcome::Error => return,
            ReadOutcome::TooLong => {
                shared.counters.bad_lines.fetch_add(1, Ordering::Relaxed);
                let _ = write_line(
                    &mut writer,
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
                let _ = write_line(&mut writer, &proto::err_response("idle_timeout", &[]));
                return;
            }
        }
    }
}

fn write_line(w: &mut TcpStream, line: &str) -> std::io::Result<()> {
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// Dispatches one parsed request to a response line.
fn handle_request(shared: &Shared, line: &str) -> String {
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
        } => handle_submit(shared, &tenant, &graph, deadline_ms),
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
/// journal + table insert + inbox push.
fn handle_submit(shared: &Shared, tenant: &str, graph: &str, deadline_ms: Option<u64>) -> String {
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
    match shared.table.admit(tenant, graph, deadline_ms) {
        Err(e) => {
            // the admission journal is the durability guarantee; refusing
            // is safer than accepting work a crash would silently drop
            log_line("WARN", &format!("admission journal write failed: {}", e.render_chain()));
            proto::err_response("journal_error", &[("detail", e.message().to_owned())])
        }
        Ok((key, admission)) => {
            if admission == Admission::New {
                shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
                let mut inbox = lock_inbox(&shared.inbox);
                inbox.push_back(PendingJob {
                    key,
                    tenant: tenant.to_owned(),
                    graph: graph.to_owned(),
                    deadline_ms,
                });
            }
            let state = shared
                .table
                .state(key)
                .map(|s| s.name().to_owned())
                .unwrap_or_else(|| "queued".to_owned());
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
