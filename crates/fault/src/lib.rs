//! Fault-tolerance primitives for the APEX DSE engine.
//!
//! A multi-application DSE sweep (mine → merge → rewrite → map → pipeline →
//! place → route) must degrade and keep reporting rather than abort when one
//! stage fails or exhausts its budget. This crate is the workspace's
//! bottom-most layer for that policy:
//!
//! * [`ApexError`] — the unified error type every stage error converts
//!   into, carrying the [`Stage`] it came from and an optional source chain.
//! * [`Budget`] / [`Meter`] — wall-clock deadlines, step budgets, byte
//!   caps and cooperative cancellation for the search loops (embedding
//!   enumeration, MIS analysis, clique branch-and-bound, PathFinder): one
//!   meter per stage invocation with [`Meter::tick`], [`Meter::charge`]
//!   and a single [`Meter::provenance`].
//! * [`Provenance`] — how a search result ended: ran to completion, was
//!   truncated by a step budget, hit its deadline, or was cancelled.
//! * [`Degradation`] / [`DseOutcome`] — per-application records of every
//!   fallback the resilient driver took, so reports can render partial
//!   sweeps honestly.
//! * [`fail_point!`] — a deterministic, feature-gated fault-injection
//!   macro (no external dependencies) used by the robustness test-suite to
//!   prove each stage fault degrades instead of panicking.
//! * [`FAILPOINT_CATALOG`] — the enumerable registry of every fail-point
//!   site in the workspace, so chaos campaigns can enumerate fault
//!   schedules instead of hand-picking them.
//! * [`fnv1a`] / [`parse_byte_size`] — the workspace's one content hash
//!   (cache keys, journal checksums, memo keys) and its one `k`/`m`/`g`
//!   byte-size parser.
//! * [`record`] — the one flat-record line codec (serve wire, sweep
//!   journal, variant-cache envelope, chaos report) and its checksum
//!   framing ([`record::seal`] / [`record::open`]).
//! * [`iofault`] — an injected-I/O-fault adapter for journal/cache writes
//!   (ENOSPC, short write, fsync failure), a plain passthrough without the
//!   `fault-injection` feature.

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub mod interrupt;
pub mod record;

/// The pipeline stage an error or degradation originated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Input parsing / graph construction.
    Parse,
    /// Frequent-subgraph mining.
    Mine,
    /// Datapath merging (clique search included).
    Merge,
    /// Rewrite-rule synthesis.
    Rewrite,
    /// Instruction selection onto the PE.
    Map,
    /// PE or application pipelining.
    Pipeline,
    /// CGRA placement.
    Place,
    /// CGRA routing.
    Route,
    /// Post-route functional verification.
    Verify,
    /// Cost/area/energy reporting.
    Report,
    /// Parallel sweep execution (job pool, worker panics, cache I/O).
    Sweep,
    /// Command-line driver.
    Cli,
}

impl Stage {
    /// Lower-case stage name used in diagnostics and report columns.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Mine => "mine",
            Stage::Merge => "merge",
            Stage::Rewrite => "rewrite",
            Stage::Map => "map",
            Stage::Pipeline => "pipeline",
            Stage::Place => "place",
            Stage::Route => "route",
            Stage::Verify => "verify",
            Stage::Report => "report",
            Stage::Sweep => "sweep",
            Stage::Cli => "cli",
        }
    }

    /// Inverse of [`Stage::name`] (used by the on-disk variant-cache
    /// codec); `None` for unknown names.
    pub fn from_name(name: &str) -> Option<Self> {
        const ALL: [Stage; 12] = [
            Stage::Parse,
            Stage::Mine,
            Stage::Merge,
            Stage::Rewrite,
            Stage::Map,
            Stage::Pipeline,
            Stage::Place,
            Stage::Route,
            Stage::Verify,
            Stage::Report,
            Stage::Sweep,
            Stage::Cli,
        ];
        ALL.into_iter().find(|s| s.name() == name)
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The unified workspace error: which stage failed and why.
///
/// Stage crates keep their own precise error enums; anything that crosses a
/// stage boundary converts into `ApexError` so drivers and the CLI handle a
/// single type. The `source` chain preserves the original error for
/// `error: <stage>: <cause>` rendering.
#[derive(Debug)]
pub struct ApexError {
    stage: Stage,
    message: String,
    source: Option<Box<dyn Error + Send + Sync + 'static>>,
}

impl ApexError {
    /// An error with a message and no underlying cause.
    pub fn new(stage: Stage, message: impl Into<String>) -> Self {
        ApexError {
            stage,
            message: message.into(),
            source: None,
        }
    }

    /// Wraps an underlying stage error, keeping it on the source chain.
    pub fn with_source(
        stage: Stage,
        source: impl Error + Send + Sync + 'static,
    ) -> Self {
        ApexError {
            stage,
            message: source.to_string(),
            source: Some(Box::new(source)),
        }
    }

    /// The stage this error belongs to.
    pub fn stage(&self) -> Stage {
        self.stage
    }

    /// The human-readable cause (without the stage prefix).
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Renders the full `error: <stage>: <cause>` chain, one line,
    /// innermost cause last.
    pub fn render_chain(&self) -> String {
        let mut s = format!("error: {}: {}", self.stage, self.message);
        let mut src = self.source().and_then(Error::source);
        while let Some(cause) = src {
            s.push_str(&format!(": {cause}"));
            src = cause.source();
        }
        s
    }
}

impl fmt::Display for ApexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.stage, self.message)
    }
}

impl Error for ApexError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        self.source
            .as_deref()
            .map(|e| e as &(dyn Error + 'static))
    }
}

/// The limits of one search stage: a wall-clock deadline, a step budget,
/// an approximate byte cap, and a cooperative cancellation flag.
///
/// All limits are optional; [`Budget::unlimited`] never stops a search.
/// A stage checks its budget through the one [`Meter`] that
/// [`Budget::start`] returns: [`Meter::tick`] once per unit of work,
/// [`Meter::charge`] before each dominant allocation (embedding rows,
/// overlap graphs, clique matrices), so exceeding any limit truncates the
/// search with a partial [`Provenance`] instead of hanging or
/// OOM-aborting.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// Wall-clock allowance for the stage.
    pub deadline: Option<Duration>,
    /// Maximum number of cooperative steps (loop iterations, search nodes).
    pub max_steps: Option<u64>,
    /// Approximate byte cap on the stage's accounted allocations.
    pub max_bytes: Option<u64>,
    /// External cancellation flag (e.g. a sweep-wide abort).
    pub cancel: Option<Arc<AtomicBool>>,
}

// Manual equality so option structs embedding a budget can keep deriving
// `PartialEq`/`Eq`; cancellation flags compare by identity.
impl PartialEq for Budget {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline
            && self.max_steps == other.max_steps
            && self.max_bytes == other.max_bytes
            && match (&self.cancel, &other.cancel) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
    }
}

impl Eq for Budget {}

impl Budget {
    /// A budget that never interrupts the search.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// The byte cap `APEX_MEM_BUDGET` requests (byte count, `k`/`m`/`g`
    /// suffixes), no other limit; unlimited when unset or unparseable — a
    /// bad value must not abort production runs.
    pub fn from_env() -> Self {
        Budget {
            max_bytes: std::env::var("APEX_MEM_BUDGET")
                .ok()
                .and_then(|v| parse_byte_size(&v)),
            ..Budget::default()
        }
    }

    /// Sets a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets a step budget.
    pub fn with_max_steps(mut self, steps: u64) -> Self {
        self.max_steps = Some(steps);
        self
    }

    /// Caps the accounted bytes.
    pub fn with_max_bytes(mut self, bytes: u64) -> Self {
        self.max_bytes = Some(bytes);
        self
    }

    /// Attaches a cooperative cancellation flag.
    pub fn with_cancel(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Starts metering this budget (records the start instant).
    pub fn start(&self) -> Meter {
        Meter {
            started: Instant::now(),
            deadline: self.deadline,
            max_steps: self.max_steps,
            max_bytes: self.max_bytes,
            cancel: self.cancel.clone(),
            steps: 0,
            used: 0,
            stopped: None,
            bytes_rejected: false,
        }
    }
}

/// How often the meter consults the clock; step-count and cancellation
/// checks happen on every tick.
const CLOCK_CHECK_MASK: u64 = 0xFF;

/// A running budget check for one stage invocation.
///
/// Call [`Meter::tick`] once per unit of work; it returns `false` once the
/// step budget, the deadline or the cancellation flag trips, and latches.
/// The clock is only consulted every 256 ticks so metering stays out of
/// the hot path; the cancellation flag is a single relaxed atomic load
/// and is consulted on **every** tick, so a Ctrl-C or a daemon drain is
/// observed within one unit of work rather than up to 255 (possibly slow)
/// steps later.
///
/// [`Meter::charge`] approves or rejects an allocation *before* it
/// happens: on rejection nothing is accounted and the byte stop latches,
/// so the caller truncates its structure at a deterministic point (the
/// same point on every run with the same inputs and budget). A rejected
/// charge does not stop [`Meter::tick`]; [`Meter::provenance`] reports
/// the worse of the two stops.
#[derive(Debug)]
pub struct Meter {
    started: Instant,
    deadline: Option<Duration>,
    max_steps: Option<u64>,
    max_bytes: Option<u64>,
    cancel: Option<Arc<AtomicBool>>,
    steps: u64,
    used: u64,
    stopped: Option<Provenance>,
    bytes_rejected: bool,
}

impl Meter {
    /// Accounts one unit of work. Returns `true` while the search may
    /// continue. Once a limit trips the meter latches and keeps returning
    /// `false`.
    pub fn tick(&mut self) -> bool {
        if self.stopped.is_some() {
            return false;
        }
        self.steps += 1;
        if let Some(max) = self.max_steps {
            if self.steps > max {
                self.stopped = Some(Provenance::TruncatedByBudget);
                return false;
            }
        }
        // cancellation must propagate within one unit of work even when
        // individual steps are slow, so the flag (one relaxed load) is
        // checked every tick; only the clock read stays masked
        if let Some(flag) = &self.cancel {
            if flag.load(Ordering::Relaxed) {
                self.stopped = Some(Provenance::Cancelled);
                return false;
            }
        }
        if self.steps & CLOCK_CHECK_MASK == 0 {
            return self.check_slow();
        }
        true
    }

    /// Forces a clock/cancellation check regardless of tick phase (used
    /// before committing to an expensive sub-search).
    pub fn check_slow(&mut self) -> bool {
        if self.stopped.is_some() {
            return false;
        }
        if let Some(flag) = &self.cancel {
            if flag.load(Ordering::Relaxed) {
                self.stopped = Some(Provenance::Cancelled);
                return false;
            }
        }
        if let Some(d) = self.deadline {
            if self.started.elapsed() >= d {
                self.stopped = Some(Provenance::TimedOut);
                return false;
            }
        }
        true
    }

    /// Asks to account `bytes` more. Returns `true` (and accounts them)
    /// while the total stays within the cap; on `false` nothing was
    /// accounted and the byte stop latches into [`Meter::provenance`].
    pub fn charge(&mut self, bytes: u64) -> bool {
        match self.max_bytes {
            Some(max) if self.used.saturating_add(bytes) > max => {
                self.bytes_rejected = true;
                false
            }
            _ => {
                self.used = self.used.saturating_add(bytes);
                true
            }
        }
    }

    /// Returns previously-charged bytes (a freed scratch structure).
    pub fn release(&mut self, bytes: u64) {
        self.used = self.used.saturating_sub(bytes);
    }

    /// Bytes accounted so far.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Units of work accounted so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Wall-clock time left before the deadline: `None` without one,
    /// zero once it has passed.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_sub(self.started.elapsed()))
    }

    /// The search outcome as seen by this meter: the worse of the
    /// step/clock/cancel stop and the byte stop.
    pub fn provenance(&self) -> Provenance {
        let ticked = self.stopped.unwrap_or(Provenance::Completed);
        if self.bytes_rejected {
            ticked.worst(Provenance::TruncatedByBudget)
        } else {
            ticked
        }
    }
}

/// How a search stage's result came to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provenance {
    /// The search ran to natural completion; the result is exact (within
    /// the algorithm's own guarantees).
    Completed,
    /// A step budget truncated the search; the result is the incumbent.
    TruncatedByBudget,
    /// The wall-clock deadline expired; the result is the incumbent.
    TimedOut,
    /// An external cancellation stopped the search.
    Cancelled,
    /// A sweep-level result covering only part of its jobs (the sweep was
    /// interrupted and drained; completed jobs are journaled for resume).
    Partial,
}

impl Provenance {
    /// True unless the search completed naturally.
    pub fn is_partial(self) -> bool {
        self != Provenance::Completed
    }

    /// Merges two provenances, keeping the "worst" (most-interrupted) one.
    pub fn worst(self, other: Provenance) -> Provenance {
        use Provenance::*;
        match (self, other) {
            (Cancelled, _) | (_, Cancelled) => Cancelled,
            (Partial, _) | (_, Partial) => Partial,
            (TimedOut, _) | (_, TimedOut) => TimedOut,
            (TruncatedByBudget, _) | (_, TruncatedByBudget) => TruncatedByBudget,
            (Completed, Completed) => Completed,
        }
    }

    /// Short marker for reports (`ok` / `trunc` / `timeout` / `cancel` /
    /// `partial`).
    pub fn marker(self) -> &'static str {
        match self {
            Provenance::Completed => "ok",
            Provenance::TruncatedByBudget => "trunc",
            Provenance::TimedOut => "timeout",
            Provenance::Cancelled => "cancel",
            Provenance::Partial => "partial",
        }
    }

    /// Inverse of [`Provenance::marker`] (used by the on-disk sweep
    /// journal codec); `None` for unknown markers.
    pub fn from_marker(marker: &str) -> Option<Self> {
        const ALL: [Provenance; 5] = [
            Provenance::Completed,
            Provenance::TruncatedByBudget,
            Provenance::TimedOut,
            Provenance::Cancelled,
            Provenance::Partial,
        ];
        ALL.into_iter().find(|p| p.marker() == marker)
    }
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.marker())
    }
}

/// The kind of corrective action the resilient driver took.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DegradationKind {
    /// A search was truncated by a step budget but its incumbent was used.
    Truncated,
    /// A search hit its deadline but its incumbent was used.
    TimedOut,
    /// The stage failed and a cheaper substitute result was used.
    Fallback,
    /// The stage failed and succeeded on a retry with altered parameters.
    Retried,
    /// The stage was skipped entirely.
    Skipped,
}

impl DegradationKind {
    pub fn name(self) -> &'static str {
        match self {
            DegradationKind::Truncated => "truncated",
            DegradationKind::TimedOut => "timed-out",
            DegradationKind::Fallback => "fallback",
            DegradationKind::Retried => "retried",
            DegradationKind::Skipped => "skipped",
        }
    }

    /// Inverse of [`DegradationKind::name`] (used by the on-disk
    /// variant-cache codec); `None` for unknown names.
    pub fn from_name(name: &str) -> Option<Self> {
        const ALL: [DegradationKind; 5] = [
            DegradationKind::Truncated,
            DegradationKind::TimedOut,
            DegradationKind::Fallback,
            DegradationKind::Retried,
            DegradationKind::Skipped,
        ];
        ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One recorded deviation from the ideal flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// Where it happened.
    pub stage: Stage,
    /// What the driver did about it.
    pub kind: DegradationKind,
    /// Free-form context ("greedy incumbent", "seed retry 2/4", ...).
    pub detail: String,
}

impl Degradation {
    pub fn new(stage: Stage, kind: DegradationKind, detail: impl Into<String>) -> Self {
        Degradation {
            stage,
            kind,
            detail: detail.into(),
        }
    }

    /// A degradation recording a partial search result; `None` when the
    /// provenance is [`Provenance::Completed`].
    pub fn from_provenance(stage: Stage, p: Provenance) -> Option<Self> {
        let kind = match p {
            Provenance::Completed => return None,
            Provenance::TruncatedByBudget => DegradationKind::Truncated,
            Provenance::TimedOut => DegradationKind::TimedOut,
            Provenance::Cancelled | Provenance::Partial => DegradationKind::Skipped,
        };
        Some(Degradation::new(stage, kind, format!("search {p}")))
    }
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}({})", self.stage, self.kind.name(), self.detail)
    }
}

/// A per-application DSE result plus every degradation taken to reach it.
#[derive(Debug, Clone)]
pub struct DseOutcome<T> {
    /// The (possibly degraded) result.
    pub result: T,
    /// Everything that went wrong on the way, in order.
    pub degradations: Vec<Degradation>,
}

impl<T> DseOutcome<T> {
    /// An outcome produced by the ideal, degradation-free path.
    pub fn clean(result: T) -> Self {
        DseOutcome {
            result,
            degradations: Vec::new(),
        }
    }

    /// An outcome that required corrective action.
    pub fn degraded(result: T, degradations: Vec<Degradation>) -> Self {
        DseOutcome {
            result,
            degradations,
        }
    }

    /// Whether any fallback, retry or truncation occurred.
    pub fn is_degraded(&self) -> bool {
        !self.degradations.is_empty()
    }

    /// Compact one-token-per-degradation summary for report columns; `-`
    /// when clean.
    pub fn degradation_summary(&self) -> String {
        if self.degradations.is_empty() {
            "-".to_string()
        } else {
            self.degradations
                .iter()
                .map(|d| format!("{}:{}", d.stage, d.kind.name()))
                .collect::<Vec<_>>()
                .join(",")
        }
    }

    /// Maps the result, keeping the degradation record.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> DseOutcome<U> {
        DseOutcome {
            result: f(self.result),
            degradations: self.degradations,
        }
    }
}

/// Deterministic fault-injection registry (compiled only with the
/// `fault-injection` feature). Tests arm a named site, run the flow, and
/// the corresponding [`fail_point!`] returns the injected error.
///
/// A site can be armed to fire on its *N*-th hit ([`arm_after`]): the
/// firing check, [`should_fire`], counts hits per site, and a site fires
/// from the configured hit onward until disarmed. `arm(name)` is
/// `arm_after(name, 1)` — fire on every hit — which preserves the
/// historical always-fire semantics for every existing caller.
#[cfg(feature = "fault-injection")]
pub mod failpoints {
    use std::collections::BTreeMap;
    use std::sync::{Mutex, OnceLock};

    /// Per-site arming state: fire from the `after`-th hit on.
    #[derive(Debug, Clone, Copy)]
    struct ArmState {
        after: u64,
        hits: u64,
    }

    fn registry() -> &'static Mutex<BTreeMap<String, ArmState>> {
        static REGISTRY: OnceLock<Mutex<BTreeMap<String, ArmState>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
    }

    fn lock() -> std::sync::MutexGuard<'static, BTreeMap<String, ArmState>> {
        // a poisoned registry only happens if a test panicked mid-update;
        // the map itself is always in a consistent state
        registry().lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Arms a fail point; every `fail_point!($name)` hit returns its
    /// injected error until [`disarm`] is called.
    pub fn arm(name: &str) {
        arm_after(name, 1);
    }

    /// Arms a fail point to fire on its `nth` hit (1-based) and on every
    /// hit after that. `nth == 0` is treated as 1.
    pub fn arm_after(name: &str, nth: u64) {
        lock().insert(
            name.to_string(),
            ArmState {
                after: nth.max(1),
                hits: 0,
            },
        );
    }

    /// Disarms one fail point.
    pub fn disarm(name: &str) {
        lock().remove(name);
    }

    /// Disarms every fail point (test teardown).
    pub fn disarm_all() {
        lock().clear();
    }

    /// Whether a fail point is currently armed (a non-counting peek; the
    /// firing decision is [`should_fire`]).
    pub fn is_armed(name: &str) -> bool {
        lock().contains_key(name)
    }

    /// Counts one hit on `name` and reports whether the site fires now.
    /// Unarmed sites never fire and are not counted.
    pub fn should_fire(name: &str) -> bool {
        let mut reg = lock();
        match reg.get_mut(name) {
            Some(state) => {
                state.hits += 1;
                state.hits >= state.after
            }
            None => false,
        }
    }

    /// Hits counted against `name` so far (0 when unarmed).
    pub fn hits(name: &str) -> u64 {
        lock().get(name).map_or(0, |s| s.hits)
    }

    /// Names of all armed fail points (diagnostics).
    pub fn armed() -> Vec<String> {
        lock().keys().cloned().collect()
    }
}

/// Deterministic fault-injection site.
///
/// `fail_point!("site", expr)` returns `Err(expr)` from the enclosing
/// function when the site is armed via [`failpoints::arm`] (or when the
/// hit counter reaches the threshold set by [`failpoints::arm_after`]).
/// Without the `fault-injection` feature the macro expands to nothing, so
/// production builds carry zero overhead. The consuming crate must forward
/// its own `fault-injection` feature to `apex-fault/fault-injection`.
#[macro_export]
macro_rules! fail_point {
    ($name:expr, $err:expr) => {
        #[cfg(feature = "fault-injection")]
        {
            if $crate::failpoints::should_fire($name) {
                return Err($err);
            }
        }
    };
}

/// One registered fault-injection site: its name, the pipeline stage it
/// lives in, and what arming it simulates. See [`FAILPOINT_CATALOG`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailpointInfo {
    /// The name passed to `fail_point!` / `failpoints::arm`.
    pub name: &'static str,
    /// The stage whose code hosts the site.
    pub stage: Stage,
    /// What firing the site simulates.
    pub description: &'static str,
}

/// The enumerable catalog of every fail-point site in the workspace.
///
/// Chaos campaigns enumerate fault schedules from this table instead of
/// hand-picking sites, so a new `fail_point!` must be registered here (a
/// test in this crate scans the workspace sources and fails on any
/// unregistered site). The catalog is compiled unconditionally — only the
/// arming registry is feature-gated.
pub const FAILPOINT_CATALOG: &[FailpointInfo] = &[
    FailpointInfo {
        name: "pipeline::start",
        stage: Stage::Pipeline,
        description: "PE pipelining fails at entry",
    },
    FailpointInfo {
        name: "pipeline::app",
        stage: Stage::Pipeline,
        description: "application pipelining fails at entry",
    },
    FailpointInfo {
        name: "mine::start",
        stage: Stage::Mine,
        description: "frequent-subgraph mining fails at entry",
    },
    FailpointInfo {
        name: "map::start",
        stage: Stage::Map,
        description: "instruction selection fails at entry",
    },
    FailpointInfo {
        name: "place::start",
        stage: Stage::Place,
        description: "CGRA placement fails at entry",
    },
    FailpointInfo {
        name: "route::start",
        stage: Stage::Route,
        description: "CGRA routing fails at entry",
    },
    FailpointInfo {
        name: "merge::start",
        stage: Stage::Merge,
        description: "datapath merging fails at entry",
    },
    FailpointInfo {
        name: "rewrite::start",
        stage: Stage::Rewrite,
        description: "rewrite-rule synthesis fails at entry",
    },
    FailpointInfo {
        name: "rewrite::synth_panic",
        stage: Stage::Rewrite,
        description: "a rewrite-synthesis worker panics mid-job",
    },
    FailpointInfo {
        name: "core::mine_panic",
        stage: Stage::Mine,
        description: "a mining worker panics mid-job",
    },
    FailpointInfo {
        name: "sweep::journal_write",
        stage: Stage::Sweep,
        description: "a checkpoint-journal append fails",
    },
    FailpointInfo {
        name: "sweep::journal_replay",
        stage: Stage::Sweep,
        description: "journal replay sees an unreadable file",
    },
    FailpointInfo {
        name: "sweep::interrupt_midsweep",
        stage: Stage::Sweep,
        description: "Ctrl-C after the first executed job of a sweep",
    },
    FailpointInfo {
        name: "sweep::job_timeout",
        stage: Stage::Sweep,
        description: "a sweep job hangs until its job budget's deadline or interrupt stops it",
    },
    FailpointInfo {
        name: "serve::slow_client",
        stage: Stage::Cli,
        description: "the submit client trickles one byte at a time",
    },
    FailpointInfo {
        name: "serve::accept_error",
        stage: Stage::Sweep,
        description: "the daemon's accept loop sees a transient error",
    },
    FailpointInfo {
        name: "serve::mid_job_kill",
        stage: Stage::Sweep,
        description: "SIGTERM the moment a daemon job starts",
    },
    FailpointInfo {
        name: "serve::cache_evict_race",
        stage: Stage::Sweep,
        description: "a cache entry vanishes between listing and eviction",
    },
    FailpointInfo {
        name: "io::journal_enospc",
        stage: Stage::Sweep,
        description: "journal append hits ENOSPC before any byte lands",
    },
    FailpointInfo {
        name: "io::journal_short_write",
        stage: Stage::Sweep,
        description: "journal append fails after writing half the record",
    },
    FailpointInfo {
        name: "io::journal_fsync",
        stage: Stage::Sweep,
        description: "journal fsync fails after the data was written",
    },
    FailpointInfo {
        name: "io::cache_enospc",
        stage: Stage::Sweep,
        description: "variant-cache write hits ENOSPC before any byte lands",
    },
    FailpointInfo {
        name: "io::cache_short_write",
        stage: Stage::Sweep,
        description: "variant-cache write fails after half the entry",
    },
    FailpointInfo {
        name: "fault::test",
        stage: Stage::Mine,
        description: "apex-fault's own macro self-test site",
    },
];

/// Looks up a [`FAILPOINT_CATALOG`] entry by site name.
pub fn failpoint_info(name: &str) -> Option<&'static FailpointInfo> {
    FAILPOINT_CATALOG.iter().find(|f| f.name == name)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a sequence of byte strings (each terminated with a
/// separator byte so `["ab","c"]` and `["a","bc"]` hash differently).
pub fn fnv1a(parts: &[&str]) -> u64 {
    let mut h = FNV_OFFSET;
    for part in parts {
        for b in part.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h ^= 0x1F; // unit separator
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Parses "12345", "512k", "64m", "2g" (case-insensitive, 1024-based)
/// into bytes; `None` on anything else, overflow included.
pub fn parse_byte_size(s: &str) -> Option<u64> {
    let s = s.trim().to_ascii_lowercase();
    let (digits, mult) = match s.strip_suffix(['k', 'm', 'g']) {
        Some(d) => {
            let mult = match s.as_bytes().last() {
                Some(b'k') => 1u64 << 10,
                Some(b'm') => 1 << 20,
                _ => 1 << 30,
            };
            (d, mult)
        }
        None => (s.as_str(), 1),
    };
    let n: u64 = digits.trim().parse().ok()?;
    n.checked_mul(mult)
}

/// Injected-I/O-fault adapter for durability-critical writes.
///
/// The journal and the variant cache route their writes through these
/// helpers so chaos campaigns can simulate ENOSPC (nothing lands), short
/// writes (a prefix lands, then the error), and fsync failure (data
/// landed, durability didn't). Without the `fault-injection` feature every
/// helper is a plain passthrough.
pub mod iofault {
    use std::io;

    /// The injected error for a firing site, `None` when the site is
    /// disarmed (or the feature is off).
    pub fn injected(site: &str) -> Option<io::Error> {
        #[cfg(feature = "fault-injection")]
        {
            if crate::failpoints::should_fire(site) {
                return Some(io::Error::new(
                    io::ErrorKind::Other,
                    format!("injected I/O fault at {site}"),
                ));
            }
        }
        let _ = site;
        None
    }

    /// Writes `bytes` to `w`, honoring two injection sites: `enospc_site`
    /// fails before any byte lands; `short_site` writes roughly half the
    /// bytes and then fails — the torn-write simulation durability code
    /// must recover from.
    pub fn write_all(
        w: &mut impl io::Write,
        bytes: &[u8],
        enospc_site: &str,
        short_site: &str,
    ) -> io::Result<()> {
        if let Some(e) = injected(enospc_site) {
            return Err(e);
        }
        match injected(short_site) {
            Some(e) => {
                w.write_all(&bytes[..bytes.len() / 2])?;
                w.flush()?;
                Err(e)
            }
            None => w.write_all(bytes),
        }
    }

    /// Syncs `f` to stable storage, failing at `site` *after* the data was
    /// written (the write succeeded; its durability didn't).
    pub fn sync_data(f: &std::fs::File, site: &str) -> io::Result<()> {
        f.sync_data()?;
        if let Some(e) = injected(site) {
            return Err(e);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_chain_renders_stage_and_causes() {
        let inner = std::io::Error::new(std::io::ErrorKind::Other, "disk on fire");
        let e = ApexError::with_source(Stage::Route, inner);
        assert_eq!(e.stage(), Stage::Route);
        assert!(e.to_string().starts_with("route: "));
        assert!(e.render_chain().starts_with("error: route: "));
    }

    #[test]
    fn zero_deadline_times_out() {
        let mut m = Budget::unlimited()
            .with_deadline(Duration::from_millis(0))
            .start();
        // the clock is only consulted every 256 ticks
        let mut n = 0u64;
        while m.tick() {
            n += 1;
            assert!(n <= 256, "deadline never observed");
        }
        assert_eq!(m.provenance(), Provenance::TimedOut);
    }

    #[test]
    fn remaining_counts_down_to_zero() {
        assert_eq!(Budget::unlimited().start().remaining(), None);
        let hour = Duration::from_secs(3600);
        let left = Budget::unlimited().with_deadline(hour).start().remaining();
        assert!(left.is_some_and(|t| t > Duration::ZERO && t <= hour));
        let expired = Budget::unlimited().with_deadline(Duration::ZERO).start();
        assert_eq!(expired.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn cancellation_observed_on_next_tick_not_at_clock_boundary() {
        // regression: the cancel flag used to share the 256-tick clock
        // mask, so a cancel raised at tick 1 was not seen until tick 256 —
        // arbitrarily late when steps are slow. It must now trip on the
        // very next tick.
        let flag = Arc::new(AtomicBool::new(false));
        let mut m = Budget::unlimited()
            .with_cancel(Arc::clone(&flag))
            .start();
        for _ in 0..3 {
            assert!(m.tick());
        }
        flag.store(true, Ordering::Relaxed);
        assert!(!m.tick(), "cancel not observed within one tick");
        assert_eq!(m.steps(), 4);
        assert_eq!(m.provenance(), Provenance::Cancelled);
    }

    #[test]
    fn stage_names_round_trip() {
        // the journal serializes these names; drift is data corruption
        const ALL: [Stage; 12] = [
            Stage::Parse,
            Stage::Mine,
            Stage::Merge,
            Stage::Rewrite,
            Stage::Map,
            Stage::Pipeline,
            Stage::Place,
            Stage::Route,
            Stage::Verify,
            Stage::Report,
            Stage::Sweep,
            Stage::Cli,
        ];
        for s in ALL {
            assert_eq!(Stage::from_name(s.name()), Some(s), "{s:?}");
        }
        assert_eq!(Stage::from_name("no-such-stage"), None);
        assert_eq!(Stage::from_name(""), None);
    }

    #[test]
    fn degradation_kind_names_round_trip() {
        const ALL: [DegradationKind; 5] = [
            DegradationKind::Truncated,
            DegradationKind::TimedOut,
            DegradationKind::Fallback,
            DegradationKind::Retried,
            DegradationKind::Skipped,
        ];
        for k in ALL {
            assert_eq!(DegradationKind::from_name(k.name()), Some(k), "{k:?}");
        }
        assert_eq!(DegradationKind::from_name("no-such-kind"), None);
    }

    #[test]
    fn provenance_markers_round_trip() {
        const ALL: [Provenance; 5] = [
            Provenance::Completed,
            Provenance::TruncatedByBudget,
            Provenance::TimedOut,
            Provenance::Cancelled,
            Provenance::Partial,
        ];
        for p in ALL {
            assert_eq!(Provenance::from_marker(p.marker()), Some(p), "{p:?}");
        }
        assert_eq!(Provenance::from_marker("no-such-marker"), None);
    }

    #[test]
    fn partial_is_worse_than_timeout_but_not_cancel() {
        use Provenance::*;
        assert_eq!(Partial.worst(TimedOut), Partial);
        assert_eq!(Partial.worst(Cancelled), Cancelled);
        assert_eq!(Completed.worst(Partial), Partial);
        assert!(Partial.is_partial());
    }

    #[test]
    fn cancellation_flag_stops_search() {
        let flag = Arc::new(AtomicBool::new(false));
        let mut m = Budget::unlimited()
            .with_cancel(Arc::clone(&flag))
            .start();
        assert!(m.check_slow());
        flag.store(true, Ordering::Relaxed);
        assert!(!m.check_slow());
        assert_eq!(m.provenance(), Provenance::Cancelled);
    }

    #[test]
    fn provenance_worst_ordering() {
        use Provenance::*;
        assert_eq!(Completed.worst(TruncatedByBudget), TruncatedByBudget);
        assert_eq!(TimedOut.worst(TruncatedByBudget), TimedOut);
        assert_eq!(Cancelled.worst(TimedOut), Cancelled);
        assert_eq!(Completed.worst(Completed), Completed);
    }

    #[test]
    fn outcome_summary_formats() {
        let clean: DseOutcome<u32> = DseOutcome::clean(7);
        assert!(!clean.is_degraded());
        assert_eq!(clean.degradation_summary(), "-");
        let d = DseOutcome::degraded(
            7,
            vec![
                Degradation::new(Stage::Merge, DegradationKind::TimedOut, "greedy"),
                Degradation::new(Stage::Place, DegradationKind::Retried, "seed 2"),
            ],
        );
        assert_eq!(d.degradation_summary(), "merge:timed-out,place:retried");
    }

    #[test]
    fn catalog_names_are_unique_and_resolvable() {
        for (i, info) in FAILPOINT_CATALOG.iter().enumerate() {
            assert_eq!(failpoint_info(info.name), Some(info), "{}", info.name);
            assert!(
                !FAILPOINT_CATALOG[..i].iter().any(|f| f.name == info.name),
                "duplicate catalog entry: {}",
                info.name
            );
            assert!(!info.description.is_empty(), "{}", info.name);
        }
        assert_eq!(failpoint_info("no::such::site"), None);
    }

    #[test]
    fn byte_size_parses_suffixes() {
        assert_eq!(parse_byte_size("12345"), Some(12345));
        assert_eq!(parse_byte_size("1024"), Some(1024));
        assert_eq!(parse_byte_size("4k"), Some(4 << 10));
        assert_eq!(parse_byte_size("512k"), Some(512 << 10));
        assert_eq!(parse_byte_size("16M"), Some(16 << 20));
        assert_eq!(parse_byte_size("64M"), Some(64 << 20));
        assert_eq!(parse_byte_size("2g"), Some(2 << 30));
        assert_eq!(parse_byte_size(" 8k "), Some(8 << 10));
        assert_eq!(parse_byte_size(" 8 m "), Some(8 << 20));
        assert_eq!(parse_byte_size(""), None);
        assert_eq!(parse_byte_size("lots"), None);
        assert_eq!(parse_byte_size("-3"), None);
        assert_eq!(parse_byte_size("-3k"), None);
        // 2^34 GiB is 2^64 bytes: overflow is malformed, not a zero cap
        assert_eq!(parse_byte_size("17179869184g"), None);
    }

    /// One step of a [`meter_contract`] script.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// `n` ticks, each expected to return the given value.
        Ticks(u64, bool),
        /// One charge and its expected verdict.
        Charge(u64, bool),
        Release(u64),
        /// Raises the case's cancellation flag.
        Cancel,
        /// Expected `(steps, used)` at this point.
        Counts(u64, u64),
        /// Expected provenance at this point.
        Is(Provenance),
    }

    #[test]
    fn meter_contract() {
        use Op::*;
        use Provenance::*;
        type MakeBudget = fn(Arc<AtomicBool>) -> Budget;
        let cases: &[(&str, MakeBudget, &[Op])] = &[
            (
                "step budget truncates and latches",
                |_| Budget::unlimited().with_max_steps(10),
                &[Ticks(10, true), Ticks(1, false), Is(TruncatedByBudget), Ticks(1, false)],
            ),
            (
                "unlimited never stops",
                |_| Budget::unlimited(),
                &[
                    Ticks(100_000, true),
                    Charge(u64::MAX, true),
                    Charge(u64::MAX, true),
                    Is(Completed),
                ],
            ),
            (
                "charges account, a rejection accounts nothing and latches",
                |_| Budget::unlimited().with_max_bytes(100),
                &[
                    Charge(60, true),
                    Charge(40, true),
                    Counts(0, 100),
                    Is(Completed),
                    Charge(1, false),
                    Counts(0, 100),
                    Is(TruncatedByBudget),
                    Release(50),
                    Charge(30, true),
                    Counts(0, 80),
                    Is(TruncatedByBudget),
                ],
            ),
            (
                "a rejected charge does not stop ticks; a smaller one still fits",
                |_| Budget::unlimited().with_max_bytes(100),
                &[
                    Charge(101, false),
                    Ticks(1_000, true),
                    Charge(100, true),
                    Counts(1_000, 100),
                    Is(TruncatedByBudget),
                ],
            ),
            (
                "cancel is seen on the very next tick",
                |flag| Budget::unlimited().with_cancel(flag),
                &[Ticks(3, true), Cancel, Ticks(1, false), Counts(4, 0), Is(Cancelled)],
            ),
            (
                "the clock is read every 256 ticks",
                |_| Budget::unlimited().with_deadline(Duration::ZERO),
                &[Ticks(255, true), Ticks(1, false), Counts(256, 0), Is(TimedOut)],
            ),
            (
                "a timeout outranks the byte stop",
                |_| Budget::unlimited().with_deadline(Duration::ZERO).with_max_bytes(0),
                &[Charge(1, false), Is(TruncatedByBudget), Ticks(255, true), Ticks(1, false), Is(TimedOut)],
            ),
            (
                "a cancel outranks the byte stop",
                |flag| Budget::unlimited().with_cancel(flag).with_max_bytes(0),
                &[Charge(1, false), Cancel, Ticks(1, false), Is(Cancelled)],
            ),
            (
                "a step stop and a byte stop read as one truncation",
                |_| Budget::unlimited().with_max_steps(0).with_max_bytes(0),
                &[Ticks(1, false), Charge(1, false), Is(TruncatedByBudget)],
            ),
        ];
        for (name, make, ops) in cases {
            let flag = Arc::new(AtomicBool::new(false));
            let mut m = make(Arc::clone(&flag)).start();
            for (i, op) in ops.iter().enumerate() {
                let at = format!("{name}: op {i} {op:?}");
                match *op {
                    Ticks(n, want) => {
                        for _ in 0..n {
                            assert_eq!(m.tick(), want, "{at}");
                        }
                    }
                    Charge(bytes, want) => assert_eq!(m.charge(bytes), want, "{at}"),
                    Release(bytes) => m.release(bytes),
                    Cancel => flag.store(true, Ordering::Relaxed),
                    Counts(steps, used) => assert_eq!((m.steps(), m.used()), (steps, used), "{at}"),
                    Is(p) => assert_eq!(m.provenance(), p, "{at}"),
                }
            }
        }
    }

    #[test]
    fn iofault_is_a_passthrough_when_disarmed() {
        let mut out = Vec::new();
        iofault::write_all(&mut out, b"hello", "io::journal_enospc", "io::journal_short_write")
            .expect("disarmed write");
        assert_eq!(out, b"hello");
        assert!(iofault::injected("io::journal_fsync").is_none());
    }

    /// The registry is process-global; tests that arm sites must not
    /// interleave.
    #[cfg(feature = "fault-injection")]
    fn registry_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
        LOCK.get_or_init(|| std::sync::Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn nth_hit_arming_counts_hits() {
        let _guard = registry_lock();
        failpoints::disarm_all();
        failpoints::arm_after("fault::test", 3);
        assert!(failpoints::is_armed("fault::test"));
        assert!(!failpoints::should_fire("fault::test"), "hit 1 must not fire");
        assert!(!failpoints::should_fire("fault::test"), "hit 2 must not fire");
        assert!(failpoints::should_fire("fault::test"), "hit 3 fires");
        assert!(failpoints::should_fire("fault::test"), "and stays firing");
        assert_eq!(failpoints::hits("fault::test"), 4);
        failpoints::disarm_all();
        assert!(!failpoints::should_fire("fault::test"));
        assert_eq!(failpoints::hits("fault::test"), 0);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn injected_short_write_lands_a_prefix() {
        let _guard = registry_lock();
        failpoints::disarm_all();
        failpoints::arm("io::cache_short_write");
        let mut out = Vec::new();
        let err = iofault::write_all(&mut out, b"abcdefgh", "io::cache_enospc", "io::cache_short_write")
            .expect_err("armed short write fails");
        assert!(err.to_string().contains("io::cache_short_write"));
        assert_eq!(out, b"abcd", "exactly half the bytes land");
        failpoints::arm("io::cache_enospc");
        let mut out2 = Vec::new();
        let err = iofault::write_all(&mut out2, b"abcdefgh", "io::cache_enospc", "io::cache_short_write")
            .expect_err("armed enospc fails");
        assert!(err.to_string().contains("io::cache_enospc"));
        assert!(out2.is_empty(), "ENOSPC lands nothing");
        failpoints::disarm_all();
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn fail_points_arm_and_disarm() {
        fn guarded() -> Result<u32, ApexError> {
            fail_point!(
                "fault::test",
                ApexError::new(Stage::Mine, "injected fault")
            );
            Ok(1)
        }
        let _guard = registry_lock();
        failpoints::disarm_all();
        assert_eq!(guarded().unwrap(), 1);
        failpoints::arm("fault::test");
        assert!(guarded().is_err());
        failpoints::disarm("fault::test");
        assert_eq!(guarded().unwrap(), 1);
    }
}
