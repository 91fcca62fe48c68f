//! # apex-serve — hardened multi-tenant DSE daemon
//!
//! `apex serve` turns the batch APEX pipeline into a long-running
//! service: clients submit DFG-text sweep jobs over a newline-JSON TCP
//! protocol, the daemon runs them under their own budgets on the
//! [`apex_par::WorkerPool`], and clients poll status and fetch results.
//! Everything is `std`-only, matching the workspace's offline
//! constraint.
//!
//! The point of the crate is the **robustness envelope**, not the
//! transport:
//!
//! * **admission control + backpressure** — a bounded queue; past the
//!   limit submissions are shed with a structured `overloaded` response
//!   carrying a `retry_after_ms` hint (never unbounded queueing);
//! * **per-request deadlines** — plumbed into the existing
//!   [`apex_fault::Budget`] cooperative cancellation;
//! * **multi-tenant caching** — each tenant's variant builds are cached
//!   in a private namespace of the content-addressed store
//!   ([`apex_core::VariantCache::namespaced`]), with a shared LRU byte
//!   cap;
//! * **slow-client defense** — idle/read/write timeouts and a bounded
//!   line length on every connection; socket I/O runs on connection
//!   threads, never pool workers, so a trickling client cannot wedge a
//!   job;
//! * **crash safety** — admissions are write-ahead journaled (the PR 4
//!   sweep journal); a killed daemon restarted with `--resume` re-runs
//!   exactly the unfinished jobs and serves concluded ones from the
//!   journal, byte-identically;
//! * **graceful drain** — SIGINT/SIGTERM (via `apex_fault::interrupt`)
//!   or the `drain` op stops admissions, finishes or checkpoints
//!   running jobs, flushes, and reports unfinished work for exit code 3;
//! * **testable failure paths** — `serve::accept_error`,
//!   `serve::slow_client`, `serve::mid_job_kill` and
//!   `serve::cache_evict_race` failpoints under `APEX_FAILPOINTS`.
//!
//! Wire protocol: see `DESIGN.md` §7 and [`proto`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod runner;
pub mod server;
pub mod state;

pub use runner::{dse_payload, parse_application, DseRunner, JobRunner, JobSpec};
pub use server::{default_journal, RunSummary, ServeConfig, Server};
pub use state::{job_key, Admission, JobState, JobTable, PendingJob};
