//! Job table + crash-safe job state for the daemon.
//!
//! Every job is **content-addressed**: its key is a hash of the tenant,
//! the DFG text, and the deadline, the same discipline as the variant
//! cache. Submitting the same work twice yields the same key (and the
//! second submit is a cheap idempotent hit), and the key doubles as the
//! job id clients poll.
//!
//! Durability reuses the PR 4 sweep journal verbatim: an admission is
//! journaled *before* it is acknowledged (`S` record), a conclusion
//! (`D`/`E` record) supersedes it under the journal's last-record-wins
//! replay. A job cancelled by drain is deliberately **not** journaled —
//! its latest record stays the admission, so `--resume` re-runs it and
//! the restarted daemon converges to byte-identical results.

use crate::proto;
use apex_core::{fnv1a, JobReport, JournalRecord, SweepJournal};
use apex_fault::{ApexError, Provenance};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Journal payload prefix for an admitted-but-unfinished job.
const REC_SUBMIT: &str = "S ";
/// Journal payload prefix for a finished job's report payload.
const REC_DONE: &str = "D ";
/// Journal payload prefix for a job that concluded in an error.
const REC_ERROR: &str = "E ";

/// Content-addressed job key: same inputs, same key, across restarts.
pub fn job_key(tenant: &str, graph: &str, deadline_ms: Option<u64>) -> u64 {
    let deadline = deadline_ms.map(|m| m.to_string()).unwrap_or_default();
    fnv1a(&["apex-serve job v1", tenant, graph, &deadline])
}

/// What a job is doing right now.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Admitted and journaled, waiting for a pool worker.
    Queued,
    /// On a pool worker.
    Running,
    /// Concluded with a report (journaled).
    Done {
        /// The rendered report payload.
        payload: String,
        /// How the job's search concluded.
        provenance: Provenance,
        /// Compact degradation summary (`-` when clean).
        degradations: String,
    },
    /// Concluded with a pipeline error (journaled).
    Failed {
        /// The rendered error chain.
        error: String,
    },
    /// Interrupted by drain; still pending from the journal's point of
    /// view, so a `--resume` restart re-runs it.
    Cancelled,
}

impl JobState {
    /// Stable wire name for the state (`status` responses).
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done { .. } => "done",
            JobState::Failed { .. } => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    fn is_unfinished(&self) -> bool {
        matches!(
            self,
            JobState::Queued | JobState::Running | JobState::Cancelled
        )
    }
}

/// One admitted job. The DFG text is not kept: it rides on the
/// [`PendingJob`] to the worker and is dropped with it.
#[derive(Debug, Clone)]
struct JobEntry {
    tenant: String,
    state: JobState,
}

/// A job the table wants (re-)enqueued on the pool.
#[derive(Debug, Clone)]
pub struct PendingJob {
    /// Content-addressed job key.
    pub key: u64,
    /// Cache namespace the job runs under.
    pub tenant: String,
    /// DFG text.
    pub graph: String,
    /// Requested per-job deadline, if any.
    pub deadline_ms: Option<u64>,
}

/// How an admission concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// A new job was journaled and must be enqueued.
    New,
    /// The key is already in flight; nothing to enqueue.
    InFlight,
    /// The key already concluded; the client can fetch the result now.
    Concluded,
}

/// Thread-safe job table shared by connection threads and pool workers.
#[derive(Debug)]
pub struct JobTable {
    jobs: Mutex<BTreeMap<u64, JobEntry>>,
    journal: SweepJournal,
}

/// Recovers a poisoned table lock: every mutation below leaves the map
/// consistent at each assignment, so the data is safe to keep using.
fn lock<'a>(
    m: &'a Mutex<BTreeMap<u64, JobEntry>>,
) -> std::sync::MutexGuard<'a, BTreeMap<u64, JobEntry>> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl JobTable {
    /// A table journaling to `journal`. With `resume`, replays it first:
    /// concluded jobs come back `Done`/`Failed`, admitted-but-unfinished
    /// jobs are returned as [`PendingJob`]s for the caller to enqueue.
    /// Without `resume` the journal is cleared (fresh daemon identity).
    pub fn new(journal: SweepJournal, resume: bool) -> (JobTable, Vec<PendingJob>) {
        let mut pending = Vec::new();
        let mut jobs = BTreeMap::new();
        if resume {
            let replay = journal.replay();
            journal.repair(&replay);
            for (key, rec) in replay.completed() {
                if let Some(body) = rec.payload.strip_prefix(REC_SUBMIT) {
                    if let Ok(proto::Request::Submit {
                        tenant,
                        graph,
                        deadline_ms,
                    }) = proto::parse_request(body)
                    {
                        let entry = JobEntry {
                            tenant: tenant.clone(),
                            state: JobState::Queued,
                        };
                        jobs.insert(key, entry);
                        pending.push(PendingJob {
                            key,
                            tenant,
                            graph,
                            deadline_ms,
                        });
                    }
                } else if let Some(state) = concluded_state(rec) {
                    let tenant = String::new();
                    jobs.insert(key, JobEntry { tenant, state });
                }
            }
        } else {
            journal.clear();
        }
        (
            JobTable {
                jobs: Mutex::new(jobs),
                journal,
            },
            pending,
        )
    }

    /// Admits one submission. New work is journaled **before** this
    /// returns (write-ahead: an acknowledged job survives a crash).
    ///
    /// # Errors
    /// The journal append failure, if any; the job is not admitted.
    pub fn admit(
        &self,
        tenant: &str,
        graph: &str,
        deadline_ms: Option<u64>,
    ) -> Result<(u64, Admission), ApexError> {
        let key = job_key(tenant, graph, deadline_ms);
        {
            let jobs = lock(&self.jobs);
            if let Some(entry) = jobs.get(&key) {
                return Ok(match entry.state {
                    JobState::Done { .. } | JobState::Failed { .. } => (key, Admission::Concluded),
                    _ => (key, Admission::InFlight),
                });
            }
        }
        self.journal.append(&JournalRecord {
            job_key: key,
            label: format!("submit {}", if tenant.is_empty() { "-" } else { tenant }),
            provenance: Provenance::Partial,
            degradations: "-".to_owned(),
            payload: format!("{REC_SUBMIT}{}", proto::submit_request(tenant, graph, deadline_ms)),
        })?;
        lock(&self.jobs).insert(
            key,
            JobEntry {
                tenant: tenant.to_owned(),
                state: JobState::Queued,
            },
        );
        Ok((key, Admission::New))
    }

    /// Marks a queued job as on-worker. A cancelled re-queued job (drain
    /// raced the pool) transitions the same way.
    pub fn mark_running(&self, key: u64) {
        if let Some(entry) = lock(&self.jobs).get_mut(&key) {
            if entry.state.is_unfinished() {
                entry.state = JobState::Running;
            }
        }
    }

    /// Concludes a job with its report and journals the conclusion.
    pub fn complete(&self, key: u64, report: &JobReport) {
        let label = self.label_of(key, "done");
        // journal first: an acknowledged conclusion must survive a crash
        let _ = self.journal.append(&JournalRecord {
            job_key: key,
            label,
            provenance: report.provenance,
            degradations: report.degradations.clone(),
            payload: format!("{REC_DONE}{}", report.payload),
        });
        if let Some(entry) = lock(&self.jobs).get_mut(&key) {
            entry.state = JobState::Done {
                payload: report.payload.clone(),
                provenance: report.provenance,
                degradations: report.degradations.clone(),
            };
        }
    }

    /// Concludes a job with a pipeline error and journals the conclusion
    /// (errors are deterministic here — the same graph fails the same
    /// way — so replaying them as concluded is correct and avoids a
    /// crash-loop re-running poison jobs forever).
    pub fn fail(&self, key: u64, error: &ApexError) {
        let rendered = error.render_chain();
        let label = self.label_of(key, "failed");
        let _ = self.journal.append(&JournalRecord {
            job_key: key,
            label,
            provenance: Provenance::Completed,
            degradations: "-".to_owned(),
            payload: format!("{REC_ERROR}{rendered}"),
        });
        if let Some(entry) = lock(&self.jobs).get_mut(&key) {
            entry.state = JobState::Failed { error: rendered };
        }
    }

    /// Marks an interrupted job. Deliberately **not** journaled: the
    /// admission record stays the job's latest, so resume re-runs it.
    pub fn cancel(&self, key: u64) {
        if let Some(entry) = lock(&self.jobs).get_mut(&key) {
            if entry.state.is_unfinished() {
                entry.state = JobState::Cancelled;
            }
        }
    }

    /// Snapshot of one job's state.
    pub fn state(&self, key: u64) -> Option<JobState> {
        lock(&self.jobs).get(&key).map(|e| e.state.clone())
    }

    /// Jobs admitted but not yet picked up by a worker (the backpressure
    /// signal admission control sheds on).
    pub fn queued(&self) -> usize {
        lock(&self.jobs)
            .values()
            .filter(|e| e.state == JobState::Queued)
            .count()
    }

    /// Jobs currently on a pool worker.
    pub fn running(&self) -> usize {
        lock(&self.jobs)
            .values()
            .filter(|e| e.state == JobState::Running)
            .count()
    }

    /// `(queued, running, done, failed, cancelled)` counts for `stats`.
    pub fn counts(&self) -> (usize, usize, usize, usize, usize) {
        let jobs = lock(&self.jobs);
        let mut c = (0, 0, 0, 0, 0);
        for e in jobs.values() {
            match e.state {
                JobState::Queued => c.0 += 1,
                JobState::Running => c.1 += 1,
                JobState::Done { .. } => c.2 += 1,
                JobState::Failed { .. } => c.3 += 1,
                JobState::Cancelled => c.4 += 1,
            }
        }
        c
    }

    /// Jobs that have not concluded (what exit code 3 reports at drain).
    pub fn unfinished(&self) -> usize {
        lock(&self.jobs)
            .values()
            .filter(|e| e.state.is_unfinished())
            .count()
    }

    fn label_of(&self, key: u64, verb: &str) -> String {
        let jobs = lock(&self.jobs);
        let tenant = jobs
            .get(&key)
            .map(|e| e.tenant.as_str())
            .filter(|t| !t.is_empty())
            .unwrap_or("-");
        format!("{verb} {tenant}")
    }
}

/// The state a conclusion record (`D`/`E`) replays to; `None` drops
/// records this version cannot interpret (forward compatibility: an
/// unknown prefix must not wedge the restart).
fn concluded_state(rec: &JournalRecord) -> Option<JobState> {
    Some(match rec.payload.strip_prefix(REC_DONE) {
        Some(body) => JobState::Done {
            payload: body.to_owned(),
            provenance: rec.provenance,
            degradations: rec.degradations.clone(),
        },
        None => JobState::Failed {
            error: rec.payload.strip_prefix(REC_ERROR)?.to_owned(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_core::JobReport;

    fn scratch_journal(tag: &str) -> SweepJournal {
        let p = std::env::temp_dir().join(format!(
            "apex-serve-state-{tag}-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        SweepJournal::at(p)
    }

    #[test]
    fn admission_is_content_addressed_and_idempotent() {
        let (table, pending) = JobTable::new(scratch_journal("admit"), false);
        assert!(pending.is_empty());
        let (k1, a1) = table.admit("t", "g graph\n", None).expect("admit");
        let (k2, a2) = table.admit("t", "g graph\n", None).expect("re-admit");
        assert_eq!(k1, k2);
        assert_eq!(a1, Admission::New);
        assert_eq!(a2, Admission::InFlight);
        // a different tenant or deadline is different work
        let (k3, _) = table.admit("u", "g graph\n", None).expect("other tenant");
        let (k4, _) = table.admit("t", "g graph\n", Some(5)).expect("deadline");
        assert_ne!(k1, k3);
        assert_ne!(k1, k4);
        assert_eq!(table.queued(), 3);
    }

    #[test]
    fn resume_recovers_unfinished_jobs_and_concluded_results() {
        let journal = scratch_journal("resume");
        let path = journal.path().map(std::path::Path::to_path_buf);
        let (table, _) = JobTable::new(journal, false);
        let (done_key, _) = table.admit("t", "g done\n", None).expect("admit");
        let (pending_key, _) = table.admit("t", "g pending\n", Some(1000)).expect("admit");
        let (cancelled_key, _) = table.admit("t", "g cancelled\n", None).expect("admit");
        table.complete(
            done_key,
            &JobReport {
                payload: "the result".to_owned(),
                provenance: Provenance::Completed,
                degradations: "-".to_owned(),
            },
        );
        table.mark_running(cancelled_key);
        table.cancel(cancelled_key); // drain hit it mid-flight: not journaled
        assert_eq!(table.unfinished(), 2);

        // "restart": replay the same journal file
        let journal2 = SweepJournal::at(path.expect("journal path"));
        let (table2, pending) = JobTable::new(journal2, true);
        assert_eq!(
            table2.state(done_key),
            Some(JobState::Done {
                payload: "the result".to_owned(),
                provenance: Provenance::Completed,
                degradations: "-".to_owned(),
            })
        );
        let mut keys: Vec<u64> = pending.iter().map(|p| p.key).collect();
        keys.sort_unstable();
        let mut want = vec![pending_key, cancelled_key];
        want.sort_unstable();
        assert_eq!(keys, want, "unfinished jobs come back as pending");
        let restored = pending
            .iter()
            .find(|p| p.key == pending_key)
            .expect("pending job restored");
        assert_eq!(restored.graph, "g pending\n");
        assert_eq!(restored.deadline_ms, Some(1000));
    }

    #[test]
    fn resume_repairs_a_torn_tail_before_the_next_admission() {
        let journal = scratch_journal("repair");
        let path = journal
            .path()
            .map(std::path::Path::to_path_buf)
            .expect("path");
        let (table, _) = JobTable::new(journal, false);
        let (first, _) = table.admit("t", "g first\n", None).expect("admit");
        let mut torn = std::fs::read_to_string(&path).expect("journal");
        torn.push_str("{\"v\":\"apex-journal v2\",\"job\":\"00");
        std::fs::write(&path, torn).expect("tear the tail");

        let (table2, pending) = JobTable::new(SweepJournal::at(&path), true);
        assert_eq!(pending.len(), 1);
        let (second, _) = table2.admit("t", "g second\n", None).expect("admit");
        let (third, _) = table2.admit("t", "g third\n", None).expect("admit");
        let replay = SweepJournal::at(&path).replay();
        assert_eq!((replay.dropped_torn, replay.dropped_corrupt), (0, 0));
        let keys: Vec<u64> = replay.records.iter().map(|r| r.job_key).collect();
        assert_eq!(keys, [first, second, third]);
    }

    #[test]
    fn failures_are_journaled_as_concluded() {
        let journal = scratch_journal("fail");
        let path = journal.path().map(std::path::Path::to_path_buf);
        let (table, _) = JobTable::new(journal, false);
        let (key, _) = table.admit("t", "g bad\n", None).expect("admit");
        table.fail(key, &ApexError::new(apex_fault::Stage::Parse, "no such graph"));
        let (table2, pending) =
            JobTable::new(SweepJournal::at(path.expect("journal path")), true);
        assert!(pending.is_empty(), "a failed job must not re-run forever");
        match table2.state(key) {
            Some(JobState::Failed { error }) => assert!(error.contains("no such graph")),
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn fresh_start_clears_the_journal() {
        let journal = scratch_journal("fresh");
        let path = journal.path().map(std::path::Path::to_path_buf).expect("path");
        let (table, _) = JobTable::new(journal, false);
        let (_key, _) = table.admit("t", "g x\n", None).expect("admit");
        assert!(path.exists());
        let (_table2, pending) = JobTable::new(SweepJournal::at(&path), false);
        assert!(pending.is_empty());
        assert!(!path.exists(), "non-resume start wipes stale state");
    }
}
