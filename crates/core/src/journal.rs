//! Write-ahead checkpoint journal for crash-safe sweeps.
//!
//! A sweep (`apex report`, `apex dse`) is a sequence of expensive jobs
//! whose results are pure functions of the configuration. This module
//! journals every *completed* job to an append-only JSONL file under
//! `target/apex-journal/<sweep-key>.jsonl` so that a crash, `kill -9`, or
//! Ctrl-C loses at most the jobs still in flight:
//!
//! * **sweep key** — derived from the same content hash the variant cache
//!   uses ([`apex_fault::fnv1a`] over the sweep's configuration), so a
//!   config change yields a different journal file and a clean start;
//! * **record** — one line per completed job carrying the job's own
//!   content-addressed key, the rendered result payload, its digest, the
//!   [`Provenance`]/degradation summary, and a whole-record checksum;
//! * **append-then-fsync** — each record is appended and `sync_data`ed
//!   before the job is considered checkpointed (write-ahead discipline);
//! * **replay** — [`SweepJournal::replay`] accepts the valid prefix,
//!   drops a torn final record (a crash mid-append), and skips corrupt
//!   mid-file records with a count, never trusting or panicking on bad
//!   bytes.
//!
//! [`run_checkpointed`] is the sweep driver: it serves journaled jobs
//! back in input order (so a resumed sweep is byte-identical to an
//! uninterrupted one), runs only the remainder, and stops dispatching as
//! soon as the interrupt flag rises.

use crate::cache::workspace_target_subdir;
use apex_fault::{fail_point, fnv1a, record, ApexError, Provenance, Stage};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[cfg(feature = "fault-injection")]
use apex_fault::failpoints;

/// Journal format version, embedded in every record and covered by every
/// record checksum; bump on any codec change so old journals replay empty
/// (clean start) instead of being misread.
pub const JOURNAL_FORMAT: &str = "apex-journal v2";

// ---------------------------------------------------------------------------
// records
// ---------------------------------------------------------------------------

/// One completed sweep job, as journaled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Content-addressed key of the job (same hash family as the variant
    /// cache).
    pub job_key: u64,
    /// Human-readable job label (experiment id, app name) for log lines.
    pub label: String,
    /// How the job's search concluded.
    pub provenance: Provenance,
    /// Compact degradation summary (`-` when clean).
    pub degradations: String,
    /// The rendered result payload, fed back verbatim on resume.
    pub payload: String,
}

impl JournalRecord {
    /// Digest of the payload (stored in the record so replay can verify
    /// the payload survived intact independently of the line checksum).
    pub fn digest(&self) -> u64 {
        fnv1a(&[&self.payload])
    }

    /// Encodes the record as one sealed JSONL line (no trailing newline):
    /// the fields `v job label prov deg digest payload` in sorted key
    /// order plus a `sum` over all of them, so a torn or bit-flipped
    /// line can never check out.
    pub fn seal(&self) -> String {
        record::seal(record::fields(&[
            ("v", JOURNAL_FORMAT),
            ("job", &format!("{:016x}", self.job_key)),
            ("label", &self.label),
            ("prov", self.provenance.marker()),
            ("deg", &self.degradations),
            ("digest", &format!("{:016x}", self.digest())),
            ("payload", &self.payload),
        ]))
    }

    /// Decodes one journal line; `None` on any malformation, unknown
    /// format version or field, checksum mismatch, or payload-digest
    /// mismatch.
    pub fn open(line: &str) -> Option<JournalRecord> {
        let mut fields = record::open(line)?;
        let mut take = |key: &str| fields.remove(key);
        if take("v")? != JOURNAL_FORMAT {
            return None;
        }
        let record = JournalRecord {
            job_key: u64::from_str_radix(&take("job")?, 16).ok()?,
            label: take("label")?,
            provenance: Provenance::from_marker(&take("prov")?)?,
            degradations: take("deg")?,
            payload: take("payload")?,
        };
        let digest = take("digest")?;
        (fields.is_empty() && digest == format!("{:016x}", record.digest())).then_some(record)
    }
}

// ---------------------------------------------------------------------------
// the journal file
// ---------------------------------------------------------------------------

/// Append-only journal for one sweep, addressed by sweep key.
#[derive(Debug)]
pub struct SweepJournal {
    path: Option<PathBuf>,
    /// Latched when a failed append could not be rolled back: a partial
    /// record may sit mid-file, and appending after it would turn a torn
    /// *tail* (recoverable) into a torn *middle* (silent data loss under
    /// prefix replay). Poisoned journals refuse further appends.
    poisoned: AtomicBool,
}

/// What a journal replay recovered.
#[derive(Debug, Default)]
pub struct JournalReplay {
    /// Valid records in file order (duplicates possible; last wins).
    pub records: Vec<JournalRecord>,
    /// A torn final record was detected and dropped (crash mid-append).
    pub dropped_torn: usize,
    /// Complete lines that failed decoding or their checksum.
    pub dropped_corrupt: usize,
    /// Byte length of the replayed prefix: where the next append must
    /// start when anything was dropped (see [`SweepJournal::repair`]).
    pub valid_len: u64,
}

impl JournalReplay {
    /// The completed jobs, keyed by job key; later records win so a job
    /// re-run after a partial resume supersedes its older entry.
    pub fn completed(&self) -> BTreeMap<u64, &JournalRecord> {
        let mut map = BTreeMap::new();
        for rec in &self.records {
            map.insert(rec.job_key, rec);
        }
        map
    }
}

impl SweepJournal {
    /// The journal for `sweep_key`, configured from the environment:
    /// `APEX_JOURNAL=off|0|no` disables journaling, `APEX_JOURNAL_DIR`
    /// overrides the directory, default is `target/apex-journal` under
    /// the enclosing cargo workspace.
    pub fn for_sweep(sweep_key: u64) -> Self {
        if let Ok(v) = std::env::var("APEX_JOURNAL") {
            let v = v.trim().to_ascii_lowercase();
            if v == "off" || v == "0" || v == "no" || v == "false" {
                return SweepJournal::disabled();
            }
        }
        let dir = match std::env::var("APEX_JOURNAL_DIR") {
            Ok(d) if !d.trim().is_empty() => PathBuf::from(d),
            _ => workspace_target_subdir("apex-journal"),
        };
        SweepJournal {
            path: Some(dir.join(format!("{sweep_key:016x}.jsonl"))),
            poisoned: AtomicBool::new(false),
        }
    }

    /// A journal at an explicit file path (tests).
    pub fn at(path: impl Into<PathBuf>) -> Self {
        SweepJournal {
            path: Some(path.into()),
            poisoned: AtomicBool::new(false),
        }
    }

    /// A disabled journal: appends are dropped, replay is empty.
    pub fn disabled() -> Self {
        SweepJournal {
            path: None,
            poisoned: AtomicBool::new(false),
        }
    }

    /// Whether records are actually persisted.
    pub fn is_enabled(&self) -> bool {
        self.path.is_some()
    }

    /// The journal file location, if enabled.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Appends one record and fsyncs (write-ahead: the job only counts as
    /// checkpointed once this returns `Ok`). Best-effort like the cache —
    /// an unwritable journal degrades the sweep to non-resumable rather
    /// than failing it — but I/O errors are reported so the driver can
    /// log them.
    ///
    /// # Errors
    /// Returns the underlying I/O failure (or the `sweep::journal_write`
    /// injected fault).
    pub fn append(&self, record: &JournalRecord) -> Result<(), ApexError> {
        fail_point!(
            "sweep::journal_write",
            ApexError::new(Stage::Sweep, "injected journal write failure")
        );
        let Some(path) = &self.path else {
            return Ok(());
        };
        if self.poisoned.load(Ordering::SeqCst) {
            return Err(ApexError::new(
                Stage::Sweep,
                "journal poisoned by an earlier unrecoverable append failure; \
                 refusing to write after a potentially torn record",
            ));
        }
        let io = |e: std::io::Error| ApexError::with_source(Stage::Sweep, e);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(io)?;
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(io)?;
        let before = file.metadata().map_err(io)?.len();
        let mut line = record.seal();
        line.push('\n');
        let written = apex_fault::iofault::write_all(
            &mut file,
            line.as_bytes(),
            "io::journal_enospc",
            "io::journal_short_write",
        )
        .and_then(|()| apex_fault::iofault::sync_data(&file, "io::journal_fsync"));
        if let Err(e) = written {
            // roll the file back to its pre-append length so the failed
            // (possibly partial) record never becomes a non-tail torn
            // line; if even that fails, latch the poison so no later
            // append can bury the torn record mid-file
            if file.set_len(before).is_err() {
                self.poisoned.store(true, Ordering::SeqCst);
            }
            return Err(io(e));
        }
        Ok(())
    }

    /// Replays the journal, keeping exactly the longest valid prefix:
    /// records are accepted in order up to the first undecodable line and
    /// everything from that line on is dropped (an undecodable *final*
    /// line without a trailing newline counts as a torn append, anything
    /// else as corruption). Never errors and never panics — an unreadable
    /// or absent file is simply an empty replay (clean start).
    ///
    /// Stopping at the first bad line — instead of skipping it and
    /// trusting later records — matters because the write-ahead contract
    /// is prefix-shaped: a record proves its job completed *and* that
    /// every earlier record was durably appended first. Bytes after a
    /// corrupt region carry no such guarantee.
    pub fn replay(&self) -> JournalReplay {
        let mut out = JournalReplay::default();
        #[cfg(feature = "fault-injection")]
        if failpoints::should_fire("sweep::journal_replay") {
            // injected replay fault: the journal reads as unusable, which
            // must degrade to a clean start, not an abort
            return out;
        }
        let Some(path) = &self.path else {
            return out;
        };
        let Ok(bytes) = std::fs::read(path) else {
            return out;
        };
        // a valid line is valid UTF-8: the prefix's text and byte lengths agree
        let text = String::from_utf8_lossy(&bytes);
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        for (i, raw) in lines.iter().enumerate() {
            let line = raw.strip_suffix('\n').unwrap_or(raw);
            if !line.is_empty() {
                match JournalRecord::open(line) {
                    Some(rec) => out.records.push(rec),
                    None if !raw.ends_with('\n') => {
                        out.dropped_torn += 1;
                        break;
                    }
                    None => {
                        out.dropped_corrupt += lines[i..].iter().filter(|&&l| l != "\n").count();
                        break;
                    }
                }
            }
            out.valid_len += raw.len() as u64;
        }
        out
    }

    /// Cuts the file back to `replay`'s valid prefix if it dropped a torn
    /// or corrupt tail, before a resumed run's first append (which would
    /// otherwise be glued onto the partial line). Best-effort.
    pub fn repair(&self, replay: &JournalReplay) {
        if replay.dropped_torn + replay.dropped_corrupt == 0 {
            return;
        }
        if let Some(path) = &self.path {
            if let Ok(file) = std::fs::OpenOptions::new().write(true).open(path) {
                let _ = file
                    .set_len(replay.valid_len)
                    .and_then(|()| file.sync_data());
            }
        }
    }

    /// Removes the journal file (start of a non-resume run, so stale
    /// records can never leak into a fresh sweep's bookkeeping).
    pub fn clear(&self) {
        if let Some(path) = &self.path {
            let _ = std::fs::remove_file(path);
        }
    }
}

// ---------------------------------------------------------------------------
// the checkpointed sweep driver
// ---------------------------------------------------------------------------

/// One unit of a checkpointed sweep.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// Content-addressed job key (stable across runs of the same config).
    pub key: u64,
    /// Label for journal records and log lines.
    pub label: String,
}

/// What one executed (or replayed) job produced.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Rendered result payload (what the CLI prints).
    pub payload: String,
    /// How the job concluded.
    pub provenance: Provenance,
    /// Compact degradation summary (`-` when clean).
    pub degradations: String,
}

/// Per-job outcome of [`run_checkpointed`], in input order.
#[derive(Debug, Clone)]
pub enum SweepJobResult {
    /// The job's report, either freshly executed or replayed.
    Done {
        /// The payload and provenance.
        report: JobReport,
        /// `true` when served from the journal instead of executed.
        resumed: bool,
    },
    /// The sweep was interrupted before this job was dispatched.
    NotRun,
}

/// Summary of one checkpointed sweep run.
#[derive(Debug)]
pub struct SweepRun {
    /// One entry per input job, in input order.
    pub results: Vec<SweepJobResult>,
    /// Jobs served from the journal.
    pub replayed: usize,
    /// Jobs executed this run.
    pub executed: usize,
    /// Whether the sweep stopped early on an interrupt.
    pub interrupted: bool,
    /// Torn journal records dropped during replay.
    pub dropped_torn: usize,
    /// Corrupt journal records skipped during replay.
    pub dropped_corrupt: usize,
}

impl SweepRun {
    /// Jobs with a report (replayed + executed).
    pub fn done(&self) -> usize {
        self.replayed + self.executed
    }
}

/// Deterministic interrupt hook for tests and CI: `APEX_INTERRUPT_AFTER=n`
/// simulates the first Ctrl-C after `n` jobs have *executed* (replayed
/// jobs don't count — a resumed run must make fresh progress).
fn interrupt_after_env() -> Option<usize> {
    std::env::var("APEX_INTERRUPT_AFTER")
        .ok()
        .and_then(|v| v.trim().parse().ok())
}

/// Runs `jobs` in order with write-ahead checkpointing.
///
/// With `resume`, the journal is replayed first and completed jobs are
/// served from it verbatim, in input order — a resumed sweep's output is
/// byte-identical to an uninterrupted one. Without `resume`, the journal
/// is cleared and every job runs. Before dispatching each job the
/// `interrupt` flag is consulted; once it reads `true`, remaining jobs
/// are marked [`SweepJobResult::NotRun`] and the run returns with
/// `interrupted` set (the journal already holds everything completed, so
/// `--resume` picks up exactly there).
///
/// A journal append failure is logged and degrades the run to
/// non-resumable; it never aborts the sweep.
///
/// # Errors
/// Propagates the first `run_job` error (job failures that should degrade
/// instead must be rendered into the [`JobReport`] by the caller).
pub fn run_checkpointed(
    journal: &SweepJournal,
    jobs: &[SweepJob],
    resume: bool,
    interrupt: Option<&Arc<AtomicBool>>,
    mut run_job: impl FnMut(usize) -> Result<JobReport, ApexError>,
) -> Result<SweepRun, ApexError> {
    let mut run = SweepRun {
        results: Vec::with_capacity(jobs.len()),
        replayed: 0,
        executed: 0,
        interrupted: false,
        dropped_torn: 0,
        dropped_corrupt: 0,
    };
    let mut completed: BTreeMap<u64, JournalRecord> = BTreeMap::new();
    if resume {
        let replay = journal.replay();
        journal.repair(&replay);
        run.dropped_torn = replay.dropped_torn;
        run.dropped_corrupt = replay.dropped_corrupt;
        if run.dropped_torn + run.dropped_corrupt > 0 {
            eprintln!(
                "resume: dropped {} torn and {} corrupt journal record(s)",
                run.dropped_torn, run.dropped_corrupt
            );
        }
        for (key, rec) in replay.completed() {
            completed.insert(key, rec.clone());
        }
        let known = jobs.iter().filter(|j| completed.contains_key(&j.key)).count();
        if let Some(path) = journal.path() {
            if known == 0 {
                eprintln!(
                    "resume: no completed jobs for this sweep in {} (first run or config changed); starting clean",
                    path.display()
                );
            } else {
                eprintln!(
                    "resume: replaying {known}/{} completed job(s) from {}",
                    jobs.len(),
                    path.display()
                );
            }
        }
    } else {
        journal.clear();
    }

    let interrupt_after = interrupt_after_env();
    let mut journal_degraded = false;
    let mut simulated = false;
    for (i, job) in jobs.iter().enumerate() {
        if simulated || interrupt.is_some_and(|flag| flag.load(Ordering::SeqCst)) {
            run.interrupted = true;
            run.results
                .extend((i..jobs.len()).map(|_| SweepJobResult::NotRun));
            break;
        }
        if let Some(rec) = completed.get(&job.key) {
            run.replayed += 1;
            run.results.push(SweepJobResult::Done {
                report: JobReport {
                    payload: rec.payload.clone(),
                    provenance: rec.provenance,
                    degradations: rec.degradations.clone(),
                },
                resumed: true,
            });
            continue;
        }
        let report = run_job(i)?;
        let record = JournalRecord {
            job_key: job.key,
            label: job.label.clone(),
            provenance: report.provenance,
            degradations: report.degradations.clone(),
            payload: report.payload.clone(),
        };
        if let Err(e) = journal.append(&record) {
            if !journal_degraded {
                journal_degraded = true;
                eprintln!(
                    "warning: journal write failed ({e}); sweep continues but is not resumable"
                );
            }
        }
        run.executed += 1;
        run.results.push(SweepJobResult::Done {
            report,
            resumed: false,
        });

        // deterministic interrupt hooks, checked after a completed job so
        // the journal provably holds it before the "signal" lands
        #[cfg(not(feature = "fault-injection"))]
        let simulate = interrupt_after == Some(run.executed);
        #[cfg(feature = "fault-injection")]
        let simulate = interrupt_after == Some(run.executed)
            || (run.executed == 1 && failpoints::should_fire("sweep::interrupt_midsweep"));
        if simulate {
            simulated = true;
            if let Some(flag) = interrupt {
                flag.store(true, Ordering::SeqCst);
            }
        }
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("apex-journal-{tag}-{}.jsonl", std::process::id()))
    }

    fn clean_report(payload: String) -> Result<JobReport, ApexError> {
        Ok(JobReport {
            payload,
            provenance: Provenance::Completed,
            degradations: "-".to_owned(),
        })
    }

    fn rec(key: u64, payload: &str) -> JournalRecord {
        JournalRecord {
            job_key: key,
            label: format!("job{key}"),
            provenance: Provenance::Completed,
            degradations: "-".to_owned(),
            payload: payload.to_owned(),
        }
    }

    #[test]
    fn record_codec_round_trips() {
        let tricky = rec(42, "line1\nline2\t\"quoted\" back\\slash\r");
        let decoded = JournalRecord::open(&tricky.seal()).expect("decodes");
        assert_eq!(decoded, tricky);
        let degraded = JournalRecord {
            provenance: Provenance::TimedOut,
            degradations: "sweep:timed-out".to_owned(),
            ..rec(7, "partial result")
        };
        assert_eq!(
            JournalRecord::open(&degraded.seal()).expect("decodes"),
            degraded
        );
    }

    /// A record written by the `apex-journal v1` encoder (fixed field
    /// order, hand-built checksum) for job 9.
    const V1_LINE: &str = "{\"v\":\"apex-journal v1\",\"job\":\"0000000000000009\",\
        \"label\":\"job9\",\"prov\":\"ok\",\"deg\":\"-\",\"digest\":\"3450ba45d848808c\",\
        \"payload\":\"old result\",\"sum\":\"0dcadae66cccc914\"}";

    #[test]
    fn v1_journal_replays_empty_and_the_job_reruns() {
        let path = tmp_path("v1");
        std::fs::write(&path, format!("{V1_LINE}\n")).unwrap();
        let journal = SweepJournal::at(&path);
        let replay = journal.replay();
        assert_eq!((replay.records.len(), replay.dropped_corrupt), (0, 1));
        let jobs = [SweepJob {
            key: 9,
            label: "job9".to_owned(),
        }];
        let run = run_checkpointed(&journal, &jobs, true, None, |_| {
            clean_report("new result".to_owned())
        })
        .unwrap();
        assert_eq!((run.replayed, run.executed), (0, 1), "the v1 job re-runs");
        assert!(!journal.poisoned.load(Ordering::SeqCst));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_alone_is_dropped_keeping_all_complete_records() {
        let path = tmp_path("torn");
        let _ = std::fs::remove_file(&path);
        let journal = SweepJournal::at(&path);
        journal.append(&rec(1, "one")).unwrap();
        journal.append(&rec(2, "two")).unwrap();
        // simulate a crash mid-append: a partial record, no newline
        let mut tail = rec(3, "three").seal();
        tail.truncate(tail.len() / 2);
        std::fs::write(&path, std::fs::read_to_string(&path).unwrap() + &tail).unwrap();

        let replay = journal.replay();
        assert_eq!(replay.dropped_torn, 1, "torn tail must be dropped");
        assert_eq!(replay.dropped_corrupt, 0);
        let completed = replay.completed();
        assert_eq!(completed.len(), 2);
        assert_eq!(completed[&1].payload, "one");
        assert_eq!(completed[&2].payload, "two");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resumed_run_repairs_a_torn_tail_before_appending() {
        let path = tmp_path("repair");
        let _ = std::fs::remove_file(&path);
        let journal = SweepJournal::at(&path);
        journal.append(&rec(1, "one")).unwrap();
        let mut tail = rec(2, "two").seal();
        tail.truncate(tail.len() / 2);
        std::fs::write(&path, std::fs::read_to_string(&path).unwrap() + &tail).unwrap();

        let jobs: Vec<SweepJob> = (1..4)
            .map(|key| SweepJob {
                key,
                label: format!("job{key}"),
            })
            .collect();
        let run = run_checkpointed(&journal, &jobs, true, None, |i| {
            clean_report(format!("fresh {i}"))
        })
        .unwrap();
        assert_eq!((run.replayed, run.executed, run.dropped_torn), (1, 2, 1));
        let replay = journal.replay();
        assert_eq!((replay.dropped_torn, replay.dropped_corrupt), (0, 0));
        let payloads: Vec<&str> = replay.records.iter().map(|r| r.payload.as_str()).collect();
        assert_eq!(
            payloads,
            ["one", "fresh 1", "fresh 2"],
            "both appends survive"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corruption_cuts_replay_to_the_longest_valid_prefix() {
        // a corrupt middle record invalidates everything after it: the
        // write-ahead guarantee is prefix-shaped, so record 3 (valid in
        // isolation) must NOT be trusted past the corruption
        let path = tmp_path("prefix");
        let _ = std::fs::remove_file(&path);
        let journal = SweepJournal::at(&path);
        journal.append(&rec(1, "one")).unwrap();
        journal.append(&rec(2, "two")).unwrap();
        journal.append(&rec(3, "three")).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replacen("two", "twX", 1)).unwrap();
        let mut tail = rec(4, "four").seal();
        tail.truncate(tail.len() / 2);
        std::fs::write(&path, std::fs::read_to_string(&path).unwrap() + &tail).unwrap();

        let replay = journal.replay();
        assert_eq!(replay.dropped_torn, 0, "prefix cut subsumes the tail");
        assert_eq!(
            replay.dropped_corrupt, 3,
            "corrupt line plus everything after it is dropped"
        );
        let completed = replay.completed();
        assert_eq!(completed.len(), 1);
        assert_eq!(completed[&1].payload, "one");
        let _ = std::fs::remove_file(&path);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(250))]

        // flip or truncate bytes at arbitrary offsets — replay must never
        // panic and must return exactly a prefix of the original record
        // sequence (never a subsequence that skips damage)
        #[test]
        fn replayed_records_are_always_a_prefix_under_arbitrary_damage(
            offset in 0usize..4096,
            flip in 1u8..=255,
            truncate: bool,
        ) {
            let path = tmp_path("fuzz");
            let journal = SweepJournal::at(&path);
            let originals: Vec<JournalRecord> = (0..6)
                .map(|i| rec(i, &format!("payload {i}\twith\n\"tricky\" bytes\\")))
                .collect();
            let mut pristine = String::new();
            for r in &originals {
                pristine.push_str(&r.seal());
                pristine.push('\n');
            }
            let mut bytes = pristine.into_bytes();
            let off = offset % bytes.len();
            if truncate {
                bytes.truncate(off);
            } else {
                bytes[off] ^= flip;
            }
            std::fs::write(&path, &bytes).unwrap();
            let replay = journal.replay();
            let _ = std::fs::remove_file(&path);
            prop_assert!(replay.records.len() <= originals.len());
            for (got, want) in replay.records.iter().zip(&originals) {
                prop_assert_eq!(got, want, "replay must be an exact prefix");
            }
        }
    }

    #[test]
    fn duplicate_keys_last_record_wins() {
        let path = tmp_path("dup");
        let _ = std::fs::remove_file(&path);
        let journal = SweepJournal::at(&path);
        journal.append(&rec(5, "old")).unwrap();
        journal.append(&rec(5, "new")).unwrap();
        let replay = journal.replay();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.completed()[&5].payload, "new");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn disabled_journal_is_pass_through() {
        let journal = SweepJournal::disabled();
        assert!(!journal.is_enabled());
        journal.append(&rec(1, "x")).unwrap();
        assert!(journal.replay().records.is_empty());
    }

    #[test]
    fn checkpointed_run_resumes_byte_identically() {
        let path = tmp_path("ckpt");
        let _ = std::fs::remove_file(&path);
        let journal = SweepJournal::at(&path);
        let jobs: Vec<SweepJob> = (0..4)
            .map(|i| SweepJob {
                key: fnv1a(&["ckpt-test", &i.to_string()]),
                label: format!("job{i}"),
            })
            .collect();
        let make = |i: usize| clean_report(format!("result {i}\n"));
        let collect = |run: &SweepRun| -> String {
            run.results
                .iter()
                .filter_map(|r| match r {
                    SweepJobResult::Done { report, .. } => Some(report.payload.clone()),
                    SweepJobResult::NotRun => None,
                })
                .collect()
        };

        // reference: uninterrupted
        let full = run_checkpointed(&journal, &jobs, false, None, make).unwrap();
        assert_eq!(full.executed, 4);
        let reference = collect(&full);

        // interrupted after 2 executed jobs: flag raised inside run_job
        let flag = Arc::new(AtomicBool::new(false));
        let flag2 = Arc::clone(&flag);
        let partial = run_checkpointed(&journal, &jobs, false, Some(&flag), |i| {
            if i == 1 {
                flag2.store(true, Ordering::SeqCst);
            }
            make(i)
        })
        .unwrap();
        assert!(partial.interrupted);
        assert_eq!(partial.executed, 2);
        assert!(matches!(partial.results[2], SweepJobResult::NotRun));

        // resume: only the remainder executes, output is byte-identical
        let fresh = Arc::new(AtomicBool::new(false));
        let resumed = run_checkpointed(&journal, &jobs, true, Some(&fresh), make).unwrap();
        assert!(!resumed.interrupted);
        assert_eq!(resumed.replayed, 2);
        assert_eq!(resumed.executed, 2);
        assert_eq!(collect(&resumed), reference);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_resume_run_clears_stale_journal() {
        let path = tmp_path("stale");
        let _ = std::fs::remove_file(&path);
        let journal = SweepJournal::at(&path);
        journal.append(&rec(9, "stale")).unwrap();
        let jobs = [SweepJob {
            key: 9,
            label: "job9".to_owned(),
        }];
        let run = run_checkpointed(&journal, &jobs, false, None, |_| {
            clean_report("fresh".to_owned())
        })
        .unwrap();
        assert_eq!(run.executed, 1, "stale record must not satisfy a fresh run");
        let _ = std::fs::remove_file(&path);
    }
}
