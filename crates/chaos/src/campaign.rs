//! Campaign execution: run every schedule, assert the invariant
//! battery, collect a JSONL report.
//!
//! # The invariant battery
//!
//! After every schedule (reference run → faulted run → two disarmed
//! `--resume` runs) the campaign requires:
//!
//! 1. **No escaped panic.** The faulted run executes under
//!    `catch_unwind`; a panic that the pipeline's own degradation
//!    machinery did not absorb is a violation (injected *internal*
//!    panics — `rewrite::synth_panic`, `core::mine_panic` — are caught
//!    by the pipeline and must surface as degradations, not unwinds).
//! 2. **Only documented divergence.** Every job outcome either matches
//!    the reference run byte-for-byte or is *flagged* — its report
//!    carries a non-`Completed` provenance or a non-empty degradation
//!    summary. Silent wrong answers are the one unforgivable outcome.
//! 3. **Resume determinism.** With faults disarmed, two consecutive
//!    `--resume` runs over the faulted journal are byte-identical, and
//!    resumed jobs that never concluded under fault match the
//!    uninterrupted reference.
//! 4. **Torn-free journal.** Replaying the faulted journal must drop
//!    zero torn and zero corrupt records: our own writer rolls back
//!    failed appends, so anything torn is a rollback bug.
//! 5. **Corruption-free cache.** Every `.var` entry in the schedule's
//!    variant cache decodes; corrupt entries may exist only in
//!    quarantine (`.corrupt`), and no tmp residue survives.
//! 6. **Verified survivors.** The variant that survives the faulted run
//!    passes the `apex-verify` datapath and ruleset checkers.
//!
//! Campaigns are process-global (the fail-point registry and the
//! interrupt flag are singletons), so schedules run strictly one at a
//! time; the runner disarms everything and resets the interrupt flag
//! between schedules.

use crate::Schedule;
use apex_fault::record;
use apex_fault::ApexError;
use std::path::PathBuf;

/// Campaign parameters (the `apex chaos` flags).
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// How many schedules to enumerate and run.
    pub schedules: usize,
    /// Seed for the schedule enumerator.
    pub seed: u64,
    /// Scratch root for per-schedule journals and caches; defaults to a
    /// per-process directory under the system temp dir. Evidence for
    /// violated schedules is kept; clean schedules are removed.
    pub scratch: Option<PathBuf>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            schedules: 24,
            seed: 7,
            scratch: None,
        }
    }
}

/// One schedule's verdict.
#[derive(Debug)]
pub struct ScheduleReport {
    /// The schedule that ran.
    pub schedule: Schedule,
    /// Invariant violations found (empty = the schedule passed).
    pub violations: Vec<String>,
}

/// The whole campaign's outcome.
#[derive(Debug)]
pub struct CampaignReport {
    /// The seed the schedules were enumerated from.
    pub seed: u64,
    /// Per-schedule verdicts, in schedule order.
    pub runs: Vec<ScheduleReport>,
}

impl CampaignReport {
    /// Total invariant violations across all schedules.
    pub fn total_violations(&self) -> usize {
        self.runs.iter().map(|r| r.violations.len()).sum()
    }

    /// Schedules with at least one violation.
    pub fn violated_schedules(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| !r.violations.is_empty())
            .count()
    }

    /// The report as JSONL: a campaign header line, then one line per
    /// schedule — its [`Schedule::fields`] plus `status` and the
    /// `violations` joined by newlines.
    pub fn to_jsonl(&self) -> String {
        let mut out = record::encode(&record::fields(&[
            ("campaign", "apex-chaos"),
            ("seed", &self.seed.to_string()),
            ("schedules", &self.runs.len().to_string()),
            ("violations", &self.total_violations().to_string()),
        ]));
        out.push('\n');
        for run in &self.runs {
            let status = if run.violations.is_empty() {
                "ok"
            } else {
                "violation"
            };
            let mut f = run.schedule.fields();
            f.extend(record::fields(&[
                ("status", status),
                ("violations", &run.violations.join("\n")),
            ]));
            out.push_str(&record::encode(&f));
            out.push('\n');
        }
        out
    }
}

/// Runs the campaign described by `config`.
///
/// # Errors
/// Scratch-directory I/O failures, or — in builds without the
/// `fault-injection` feature — an error directing the caller to
/// rebuild, since no fail-point site can fire in such a build and every
/// schedule would pass vacuously.
#[cfg(not(feature = "fault-injection"))]
pub fn run_campaign(_config: &ChaosConfig) -> Result<CampaignReport, ApexError> {
    Err(ApexError::new(
        apex_fault::Stage::Cli,
        "chaos campaigns need injectable faults; rebuild with \
         `--features fault-injection` (the sites are compiled out of \
         this binary, so every schedule would pass without testing \
         anything)",
    ))
}

/// Runs the campaign described by `config`.
///
/// # Errors
/// Scratch-directory I/O failures.
#[cfg(feature = "fault-injection")]
pub fn run_campaign(config: &ChaosConfig) -> Result<CampaignReport, ApexError> {
    inject::run(config)
}

#[cfg(feature = "fault-injection")]
mod inject {
    use super::{CampaignReport, ChaosConfig, ScheduleReport};
    use crate::{enumerate_schedules, Mode, Schedule};
    use apex_apps::{gaussian, harris, unsharp, Application};
    use apex_core::{
        dse_evaluate_suite, run_checkpointed, specialized_variant, DseOptions, JobReport,
        PeVariant, SubgraphSelection, SweepJob, SweepJobResult, SweepJournal, VariantCache,
    };
    use apex_fault::{failpoints, interrupt, ApexError, Budget, Provenance, Stage};
    use apex_merge::MergeOptions;
    use apex_mining::MinerConfig;
    use apex_serve::{client, proto, DseRunner, RunSummary, ServeConfig, Server};
    use apex_tech::TechModel;
    use std::collections::BTreeSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::path::Path;
    use std::time::Duration;

    pub(super) fn run(config: &ChaosConfig) -> Result<CampaignReport, ApexError> {
        let scratch = config.scratch.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!("apex-chaos-{}", std::process::id()))
        });
        let schedules = enumerate_schedules(config.schedules, config.seed);
        let mut runs = Vec::with_capacity(schedules.len());
        for schedule in schedules {
            let dir = scratch.join(format!("s{:03}", schedule.id));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).map_err(|e| {
                ApexError::new(
                    Stage::Sweep,
                    format!("chaos scratch {}: {e}", dir.display()),
                )
            })?;
            failpoints::disarm_all();
            interrupt::reset();
            let violations = match schedule.mode {
                Mode::InProcess => run_in_process(&schedule, &dir),
                Mode::Daemon => run_daemon(&schedule, &dir),
            };
            failpoints::disarm_all();
            interrupt::reset();
            if violations.is_empty() {
                let _ = std::fs::remove_dir_all(&dir);
            }
            runs.push(ScheduleReport {
                schedule,
                violations,
            });
        }
        // keep the root only if some schedule left evidence behind
        let _ = std::fs::remove_dir(&scratch);
        Ok(CampaignReport {
            seed: config.seed,
            runs,
        })
    }

    fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
        if let Some(s) = p.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = p.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_owned()
        }
    }

    fn arm(schedule: &Schedule) {
        for f in &schedule.faults {
            failpoints::arm_after(&f.site, f.nth);
        }
    }

    // -----------------------------------------------------------------
    // in-process mode
    // -----------------------------------------------------------------

    /// One job's observable conclusion.
    struct JobOutcome {
        payload: String,
        /// Whether the report documents a concession (degradation
        /// summary or a non-`Completed` provenance) — flagged outcomes
        /// are allowed to diverge from the reference.
        flagged: bool,
    }

    struct RunOutput {
        jobs: Vec<JobOutcome>,
        variant: Option<PeVariant>,
        interrupted: bool,
    }

    fn miner_config(budget: Option<u64>) -> MinerConfig {
        MinerConfig {
            budget: Budget {
                max_bytes: budget,
                ..Budget::unlimited()
            },
            ..MinerConfig::default()
        }
    }

    fn merge_options(budget: Option<u64>) -> MergeOptions {
        MergeOptions {
            budget: Budget {
                max_bytes: budget,
                ..MergeOptions::default().budget
            },
        }
    }

    /// The in-process workload: specialize a PE for the benchmark trio,
    /// optionally exercise the variant cache (store + evict under the
    /// armed faults), then evaluate each application as one job of a
    /// checkpointed sweep.
    fn run_workload(
        journal: &SweepJournal,
        resume: bool,
        budget: Option<u64>,
        cache: Option<&VariantCache>,
        cache_key: u64,
    ) -> Result<RunOutput, ApexError> {
        let apps = [gaussian(), harris(), unsharp()];
        let refs: Vec<&Application> = apps.iter().collect();
        let tech = TechModel::default();
        let variant = specialized_variant(
            "pe_chaos",
            &refs,
            &refs,
            &miner_config(budget),
            &SubgraphSelection::default(),
            &merge_options(budget),
            &tech,
            &BTreeSet::new(),
        );
        if let (Some(cache), Ok(v)) = (cache, &variant) {
            cache.store(cache_key, v);
            cache.store(cache_key.wrapping_add(1), v);
            let total = cache.total_bytes();
            if total > 0 {
                cache.evict_to_cap(total / 2);
            }
        }
        // a job deadline so the injected hang (`sweep::job_timeout`)
        // is cancelled instead of wedging the campaign
        let opts = DseOptions {
            jobs: 2,
            job_deadline: Some(Duration::from_secs(5)),
            ..DseOptions::default()
        };
        let jobs: Vec<SweepJob> = apps
            .iter()
            .enumerate()
            .map(|(i, a)| SweepJob {
                key: 0xC4A0_5000 + i as u64,
                label: a.info.name.clone(),
            })
            .collect();
        let run = run_checkpointed(journal, &jobs, resume, None, |i| {
            let outcome = dse_evaluate_suite(&variant, &[&apps[i]], &tech, &opts)
                .pop()
                .ok_or_else(|| ApexError::new(Stage::Sweep, "suite returned no outcome"))?;
            let summary = outcome.degradation_summary();
            let payload = match &outcome.result {
                Ok(e) => format!(
                    "{} area={:.3} energy={:.4} cycles={} deg={}",
                    apps[i].info.name,
                    e.area.total(),
                    e.energy_per_cycle.total(),
                    e.runtime_cycles,
                    summary
                ),
                Err(e) => format!("{} failed: {e} deg={}", apps[i].info.name, summary),
            };
            Ok(JobReport {
                payload,
                provenance: Provenance::Completed,
                degradations: summary,
            })
        })?;
        let outcomes = run
            .results
            .into_iter()
            .map(|r| match r {
                SweepJobResult::Done { report, .. } => JobOutcome {
                    flagged: report.degradations != "-"
                        || report.provenance != Provenance::Completed,
                    payload: report.payload,
                },
                SweepJobResult::NotRun => JobOutcome {
                    payload: "<not-run>".to_owned(),
                    flagged: true,
                },
            })
            .collect();
        Ok(RunOutput {
            jobs: outcomes,
            variant: variant.ok(),
            interrupted: run.interrupted,
        })
    }

    fn run_in_process(schedule: &Schedule, dir: &Path) -> Vec<String> {
        let mut violations = Vec::new();
        let ref_path = dir.join("ref.jsonl");
        let reference = match run_workload(
            &SweepJournal::at(&ref_path),
            false,
            schedule.mem_budget,
            None,
            0,
        ) {
            Ok(r) => r,
            Err(e) => {
                violations.push(format!("reference run failed: {e}"));
                return violations;
            }
        };

        // pre-seed the fault journal with the first reference record and
        // run the faulted pass through the resume path, so the replay
        // sites (`sweep::journal_replay`) are reachable under fault
        let fault_path = dir.join("fault.jsonl");
        if let Ok(text) = std::fs::read_to_string(&ref_path) {
            if let Some(first) = text.lines().next() {
                let _ = std::fs::write(&fault_path, format!("{first}\n"));
            }
        }
        let cache = VariantCache::at(dir.join("cache"));
        arm(schedule);
        let faulted = catch_unwind(AssertUnwindSafe(|| {
            run_workload(
                &SweepJournal::at(&fault_path),
                true,
                schedule.mem_budget,
                Some(&cache),
                0x10 + schedule.id as u64,
            )
        }));
        failpoints::disarm_all();
        interrupt::reset();
        let faulted = match faulted {
            Ok(Ok(r)) => Some(r),
            Ok(Err(e)) => {
                violations.push(format!(
                    "faulted run returned a hard error instead of a reported outcome: {e}"
                ));
                None
            }
            Err(p) => {
                violations.push(format!(
                    "panic escaped the faulted run: {}",
                    panic_text(p.as_ref())
                ));
                None
            }
        };

        // invariant 2: only documented divergence in the faulted run
        if let Some(f) = &faulted {
            for (i, job) in f.jobs.iter().enumerate() {
                let reference_payload = reference.jobs.get(i).map(|j| j.payload.as_str());
                if !job.flagged && Some(job.payload.as_str()) != reference_payload {
                    violations.push(format!(
                        "job {i} diverged from the reference without a documented \
                         degradation: {:?}",
                        job.payload
                    ));
                }
            }
        }

        // invariant 3: disarmed resume runs are byte-identical, complete,
        // and match the reference wherever the fault left no conclusion
        let resume1 = run_workload(
            &SweepJournal::at(&fault_path),
            true,
            schedule.mem_budget,
            None,
            0,
        );
        let resume2 = run_workload(
            &SweepJournal::at(&fault_path),
            true,
            schedule.mem_budget,
            None,
            0,
        );
        match (resume1, resume2) {
            (Ok(r1), Ok(r2)) => {
                let p1: Vec<&String> = r1.jobs.iter().map(|j| &j.payload).collect();
                let p2: Vec<&String> = r2.jobs.iter().map(|j| &j.payload).collect();
                if p1 != p2 {
                    violations.push("two disarmed --resume runs differ (resume is not byte-deterministic)".to_owned());
                }
                if r1.interrupted {
                    violations
                        .push("disarmed --resume run still reports an interrupt".to_owned());
                }
                for (i, job) in r1.jobs.iter().enumerate() {
                    let reference_payload = reference.jobs.get(i).map(|j| j.payload.as_str());
                    if !job.flagged && Some(job.payload.as_str()) != reference_payload {
                        violations.push(format!(
                            "resumed job {i} diverged from the uninterrupted reference \
                             without a documented degradation: {:?}",
                            job.payload
                        ));
                    }
                }
            }
            (Err(e), _) | (_, Err(e)) => {
                violations.push(format!("disarmed --resume run failed: {e}"));
            }
        }

        // invariant 4: the faulted journal replays torn- and corrupt-free
        let replay = SweepJournal::at(&fault_path).replay();
        if replay.dropped_torn + replay.dropped_corrupt > 0 {
            violations.push(format!(
                "faulted journal replay dropped {} torn / {} corrupt record(s) \
                 (the writer must roll back failed appends)",
                replay.dropped_torn, replay.dropped_corrupt
            ));
        }

        // invariant 5: the variant cache holds no non-quarantined
        // corruption and no tmp residue
        check_cache(dir, &mut violations);

        // invariant 6: the surviving variant passes the static verifier
        if let Some(v) = faulted.as_ref().and_then(|f| f.variant.as_ref()) {
            let mut found = apex_verify::verify_datapath(&v.spec.datapath, &v.sources);
            found.extend(apex_verify::verify_ruleset(&v.spec.datapath, &v.rules.rules));
            for x in found {
                violations.push(format!("verify on the surviving variant: {x}"));
            }
        }
        violations
    }

    fn check_cache(dir: &Path, violations: &mut Vec<String>) {
        let cache_dir = dir.join("cache");
        let Ok(read) = std::fs::read_dir(&cache_dir) else {
            return; // cache never materialized: nothing to corrupt
        };
        let cache = VariantCache::at(&cache_dir);
        for entry in read.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".corrupt") {
                continue; // quarantine is the documented shape for damage
            }
            let key = name
                .strip_suffix(".var")
                .and_then(|hex| u64::from_str_radix(hex, 16).ok());
            match key {
                Some(key) if cache.load(key).is_some() => {}
                Some(_) => violations.push(format!(
                    "variant cache serves a non-quarantined corrupt entry: {name}"
                )),
                None => violations.push(format!(
                    "variant cache holds unexpected residue: {name}"
                )),
            }
        }
    }

    // -----------------------------------------------------------------
    // daemon mode
    // -----------------------------------------------------------------

    /// One submission's observable conclusion over the wire.
    struct WireOutcome {
        payload: String,
        flagged: bool,
        concluded: bool,
    }

    fn wire_outcome(result: Result<proto::Fields, ApexError>) -> WireOutcome {
        match result {
            Ok(fields) => {
                let kind = fields
                    .get("ok")
                    .or_else(|| fields.get("err"))
                    .map(String::as_str)
                    .unwrap_or("")
                    .to_owned();
                let payload = fields.get("payload").cloned().unwrap_or_default();
                let provenance = fields
                    .get("provenance")
                    .map(String::as_str)
                    .unwrap_or("ok")
                    .to_owned();
                let degradations = fields
                    .get("degradations")
                    .map(String::as_str)
                    .unwrap_or("-")
                    .to_owned();
                WireOutcome {
                    flagged: kind != "result" || provenance != "ok" || degradations != "-",
                    payload,
                    concluded: true,
                }
            }
            Err(e) => WireOutcome {
                payload: format!("<error: {e}>"),
                flagged: true,
                concluded: false,
            },
        }
    }

    fn daemon_config() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_limit: 8,
            idle_timeout: Duration::from_millis(750),
            retry_after: Duration::from_millis(50),
            default_deadline: Duration::from_secs(60),
            resume: false,
            ..ServeConfig::default()
        }
    }

    /// Stops a daemon: polite drain first, then the interrupt flag (a
    /// schedule arming `serve::accept_error` may be refusing every
    /// connection, drain op included), then join.
    fn stop_server(
        addr: &str,
        handle: std::thread::JoinHandle<RunSummary>,
    ) -> Result<RunSummary, String> {
        let drain = proto::encode(&proto::fields(&[("op", "drain")]));
        let _ = client::request(addr, &drain, Duration::from_secs(2));
        interrupt::trigger();
        let joined = handle.join().map_err(|p| panic_text(p.as_ref()));
        interrupt::reset();
        joined
    }

    /// One daemon pass: bind on the given journal, submit every graph,
    /// stop, and report the per-graph outcomes (client panics and server
    /// panics become violations in the caller).
    #[allow(clippy::type_complexity)]
    fn daemon_pass(
        journal_path: &Path,
        resume: bool,
        graphs: &[String],
        timeout: Duration,
    ) -> Result<(Vec<WireOutcome>, Result<RunSummary, String>), ApexError> {
        let config = ServeConfig {
            resume,
            ..daemon_config()
        };
        let server = Server::bind(config, SweepJournal::at(journal_path), DseRunner)?;
        let addr = server.local_addr()?.to_string();
        let handle = std::thread::spawn(move || server.run());
        let client_phase = catch_unwind(AssertUnwindSafe(|| {
            graphs
                .iter()
                .map(|g| wire_outcome(client::submit_and_wait(&addr, "chaos", g, None, timeout)))
                .collect::<Vec<_>>()
        }));
        let summary = stop_server(&addr, handle);
        match client_phase {
            Ok(outcomes) => Ok((outcomes, summary)),
            Err(p) => Err(ApexError::new(
                Stage::Cli,
                format!("panic escaped the submit client: {}", panic_text(p.as_ref())),
            )),
        }
    }

    fn run_daemon(schedule: &Schedule, dir: &Path) -> Vec<String> {
        let mut violations = Vec::new();
        let graphs: Vec<String> = [gaussian(), unsharp()]
            .iter()
            .map(|a| apex_ir::to_text(&a.graph))
            .collect();

        // uninterrupted reference
        let ref_path = dir.join("ref.jsonl");
        let reference =
            match daemon_pass(&ref_path, false, &graphs, Duration::from_secs(120)) {
                Ok((outcomes, summary)) => {
                    if let Err(p) = summary {
                        violations.push(format!("reference daemon panicked: {p}"));
                        return violations;
                    }
                    if let Some(bad) = outcomes.iter().find(|o| !o.concluded || o.flagged) {
                        violations.push(format!(
                            "reference daemon run did not conclude cleanly: {}",
                            bad.payload
                        ));
                        return violations;
                    }
                    outcomes
                }
                Err(e) => {
                    violations.push(format!("reference daemon run failed: {e}"));
                    return violations;
                }
            };

        // faulted pass: submissions may fail or degrade, but only in
        // documented shapes, and the server must neither panic nor hang
        let fault_path = dir.join("fault.jsonl");
        arm(schedule);
        let faulted = daemon_pass(&fault_path, false, &graphs, Duration::from_secs(60));
        failpoints::disarm_all();
        interrupt::reset();
        match faulted {
            Ok((_outcomes, summary)) => {
                if let Err(p) = summary {
                    violations.push(format!("daemon panicked under fault: {p}"));
                }
                // client-side errors under fault are documented outcomes
            }
            Err(e) => violations.push(e.to_string()),
        }

        // two disarmed resume restarts over the faulted journal
        let mut rounds: Vec<Vec<WireOutcome>> = Vec::new();
        for round in 0..2 {
            match daemon_pass(&fault_path, true, &graphs, Duration::from_secs(120)) {
                Ok((outcomes, summary)) => {
                    if let Err(p) = summary {
                        violations.push(format!("resume daemon (round {round}) panicked: {p}"));
                    }
                    rounds.push(outcomes);
                }
                Err(e) => {
                    violations.push(format!("resume daemon round {round} failed: {e}"));
                }
            }
        }
        if let [r1, r2] = rounds.as_slice() {
            let p1: Vec<&String> = r1.iter().map(|o| &o.payload).collect();
            let p2: Vec<&String> = r2.iter().map(|o| &o.payload).collect();
            if p1 != p2 {
                violations.push(
                    "two disarmed --resume daemon restarts differ (resume is not \
                     byte-deterministic)"
                        .to_owned(),
                );
            }
            for (i, o) in r1.iter().enumerate() {
                if !o.concluded {
                    violations.push(format!(
                        "graph {i} failed to conclude on a disarmed resume restart: {}",
                        o.payload
                    ));
                } else if !o.flagged && Some(&o.payload) != reference.get(i).map(|r| &r.payload)
                {
                    violations.push(format!(
                        "resumed graph {i} diverged from the uninterrupted reference \
                         without a documented degradation"
                    ));
                }
            }
        }

        // the faulted journal replays torn- and corrupt-free
        let replay = SweepJournal::at(&fault_path).replay();
        if replay.dropped_torn + replay.dropped_corrupt > 0 {
            violations.push(format!(
                "faulted daemon journal dropped {} torn / {} corrupt record(s)",
                replay.dropped_torn, replay.dropped_corrupt
            ));
        }
        violations
    }
}
