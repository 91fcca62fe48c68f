//! Deterministic fault injection over the full DSE flow.
//!
//! For every pipeline stage we arm its fail point, run the complete
//! mine→merge→rewrite→map→pipeline→place→route flow on three real
//! applications, and require a *reported* outcome: a [`DseOutcome`] whose
//! degradation record names the injected stage — and never a panic or a
//! process abort. Run with `cargo test --features fault-injection`.

#![cfg(feature = "fault-injection")]

use apex::apps::{gaussian, harris, unsharp, Application};
use apex::core::{
    dse_evaluate_app, dse_evaluate_suite, most_specialized_variant, specialized_variant,
    DseOptions, PeVariant, SubgraphSelection,
};
use apex::fault::{failpoints, ApexError, Stage};
use apex::merge::MergeOptions;
use apex::mining::MinerConfig;
use apex::tech::TechModel;
use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The fail-point registry is process-global, so tests that arm sites must
/// not interleave; each takes this lock and disarms on drop.
struct Armed {
    _guard: MutexGuard<'static, ()>,
}

impl Armed {
    fn new(site: &str) -> Self {
        Self::after(site, 1)
    }

    /// Arms `site` to fire from its `nth` hit on.
    fn after(site: &str, nth: u64) -> Self {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let guard = LOCK
            .get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        failpoints::disarm_all();
        failpoints::arm_after(site, nth);
        Armed { _guard: guard }
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        failpoints::disarm_all();
    }
}

fn apps() -> Vec<Application> {
    vec![gaussian(), harris(), unsharp()]
}

fn build_variant(apps: &[Application]) -> Result<PeVariant, ApexError> {
    let refs: Vec<&Application> = apps.iter().collect();
    specialized_variant(
        "pe_fault_test",
        &refs,
        &refs,
        &MinerConfig::default(),
        &SubgraphSelection::default(),
        &MergeOptions::default(),
        &TechModel::default(),
        &BTreeSet::new(),
    )
}

/// Runs the full flow with `site` armed during variant construction and
/// evaluation, and asserts every app yields a reported, degraded outcome
/// naming `stage`.
fn assert_fault_is_reported(site: &str, stage: Stage) {
    let _armed = Armed::new(site);
    let apps = apps();
    let tech = TechModel::default();
    let variant = build_variant(&apps);
    let refs: Vec<&Application> = apps.iter().collect();
    let outcomes = dse_evaluate_suite(&variant, &refs, &tech, &DseOptions::default());
    assert_eq!(outcomes.len(), apps.len());
    for (app, o) in apps.iter().zip(&outcomes) {
        assert!(
            o.is_degraded(),
            "{site} on {}: outcome must be degraded",
            app.info.name
        );
        assert!(
            o.degradations.iter().any(|d| d.stage == stage),
            "{site} on {}: expected a {} degradation, got [{}]",
            app.info.name,
            stage,
            o.degradation_summary()
        );
    }
}

#[test]
fn injected_mine_fault_degrades_every_app() {
    // mining failure per source app is recoverable: no subgraphs from that
    // app, so the variant degenerates toward the baseline but still runs
    let _armed = Armed::new("mine::start");
    let apps = apps();
    let tech = TechModel::default();
    let variant = build_variant(&apps).expect("mining faults are recoverable");
    assert!(variant.degradations.iter().any(|d| d.stage == Stage::Mine));
    let refs: Vec<&Application> = apps.iter().collect();
    for o in dse_evaluate_suite(&Ok(variant), &refs, &tech, &DseOptions::default()) {
        assert!(o.is_degraded());
        assert!(o.result.is_ok(), "degenerate variant must still evaluate");
        assert!(o.degradations.iter().any(|d| d.stage == Stage::Mine));
    }
}

#[test]
fn injected_merge_fault_degrades_every_app() {
    // merge failure keeps the previous datapath (greedy incumbent → PE1)
    let _armed = Armed::new("merge::start");
    let apps = apps();
    let tech = TechModel::default();
    let variant = build_variant(&apps).expect("merge faults are recoverable");
    assert!(variant.degradations.iter().any(|d| d.stage == Stage::Merge));
    let refs: Vec<&Application> = apps.iter().collect();
    for o in dse_evaluate_suite(&Ok(variant), &refs, &tech, &DseOptions::default()) {
        assert!(o.is_degraded());
        assert!(o.result.is_ok(), "fallback PE must still evaluate");
    }
}

#[test]
fn injected_rewrite_fault_is_reported_per_app() {
    // rewrite rules are indispensable: construction fails, and the suite
    // reports one degraded outcome per app instead of aborting
    assert_fault_is_reported("rewrite::start", Stage::Rewrite);
}

#[test]
fn injected_map_fault_is_reported_per_app() {
    assert_fault_is_reported("map::start", Stage::Map);
}

#[test]
fn injected_pipeline_fault_falls_back_to_unpipelined() {
    let _armed = Armed::new("pipeline::start");
    let apps = apps();
    let tech = TechModel::default();
    let variant = build_variant(&apps).expect("variant builds before evaluation");
    let mut options = DseOptions::default();
    options.eval.pipelined = true;
    for app in &apps {
        let o = dse_evaluate_app(&variant, app, &tech, &options);
        assert!(o.is_degraded());
        assert!(
            o.result.is_ok(),
            "{}: unpipelined fallback must evaluate",
            app.info.name
        );
        assert!(o.degradations.iter().any(|d| d.stage == Stage::Pipeline));
    }
}

#[test]
fn injected_place_fault_is_reported_per_app() {
    let _armed = Armed::new("place::start");
    let apps = apps();
    let tech = TechModel::default();
    let variant = build_variant(&apps).expect("variant builds before evaluation");
    for app in &apps {
        let o = dse_evaluate_app(&variant, app, &tech, &DseOptions::default());
        assert!(o.is_degraded());
        assert!(o.result.is_err(), "an unplaceable app is skipped");
        assert!(o.degradations.iter().any(|d| d.stage == Stage::Place));
    }
}

#[test]
fn injected_route_fault_is_reported_per_app() {
    let _armed = Armed::new("route::start");
    let apps = apps();
    let tech = TechModel::default();
    let variant = build_variant(&apps).expect("variant builds before evaluation");
    for app in &apps {
        let o = dse_evaluate_app(&variant, app, &tech, &DseOptions::default());
        assert!(o.is_degraded());
        assert!(o.result.is_err(), "an unroutable app is skipped");
        assert!(o.degradations.iter().any(|d| d.stage == Stage::Route));
    }
}

#[test]
fn injected_synth_panic_becomes_rewrite_error_with_payload() {
    // a panicking synthesis worker must not unwind the caller: the job
    // pool catches it and the rewrite stage reports an ApexError whose
    // cause chain carries the panic payload
    let _armed = Armed::new("rewrite::synth_panic");
    let apps = apps();
    let tech = TechModel::default();
    let err = build_variant(&apps).expect_err("panicking synthesis worker fails construction");
    assert_eq!(err.stage(), Stage::Rewrite);
    let chain = err.render_chain();
    assert!(
        chain.contains("injected panic at rewrite::synth_panic"),
        "panic payload missing from cause chain: {chain}"
    );
    // and the suite degrades per app instead of unwinding
    let refs: Vec<&Application> = apps.iter().collect();
    for o in dse_evaluate_suite(&Err(err), &refs, &tech, &DseOptions::default()) {
        assert!(o.is_degraded());
        assert!(o.result.is_err());
        assert!(o.degradations.iter().any(|d| d.stage == Stage::Rewrite));
    }
}

#[test]
fn injected_mine_panic_degrades_not_aborts() {
    // a panicking miner worker is caught by the pool and degrades exactly
    // like a mining error: that app contributes no subgraphs
    let _armed = Armed::new("core::mine_panic");
    let apps = apps();
    let variant = build_variant(&apps).expect("a panicking miner degrades, not aborts");
    let mine_degs: Vec<_> = variant
        .degradations
        .iter()
        .filter(|d| d.stage == Stage::Mine)
        .collect();
    assert_eq!(mine_degs.len(), apps.len(), "one skipped mining pass per app");
    for d in &mine_degs {
        assert!(
            d.detail.contains("injected panic at core::mine_panic"),
            "panic payload missing from degradation: {}",
            d.detail
        );
    }
    let tech = TechModel::default();
    let refs: Vec<&Application> = apps.iter().collect();
    for o in dse_evaluate_suite(&Ok(variant.clone()), &refs, &tech, &DseOptions::default()) {
        assert!(o.is_degraded());
        assert!(o.result.is_ok(), "degenerate variant must still evaluate");
    }
}

fn search_gaussian() -> PeVariant {
    most_specialized_variant(
        &gaussian(),
        &MinerConfig::default(),
        &MergeOptions::default(),
        &TechModel::default(),
        4,
    )
    .expect("the search runs")
}

#[test]
fn specialization_search_mines_each_app_once() {
    // `core::mine_panic` is hit once per mining pass: armed from the
    // second hit, it never fires during a search over one app
    let _armed = Armed::after("core::mine_panic", 2);
    let v = search_gaussian();
    assert_eq!(failpoints::hits("core::mine_panic"), 1, "one mining pass");
    assert!(
        v.degradations.iter().all(|d| d.stage != Stage::Mine),
        "no mining degradation: [{}]",
        v.degradations
            .iter()
            .map(|d| d.detail.as_str())
            .collect::<Vec<_>>()
            .join("; ")
    );
    assert!(!v.sources.is_empty(), "the search merged subgraphs");
}

#[test]
fn specialization_search_degrades_when_its_one_mining_pass_panics() {
    // armed from the first hit, the shared pass panics and every step
    // carries that mining degradation, as a per-step pass would
    let _armed = Armed::new("core::mine_panic");
    let v = search_gaussian();
    assert_eq!(failpoints::hits("core::mine_panic"), 1, "one mining pass");
    assert!(
        v.sources.is_empty(),
        "a panicked pass contributes no subgraphs"
    );
    let mine: Vec<_> = v
        .degradations
        .iter()
        .filter(|d| d.stage == Stage::Mine)
        .collect();
    assert_eq!(mine.len(), 1, "one skipped mining pass");
    assert!(mine[0]
        .detail
        .contains("injected panic at core::mine_panic"));
}

/// The no-hang guarantee: a job hung at `sweep::job_timeout` (it spins
/// until its cancel flag goes up) is cancelled by the watchdog within its
/// deadline plus one time-slice, journaled as a timeout degradation, and
/// the sweep completes instead of hanging.
#[test]
fn hung_job_is_cancelled_by_the_watchdog_not_forever() {
    let _armed = Armed::new("sweep::job_timeout");
    let apps = apps();
    let tech = TechModel::default();
    let refs: Vec<&Application> = apps.iter().collect();
    let variant = apex::core::baseline_variant(&refs);
    let mut options = DseOptions::default();
    options.job_deadline = Some(std::time::Duration::from_millis(150));
    options.jobs = 2;
    let t0 = std::time::Instant::now();
    let outcomes = dse_evaluate_suite(&variant, &refs, &tech, &options);
    let elapsed = t0.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(30),
        "hung jobs must be cancelled, not waited out ({elapsed:?})"
    );
    assert_eq!(outcomes.len(), apps.len());
    for (app, o) in apps.iter().zip(&outcomes) {
        assert!(
            o.degradations
                .iter()
                .any(|d| d.stage == Stage::Sweep && d.kind == apex::fault::DegradationKind::TimedOut),
            "{}: expected a sweep timeout degradation, got [{}]",
            app.info.name,
            o.degradation_summary()
        );
    }
}

/// `sweep::interrupt_midsweep` simulates a Ctrl-C after the first
/// executed job: the checkpointed driver stops dispatching, reports a
/// partial run, and — once the fault is disarmed — a resume replays the
/// journal and completes identically to a clean run.
#[test]
fn interrupt_midsweep_failpoint_round_trips_through_resume() {
    use apex::core::{run_checkpointed, JobReport, SweepJob, SweepJobResult, SweepJournal};
    use apex::fault::Provenance;

    let dir = std::env::temp_dir().join(format!("apex-fault-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let journal = SweepJournal::at(dir.join("sweep.jsonl"));
    let jobs: Vec<SweepJob> = (0..4)
        .map(|i| SweepJob {
            key: 0x1000 + i,
            label: format!("job{i}"),
        })
        .collect();
    let run_job = |i: usize| -> Result<JobReport, ApexError> {
        Ok(JobReport {
            payload: format!("payload for job {i}\n"),
            provenance: Provenance::Completed,
            degradations: "-".to_owned(),
        })
    };

    let partial = {
        let _armed = Armed::new("sweep::interrupt_midsweep");
        run_checkpointed(&journal, &jobs, false, None, run_job).expect("partial run reports")
    };
    assert!(partial.interrupted, "armed fail point must stop the sweep");
    assert_eq!(partial.executed, 1, "exactly one job ran before the interrupt");

    // fault disarmed (Armed dropped): resume completes the sweep
    let resumed = run_checkpointed(&journal, &jobs, true, None, run_job).expect("resume completes");
    assert!(!resumed.interrupted);
    assert_eq!(resumed.replayed, 1);
    assert_eq!(resumed.executed, jobs.len() - 1);
    for (i, r) in resumed.results.iter().enumerate() {
        match r {
            SweepJobResult::Done { report, .. } => {
                assert_eq!(report.payload, format!("payload for job {i}\n"));
            }
            SweepJobResult::NotRun => panic!("job {i} missing after resume"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disarmed_flow_is_clean() {
    let _armed = Armed::new("no::such::site");
    let apps = apps();
    let tech = TechModel::default();
    let variant = build_variant(&apps).expect("clean build");
    assert!(variant.degradations.is_empty());
    for app in &apps {
        let o = dse_evaluate_app(&variant, app, &tech, &DseOptions::default());
        assert!(!o.is_degraded(), "{}", o.degradation_summary());
        assert!(o.result.is_ok());
    }
}

/// Injected journal I/O faults (`io::journal_enospc`, short write,
/// fsync failure) must never leave a torn record behind: the failed
/// append rolls the file back, the error is reported, and once the
/// fault clears the journal accepts appends again — replay sees only
/// whole records.
#[test]
fn injected_journal_io_faults_roll_back_cleanly() {
    use apex::core::{JournalRecord, SweepJournal};
    use apex::fault::Provenance;

    for site in [
        "io::journal_enospc",
        "io::journal_short_write",
        "io::journal_fsync",
    ] {
        let path = std::env::temp_dir().join(format!(
            "apex-iofault-journal-{}-{}.jsonl",
            site.replace(':', "_"),
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let journal = SweepJournal::at(&path);
        let rec = |key: u64| JournalRecord {
            job_key: key,
            label: format!("job{key}"),
            provenance: Provenance::Completed,
            degradations: "-".to_owned(),
            payload: format!("payload {key}\n"),
        };

        {
            let _armed = Armed::new(site);
            let err = journal.append(&rec(1)).expect_err(site);
            assert!(
                format!("{err}").contains("injected"),
                "{site}: the report must carry the injection provenance, got: {err}"
            );
            // the failed append rolled the file back — nothing torn on disk
            let len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            assert_eq!(len, 0, "{site}: a failed append must leave no bytes behind");
        }

        // fault cleared: the journal was rolled back, not poisoned
        journal.append(&rec(2)).expect("append after fault clears");
        let replay = journal.replay();
        assert_eq!(replay.records.len(), 1, "{site}");
        assert_eq!(replay.records[0].job_key, 2, "{site}");
        assert_eq!(replay.dropped_torn, 0, "{site}");
        assert_eq!(replay.dropped_corrupt, 0, "{site}");
        let _ = std::fs::remove_file(&path);
    }
}

/// A sweep whose journal hits injected ENOSPC on every append still
/// completes every job — it degrades to non-resumable (with a warning)
/// instead of failing, and the journal holds no partial records.
#[test]
fn journal_enospc_degrades_sweep_to_nonresumable() {
    use apex::core::{run_checkpointed, JobReport, SweepJob, SweepJobResult, SweepJournal};
    use apex::fault::Provenance;

    let path = std::env::temp_dir().join(format!(
        "apex-iofault-sweep-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let journal = SweepJournal::at(&path);
    let jobs: Vec<SweepJob> = (0..3)
        .map(|i| SweepJob {
            key: 0x2000 + i,
            label: format!("job{i}"),
        })
        .collect();
    let run = {
        let _armed = Armed::new("io::journal_enospc");
        run_checkpointed(&journal, &jobs, false, None, |i| {
            Ok(JobReport {
                payload: format!("payload {i}\n"),
                provenance: Provenance::Completed,
                degradations: "-".to_owned(),
            })
        })
        .expect("the sweep must survive a full journal")
    };
    assert_eq!(run.executed, jobs.len(), "every job still ran");
    assert!(run
        .results
        .iter()
        .all(|r| matches!(r, SweepJobResult::Done { .. })));
    // nothing checkpointed — and nothing torn — so a replay is empty
    let replay = journal.replay();
    assert!(replay.records.is_empty());
    assert_eq!(replay.dropped_torn + replay.dropped_corrupt, 0);
    let _ = std::fs::remove_file(&path);
}

/// Injected cache ENOSPC / short writes degrade to "just don't cache":
/// no stray tmp or partial entry files appear, lookups miss, and once
/// the fault clears the same key stores and loads normally.
#[test]
fn injected_cache_io_faults_skip_caching_without_stray_files() {
    use apex::core::{encode_variant, VariantCache};

    for site in ["io::cache_enospc", "io::cache_short_write"] {
        let dir = std::env::temp_dir().join(format!(
            "apex-iofault-cache-{}-{}",
            site.replace(':', "_"),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = VariantCache::at(&dir);

        let _armed = Armed::new(site);
        let variant = build_variant(&apps()).expect("build is cache-independent");
        cache.store(0xC0FFEE, &variant);
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .map(|rd| {
                rd.flatten()
                    .map(|e| e.file_name().to_string_lossy().into_owned())
                    .collect()
            })
            .unwrap_or_default();
        assert!(
            leftovers.is_empty(),
            "{site}: a failed store must leave no entry or tmp files, found {leftovers:?}"
        );
        assert!(
            cache.load(0xC0FFEE).is_none(),
            "{site}: the failed store must read back as a miss"
        );
        drop(_armed);

        // fault cleared: caching resumes for the very same key
        cache.store(0xC0FFEE, &variant);
        let loaded = cache.load(0xC0FFEE).expect("store works once the disk recovers");
        assert_eq!(encode_variant(&loaded), encode_variant(&variant));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `serve::cache_evict_race` simulates a concurrent evictor deleting the
/// victim file just before ours lands. Under that race, with lookups
/// hammering the same store from other threads, a load must only ever
/// return a fully-valid variant or a miss — never a partial entry — and
/// the store afterwards holds only whole `.var`/`.corrupt` files.
#[test]
fn cache_evict_race_never_serves_partial_or_quarantined_entries() {
    use apex::core::{encode_variant, VariantCache};

    let dir = std::env::temp_dir().join(format!(
        "apex-evict-race-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = VariantCache::at(&dir);

    let _armed = Armed::new("serve::cache_evict_race");
    let variant = build_variant(&apps()).expect("build");
    let golden = encode_variant(&variant);
    let keys: Vec<u64> = (1u64..=6).collect();
    for &k in &keys {
        cache.store(k, &variant);
    }
    let before = cache.total_bytes();
    assert!(before > 0, "the store must start populated");
    let cap = before / 3; // force most entries out, under the race

    std::thread::scope(|s| {
        s.spawn(|| {
            cache.evict_to_cap(cap);
        });
        for _ in 0..3 {
            s.spawn(|| {
                for _ in 0..20 {
                    for &k in &keys {
                        if let Some(v) = cache.load(k) {
                            assert_eq!(
                                encode_variant(&v),
                                golden,
                                "a concurrent load must never see a partial entry"
                            );
                        }
                    }
                }
            });
        }
    });

    // post-state: only whole entry files (or quarantine evidence), no tmp
    // residue, and every surviving entry still round-trips
    for entry in std::fs::read_dir(&dir).expect("cache dir").flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        assert!(
            name.ends_with(".var") || name.ends_with(".corrupt"),
            "unexpected residue in the store: {name}"
        );
        if let Some(hex) = name.strip_suffix(".var") {
            let key = u64::from_str_radix(hex, 16).expect("entry key");
            let v = cache.load(key).expect("surviving entries stay loadable");
            assert_eq!(encode_variant(&v), golden);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
