//! Determinism contract of the parallel sweep executor and the variant
//! cache:
//!
//! 1. `dse_evaluate_suite` / `dse_evaluate_grid` at any worker count are
//!    **bit-identical** to the serial run (results in input order, every
//!    float byte-for-byte equal — compared via full-precision `Debug`).
//! 2. A warm [`VariantCache`] reproduces the *exact* variant the cold
//!    build produced: same rule set, same datapath hash, same encoded
//!    bytes.
//!
//! [`VariantCache`]: apex::core::VariantCache

use apex::apps::{analyzed_apps, unseen_apps, Application};
use apex::core::{
    baseline_variant, dse_evaluate_app, dse_evaluate_grid, dse_evaluate_suite, fnv1a,
    run_checkpointed, specialized_variant, DseOptions, JobReport, SubgraphSelection, SweepJob,
    SweepJobResult, SweepJournal, JOURNAL_FORMAT,
};
// the warm-cache tests are default-configuration only (see below)
#[cfg(not(feature = "fault-injection"))]
use apex::core::{datapath_hash, encode_variant, PeVariant, VariantCache};
use apex::fault::Provenance;
use apex::merge::MergeOptions;
use apex::mining::MinerConfig;
use apex::tech::TechModel;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// Points the process-wide variant cache at a per-run scratch directory
/// before anything can initialize it (the shared cache reads the
/// environment once, lazily). Every test in this binary calls this first,
/// so no test leaks entries into the developer's real cache.
fn isolate_cache_dir() -> &'static std::path::Path {
    static DIR: OnceLock<std::path::PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("apex-determinism-{}", std::process::id()));
        std::env::set_var("APEX_CACHE_DIR", &dir);
        dir
    })
}

fn nine_apps() -> Vec<Application> {
    let mut apps = analyzed_apps();
    apps.extend(unseen_apps());
    apps
}

/// Sweep options with a reduced annealing budget: determinism does not
/// depend on the move count, and the nine-app suite must stay fast in
/// debug builds.
fn fast_options(jobs: usize) -> DseOptions {
    let mut o = DseOptions::default();
    o.eval.place.moves = 1_000;
    o.jobs = jobs;
    o
}

fn outcome_fingerprint(outcomes: &[apex::core::AppDseOutcome]) -> Vec<String> {
    outcomes.iter().map(|o| format!("{o:?}")).collect()
}

#[test]
fn parallel_suite_is_bit_identical_to_serial_across_all_nine_apps() {
    isolate_cache_dir();
    let apps = nine_apps();
    let refs: Vec<&Application> = apps.iter().collect();
    let tech = TechModel::default();
    let variant = baseline_variant(&refs);

    let serial = dse_evaluate_suite(&variant, &refs, &tech, &fast_options(1));
    let parallel = dse_evaluate_suite(&variant, &refs, &tech, &fast_options(4));

    assert_eq!(serial.len(), refs.len());
    assert_eq!(parallel.len(), refs.len());
    let s = outcome_fingerprint(&serial);
    let p = outcome_fingerprint(&parallel);
    for (app, (a, b)) in refs.iter().zip(s.iter().zip(&p)) {
        assert_eq!(a, b, "{}: parallel outcome differs from serial", app.info.name);
    }
}

#[test]
fn parallel_grid_matches_serial_in_row_and_column_order() {
    isolate_cache_dir();
    let apps = analyzed_apps();
    let refs: Vec<&Application> = apps.iter().take(3).collect();
    let tech = TechModel::default();
    let base = baseline_variant(&refs);
    let spec = specialized_variant(
        "pe_grid_test",
        &refs,
        &refs,
        &MinerConfig::default(),
        &SubgraphSelection::default(),
        &MergeOptions::default(),
        &tech,
        &BTreeSet::new(),
    );
    let variants = [base, spec];

    let serial = dse_evaluate_grid(&variants, &refs, &tech, &fast_options(1));
    let parallel = dse_evaluate_grid(&variants, &refs, &tech, &fast_options(4));

    assert_eq!(serial.len(), variants.len());
    assert_eq!(parallel.len(), variants.len());
    for (v, (srow, prow)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(srow.len(), refs.len(), "row {v} covers every app");
        assert_eq!(
            outcome_fingerprint(srow),
            outcome_fingerprint(prow),
            "grid row {v} differs between serial and parallel"
        );
    }
}

// Under `fault-injection` the variant constructors bypass the cache on
// purpose (a stored variant would mask armed failpoints), so the warm-hit
// contract only holds in the default configuration.
#[cfg(not(feature = "fault-injection"))]
#[test]
fn warm_cache_reproduces_the_exact_variant() {
    isolate_cache_dir();
    let apps = analyzed_apps();
    let refs: Vec<&Application> = apps.iter().take(2).collect();
    let tech = TechModel::default();
    let build = || -> PeVariant {
        specialized_variant(
            "pe_cache_test",
            &refs,
            &refs,
            &MinerConfig::default(),
            &SubgraphSelection::default(),
            &MergeOptions::default(),
            &tech,
            &BTreeSet::new(),
        )
        .expect("variant builds")
    };

    let cache = VariantCache::shared();
    assert!(cache.is_enabled(), "APEX_CACHE_DIR points at the scratch dir");

    let cold = build();
    let hits_before = cache.hits();
    let warm = build();
    assert!(
        cache.hits() > hits_before,
        "second build must be served from the cache ({} hits before, {} after)",
        hits_before,
        cache.hits()
    );

    // same rule set ...
    let cold_rules: Vec<&str> = cold.rules.rules.iter().map(|r| r.name.as_str()).collect();
    let warm_rules: Vec<&str> = warm.rules.rules.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(cold_rules, warm_rules, "rule sets diverge");
    // ... same hardware ...
    assert_eq!(
        datapath_hash(&cold),
        datapath_hash(&warm),
        "datapath hashes diverge"
    );
    // ... and byte-identical everything (spec, sources, synthesis report,
    // degradations) under the canonical encoding
    assert_eq!(encode_variant(&cold), encode_variant(&warm));
}

/// A job's deadline bounds how long its build may run, not what a
/// completed build produces, so it must not split the tenant cache: a
/// resubmission with a new deadline is served from the first job's
/// entries and stores nothing new.
#[cfg(not(feature = "fault-injection"))]
#[test]
fn resubmission_with_a_new_deadline_hits_the_tenant_cache() {
    use apex::serve::{DseRunner, JobRunner, JobSpec};
    use std::time::Duration;

    let tenant = "deadline-key-test";
    let tenant_dir = isolate_cache_dir().join("tenants").join(tenant);
    let entries = || std::fs::read_dir(&tenant_dir).map_or(0, |d| d.count());
    let apps = analyzed_apps();
    let app = apps
        .iter()
        .find(|a| a.info.name == "mobilenet")
        .expect("mobilenet is an analyzed app");
    let job = |deadline_secs| JobSpec {
        tenant: tenant.to_owned(),
        graph: apex::ir::to_text(&app.graph),
        deadline: Duration::from_secs(deadline_secs),
        cancel: Arc::new(AtomicBool::new(false)),
    };

    let first = DseRunner.run(&job(600)).expect("first job runs");
    let stored = entries();
    assert!(stored > 0, "the first job stores its variants");
    let cache = VariantCache::shared();
    let hits_before = cache.hits();
    let second = DseRunner.run(&job(900)).expect("second job runs");
    assert!(
        cache.hits() > hits_before,
        "the resubmission must read the tenant cache ({hits_before} hits before, {} after)",
        cache.hits()
    );
    assert_eq!(entries(), stored, "a new deadline must not store new entries");
    assert_eq!(first.payload, second.payload);
    assert_eq!(second.provenance, Provenance::Completed);
}

/// Kill-and-resume determinism of the checkpoint journal over real sweep
/// payloads: an interrupted `run_checkpointed` plus a `--resume`-style
/// second pass must produce byte-for-byte the output of an uninterrupted
/// run, re-executing only the jobs the interrupt left unfinished.
#[test]
fn interrupted_checkpointed_sweep_resumes_byte_identically() {
    isolate_cache_dir();
    let dir = std::env::temp_dir().join(format!("apex-journal-det-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let apps = analyzed_apps();
    let refs: Vec<&Application> = apps.iter().take(3).collect();
    let tech = TechModel::default();
    let variant = baseline_variant(&refs).expect("baseline builds");
    let opts = fast_options(1);
    let jobs: Vec<SweepJob> = refs
        .iter()
        .map(|app| SweepJob {
            key: fnv1a(&[JOURNAL_FORMAT, "det-test", &app.info.name]),
            label: app.info.name.clone(),
        })
        .collect();
    let run_job = |i: usize| -> Result<JobReport, apex::fault::ApexError> {
        let outcome = dse_evaluate_app(&variant, refs[i], &tech, &opts);
        Ok(JobReport {
            payload: format!("{outcome:?}\n"),
            provenance: Provenance::Completed,
            degradations: outcome.degradation_summary(),
        })
    };
    let payloads = |run: &apex::core::SweepRun| -> Vec<String> {
        run.results
            .iter()
            .map(|r| match r {
                SweepJobResult::Done { report, .. } => report.payload.clone(),
                SweepJobResult::NotRun => "<not run>".to_owned(),
            })
            .collect()
    };

    // reference: uninterrupted run
    let reference = run_checkpointed(
        &SweepJournal::at(dir.join("reference.jsonl")),
        &jobs,
        false,
        None,
        run_job,
    )
    .expect("reference sweep runs");
    assert!(!reference.interrupted);
    assert_eq!(reference.executed, jobs.len());

    // interrupted run: the flag goes up while job 0 executes, so the
    // sweep journals job 0 and stops before dispatching job 1
    let journal = SweepJournal::at(dir.join("interrupted.jsonl"));
    let flag = Arc::new(AtomicBool::new(false));
    let partial = run_checkpointed(&journal, &jobs, false, Some(&flag), |i| {
        let report = run_job(i)?;
        flag.store(true, Ordering::SeqCst);
        Ok(report)
    })
    .expect("interrupted sweep still reports");
    assert!(partial.interrupted, "flag must stop the sweep");
    assert_eq!(partial.executed, 1, "only job 0 ran before the interrupt");
    assert!(
        matches!(partial.results[1], SweepJobResult::NotRun),
        "job 1 was never dispatched"
    );

    // resume: replays job 0 from the journal, executes only the rest
    let resumed = run_checkpointed(&journal, &jobs, true, None, run_job)
        .expect("resumed sweep runs to completion");
    assert!(!resumed.interrupted);
    assert_eq!(resumed.replayed, 1, "job 0 comes from the journal");
    assert_eq!(resumed.executed, jobs.len() - 1, "only the remainder re-runs");
    assert_eq!(
        payloads(&resumed),
        payloads(&reference),
        "resumed output must be byte-identical to the uninterrupted run"
    );
    assert!(
        matches!(resumed.results[0], SweepJobResult::Done { resumed: true, .. }),
        "job 0 is marked as served from the journal"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_key_separates_selection_policies() {
    isolate_cache_dir();
    let apps = analyzed_apps();
    let refs: Vec<&Application> = apps.iter().take(1).collect();
    let k1 = apex::core::variant_cache_key(
        "specialized",
        "pe_x",
        &refs,
        &refs,
        Some(&MinerConfig::default()),
        Some(&SubgraphSelection::default()),
        Some(&MergeOptions::default()),
        Some(&TechModel::default()),
        &BTreeSet::new(),
    );
    let deeper = SubgraphSelection {
        per_app: 5,
        ..SubgraphSelection::default()
    };
    let k2 = apex::core::variant_cache_key(
        "specialized",
        "pe_x",
        &refs,
        &refs,
        Some(&MinerConfig::default()),
        Some(&deeper),
        Some(&MergeOptions::default()),
        Some(&TechModel::default()),
        &BTreeSet::new(),
    );
    assert_ne!(k1, k2, "selection policy must be part of the key");
}
