//! The PE Spec search and the specialization ladder mine and rank each
//! application once and build every step from a prefix of that ranking.
//! These tests pin down that sharing the pass changes nothing: every step
//! they build is byte-identical to a cold standalone build of the same
//! step, and a second run over a warm cache is all hits. A warm search
//! reads its search record and the chosen step's entry, and nothing
//! else; a corrupt record, an evicted step or a cancelled search still
//! returns the cold choice.
//!
//! Under `fault-injection` the variant constructors bypass the cache, so
//! the steps a search built cannot be read back; the suite runs only in
//! the default configuration.

#![cfg(not(feature = "fault-injection"))]

use apex::apps::{analyzed_apps, unseen_apps, Application};
use apex::core::{
    encode_variant, most_specialized_variant, search_cache_key, specialization_ladder,
    specialized_variant, variant_cache_key, with_thread_tenant, SubgraphSelection, VariantCache,
};
use apex::fault::{Budget, Degradation, Provenance, Stage};
use apex::merge::MergeOptions;
use apex::mining::MinerConfig;
use apex::tech::TechModel;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, MutexGuard};

const STEPS: usize = 4;

/// Held by every test: the cache counters are process-wide, so the tests
/// that count hits and misses must not overlap.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Points the process-wide variant cache at a per-run scratch directory
/// before anything initializes it (the shared cache reads the environment
/// once, lazily).
fn isolated_cache() -> (&'static VariantCache, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("apex-spec-search-{}", std::process::id()));
    std::env::set_var("APEX_CACHE_DIR", &dir);
    let cache = VariantCache::shared();
    assert!(
        cache.is_enabled(),
        "APEX_CACHE_DIR points at the scratch dir"
    );
    (cache, dir)
}

fn selection(per_app: usize) -> SubgraphSelection {
    SubgraphSelection {
        per_app,
        ..SubgraphSelection::default()
    }
}

/// Step `k` built on its own, in a tenant namespace nothing else uses, so
/// it is always a cold build.
fn standalone(app: &Application, name: &str, k: usize) -> String {
    let tenant = format!("standalone-{name}-{k}");
    let v = with_thread_tenant(&tenant, || {
        specialized_variant(
            name,
            &[app],
            &[app],
            &MinerConfig::default(),
            &selection(k),
            &MergeOptions::default(),
            &TechModel::default(),
            &BTreeSet::new(),
        )
    })
    .expect("standalone step builds");
    encode_variant(&v)
}

/// The cache key of step `k` named `name`, as the search and the ladder
/// compute it.
fn step_key(app: &Application, name: &str, k: usize) -> u64 {
    variant_cache_key(
        "specialized",
        name,
        &[app],
        &[app],
        Some(&MinerConfig::default()),
        Some(&selection(k)),
        Some(&MergeOptions::default()),
        Some(&TechModel::default()),
        &BTreeSet::new(),
    )
}

/// Runs `f` in `tenant`'s namespace and returns its result with the
/// shared cache's (hits, misses) deltas. Every test holds [`serial`], so
/// no other build moves the counters meanwhile.
fn counted<R>(cache: &VariantCache, tenant: &str, f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (hits, misses) = (cache.hits(), cache.misses());
    let out = with_thread_tenant(tenant, f);
    (out, cache.hits() - hits, cache.misses() - misses)
}

#[test]
fn search_and_ladder_steps_equal_standalone_builds_and_rerun_warm() {
    let _serial = serial();
    let (cache, dir) = isolated_cache();
    let (miner, merge, tech) = (
        MinerConfig::default(),
        MergeOptions::default(),
        TechModel::default(),
    );
    for app in analyzed_apps().into_iter().chain(unseen_apps()) {
        let app_name = &app.info.name;

        // the ladder returns every step it builds
        let ladder_tenant = format!("ladder-{app_name}");
        let (ladder, _, misses) = counted(cache, &ladder_tenant, || {
            specialization_ladder(&app, STEPS, &miner, &merge, &tech)
        });
        let ladder = ladder.expect("ladder builds");
        assert_eq!(ladder.len(), STEPS + 1);
        assert_eq!(misses, (STEPS + 1) as u64, "{app_name}: cold ladder");
        for (k, v) in ladder.iter().enumerate() {
            let name = format!("pe{}_{app_name}", k + 1);
            assert_eq!(
                encode_variant(v),
                standalone(&app, &name, k),
                "{app_name}: ladder step {k} differs from a standalone build"
            );
        }
        let (warm, hits, misses) = counted(cache, &ladder_tenant, || {
            specialization_ladder(&app, STEPS, &miner, &merge, &tech)
        });
        assert_eq!(
            (hits, misses),
            ((STEPS + 1) as u64, 0),
            "{app_name}: warm ladder"
        );
        let warm: Vec<String> = warm
            .expect("warm ladder")
            .iter()
            .map(encode_variant)
            .collect();
        let cold: Vec<String> = ladder.iter().map(encode_variant).collect();
        assert_eq!(warm, cold, "{app_name}: warm ladder differs");

        // the search returns only its choice; its record and every step
        // it built are in its namespace of the cache
        let search_tenant = format!("search-{app_name}");
        let (chosen, _, misses) = counted(cache, &search_tenant, || {
            most_specialized_variant(&app, &miner, &merge, &tech, STEPS)
        });
        let chosen = encode_variant(&chosen.expect("search runs"));
        // one miss on the search record, then one per step built
        let built = misses - 1;
        assert!(built >= 1, "{app_name}: the search builds step 0");
        let name = format!("pe_spec_{app_name}");
        let ns = cache.namespaced(&search_tenant);
        let mut steps = Vec::new();
        for k in 0..=STEPS {
            match ns.load(step_key(&app, &name, k)) {
                Some(v) => steps.push(encode_variant(&v)),
                None => break,
            }
        }
        assert_eq!(
            steps.len() as u64,
            built,
            "{app_name}: steps 0..{built} are cached"
        );
        for (k, step) in steps.iter().enumerate() {
            assert_eq!(
                *step,
                standalone(&app, &name, k),
                "{app_name}: search step {k} differs from a standalone build"
            );
        }
        assert!(
            steps.contains(&chosen),
            "{app_name}: the choice is a built step"
        );
        // warm, the search reads its record and the chosen step's entry
        let (again, hits, misses) = counted(cache, &search_tenant, || {
            most_specialized_variant(&app, &miner, &merge, &tech, STEPS)
        });
        assert_eq!((hits, misses), (2, 0), "{app_name}: warm search");
        assert_eq!(encode_variant(&again.expect("warm search runs")), chosen);
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// The entry file of `key` in `tenant`'s namespace under `dir`.
fn entry(dir: &Path, tenant: &str, key: u64, ext: &str) -> PathBuf {
    dir.join("tenants")
        .join(tenant)
        .join(format!("{key:016x}.{ext}"))
}

/// Runs the default search for `app` in `tenant`'s namespace and returns
/// its encoded choice with the shared cache's (hits, misses) deltas.
fn search(cache: &VariantCache, tenant: &str, app: &Application) -> (String, u64, u64) {
    let (v, hits, misses) = counted(cache, tenant, || {
        most_specialized_variant(
            app,
            &MinerConfig::default(),
            &MergeOptions::default(),
            &TechModel::default(),
            STEPS,
        )
    });
    (encode_variant(&v.expect("search runs")), hits, misses)
}

fn record_key(app: &Application) -> u64 {
    search_cache_key(
        app,
        &MinerConfig::default(),
        &MergeOptions::default(),
        &TechModel::default(),
        STEPS,
    )
}

#[test]
fn corrupt_record_is_quarantined_and_the_search_recomputes_its_choice() {
    let _serial = serial();
    let (cache, dir) = isolated_cache();
    let app = apex::apps::gaussian();
    let tenant = "corrupt-record";
    let (cold, _, _) = search(cache, tenant, &app);
    let record = entry(&dir, tenant, record_key(&app), "var");
    let text = std::fs::read_to_string(&record).expect("the search wrote its record");
    std::fs::write(&record, text.replacen("search", "seerch", 1)).expect("corrupt the record");

    let quarantined = cache.quarantined();
    let (again, _, misses) = search(cache, tenant, &app);
    assert_eq!(again, cold, "the recomputed choice is the cold one");
    assert_eq!(cache.quarantined() - quarantined, 1, "the record is quarantined");
    assert!(misses >= 1);
    assert!(entry(&dir, tenant, record_key(&app), "corrupt").exists());
    // the recomputed search wrote a sound record again
    assert_eq!(search(cache, tenant, &app), (cold, 2, 0), "warm after recompute");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn record_whose_step_was_evicted_rebuilds_an_identical_step() {
    let _serial = serial();
    let (cache, dir) = isolated_cache();
    let app = apex::apps::gaussian();
    let tenant = "evicted-step";
    let (cold, _, _) = search(cache, tenant, &app);
    let k = cache
        .namespaced(tenant)
        .load_search(record_key(&app))
        .expect("the search wrote its record");
    let name = format!("pe_spec_{}", app.info.name);
    let step = entry(&dir, tenant, step_key(&app, &name, k), "var");
    std::fs::remove_file(&step).expect("the chosen step is cached");

    // the record hits, the chosen step misses and is rebuilt alone
    let (again, hits, misses) = search(cache, tenant, &app);
    assert_eq!(again, cold, "the rebuilt step is the cold choice");
    assert_eq!((hits, misses), (1, 1));
    assert!(step.exists(), "the rebuilt step is stored again");
    assert_eq!(search(cache, tenant, &app), (cold, 2, 0));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn cancelled_search_writes_no_record() {
    let _serial = serial();
    let (cache, dir) = isolated_cache();
    let app = apex::apps::gaussian();
    let tenant = "cancelled";
    let miner = MinerConfig {
        budget: Budget::unlimited().with_cancel(Arc::new(AtomicBool::new(true))),
        ..MinerConfig::default()
    };
    let v = with_thread_tenant(tenant, || {
        most_specialized_variant(
            &app,
            &miner,
            &MergeOptions::default(),
            &TechModel::default(),
            STEPS,
        )
    })
    .expect("a cancelled search still chooses");
    let cancelled = Degradation::from_provenance(Stage::Mine, Provenance::Cancelled)
        .expect("cancellation degrades");
    assert!(v.degradations.contains(&cancelled), "{:?}", v.degradations);
    // the cancel flag is not part of the key: a record here would be
    // served to an uncancelled search
    let ns = cache.namespaced(tenant);
    assert_eq!(ns.load_search(record_key(&app)), None, "no record written");
    let _ = std::fs::remove_dir_all(dir);
}
