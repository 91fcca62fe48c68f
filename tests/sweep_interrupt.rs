//! A sweep interrupted before it starts drains instead of hanging or
//! dropping jobs: every job — those the two workers pick up first and
//! those still pending behind them — sees the process-wide interrupt flag
//! through its own budget and reports a cancelled route.
//!
//! This file holds one test on purpose: it raises the process-wide
//! interrupt flag, which any other sweep in the same test binary would
//! observe.

use apex::apps::{analyzed_apps, unseen_apps, Application};
use apex::core::{baseline_variant, dse_evaluate_suite, DseOptions};
use apex::fault::{interrupt, Stage};
use apex::tech::TechModel;

#[test]
fn interrupt_cancels_active_and_pending_sweep_jobs() {
    let mut apps = analyzed_apps();
    apps.extend(unseen_apps());
    let refs: Vec<&Application> = apps.iter().collect();
    let tech = TechModel::default();
    let variant = baseline_variant(&refs);
    let options = DseOptions {
        jobs: 2,
        ..DseOptions::default()
    };

    interrupt::trigger();
    let outcomes = dse_evaluate_suite(&variant, &refs, &tech, &options);
    interrupt::reset();

    assert_eq!(outcomes.len(), apps.len(), "a drained sweep drops no job");
    for (app, o) in apps.iter().zip(&outcomes) {
        let name = &app.info.name;
        match &o.result {
            Err(e) => {
                assert_eq!(e.stage(), Stage::Route, "{name}: {e}");
                assert!(e.message().contains("cancel"), "{name}: {e}");
            }
            Ok(_) => panic!("{name}: an interrupted job must not route"),
        }
        assert!(
            o.degradations.iter().any(|d| d.stage == Stage::Route),
            "{name}: expected a route degradation, got [{}]",
            o.degradation_summary()
        );
    }
}
