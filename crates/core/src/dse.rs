//! Resilient per-application DSE driver — the fault-tolerant layer the
//! unattended sweep runs on.
//!
//! [`crate::evaluate_app`] is the same flow with no concessions: any stage
//! failure or degradation aborts the (variant, application) pair. A
//! multi-app design-space exploration cannot afford that — one exhausted
//! search budget or one unroutable placement must not take the whole
//! sweep down. [`dse_evaluate_app`] therefore wraps every backend stage
//! with the degradation policy from the paper's unattended-operation
//! requirement (§3):
//!
//! * **pipelining** failure falls back to the unpipelined design,
//! * **placement** failure retries with perturbed RNG seeds (bounded),
//! * **routing** failure retries once with relaxed PathFinder options,
//! * any stage that still fails is *skipped and reported*, never panics,
//!
//! and every concession is recorded as a [`Degradation`] in the returned
//! [`DseOutcome`], so reports can render partial sweeps honestly.

use crate::evaluate::{AppEvaluation, EvalOptions};
use crate::variant::PeVariant;
use apex_apps::Application;
use apex_cgra::{
    achieved_period, cgra_area, cgra_energy_per_cycle, gather_stats, place_cached, route,
    verify_routed, Fabric, OutputTiming, RouteOptions,
};
use apex_fault::{ApexError, Budget, Degradation, DegradationKind, DseOutcome, Meter, Stage};
use apex_map::map_application;
use apex_pipeline::{auto_pipeline, pipeline_application, AppPipelineReport};
use apex_tech::TechModel;
use std::time::Duration;

/// Options for the resilient DSE flow.
#[derive(Debug, Clone)]
pub struct DseOptions {
    /// The underlying backend options (fabric, placer, router, pipelining).
    pub eval: EvalOptions,
    /// Additional placement attempts with perturbed RNG seeds after a
    /// placement failure (`0` disables retrying).
    pub place_retries: u32,
    /// Retry a failed routing once with [`apex_cgra::RouteOptions::relaxed`].
    pub route_relax_retry: bool,
    /// Worker threads for [`dse_evaluate_suite`] / [`dse_evaluate_grid`]:
    /// `0` = auto ([`apex_par::default_jobs`]), `1` = serial (inline on
    /// the caller's thread). Results are in input order and bit-identical
    /// across any job count — the serial and parallel paths are the same
    /// code in `apex-par`.
    pub jobs: usize,
    /// Per-job wall-clock deadline for [`dse_evaluate_suite`] /
    /// [`dse_evaluate_grid`], metered by each job's own `Budget` from the
    /// job's start. Every route attempt's budget ends no later than it,
    /// so an overrun stops the job cooperatively; the job is recorded
    /// with a [`Stage::Sweep`] timeout degradation and the sweep
    /// continues. `None` disables the per-job deadline.
    pub job_deadline: Option<Duration>,
}

impl Default for DseOptions {
    fn default() -> Self {
        DseOptions {
            eval: EvalOptions::default(),
            place_retries: 2,
            route_relax_retry: true,
            jobs: 0,
            job_deadline: None,
        }
    }
}

fn effective_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        apex_par::default_jobs()
    } else {
        jobs
    }
}

/// Stage-boundary invariant check (the `apex-verify` passes), active in
/// debug builds only. A violation here is a pipeline bug, not an input
/// error or a capacity problem, so it aborts loudly instead of degrading;
/// release sweeps rely on the `apex verify` CLI for on-demand full
/// verification. The routing has no pass here: `verify_routed` runs
/// the whole routing check (`Routing::defects`, the `ROUTE-*` rules) in
/// every build, and a defect skips the application as a `Verify`
/// degradation.
#[cfg(debug_assertions)]
pub(crate) fn debug_verify(stage: &str, violations: &[apex_verify::Violation]) {
    assert!(
        violations.is_empty(),
        "{stage} stage produced invariant violations:\n{}",
        apex_verify::render(violations)
    );
}

/// Outcome of one (variant, application) evaluation under the degradation
/// policy: the evaluation or the error that finally stopped the flow, plus
/// every degradation accepted along the way.
pub type AppDseOutcome = DseOutcome<Result<AppEvaluation, ApexError>>;

/// Evaluates one application on a variant, degrading instead of failing
/// wherever the policy allows. Never panics on malformed inputs or stage
/// faults; the error case of the inner `Result` is itself a reported
/// outcome.
pub fn dse_evaluate_app(
    variant: &PeVariant,
    app: &Application,
    tech: &TechModel,
    options: &DseOptions,
) -> AppDseOutcome {
    resilient_flow(variant, app, tech, options, None)
}

/// The one backend flow, behind [`dse_evaluate_app`] and
/// [`crate::evaluate_app`]; a sweep job passes its `job` meter so every
/// route attempt is bounded by the job's budget.
pub(crate) fn resilient_flow(
    variant: &PeVariant,
    app: &Application,
    tech: &TechModel,
    options: &DseOptions,
    job: Option<&Meter>,
) -> AppDseOutcome {
    // concessions made while building the variant carry over to each app
    let mut degradations: Vec<Degradation> = variant.degradations.clone();

    let design = match map_application(&app.graph, &variant.spec.datapath, &variant.rules) {
        Ok(d) => d,
        Err(e) => {
            degradations.push(Degradation::new(
                Stage::Map,
                DegradationKind::Skipped,
                format!("mapping failed ({e}); application skipped"),
            ));
            return DseOutcome::degraded(Err(e.into()), degradations);
        }
    };
    #[cfg(debug_assertions)]
    debug_verify(
        "map",
        &apex_verify::verify_netlist(&design.netlist, &variant.rules),
    );

    // PE + application pipelining, falling back to the combinational design
    let mut spec = variant.spec.clone();
    let mut pipelining = AppPipelineReport {
        regs_inserted: 0,
        fifos_inserted: 0,
        latency: 0,
    };
    let mut netlist = design.netlist.clone();
    let mut pipelined = false;
    if options.eval.pipelined {
        let piped = auto_pipeline(&mut spec, tech, &options.eval.pe_pipeline).and_then(|_| {
            let lat = spec.latency() + 1;
            pipeline_application(&design.netlist, &variant.rules, lat, &options.eval.app_pipeline)
        });
        match piped {
            Ok((pipelined_netlist, report)) => {
                netlist = pipelined_netlist;
                pipelining = report;
                pipelined = true;
            }
            Err(e) => {
                spec = variant.spec.clone();
                degradations.push(Degradation::new(
                    Stage::Pipeline,
                    DegradationKind::Fallback,
                    format!("pipelining failed ({e}); evaluating the unpipelined design"),
                ));
            }
        }
    }
    #[cfg(debug_assertions)]
    {
        debug_verify("pipeline", &apex_verify::verify_pe(&spec));
        debug_verify(
            "pipeline",
            &apex_verify::verify_netlist(&netlist, &variant.rules),
        );
    }

    // placement with bounded perturbed-seed retries
    let fabric = Fabric::new(options.eval.fabric.clone());
    let mut attempt = 0;
    let placement = loop {
        let mut popts = options.eval.place.clone();
        popts.seed = popts
            .seed
            .wrapping_add(u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        match place_cached(&netlist, &fabric, &popts) {
            Ok(p) => {
                if attempt > 0 {
                    degradations.push(Degradation::new(
                        Stage::Place,
                        DegradationKind::Retried,
                        format!("placement succeeded on retry {attempt} with a perturbed seed"),
                    ));
                }
                break p;
            }
            Err(_) if attempt < options.place_retries => attempt += 1,
            Err(e) => {
                let attempts = options.place_retries + 1;
                degradations.push(Degradation::new(
                    Stage::Place,
                    DegradationKind::Skipped,
                    format!("placement failed after {attempts} seed(s); application skipped"),
                ));
                return DseOutcome::degraded(Err(e.into()), degradations);
            }
        }
    };
    #[cfg(debug_assertions)]
    debug_verify(
        "place",
        &apex_verify::verify_placement(&netlist, &fabric, &placement),
    );

    // routing, once more with relaxed negotiation on congestion
    let route_with = |opts: &RouteOptions| {
        let opts = job.map_or_else(|| opts.clone(), |job| within_job(opts, job));
        route(&netlist, &variant.rules, &fabric, &placement, &opts)
    };
    let routing = match route_with(&options.eval.route) {
        Ok(r) => r,
        Err(first) if options.route_relax_retry => {
            degradations.push(Degradation::new(
                Stage::Route,
                DegradationKind::Retried,
                format!("routing failed ({first}); retrying with relaxed options"),
            ));
            match route_with(&options.eval.route.relaxed()) {
                Ok(r) => r,
                Err(e) => {
                    degradations.push(Degradation::new(
                        Stage::Route,
                        DegradationKind::Skipped,
                        "routing failed even with relaxed options; application skipped",
                    ));
                    return DseOutcome::degraded(Err(e.into()), degradations);
                }
            }
        }
        Err(first) => {
            degradations.push(Degradation::new(
                Stage::Route,
                DegradationKind::Skipped,
                format!("routing failed ({first}); application skipped"),
            ));
            return DseOutcome::degraded(Err(first.into()), degradations);
        }
    };
    if let Some(d) = Degradation::from_provenance(Stage::Route, routing.provenance) {
        degradations.push(d);
    }

    if let Err(msg) = verify_routed(&netlist, &variant.rules, &fabric, &placement, &routing) {
        degradations.push(Degradation::new(
            Stage::Verify,
            DegradationKind::Skipped,
            "post-route verification failed; application skipped",
        ));
        return DseOutcome::degraded(Err(ApexError::new(Stage::Verify, msg)), degradations);
    }

    let pnr = gather_stats(&netlist, &fabric, &placement, &routing);
    let area = cgra_area(&netlist, &pnr, &spec, tech);
    let energy = cgra_energy_per_cycle(&netlist, &variant.rules, &pnr, &spec, tech);
    let timing = if pipelined {
        OutputTiming::Registered
    } else {
        OutputTiming::Combinational
    };
    let period = achieved_period(&routing, &spec, tech, timing).max(tech.clock_period_ns);
    let runtime_cycles = app.steady_state_cycles() + u64::from(pipelining.latency);
    let pe_core_area = pnr.pe_tiles as f64 * spec.area(tech).total();
    let pe_core_energy_nj = energy.pe * runtime_cycles as f64 * 1e-3;

    let eval = AppEvaluation {
        app: app.info.name.clone(),
        variant: variant.spec.name.clone(),
        mapping: design.stats,
        pipelining,
        pe_stages: spec.pipeline.as_ref().map_or(1, |p| p.stages),
        pnr,
        area,
        energy_per_cycle: energy,
        period_ns: period,
        runtime_cycles,
        pe_core_area,
        pe_core_energy_nj,
    };
    if degradations.is_empty() {
        DseOutcome::clean(Ok(eval))
    } else {
        DseOutcome::degraded(Ok(eval), degradations)
    }
}

/// One route attempt's options inside a sweep job: the job's interrupt
/// flag as the cancel flag, and a deadline ending no later than the job's.
fn within_job(opts: &RouteOptions, job: &Meter) -> RouteOptions {
    let mut opts = opts.clone();
    opts.budget.cancel = Some(apex_fault::interrupt::flag());
    if let Some(left) = job.remaining() {
        opts.budget.deadline = Some(opts.budget.deadline.map_or(left, |d| d.min(left)));
    }
    opts
}

/// One sweep job: [`dse_evaluate_app`] under the job's own budget, which
/// meters `options.job_deadline` from the job's start and carries the
/// process-wide interrupt flag as its cancel flag. Every route attempt —
/// the flow's open-ended search — inherits both (see [`within_job`]), so
/// a deadline or a Ctrl-C stops the job cooperatively. A job still running
/// at its deadline is recorded with a [`Stage::Sweep`] timeout
/// degradation.
///
/// With no deadline and no interrupt this runs exactly
/// [`dse_evaluate_app`]: a cancel flag that never rises changes nothing.
fn sweep_job(
    variant: &PeVariant,
    app: &Application,
    tech: &TechModel,
    options: &DseOptions,
) -> AppDseOutcome {
    let job = Budget {
        deadline: options.job_deadline,
        cancel: Some(apex_fault::interrupt::flag()),
        ..Budget::default()
    }
    .start();

    #[cfg(feature = "fault-injection")]
    if apex_fault::failpoints::should_fire("sweep::job_timeout") {
        // simulated hung job: an un-budgeted loop that only the job's own
        // deadline or a sweep interrupt can stop — this is the no-hang
        // guarantee's worst case
        let mut hung = job;
        while hung.check_slow() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let cause = if hung.provenance() == apex_fault::Provenance::TimedOut {
            "job deadline"
        } else {
            "sweep interrupt"
        };
        return DseOutcome::degraded(
            Err(ApexError::new(
                Stage::Sweep,
                format!("hung job cancelled by {cause}"),
            )),
            vec![Degradation::new(
                Stage::Sweep,
                DegradationKind::TimedOut,
                format!("injected hang cancelled by {cause}; application skipped"),
            )],
        );
    }

    let mut outcome = resilient_flow(variant, app, tech, options, Some(&job));
    if job.remaining() == Some(Duration::ZERO) {
        outcome.degradations.push(Degradation::new(
            Stage::Sweep,
            DegradationKind::TimedOut,
            "job exceeded its deadline; result is the cancelled incumbent",
        ));
    }
    outcome
}

/// One reported outcome standing in for an evaluation whose variant never
/// built.
fn failed_variant_outcome(e: &ApexError) -> AppDseOutcome {
    DseOutcome::degraded(
        Err(ApexError::new(e.stage(), e.message())),
        vec![Degradation::new(
            e.stage(),
            DegradationKind::Skipped,
            format!("variant construction failed ({e}); application skipped"),
        )],
    )
}

/// One reported outcome standing in for an evaluation whose worker thread
/// panicked: the panic is funneled into the error hierarchy
/// ([`Stage::Sweep`], payload on the cause chain) instead of unwinding the
/// sweep.
fn panicked_outcome(p: apex_par::JobPanic, app: &Application) -> AppDseOutcome {
    let detail = format!(
        "evaluation worker panicked ({}); application {} skipped",
        p.payload, app.info.name
    );
    DseOutcome::degraded(
        Err(p.into_apex(Stage::Sweep)),
        vec![Degradation::new(Stage::Sweep, DegradationKind::Skipped, detail)],
    )
}

/// Evaluates a whole application suite on a variant that may itself have
/// failed to build: a failed variant becomes one reported (degraded)
/// outcome per application instead of aborting the sweep.
///
/// Runs on the bounded `apex-par` pool with `options.jobs` workers
/// (`0` = auto); outcomes come back in `apps` order and are bit-identical
/// to a serial run regardless of the job count. A panicking worker costs
/// only its own application's outcome (reported under [`Stage::Sweep`]).
pub fn dse_evaluate_suite(
    variant: &Result<PeVariant, ApexError>,
    apps: &[&Application],
    tech: &TechModel,
    options: &DseOptions,
) -> Vec<AppDseOutcome> {
    match variant {
        Ok(v) => apex_par::par_map(effective_jobs(options.jobs), apps, |_, a| {
            sweep_job(v, a, tech, options)
        })
        .into_iter()
        .zip(apps)
        .map(|(r, app)| r.unwrap_or_else(|p| panicked_outcome(p, app)))
        .collect(),
        Err(e) => apps.iter().map(|_| failed_variant_outcome(e)).collect(),
    }
}

/// Evaluates a whole (variant × application) grid — the shape of every
/// sweep in the paper's evaluation (Fig. 11/15/16, Tables 2–3) — over the
/// bounded job pool, parallelizing across the *flattened* grid so a slow
/// variant cannot serialize the sweep. `out[v][a]` is variant `v` on
/// application `a`, in input order, bit-identical to nested serial loops.
pub fn dse_evaluate_grid(
    variants: &[Result<PeVariant, ApexError>],
    apps: &[&Application],
    tech: &TechModel,
    options: &DseOptions,
) -> Vec<Vec<AppDseOutcome>> {
    let pairs: Vec<(usize, usize)> = (0..variants.len())
        .flat_map(|v| (0..apps.len()).map(move |a| (v, a)))
        .collect();
    let mut flat = apex_par::par_map(effective_jobs(options.jobs), &pairs, |_, &(v, a)| {
        match &variants[v] {
            Ok(variant) => sweep_job(variant, apps[a], tech, options),
            Err(e) => failed_variant_outcome(e),
        }
    })
    .into_iter();
    let mut out = Vec::with_capacity(variants.len());
    for _ in 0..variants.len() {
        let mut row = Vec::with_capacity(apps.len());
        for app in apps {
            // pairs.len() == variants.len() * apps.len(), so the iterator
            // cannot run dry; a panicked worker yields a reported outcome
            let r = flat
                .next()
                .unwrap_or_else(|| {
                    Err(apex_par::JobPanic {
                        index: 0,
                        payload: "grid result missing".to_owned(),
                    })
                })
                .unwrap_or_else(|p| panicked_outcome(p, app));
            row.push(r);
        }
        out.push(row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variant::baseline_variant;
    use apex_apps::{gaussian, harris};

    #[test]
    fn clean_flow_reports_no_degradations() {
        let app = gaussian();
        let tech = TechModel::default();
        let v = baseline_variant(&[&app]).unwrap();
        let outcome = dse_evaluate_app(&v, &app, &tech, &DseOptions::default());
        assert!(!outcome.is_degraded(), "{}", outcome.degradation_summary());
        assert!(outcome.result.is_ok());
    }

    /// Idle supervision is invisible: a sweep job with no deadline (and
    /// no interrupt) reports exactly what [`dse_evaluate_app`] does.
    #[test]
    fn supervised_with_idle_watchdog_matches_unsupervised() {
        let app = gaussian();
        let tech = TechModel::default();
        let v = baseline_variant(&[&app]).unwrap();
        let options = DseOptions::default();
        let plain = dse_evaluate_app(&v, &app, &tech, &options);
        let job = sweep_job(&v, &app, &tech, &options);
        assert_eq!(format!("{plain:?}"), format!("{job:?}"));
    }

    #[test]
    fn expired_job_deadline_degrades_every_suite_outcome() {
        let apps = [gaussian(), harris()];
        let refs: Vec<&Application> = apps.iter().collect();
        let tech = TechModel::default();
        let v = baseline_variant(&refs);
        let options = DseOptions {
            jobs: 2,
            job_deadline: Some(Duration::ZERO),
            ..DseOptions::default()
        };
        let outcomes = dse_evaluate_suite(&v, &refs, &tech, &options);
        assert_eq!(outcomes.len(), apps.len());
        for (app, o) in apps.iter().zip(&outcomes) {
            // the route budget inherits the job's expired deadline
            match &o.result {
                Err(e) => assert!(
                    e.stage() == Stage::Route && e.message().contains("timeout"),
                    "{}: {e}",
                    app.info.name
                ),
                Ok(_) => panic!("{}: routed past an expired job deadline", app.info.name),
            }
            assert!(
                o.degradations
                    .iter()
                    .any(|d| d.stage == Stage::Sweep && d.kind == DegradationKind::TimedOut),
                "{}: expected a sweep timeout, got [{}]",
                app.info.name,
                o.degradation_summary()
            );
        }
    }

    #[test]
    fn route_timeout_is_reported_not_fatal_to_the_sweep() {
        let app = gaussian();
        let tech = TechModel::default();
        let v = baseline_variant(&[&app]).unwrap();
        let mut options = DseOptions::default();
        options.route_relax_retry = false;
        options.eval.route.budget =
            apex_fault::Budget::unlimited().with_deadline(Duration::ZERO);
        let outcome = dse_evaluate_app(&v, &app, &tech, &options);
        assert!(outcome.is_degraded());
        assert!(outcome.result.is_err());
        assert!(outcome
            .degradations
            .iter()
            .any(|d| d.stage == Stage::Route));
    }

    #[test]
    fn failed_variant_yields_one_reported_outcome_per_app() {
        let app = gaussian();
        let tech = TechModel::default();
        let failed: Result<PeVariant, ApexError> =
            Err(ApexError::new(Stage::Rewrite, "injected for test"));
        let outcomes = dse_evaluate_suite(&failed, &[&app, &app], &tech, &DseOptions::default());
        assert_eq!(outcomes.len(), 2);
        for o in &outcomes {
            assert!(o.is_degraded());
            assert!(o.result.is_err());
        }
    }

    #[test]
    fn merge_budget_timeout_still_yields_a_working_variant() {
        use apex_merge::MergeOptions;
        use apex_mining::MinerConfig;
        use std::collections::BTreeSet;

        let app = gaussian();
        let tech = TechModel::default();
        let merge_opts = MergeOptions {
            budget: MergeOptions::default().budget.with_deadline(Duration::ZERO),
        };
        let v = crate::variant::specialized_variant(
            "pe_merge_timeout",
            &[&app],
            &[&app],
            &MinerConfig::default(),
            &crate::variant::SubgraphSelection::default(),
            &merge_opts,
            &tech,
            &BTreeSet::new(),
        )
        .unwrap();
        // the timed-out clique search degrades to the greedy incumbent,
        // which must still be a working PE for the full backend
        assert!(v
            .degradations
            .iter()
            .any(|d| d.stage == Stage::Merge),
            "expected a merge degradation, got {:?}", v.degradations);
        let outcome = dse_evaluate_app(&v, &app, &tech, &DseOptions::default());
        assert!(outcome.result.is_ok(), "degraded merge must still evaluate");
        assert!(outcome.is_degraded());
    }
}
