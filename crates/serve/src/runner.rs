//! Job execution: the [`JobRunner`] trait the server drives, and the
//! real [`DseRunner`] that runs the APEX pipeline on a submitted DFG.
//!
//! The trait exists so the server's robustness envelope (admission,
//! drain, timeouts, resume) is testable with fast fake runners; only the
//! CLI and the smoke tests pay for real DSE.

use apex_apps::Application;
use apex_core::{JobReport, PeVariant};
use apex_fault::{ApexError, Budget, Meter, Provenance, Stage};
use apex_tech::TechModel;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// Everything one job execution needs.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Cache namespace the job's variant builds live under.
    pub tenant: String,
    /// DFG text (the `apex save` format).
    pub graph: String,
    /// Cooperative deadline for the whole job.
    pub deadline: Duration,
    /// Drain flag: when set, give up quickly and report
    /// [`Provenance::Cancelled`] (the server then leaves the job
    /// un-journaled so resume re-runs it).
    pub cancel: Arc<AtomicBool>,
}

/// Runs one submitted job to a report.
pub trait JobRunner: Send + Sync + 'static {
    /// Executes the job. Returning a report with
    /// [`Provenance::Cancelled`] means "interrupted, re-run me on
    /// resume"; any other provenance is a conclusion and is journaled.
    ///
    /// # Errors
    /// A pipeline error; the server journals it as a concluded failure.
    fn run(&self, spec: &JobSpec) -> Result<JobReport, ApexError>;
}

/// The production runner: parse → specialize (cached per tenant) →
/// post-mapping estimates, the same flow as `apex dse-file` (both call
/// [`parse_application`] and [`dse_payload`]), with the deadline and the
/// drain flag plumbed into every budgeted stage.
#[derive(Debug, Default)]
pub struct DseRunner;

impl JobRunner for DseRunner {
    fn run(&self, spec: &JobSpec) -> Result<JobReport, ApexError> {
        // the job budget: its meter is consulted between pipeline phases
        // so a drain or deadline stops the job at the next phase boundary
        // even if an inner stage lacks its own budget, and mining runs
        // under the same budget so cancellation lands mid-mine too
        let budget = Budget::from_env()
            .with_deadline(spec.deadline)
            .with_cancel(Arc::clone(&spec.cancel));
        let mut meter = budget.start();

        let app = parse_application(&spec.graph, "submitted graph")?;
        if !meter.check_slow() {
            return Ok(interrupted_report(&meter));
        }

        let tech = TechModel::default();
        let miner = apex_mining::MinerConfig {
            budget,
            ..apex_mining::MinerConfig::default()
        };
        let tenant = spec.tenant.clone();
        let build = || -> Result<_, ApexError> {
            let spec_variant = apex_core::most_specialized_variant(
                &app,
                &miner,
                &apex_merge::MergeOptions::default(),
                &tech,
                4,
            )?;
            let base = apex_core::baseline_variant(&[&app])?;
            Ok((spec_variant, base))
        };
        let built = if tenant.is_empty() {
            build()
        } else {
            apex_core::with_thread_tenant(&tenant, build)
        };
        let (spec_variant, base) = match built {
            Ok(v) => v,
            Err(e) => {
                // distinguish "the drain flag stopped the build" from a
                // real pipeline failure: interrupted work must stay
                // pending, not be journaled as failed
                if !meter.check_slow() {
                    return Ok(interrupted_report(&meter));
                }
                return Err(e);
            }
        };
        if !meter.check_slow() {
            return Ok(interrupted_report(&meter));
        }

        let payload = dse_payload(&app, &spec_variant, &base, &tech)?;
        Ok(JobReport {
            payload,
            provenance: Provenance::Completed,
            degradations: "-".to_owned(),
        })
    }
}

/// Parses DFG text (the `apex save` format) into the application a
/// custom-graph job runs on; `label` (`apex dse-file` passes the file
/// path) prefixes the message of the [`Stage::Parse`] error it may return.
///
/// # Errors
/// Malformed text or a graph that fails validation.
pub fn parse_application(text: &str, label: &str) -> Result<Application, ApexError> {
    let parse_error =
        |e: &dyn std::fmt::Display| ApexError::new(Stage::Parse, format!("{label}: {e}"));
    let graph = apex_ir::from_text(text).map_err(|e| parse_error(&e))?;
    graph.try_validate().map_err(|e| parse_error(&e))?;
    Ok(Application::new(
        apex_apps::AppInfo {
            name: graph.name().to_owned(),
            domain: apex_apps::Domain::ImageProcessing,
            description: format!("custom graph from {label}"),
            mem_tiles: 8,
            io_tiles: 4,
            unroll: 1,
            output_pixels: 1 << 20,
        },
        graph,
    ))
}

/// A custom-graph job's three-line result: the application's size, then
/// the post-mapping estimate of the baseline and of the specialized PE.
///
/// # Errors
/// A variant that cannot map the application.
pub fn dse_payload(
    app: &Application,
    spec: &PeVariant,
    base: &PeVariant,
    tech: &TechModel,
) -> Result<String, ApexError> {
    let (bn, ba, be) = apex_core::post_mapping_estimate(base, app, tech)?;
    let (sn, sa, se) = apex_core::post_mapping_estimate(spec, app, tech)?;
    Ok(format!(
        "custom app '{}': {} compute ops\nbaseline   : {bn} PEs, {ba:.0} um2, {be:.1} pJ/cycle\nspecialized: {sn} PEs, {sa:.0} um2, {se:.1} pJ/cycle ({} subgraphs merged)\n",
        app.info.name,
        app.graph.compute_op_count(),
        spec.sources.len(),
    ))
}

/// The report for a job stopped by the drain flag or its deadline: the
/// server journals a [`Provenance::TimedOut`] conclusion (re-running
/// would time out again) but leaves a [`Provenance::Cancelled`] job
/// pending for resume.
fn interrupted_report(meter: &Meter) -> JobReport {
    let provenance = match meter.provenance() {
        Provenance::Completed => Provenance::Cancelled,
        p => p,
    };
    JobReport {
        payload: format!("# job stopped early ({})\n", provenance.marker()),
        provenance,
        degradations: provenance.marker().to_owned(),
    }
}
