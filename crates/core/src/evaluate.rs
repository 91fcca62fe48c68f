//! Full-flow evaluation of a PE variant on an application: map →
//! (optionally) pipeline → place → route → report, producing the numbers
//! behind every table and figure of the paper's Section 5.

use crate::dse::{resilient_flow, DseOptions};
use crate::variant::PeVariant;
use apex_apps::Application;
use apex_cgra::{
    pe_energy_per_cycle, AreaBreakdown, EnergyBreakdown, FabricConfig, PlaceOptions, PnrStats,
    RouteOptions,
};
use apex_fault::ApexError;
use apex_map::{map_application, MapStats};
use apex_pipeline::{AppPipelineOptions, AppPipelineReport, PePipelineOptions};
use apex_tech::TechModel;

/// Evaluation options for the whole backend flow.
#[derive(Debug, Clone, Default)]
pub struct EvalOptions {
    /// Fabric parameters.
    pub fabric: FabricConfig,
    /// Placement parameters.
    pub place: PlaceOptions,
    /// Routing parameters.
    pub route: RouteOptions,
    /// PE pipelining parameters.
    pub pe_pipeline: PePipelineOptions,
    /// Application pipelining parameters.
    pub app_pipeline: AppPipelineOptions,
    /// Apply automated PE + application pipelining (Fig. 16's
    /// "post-pipelining").
    pub pipelined: bool,
}

/// Complete evaluation of one (variant, application) pair.
#[derive(Debug, Clone)]
pub struct AppEvaluation {
    /// Application name.
    pub app: String,
    /// Variant name.
    pub variant: String,
    /// Mapping statistics (`#PE` etc.).
    pub mapping: MapStats,
    /// Application pipelining report (zeros when `pipelined` is off).
    pub pipelining: AppPipelineReport,
    /// PE pipeline depth used (1 = combinational).
    pub pe_stages: u32,
    /// Post-place-and-route utilization (Table 3 row).
    pub pnr: PnrStats,
    /// CGRA area breakdown (Fig. 15).
    pub area: AreaBreakdown,
    /// CGRA energy per steady-state cycle (Fig. 15).
    pub energy_per_cycle: EnergyBreakdown,
    /// Achieved clock period, ns.
    pub period_ns: f64,
    /// Cycles to process one frame/layer.
    pub runtime_cycles: u64,
    /// PE-core-only totals (Fig. 11 / Fig. 14): area µm².
    pub pe_core_area: f64,
    /// PE-core-only energy per frame, nJ.
    pub pe_core_energy_nj: f64,
}

impl AppEvaluation {
    /// Runtime for one frame/layer, milliseconds.
    pub fn runtime_ms(&self) -> f64 {
        self.runtime_cycles as f64 * self.period_ns * 1e-6
    }

    /// Total CGRA energy for one frame/layer, microjoules.
    pub fn total_energy_uj(&self) -> f64 {
        self.energy_per_cycle.total() * self.runtime_cycles as f64 * 1e-6
    }

    /// The paper's Table 2 metric: frames per millisecond per mm².
    pub fn perf_per_mm2(&self) -> f64 {
        let frames_per_ms = 1.0 / self.runtime_ms();
        let mm2 = self.area.total() * 1e-6;
        frames_per_ms / mm2
    }

    /// Performance per mm² using PE area only (Table 2 uses total PE
    /// area).
    pub fn perf_per_pe_mm2(&self) -> f64 {
        let frames_per_ms = 1.0 / self.runtime_ms();
        let mm2 = self.pe_core_area * 1e-6;
        frames_per_ms / mm2
    }
}

/// Quick post-mapping estimate (no place-and-route): PE count, total PE
/// area (µm²), and PE energy per cycle (pJ) — the minutes-scale signal the
/// paper uses to decide which PEs to investigate further (Section 5.3.1).
///
/// # Errors
/// Propagates mapping failures.
pub fn post_mapping_estimate(
    variant: &PeVariant,
    app: &Application,
    tech: &TechModel,
) -> Result<(usize, f64, f64), ApexError> {
    let design = map_application(&app.graph, &variant.spec.datapath, &variant.rules)?;
    let pe_area = variant.spec.area(tech).total();
    let energy = pe_energy_per_cycle(&design.netlist, &variant.rules, &variant.spec, tech);
    Ok((
        design.stats.pe_count,
        design.stats.pe_count as f64 * pe_area,
        energy,
    ))
}

/// Runs the full backend for one variant and application with no
/// concessions: the one flow behind [`crate::dse_evaluate_app`], with no
/// placement retry and no relaxed routing retry, failing wherever that
/// flow would degrade instead (a pipelining fallback, a budget-cut
/// routing). Concessions made while building the variant are not this
/// evaluation's and do not fail it.
///
/// # Errors
/// The stage failure that stopped the flow, or else the first concession
/// it recorded, under that concession's stage.
pub fn evaluate_app(
    variant: &PeVariant,
    app: &Application,
    tech: &TechModel,
    options: &EvalOptions,
) -> Result<AppEvaluation, ApexError> {
    let strict = DseOptions {
        eval: options.clone(),
        place_retries: 0,
        route_relax_retry: false,
        ..DseOptions::default()
    };
    let outcome = resilient_flow(variant, app, tech, &strict, None);
    let eval = outcome.result?;
    match outcome.degradations.into_iter().nth(variant.degradations.len()) {
        Some(d) => Err(ApexError::new(d.stage, d.detail)),
        None => Ok(eval),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variant::{baseline_variant, pe1_variant};
    use apex_apps::gaussian;
    use apex_fault::Stage;
    use std::time::Duration;

    #[test]
    fn gaussian_evaluates_on_baseline_end_to_end() {
        let app = gaussian();
        let tech = TechModel::default();
        let v = baseline_variant(&[&app]).unwrap();
        let eval = evaluate_app(&v, &app, &tech, &EvalOptions::default()).unwrap();
        assert!(eval.pnr.pe_tiles > 0);
        assert!(eval.area.total() > 0.0);
        assert!(eval.energy_per_cycle.total() > 0.0);
        assert!(eval.runtime_ms() > 0.0);
        assert!(eval.perf_per_mm2() > 0.0);
    }

    #[test]
    fn pe1_beats_baseline_on_area_and_energy() {
        let app = gaussian();
        let tech = TechModel::default();
        let base = evaluate_app(
            &baseline_variant(&[&app]).unwrap(),
            &app,
            &tech,
            &EvalOptions::default(),
        )
        .unwrap();
        let pe1 = evaluate_app(
            &pe1_variant("pe1_gauss", &[&app], &[&app]).unwrap(),
            &app,
            &tech,
            &EvalOptions::default(),
        )
        .unwrap();
        assert!(pe1.pe_core_area < base.pe_core_area);
        assert!(pe1.energy_per_cycle.pe < base.energy_per_cycle.pe);
    }

    #[test]
    fn pipelining_improves_clock_at_area_cost() {
        let app = gaussian();
        let tech = TechModel::default();
        let v = baseline_variant(&[&app]).unwrap();
        let flat = evaluate_app(&v, &app, &tech, &EvalOptions::default()).unwrap();
        let piped = evaluate_app(
            &v,
            &app,
            &tech,
            &EvalOptions {
                pipelined: true,
                ..EvalOptions::default()
            },
        )
        .unwrap();
        assert!(piped.period_ns <= flat.period_ns);
        assert!(piped.runtime_cycles >= flat.runtime_cycles, "fill latency");
    }

    #[test]
    fn expired_route_deadline_fails_the_strict_flow_at_route() {
        let app = gaussian();
        let tech = TechModel::default();
        let v = baseline_variant(&[&app]).unwrap();
        let mut options = EvalOptions::default();
        options.route.budget = apex_fault::Budget::unlimited().with_deadline(Duration::ZERO);
        let err = evaluate_app(&v, &app, &tech, &options).unwrap_err();
        assert_eq!(err.stage(), Stage::Route, "{err}");
    }
}
