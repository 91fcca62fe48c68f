//! `specialize`: the `apex dse-file` flow, which is also the daemon's
//! job. One op parses one suite application from DFG text, builds its
//! most specialized PE (4 steps), the baseline PE, and both post-mapping
//! estimates, with the variant cache off. Frontend-heavy: mining and
//! subgraph selection dominate.

use crate::golden::{golden, random_vector};
use crate::stats::{round_order, Phase, Rng, Tally};
use crate::trace::Tracer;
use crate::{Ctx, Outcome, SETUP_REPS, WARMUP_ROUND};
use apex_apps::{analyzed_apps, unseen_apps, AppInfo, Application, Domain};
use apex_cgra::{place_cached, route, verify_routed, Fabric, PlaceOptions, RouteOptions};
use apex_core::{
    baseline_variant, evaluate_app, most_specialized_variant, post_mapping_estimate,
    required_op_kinds, select_subgraphs, specialized_variant, EvalOptions, PeVariant,
    SubgraphSelection,
};
use apex_map::map_application;
use apex_merge::{merge_graph, MergeOptions};
use apex_mining::{mine, MinerConfig};
use apex_pe::{baseline_pe, baseline_pe_with_ops};
use apex_rewrite::try_standard_ruleset;
use apex_tech::TechModel;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Specialization steps, as `apex dse-file` and the daemon use.
const MAX_STEPS: usize = 4;
/// Input vectors checked per op.
const VECTORS: usize = 4;

/// The nine suite applications as `(name, DFG text)`.
pub fn suite_texts() -> Vec<(String, String)> {
    analyzed_apps()
        .into_iter()
        .chain(unseen_apps())
        .map(|a| (a.info.name.clone(), apex_ir::to_text(&a.graph)))
        .collect()
}

/// Parses and validates DFG text into an application, as `apex dse-file`
/// does.
fn parse(text: &str) -> Result<Application, String> {
    let graph = apex_ir::from_text(text).map_err(|e| format!("parse: {e}"))?;
    graph.try_validate().map_err(|e| format!("validate: {e}"))?;
    Ok(Application::new(
        AppInfo {
            name: graph.name().to_owned(),
            domain: Domain::ImageProcessing,
            description: "benchmark input".to_owned(),
            mem_tiles: 8,
            io_tiles: 4,
            unroll: 1,
            output_pixels: 1 << 20,
        },
        graph,
    ))
}

/// One op: the `apex dse-file` flow. Returns the printed payload, the
/// parsed application and the chosen PE.
pub fn dse_file(text: &str, tech: &TechModel) -> Result<(String, Application, PeVariant), String> {
    let app = parse(text)?;
    let miner = MinerConfig::default();
    let spec = most_specialized_variant(&app, &miner, &MergeOptions::default(), tech, MAX_STEPS)
        .map_err(|e| e.render_chain())?;
    let base = baseline_variant(&[&app]).map_err(|e| e.render_chain())?;
    let (bn, ba, be) = post_mapping_estimate(&base, &app, tech).map_err(|e| e.to_string())?;
    let (sn, sa, se) = post_mapping_estimate(&spec, &app, tech).map_err(|e| e.to_string())?;
    let payload = format!(
        "custom app '{}': {} compute ops\nbaseline   : {bn} PEs, {ba:.0} um2, {be:.1} pJ/cycle\nspecialized: {sn} PEs, {sa:.0} um2, {se:.1} pJ/cycle ({} subgraphs merged)\n",
        app.info.name,
        app.graph.compute_op_count(),
        spec.sources.len()
    );
    Ok((payload, app, spec))
}

/// Output check: the payload repeats byte for byte across rounds, and the
/// chosen PE's mapping computes what the IR interpreter computes.
fn check(
    out: Result<(String, Application, PeVariant), String>,
    reference: &mut BTreeMap<String, String>,
    rng: &mut Rng,
) -> Result<(), String> {
    let (payload, app, spec) = out?;
    let name = &app.info.name;
    let first = reference
        .entry(name.clone())
        .or_insert_with(|| payload.clone());
    if *first != payload {
        return Err(format!("{name}: payload differs from the first round"));
    }
    let design = map_application(&app.graph, &spec.spec.datapath, &spec.rules)
        .map_err(|e| format!("{name}: remap: {e}"))?;
    for _ in 0..VECTORS {
        let v = random_vector(&app.graph, rng);
        let got = design
            .netlist
            .evaluate(&spec.spec.datapath, &spec.rules, &v.words, &v.bits)
            .map_err(|e| format!("{name}: netlist evaluate: {e}"))?;
        if got != golden(&app.graph, &v) {
            return Err(format!(
                "{name}: mapped PE disagrees with the IR interpreter"
            ));
        }
    }
    Ok(())
}

/// The variants `most_specialized_variant` evaluates for one app, in
/// order, and the index of the one it returns. The traced replay merges
/// and maps exactly these.
struct Plan {
    steps: Vec<(usize, PeVariant)>,
    chosen: usize,
}

/// Builds the plan with the same stopping rule as
/// `most_specialized_variant` (crates/core/src/variant.rs).
fn plan(text: &str, tech: &TechModel) -> Result<Plan, String> {
    let app = parse(text)?;
    let mut options = EvalOptions::default();
    options.place.moves = 4_000;
    let mut steps = Vec::new();
    let mut best: Option<(usize, f64, f64)> = None;
    for k in 0..=MAX_STEPS {
        let v = specialized_variant(
            &format!("pe_spec_{}", app.info.name),
            &[&app],
            &[&app],
            &MinerConfig::default(),
            &selection(k),
            &MergeOptions::default(),
            tech,
            &BTreeSet::new(),
        )
        .map_err(|e| e.render_chain())?;
        let Ok(eval) = evaluate_app(&v, &app, tech, &options) else {
            break;
        };
        let (area, energy) = (eval.area.total(), eval.energy_per_cycle.total());
        steps.push((k, v));
        match best {
            None => best = Some((0, area, energy)),
            Some((_, ba, be)) if area <= ba * 1.005 && energy <= be * 1.005 => {
                best = Some((steps.len() - 1, area.min(ba), energy.min(be)));
            }
            Some(_) => break,
        }
    }
    let chosen = best.ok_or("no evaluable variant")?.0;
    Ok(Plan { steps, chosen })
}

fn selection(per_app: usize) -> SubgraphSelection {
    SubgraphSelection {
        per_app,
        ..SubgraphSelection::default()
    }
}

/// The traced op: the same flow replayed as its sequence of public layer
/// calls, each under a span. Mining runs once more per step than in the
/// untraced op, so `core.select` (which mines internally) can be split
/// into its mining and its selection.
fn replay(text: &str, plan: &Plan, tech: &TechModel, tr: &mut Tracer) -> Result<(), String> {
    let app = tr.span("ir.parse", |_| parse(text))?;
    let miner = MinerConfig::default();
    let merge_opts = MergeOptions::default();
    let kinds = required_op_kinds(&[&app]);
    let name = format!("pe_spec_{}", app.info.name);
    let place_opts = PlaceOptions {
        moves: 4_000,
        ..PlaceOptions::default()
    };
    for (k, v) in &plan.steps {
        let mined = tr.span("mining.mine", |_| mine(&app.graph, &miner));
        tr.count(
            "mining.patterns",
            mined.map_err(|e| e.to_string())?.subgraphs.len() as f64,
        );
        let selected = tr.span("core.select", |_| {
            select_subgraphs(&app, &miner, &selection(*k))
        });
        tr.count(
            "core.selected",
            selected.map_err(|e| e.to_string())?.0.len() as f64,
        );
        let dp = tr.span("merge.merge", |tr| {
            let mut dp = baseline_pe_with_ops(&name, &kinds).datapath;
            for src in &v.sources {
                let (next, report) =
                    merge_graph(&dp, src, tech, &merge_opts).map_err(|e| e.to_string())?;
                tr.count("merge.candidates", report.candidates as f64);
                if report.provenance != apex_fault::Provenance::Completed {
                    tr.count("merge.truncated", 1.0);
                }
                dp = next;
            }
            Ok::<_, String>(dp)
        })?;
        if dp.configs.len() != v.spec.datapath.configs.len() {
            return Err(format!(
                "{name} step {k}: replayed merge differs from the built PE"
            ));
        }
        let (rules, _) = tr
            .span("rewrite.synth", |_| {
                try_standard_ruleset(&dp, &v.sources, &[&app.graph])
            })
            .map_err(|e| e.render_chain())?;
        tr.count("rewrite.rules", rules.len() as f64);
        if rules.len() != v.rules.len() {
            return Err(format!(
                "{name} step {k}: replayed synthesis differs from the built PE"
            ));
        }
        let design = tr
            .span("map.map", |_| {
                map_application(&app.graph, &v.spec.datapath, &v.rules)
            })
            .map_err(|e| e.to_string())?;
        tr.count("map.pe_count", design.stats.pe_count as f64);
        let fabric = Fabric::new(apex_cgra::FabricConfig::default());
        let placement = tr
            .span("cgra.place", |_| {
                place_cached(&design.netlist, &fabric, &place_opts)
            })
            .map_err(|e| e.to_string())?;
        let routing = tr
            .span("cgra.route", |_| {
                route(
                    &design.netlist,
                    &v.rules,
                    &fabric,
                    &placement,
                    &RouteOptions::default(),
                )
            })
            .map_err(|e| e.to_string())?;
        tr.count("cgra.route_iterations", routing.iterations as f64);
        tr.span("cgra.verify", |_| {
            verify_routed(&design.netlist, &v.rules, &fabric, &placement, &routing)
        })?;
    }
    let base = baseline_pe();
    let (base_rules, _) = tr
        .span("rewrite.synth", |_| {
            try_standard_ruleset(&base.datapath, &[], &[&app.graph])
        })
        .map_err(|e| e.render_chain())?;
    let chosen = &plan.steps[plan.chosen].1;
    for (dp, rules) in [
        (&base.datapath, &base_rules),
        (&chosen.spec.datapath, &chosen.rules),
    ] {
        tr.span("map.map", |_| map_application(&app.graph, dp, rules))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let tech = TechModel::default();
    let mut tally = Tally::default();
    let mut reference = BTreeMap::new();
    let mut rng = Rng::new(ctx.seed, u64::MAX);
    let mut setup_s = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        inputs = suite_texts();
        let built = t0.elapsed();
        // the warm-up round counts as set-up; its output checks do not
        let mut warm = Phase::default();
        for i in round_order(ctx.seed, WARMUP_ROUND, inputs.len()) {
            let out = warm.time(|| dse_file(&inputs[i].1, &tech));
            tally.record(check(out, &mut reference, &mut rng));
        }
        setup_s.push(built.as_secs_f64() + warm.total_s());
    }

    let n = inputs.len();
    let mut timed = Phase::default();
    let mut round = WARMUP_ROUND + 1;
    let (plain, traced) = ctx.phase_budgets();
    let t0 = Instant::now();
    while t0.elapsed() < plain {
        for i in round_order(ctx.seed, round, n) {
            let out = timed.time(|| dse_file(&inputs[i].1, &tech));
            tally.record(check(out, &mut reference, &mut rng));
        }
        round += 1;
    }

    let mut tracer = Tracer::new(ctx.trace);
    if ctx.trace {
        let plans = inputs
            .iter()
            .map(|(_, text)| plan(text, &tech))
            .collect::<Result<Vec<_>, _>>()?;
        let t0 = Instant::now();
        while t0.elapsed() < traced {
            for i in round_order(ctx.seed, round, n) {
                let r = tracer.op(|tr| replay(&inputs[i].1, &plans[i], &tech, tr));
                tally.record(r);
            }
            round += 1;
        }
    }
    Ok(Outcome {
        setup_s,
        timed,
        tracer,
        tally,
        gauges: Vec::new(),
        notes: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_payload_is_a_failure() {
        let tech = TechModel::default();
        let text = &suite_texts()
            .into_iter()
            .find(|(n, _)| n == "mobilenet")
            .expect("mobilenet is a suite app")
            .1;
        let mut reference = BTreeMap::new();
        let mut rng = Rng::new(1, 2);
        let mut tally = Tally::default();
        tally.record(check(dse_file(text, &tech), &mut reference, &mut rng));
        tally.record(check(dse_file(text, &tech), &mut reference, &mut rng));
        assert_eq!(tally.failed, 0);
        let (payload, app, spec) = dse_file(text, &tech).expect("flow runs");
        let corrupted = (payload.replace("PEs", "PEz"), app, spec);
        tally.record(check(Ok(corrupted), &mut reference, &mut rng));
        assert_eq!(
            tally,
            Tally {
                attempted: 3,
                failed: 1
            }
        );
    }
}
