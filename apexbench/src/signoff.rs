//! `signoff`: the `apex verify` / full-flow backend for one (variant,
//! application, pipelined) tuple. Map, optionally pipeline, place
//! (uncached), route, verify, emit the bitstream, and simulate the fabric
//! from it. Mining, merge and synthesis happen once, in set-up.

use crate::golden::{golden, random_vector};
use crate::stats::{round_order, Phase, Rng, Tally};
use crate::trace::Tracer;
use crate::{Ctx, Outcome, SETUP_REPS, WARMUP_ROUND};
use apex_apps::{analyzed_apps, ip_apps, ml_apps, unseen_apps, Application, Domain};
use apex_cgra::{
    generate_bitstream, place, route, simulate_from_bitstream, verify_routed, Fabric, FabricConfig,
    PlaceOptions, RouteOptions,
};
use apex_core::{baseline_variant, specialized_variant, PeVariant, SubgraphSelection};
use apex_ir::OpKind;
use apex_map::{map_application, SimStreams};
use apex_merge::MergeOptions;
use apex_mining::MinerConfig;
use apex_pipeline::{auto_pipeline, pipeline_application, AppPipelineOptions, PePipelineOptions};
use apex_tech::TechModel;
use std::collections::BTreeSet;
use std::time::Instant;

/// Input cycles streamed through the fabric per op. Chosen so that neither
/// simulation nor place + route exceeds about two thirds of an op.
pub const CYCLES: usize = 64;
/// Annealing moves, as the report's `eval_options` uses.
const PLACE_MOVES: usize = 8_000;

const BASELINE: usize = 0;
const PE_IP: usize = 1;
const PE_ML: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Tuple {
    pub variant: usize,
    pub app: usize,
    pub pipelined: bool,
}

/// The report's evaluation set: the baseline on all nine apps, PE IP on
/// the image-processing and unseen apps, PE ML on the ML apps; each
/// unpipelined and pipelined.
pub fn tuples(apps: &[Application]) -> Vec<Tuple> {
    let mut out = Vec::new();
    for pipelined in [false, true] {
        for (variant, domain) in [
            (BASELINE, None),
            (PE_IP, Some(Domain::ImageProcessing)),
            (PE_ML, Some(Domain::MachineLearning)),
        ] {
            for (app, a) in apps.iter().enumerate() {
                if domain.is_none_or(|d| a.info.domain == d) {
                    out.push(Tuple {
                        variant,
                        app,
                        pipelined,
                    });
                }
            }
        }
    }
    out
}

fn all_apps() -> Vec<Application> {
    analyzed_apps().into_iter().chain(unseen_apps()).collect()
}

/// The report's three variants (crates/eval/src/context.rs), built
/// directly so that every set-up repetition pays for them.
fn build_variants(apps: &[Application], tech: &TechModel) -> Result<Vec<PeVariant>, String> {
    let miner = MinerConfig {
        max_patterns: 500,
        ..MinerConfig::default()
    };
    let all: Vec<&Application> = apps.iter().collect();
    let ip = ip_apps();
    let ip_refs: Vec<&Application> = ip.iter().collect();
    let ip_eval: Vec<&Application> = apps
        .iter()
        .filter(|a| a.info.domain == Domain::ImageProcessing)
        .collect();
    let ml = ml_apps();
    let ml_refs: Vec<&Application> = ml.iter().collect();
    let extra: BTreeSet<OpKind> = [OpKind::Lut, OpKind::BitConst, OpKind::Abs]
        .into_iter()
        .collect();
    let variants = vec![
        baseline_variant(&all),
        specialized_variant(
            "pe_ip",
            &ip_refs,
            &ip_eval,
            &miner,
            &SubgraphSelection::default(),
            &MergeOptions::default(),
            tech,
            &extra,
        ),
        specialized_variant(
            "pe_ml",
            &ml_refs,
            &ml_refs,
            &miner,
            &SubgraphSelection {
                per_app: 2,
                ..SubgraphSelection::default()
            },
            &MergeOptions::default(),
            tech,
            &BTreeSet::new(),
        ),
    ];
    let variants = variants
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.render_chain())?;
    for v in &variants {
        if !v.synthesis.missing.is_empty() {
            return Err(format!(
                "{} cannot map {:?}",
                v.spec.name, v.synthesis.missing
            ));
        }
    }
    Ok(variants)
}

/// Seeded input streams for one op and the interpreter's output per cycle.
pub struct Streams {
    pub words: Vec<Vec<u16>>,
    pub bits: Vec<Vec<bool>>,
    vectors: Vec<crate::golden::Vector>,
}

pub fn streams(app: &Application, rng: &mut Rng) -> Streams {
    let vectors: Vec<_> = (0..CYCLES)
        .map(|_| random_vector(&app.graph, rng))
        .collect();
    let words = (0..vectors[0].words.len())
        .map(|i| vectors.iter().map(|v| v.words[i]).collect())
        .collect();
    let bits = (0..vectors[0].bits.len())
        .map(|i| vectors.iter().map(|v| v.bits[i]).collect())
        .collect();
    Streams {
        words,
        bits,
        vectors,
    }
}

/// What the fabric produced: output streams and the pipelining latency
/// at which cycle `t`'s result appears.
pub struct Signed {
    pub outs: SimStreams,
    pub offset: usize,
}

/// One op: the backend flow for one tuple, each layer under a span.
pub fn signoff(
    v: &PeVariant,
    app: &Application,
    pipelined: bool,
    s: &Streams,
    tech: &TechModel,
    tr: &mut Tracer,
) -> Result<Signed, String> {
    let design = tr
        .span("map.map", |_| {
            map_application(&app.graph, &v.spec.datapath, &v.rules)
        })
        .map_err(|e| e.to_string())?;
    tr.count("map.pe_count", design.stats.pe_count as f64);
    let (netlist, pe_latency, offset) = if pipelined {
        tr.span("pipeline.pipeline", |_| {
            let mut spec = v.spec.clone();
            auto_pipeline(&mut spec, tech, &PePipelineOptions::default())
                .map_err(|e| e.to_string())?;
            // registered PE outputs add one cycle, as in `evaluate_app`
            let lat = spec.latency() + 1;
            let (netlist, report) = pipeline_application(
                &design.netlist,
                &v.rules,
                lat,
                &AppPipelineOptions::default(),
            )
            .map_err(|e| e.to_string())?;
            Ok::<_, String>((netlist, lat, report.latency as usize))
        })?
    } else {
        (design.netlist, 0, 0)
    };
    let fabric = Fabric::new(FabricConfig::default());
    let options = PlaceOptions {
        moves: PLACE_MOVES,
        ..PlaceOptions::default()
    };
    let placement = tr
        .span("cgra.place", |_| place(&netlist, &fabric, &options))
        .map_err(|e| e.to_string())?;
    let routing = tr
        .span("cgra.route", |_| {
            route(
                &netlist,
                &v.rules,
                &fabric,
                &placement,
                &RouteOptions::default(),
            )
        })
        .map_err(|e| e.to_string())?;
    tr.count("cgra.route_iterations", routing.iterations as f64);
    tr.span("cgra.verify", |_| {
        verify_routed(&netlist, &v.rules, &fabric, &placement, &routing)
    })?;
    let bitstream = tr.span("cgra.bitstream", |_| {
        generate_bitstream(
            &netlist,
            &v.rules,
            &v.spec.datapath,
            &fabric,
            &placement,
            &routing,
        )
    });
    let outs = tr
        .span("cgra.sim", |_| {
            simulate_from_bitstream(
                &netlist,
                &v.rules,
                &v.spec.datapath,
                &placement,
                &bitstream,
                &s.words,
                &s.bits,
                pe_latency,
            )
        })
        .map_err(|e| e.to_string())?;
    let cycles = outs
        .0
        .first()
        .map(Vec::len)
        .or(outs.1.first().map(Vec::len))
        .unwrap_or(0);
    tr.count("cgra.sim_cycles", cycles as f64);
    Ok(Signed { outs, offset })
}

/// Output check: every simulated output word and bit equals the IR
/// interpreter's, cycle by cycle, `offset` cycles later.
pub fn check(app: &Application, s: &Streams, signed: &Signed) -> Result<(), String> {
    let name = &app.info.name;
    let (words, bits) = &signed.outs;
    for (t, v) in s.vectors.iter().enumerate() {
        let (gw, gb) = golden(&app.graph, v);
        if gw.len() != words.len() || gb.len() != bits.len() {
            return Err(format!("{name}: fabric has the wrong number of outputs"));
        }
        let at = t + signed.offset;
        for (o, g) in gw.iter().enumerate() {
            if words[o].get(at) != Some(g) {
                return Err(format!("{name}: word output {o} differs at cycle {t}"));
            }
        }
        for (o, g) in gb.iter().enumerate() {
            if bits[o].get(at) != Some(g) {
                return Err(format!("{name}: bit output {o} differs at cycle {t}"));
            }
        }
    }
    Ok(())
}

/// Runs one op and its check; the op alone is timed (when `phase` is
/// given) or traced.
#[allow(clippy::too_many_arguments)]
fn op(
    t: Tuple,
    variants: &[PeVariant],
    apps: &[Application],
    rng: &mut Rng,
    tech: &TechModel,
    phase: Option<&mut Phase>,
    tr: &mut Tracer,
    tally: &mut Tally,
) {
    let app = &apps[t.app];
    let s = streams(app, rng);
    let v = &variants[t.variant];
    let out = match phase {
        Some(p) => p.time(|| signoff(v, app, t.pipelined, &s, tech, tr)),
        None => tr.op(|tr| signoff(v, app, t.pipelined, &s, tech, tr)),
    };
    tally.record(out.and_then(|signed| check(app, &s, &signed)));
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let tech = TechModel::default();
    let mut tally = Tally::default();
    let mut rng = Rng::new(ctx.seed, u64::MAX);
    let mut off = Tracer::new(false);
    let mut setup_s = Vec::new();
    let (mut apps, mut variants, mut ts) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        apps = all_apps();
        variants = build_variants(&apps, &tech)?;
        ts = tuples(&apps);
        let built = t0.elapsed();
        // the warm-up round counts as set-up; its output checks do not
        let mut warm = Phase::default();
        for i in round_order(ctx.seed, WARMUP_ROUND, ts.len()) {
            op(
                ts[i],
                &variants,
                &apps,
                &mut rng,
                &tech,
                Some(&mut warm),
                &mut off,
                &mut tally,
            );
        }
        setup_s.push(built.as_secs_f64() + warm.total_s());
    }

    let mut timed = Phase::default();
    let mut round = WARMUP_ROUND + 1;
    let (plain, traced) = ctx.phase_budgets();
    let t0 = Instant::now();
    while t0.elapsed() < plain {
        for i in round_order(ctx.seed, round, ts.len()) {
            op(
                ts[i],
                &variants,
                &apps,
                &mut rng,
                &tech,
                Some(&mut timed),
                &mut off,
                &mut tally,
            );
        }
        round += 1;
    }
    let mut tracer = Tracer::new(ctx.trace);
    let t0 = Instant::now();
    while ctx.trace && t0.elapsed() < traced {
        for i in round_order(ctx.seed, round, ts.len()) {
            op(
                ts[i],
                &variants,
                &apps,
                &mut rng,
                &tech,
                None,
                &mut tracer,
                &mut tally,
            );
        }
        round += 1;
    }
    Ok(Outcome {
        setup_s,
        timed,
        tracer,
        tally,
        gauges: Vec::new(),
        notes: vec![format!(
            "{} tuples per round, {CYCLES} input cycles per op",
            ts.len()
        )],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn same_seed_gives_same_ops_and_every_tuple_once_per_round() {
        let ts = tuples(&all_apps());
        assert_eq!(
            ts.len(),
            36,
            "the report's 18 pairs, unpipelined and pipelined"
        );
        let ops = |seed| -> Vec<Tuple> {
            (1..=5)
                .flat_map(|r| round_order(seed, r, ts.len()))
                .map(|i| ts[i])
                .collect()
        };
        assert_eq!(ops(3), ops(3));
        assert_ne!(ops(3), ops(4));
        let mut counts: BTreeMap<Tuple, usize> = BTreeMap::new();
        for t in ops(3) {
            *counts.entry(t).or_insert(0) += 1;
        }
        assert_eq!(counts.len(), 36);
        assert!(counts.values().all(|&c| c == 5));
    }

    #[test]
    fn a_flipped_simulated_word_counts_as_failed() {
        let tech = TechModel::default();
        let apps = all_apps();
        let app = apps
            .iter()
            .find(|a| a.info.name == "gaussian")
            .expect("a suite app");
        let v = baseline_variant(&[app]).expect("baseline builds");
        let s = streams(app, &mut Rng::new(5, 0));
        let mut tally = Tally::default();
        for pipelined in [false, true] {
            let mut signed =
                signoff(&v, app, pipelined, &s, &tech, &mut Tracer::new(false)).expect("flow runs");
            tally.record(check(app, &s, &signed));
            signed.outs.0[0][signed.offset + 3] ^= 1;
            tally.record(check(app, &s, &signed));
        }
        assert_eq!(
            tally,
            Tally {
                attempted: 4,
                failed: 2
            }
        );
        assert_eq!(tally.fail_ratio(), 0.5);
    }
}
