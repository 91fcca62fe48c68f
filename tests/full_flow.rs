//! Workspace-level integration tests: the complete APEX flow — mining,
//! merging, rule synthesis, mapping, pipelining, place-and-route,
//! bitstream — on real applications, with end-to-end functional
//! verification against the IR golden model.

use apex::cgra::{
    generate_bitstream, gather_stats, place, route, verify_routed, Fabric, FabricConfig,
    PlaceOptions, RouteOptions,
};
use apex::core::{
    baseline_variant, evaluate_app, pe1_variant, specialized_variant, EvalOptions,
    SubgraphSelection,
};
use apex::map::map_application;
use apex::merge::MergeOptions;
use apex::mining::MinerConfig;
use apex::pipeline::{pipeline_application, AppPipelineOptions};
use apex::tech::TechModel;
use apex_testgen::{input_counts, ir_golden};
use std::collections::BTreeSet;

/// Deterministic xorshift for test vectors.
fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

#[test]
fn specialized_cgra_streams_bit_exact_results() {
    // the paper's step 3c: configure the array and simulate — here against
    // the IR interpreter as golden model, streaming inputs cycle by cycle
    let app = apex::apps::gaussian();
    let tech = TechModel::default();
    let variant = specialized_variant(
        "pe_spec_gaussian",
        &[&app],
        &[&app],
        &MinerConfig::default(),
        &SubgraphSelection::default(),
        &MergeOptions::default(),
        &tech,
        &BTreeSet::new(),
    )
    .unwrap();
    assert!(variant.synthesis.missing.is_empty());

    let design = map_application(&app.graph, &variant.spec.datapath, &variant.rules).unwrap();
    let pe_latency = 2;
    let (pipelined, report) = pipeline_application(
        &design.netlist,
        &variant.rules,
        pe_latency,
        &AppPipelineOptions::default(),
    )
    .unwrap();

    // stream 6 random frames' worth of window data
    let mut next = rng(0xFEED);
    let n_in = app.graph.primary_inputs().len();
    const CYCLES: usize = 6;
    let streams: Vec<Vec<u16>> = (0..n_in)
        .map(|_| (0..CYCLES).map(|_| next() as u16 & 0xFF).collect())
        .collect();
    let (outs, _) = pipelined
        .simulate(&variant.spec.datapath, &variant.rules, &streams, &[], pe_latency)
        .unwrap();

    for t in 0..CYCLES {
        let inputs: Vec<u16> = streams.iter().map(|s| s[t]).collect();
        let (golden, _) = ir_golden(&app.graph, &inputs, &[]);
        for (o, g) in outs.iter().zip(golden) {
            assert_eq!(
                o[t + report.latency as usize],
                g,
                "pipelined fabric output must match the golden model at cycle {t}"
            );
        }
    }
}

#[test]
fn full_backend_produces_consistent_artifacts() {
    let app = apex::apps::resnet_layer();
    let variant = baseline_variant(&[&app]).unwrap();
    let design = map_application(&app.graph, &variant.spec.datapath, &variant.rules).unwrap();
    let fabric = Fabric::new(FabricConfig::default());
    let placement = place(&design.netlist, &fabric, &PlaceOptions::default()).unwrap();
    let routing = route(
        &design.netlist,
        &variant.rules,
        &fabric,
        &placement,
        &RouteOptions::default(),
    )
    .unwrap();
    verify_routed(&design.netlist, &variant.rules, &fabric, &placement, &routing).unwrap();
    let stats = gather_stats(&design.netlist, &fabric, &placement, &routing);
    assert_eq!(stats.pe_tiles, design.netlist.pe_count());

    let bs = generate_bitstream(
        &design.netlist,
        &variant.rules,
        &variant.spec.datapath,
        &fabric,
        &placement,
        &routing,
    );
    assert!(bs.total_bits > 1000, "a real design has a real bitstream");
}

#[test]
fn specialization_never_loses_functionality() {
    // every analyzed app still maps and matches golden on its PE Spec
    let tech = TechModel::default();
    for app in apex::apps::analyzed_apps() {
        let variant = specialized_variant(
            &format!("pe_spec_{}", app.info.name),
            &[&app],
            &[&app],
            &MinerConfig {
                max_patterns: 200,
                ..MinerConfig::default()
            },
            &SubgraphSelection::default(),
            &MergeOptions::default(),
            &tech,
            &BTreeSet::new(),
        )
        .unwrap();
        assert!(
            variant.synthesis.missing.is_empty(),
            "{}: {:?}",
            app.info.name,
            variant.synthesis.missing
        );
        let design =
            map_application(&app.graph, &variant.spec.datapath, &variant.rules).unwrap();

        let mut next = rng(app.info.name.len() as u64);
        let (word_n, bit_n) = input_counts(&app.graph);
        for _ in 0..3 {
            let words: Vec<u16> = (0..word_n).map(|_| next() as u16 & 0xFF).collect();
            let bits: Vec<bool> = (0..bit_n).map(|_| next() & 1 == 1).collect();
            let got = design
                .netlist
                .evaluate(&variant.spec.datapath, &variant.rules, &words, &bits)
                .unwrap();
            assert_eq!(
                got,
                ir_golden(&app.graph, &words, &bits),
                "{}",
                app.info.name
            );
        }
    }
}

#[test]
fn pe1_variant_drops_baseline_overhead() {
    let app = apex::apps::harris();
    let tech = TechModel::default();
    let base = baseline_variant(&[&app]).unwrap();
    let pe1 = pe1_variant("pe1_harris", &[&app], &[&app]).unwrap();
    let be = evaluate_app(&base, &app, &tech, &EvalOptions::default()).unwrap();
    let pe = evaluate_app(&pe1, &app, &tech, &EvalOptions::default()).unwrap();
    assert_eq!(be.pnr.pe_tiles, pe.pnr.pe_tiles, "same mapping, smaller PE");
    assert!(pe.pe_core_area < be.pe_core_area);
    assert!(pe.energy_per_cycle.pe < be.energy_per_cycle.pe);
}

#[test]
fn pipelined_evaluation_reports_fifos_for_deep_designs() {
    // camera has long reconvergent paths: post-pipelining must use
    // register-file FIFOs (Table 3's #RF column)
    let app = apex::apps::camera_pipeline();
    let tech = TechModel::default();
    let variant = baseline_variant(&[&app]).unwrap();
    let e = evaluate_app(
        &variant,
        &app,
        &tech,
        &EvalOptions {
            pipelined: true,
            ..EvalOptions::default()
        },
    )
    .unwrap();
    assert!(e.pipelining.latency > 0);
    assert!(
        e.pnr.rf_tiles > 0 || e.pnr.sb_regs > 0,
        "deep designs need balance registers: {:?}",
        e.pnr
    );
    // pipelining must recover most of the clock; long unregistered routes
    // keep the achieved period somewhat above the 1.1 ns target
    assert!(e.period_ns < 2.5 * tech.clock_period_ns, "{}", e.period_ns);
}
