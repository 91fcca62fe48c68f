//! Micro-benchmarks of every algorithmic stage of the APEX flow:
//! subgraph mining, MIS analysis, datapath merging, max-weight clique,
//! rewrite-rule synthesis, instruction selection, pipelining, placement,
//! routing and its verification, bitstream generation, Verilog emission,
//! and fabric simulation (from the netlist and from the bitstream).

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn bench_algorithms(c: &mut Criterion) {
    let mut g = c.benchmark_group("algorithms");
    g.sample_size(10).measurement_time(Duration::from_secs(3));

    let gaussian = apex_apps::gaussian();
    let camera = apex_apps::camera_pipeline();
    let tech = apex_tech::TechModel::default();

    // --- stage 1: frequent subgraph mining (GraMi substitute) -------------
    g.bench_function("mine_gaussian", |b| {
        b.iter(|| apex_mining::mine(&gaussian.graph, &apex_mining::MinerConfig::default()))
    });
    g.bench_function("mine_camera", |b| {
        b.iter(|| {
            apex_mining::mine(
                &camera.graph,
                &apex_mining::MinerConfig {
                    max_patterns: 200,
                    ..apex_mining::MinerConfig::default()
                },
            )
        })
    });

    // end-to-end mining sweep over the full 9-app suite (the trajectory
    // headline number: dominated by the embedding search + extension
    // enumeration hot paths)
    let mut suite = apex_apps::analyzed_apps();
    suite.extend(apex_apps::unseen_apps());
    g.bench_function("mine_nine_apps", |b| {
        b.iter(|| {
            for app in &suite {
                apex_mining::mine(&app.graph, &apex_mining::MinerConfig::default())
                    .expect("mining succeeds");
            }
        })
    });

    // --- MIS analysis ------------------------------------------------------
    let mined = apex_mining::mine(&camera.graph, &apex_mining::MinerConfig::default())
        .expect("mining succeeds");
    let biggest = mined
        .subgraphs
        .iter()
        .max_by_key(|m| m.occurrences.len())
        .expect("camera has frequent subgraphs");
    g.bench_function("mis_analysis", |b| {
        b.iter(|| apex_mining::maximal_independent_set(&biggest.occurrences))
    });

    // --- stage 2: datapath merging ------------------------------------------
    let pe1 = apex_pe::baseline_pe_with_ops(
        "bench_pe",
        &apex_core::required_op_kinds(&[&gaussian]),
    );
    let subgraphs: Vec<apex_ir::Graph> = apex_core::select_subgraphs(
        &gaussian,
        &apex_mining::MinerConfig::default(),
        &apex_core::SubgraphSelection::default(),
    )
    .expect("mining succeeds")
    .0
    .iter()
    .map(|m| m.to_datapath(&gaussian.graph, "sg").expect("datapath materializes"))
    .collect();
    g.bench_function("merge_subgraph_into_pe", |b| {
        b.iter(|| {
            apex_merge::merge_graph(
                &pe1.datapath,
                &subgraphs[0],
                &tech,
                &apex_merge::MergeOptions::default(),
            )
        })
    });

    // --- max-weight clique ----------------------------------------------------
    g.bench_function("max_weight_clique_40", |b| {
        let n = 40;
        let mut state = 0x1234_5678u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut compat = vec![vec![false; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                if rand() % 3 != 0 {
                    compat[i][j] = true;
                    compat[j][i] = true;
                }
            }
        }
        let weights: Vec<f64> = (0..n).map(|_| (rand() % 100) as f64).collect();
        b.iter(|| apex_merge::max_weight_clique(&weights, &compat, 200_000))
    });

    // --- rewrite-rule synthesis (SMT substitute) --------------------------------
    let base = apex_pe::baseline_pe();
    g.bench_function("synthesize_ruleset_baseline", |b| {
        b.iter(|| apex_rewrite::standard_ruleset(&base.datapath, &[], &[&gaussian.graph]))
    });

    // --- stage 3: instruction selection -------------------------------------
    let (rules, _) =
        apex_rewrite::standard_ruleset(&base.datapath, &[], &[&gaussian.graph]).unwrap();
    g.bench_function("map_gaussian_baseline", |b| {
        b.iter(|| apex_map::map_application(&gaussian.graph, &base.datapath, &rules).unwrap())
    });

    // --- pipelining -----------------------------------------------------------
    let design = apex_map::map_application(&gaussian.graph, &base.datapath, &rules).unwrap();
    g.bench_function("branch_delay_matching", |b| {
        b.iter(|| {
            apex_pipeline::pipeline_application(
                &design.netlist,
                &rules,
                2,
                &apex_pipeline::AppPipelineOptions::default(),
            )
        })
    });

    // --- place and route --------------------------------------------------------
    let fabric = apex_cgra::Fabric::new(apex_cgra::FabricConfig::default());
    g.bench_function("place_gaussian", |b| {
        b.iter(|| {
            apex_cgra::place(
                &design.netlist,
                &fabric,
                &apex_cgra::PlaceOptions {
                    moves: 8_000,
                    ..apex_cgra::PlaceOptions::default()
                },
            )
            .unwrap()
        })
    });
    let placement = apex_cgra::place(&design.netlist, &fabric, &apex_cgra::PlaceOptions::default())
        .unwrap();
    g.bench_function("route_gaussian", |b| {
        b.iter(|| {
            apex_cgra::route(
                &design.netlist,
                &rules,
                &fabric,
                &placement,
                &apex_cgra::RouteOptions::default(),
            )
            .unwrap()
        })
    });

    // congested multi-round negotiation: a 16x14 array with only two
    // tracks per direction forces PathFinder through 4 rip-up rounds
    // (probed; seed-sensitive), exercising the incremental re-route path
    // that single-round gaussian routing never reaches
    let tight = apex_cgra::Fabric::new(apex_cgra::FabricConfig {
        width: 16,
        height: 14,
        word_tracks: 2,
        bit_tracks: 2,
        ..apex_cgra::FabricConfig::default()
    });
    let tight_placement = apex_cgra::place(
        &design.netlist,
        &tight,
        &apex_cgra::PlaceOptions { seed: 99, ..apex_cgra::PlaceOptions::default() },
    )
    .unwrap();
    let tight_opts = apex_cgra::RouteOptions {
        max_iterations: 40,
        history_increment: 1.0,
        ..apex_cgra::RouteOptions::default()
    };
    g.bench_function("route_congested_2track", |b| {
        b.iter(|| {
            apex_cgra::route(&design.netlist, &rules, &tight, &tight_placement, &tight_opts)
                .unwrap()
        })
    });

    // --- bitstream + RTL ----------------------------------------------------------
    let routing = apex_cgra::route(
        &design.netlist,
        &rules,
        &fabric,
        &placement,
        &apex_cgra::RouteOptions::default(),
    )
    .unwrap();
    g.bench_function("verify_routed_gaussian", |b| {
        b.iter(|| {
            apex_cgra::verify_routed(&design.netlist, &rules, &fabric, &placement, &routing)
                .unwrap()
        })
    });
    g.bench_function("bitstream_generation", |b| {
        b.iter(|| {
            apex_cgra::generate_bitstream(
                &design.netlist,
                &rules,
                &base.datapath,
                &fabric,
                &placement,
                &routing,
            )
        })
    });
    let bitstream = apex_cgra::generate_bitstream(
        &design.netlist,
        &rules,
        &base.datapath,
        &fabric,
        &placement,
        &routing,
    );
    g.bench_function("emit_verilog_baseline_pe", |b| {
        b.iter(|| apex_pe::emit_verilog(&base))
    });

    // --- fabric simulation (VCS substitute) ---------------------------------------
    let n_in = design
        .netlist
        .nodes
        .iter()
        .filter(|n| matches!(n.kind, apex_map::NetKind::WordInput))
        .count();
    let streams: Vec<Vec<u16>> = (0..n_in).map(|i| vec![i as u16; 8]).collect();
    g.bench_function("simulate_gaussian_8_cycles", |b| {
        b.iter(|| design.netlist.simulate(&base.datapath, &rules, &streams, &[], 1))
    });
    // the same run from the bitstream: decode every PE configuration
    // first, as signoff does
    g.bench_function("simulate_from_bitstream_gaussian", |b| {
        b.iter(|| {
            apex_cgra::simulate_from_bitstream(
                &design.netlist,
                &rules,
                &base.datapath,
                &placement,
                &bitstream,
                &streams,
                &[],
                1,
            )
            .unwrap()
        })
    });

    g.finish();
}

criterion_group!(benches, bench_algorithms);
criterion_main!(benches);
