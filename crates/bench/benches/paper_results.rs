//! The paper-results benchmark harness: times a representative slice
//! of the flow behind each table and figure of the paper's Section 5, so
//! regressions in any stage show up as timing changes. The tables
//! themselves come from `apex report`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn bench_paper(c: &mut Criterion) {
    let mut g = c.benchmark_group("paper");
    g.sample_size(10).measurement_time(Duration::from_secs(4));

    // Table 1 / Fig. 10: application analysis (mining + MIS + selection)
    g.bench_function("fig10_subgraph_selection_gaussian", |b| {
        let app = apex_eval::app("gaussian").unwrap();
        b.iter(|| {
            apex_core::select_subgraphs(
                app,
                &apex_mining::MinerConfig::default(),
                &apex_core::SubgraphSelection::default(),
            )
        })
    });

    // Fig. 11 / Table 2: post-mapping evaluation of a ladder variant
    g.bench_function("fig11_camera_post_mapping", |b| {
        let camera = apex_eval::app("camera").unwrap();
        let v = &apex_eval::camera_ladder().unwrap()[1];
        b.iter(|| apex_eval::experiments::post_mapping(v, camera).unwrap())
    });

    // Fig. 12/13/14: instruction selection on the domain PE
    g.bench_function("fig14_map_gaussian_on_pe_ip", |b| {
        let app = apex_eval::app("gaussian").unwrap();
        let v = apex_eval::pe_ip().unwrap();
        b.iter(|| {
            apex_map::map_application(&app.graph, &v.spec.datapath, &v.rules).unwrap()
        })
    });

    // Fig. 15 / Table 3: one full place-and-route evaluation
    g.bench_function("fig15_full_pnr_gaussian_baseline", |b| {
        let app = apex_eval::app("gaussian").unwrap();
        let v = apex_eval::baseline().unwrap();
        b.iter(|| apex_eval::run(v, app, false))
    });

    // Fig. 16: the pipelined backend
    g.bench_function("fig16_pipelined_eval_resnet_pe_ml", |b| {
        let app = apex_eval::app("resnet").unwrap();
        let v = apex_eval::pe_ml().unwrap();
        b.iter(|| apex_eval::run(v, app, true))
    });

    // Fig. 17/18: analytic comparators
    g.bench_function("fig17_comparator_models", |b| {
        let app = apex_eval::app("camera").unwrap();
        let tech = apex_eval::tech();
        b.iter(|| {
            (
                apex_eval::asic(app, tech),
                apex_eval::fpga(app, tech),
                apex_eval::simba(app, tech),
            )
        })
    });

    g.finish();
}

criterion_group!(benches, bench_paper);
criterion_main!(benches);
