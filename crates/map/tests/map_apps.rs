//! End-to-end mapping tests: every benchmark application maps onto the
//! baseline PE, and the mapped netlist is functionally identical to the
//! application's IR golden model.

use apex_map::{map_application, NetKind};
use apex_pe::baseline_pe;
use apex_rewrite::standard_ruleset;
use apex_testgen::{input_counts, ir_golden};

fn check_equivalence(app: &apex_apps::Application, trials: usize) -> apex_map::MapStats {
    let pe = baseline_pe();
    let (rules, report) = standard_ruleset(&pe.datapath, &[], &[&app.graph]).unwrap();
    assert!(
        report.missing.is_empty(),
        "{}: missing rules {:?}",
        app.info.name,
        report.missing
    );
    let design = map_application(&app.graph, &pe.datapath, &rules)
        .unwrap_or_else(|e| panic!("{}: {e}", app.info.name));
    design
        .netlist
        .validate(&rules)
        .unwrap_or_else(|e| panic!("{}: {e}", app.info.name));

    let (word_n, bit_n) = input_counts(&app.graph);
    let mut seed = 0x1234_5678_9ABC_DEF0u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    for t in 0..trials {
        let words: Vec<u16> = (0..word_n)
            .map(|_| if t == 0 { 37 } else { next() as u16 & 0xFF })
            .collect();
        let bits: Vec<bool> = (0..bit_n).map(|_| next() & 1 == 1).collect();
        let got = design
            .netlist
            .evaluate(&pe.datapath, &rules, &words, &bits)
            .unwrap();
        assert_eq!(
            got,
            ir_golden(&app.graph, &words, &bits),
            "{} trial {t}",
            app.info.name
        );
    }
    design.stats
}

#[test]
fn gaussian_maps_and_matches_golden() {
    let app = apex_apps::gaussian();
    let stats = check_equivalence(&app, 8);
    // 3x3 conv with folded constants: each mul_const covers 2 ops
    assert!(stats.pe_count > 0);
    assert!(
        stats.rules_used.keys().any(|k| k.contains("mul")),
        "{:?}",
        stats.rules_used
    );
}

#[test]
fn camera_maps_and_matches_golden() {
    let app = apex_apps::camera_pipeline();
    let stats = check_equivalence(&app, 6);
    // the paper's camera pipeline needs ~232 baseline PEs at 4-pixel
    // unroll; ours should land in the same regime
    assert!(
        (150..=400).contains(&stats.pe_count),
        "camera PE count {} out of expected regime",
        stats.pe_count
    );
}

#[test]
fn all_analyzed_apps_map_on_baseline() {
    for app in apex_apps::analyzed_apps() {
        let stats = check_equivalence(&app, 4);
        assert!(stats.pe_count > 0, "{}", app.info.name);
        assert!(stats.ops_covered > 0, "{}", app.info.name);
    }
}

#[test]
fn unseen_apps_map_on_baseline() {
    for app in apex_apps::unseen_apps() {
        let stats = check_equivalence(&app, 4);
        assert!(stats.pe_count > 0, "{}", app.info.name);
    }
}

#[test]
fn constants_fold_into_pes() {
    // gaussian's kernel weights must fold into constant registers rather
    // than consuming standalone PEs
    let app = apex_apps::gaussian();
    let stats = check_equivalence(&app, 2);
    assert_eq!(
        stats.const_pes, 0,
        "all gaussian constants should fold: {:?}",
        stats.rules_used
    );
}

#[test]
fn complex_rules_reduce_pe_count() {
    // map gaussian on a PE that additionally implements the mul→add pair;
    // the PE count must drop versus the baseline mapping
    use apex_merge::{merge_graph, MergeOptions};
    use apex_mining::{mine, MinerConfig};
    use apex_tech::TechModel;

    let app = apex_apps::gaussian();
    let pe = baseline_pe();
    let (rules_base, _) = standard_ruleset(&pe.datapath, &[], &[&app.graph]).unwrap();
    let base = map_application(&app.graph, &pe.datapath, &rules_base).unwrap();

    let mined = mine(
        &app.graph,
        &MinerConfig {
            min_support: 4,
            max_pattern_nodes: 4,
            ..MinerConfig::default()
        },
    )
    .unwrap()
    .subgraphs;
    // the top 2-node subgraph (const→mul) saves nothing over constant
    // folding; pick the best subgraph that fuses at least 3 operations
    let top = mined
        .iter()
        .find(|m| m.pattern.len() >= 3)
        .expect("a 3-node frequent subgraph exists");
    let sub = top.to_datapath(&app.graph, "sg0").unwrap();
    let (merged, _) = merge_graph(
        &pe.datapath,
        &sub,
        &TechModel::default(),
        &MergeOptions::default(),
    )
    .unwrap();
    let (rules_merged, _) = standard_ruleset(&merged, &[sub], &[&app.graph]).unwrap();
    let spec = map_application(&app.graph, &merged, &rules_merged).unwrap();
    assert!(
        spec.stats.pe_count < base.stats.pe_count,
        "specialized {} vs baseline {}",
        spec.stats.pe_count,
        base.stats.pe_count
    );
}

#[test]
fn netlist_counts_node_kinds() {
    let app = apex_apps::gaussian();
    let pe = baseline_pe();
    let (rules, _) = standard_ruleset(&pe.datapath, &[], &[&app.graph]).unwrap();
    let design = map_application(&app.graph, &pe.datapath, &rules).unwrap();
    let inputs = design
        .netlist
        .nodes
        .iter()
        .filter(|n| matches!(n.kind, NetKind::WordInput))
        .count();
    assert_eq!(inputs, 72, "8 unrolled pixels x 9 window taps");
    assert_eq!(design.netlist.reg_count(), 0, "no registers before pipelining");
}

#[test]
fn netlist_dot_lists_every_node() {
    let app = apex_apps::gaussian();
    let pe = baseline_pe();
    let (rules, _) = standard_ruleset(&pe.datapath, &[], &[&app.graph]).unwrap();
    let design = map_application(&app.graph, &pe.datapath, &rules).unwrap();
    let dot = design.netlist.to_dot(&rules);
    assert!(dot.starts_with("digraph"));
    for i in 0..design.netlist.nodes.len() {
        assert!(dot.contains(&format!("n{i} ")), "node {i} missing from DOT");
    }
    // PE nodes are labelled with their rule names
    assert!(dot.contains("mul_c1"));
}
