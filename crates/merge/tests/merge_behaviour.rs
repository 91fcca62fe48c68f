//! Behavioural tests: merged datapaths must still implement every source
//! subgraph exactly, stay acyclic, and actually save hardware.

use apex_ir::{Graph, Op};
use apex_merge::{merge_all, merge_graph, MergeOptions, MergedDatapath};
use apex_mining::{mine, MinerConfig};
use apex_tech::TechModel;
use apex_testgen::{input_counts, ir_golden, DfgGen};
use proptest::prelude::*;

fn tech() -> TechModel {
    TechModel::default()
}

/// Checks one config of a merged datapath against the IR golden model on
/// a set of input vectors.
fn assert_config_matches(dp: &MergedDatapath, cfg_idx: usize, graph: &Graph, trials: u64) {
    let (word_n, bit_n) = input_counts(graph);
    let mut seed = 0x9E37_79B9_7F4A_7C15u64 ^ (cfg_idx as u64);
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    for _ in 0..trials {
        let words: Vec<u16> = (0..word_n).map(|_| next() as u16).collect();
        let bits: Vec<bool> = (0..bit_n).map(|_| next() & 1 == 1).collect();
        let got = dp
            .evaluate_as_source(&dp.configs[cfg_idx], &words, &bits)
            .expect("valid config");
        assert_eq!(got, ir_golden(graph, &words, &bits), "config {cfg_idx}");
    }
}

fn mac() -> Graph {
    let mut g = Graph::new("mac");
    let (a, b, c) = {
        let a = g.input();
        let b = g.input();
        let c = g.input();
        (a, b, c)
    };
    let m = g.add(Op::Mul, &[a, b]);
    let s = g.add(Op::Add, &[m, c]);
    g.output(s);
    g
}

fn sub_chain() -> Graph {
    let mut g = Graph::new("subchain");
    let a = g.input();
    let b = g.input();
    let c = g.input();
    let d = g.add(Op::Sub, &[a, b]);
    let e = g.add(Op::Sub, &[d, c]);
    g.output(e);
    g
}

fn weighted_conv() -> Graph {
    let mut g = Graph::new("wconv");
    let x = g.input();
    let y = g.input();
    let w0 = g.constant(3);
    let w1 = g.constant(5);
    let m0 = g.add(Op::Mul, &[x, w0]);
    let m1 = g.add(Op::Mul, &[y, w1]);
    let s = g.add(Op::Add, &[m0, m1]);
    g.output(s);
    g
}

#[test]
fn merged_mac_and_subchain_share_adder() {
    let (dp, reports) = merge_all(&[mac(), sub_chain()], &tech(), &MergeOptions::default()).unwrap();
    assert!(dp.validate().is_ok());
    assert_eq!(dp.configs.len(), 2);
    // mac: mul + add; subchain: 2 subs. Adder unit is shared with one sub:
    // nodes = mul, add/sub, sub
    assert!(
        dp.node_count() <= 3,
        "adder/sub must share a unit, got:\n{dp}"
    );
    assert!(reports[0].saved_area > 0.0);
    assert_config_matches(&dp, 0, &mac(), 50);
    assert_config_matches(&dp, 1, &sub_chain(), 50);
}

#[test]
fn merging_identical_graphs_adds_no_hardware() {
    let g1 = mac();
    let mut g2 = mac();
    g2.set_name("mac2");
    let (dp, _) = merge_all(&[g1, g2], &tech(), &MergeOptions::default()).unwrap();
    assert_eq!(dp.node_count(), 2, "identical graphs fully overlap:\n{dp}");
    assert_eq!(dp.mux_leg_count(), 0, "no muxes needed:\n{dp}");
    assert_config_matches(&dp, 0, &mac(), 30);
    assert_config_matches(&dp, 1, &mac(), 30);
}

#[test]
fn merge_keeps_noncommutative_operand_order() {
    // g1: a - b ; g2: b - a (as port-swapped inputs) — configs must differ
    let mut g1 = Graph::new("fwd");
    let a = g1.input();
    let b = g1.input();
    let d = g1.add(Op::Sub, &[a, b]);
    g1.output(d);

    let mut g2 = Graph::new("mixed");
    let a = g2.input();
    let b = g2.input();
    let c = g2.input();
    let s = g2.add(Op::Add, &[a, b]);
    let d = g2.add(Op::Sub, &[c, s]); // add feeds port 1
    g2.output(d);

    let (dp, _) = merge_all(&[g1.clone(), g2.clone()], &tech(), &MergeOptions::default()).unwrap();
    assert!(dp.validate().is_ok());
    assert_config_matches(&dp, 0, &g1, 60);
    assert_config_matches(&dp, 1, &g2, 60);
}

#[test]
fn cross_directional_merge_cannot_create_cycle() {
    // g1: mul -> add ; g2: add -> mul. Merging both pairs would create a
    // combinational cycle; the acyclicity constraint must prevent it.
    let mut g1 = Graph::new("muladd");
    let a = g1.input();
    let b = g1.input();
    let c = g1.input();
    let m = g1.add(Op::Mul, &[a, b]);
    let s = g1.add(Op::Add, &[m, c]);
    g1.output(s);

    let mut g2 = Graph::new("addmul");
    let a = g2.input();
    let b = g2.input();
    let c = g2.input();
    let s = g2.add(Op::Add, &[a, b]);
    let m = g2.add(Op::Mul, &[s, c]);
    g2.output(m);

    let (dp, _) = merge_all(&[g1.clone(), g2.clone()], &tech(), &MergeOptions::default()).unwrap();
    assert!(dp.validate().is_ok(), "merged datapath must stay acyclic");
    assert_config_matches(&dp, 0, &g1, 50);
    assert_config_matches(&dp, 1, &g2, 50);
}

#[test]
fn constants_merge_into_reloadable_registers() {
    let g1 = weighted_conv();
    let mut g2 = Graph::new("wconv2");
    let x = g2.input();
    let w = g2.constant(9);
    let m = g2.add(Op::Mul, &[x, w]);
    g2.output(m);
    let (dp, _) = merge_all(&[g1.clone(), g2.clone()], &tech(), &MergeOptions::default()).unwrap();
    // second graph reuses a multiplier and a const register
    assert!(dp.node_count() <= 5, "{dp}");
    assert_config_matches(&dp, 0, &g1, 40);
    assert_config_matches(&dp, 1, &g2, 40);
}

#[test]
fn merge_inserts_muxes_on_conflicting_sources() {
    // same structure, but with const on the other multiplier port side —
    // forces at least one mux
    let g1 = weighted_conv();
    let mut g2 = Graph::new("other");
    let x = g2.input();
    let y = g2.input();
    let m = g2.add(Op::Mul, &[x, y]); // no consts: mul fed by two inputs
    let n = g2.add(Op::Mul, &[m, y]);
    let s = g2.add(Op::Add, &[m, n]);
    g2.output(s);
    let (dp, _) = merge_all(&[g1.clone(), g2.clone()], &tech(), &MergeOptions::default()).unwrap();
    assert!(dp.mux_leg_count() > 0, "conflicting sources need muxes:\n{dp}");
    assert_config_matches(&dp, 0, &g1, 40);
    assert_config_matches(&dp, 1, &g2, 40);
}

#[test]
fn merge_order_area_is_monotone_with_subgraphs() {
    // merging more distinct subgraphs never loses existing configs
    let graphs = vec![mac(), sub_chain(), weighted_conv()];
    let (dp, _) = merge_all(&graphs, &tech(), &MergeOptions::default()).unwrap();
    assert_eq!(dp.configs.len(), 3);
    for (i, g) in graphs.iter().enumerate() {
        assert_config_matches(&dp, i, g, 40);
    }
}

#[test]
fn merge_mined_subgraphs_from_convolution() {
    // end-to-end: mine a conv graph, merge its top-3 subgraphs, verify all
    let mut g = Graph::new("conv");
    let mut acc = None;
    for k in 0..6u16 {
        let i = g.input();
        let w = g.constant(2 + k);
        let m = g.add(Op::Mul, &[i, w]);
        acc = Some(match acc {
            None => m,
            Some(a) => g.add(Op::Add, &[a, m]),
        });
    }
    let out = acc.unwrap();
    g.output(out);
    let mined = mine(
        &g,
        &MinerConfig {
            min_support: 3,
            max_pattern_nodes: 4,
            ..MinerConfig::default()
        },
    )
    .unwrap()
    .subgraphs;
    assert!(mined.len() >= 3);
    let datapaths: Vec<Graph> = mined
        .iter()
        .take(3)
        .enumerate()
        .map(|(i, m)| {
            let mut dpg = m.to_datapath(&g, "sg").unwrap();
            dpg.set_name(format!("sg{i}"));
            dpg
        })
        .collect();
    let (pe, _) = merge_all(&datapaths, &tech(), &MergeOptions::default()).unwrap();
    assert!(pe.validate().is_ok());
    for (i, sg) in datapaths.iter().enumerate() {
        assert_config_matches(&pe, i, sg, 40);
    }
}

// ---------------------------------------------------------------------------
// property test: random DAG pairs merge soundly
// ---------------------------------------------------------------------------

/// Small word DAGs over two inputs, read at the last value.
const GRAPH: DfgGen = DfgGen {
    name: "p",
    inputs: (2, 0),
    ops: &[Op::Add, Op::Sub, Op::Mul, Op::Smax, Op::Lshr],
    const_ops: &[Op::Mul],
    len: 1..8,
    outputs: (1, 0),
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_merges_preserve_both_configs(
        g1 in DfgGen { name: "p1", ..GRAPH },
        g2 in DfgGen { name: "p2", ..GRAPH },
    ) {
        let (dp, _) = merge_graph(
            &MergedDatapath::from_graph(&g1),
            &g2,
            &tech(),
            &MergeOptions::default(),
        )
        .unwrap();
        prop_assert!(dp.validate().is_ok());
        assert_config_matches(&dp, 0, &g1, 12);
        assert_config_matches(&dp, 1, &g2, 12);
        // merged hardware never exceeds the sum of parts
        let parts = MergedDatapath::from_graph(&g1).node_count()
            + MergedDatapath::from_graph(&g2).node_count();
        prop_assert!(dp.node_count() <= parts);
    }
}

#[test]
fn tiny_clique_node_budget_truncates_but_merges_validly() {
    use apex_fault::Provenance;
    // zero search nodes: the branch-and-bound cannot even open the root
    // (with the colored bound, tiny instances complete inside one node,
    // so a 1-node budget no longer reliably truncates)
    let opts = MergeOptions {
        budget: MergeOptions::default().budget.with_max_steps(0),
    };
    let (dp, reports) = merge_all(&[mac(), sub_chain()], &tech(), &opts).unwrap();
    assert!(dp.validate().is_ok(), "greedy incumbent must be a valid merge");
    assert_eq!(dp.configs.len(), 2);
    assert!(
        reports.iter().any(|r| r.provenance == Provenance::TruncatedByBudget),
        "a zero clique budget must report truncation: {reports:?}"
    );
    // both source graphs still execute on the degraded datapath
    assert_config_matches(&dp, 0, &mac(), 50);
    assert_config_matches(&dp, 1, &sub_chain(), 50);
}

#[test]
fn tiny_memory_budget_truncates_but_merges_validly() {
    use apex_fault::Provenance;
    // far below the compatibility matrix's footprint: the candidate list
    // shrinks deterministically, the merge still produces a valid datapath
    // implementing both graphs, and the report says TruncatedByBudget
    let opts = MergeOptions {
        budget: MergeOptions::default().budget.with_max_bytes(16),
    };
    let (dp, reports) = merge_all(&[mac(), sub_chain()], &tech(), &opts).unwrap();
    assert!(dp.validate().is_ok(), "degraded merge must stay valid");
    assert_eq!(dp.configs.len(), 2);
    assert!(
        reports.iter().any(|r| r.provenance == Provenance::TruncatedByBudget),
        "a tiny memory budget must report truncation: {reports:?}"
    );
    assert_config_matches(&dp, 0, &mac(), 50);
    assert_config_matches(&dp, 1, &sub_chain(), 50);
    // deterministic: a second run degrades identically
    let (dp2, reports2) = merge_all(&[mac(), sub_chain()], &tech(), &opts).unwrap();
    assert_eq!(dp.node_count(), dp2.node_count());
    assert_eq!(reports, reports2);
}

#[test]
fn zero_deadline_times_out_but_merges_validly() {
    use apex_fault::Provenance;
    use std::time::Duration;
    let opts = MergeOptions {
        budget: MergeOptions::default().budget.with_deadline(Duration::ZERO),
    };
    let (dp, reports) = merge_all(&[mac(), sub_chain()], &tech(), &opts).unwrap();
    assert!(dp.validate().is_ok(), "greedy incumbent must be a valid merge");
    assert!(
        reports.iter().any(|r| r.provenance == Provenance::TimedOut),
        "an expired deadline must report a timeout: {reports:?}"
    );
    assert_config_matches(&dp, 0, &mac(), 50);
    assert_config_matches(&dp, 1, &sub_chain(), 50);
}
