//! Property tests: branch-delay matching must preserve streaming
//! semantics for arbitrary mapped applications and PE latencies.

use apex_ir::Op;
use apex_map::map_application;
use apex_pe::baseline_pe;
use apex_pipeline::{pipeline_application, AppPipelineOptions};
use apex_rewrite::standard_ruleset;
use apex_testgen::DfgGen;
use proptest::prelude::*;

/// Word DAGs over three inputs, read at the last value.
const APP: DfgGen = DfgGen {
    name: "prop_app",
    inputs: (3, 0),
    ops: &[Op::Add, Op::Mul, Op::Sub, Op::Smax],
    const_ops: &[Op::Mul],
    len: 3..30,
    outputs: (1, 0),
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn branch_delay_matching_preserves_streams(
        app in APP,
        lat in 0u32..4,
        cutoff in 0u32..4,
        inputs in prop::collection::vec(any::<u16>(), 3)
    ) {
        let pe = baseline_pe();
        let (rules, _) = standard_ruleset(&pe.datapath, &[], &[&app]).unwrap();
        let design = map_application(&app, &pe.datapath, &rules).unwrap();
        let (pipelined, report) = pipeline_application(
            &design.netlist,
            &rules,
            lat,
            &AppPipelineOptions { rf_chain_cutoff: cutoff },
        )
        .unwrap();
        prop_assert!(pipelined.validate(&rules).is_ok());

        // arrival balance: every input edge of every consumer sees the
        // same latency — verified behaviourally: hold inputs, check the
        // output at the reported latency
        let (golden_w, _) = design.netlist.evaluate(&pe.datapath, &rules, &inputs, &[]).unwrap();
        let hold = report.latency as usize + 1;
        let streams: Vec<Vec<u16>> = inputs.iter().map(|&v| vec![v; hold]).collect();
        let (out, _) = pipelined.simulate(&pe.datapath, &rules, &streams, &[], lat).unwrap();
        prop_assert_eq!(out[0][report.latency as usize], golden_w[0]);

        // and as true streams: distinct values per cycle
        let streams2: Vec<Vec<u16>> = inputs
            .iter()
            .enumerate()
            .map(|(k, &v)| (0..5u16).map(|t| v.wrapping_add(t * (k as u16 + 1))).collect())
            .collect();
        let (out2, _) = pipelined.simulate(&pe.datapath, &rules, &streams2, &[], lat).unwrap();
        for t in 0..5 {
            let vec_t: Vec<u16> = streams2.iter().map(|s| s[t]).collect();
            let (gw, _) = design.netlist.evaluate(&pe.datapath, &rules, &vec_t, &[]).unwrap();
            prop_assert_eq!(out2[0][t + report.latency as usize], gw[0], "cycle {}", t);
        }

        // the RF transform respects the cutoff
        for node in &pipelined.nodes {
            if let apex_map::NetKind::Fifo(d) = node.kind {
                prop_assert!(u32::from(d) > cutoff);
            }
        }
    }
}
