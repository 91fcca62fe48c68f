//! Property tests on the miner: soundness of reported statistics on
//! random DAGs, canonical-code invariance, and MIS independence.

use apex_ir::{Graph, NodeId, Op};
use apex_mining::{
    find_embeddings, maximal_independent_set, mine, GraphIndex, MinerConfig, Pattern,
};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Graph> {
    let spec = prop::collection::vec((0u8..6, any::<u16>(), any::<u16>()), 4..40);
    spec.prop_map(|ops| {
        let mut g = Graph::new("prop");
        let mut pool = vec![g.input(), g.input()];
        for (sel, x, y) in ops {
            let a = pool[(x as usize) % pool.len()];
            let b = pool[(y as usize) % pool.len()];
            let n = match sel {
                0 => g.add(Op::Add, &[a, b]),
                1 => g.add(Op::Mul, &[a, b]),
                2 => g.add(Op::Sub, &[a, b]),
                3 => {
                    let c = g.constant(x);
                    g.add(Op::Mul, &[a, c])
                }
                4 => g.add(Op::Umax, &[a, b]),
                _ => g.add(Op::Lshr, &[a, b]),
            };
            pool.push(n);
        }
        let last = *pool.last().unwrap();
        g.output(last);
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_occurrence_is_an_induced_match(g in arb_graph()) {
        let mined = mine(&g, &MinerConfig {
            min_support: 2,
            max_pattern_nodes: 4,
            max_patterns: 60,
            ..MinerConfig::default()
        })
        .unwrap()
        .subgraphs;
        let index = GraphIndex::new(&g);
        for m in mined.iter().take(20) {
            // re-searching must find at least the reported occurrences
            let es = find_embeddings(&m.pattern, &index, 50_000);
            let occ = es.occurrences();
            prop_assert!(occ.len() >= m.occurrences.len());
            for o in &m.occurrences {
                prop_assert!(occ.contains(o), "occurrence not reproducible");
            }
            // labels of each occurrence match the pattern multiset
            let mut want: Vec<_> = m.pattern.labels().to_vec();
            want.sort();
            for o in &m.occurrences {
                let mut got: Vec<_> = o.iter().map(|&n| g.op(n).kind()).collect();
                got.sort();
                prop_assert_eq!(&got, &want);
            }
        }
    }

    #[test]
    fn mis_is_independent_and_maximal(g in arb_graph()) {
        let mined = mine(&g, &MinerConfig {
            min_support: 2,
            max_pattern_nodes: 3,
            max_patterns: 40,
            ..MinerConfig::default()
        })
        .unwrap()
        .subgraphs;
        for m in mined.iter().take(10) {
            // two occurrences overlap when their node sets intersect
            let occ = &m.occurrences;
            let overlap = |a: usize, b: usize| occ[a].iter().any(|n| occ[b].contains(n));
            let mis = maximal_independent_set(occ);
            for (i, &a) in mis.iter().enumerate() {
                for &b in &mis[i + 1..] {
                    prop_assert!(!overlap(a, b), "MIS not independent");
                }
            }
            for v in 0..occ.len() {
                if !mis.contains(&v) {
                    prop_assert!(mis.iter().any(|&u| overlap(u, v)), "MIS not maximal");
                }
            }
            prop_assert_eq!(m.mis_size, mis.len());
        }
    }

    #[test]
    fn canonical_code_is_invariant_under_relabeling(g in arb_graph(), seed: u64) {
        // pick a random small occurrence and rebuild the pattern from a
        // permuted node order: codes must match
        let compute = g.compute_nodes();
        if compute.len() < 3 {
            return Ok(());
        }
        let start = (seed as usize) % (compute.len() - 2);
        let nodes: Vec<NodeId> = compute[start..start + 3].to_vec();
        let (p1, _) = Pattern::from_occurrence(&g, &nodes);
        let mut rev = nodes.clone();
        rev.reverse();
        let (p2, _) = Pattern::from_occurrence(&g, &rev);
        prop_assert_eq!(p1.canonical_code(), p2.canonical_code());
    }

    #[test]
    fn utilizable_occurrences_are_a_subset(g in arb_graph()) {
        let mined = mine(&g, &MinerConfig {
            min_support: 2,
            max_pattern_nodes: 3,
            max_patterns: 30,
            ..MinerConfig::default()
        })
        .unwrap()
        .subgraphs;
        let fan = g.fanouts();
        for m in mined.iter().take(10) {
            let u = m.utilizable_occurrences(&g, &fan);
            prop_assert!(u.len() <= m.occurrences.len());
            // greedy MIS can grow on a subset of the occurrences
            // (`mis.rs` `greedy_mis_can_grow_on_a_subset`), so `mis_size`
            // bounds nothing here; the utilizable occurrences do
            prop_assert!(m.utilizable_mis(&g, &fan) <= u.len());
            for o in u {
                prop_assert!(m.occurrences.contains(o));
            }
        }
    }

    #[test]
    fn mined_datapaths_validate_and_evaluate(g in arb_graph()) {
        let mined = mine(&g, &MinerConfig {
            min_support: 2,
            max_pattern_nodes: 4,
            max_patterns: 30,
            ..MinerConfig::default()
        })
        .unwrap()
        .subgraphs;
        for m in mined.iter().take(10) {
            let dp = m.to_datapath(&g, "p").unwrap();
            prop_assert!(dp.try_validate().is_ok());
            prop_assert!(!dp.primary_outputs().is_empty());
        }
    }
}
