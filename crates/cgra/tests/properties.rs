//! Property tests on the CGRA backend: place-and-route soundness and
//! bitstream-driven simulation for randomly generated applications.

use apex_cgra::{
    gather_stats, generate_bitstream, place, route, simulate_from_bitstream, verify_routed, Fabric,
    FabricConfig, FabricSimError, PlaceOptions, RouteOptions, TileKind,
};
use apex_ir::{Graph, Op};
use apex_map::map_application;
use apex_pe::baseline_pe;
use apex_rewrite::standard_ruleset;
use proptest::prelude::*;

fn arb_app() -> impl Strategy<Value = Graph> {
    let spec = prop::collection::vec((0u8..5, any::<u16>(), any::<u16>()), 4..40);
    spec.prop_map(|ops| {
        let mut g = Graph::new("prop_app");
        let mut pool = vec![g.input(), g.input(), g.input(), g.input()];
        for (sel, x, y) in ops {
            let a = pool[(x as usize) % pool.len()];
            let b = pool[(y as usize) % pool.len()];
            let n = match sel {
                0 => g.add(Op::Add, &[a, b]),
                1 => g.add(Op::Mul, &[a, b]),
                2 => g.add(Op::Sub, &[a, b]),
                3 => g.add(Op::Umin, &[a, b]),
                _ => {
                    let c = g.constant(x);
                    g.add(Op::Add, &[a, c])
                }
            };
            pool.push(n);
        }
        // a couple of outputs
        let n = pool.len();
        let last = pool[n - 1];
        let second = pool[n - 2];
        g.output(last);
        if second != last {
            g.output(second);
        }
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_apps_place_route_and_verify(app in arb_app(), seed: u64) {
        let pe = baseline_pe();
        let (rules, report) = standard_ruleset(&pe.datapath, &[], &[&app]).unwrap();
        prop_assert!(report.missing.is_empty());
        let design = map_application(&app, &pe.datapath, &rules).unwrap();
        let fabric = Fabric::new(FabricConfig::default());
        let placement = place(
            &design.netlist,
            &fabric,
            &PlaceOptions { moves: 2_000, seed, ..PlaceOptions::default() },
        )
        .unwrap();
        let routing = route(
            &design.netlist,
            &rules,
            &fabric,
            &placement,
            &RouteOptions::default(),
        )
        .unwrap();
        // the stand-in for VCS simulation of the configured array
        verify_routed(&design.netlist, &rules, &fabric, &placement, &routing).unwrap();

        // stats are internally consistent
        let stats = gather_stats(&design.netlist, &fabric, &placement, &routing);
        prop_assert_eq!(stats.pe_tiles, design.netlist.pe_count());
        prop_assert!(stats.total_hops >= routing.routes.len().saturating_sub(
            routing.routes.iter().filter(|r| r.hops() == 0).count()
        ));

        // every PE landed on a PE tile
        for (i, node) in design.netlist.nodes.iter().enumerate() {
            if matches!(node.kind, apex_map::NetKind::Pe(_)) {
                let t = placement.tile_of_node[i].unwrap();
                prop_assert_eq!(fabric.kind(t), TileKind::Pe);
            }
        }

        // bitstream generation is total and deterministic
        let b1 = generate_bitstream(&design.netlist, &rules, &pe.datapath, &fabric, &placement, &routing);
        let b2 = generate_bitstream(&design.netlist, &rules, &pe.datapath, &fabric, &placement, &routing);
        prop_assert_eq!(b1, b2);
    }

    #[test]
    fn placement_seeds_change_layout_not_legality(app in arb_app()) {
        let pe = baseline_pe();
        let (rules, _) = standard_ruleset(&pe.datapath, &[], &[&app]).unwrap();
        let design = map_application(&app, &pe.datapath, &rules).unwrap();
        let fabric = Fabric::new(FabricConfig::default());
        for seed in [1u64, 999, 424242] {
            let p = place(
                &design.netlist,
                &fabric,
                &PlaceOptions { moves: 1_000, seed, ..PlaceOptions::default() },
            )
            .unwrap();
            let r = route(&design.netlist, &rules, &fabric, &p, &RouteOptions::default()).unwrap();
            verify_routed(&design.netlist, &rules, &fabric, &p, &r).unwrap();
        }
    }

    /// Simulating from the decoded bitstream agrees exactly with
    /// simulating the netlist on its rule templates (no overrides) —
    /// any cycle count, any PE latency — so decoding restores every
    /// configuration bit that execution reads.
    #[test]
    fn bitstream_sim_matches_template_sim(
        app in arb_app(),
        seed: u64,
        n_cycles in 0usize..6,
        pe_latency in 0u32..3,
    ) {
        let pe = baseline_pe();
        let (rules, _) = standard_ruleset(&pe.datapath, &[], &[&app]).unwrap();
        let design = map_application(&app, &pe.datapath, &rules).unwrap();
        let fabric = Fabric::new(FabricConfig::default());
        let placement = place(
            &design.netlist,
            &fabric,
            &PlaceOptions { moves: 1_000, seed, ..PlaceOptions::default() },
        )
        .unwrap();
        let routing =
            route(&design.netlist, &rules, &fabric, &placement, &RouteOptions::default()).unwrap();
        let bitstream = generate_bitstream(
            &design.netlist,
            &rules,
            &pe.datapath,
            &fabric,
            &placement,
            &routing,
        );
        let n_in = design
            .netlist
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, apex_map::NetKind::WordInput))
            .count();
        let streams: Vec<Vec<u16>> = (0..n_in)
            .map(|i| {
                (0..n_cycles)
                    .map(|t| (seed as u16)
                        .wrapping_mul(31)
                        .wrapping_add(i as u16 * 17 + t as u16 * 7))
                    .collect()
            })
            .collect();
        let decoded = simulate_from_bitstream(
            &design.netlist, &rules, &pe.datapath, &placement, &bitstream,
            &streams, &[], pe_latency,
        );
        let templates = design
            .netlist
            .simulate_with(&pe.datapath, &rules, &streams, &[], pe_latency, &[])
            .map_err(FabricSimError::from);
        prop_assert!(decoded.is_ok());
        prop_assert_eq!(decoded, templates);
    }
}
