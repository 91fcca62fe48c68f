//! Corruption battery for the `apex-verify` rule catalog.
//!
//! Each pipeline-stage pass must (a) accept the honest artifact the real
//! flow produces and (b) reject a seeded corruption with the documented
//! rule id — exercised end-to-end through the `apex` facade, the same
//! artifacts `apex verify` inspects. Randomized cases use the
//! deterministic proptest shim, so failures replay identically.

use apex::ir::{Graph, NodeId, Op};
use apex::merge::{DatapathConfig, MergedDatapath};
use apex::rewrite::rules_from_configs;
use apex::verify as v;
use proptest::prelude::*;

/// Disassembles a graph into the raw rows accepted by
/// [`Graph::from_raw_parts`], the unchecked ingestion point corruption
/// tests build on.
fn rows(g: &Graph) -> Vec<(Op, Vec<NodeId>)> {
    g.iter().map(|(_, n)| (n.op(), n.inputs().to_vec())).collect()
}

fn has_rule(vs: &[v::Violation], rule: &str) -> bool {
    vs.iter().any(|x| x.rule == rule)
}

/// Node indices holding multi-input compute ops — the interesting
/// corruption sites for arity/SSA violations.
fn compute_sites(g: &Graph) -> Vec<usize> {
    g.iter()
        .filter(|(_, n)| n.op().is_compute() && !n.inputs().is_empty())
        .map(|(id, _)| id.index())
        .collect()
}

// ---------------------------------------------------------------- ir

#[test]
fn ir_accepts_every_benchmark_app() {
    for app in apex::apps::analyzed_apps()
        .into_iter()
        .chain(apex::apps::unseen_apps())
    {
        let vs = v::verify_graph(&app.graph);
        assert!(vs.is_empty(), "{}:\n{}", app.info.name, v::render(&vs));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn ir_rejects_truncated_arity_anywhere(site in 0usize..10_000) {
        let g = apex::apps::gaussian().graph;
        let sites = compute_sites(&g);
        let idx = sites[site % sites.len()];
        let mut r = rows(&g);
        r[idx].1.pop();
        let vs = v::verify_graph(&Graph::from_raw_parts("arity", r));
        prop_assert!(has_rule(&vs, "IR-ARITY"), "{}", v::render(&vs));
    }

    #[test]
    fn ir_rejects_forward_reference_anywhere(site in 0usize..10_000) {
        let g = apex::apps::gaussian().graph;
        let sites = compute_sites(&g);
        let idx = sites[site % sites.len()];
        let mut r = rows(&g);
        let forward = NodeId((r.len() - 1) as u32);
        r[idx].1[0] = forward;
        let vs = v::verify_graph(&Graph::from_raw_parts("ssa", r));
        prop_assert!(has_rule(&vs, "IR-SSA"), "{}", v::render(&vs));
    }
}

#[test]
fn ir_rejects_type_mismatch_and_dead_node() {
    // Mux select port wants a bit; feed it a word
    let r = vec![
        (Op::Input, vec![]),
        (Op::Input, vec![]),
        (Op::Mux, vec![NodeId(0), NodeId(1), NodeId(0)]),
        (Op::Output, vec![NodeId(2)]),
    ];
    let vs = v::verify_graph(&Graph::from_raw_parts("ty", r));
    assert!(has_rule(&vs, "IR-TYPE"), "{}", v::render(&vs));

    // an Add that reaches no primary output
    let r = vec![
        (Op::Input, vec![]),
        (Op::Add, vec![NodeId(0), NodeId(0)]),
        (Op::Output, vec![NodeId(0)]),
    ];
    let vs = v::verify_graph(&Graph::from_raw_parts("dead", r));
    assert!(has_rule(&vs, "IR-DEAD"), "{}", v::render(&vs));
}

#[test]
fn ir_rejects_input_independent_output() {
    let r = vec![
        (Op::Input, vec![]),
        (Op::Const(7), vec![]),
        (Op::Output, vec![NodeId(1)]),
        (Op::Output, vec![NodeId(0)]),
    ];
    let vs = v::verify_graph(&Graph::from_raw_parts("const-out", r));
    assert!(has_rule(&vs, "IR-OUTPUT"), "{}", v::render(&vs));
}

// -------------------------------------------------------------- mine

#[test]
fn mine_accepts_honest_results_and_rejects_corruptions() {
    let app = apex::apps::gaussian();
    let mined = apex::mining::mine(&app.graph, &apex::mining::MinerConfig::default())
        .expect("mining gaussian succeeds");
    let vs = v::verify_mined(&app.graph, &mined.subgraphs);
    assert!(vs.is_empty(), "{}", v::render(&vs));

    // inflated MIS: claims more non-overlapping occurrences than exist
    let mut bad = mined.subgraphs.clone();
    bad[0].mis_size = bad[0].occurrences.len() + 7;
    let vs = v::verify_mined(&app.graph, &bad);
    assert!(has_rule(&vs, "MINE-MIS"), "{}", v::render(&vs));

    // support below the MIS bound is internally inconsistent
    let mut bad = mined.subgraphs.clone();
    bad[0].mni_support = 0;
    let vs = v::verify_mined(&app.graph, &bad);
    assert!(has_rule(&vs, "MINE-SUPPORT"), "{}", v::render(&vs));

    // an occurrence pointing at out-of-graph nodes
    let mut bad = mined.subgraphs.clone();
    let huge = NodeId(app.graph.len() as u32 + 100);
    for n in &mut bad[0].occurrences[0] {
        *n = huge;
    }
    let vs = v::verify_mined(&app.graph, &bad);
    assert!(has_rule(&vs, "MINE-OCC-SIZE"), "{}", v::render(&vs));

    // a representative that no longer realizes the pattern edges
    let mut bad = mined.subgraphs.clone();
    bad[0].representative.clear();
    let vs = v::verify_mined(&app.graph, &bad);
    assert!(has_rule(&vs, "MINE-REP"), "{}", v::render(&vs));
}

// ----------------------------------------------- merge / rewrite / pe

fn spec_variant() -> apex::core::PeVariant {
    let app = apex::apps::gaussian();
    apex::core::specialized_variant(
        "pe_verify_test",
        &[&app],
        &[&app],
        &apex::mining::MinerConfig::default(),
        &apex::core::SubgraphSelection::default(),
        &apex::merge::MergeOptions::default(),
        &apex::tech::TechModel::default(),
        &std::collections::BTreeSet::new(),
    )
    .expect("specialized variant builds")
}

#[test]
fn merge_rejects_swapped_inputs_and_duplicate_mux_legs() {
    let variant = spec_variant();
    let dp = &variant.spec.datapath;
    let vs = v::verify_datapath(dp, &variant.sources);
    assert!(vs.is_empty(), "{}", v::render(&vs));

    // swapping a config's first two word inputs breaks the witness for
    // any order-sensitive source (gaussian's merged kernels are)
    let mut bad = dp.clone();
    let swapped = bad
        .configs
        .iter()
        .position(|c| c.word_input_map.len() >= 2)
        .expect("a multi-input config exists");
    bad.configs[swapped].word_input_map.swap(0, 1);
    let vs = v::verify_datapath(&bad, &variant.sources);
    assert!(
        has_rule(&vs, "MERGE-WITNESS") || has_rule(&vs, "MERGE-CONFIG"),
        "{}",
        v::render(&vs)
    );

    // duplicated mux leg: same source listed twice on one port
    let mut bad = dp.clone();
    let node = bad
        .nodes
        .iter()
        .position(|n| n.port_candidates.iter().any(|c| !c.is_empty()))
        .expect("a fed port exists");
    let port = bad.nodes[node]
        .port_candidates
        .iter()
        .position(|c| !c.is_empty())
        .expect("port");
    let dup = bad.nodes[node].port_candidates[port][0];
    bad.nodes[node].port_candidates[port].push(dup);
    let vs = v::verify_datapath(&bad, &variant.sources);
    assert!(has_rule(&vs, "MERGE-MUX"), "{}", v::render(&vs));

    // a candidate naming a word input the PE lacks
    let mut bad = dp.clone();
    bad.nodes[node].port_candidates[port].push(apex::merge::DpSource::WordInput(99));
    let vs = v::verify_datapath(&bad, &variant.sources);
    assert!(has_rule(&vs, "MERGE-PORT"), "{}", v::render(&vs));
    assert!(bad.validate().is_err());

    // a unit without ops that feeds another unit
    let mut bad = dp.clone();
    let fed = dp
        .nodes
        .iter()
        .flat_map(|n| n.port_candidates.iter().flatten())
        .find_map(|c| match *c {
            apex::merge::DpSource::Node(j) => Some(j as usize),
            _ => None,
        })
        .expect("a unit feeds another");
    bad.nodes[fed].ops.clear();
    let vs = v::verify_datapath(&bad, &variant.sources);
    assert!(has_rule(&vs, "MERGE-STRUCT"), "{}", v::render(&vs));
    assert!(bad.validate().is_err());
}

/// Mutants of `dp.configs[ci]`: each input map with its first two
/// entries swapped, and shortened by one; each selected port moved to
/// the port's next candidate; and each configured op flipped to another
/// op of its unit with the same signature.
fn config_mutants(dp: &MergedDatapath, ci: usize) -> Vec<DatapathConfig> {
    let cfg = &dp.configs[ci];
    let mut out = Vec::new();
    for bit in [false, true] {
        for shorten in [false, true] {
            let mut m = cfg.clone();
            let map = if bit {
                &mut m.bit_input_map
            } else {
                &mut m.word_input_map
            };
            let mutated = if shorten {
                map.pop().is_some()
            } else {
                map.len() >= 2 && {
                    map.swap(0, 1);
                    true
                }
            };
            if mutated {
                out.push(m);
            }
        }
    }
    for (i, nc) in cfg.node_cfg.iter().enumerate() {
        let Some(nc) = nc else { continue };
        for (port, &sel) in nc.port_sel.iter().enumerate() {
            let legs = dp.nodes[i].port_candidates[port].len() as u32;
            if legs > 1 {
                let mut m = cfg.clone();
                m.node_cfg[i].as_mut().expect("active").port_sel[port] = (sel + 1) % legs;
                out.push(m);
            }
        }
        let flip = dp.nodes[i].ops.iter().find(|&&op| {
            op != nc.op
                && op.is_compute()
                && !matches!(op, Op::Const(_) | Op::BitConst(_) | Op::Lut(_))
                && op.input_types() == nc.op.input_types()
                && op.output_type() == nc.op.output_type()
        });
        if let Some(&op) = flip {
            let mut m = cfg.clone();
            m.node_cfg[i].as_mut().expect("active").op = op;
            out.push(m);
        }
    }
    out
}

#[test]
fn merge_witness_fires_exactly_when_synthesis_drops_the_configuration() {
    let apps: Vec<apex::apps::Application> = apex::apps::analyzed_apps()
        .into_iter()
        .chain(apex::apps::unseen_apps())
        .collect();
    assert_eq!(apps.len(), 9);
    let (mut kept, mut dropped) = (0, 0);
    for app in &apps {
        let variant = apex::core::specialized_variant(
            &format!("pe_spec_{}", app.info.name),
            &[app],
            &[app],
            &apex::mining::MinerConfig::default(),
            &apex::core::SubgraphSelection::default(),
            &apex::merge::MergeOptions::default(),
            &apex::tech::TechModel::default(),
            &std::collections::BTreeSet::new(),
        )
        .expect("suite variant builds");
        let (dp, sources) = (&variant.spec.datapath, &variant.sources);
        let vs = v::verify_datapath(dp, sources);
        assert!(vs.is_empty(), "{}", v::render(&vs));
        assert_eq!(rules_from_configs(dp, sources).len(), sources.len());
        for ci in 0..dp.configs.len() {
            for cfg in config_mutants(dp, ci) {
                let mut bad = dp.clone();
                bad.configs[ci] = cfg;
                let drops = rules_from_configs(&bad, sources).len() < sources.len();
                let vs = v::verify_datapath(&bad, sources);
                assert_eq!(
                    has_rule(&vs, "MERGE-WITNESS"),
                    drops,
                    "{} config[{ci}] {:?}: {}",
                    app.info.name,
                    bad.configs[ci],
                    v::render(&vs)
                );
                if drops {
                    dropped += 1;
                } else {
                    kept += 1;
                }
            }
        }
    }
    assert!(kept > 0 && dropped > 0, "{kept} kept, {dropped} dropped");
}

#[test]
fn rewrite_rejects_interface_and_equivalence_lies() {
    let variant = spec_variant();
    let dp = &variant.spec.datapath;
    let rules = &variant.rules.rules;
    let vs = v::verify_ruleset(dp, rules);
    assert!(vs.is_empty(), "{}", v::render(&vs));

    // an extra claimed word input desynchronizes pattern and config
    let mut bad = rules.to_vec();
    bad[0].config.word_input_map.push(0);
    let vs = v::verify_ruleset(dp, &bad);
    assert!(has_rule(&vs, "RULE-IFACE"), "{}", v::render(&vs));

    // flip an Add to a Sub inside one rule's pattern: the config still
    // computes the old pattern, so the rule now lies about its semantics
    let lie = rules
        .iter()
        .position(|r| r.pattern.iter().any(|(_, n)| n.op() == Op::Add))
        .expect("a rule with an Add exists");
    let mut bad = rules.to_vec();
    let flipped: Vec<(Op, Vec<NodeId>)> = bad[lie]
        .pattern
        .iter()
        .map(|(_, n)| {
            let op = if n.op() == Op::Add { Op::Sub } else { n.op() };
            (op, n.inputs().to_vec())
        })
        .collect();
    bad[lie].pattern = Graph::from_raw_parts(bad[lie].pattern.name(), flipped);
    let vs = v::verify_ruleset(dp, &bad);
    assert!(has_rule(&vs, "RULE-EQUIV"), "{}", v::render(&vs));
}

#[test]
fn pe_rejects_malformed_pipelines() {
    let variant = spec_variant();
    let tech = apex::tech::TechModel::default();
    let mut spec = variant.spec.clone();
    apex::pipeline::auto_pipeline(&mut spec, &tech, &apex::pipeline::PePipelineOptions::default())
        .expect("pipelining succeeds");
    let vs = v::verify_pe(&spec);
    assert!(vs.is_empty(), "{}", v::render(&vs));

    let pipeline = spec.pipeline.clone().expect("pipelined");

    // stage vector shorter than the datapath
    let mut bad = spec.clone();
    if let Some(p) = bad.pipeline.as_mut() {
        p.stage_of_node.pop();
    }
    assert!(has_rule(&v::verify_pe(&bad), "PE-PIPE-LEN"));

    // a stage index beyond the declared stage count
    let mut bad = spec.clone();
    if let Some(p) = bad.pipeline.as_mut() {
        p.stage_of_node[0] = p.stages + 3;
    }
    assert!(has_rule(&v::verify_pe(&bad), "PE-PIPE-RANGE"));

    // reversing the stage assignment breaks dataflow monotonicity
    // (only meaningful when the pipeline actually has 2+ stages)
    if pipeline.stages >= 2 {
        let mut bad = spec.clone();
        if let Some(p) = bad.pipeline.as_mut() {
            for s in &mut p.stage_of_node {
                *s = p.stages - 1 - *s;
            }
        }
        assert!(has_rule(&v::verify_pe(&bad), "PE-PIPE-ORDER"));
    }
}

// ----------------------------------------------- map / place / route / bits

struct Backend {
    netlist: apex::map::Netlist,
    rules: apex::rewrite::RuleSet,
    dp: apex::merge::MergedDatapath,
    fabric: apex::cgra::Fabric,
    placement: apex::cgra::Placement,
    routing: apex::cgra::Routing,
    bs: apex::cgra::Bitstream,
}

fn backend() -> Backend {
    let app = apex::apps::gaussian();
    let variant = spec_variant();
    let design = apex::map::map_application(&app.graph, &variant.spec.datapath, &variant.rules)
        .expect("maps");
    let fabric = apex::cgra::Fabric::new(apex::cgra::FabricConfig::default());
    let placement =
        apex::cgra::place(&design.netlist, &fabric, &apex::cgra::PlaceOptions::default())
            .expect("places");
    let routing = apex::cgra::route(
        &design.netlist,
        &variant.rules,
        &fabric,
        &placement,
        &apex::cgra::RouteOptions::default(),
    )
    .expect("routes");
    let bs = apex::cgra::generate_bitstream(
        &design.netlist,
        &variant.rules,
        &variant.spec.datapath,
        &fabric,
        &placement,
        &routing,
    );
    Backend {
        netlist: design.netlist,
        rules: variant.rules,
        dp: variant.spec.datapath,
        fabric,
        placement,
        routing,
        bs,
    }
}

#[test]
fn backend_passes_accept_honest_artifacts() {
    let b = backend();
    for (pass, vs) in [
        ("map", v::verify_netlist(&b.netlist, &b.rules)),
        ("place", v::verify_placement(&b.netlist, &b.fabric, &b.placement)),
        (
            "route",
            v::verify_routing(&b.netlist, &b.rules, &b.fabric, &b.placement, &b.routing),
        ),
        (
            "bits",
            v::verify_bitstream(
                &b.netlist, &b.rules, &b.dp, &b.fabric, &b.placement, &b.routing, &b.bs,
            ),
        ),
    ] {
        assert!(vs.is_empty(), "{pass}:\n{}", v::render(&vs));
    }
}

#[test]
fn map_rejects_out_of_range_rule_reference() {
    let b = backend();
    let mut bad = b.netlist.clone();
    let pe = bad
        .nodes
        .iter_mut()
        .find_map(|n| match &mut n.kind {
            apex::map::NetKind::Pe(inst) => Some(inst),
            _ => None,
        })
        .expect("a PE node exists");
    pe.rule = 9999;
    let vs = v::verify_netlist(&bad, &b.rules);
    assert!(has_rule(&vs, "MAP-NETLIST"), "{}", v::render(&vs));
}

#[test]
fn place_rejects_overloaded_and_misclassed_tiles() {
    let b = backend();
    let pe_nodes: Vec<usize> = b
        .netlist
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| matches!(n.kind, apex::map::NetKind::Pe(_)))
        .map(|(i, _)| i)
        .collect();
    assert!(pe_nodes.len() >= 2, "gaussian maps to 2+ PEs");

    // two PE nodes on one tile exceeds the PE-slot capacity of 1
    let mut bad = b.placement.clone();
    bad.tile_of_node[pe_nodes[1]] = bad.tile_of_node[pe_nodes[0]];
    let vs = v::verify_placement(&b.netlist, &b.fabric, &bad);
    assert!(has_rule(&vs, "PLACE-CAP"), "{}", v::render(&vs));

    // a PE node on an Io tile is the wrong place class
    let io_tile = (0..b.fabric.len() as u32)
        .map(apex::cgra::TileId)
        .find(|&t| b.fabric.kind(t) == apex::cgra::TileKind::Io)
        .expect("fabric has Io tiles");
    let mut bad = b.placement.clone();
    bad.tile_of_node[pe_nodes[0]] = Some(io_tile);
    let vs = v::verify_placement(&b.netlist, &b.fabric, &bad);
    assert!(has_rule(&vs, "PLACE-CLASS"), "{}", v::render(&vs));
}

#[test]
fn route_rejects_dropped_and_broken_routes() {
    let b = backend();

    // dropping a route desynchronizes the netlist's connection set
    let mut bad = b.routing.clone();
    bad.routes.pop();
    let vs = v::verify_routing(&b.netlist, &b.rules, &b.fabric, &b.placement, &bad);
    assert!(has_rule(&vs, "ROUTE-COUNT"), "{}", v::render(&vs));

    // removing an interior hop breaks path adjacency
    let long = b
        .routing
        .routes
        .iter()
        .position(|r| r.path.len() >= 3)
        .expect("a multi-hop route exists");
    let mut bad = b.routing.clone();
    bad.routes[long].path.remove(1);
    let vs = v::verify_routing(&b.netlist, &b.rules, &b.fabric, &b.placement, &bad);
    assert!(
        has_rule(&vs, "ROUTE-PATH") || has_rule(&vs, "ROUTE-ENDPOINT"),
        "{}",
        v::render(&vs)
    );
}

#[test]
fn bitstream_rejects_missing_crossings_and_bogus_tracks() {
    let b = backend();

    // erase every switchbox config: routed hops lose their crossings
    let mut bad = b.bs.clone();
    for cfgs in bad.tiles.values_mut() {
        cfgs.retain(|c| !matches!(c, apex::cgra::TileConfig::Sb { .. }));
    }
    let vs = v::verify_bitstream(
        &b.netlist, &b.rules, &b.dp, &b.fabric, &b.placement, &b.routing, &bad,
    );
    assert!(has_rule(&vs, "BITS-SB"), "{}", v::render(&vs));

    // a track index past the fabric's channel width is unencodable
    let mut bad = b.bs.clone();
    let mut poisoned = false;
    for cfgs in bad.tiles.values_mut() {
        for c in cfgs.iter_mut() {
            if let apex::cgra::TileConfig::Sb { crossings } = c {
                if let Some(x) = crossings.first_mut() {
                    x.2 = 200;
                    poisoned = true;
                    break;
                }
            }
        }
        if poisoned {
            break;
        }
    }
    assert!(poisoned, "a switchbox crossing exists to poison");
    let vs = v::verify_bitstream(
        &b.netlist, &b.rules, &b.dp, &b.fabric, &b.placement, &b.routing, &bad,
    );
    assert!(has_rule(&vs, "BITS-TRACK"), "{}", v::render(&vs));
}
