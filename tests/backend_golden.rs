//! Golden gate on the CGRA backend: placement, routing, bitstream and the
//! streams simulated from the decoded bitstream, rendered with `Debug`
//! and pinned by FNV-1a digests. It covers the nine suite apps on the
//! baseline PE, unpipelined and pipelined, plus one congested 2-track
//! fabric whose routing needs more than one negotiation round, so
//! incremental rip-up and the congestion history are covered too. Any
//! change to a tie-break, a track assignment, a packed bit or a decoded
//! configuration changes a digest.
//!
//! The variant cache's PE-Spec search records store which step the
//! search chose by evaluating each step on this backend. A change that
//! moves a digest here must therefore also bump `FORMAT` in
//! `crates/core/src/cache.rs`, or warm caches keep serving choices the
//! new backend would not make.

use apex::apps::{analyzed_apps, by_name, unseen_apps, Application};
use apex::cgra::{
    generate_bitstream, place, route, simulate_from_bitstream, Fabric, FabricConfig, PlaceOptions,
    RouteOptions,
};
use apex::fault::fnv1a;
use apex::map::{map_application, NetKind, Netlist};
use apex::pe::baseline_pe;
use apex::pipeline::{auto_pipeline, pipeline_application, AppPipelineOptions, PePipelineOptions};
use apex::rewrite::{standard_ruleset, RuleSet};
use apex::tech::TechModel;

/// Annealing moves per placement, as the report's evaluation uses.
const MOVES: usize = 8_000;
/// Input cycles streamed through the configured fabric.
const CYCLES: usize = 16;

/// Seeded input streams: one per word and bit input node.
fn streams(netlist: &Netlist) -> (Vec<Vec<u16>>, Vec<Vec<bool>>) {
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let count = |kind: NetKind| netlist.nodes.iter().filter(|n| n.kind == kind).count();
    let words = (0..count(NetKind::WordInput))
        .map(|_| (0..CYCLES).map(|_| next() as u16).collect())
        .collect();
    let bits = (0..count(NetKind::BitInput))
        .map(|_| (0..CYCLES).map(|_| next() & 1 == 1).collect())
        .collect();
    (words, bits)
}

/// Places, routes, packs and simulates one netlist; returns the digest of
/// the four `Debug` renderings and the number of negotiation rounds.
fn backend(
    netlist: &Netlist,
    rules: &RuleSet,
    fabric: &Fabric,
    pe_latency: u32,
) -> (String, usize) {
    let dp = &baseline_pe().datapath;
    let options = PlaceOptions {
        moves: MOVES,
        ..PlaceOptions::default()
    };
    let placement = place(netlist, fabric, &options).expect("the design fits the fabric");
    let routing = route(netlist, rules, fabric, &placement, &RouteOptions::default())
        .expect("the design routes");
    let bitstream = generate_bitstream(netlist, rules, dp, fabric, &placement, &routing);
    let (words, bits) = streams(netlist);
    let simulated = simulate_from_bitstream(
        netlist, rules, dp, &placement, &bitstream, &words, &bits, pe_latency,
    )
    .expect("the decoded bitstream simulates");
    let text = format!("{placement:?}\n{routing:?}\n{bitstream:?}\n{simulated:?}\n");
    (format!("{:016x}", fnv1a(&[&text])), routing.iterations)
}

/// The app's netlist on the baseline PE, unpipelined or pipelined as
/// `apex report` pipelines it, with its PE latency.
fn mapped(app: &Application, pipelined: bool) -> (Netlist, RuleSet, u32) {
    let pe = baseline_pe();
    let (rules, _) = standard_ruleset(&pe.datapath, &[], &[&app.graph]).expect("rules");
    let design = map_application(&app.graph, &pe.datapath, &rules).expect("maps");
    if !pipelined {
        return (design.netlist, rules, 0);
    }
    let mut spec = pe;
    auto_pipeline(
        &mut spec,
        &TechModel::default(),
        &PePipelineOptions::default(),
    )
    .expect("pipelines");
    // registered PE outputs add one cycle
    let lat = spec.latency() + 1;
    let (netlist, _) =
        pipeline_application(&design.netlist, &rules, lat, &AppPipelineOptions::default())
            .expect("pipelines");
    (netlist, rules, lat)
}

#[test]
fn backend_output_of_the_nine_apps_is_pinned() {
    let fabric = Fabric::new(FabricConfig::default());
    let mut digests = Vec::new();
    for app in analyzed_apps().into_iter().chain(unseen_apps()) {
        for pipelined in [false, true] {
            let (netlist, rules, lat) = mapped(&app, pipelined);
            let (digest, _) = backend(&netlist, &rules, &fabric, lat);
            digests.push(format!(
                "{}/{}={digest}",
                app.info.name,
                u8::from(pipelined)
            ));
        }
    }
    // a change to any digest must bump the variant cache's `FORMAT`
    // (see the module doc): search records depend on this output
    assert_eq!(
        digests,
        [
            "camera/0=38de835ddd76ac35",
            "camera/1=fb2ff39edea21f58",
            "harris/0=03de480d1fbe7ded",
            "harris/1=0c51abdc22c15f36",
            "gaussian/0=220c8d0f98af61e2",
            "gaussian/1=2d7c1e2dbb1d9465",
            "unsharp/0=0bb99af0c01bdb56",
            "unsharp/1=4960efa852fdf234",
            "resnet/0=5b8dee2270168e62",
            "resnet/1=66d6afcdc2abd98b",
            "mobilenet/0=7c6e504c92a80428",
            "mobilenet/1=363c1de81c9e6feb",
            "laplacian/0=4386f9697bbe6481",
            "laplacian/1=dc8d95afbe7453bd",
            "stereo/0=6aeece2132d41797",
            "stereo/1=4759193f0655d1f6",
            "fast/0=053f13f888d35aab",
            "fast/1=937f6fe4505e5457",
        ]
    );
}

#[test]
fn congested_routing_negotiates_identically() {
    let app = by_name("mobilenet").expect("mobilenet is a suite app");
    let (netlist, rules, lat) = mapped(&app, false);
    let fabric = Fabric::new(FabricConfig {
        width: 24,
        height: 12,
        word_tracks: 2,
        bit_tracks: 2,
        ..FabricConfig::default()
    });
    let (digest, iterations) = backend(&netlist, &rules, &fabric, lat);
    assert!(
        iterations > 1,
        "the fabric must need rip-up: {iterations} round(s)"
    );
    assert_eq!(digest, "c9f7c5532b6cb181");
}
