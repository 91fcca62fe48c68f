//! Golden gate on a PE's hardware outputs: its RTL, the full-array RTL
//! built around it, its datasheet, self-checking testbenches, its
//! configuration width and the packed bits of every stored and every
//! rule configuration, pinned by FNV-1a digests. It covers four PEs:
//! the baseline PE, two specialized PEs whose units have
//! non-power-of-two op and candidate counts and `Const`, `BitConst` and
//! `Lut` payloads, and a pipelined copy of one of them, so the RTL's
//! delay chains are covered too. Any change to a field's order or width,
//! a packed bit or an emitted line changes a digest.

use apex::apps::{analyzed_apps, by_name, Application};
use apex::cgra::{emit_cgra_verilog, Fabric, FabricConfig};
use apex::core::{baseline_variant, specialized_variant, PeVariant, SubgraphSelection};
use apex::fault::fnv1a;
use apex::ir::Op;
use apex::merge::{DatapathConfig, MergeOptions};
use apex::mining::MinerConfig;
use apex::pe::{config_bits, datasheet, emit_testbench, emit_verilog, pack_config, PeSpec};
use apex::pipeline::{auto_pipeline, PePipelineOptions};
use apex::tech::TechModel;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Input vectors applied by each testbench.
const VECTORS: usize = 3;

fn digest(text: &str) -> String {
    format!("{:016x}", fnv1a(&[text]))
}

/// The specialized PE for one suite app, built as `apex verilog spec:<app>`
/// builds it.
fn specialized(app: &str) -> PeVariant {
    let app: Application = by_name(app).expect("a suite app");
    specialized_variant(
        &format!("pe_spec_{}", app.info.name),
        &[&app],
        &[&app],
        &MinerConfig::default(),
        &SubgraphSelection::default(),
        &MergeOptions::default(),
        &TechModel::default(),
        &BTreeSet::new(),
    )
    .expect("the variant builds")
}

/// Seeded input vectors sized to the configuration's source subgraph.
fn vectors(cfg: &DatapathConfig, seed: u64) -> (Vec<Vec<u16>>, Vec<Vec<bool>>) {
    let mut s = 0x9E37_79B9_7F4A_7C15u64 ^ seed;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut words = Vec::new();
    let mut bits = Vec::new();
    for _ in 0..VECTORS {
        words.push(
            (0..cfg.word_input_map.len())
                .map(|_| next() as u16)
                .collect(),
        );
        bits.push(
            (0..cfg.bit_input_map.len())
                .map(|_| next() & 1 == 1)
                .collect(),
        );
    }
    (words, bits)
}

/// The digests of one PE's outputs, one line per output, and the
/// configurations packed.
fn pe_digests(label: &str, spec: &PeSpec, rule_configs: &[&DatapathConfig]) -> Vec<String> {
    let tech = TechModel::default();
    let dp = &spec.datapath;
    let fabric = Fabric::new(FabricConfig::default());
    let stored: Vec<&DatapathConfig> = dp.configs.iter().collect();
    let mut packed = String::new();
    let mut benches = String::new();
    for (k, cfg) in stored.iter().chain(rule_configs).enumerate() {
        let bytes = pack_config(dp, cfg);
        let _ = writeln!(packed, "{}: {bytes:?}", cfg.name);
        let (words, bits) = vectors(cfg, k as u64);
        benches.push_str(&emit_testbench(spec, cfg, &words, &bits));
    }
    vec![
        format!("{label}/config_bits={}", config_bits(dp)),
        format!("{label}/verilog={}", digest(&emit_verilog(spec))),
        format!(
            "{label}/array={}",
            digest(&emit_cgra_verilog(&fabric, spec))
        ),
        format!("{label}/datasheet={}", digest(&datasheet(spec, &tech))),
        format!("{label}/testbench={}", digest(&benches)),
        format!(
            "{label}/pack({}+{})={}",
            stored.len(),
            rule_configs.len(),
            digest(&packed)
        ),
    ]
}

fn rule_configs(variant: &PeVariant) -> Vec<&DatapathConfig> {
    variant.rules.rules.iter().map(|r| &r.config).collect()
}

#[test]
fn pe_hardware_outputs_are_pinned() {
    // variants are built fresh: the run reads and writes no cache directory
    std::env::set_var("APEX_CACHE", "off");
    let apps = analyzed_apps();
    let refs: Vec<&Application> = apps.iter().collect();
    let base = baseline_variant(&refs).expect("the baseline variant builds");
    let camera = specialized("camera");
    let fast = specialized("fast");
    // the layout's corner cases are present: select widths that round up,
    // and every payload kind
    let units = || {
        camera
            .spec
            .datapath
            .nodes
            .iter()
            .chain(&fast.spec.datapath.nodes)
    };
    assert!(units().any(|n| n.ops.len() > 2 && !n.ops.len().is_power_of_two()));
    assert!(units()
        .flat_map(|n| &n.port_candidates)
        .any(|c| c.len() > 2 && !c.len().is_power_of_two()));
    for payload in [Op::Const(0), Op::BitConst(false), Op::Lut(0)] {
        let kind = payload.kind();
        assert!(
            units().any(|n| n.ops.iter().any(|op| op.kind() == kind)),
            "{kind:?}"
        );
    }
    let mut piped = camera.spec.clone();
    piped.name = "pe_spec_camera_piped".to_owned();
    auto_pipeline(
        &mut piped,
        &TechModel::default(),
        &PePipelineOptions::default(),
    )
    .expect("pipelines");
    assert!(
        emit_verilog(&piped).contains("_d1 <="),
        "the pipelined PE's RTL has a delay chain"
    );

    let mut digests = Vec::new();
    digests.extend(pe_digests("base", &base.spec, &rule_configs(&base)));
    digests.extend(pe_digests("camera", &camera.spec, &rule_configs(&camera)));
    digests.extend(pe_digests("fast", &fast.spec, &rule_configs(&fast)));
    digests.extend(pe_digests("camera_piped", &piped, &rule_configs(&camera)));
    assert_eq!(
        digests,
        [
            "base/config_bits=87",
            "base/verilog=ec09669d020a3a89",
            "base/array=91a14e2683201070",
            "base/datasheet=724edf559aa4db89",
            "base/testbench=58e2f8b0699520de",
            "base/pack(0+24)=71efa6d4c096e662",
            "camera/config_bits=71",
            "camera/verilog=1c0b6e7344ab3e47",
            "camera/array=3fe774b6aa49eeca",
            "camera/datasheet=9ae4e5f137c67a8c",
            "camera/testbench=9a7a968b3fcf1350",
            "camera/pack(2+23)=0607171af62f1391",
            "fast/config_bits=89",
            "fast/verilog=a4f9d4200edc26f9",
            "fast/array=06aa70026fe449a8",
            "fast/datasheet=0807fdaf533b8ccf",
            "fast/testbench=286ce7b469b47b72",
            "fast/pack(2+13)=44ba402c163b8d33",
            "camera_piped/config_bits=71",
            "camera_piped/verilog=839618d3203dd810",
            "camera_piped/array=004cd98c5bfa5709",
            "camera_piped/datasheet=fee11f663815d4ea",
            "camera_piped/testbench=f4ee7bc90a93a8f8",
            "camera_piped/pack(2+23)=0607171af62f1391",
        ]
    );
}
