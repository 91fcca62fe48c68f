//! PE datasheet generation: a human-readable summary of a PE
//! specification — functional units, configuration space, I/O, cost
//! breakdown, and per-configuration timing — plus a self-checking Verilog
//! testbench for the emitted RTL.

use crate::config::pack_config;
use crate::cost::{config_bits, config_critical_path, config_energy};
use crate::pe_spec::PeSpec;
use apex_merge::DatapathConfig;
use apex_tech::TechModel;
use std::fmt::Write as _;

/// Renders a datasheet for the PE.
pub fn datasheet(spec: &PeSpec, tech: &TechModel) -> String {
    let dp = &spec.datapath;
    let area = spec.area(tech);
    let mut s = String::new();
    let _ = writeln!(s, "PE '{}'", spec.name);
    let _ = writeln!(
        s,
        "  kind          : {}",
        if spec.legacy_control {
            "hand-designed general-purpose (baseline)"
        } else {
            "APEX-generated"
        }
    );
    let _ = writeln!(
        s,
        "  I/O           : {} word + {} bit inputs, {} word + {} bit outputs",
        dp.word_inputs, dp.bit_inputs, dp.word_outputs, dp.bit_outputs
    );
    let _ = writeln!(s, "  config bits   : {}", config_bits(dp));
    let _ = writeln!(
        s,
        "  area          : {:.1} um2 (FUs {:.1}, muxes {:.1}, config {:.1}, control {:.1})",
        area.total(),
        area.functional_units,
        area.muxes,
        area.config,
        area.control
    );
    let _ = writeln!(
        s,
        "  cycle delay   : {:.2} ns ({} pipeline stage(s))",
        spec.cycle_delay(tech),
        spec.pipeline.as_ref().map_or(1, |p| p.stages)
    );
    let _ = writeln!(s, "  functional units:");
    for (i, node) in dp.nodes.iter().enumerate() {
        let ops: Vec<String> = node.ops.iter().map(|o| o.to_string()).collect();
        let mux_legs: usize = node
            .port_candidates
            .iter()
            .map(|p| p.len().saturating_sub(1))
            .sum();
        let _ = writeln!(
            s,
            "    n{i:<3} [{}] {} port(s), {} mux leg(s)",
            ops.join("|"),
            node.arity(),
            mux_legs
        );
    }
    if !dp.configs.is_empty() {
        let _ = writeln!(s, "  stored configurations:");
        for cfg in &dp.configs {
            let active = cfg.node_cfg.iter().flatten().count();
            let _ = writeln!(
                s,
                "    {:<20} {} active unit(s), {:.2} ns, {:.2} pJ",
                cfg.name,
                active,
                config_critical_path(dp, cfg, tech),
                config_energy(dp, cfg, tech, spec.legacy_control)
            );
        }
    }
    s
}

/// Emits a self-checking Verilog testbench for one configuration of the
/// PE: applies the given input vectors, compares against the expected
/// outputs (computed by the functional model), and `$display`s PASS/FAIL.
///
/// # Panics
/// Panics if the configuration is invalid for the datapath.
// invariant: the `expect` below — stored configurations were
// validate_config-checked when the PE was built
#[allow(clippy::expect_used)]
pub fn emit_testbench(
    spec: &PeSpec,
    cfg: &DatapathConfig,
    word_vectors: &[Vec<u16>],
    bit_vectors: &[Vec<bool>],
) -> String {
    let dp = &spec.datapath;
    assert_eq!(word_vectors.len(), bit_vectors.len(), "vector count mismatch");
    let module = spec.module_name();
    let packed = pack_config(dp, cfg);
    let width = config_bits(dp).max(1);
    let mut s = String::new();
    let _ = writeln!(s, "// Self-checking testbench for PE '{}'", spec.name);
    let _ = writeln!(s, "`timescale 1ns/1ps");
    let _ = writeln!(s, "module tb_{module};");
    let _ = writeln!(s, "  reg clk = 0;");
    let _ = writeln!(s, "  always #0.55 clk = ~clk;");
    let _ = writeln!(s, "  reg [{}:0] cfg;", width - 1);
    // one declaration and one connection per PE port
    let mut ports = vec![".clk(clk)".to_owned(), ".cfg(cfg)".to_owned()];
    for (decl, name, count) in [
        ("reg [15:0]", "word_in", dp.word_inputs),
        ("reg", "bit_in", dp.bit_inputs),
        ("wire [15:0]", "word_out", dp.word_outputs),
        ("wire", "bit_out", dp.bit_outputs),
    ] {
        for k in 0..count {
            let _ = writeln!(s, "  {decl} {name}{k};");
            ports.push(format!(".{name}{k}({name}{k})"));
        }
    }
    let _ = writeln!(s, "  {module} dut ({});", ports.join(", "));
    let _ = writeln!(s, "  integer errors = 0;");
    let _ = writeln!(s, "  initial begin");
    let cfg_bits: String = (0..width)
        .rev()
        .map(|k| match packed.get(k / 8) {
            Some(byte) if byte >> (k % 8) & 1 == 1 => '1',
            _ => '0',
        })
        .collect();
    let _ = writeln!(s, "    cfg = {width}'b{cfg_bits};");
    for (v, (words, bits)) in word_vectors.iter().zip(bit_vectors).enumerate() {
        // pad vectors onto PE ports through the configuration's input maps
        let mut pe_words = vec![0u16; dp.word_inputs];
        for (i, &w) in words.iter().enumerate() {
            pe_words[cfg.word_input_map[i] as usize] = w;
        }
        let mut pe_bits = vec![false; dp.bit_inputs];
        for (i, &b) in bits.iter().enumerate() {
            pe_bits[cfg.bit_input_map[i] as usize] = b;
        }
        for (k, w) in pe_words.iter().enumerate() {
            let _ = writeln!(s, "    word_in{k} = 16'd{w};");
        }
        for (k, b) in pe_bits.iter().enumerate() {
            let _ = writeln!(s, "    bit_in{k} = 1'b{};", u8::from(*b));
        }
        // invariant: `cfg` comes from the spec's own stored configurations,
        // which validate_config checked when the PE was built
        let (exp_w, exp_b) = dp
            .evaluate(cfg, &pe_words, &pe_bits)
            .expect("valid configuration");
        let settle = spec.pipeline.as_ref().map_or(1, |p| p.stages) + 1;
        let _ = writeln!(s, "    repeat ({settle}) @(posedge clk);");
        let _ = writeln!(s, "    #0.1;");
        for (o, e) in exp_w.iter().enumerate() {
            let _ = writeln!(
                s,
                "    if (word_out{o} !== 16'd{e}) begin $display(\"FAIL v{v} word_out{o}: %0d != {e}\", word_out{o}); errors = errors + 1; end"
            );
        }
        for (o, e) in exp_b.iter().enumerate() {
            let _ = writeln!(
                s,
                "    if (bit_out{o} !== 1'b{}) begin $display(\"FAIL v{v} bit_out{o}\"); errors = errors + 1; end",
                u8::from(*e)
            );
        }
    }
    let _ = writeln!(
        s,
        "    if (errors == 0) $display(\"PASS: {} vectors\"); else $display(\"FAIL: %0d errors\", errors);",
        word_vectors.len()
    );
    let _ = writeln!(s, "    $finish;");
    let _ = writeln!(s, "  end");
    let _ = writeln!(s, "endmodule");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::baseline_pe;
    use apex_ir::{Graph, Op};
    use apex_merge::MergedDatapath;

    fn mac_spec() -> PeSpec {
        let mut g = Graph::new("mac");
        let a = g.input();
        let b = g.input();
        let c = g.input();
        let m = g.add(Op::Mul, &[a, b]);
        let s = g.add(Op::Add, &[m, c]);
        g.output(s);
        PeSpec::new("mac", MergedDatapath::from_graph(&g), false)
    }

    #[test]
    fn datasheet_covers_units_and_configs() {
        let tech = TechModel::default();
        let spec = mac_spec();
        let d = datasheet(&spec, &tech);
        assert!(d.contains("PE 'mac'"));
        assert!(d.contains("APEX-generated"));
        assert!(d.contains("[mul]"));
        assert!(d.contains("stored configurations"));
        let base = datasheet(&baseline_pe(), &tech);
        assert!(base.contains("general-purpose"));
    }

    #[test]
    fn testbench_embeds_expected_values() {
        let spec = mac_spec();
        let cfg = spec.datapath.configs[0].clone();
        let tb = emit_testbench(&spec, &cfg, &[vec![3, 4, 5]], &[vec![]]);
        assert!(tb.contains("module tb_mac"));
        // 3*4+5 = 17 must appear as the expected output
        assert!(tb.contains("16'd17"), "{tb}");
        assert!(tb.contains("$finish"));
        assert_eq!(tb.matches("FAIL").count(), 2, "one check + summary");
    }

    #[test]
    fn testbench_config_width_matches_emitter() {
        let spec = mac_spec();
        let cfg = spec.datapath.configs[0].clone();
        let tb = emit_testbench(&spec, &cfg, &[vec![1, 2, 3]], &[vec![]]);
        let expected = crate::cost::config_bits(&spec.datapath).max(1);
        assert!(
            tb.contains(&format!("reg [{}:0] cfg;", expected - 1)),
            "config register width"
        );
    }
}
