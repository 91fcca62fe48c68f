//! PE datasheet generation: a human-readable summary of a PE
//! specification — functional units, configuration space, I/O, cost
//! breakdown, and per-configuration timing — plus a self-checking Verilog
//! testbench for the emitted RTL.

use crate::cost::{config_bits, config_critical_path, config_energy};
use crate::pe_spec::PeSpec;
use apex_merge::{DatapathConfig, DpSource};
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
    let module = sanitize(&spec.name);
    let packed = pack_bits(dp, cfg);
    let mut s = String::new();
    let _ = writeln!(s, "// Self-checking testbench for PE '{}'", spec.name);
    let _ = writeln!(s, "`timescale 1ns/1ps");
    let _ = writeln!(s, "module tb_{module};");
    let _ = writeln!(s, "  reg clk = 0;");
    let _ = writeln!(s, "  always #0.55 clk = ~clk;");
    let _ = writeln!(s, "  reg [{}:0] cfg;", packed.len().max(1) - 1);
    for k in 0..dp.word_inputs {
        let _ = writeln!(s, "  reg [15:0] word_in{k};");
    }
    for k in 0..dp.bit_inputs {
        let _ = writeln!(s, "  reg bit_in{k};");
    }
    for o in 0..dp.word_outputs {
        let _ = writeln!(s, "  wire [15:0] word_out{o};");
    }
    for o in 0..dp.bit_outputs {
        let _ = writeln!(s, "  wire bit_out{o};");
    }
    let mut ports = vec![".clk(clk)".to_owned(), ".cfg(cfg)".to_owned()];
    for k in 0..dp.word_inputs {
        ports.push(format!(".word_in{k}(word_in{k})"));
    }
    for k in 0..dp.bit_inputs {
        ports.push(format!(".bit_in{k}(bit_in{k})"));
    }
    for o in 0..dp.word_outputs {
        ports.push(format!(".word_out{o}(word_out{o})"));
    }
    for o in 0..dp.bit_outputs {
        ports.push(format!(".bit_out{o}(bit_out{o})"));
    }
    let _ = writeln!(s, "  {module} dut ({});", ports.join(", "));
    let _ = writeln!(s, "  integer errors = 0;");
    let _ = writeln!(s, "  initial begin");
    let mut cfg_bits = String::new();
    for b in packed.iter().rev() {
        cfg_bits.push(if *b { '1' } else { '0' });
    }
    let _ = writeln!(s, "    cfg = {}'b{};", packed.len(), cfg_bits);
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

/// Packs a configuration into bits with the emitter's layout (mirrors
/// `apex_cgra::pack_config`, kept here so the PE crate stays standalone).
fn pack_bits(dp: &apex_merge::MergedDatapath, cfg: &DatapathConfig) -> Vec<bool> {
    use apex_ir::Op;
    let mut bits: Vec<bool> = Vec::new();
    let push_val = |bits: &mut Vec<bool>, value: u64, width: usize| {
        for k in 0..width {
            bits.push((value >> k) & 1 == 1);
        }
    };
    let width_for = |choices: usize| -> usize {
        if choices <= 1 {
            0
        } else {
            (usize::BITS - (choices - 1).leading_zeros()) as usize
        }
    };
    for (i, node) in dp.nodes.iter().enumerate() {
        let nc = cfg.node_cfg.get(i).and_then(Option::as_ref);
        let op_idx = nc
            .and_then(|nc| {
                node.ops.iter().position(|o| match (o, &nc.op) {
                    (Op::Const(_), Op::Const(_)) => true,
                    (Op::BitConst(_), Op::BitConst(_)) => true,
                    (Op::Lut(_), Op::Lut(_)) => true,
                    (a, b) => a == b,
                })
            })
            .unwrap_or(0);
        push_val(&mut bits, op_idx as u64, width_for(node.ops.len()));
        for (k, op) in node.ops.iter().enumerate() {
            let active = nc.filter(|_| k == op_idx);
            match op {
                Op::Const(_) => {
                    let v = match active.map(|nc| nc.op) {
                        Some(Op::Const(v)) => v,
                        _ => 0,
                    };
                    push_val(&mut bits, u64::from(v), 16);
                }
                Op::BitConst(_) => {
                    let v = matches!(active.map(|nc| nc.op), Some(Op::BitConst(true)));
                    push_val(&mut bits, u64::from(v), 1);
                }
                Op::Lut(_) => {
                    let v = match active.map(|nc| nc.op) {
                        Some(Op::Lut(t)) => t,
                        _ => 0,
                    };
                    push_val(&mut bits, u64::from(v), 8);
                }
                _ => {}
            }
        }
        for (p, cands) in node.port_candidates.iter().enumerate() {
            let sel = nc.and_then(|nc| nc.port_sel.get(p)).copied().unwrap_or(0);
            push_val(&mut bits, u64::from(sel), width_for(cands.len()));
        }
    }
    let total_sources = dp.nodes.len() + dp.word_inputs + dp.bit_inputs;
    let w = width_for(total_sources);
    let src_index = |s: DpSource| -> usize {
        match s {
            DpSource::WordInput(k) => k as usize,
            DpSource::BitInput(k) => dp.word_inputs + k as usize,
            DpSource::Node(j) => dp.word_inputs + dp.bit_inputs + j as usize,
        }
    };
    for o in 0..dp.word_outputs {
        let v = cfg.word_out_sel.get(o).map(|s| src_index(*s)).unwrap_or(0);
        push_val(&mut bits, v as u64, w);
    }
    for o in 0..dp.bit_outputs {
        let v = cfg.bit_out_sel.get(o).map(|s| src_index(*s)).unwrap_or(0);
        push_val(&mut bits, v as u64, w);
    }
    if bits.is_empty() {
        bits.push(false);
    }
    bits
}

fn sanitize(name: &str) -> String {
    let s: String = name
        .chars()
        .map(|c| if c.is_alphanumeric() || c == '_' { c } else { '_' })
        .collect();
    if s.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        format!("pe_{s}")
    } else {
        s
    }
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
