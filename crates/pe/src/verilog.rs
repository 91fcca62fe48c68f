//! Verilog RTL generation from a PE specification.
//!
//! The paper generates PE RTL from PEak via Magma; our single source of
//! truth is the [`PeSpec`], from which this module emits a synthesizable
//! Verilog-2001 module: configuration-register-driven operand muxes, an
//! op-select case per multi-op functional unit, per-configuration constant
//! registers, output muxes, and (for pipelined PEs) stage registers.

use crate::config::{for_each_field, source_at, source_count, Field};
use crate::pe_spec::PeSpec;
use apex_ir::{Op, ValueType};
use apex_merge::DpSource;
use std::collections::BTreeMap;
use std::fmt::Write as _;

fn src_name(src: DpSource) -> String {
    match src {
        DpSource::WordInput(k) => format!("word_in{k}"),
        DpSource::BitInput(k) => format!("bit_in{k}"),
        DpSource::Node(j) => format!("n{j}_out"),
    }
}

/// The `cfg` port's bits `lo .. lo + width`, or a constant 0 for a
/// zero-width field.
fn slice(lo: usize, width: usize) -> String {
    match width {
        0 => "1'b0".to_owned(),
        1 => format!("cfg[{lo}]"),
        _ => format!("cfg[{}:{lo}]", lo + width - 1),
    }
}

fn op_expr(op: Op, ins: &[String]) -> String {
    let a = ins.first().cloned().unwrap_or_default();
    let b = ins.get(1).cloned().unwrap_or_default();
    let c = ins.get(2).cloned().unwrap_or_default();
    match op {
        Op::Add => format!("{a} + {b}"),
        Op::Sub => format!("{a} - {b}"),
        Op::Mul => format!("{a} * {b}"),
        Op::Abs => format!("($signed({a}) < 0) ? (~{a} + 16'd1) : {a}"),
        Op::Smin => format!("($signed({a}) < $signed({b})) ? {a} : {b}"),
        Op::Smax => format!("($signed({a}) > $signed({b})) ? {a} : {b}"),
        Op::Umin => format!("({a} < {b}) ? {a} : {b}"),
        Op::Umax => format!("({a} > {b}) ? {a} : {b}"),
        Op::Shl => format!("{a} << {b}[3:0]"),
        Op::Lshr => format!("{a} >> {b}[3:0]"),
        Op::Ashr => format!("$signed({a}) >>> {b}[3:0]"),
        Op::And => format!("{a} & {b}"),
        Op::Or => format!("{a} | {b}"),
        Op::Xor => format!("{a} ^ {b}"),
        Op::Not => format!("~{a}"),
        Op::Mux => format!("{c} ? {b} : {a}"),
        Op::Eq => format!("{a} == {b}"),
        Op::Neq => format!("{a} != {b}"),
        Op::Slt => format!("$signed({a}) < $signed({b})"),
        Op::Sle => format!("$signed({a}) <= $signed({b})"),
        Op::Sgt => format!("$signed({a}) > $signed({b})"),
        Op::Sge => format!("$signed({a}) >= $signed({b})"),
        Op::Ult => format!("{a} < {b}"),
        Op::Ule => format!("{a} <= {b}"),
        Op::Ugt => format!("{a} > {b}"),
        Op::Uge => format!("{a} >= {b}"),
        Op::BitAnd => format!("{a} & {b}"),
        Op::BitOr => format!("{a} | {b}"),
        Op::BitXor => format!("{a} ^ {b}"),
        Op::BitNot => format!("~{a}"),
        Op::BitMux => format!("{c} ? {b} : {a}"),
        // payload ops read their configuration slice; handled by caller
        Op::Const(_) | Op::BitConst(_) | Op::Lut(_) => unreachable!("payload op"),
        Op::Input | Op::BitInput | Op::Output | Op::BitOutput | Op::Reg | Op::BitReg
        | Op::Fifo(_) => {
            unreachable!("structural op in datapath")
        }
    }
}

/// Emits a synthesizable Verilog-2001 module for the PE.
///
/// Each configuration field reads its slice of the `cfg` port along the
/// layout ([`crate::for_each_field`]); the emitted module declares `localparam
/// CFG_BITS` with the total width.
pub fn emit_verilog(spec: &PeSpec) -> String {
    let dp = &spec.datapath;
    let mut cfg_bits = 0;
    let mut cfg: BTreeMap<Field, String> = BTreeMap::new();
    for_each_field(dp, |field, width| {
        cfg.insert(field, slice(cfg_bits, width));
        cfg_bits += width;
    });
    let mut body = String::new();
    let stage = |i: usize| -> u32 {
        spec.pipeline
            .as_ref()
            .map_or(0, |p| p.stage_of_node[i])
    };
    let src_stage = |s: DpSource| -> u32 {
        match s {
            DpSource::Node(j) => stage(j as usize),
            _ => 0,
        }
    };

    // per-source delayed versions needed by pipeline stage crossings:
    // name -> (max delay, is_word)
    let mut max_delay: BTreeMap<String, (usize, bool)> = BTreeMap::new();
    if spec.pipeline.is_some() {
        for (v, node) in dp.nodes.iter().enumerate() {
            for port in &node.port_candidates {
                for &src in port {
                    let d = stage(v).saturating_sub(src_stage(src)) as usize;
                    if d > 0 {
                        let name = src_name(src);
                        let is_word = dp.source_type(src) == ValueType::Word;
                        let e = max_delay.entry(name).or_insert((0, is_word));
                        e.0 = e.0.max(d);
                    }
                }
            }
        }
    }

    let delayed = |name: &str, d: usize| -> String {
        if d == 0 {
            name.to_owned()
        } else {
            format!("{name}_d{d}")
        }
    };

    for (i, node) in dp.nodes.iter().enumerate() {
        let out_word = node.output_type() == ValueType::Word;
        let width = if out_word { "[15:0] " } else { "" };
        let _ = writeln!(body, "  // node {i}: {:?}", node.ops);
        // port muxes
        let mut port_wires = Vec::new();
        for (p, cands) in node.port_candidates.iter().enumerate() {
            let sel = &cfg[&Field::PortSelect(i, p)];
            let wname = format!("n{i}_p{p}");
            let pw = if dp
                .nodes[i]
                .ops
                .iter()
                .any(|op| p < op.arity() && op.input_types()[p] == ValueType::Word)
            {
                "[15:0] "
            } else {
                ""
            };
            if cands.is_empty() {
                let _ = writeln!(body, "  wire {pw}{wname} = 0; // unused port");
            } else if cands.len() == 1 {
                let d = stage(i).saturating_sub(src_stage(cands[0])) as usize;
                let _ = writeln!(
                    body,
                    "  wire {pw}{wname} = {};",
                    delayed(&src_name(cands[0]), d)
                );
            } else {
                let mut expr = String::new();
                for (k, &c) in cands.iter().enumerate().rev() {
                    let d = stage(i).saturating_sub(src_stage(c)) as usize;
                    let name = delayed(&src_name(c), d);
                    if k == cands.len() - 1 {
                        expr = name;
                    } else {
                        expr = format!("({sel} == {k}) ? {name} : ({expr})");
                    }
                }
                let _ = writeln!(body, "  wire {pw}{wname} = {expr};");
            }
            port_wires.push(wname);
        }
        // op evaluation: payload ops read their configuration slice
        let expr = |k: usize| match node.ops[k] {
            Op::Const(_) | Op::BitConst(_) => cfg[&Field::Payload(i, k)].clone(),
            Op::Lut(_) => format!("{}[{{n{i}_p2, n{i}_p1, n{i}_p0}}]", cfg[&Field::Payload(i, k)]),
            op => op_expr(op, &port_wires),
        };
        if node.ops.len() == 1 {
            let _ = writeln!(body, "  wire {width}n{i}_out = {};", expr(0));
        } else {
            let _ = writeln!(body, "  reg {width}n{i}_out_c;");
            let _ = writeln!(body, "  always @(*) begin");
            let _ = writeln!(body, "    case ({})", cfg[&Field::OpSelect(i)]);
            for k in 0..node.ops.len() {
                let _ = writeln!(body, "      {k}: n{i}_out_c = {};", expr(k));
            }
            let _ = writeln!(body, "      default: n{i}_out_c = 0;");
            let _ = writeln!(body, "    endcase");
            let _ = writeln!(body, "  end");
            let _ = writeln!(body, "  wire {width}n{i}_out = n{i}_out_c;");
        }
        body.push('\n');
    }

    // pipeline delay chains
    if !max_delay.is_empty() {
        let _ = writeln!(body, "  // pipeline stage registers");
        for (name, (d, is_word)) in &max_delay {
            let w = if *is_word { "[15:0] " } else { "" };
            for k in 1..=*d {
                let _ = writeln!(body, "  reg {w}{name}_d{k};");
            }
            let _ = writeln!(body, "  always @(posedge clk) begin");
            for k in 1..=*d {
                let prev = if k == 1 {
                    name.clone()
                } else {
                    format!("{name}_d{}", k - 1)
                };
                let _ = writeln!(body, "    {name}_d{k} <= {prev};");
            }
            let _ = writeln!(body, "  end");
        }
        body.push('\n');
    }

    // output muxes over the PE's source space; only sources of the
    // output's type are legal selections
    for (ty, outputs, zero, port) in [
        (ValueType::Word, dp.word_outputs, "16'd0", "word_out"),
        (ValueType::Bit, dp.bit_outputs, "1'b0", "bit_out"),
    ] {
        for output in 0..outputs {
            let sel = &cfg[&Field::OutputSelect(ty, output)];
            let mut expr = zero.to_owned();
            for k in (0..source_count(dp)).rev() {
                let src = source_at(dp, k);
                if dp.source_type(src) == ty {
                    expr = format!("({sel} == {k}) ? {} : ({expr})", src_name(src));
                }
            }
            let _ = writeln!(body, "  assign {port}{output} = {expr};");
        }
    }

    let cfg_bits = cfg_bits.max(1);
    let mut header = String::new();
    let _ = writeln!(header, "// Generated by apex-pe from spec '{}'", spec.name);
    let _ = writeln!(header, "module {} (", spec.module_name());
    let _ = writeln!(header, "  input  wire clk,");
    let _ = writeln!(header, "  input  wire [{}:0] cfg,", cfg_bits - 1);
    for k in 0..dp.word_inputs {
        let _ = writeln!(header, "  input  wire [15:0] word_in{k},");
    }
    for k in 0..dp.bit_inputs {
        let _ = writeln!(header, "  input  wire bit_in{k},");
    }
    let mut outs = Vec::new();
    for o in 0..dp.word_outputs {
        outs.push(format!("  output wire [15:0] word_out{o}"));
    }
    for o in 0..dp.bit_outputs {
        outs.push(format!("  output wire bit_out{o}"));
    }
    let _ = writeln!(header, "{}", outs.join(",\n"));
    let _ = writeln!(header, ");");
    let _ = writeln!(header, "  localparam CFG_BITS = {cfg_bits};");
    header.push('\n');

    format!("{header}{body}endmodule\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::baseline_pe;
    use crate::cost::config_bits;
    use apex_ir::{Graph, Op};
    use apex_merge::MergedDatapath;
    use crate::pe_spec::{PePipeline, PeSpec};

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
    fn emits_wellformed_module() {
        let v = emit_verilog(&mac_spec());
        assert!(v.starts_with("// Generated"));
        assert!(v.contains("module mac ("));
        assert!(v.trim_end().ends_with("endmodule"));
        assert_eq!(v.matches("\nendmodule").count(), 1);
        assert_eq!(v.matches("module ").count(), 1);
    }

    #[test]
    fn config_width_matches_cost_model() {
        for spec in [mac_spec(), baseline_pe()] {
            let v = emit_verilog(&spec);
            let expected = config_bits(&spec.datapath).max(1);
            assert!(
                v.contains(&format!("localparam CFG_BITS = {expected};")),
                "{}: expected {expected} cfg bits\n{v}",
                spec.name
            );
        }
    }

    #[test]
    fn baseline_pe_emits_op_cases() {
        let v = emit_verilog(&baseline_pe());
        assert!(v.contains("case"));
        assert_eq!(v.matches("case (").count(), v.matches("endcase").count());
        // the ALU's add and the comparator's signed compare both appear
        assert!(v.contains(" + "));
        assert!(v.contains("$signed"));
    }

    #[test]
    fn pipelined_pe_declares_stage_registers() {
        let mut spec = mac_spec();
        spec.pipeline = Some(PePipeline {
            stage_of_node: vec![0, 1],
            stages: 2,
        });
        let v = emit_verilog(&spec);
        assert!(v.contains("always @(posedge clk)"));
        assert!(v.contains("_d1"));
    }

    #[test]
    fn every_node_and_port_appears() {
        let spec = baseline_pe();
        let v = emit_verilog(&spec);
        for i in 0..spec.datapath.node_count() {
            assert!(v.contains(&format!("n{i}_out")), "node {i} missing");
        }
        for k in 0..spec.datapath.word_inputs {
            assert!(v.contains(&format!("word_in{k}")));
        }
    }
}
