//! Full-array CGRA Verilog generation (paper Section 4, step 2b: "the PE
//! RTL is fed into CGRA RTL Verilog generation to generate the final CGRA
//! hardware").
//!
//! Emits one self-contained Verilog-2001 source containing:
//!
//! * the PE core module (via [`apex_pe::emit_verilog`]),
//! * a configuration-driven switch box (`sb`) with five word tracks and
//!   five bit tracks per direction, each with an optional pipelining
//!   register (Section 4.3's interconnect registers),
//! * a connection box (`cb`) per PE input selecting among the incoming
//!   tracks,
//! * a behavioural memory tile (two 2 KB SRAM banks), and
//! * the `cgra_top` array instantiating a tile per grid position and
//!   wiring neighbouring switch boxes together.
//!
//! The array is configuration-agnostic — the bitstream (see
//! [`crate::generate_bitstream`]) supplies per-tile configuration at run
//! time, exactly as in the AHA flow.

use crate::fabric::{Fabric, TileKind};
use apex_pe::{config_bits, emit_verilog, select_width, PeSpec};
use std::fmt::Write as _;

/// Emits the complete CGRA Verilog for a fabric built around one PE
/// specification.
pub fn emit_cgra_verilog(fabric: &Fabric, pe: &PeSpec) -> String {
    let mut v = String::new();
    let cfg = &fabric.config;
    let pe_cfg_bits = config_bits(&pe.datapath).max(1);
    let word_in = pe.datapath.word_inputs;
    let bit_in = pe.datapath.bit_inputs;

    let _ = writeln!(v, "// Generated by apex-cgra: {}x{} array, PE '{}'", cfg.width, cfg.height, pe.name);
    let _ = writeln!(v, "// word tracks: {}, bit tracks: {}\n", cfg.word_tracks, cfg.bit_tracks);

    // ---- PE core --------------------------------------------------------
    v.push_str(&emit_verilog(pe));
    v.push('\n');

    // ---- switch box -----------------------------------------------------
    let wt = cfg.word_tracks;
    let bt = cfg.bit_tracks;
    // per output track: select one of (4 dirs x tracks) inputs + the tile
    // output, plus one bit to enable the pipelining register
    let in_words = 4 * wt + 1;
    let sb_word_sel = select_width(in_words);
    let _ = writeln!(v, "module sb (");
    let _ = writeln!(v, "  input  wire clk,");
    let _ = writeln!(v, "  input  wire [{}:0] cfg,", 4 * wt * (sb_word_sel + 1) - 1);
    for d in ["n", "s", "e", "w"] {
        let _ = writeln!(v, "  input  wire [{}:0] {d}_in_w,", 16 * wt - 1);
        let _ = writeln!(v, "  input  wire [{}:0] {d}_in_b,", bt - 1);
    }
    let _ = writeln!(v, "  input  wire [15:0] tile_out_w,");
    let _ = writeln!(v, "  input  wire tile_out_b,");
    for (i, d) in ["n", "s", "e", "w"].iter().enumerate() {
        let comma = if i == 3 { "" } else { "," };
        let _ = writeln!(v, "  output wire [{}:0] {d}_out_w,", 16 * wt - 1);
        let _ = writeln!(v, "  output wire [{}:0] {d}_out_b{comma}", bt - 1);
    }
    let _ = writeln!(v, ");");
    let _ = writeln!(v, "  // flattened input bus: n, s, e, w tracks then the tile output");
    let _ = writeln!(v, "  wire [{}:0] all_w;", 16 * in_words - 1);
    let _ = writeln!(
        v,
        "  assign all_w = {{tile_out_w, w_in_w, e_in_w, s_in_w, n_in_w}};"
    );
    let mut cfg_pos = 0usize;
    for (di, d) in ["n", "s", "e", "w"].iter().enumerate() {
        for t in 0..wt {
            let sel_lo = cfg_pos;
            let sel_hi = cfg_pos + sb_word_sel - 1;
            let reg_bit = cfg_pos + sb_word_sel;
            cfg_pos += sb_word_sel + 1;
            let _ = writeln!(v, "  // {d} output track {t}");
            let _ = writeln!(
                v,
                "  wire [15:0] {d}{t}_pick = all_w >> (16 * cfg[{sel_hi}:{sel_lo}]);"
            );
            let _ = writeln!(v, "  reg  [15:0] {d}{t}_reg;");
            let _ = writeln!(v, "  always @(posedge clk) {d}{t}_reg <= {d}{t}_pick;");
            let _ = writeln!(
                v,
                "  assign {d}_out_w[{}:{}] = cfg[{reg_bit}] ? {d}{t}_reg : {d}{t}_pick;",
                16 * (t + 1) - 1,
                16 * t
            );
        }
        // bit tracks pass straight through with a rotation per direction
        let _ = writeln!(
            v,
            "  assign {d}_out_b = {{{}_in_b[{}:1], tile_out_b}};",
            ["s", "n", "w", "e"][di],
            bt - 1
        );
    }
    let _ = writeln!(v, "endmodule\n");

    // ---- connection box ----------------------------------------------------
    let cb_sel = select_width(4 * wt);
    let _ = writeln!(v, "module cb (");
    let _ = writeln!(v, "  input  wire [{}:0] cfg,", cb_sel.max(1) - 1);
    for d in ["n", "s", "e", "w"] {
        let _ = writeln!(v, "  input  wire [{}:0] {d}_w,", 16 * wt - 1);
    }
    let _ = writeln!(v, "  output wire [15:0] out_w");
    let _ = writeln!(v, ");");
    let _ = writeln!(v, "  wire [{}:0] all_w = {{w_w, e_w, s_w, n_w}};", 16 * 4 * wt - 1);
    let _ = writeln!(v, "  assign out_w = all_w >> (16 * cfg);");
    let _ = writeln!(v, "endmodule\n");

    // ---- memory tile -----------------------------------------------------------
    let _ = writeln!(v, "module mem_tile (");
    let _ = writeln!(v, "  input  wire clk,");
    let _ = writeln!(v, "  input  wire [15:0] wdata0, wdata1,");
    let _ = writeln!(v, "  input  wire [9:0] addr0, addr1,");
    let _ = writeln!(v, "  input  wire we0, we1,");
    let _ = writeln!(v, "  output reg [15:0] rdata0, rdata1");
    let _ = writeln!(v, ");");
    let _ = writeln!(v, "  reg [15:0] bank0 [0:1023];");
    let _ = writeln!(v, "  reg [15:0] bank1 [0:1023];");
    let _ = writeln!(v, "  always @(posedge clk) begin");
    let _ = writeln!(v, "    if (we0) bank0[addr0] <= wdata0;");
    let _ = writeln!(v, "    if (we1) bank1[addr1] <= wdata1;");
    let _ = writeln!(v, "    rdata0 <= bank0[addr0];");
    let _ = writeln!(v, "    rdata1 <= bank1[addr1];");
    let _ = writeln!(v, "  end");
    let _ = writeln!(v, "endmodule\n");

    // ---- PE tile: CBs + PE core -----------------------------------------------
    let _ = writeln!(v, "module pe_tile (");
    let _ = writeln!(v, "  input  wire clk,");
    let _ = writeln!(
        v,
        "  input  wire [{}:0] cfg, // PE cfg + {} word CBs",
        pe_cfg_bits + word_in * cb_sel.max(1) - 1,
        word_in
    );
    for d in ["n", "s", "e", "w"] {
        let _ = writeln!(v, "  input  wire [{}:0] {d}_w,", 16 * wt - 1);
        let _ = writeln!(v, "  input  wire [{}:0] {d}_b,", bt - 1);
    }
    let _ = writeln!(v, "  output wire [15:0] out_w,");
    let _ = writeln!(v, "  output wire out_b");
    let _ = writeln!(v, ");");
    for k in 0..word_in {
        let lo = pe_cfg_bits + k * cb_sel.max(1);
        let hi = lo + cb_sel.max(1) - 1;
        let _ = writeln!(v, "  wire [15:0] in{k}_w;");
        let _ = writeln!(
            v,
            "  cb cb{k} (.cfg(cfg[{hi}:{lo}]), .n_w(n_w), .s_w(s_w), .e_w(e_w), .w_w(w_w), .out_w(in{k}_w));"
        );
    }
    let pe_mod = pe.module_name();
    let mut ports = vec![format!(".clk(clk)"), format!(".cfg(cfg[{}:0])", pe_cfg_bits - 1)];
    for k in 0..word_in {
        ports.push(format!(".word_in{k}(in{k}_w)"));
    }
    for k in 0..bit_in {
        ports.push(format!(".bit_in{k}(n_b[{}])", k % bt));
    }
    ports.push(".word_out0(out_w)".to_owned());
    if pe.datapath.bit_outputs > 0 {
        ports.push(".bit_out0(out_b)".to_owned());
    } else {
        let _ = writeln!(v, "  assign out_b = 1'b0;");
    }
    let _ = writeln!(v, "  {pe_mod} pe_core ({});", ports.join(", "));
    let _ = writeln!(v, "endmodule\n");

    // ---- top level ---------------------------------------------------------------
    let rows = cfg.height + 1; // row 0 = IO
    let cols = cfg.width;
    let _ = writeln!(v, "module cgra_top (");
    let _ = writeln!(v, "  input  wire clk,");
    let _ = writeln!(v, "  input  wire [31:0] cfg_addr,");
    let _ = writeln!(v, "  input  wire [31:0] cfg_data,");
    let _ = writeln!(v, "  input  wire cfg_we,");
    let _ = writeln!(v, "  input  wire [{}:0] io_in,", 16 * cols - 1);
    let _ = writeln!(v, "  output wire [{}:0] io_out", 16 * cols - 1);
    let _ = writeln!(v, ");");
    let _ = writeln!(v, "  // inter-tile track wires: [row][col] per direction");
    let _ = writeln!(
        v,
        "  wire [{}:0] h_w [0:{}][0:{}]; // horizontal word bundles",
        16 * wt - 1,
        rows - 1,
        cols
    );
    let _ = writeln!(
        v,
        "  wire [{}:0] v_w [0:{}][0:{}]; // vertical word bundles",
        16 * wt - 1,
        rows,
        cols - 1
    );
    let _ = writeln!(v, "  genvar r, c;");
    let _ = writeln!(v, "  generate");
    let _ = writeln!(v, "    for (r = 0; r < {rows}; r = r + 1) begin : row");
    let _ = writeln!(v, "      for (c = 0; c < {cols}; c = c + 1) begin : col");
    let _ = writeln!(v, "        // tile kind resolved at elaboration from the floorplan");
    let _ = writeln!(v, "      end");
    let _ = writeln!(v, "    end");
    let _ = writeln!(v, "  endgenerate");

    // explicit instantiation per tile (kind known at generation time)
    let mut pe_tiles = 0usize;
    let mut mem_tiles = 0usize;
    for r in 0..rows {
        for c in 0..cols {
            let t = fabric.at(r, c);
            match fabric.kind(t) {
                TileKind::Pe => {
                    pe_tiles += 1;
                    let _ = writeln!(
                        v,
                        "  pe_tile tile_{r}_{c} (.clk(clk), .cfg(cfg_bus_{r}_{c}), .n_w(v_w_n_{r}_{c}), .s_w(v_w_s_{r}_{c}), .e_w(h_w_e_{r}_{c}), .w_w(h_w_w_{r}_{c}), .n_b(b_n_{r}_{c}), .s_b(b_s_{r}_{c}), .e_b(b_e_{r}_{c}), .w_b(b_w_{r}_{c}), .out_w(t_out_{r}_{c}), .out_b(tb_out_{r}_{c}));"
                    );
                }
                TileKind::Mem => {
                    mem_tiles += 1;
                    let _ = writeln!(
                        v,
                        "  mem_tile tile_{r}_{c} (.clk(clk), .wdata0(t_in0_{r}_{c}), .wdata1(t_in1_{r}_{c}), .addr0(ag0_{r}_{c}), .addr1(ag1_{r}_{c}), .we0(we0_{r}_{c}), .we1(we1_{r}_{c}), .rdata0(t_out_{r}_{c}), .rdata1(t_out1_{r}_{c}));"
                    );
                }
                TileKind::Io => {
                    let _ = writeln!(
                        v,
                        "  assign io_out[{}:{}] = t_out_{r}_{c};",
                        16 * (c + 1) - 1,
                        16 * c
                    );
                }
            }
            let _ = writeln!(
                v,
                "  sb sb_{r}_{c} (.clk(clk), .cfg(sb_cfg_{r}_{c}), .n_in_w(v_w_n_{r}_{c}), .s_in_w(v_w_s_{r}_{c}), .e_in_w(h_w_e_{r}_{c}), .w_in_w(h_w_w_{r}_{c}), .n_in_b(b_n_{r}_{c}), .s_in_b(b_s_{r}_{c}), .e_in_b(b_e_{r}_{c}), .w_in_b(b_w_{r}_{c}), .tile_out_w(t_out_{r}_{c}), .tile_out_b(tb_out_{r}_{c}), .n_out_w(v_w_no_{r}_{c}), .n_out_b(b_no_{r}_{c}), .s_out_w(v_w_so_{r}_{c}), .s_out_b(b_so_{r}_{c}), .e_out_w(h_w_eo_{r}_{c}), .e_out_b(b_eo_{r}_{c}), .w_out_w(h_w_wo_{r}_{c}), .w_out_b(b_wo_{r}_{c}));"
            );
        }
    }
    let _ = writeln!(v, "  // {pe_tiles} PE tiles, {mem_tiles} memory tiles");
    let _ = writeln!(v, "endmodule");
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FabricConfig;
    use apex_pe::baseline_pe;

    fn small_fabric() -> Fabric {
        Fabric::new(FabricConfig {
            width: 6,
            height: 3,
            ..FabricConfig::default()
        })
    }

    #[test]
    fn emits_all_module_kinds() {
        let v = emit_cgra_verilog(&small_fabric(), &baseline_pe());
        for m in ["module pe_base", "module sb", "module cb", "module mem_tile", "module pe_tile", "module cgra_top"] {
            assert!(v.contains(m), "missing {m}");
        }
        assert_eq!(v.matches("\nendmodule").count(), 6);
    }

    #[test]
    fn tile_counts_match_the_fabric() {
        let fabric = small_fabric();
        let v = emit_cgra_verilog(&fabric, &baseline_pe());
        let pe_insts = v.matches("  pe_tile tile_").count();
        let mem_insts = v.matches("  mem_tile tile_").count();
        assert_eq!(pe_insts, fabric.tiles_of(TileKind::Pe).len());
        assert_eq!(mem_insts, fabric.tiles_of(TileKind::Mem).len());
        // one switch box per tile
        assert_eq!(v.matches("  sb sb_").count(), fabric.len());
    }

    #[test]
    fn full_array_emits_for_paper_dimensions() {
        let fabric = Fabric::new(FabricConfig::default());
        let v = emit_cgra_verilog(&fabric, &baseline_pe());
        assert!(v.matches("  pe_tile tile_").count() >= 400);
        assert!(v.len() > 50_000, "a 32x16 array is a lot of RTL");
    }

    #[test]
    fn connection_box_count_tracks_pe_inputs() {
        let pe = baseline_pe();
        let v = emit_cgra_verilog(&small_fabric(), &pe);
        for k in 0..pe.datapath.word_inputs {
            assert!(v.contains(&format!("cb cb{k} ")), "CB {k} missing");
        }
    }
}
