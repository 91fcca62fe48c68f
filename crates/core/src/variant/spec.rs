//! Subgraph ranking's executable specification, compiled only for tests:
//! the original full sort, which materializes every candidate and
//! computes every utilizable MIS before ordering them all. The properties
//! in `variant.rs` require the bound-ordered top-k scan to return exactly
//! its first `k` entries.

use super::{fused_ops, materialize_with_consts, score, SubgraphSelection};
use apex_apps::Application;
use apex_ir::{Graph, Op};
use apex_mining::MinedSubgraph;

/// Every kept subgraph with its materialized datapath, fully sorted by
/// `(score, canonical code)`; retained as the specification of
/// [`super::rank_subgraphs`], it is not used on any production path.
pub(super) fn rank_subgraphs_reference(
    app: &Application,
    subgraphs: Vec<MinedSubgraph>,
    selection: &SubgraphSelection,
) -> Vec<(MinedSubgraph, Graph)> {
    let fanouts = app.graph.fanouts();
    let mut scored: Vec<(usize, MinedSubgraph, Graph)> = subgraphs
        .into_iter()
        .filter_map(|m| {
            let fused = fused_ops(&m);
            if fused < selection.min_fused_ops {
                return None;
            }
            let materialized = materialize_with_consts(&app.graph, &m);
            let data_inputs = materialized
                .node_ids()
                .filter(|&i| materialized.op(i) == Op::Input)
                .count();
            if data_inputs > selection.max_data_inputs {
                return None;
            }
            let umis = m.utilizable_mis(&app.graph, &fanouts);
            if umis < selection.min_mis {
                return None;
            }
            Some((score(selection.rank, &m, fused, umis), m, materialized))
        })
        .collect();
    scored.sort_by(|a, b| {
        b.0.cmp(&a.0).then_with(|| {
            a.1.pattern
                .canonical_code_ref()
                .cmp(b.1.pattern.canonical_code_ref())
        })
    });
    scored.into_iter().map(|(_, m, g)| (m, g)).collect()
}
