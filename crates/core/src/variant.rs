//! PE variant construction — the heart of APEX's design-space exploration
//! (paper Sections 3 and 5).
//!
//! Every variant starts from the baseline PE restricted to the operations
//! the target applications actually use ("PE 1"); increasingly specialized
//! variants merge frequent subgraphs into it in decreasing order of their
//! maximal-independent-set size ("PE 2", "PE 3", …, "PE Spec"), and
//! domain variants ("PE IP", "PE ML") merge subgraphs from every
//! application of the domain.

use crate::cache::VariantCache;
use crate::evaluate::{evaluate_app, EvalOptions};
use apex_apps::Application;
use apex_fault::{ApexError, Degradation, DegradationKind, Provenance, Stage};
use apex_ir::{Graph, Op, OpKind};
use apex_merge::{merge_graph, MergeOptions};
use apex_mining::{mine, MineError, MinedSubgraph, MinerConfig, Pattern};
use apex_pe::{baseline_pe, baseline_pe_with_ops, PeSpec};
use apex_rewrite::{try_standard_ruleset, RuleSet, SynthesisReport};
use apex_tech::TechModel;
use std::cell::OnceCell;
use std::collections::BTreeSet;

/// A PE design point: specification, the subgraphs merged into it, and the
/// rewrite rules for mapping the evaluation applications.
#[derive(Debug, Clone)]
pub struct PeVariant {
    /// The PE specification (unpipelined; the evaluator pipelines a copy).
    pub spec: PeSpec,
    /// Datapath graphs of the merged subgraphs (aligned with
    /// `spec.datapath.configs`).
    pub sources: Vec<Graph>,
    /// Verified rewrite rules for the evaluation applications.
    pub rules: RuleSet,
    /// Rule-synthesis report (missing ops ⇒ some app is unmappable).
    pub synthesis: SynthesisReport,
    /// Degradations accepted while constructing this variant (mining
    /// truncated by budget, merges skipped after failures, …).
    pub degradations: Vec<Degradation>,
}

/// Operation kinds an application suite requires of a PE, with
/// hardware-class completion: a comparator executes every compare flavour
/// and a logic unit every bitwise op, so requesting one member of those
/// classes provides the whole class (they share the same silicon).
pub fn required_op_kinds(apps: &[&Application]) -> BTreeSet<OpKind> {
    let mut kinds: BTreeSet<OpKind> = BTreeSet::new();
    for app in apps {
        for (_, node) in app.graph.iter() {
            let op = node.op();
            if op.is_compute() {
                kinds.insert(op.kind());
            }
        }
    }
    kinds.insert(OpKind::Const);
    const CMP: [OpKind; 10] = [
        OpKind::Eq,
        OpKind::Neq,
        OpKind::Slt,
        OpKind::Sle,
        OpKind::Sgt,
        OpKind::Sge,
        OpKind::Ult,
        OpKind::Ule,
        OpKind::Ugt,
        OpKind::Uge,
    ];
    if CMP.iter().any(|k| kinds.contains(k)) {
        kinds.extend(CMP);
    }
    const LOGIC: [OpKind; 4] = [OpKind::And, OpKind::Or, OpKind::Xor, OpKind::Not];
    if LOGIC.iter().any(|k| kinds.contains(k)) {
        kinds.extend(LOGIC);
    }
    const MINMAX: [OpKind; 4] = [OpKind::Smin, OpKind::Smax, OpKind::Umin, OpKind::Umax];
    if MINMAX.iter().any(|k| kinds.contains(k)) {
        kinds.extend(MINMAX);
    }
    // bit ops execute on the 3-input LUT
    const BIT: [OpKind; 5] = [
        OpKind::BitAnd,
        OpKind::BitOr,
        OpKind::BitXor,
        OpKind::BitNot,
        OpKind::BitMux,
    ];
    if BIT.iter().any(|k| kinds.contains(k)) {
        for k in BIT {
            kinds.remove(&k);
        }
        kinds.insert(OpKind::Lut);
        kinds.insert(OpKind::BitConst);
    }
    kinds
}

/// The general-purpose baseline PE with rules for the given applications
/// (the paper's comparison baseline, Fig. 1).
///
/// # Errors
/// Propagates rule-synthesis failures.
pub fn baseline_variant(eval_apps: &[&Application]) -> Result<PeVariant, ApexError> {
    let key = crate::cache::variant_cache_key(
        "baseline",
        "pe_base",
        &[],
        eval_apps,
        None,
        None,
        None,
        None,
        &BTreeSet::new(),
    );
    cached(key, || {
        let spec = baseline_pe();
        finish(spec, Vec::new(), eval_apps, Vec::new())
    })
}

/// Memoizes a variant build through the process-wide [`VariantCache`]
/// (content-addressed by `key`).
fn cached(
    key: u64,
    build: impl FnOnce() -> Result<PeVariant, ApexError>,
) -> Result<PeVariant, ApexError> {
    if cfg!(feature = "fault-injection") {
        return build();
    }
    in_thread_namespace(|cache| cache.get_or_build(key, build))
}

/// Runs `f` on the process-wide [`VariantCache`] in this thread's tenant
/// namespace. Under the `fault-injection` feature no caller reaches the
/// cache: serving a stored variant or search choice would mask
/// armed failpoints, and fault tests exist to exercise the live flow.
fn in_thread_namespace<R>(f: impl FnOnce(&VariantCache) -> R) -> R {
    let tenant = crate::cache::thread_tenant();
    VariantCache::shared().in_namespace(tenant.as_deref(), f)
}

/// "PE 1": the baseline restricted to the operations the applications
/// need, APEX-generated (no legacy control overhead).
///
/// # Errors
/// Propagates rule-synthesis failures.
pub fn pe1_variant(
    name: &str,
    analysis_apps: &[&Application],
    eval_apps: &[&Application],
) -> Result<PeVariant, ApexError> {
    let key = crate::cache::variant_cache_key(
        "pe1",
        name,
        analysis_apps,
        eval_apps,
        None,
        None,
        None,
        None,
        &BTreeSet::new(),
    );
    cached(key, || {
        let kinds = required_op_kinds(analysis_apps);
        let spec = baseline_pe_with_ops(name, &kinds);
        finish(spec, Vec::new(), eval_apps, Vec::new())
    })
}

/// How candidate subgraphs are ranked before taking the top `per_app`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionRank {
    /// Utilizable-MIS × (fused ops − 1): the PEs actually saved. Our
    /// refinement of the paper's ranking.
    #[default]
    SavingsPotential,
    /// Raw MIS size, the paper's first-cut ranking. Over-weights tiny
    /// pairs — useful to reproduce the over-merging effect of Fig. 12.
    MisSize,
}

/// Selection policy for subgraphs to merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubgraphSelection {
    /// Subgraphs taken per analysis application (in rank order).
    pub per_app: usize,
    /// Minimum number of non-constant operations a subgraph must fuse
    /// (constant-only pairs are already covered by constant folding).
    pub min_fused_ops: usize,
    /// Minimum MIS size to consider.
    pub min_mis: usize,
    /// Ranking used to order the candidates.
    pub rank: SelectionRank,
    /// Maximum routed data inputs a subgraph PE may need. Every PE input
    /// costs a connection box in each tile (the paper's I/O design-space
    /// axis, Fig. 2), so input-hungry subgraphs are excluded; constants
    /// fold into registers and do not count (Fig. 2c).
    pub max_data_inputs: usize,
}

impl Default for SubgraphSelection {
    fn default() -> Self {
        SubgraphSelection {
            per_app: 2,
            min_fused_ops: 2,
            min_mis: 4,
            rank: SelectionRank::SavingsPotential,
            max_data_inputs: 4,
        }
    }
}

/// Mines an application and returns its top `selection.per_app`
/// subgraphs: [`mine`] followed by the ranking every variant build uses.
///
/// The ranking keeps subgraphs that fuse enough operations, need few
/// enough routed inputs and have a large enough utilizable MIS, and
/// orders them by *PE savings potential*: the number of non-overlapping,
/// fully utilizable occurrences times the operations each one fuses
/// beyond the first. Plain MIS order (the paper's first-cut ranking)
/// over-weights tiny pairs and subgraphs whose intermediates the
/// application still needs elsewhere. Ties break on the pattern's
/// canonical code, so the order is total and `per_app = k` is always a
/// prefix of `per_app = k + 1`.
///
/// The returned [`Provenance`] says whether the mining search completed
/// or was cut short by the miner's [`apex_fault::Budget`].
///
/// # Errors
/// Propagates mining failures.
pub fn select_subgraphs(
    app: &Application,
    miner: &MinerConfig,
    selection: &SubgraphSelection,
) -> Result<(Vec<MinedSubgraph>, Provenance), MineError> {
    let mined = mine(&app.graph, miner)?;
    let ranked = rank_subgraphs(app, mined.subgraphs, selection, selection.per_app);
    Ok((
        ranked.into_iter().map(|(m, _)| m).collect(),
        mined.provenance,
    ))
}

/// Non-constant operations a mined subgraph fuses into one PE. At least
/// one for every mined pattern: each pattern has an edge, and the
/// consumer end of an edge is never a constant.
fn fused_ops(m: &MinedSubgraph) -> usize {
    m.pattern
        .labels()
        .iter()
        .filter(|l| !matches!(l, OpKind::Const | OpKind::BitConst))
        .count()
}

/// A candidate's ranking score, given its utilizable MIS `umis`.
/// Nondecreasing in `umis`, so a bound on `umis` bounds the score.
fn score(rank: SelectionRank, m: &MinedSubgraph, fused: usize, umis: usize) -> usize {
    match rank {
        SelectionRank::SavingsPotential => umis * (fused - 1),
        SelectionRank::MisSize => m.mis_size,
    }
}

/// An admissible upper bound on a subgraph's utilizable MIS, from mining
/// statistics alone: the MIS picks pairwise disjoint occurrences out of
/// the utilizable subset of `occurrences`, and each one covers `fused`
/// distinct non-constant compute nodes of the application's
/// `compute_ops`. `mis_size` is no such bound: greedy MIS over a subset
/// of the occurrences can exceed greedy MIS over all of them.
fn utilizable_mis_bound(m: &MinedSubgraph, fused: usize, compute_ops: usize) -> usize {
    m.occurrences.len().min(compute_ops / fused.max(1))
}

/// Rank order of two candidates by `(score, canonical code)`: higher
/// score first, then the smaller code. `Less` means `a` ranks first.
fn rank_order(a: (usize, &str), b: (usize, &str)) -> std::cmp::Ordering {
    b.0.cmp(&a.0).then_with(|| a.1.cmp(b.1))
}

/// The ranking of [`select_subgraphs`], cut at the first `k`: the best
/// kept subgraphs with their materialized datapaths, best first.
///
/// Exact scores are the costly part: the data-input filter needs a
/// materialized datapath and the score a utilizable MIS. So candidates
/// are visited in order of an admissible upper bound on their score (the
/// score at [`utilizable_mis_bound`]; ties on the canonical code) and
/// scored only when the scan reaches them, and the scan stops once the
/// k-th exact `(score, code)` ranks before the next bound. Canonical
/// codes of mined patterns are distinct, so every unvisited candidate
/// ranks after the k-th, and the result is exactly the first `k` of the
/// full sort by exact score. A candidate whose utilizable-MIS bound is
/// below `min_mis` is dropped without being materialized.
fn rank_subgraphs(
    app: &Application,
    subgraphs: Vec<MinedSubgraph>,
    selection: &SubgraphSelection,
    k: usize,
) -> Vec<(MinedSubgraph, Graph)> {
    if k == 0 {
        return Vec::new();
    }
    let compute_ops = app.graph.compute_op_count();
    let mut pending: Vec<(usize, usize, MinedSubgraph)> = subgraphs
        .into_iter()
        .filter_map(|m| {
            let fused = fused_ops(&m);
            if fused < selection.min_fused_ops {
                return None;
            }
            let umis_bound = utilizable_mis_bound(&m, fused, compute_ops);
            let bound = score(selection.rank, &m, fused, umis_bound);
            (umis_bound >= selection.min_mis).then_some((bound, fused, m))
        })
        .collect();
    pending.sort_by(|a, b| {
        rank_order(
            (a.0, a.2.pattern.canonical_code_ref()),
            (b.0, b.2.pattern.canonical_code_ref()),
        )
    });
    let fanouts = app.graph.fanouts();
    let mut top: Vec<(usize, MinedSubgraph, Graph)> = Vec::with_capacity(k + 1);
    for (bound, fused, m) in pending {
        let code = m.pattern.canonical_code_ref();
        if let Some((kth, worst, _)) = top.get(k - 1) {
            if rank_order((*kth, worst.pattern.canonical_code_ref()), (bound, code)).is_lt() {
                break;
            }
        }
        let materialized = materialize_with_consts(&app.graph, &m);
        let data_inputs = materialized
            .node_ids()
            .filter(|&i| materialized.op(i) == Op::Input)
            .count();
        if data_inputs > selection.max_data_inputs {
            continue;
        }
        let umis = m.utilizable_mis(&app.graph, &fanouts);
        if umis < selection.min_mis {
            continue;
        }
        let exact = score(selection.rank, &m, fused, umis);
        let at = top.partition_point(|(s, t, _)| {
            rank_order((*s, t.pattern.canonical_code_ref()), (exact, code)).is_lt()
        });
        top.insert(at, (exact, m, materialized));
        top.truncate(k);
    }
    top.into_iter().map(|(_, m, g)| (m, g)).collect()
}

/// A ranked subgraph reduced to what a variant build merges; the mined
/// occurrence lists are dropped once ranking is done.
struct Candidate {
    /// The materialized datapath (named `sg`; each build renames its copy).
    graph: Graph,
    /// Canonical code of `graph`, the build's dedup key: two apps can mine
    /// the same op pattern yet fold different constants or share inputs
    /// differently, and those are different PE rules.
    code: String,
    /// MIS size of the mined subgraph, the merge order.
    mis_size: usize,
}

/// One analysis application's mining pass, ranked: how mining ended and
/// the best candidates in rank order, or, when mining failed or panicked,
/// the degradation every build records (the app then contributes no
/// subgraphs).
type RankedApp = Result<(Provenance, Vec<Candidate>), Degradation>;

/// Mines and ranks every analysis application once, keeping the first
/// `keep` candidates of each: the longest prefix any build from this pass
/// takes. Mining is independent per application, so it fans out over
/// the bounded pool.
fn rank_apps(
    apps: &[&Application],
    miner: &MinerConfig,
    selection: &SubgraphSelection,
    keep: usize,
) -> Vec<RankedApp> {
    let per_app = apex_par::par_map(apex_par::default_jobs(), apps, |_, app| {
        #[cfg(feature = "fault-injection")]
        {
            if apex_fault::failpoints::should_fire("core::mine_panic") {
                panic!("injected panic at core::mine_panic");
            }
        }
        let mined = mine(&app.graph, miner)?;
        // checked in the pool but asserted outside it: an invariant
        // violation must abort, not degrade into a caught worker panic
        let violations = if cfg!(debug_assertions) {
            apex_verify::verify_mined(&app.graph, &mined.subgraphs)
        } else {
            Vec::new()
        };
        let candidates: Vec<Candidate> = rank_subgraphs(app, mined.subgraphs, selection, keep)
            .into_iter()
            .map(|(m, graph)| {
                let (pattern, _) = Pattern::from_occurrence(&graph, &graph.compute_nodes());
                Candidate {
                    code: pattern.canonical_code(),
                    graph,
                    mis_size: m.mis_size,
                }
            })
            .collect();
        Ok::<_, MineError>((mined.provenance, candidates, violations))
    });
    apps.iter()
        .zip(per_app)
        .map(|(app, mined)| match mined {
            Ok(Ok((provenance, candidates, _violations))) => {
                #[cfg(debug_assertions)]
                crate::dse::debug_verify("mine", &_violations);
                Ok((provenance, candidates))
            }
            Ok(Err(e)) => Err(Degradation::new(
                Stage::Mine,
                DegradationKind::Skipped,
                format!(
                    "mining {} failed ({e}); no subgraphs from this app",
                    app.info.name
                ),
            )),
            Err(p) => {
                // a panicking miner is funneled into the error hierarchy
                // (payload on the cause chain) and degrades like any other
                // per-app mining failure: no subgraphs from this app
                let err = p.into_apex(Stage::Mine);
                Err(Degradation::new(
                    Stage::Mine,
                    DegradationKind::Skipped,
                    format!(
                        "mining {} panicked ({}); no subgraphs from this app",
                        app.info.name,
                        err.render_chain()
                    ),
                ))
            }
        })
        .collect()
}

/// Builds a specialized variant: PE 1 for the analysis applications, plus
/// the selected frequent subgraphs merged in MIS order.
///
/// `extra_kinds` force-in additional operation kinds (e.g. keeping the
/// bit-operation LUT in a domain PE so unseen applications still map).
///
/// Mining and merge failures degrade rather than abort: a failed (or
/// panicking — the job pool catches worker panics) mining pass contributes
/// no subgraphs, a failed or budget-limited merge keeps
/// the previous datapath (greedy incumbent, then effectively PE 1), and
/// every such event is recorded in [`PeVariant::degradations`].
///
/// # Errors
/// Propagates rule-synthesis failures (the rules are indispensable —
/// without them nothing maps).
#[allow(clippy::too_many_arguments)]
pub fn specialized_variant(
    name: &str,
    analysis_apps: &[&Application],
    eval_apps: &[&Application],
    miner: &MinerConfig,
    selection: &SubgraphSelection,
    merge_opts: &MergeOptions,
    tech: &TechModel,
    extra_kinds: &BTreeSet<OpKind>,
) -> Result<PeVariant, ApexError> {
    specialized_step(
        name,
        analysis_apps,
        eval_apps,
        miner,
        selection,
        merge_opts,
        tech,
        extra_kinds,
        &OnceCell::new(),
        selection.per_app,
    )
}

/// The one build path of a specialized variant. Looks the request up in
/// the variant cache; on a miss, merges the first `selection.per_app`
/// candidates of each app from `ranking`, which is filled by
/// [`rank_apps`] (keeping `keep` per app) on the first miss that needs it
/// and reused by every later call given the same cell.
#[allow(clippy::too_many_arguments)]
fn specialized_step(
    name: &str,
    analysis_apps: &[&Application],
    eval_apps: &[&Application],
    miner: &MinerConfig,
    selection: &SubgraphSelection,
    merge_opts: &MergeOptions,
    tech: &TechModel,
    extra_kinds: &BTreeSet<OpKind>,
    ranking: &OnceCell<Vec<RankedApp>>,
    keep: usize,
) -> Result<PeVariant, ApexError> {
    let key = crate::cache::variant_cache_key(
        "specialized",
        name,
        analysis_apps,
        eval_apps,
        Some(miner),
        Some(selection),
        Some(merge_opts),
        Some(tech),
        extra_kinds,
    );
    cached(key, || {
        let ranked = ranking.get_or_init(|| rank_apps(analysis_apps, miner, selection, keep));
        let mut kinds = required_op_kinds(analysis_apps);
        kinds.extend(extra_kinds.iter().copied());
        let base = baseline_pe_with_ops(name, &kinds);
        let mut dp = base.datapath;
        let mut degradations: Vec<Degradation> = Vec::new();

        // the first `per_app` candidates of every app, deduplicated by the
        // canonical code of the materialized datapath, in MIS order
        let mut chosen: Vec<(Graph, usize)> = Vec::new();
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        for (app, ranked) in analysis_apps.iter().zip(ranked) {
            let candidates = match ranked {
                Ok((provenance, candidates)) => {
                    if let Some(d) = Degradation::from_provenance(Stage::Mine, *provenance) {
                        degradations.push(d);
                    }
                    candidates.as_slice()
                }
                Err(d) => {
                    degradations.push(d.clone());
                    &[]
                }
            };
            for (k, c) in candidates.iter().take(selection.per_app).enumerate() {
                if !seen.insert(&c.code) {
                    continue;
                }
                let mut g = c.graph.clone();
                g.set_name(format!("{}_sg{k}", app.info.name));
                chosen.push((g, c.mis_size));
            }
        }
        chosen.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.name().cmp(b.0.name())));

        let mut sources = Vec::new();
        for (g, _) in chosen {
            match merge_graph(&dp, &g, tech, merge_opts) {
                Ok((next, report)) => {
                    if let Some(d) = Degradation::from_provenance(Stage::Merge, report.provenance) {
                        degradations.push(d);
                    }
                    dp = next;
                    sources.push(g);
                }
                Err(e) => {
                    // greedy-incumbent/baseline fallback: keep the datapath
                    // as merged so far (with no merges it is exactly PE 1)
                    degradations.push(Degradation::new(
                        Stage::Merge,
                        DegradationKind::Fallback,
                        format!(
                            "merging {} failed ({e}); keeping previous datapath",
                            g.name()
                        ),
                    ));
                }
            }
        }
        dp.name = name.to_owned();
        let spec = PeSpec::new(name, dp, false);
        finish(spec, sources, eval_apps, degradations)
    })
}

/// Step `k` of one application's specialization, of a sequence of at
/// most `max_steps`: the variant merging the top `k` ranked subgraphs.
/// The app is mined and ranked into `ranking` on the first call that
/// misses the variant cache, keeping `max_steps` candidates, and later
/// calls given the same cell build from a prefix of that one list.
#[allow(clippy::too_many_arguments)]
fn specialization_step(
    app: &Application,
    name: &str,
    k: usize,
    max_steps: usize,
    miner: &MinerConfig,
    merge_opts: &MergeOptions,
    tech: &TechModel,
    ranking: &OnceCell<Vec<RankedApp>>,
) -> Result<PeVariant, ApexError> {
    specialized_step(
        name,
        &[app],
        &[app],
        miner,
        &SubgraphSelection {
            per_app: k,
            ..SubgraphSelection::default()
        },
        merge_opts,
        tech,
        &BTreeSet::new(),
        ranking,
        max_steps,
    )
}

/// Builds the ladder of increasingly specialized variants for one
/// application (the paper's PE 1, PE 2, …, Fig. 11): variant `k` merges
/// the top `k` subgraphs. The application is mined and ranked once for
/// the whole ladder (not at all when every step is a variant-cache hit),
/// and each variant takes a prefix of that ranking.
///
/// # Errors
/// Propagates the first variant's construction failure.
pub fn specialization_ladder(
    app: &Application,
    steps: usize,
    miner: &MinerConfig,
    merge_opts: &MergeOptions,
    tech: &TechModel,
) -> Result<Vec<PeVariant>, ApexError> {
    let ranking = OnceCell::new();
    (0..=steps)
        .map(|k| {
            let name = format!("pe{}_{}", k + 1, app.info.name);
            specialization_step(app, &name, k, steps, miner, merge_opts, tech, &ranking)
        })
        .collect()
}

/// Materializes a mined subgraph as a datapath from its representative
/// occurrence: the constant producers it folds come along (a pattern that
/// leaves kernel weights outside would force standalone constant PEs at
/// mapping time), and values feeding several nodes arrive on one shared
/// input port (keeping the PE's connection-box count down, Fig. 2).
pub(crate) fn materialize_with_consts(graph: &Graph, m: &MinedSubgraph) -> Graph {
    let mut nodes: BTreeSet<apex_ir::NodeId> = m.representative.iter().copied().collect();
    for &n in &m.representative {
        for &src in graph.node(n).inputs() {
            if matches!(graph.op(src), Op::Const(_) | Op::BitConst(_)) {
                nodes.insert(src);
            }
        }
    }
    let set: Vec<apex_ir::NodeId> = nodes.into_iter().collect();
    let (g, _) = graph.extract_subgraph(&set, "sg");
    g
}

/// Builds "PE Spec" for an application using the paper's stopping rule:
/// keep merging subgraphs (in rank order) while the *CGRA-level* cost
/// still improves; stop at "the most specialized PE possible without
/// increasing the area or energy of the application running on the CGRA"
/// (Section 5). CGRA-level matters: deeper merging grows each PE but
/// frees tiles, switch boxes, and connection boxes.
///
/// The application is mined and ranked once per search, on the first
/// step that misses the variant cache; step `k` merges the first `k`
/// candidates of that ranking, so a fully warm search never mines.
///
/// The search's choice is a pure function of [`search_cache_key`], so
/// it is cached too: a *search record* holds the chosen step's index.
/// On a record hit the chosen step comes from its own variant entry (or
/// is rebuilt, if that entry was evicted or quarantined) and nothing is
/// evaluated. A search in which any step was stopped by a deadline or a
/// cancel flag writes no record, as such a step is not stored either.
///
/// # Errors
/// Propagates variant-construction failures, and an evaluation failure
/// of the first step (later ones end the search instead).
pub fn most_specialized_variant(
    app: &Application,
    miner: &MinerConfig,
    merge_opts: &MergeOptions,
    tech: &TechModel,
    max_steps: usize,
) -> Result<PeVariant, ApexError> {
    let name = format!("pe_spec_{}", app.info.name);
    let record = (!cfg!(feature = "fault-injection") && VariantCache::shared().is_enabled())
        .then(|| search_cache_key(app, miner, merge_opts, tech, max_steps));
    if let Some(key) = record {
        let chosen = in_thread_namespace(|cache| cache.load_search(key));
        if let Some(k) = chosen.filter(|&k| k <= max_steps) {
            let ranking = OnceCell::new();
            return specialization_step(
                app, &name, k, max_steps, miner, merge_opts, tech, &ranking,
            );
        }
    }
    let options = search_options();
    let mut best: Option<(usize, PeVariant, f64, f64)> = None;
    let mut clock_stopped = false;
    let ranking = OnceCell::new();
    for k in 0..=max_steps {
        let v = specialization_step(app, &name, k, max_steps, miner, merge_opts, tech, &ranking)?;
        clock_stopped |= crate::cache::stopped_by_clock(&v);
        let eval = match evaluate_app(&v, app, tech, &options) {
            Ok(eval) => eval,
            // deeper variants may stop evaluating (e.g. over-merged PEs no
            // longer fit the fabric) — keep the best evaluated one, but a
            // failure on the very first step has nothing to fall back to
            Err(e) if best.is_none() => return Err(e),
            Err(_) => break,
        };
        let (area, energy) = (eval.area.total(), eval.energy_per_cycle.total());
        match &best {
            None => best = Some((k, v, area, energy)),
            Some((_, _, ba, be)) => {
                // tolerate sub-percent noise from placement
                if area <= ba * 1.005 && energy <= be * 1.005 {
                    best = Some((k, v, area.min(*ba), energy.min(*be)));
                } else {
                    break; // more merging starts costing area/energy
                }
            }
        }
        // once no candidate past the first `k` brings a new datapath (a
        // build skips repeated codes), every later step rebuilds this one
        let exhausted = |a: &RankedApp| {
            a.as_ref().map_or(true, |(_, c)| {
                let (taken, rest) = c.split_at(k.min(c.len()));
                rest.iter().all(|r| taken.iter().any(|t| t.code == r.code))
            })
        };
        if ranking.get().is_some_and(|apps| apps.iter().all(exhausted)) {
            break;
        }
    }
    let Some((k, v, _, _)) = best else {
        return Err(ApexError::new(
            Stage::Merge,
            "specialization search produced no evaluable variant",
        ));
    };
    if let Some(key) = record.filter(|_| !clock_stopped) {
        in_thread_namespace(|cache| cache.store_search(key, k));
    }
    Ok(v)
}

/// The evaluation options every PE-Spec search step is judged with.
fn search_options() -> EvalOptions {
    let mut options = EvalOptions::default();
    options.place.moves = 4_000;
    options
}

/// The content-addressed key of a [`most_specialized_variant`] search
/// record: everything the choice depends on. That is what each step's
/// variant depends on (the format version, the app graph, the miner
/// configuration with its deterministic budget, the merge options and the
/// technology model), plus `max_steps` and the `Debug` form of the
/// evaluation options the search judges each step with.
pub fn search_cache_key(
    app: &Application,
    miner: &MinerConfig,
    merge_opts: &MergeOptions,
    tech: &TechModel,
    max_steps: usize,
) -> u64 {
    let mut parts = crate::cache::key_parts(
        "search",
        &format!("pe_spec_{}", app.info.name),
        &[app],
        &[app],
        Some(miner),
        None,
        Some(merge_opts),
        Some(tech),
        &BTreeSet::new(),
    );
    parts.push(format!("max_steps:{max_steps}"));
    parts.push(format!("eval:{:?}", search_options()));
    let refs: Vec<&str> = parts.iter().map(String::as_str).collect();
    apex_fault::fnv1a(&refs)
}

fn finish(
    spec: PeSpec,
    sources: Vec<Graph>,
    eval_apps: &[&Application],
    degradations: Vec<Degradation>,
) -> Result<PeVariant, ApexError> {
    let graphs: Vec<&Graph> = eval_apps.iter().map(|a| &a.graph).collect();
    let (rules, synthesis) = try_standard_ruleset(&spec.datapath, &sources, &graphs)?;
    #[cfg(debug_assertions)]
    {
        crate::dse::debug_verify(
            "merge",
            &apex_verify::verify_datapath(&spec.datapath, &sources),
        );
        crate::dse::debug_verify(
            "rewrite",
            &apex_verify::verify_ruleset(&spec.datapath, &rules.rules),
        );
        crate::dse::debug_verify("pe", &apex_verify::verify_pe(&spec));
    }
    Ok(PeVariant {
        spec,
        sources,
        rules,
        synthesis,
        degradations,
    })
}

/// Checks a variant can express everything its applications need.
pub fn variant_is_complete(v: &PeVariant) -> bool {
    v.synthesis.missing.is_empty()
}

/// Convenience: the set of ops an application graph uses, as concrete ops.
pub fn ops_used(graph: &Graph) -> BTreeSet<Op> {
    graph
        .iter()
        .filter(|(_, n)| n.op().is_compute())
        .map(|(_, n)| n.op())
        .collect()
}

#[cfg(test)]
mod spec;

#[cfg(test)]
mod tests {
    use super::spec::rank_subgraphs_reference;
    use super::*;
    use apex_apps::{camera_pipeline, gaussian, ip_apps};

    /// An eight-add accumulation chain. Its chain patterns overlap so
    /// densely that the compute-node term of [`utilizable_mis_bound`] is
    /// the binding one, and tight: `add → add` has 7 occurrences, and its
    /// utilizable MIS is ⌊8 / 2⌋ = 4.
    fn add_chain() -> Application {
        let mut g = Graph::new("add_chain");
        let mut acc = g.input();
        for _ in 0..8 {
            let x = g.input();
            acc = g.add(Op::Add, &[acc, x]);
        }
        g.output(acc);
        let info = apex_apps::AppInfo {
            name: "add_chain".to_owned(),
            domain: apex_apps::Domain::ImageProcessing,
            description: "accumulation chain".to_owned(),
            mem_tiles: 0,
            io_tiles: 1,
            unroll: 1,
            output_pixels: 1,
        };
        Application::new(info, g)
    }

    /// The nine suite applications and [`add_chain`], each with its
    /// mined subgraphs.
    fn mined_suite() -> Vec<(Application, Vec<MinedSubgraph>)> {
        apex_apps::analyzed_apps()
            .into_iter()
            .chain(apex_apps::unseen_apps())
            .chain([add_chain()])
            .map(|app| {
                let mined = mine(&app.graph, &MinerConfig::default()).unwrap().subgraphs;
                (app, mined)
            })
            .collect()
    }

    #[test]
    fn top_k_ranking_is_the_full_sort_prefix() {
        let variants = [
            SubgraphSelection::default(),
            SubgraphSelection {
                min_mis: 1,
                ..SubgraphSelection::default()
            },
            SubgraphSelection {
                max_data_inputs: 2,
                ..SubgraphSelection::default()
            },
            SubgraphSelection {
                max_data_inputs: 8,
                ..SubgraphSelection::default()
            },
            SubgraphSelection {
                min_fused_ops: 3,
                ..SubgraphSelection::default()
            },
        ];
        let summary = |ranked: &[(MinedSubgraph, Graph)]| {
            ranked
                .iter()
                .map(|(m, g)| (m.pattern.canonical_code(), m.mis_size, apex_ir::to_text(g)))
                .collect::<Vec<_>>()
        };
        for (app, mined) in mined_suite() {
            for rank in [SelectionRank::SavingsPotential, SelectionRank::MisSize] {
                for variant in &variants {
                    let selection = SubgraphSelection {
                        rank,
                        ..variant.clone()
                    };
                    // clones start with empty utilizable-statistics caches
                    let full = summary(&rank_subgraphs_reference(&app, mined.clone(), &selection));
                    for k in 0..=6 {
                        let top = summary(&rank_subgraphs(&app, mined.clone(), &selection, k));
                        assert_eq!(
                            top,
                            full[..k.min(full.len())],
                            "{} {selection:?} k={k}",
                            app.info.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn score_bounds_are_admissible() {
        let (mut tight, mut binding) = (0, 0);
        for (app, mined) in mined_suite() {
            let fanouts = app.graph.fanouts();
            let compute_ops = app.graph.compute_op_count();
            for m in &mined {
                let fused = fused_ops(m);
                let umis = m.utilizable_mis(&app.graph, &fanouts);
                let umis_bound = utilizable_mis_bound(m, fused, compute_ops);
                assert!(umis <= umis_bound, "{}: {}", app.info.name, m.pattern);
                tight += usize::from(umis == umis_bound);
                binding += usize::from(umis_bound < m.occurrences.len());
                for rank in [SelectionRank::SavingsPotential, SelectionRank::MisSize] {
                    assert!(
                        score(rank, m, fused, umis) <= score(rank, m, fused, umis_bound),
                        "{}: {} {rank:?}",
                        app.info.name,
                        m.pattern
                    );
                }
            }
        }
        assert!(tight > 0 && binding > 0, "{tight} tight, {binding} binding");
    }

    #[test]
    fn required_kinds_complete_comparator_class() {
        let cam = camera_pipeline();
        let kinds = required_op_kinds(&[&cam]);
        // camera uses sgt; class completion brings in ult etc.
        assert!(kinds.contains(&OpKind::Sgt));
        assert!(kinds.contains(&OpKind::Ult));
        // but never left shift or word bitwise logic (Section 5.1)
        assert!(!kinds.contains(&OpKind::Shl));
        assert!(!kinds.contains(&OpKind::And));
    }

    #[test]
    fn pe1_is_smaller_than_baseline_and_complete() {
        let tech = TechModel::default();
        let cam = camera_pipeline();
        let base = baseline_variant(&[&cam]).unwrap();
        let pe1 = pe1_variant("pe1_camera", &[&cam], &[&cam]).unwrap();
        assert!(variant_is_complete(&base), "{:?}", base.synthesis.missing);
        assert!(variant_is_complete(&pe1), "{:?}", pe1.synthesis.missing);
        assert!(
            pe1.spec.area(&tech).total() < 0.7 * base.spec.area(&tech).total()
        );
    }

    #[test]
    fn specialized_variant_gains_complex_rules() {
        let tech = TechModel::default();
        let g = gaussian();
        let v = specialized_variant(
            "pe_spec_gaussian",
            &[&g],
            &[&g],
            &MinerConfig::default(),
            &SubgraphSelection::default(),
            &MergeOptions::default(),
            &tech,
            &BTreeSet::new(),
        )
        .unwrap();
        assert!(variant_is_complete(&v), "{:?}", v.synthesis.missing);
        assert!(!v.sources.is_empty(), "subgraphs were merged");
        // at least one rule covers 3+ ops
        assert!(v.rules.rules.iter().any(|r| r.ops_covered >= 3));
    }

    #[test]
    fn ladder_is_increasingly_specialized() {
        let tech = TechModel::default();
        let g = gaussian();
        let ladder = specialization_ladder(
            &g,
            2,
            &MinerConfig::default(),
            &MergeOptions::default(),
            &tech,
        )
        .unwrap();
        assert_eq!(ladder.len(), 3);
        assert_eq!(ladder[0].sources.len(), 0, "PE 1 merges nothing");
        assert!(ladder[2].sources.len() >= ladder[1].sources.len());
        for v in &ladder {
            assert!(variant_is_complete(v), "{}: {:?}", v.spec.name, v.synthesis.missing);
        }
    }

    #[test]
    fn most_specialized_variant_never_loses_to_pe1() {
        let tech = TechModel::default();
        let g = gaussian();
        let spec = most_specialized_variant(
            &g,
            &MinerConfig::default(),
            &MergeOptions::default(),
            &tech,
            3,
        )
        .unwrap();
        let pe1 = pe1_variant("pe1_gauss", &[&g], &[&g]).unwrap();
        let options = search_options();
        let spec_eval = evaluate_app(&spec, &g, &tech, &options).unwrap();
        let pe1_eval = evaluate_app(&pe1, &g, &tech, &options).unwrap();
        // the stopping rule guarantees CGRA-level monotone improvement
        assert!(
            spec_eval.area.total() <= pe1_eval.area.total() * 1.01,
            "{} vs {}",
            spec_eval.area.total(),
            pe1_eval.area.total()
        );
        assert!(
            spec_eval.energy_per_cycle.total() <= pe1_eval.energy_per_cycle.total() * 1.01
        );
        assert!(variant_is_complete(&spec));
    }

    #[test]
    fn each_selection_is_a_prefix_of_the_next() {
        let miner = MinerConfig::default();
        let suite = apex_apps::analyzed_apps()
            .into_iter()
            .chain(apex_apps::unseen_apps());
        for app in suite {
            let select = |per_app| {
                let selection = SubgraphSelection {
                    per_app,
                    ..SubgraphSelection::default()
                };
                let (subgraphs, _) = select_subgraphs(&app, &miner, &selection).unwrap();
                subgraphs
                    .iter()
                    .map(|m| (m.pattern.canonical_code(), m.representative.clone()))
                    .collect::<Vec<_>>()
            };
            let mut shorter = select(0);
            assert!(shorter.is_empty());
            for k in 0..4 {
                let longer = select(k + 1);
                assert!(longer.len() <= k + 1);
                assert!(
                    longer.starts_with(&shorter),
                    "{}: top {k} is not a prefix of top {}",
                    app.info.name,
                    k + 1
                );
                shorter = longer;
            }
        }
    }

    #[test]
    fn ip_variant_builds_from_all_four_apps() {
        let tech = TechModel::default();
        let apps = ip_apps();
        let refs: Vec<&Application> = apps.iter().collect();
        let v = specialized_variant(
            "pe_ip",
            &refs,
            &refs,
            &MinerConfig::default(),
            &SubgraphSelection {
                per_app: 1,
                ..SubgraphSelection::default()
            },
            &MergeOptions::default(),
            &tech,
            &BTreeSet::new(),
        )
        .unwrap();
        assert!(variant_is_complete(&v), "{:?}", v.synthesis.missing);
        assert!(!v.sources.is_empty());
    }
}
