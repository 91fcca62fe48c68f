//! Ablation studies for the design choices DESIGN.md §5b calls out:
//!
//! 1. subgraph ranking: utilizable-savings vs the paper's raw MIS order,
//! 2. clique search: exact branch-and-bound vs greedy-only merging,
//! 3. register-file FIFO cutoff for application pipelining,
//! 4. merge breadth (subgraphs per application).
//!
//! ```bash
//! cargo run --release -p apex-eval --bin ablations
//! ```

use apex_core::{specialized_variant, SelectionRank, SubgraphSelection};
use apex_eval::experiments::post_mapping;
use apex_eval::Table;
use apex_fault::ApexError;
use apex_map::map_application;
use apex_merge::MergeOptions;
use apex_mining::MinerConfig;
use apex_pipeline::{pipeline_application, AppPipelineOptions};
use std::collections::BTreeSet;

fn main() {
    if let Err(e) = run() {
        eprintln!("{}", e.render_chain());
        std::process::exit(1);
    }
}

fn run() -> Result<(), ApexError> {
    let tech = apex_eval::tech();
    let apps = [apex_eval::app("gaussian")?, apex_eval::app("camera")?];

    // ---- 1. ranking ablation ------------------------------------------------
    let mut t = Table::new(
        "Ablation 1: subgraph ranking (post-mapping, vs baseline PE)",
        &["Application", "Ranking", "#PEs", "Total PE area um2"],
    );
    for app in apps {
        for (name, rank) in [
            ("savings (ours)", SelectionRank::SavingsPotential),
            ("raw MIS (paper)", SelectionRank::MisSize),
        ] {
            let v = specialized_variant(
                "ablate_rank",
                &[app],
                &[app],
                &MinerConfig::default(),
                &SubgraphSelection {
                    per_app: 3,
                    rank,
                    ..SubgraphSelection::default()
                },
                &MergeOptions::default(),
                tech,
                &BTreeSet::new(),
            )?;
            let (n, area, _) = post_mapping(&v, app)?;
            t.push(vec![
                app.info.name.clone(),
                name.into(),
                n.to_string(),
                format!("{area:.0}"),
            ]);
        }
    }
    println!("{t}");

    // ---- 2. clique budget ablation -------------------------------------------
    let mut t = Table::new(
        "Ablation 2: clique search budget (merged PE area)",
        &["Application", "Budget", "PE area um2", "Mux legs"],
    );
    for app in apps {
        for (name, budget) in [("greedy-only", 1u64), ("exact B&B", 500_000)] {
            let v = specialized_variant(
                "ablate_clique",
                &[app],
                &[app],
                &MinerConfig::default(),
                &SubgraphSelection::default(),
                &MergeOptions {
                    budget: MergeOptions::default().budget.with_max_steps(budget),
                },
                tech,
                &BTreeSet::new(),
            )?;
            t.push(vec![
                app.info.name.clone(),
                name.into(),
                format!("{:.0}", v.spec.area(tech).total()),
                v.spec.datapath.mux_leg_count().to_string(),
            ]);
        }
    }
    println!("{t}");

    // ---- 3. RF cutoff ablation ------------------------------------------------
    let mut t = Table::new(
        "Ablation 3: register-chain cutoff for the RF FIFO transform",
        &["Application", "Cutoff", "#Reg", "#RF"],
    );
    let base = apex_eval::baseline()?;
    for app in apps {
        let design = map_application(&app.graph, &base.spec.datapath, &base.rules)
            .expect("baseline maps everything");
        for cutoff in [0u32, 2, 8] {
            let (_, report) = pipeline_application(
                &design.netlist,
                &base.rules,
                2,
                &AppPipelineOptions {
                    rf_chain_cutoff: cutoff,
                },
            )
            .expect("pipelining succeeds");
            t.push(vec![
                app.info.name.clone(),
                cutoff.to_string(),
                report.regs_inserted.to_string(),
                report.fifos_inserted.to_string(),
            ]);
        }
    }
    println!("{t}");

    // ---- 4. merge breadth -------------------------------------------------------
    let mut t = Table::new(
        "Ablation 4: subgraphs merged per application (gaussian)",
        &["per_app", "#PEs", "PE area/PE um2", "Total PE area um2"],
    );
    let app = apex_eval::app("gaussian")?;
    for k in [0usize, 1, 2, 3, 4] {
        let v = specialized_variant(
            "ablate_breadth",
            &[app],
            &[app],
            &MinerConfig::default(),
            &SubgraphSelection {
                per_app: k,
                ..SubgraphSelection::default()
            },
            &MergeOptions::default(),
            tech,
            &BTreeSet::new(),
        )?;
        let (n, area, _) = post_mapping(&v, app)?;
        t.push(vec![
            k.to_string(),
            n.to_string(),
            format!("{:.0}", area / n as f64),
            format!("{area:.0}"),
        ]);
    }
    println!("{t}");
    Ok(())
}
