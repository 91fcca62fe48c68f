//! `apex` — command-line driver for the APEX design-space-exploration
//! toolchain.
//!
//! ```text
//! apex list                         applications in the benchmark suite
//! apex dot <app>                    application dataflow graph as Graphviz DOT
//! apex mine <app> [min_support]     frequent subgraphs with MIS statistics
//! apex dse <app> [--jobs N] [--resume]
//!                                   specialize a PE for one application
//! apex verilog <variant> [file]     PE RTL (variant: base | ip | ml | spec:<app>)
//! apex array <variant> [file]       full 32x16 CGRA RTL for a variant
//! apex report [--jobs N] [--resume] [ids...]
//!                                   regenerate the paper's tables/figures
//! apex save <app> [file]            dump an application in the text graph format
//! apex verify <app> | --suite       static invariant verifier over every stage artifact
//! apex dse-file <file>              run the DSE flow on a text-format graph
//! apex describe <variant>           PE datasheet (units, configs, costs)
//! apex serve [--addr A] [--resume]  multi-tenant DSE daemon (newline-JSON/TCP)
//! apex submit <file> [--addr A]     submit a graph to a daemon and wait
//! apex chaos [--schedules N] [--seed S]
//!                                   deterministic fault-injection campaign
//! ```
//!
//! Sweeps (`dse`, `report`) checkpoint every completed job to a
//! write-ahead journal; `--resume` (or `APEX_RESUME=1`) replays it and
//! runs only the remainder, byte-identical to an uninterrupted run.
//! Ctrl-C drains in-flight jobs and exits with code 3; a second Ctrl-C
//! hard-exits.

use apex::core::{JobReport, SweepJob, SweepJournal};
use apex::fault::{ApexError, Provenance};
use std::fmt::Write as _;

/// Exit code for a sweep stopped by SIGINT/SIGTERM after flushing its
/// journal and printing a partial report (codes 1 = pipeline error,
/// 2 = invalid usage; see `usage()`).
const EXIT_INTERRUPTED: i32 = 3;

fn usage() {
    eprintln!("usage: apex <list|dot|mine|dse|verilog|array|report|save|dse-file|describe|verify|serve|submit|chaos> [...]");
    eprintln!("  verify <app>   run the cross-stage invariant verifier on one application");
    eprintln!("  verify --suite ... on the full benchmark suite (exit 1 on any violation)");
    eprintln!("  serve          run the DSE daemon (see DESIGN.md §7 for the wire protocol):");
    eprintln!("                 --addr A (default 127.0.0.1:7341), --queue-limit N,");
    eprintln!("                 --idle-timeout-secs S, --resume (re-run journaled jobs)");
    eprintln!("  submit <file>  submit a text-format graph to a daemon and wait for the result:");
    eprintln!("                 --addr A, --tenant T, --deadline-ms N, --timeout-secs S");
    eprintln!("  chaos          run a deterministic fault-injection campaign over the");
    eprintln!("                 failpoint catalog (needs a fault-injection build):");
    eprintln!("                 --schedules N (default 24), --seed S (default 7),");
    eprintln!("                 --report FILE (JSONL), --scratch DIR, --list (print the");
    eprintln!("                 schedule plan without running); exit 1 on any violation");
    eprintln!("flags:");
    eprintln!("  --jobs N    worker threads for pooled stages (1 = serial; output is identical)");
    eprintln!("  --resume    dse/report/serve: replay the sweep journal and run only the remainder");
    eprintln!("              (also APEX_RESUME=1; config changes start clean automatically)");
    eprintln!("  --cache-max-bytes B   LRU byte cap on the variant cache (suffixes k/m/g;");
    eprintln!("              also APEX_CACHE_MAX_BYTES; corrupt entries are evicted first)");
    eprintln!("exit codes:");
    eprintln!("  0  success");
    eprintln!("  1  pipeline error (an `error: <stage>: ...` chain was printed)");
    eprintln!("  2  invalid usage or flags");
    eprintln!("  3  interrupted: partial output printed, journal flushed; rerun with --resume");
    eprintln!("see `apex` source docs for details");
}

/// How a sweep-capable command finished.
enum Status {
    Done,
    Interrupted,
}

/// Strips a `--jobs N` flag anywhere in the argument list and installs
/// the worker-count override every pooled stage (mining, rule synthesis,
/// the evaluation sweep) consults. `--jobs 1` forces the serial path;
/// results are bit-identical at any value.
fn take_jobs_flag(args: &mut Vec<String>) {
    let Some(pos) = args.iter().position(|a| a == "--jobs") else {
        return;
    };
    let n = args.get(pos + 1).and_then(|v| v.parse::<usize>().ok());
    match n {
        Some(n) if n >= 1 => {
            apex::par::set_jobs(n);
            args.drain(pos..pos + 2);
        }
        _ => {
            eprintln!("--jobs expects a positive integer");
            std::process::exit(2);
        }
    }
}

/// Strips a `--cache-max-bytes B` flag and installs it as
/// `APEX_CACHE_MAX_BYTES` before anything touches the shared variant
/// cache (its configuration is read lazily on first use), so the LRU
/// byte cap applies to offline CLI runs exactly like daemon runs.
fn take_cache_cap_flag(args: &mut Vec<String>) {
    let Some(pos) = args.iter().position(|a| a == "--cache-max-bytes") else {
        return;
    };
    match args.get(pos + 1).and_then(|v| apex::core::parse_byte_size(v)) {
        Some(_) => {
            let value = args[pos + 1].clone();
            std::env::set_var("APEX_CACHE_MAX_BYTES", value);
            args.drain(pos..pos + 2);
        }
        None => {
            eprintln!("--cache-max-bytes expects a byte count (suffixes k/m/g)");
            std::process::exit(2);
        }
    }
}

/// Strips `--resume` from the argument list; `APEX_RESUME=1` is the
/// environment equivalent (for wrappers that cannot edit the command
/// line).
fn take_resume_flag(args: &mut Vec<String>) -> bool {
    let mut resume = false;
    while let Some(pos) = args.iter().position(|a| a == "--resume") {
        args.remove(pos);
        resume = true;
    }
    if !resume {
        if let Ok(v) = std::env::var("APEX_RESUME") {
            let v = v.trim();
            resume = v == "1" || v.eq_ignore_ascii_case("true") || v.eq_ignore_ascii_case("yes");
        }
    }
    resume
}

/// Arms fail points named in `APEX_FAILPOINTS` (comma-separated) so CI
/// can inject faults into a release binary; a `site@N` entry arms the
/// site on its Nth hit instead of the first. Compiled only with the
/// `fault-injection` feature.
fn arm_failpoints_from_env() {
    #[cfg(feature = "fault-injection")]
    if let Ok(sites) = std::env::var("APEX_FAILPOINTS") {
        for site in sites.split(',') {
            let site = site.trim();
            if site.is_empty() {
                continue;
            }
            match site.split_once('@') {
                Some((name, nth)) => match nth.trim().parse::<u64>() {
                    Ok(n) if n >= 1 => apex::fault::failpoints::arm_after(name.trim(), n),
                    _ => {
                        eprintln!(
                            "APEX_FAILPOINTS: '{site}' — the part after '@' must be a \
                             positive hit count"
                        );
                        std::process::exit(2);
                    }
                },
                None => apex::fault::failpoints::arm(site),
            }
        }
    }
}

fn main() {
    apex::fault::interrupt::install();
    arm_failpoints_from_env();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    take_jobs_flag(&mut args);
    take_cache_cap_flag(&mut args);
    let resume = take_resume_flag(&mut args);
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let result = match cmd {
        "list" => {
            list();
            Ok(Status::Done)
        }
        "dot" => {
            dot(&args[1..]);
            Ok(Status::Done)
        }
        "mine" => mine(&args[1..]).map(|()| Status::Done),
        "dse" => dse(&args[1..], resume),
        "verilog" => verilog(&args[1..], false).map(|()| Status::Done),
        "array" => verilog(&args[1..], true).map(|()| Status::Done),
        "report" => report(&args[1..], resume),
        "save" => {
            save(&args[1..]);
            Ok(Status::Done)
        }
        "dse-file" => dse_file(&args[1..]).map(|()| Status::Done),
        "verify" => verify(&args[1..]).map(|()| Status::Done),
        "describe" => describe(&args[1..]).map(|()| Status::Done),
        "serve" => serve(&args[1..], resume),
        "submit" => submit(&args[1..]).map(|()| Status::Done),
        "chaos" => chaos(&args[1..]).map(|()| Status::Done),
        "help" | "--help" | "-h" => {
            usage();
            Ok(Status::Done)
        }
        other => {
            eprintln!("unknown command '{other}'");
            usage();
            std::process::exit(2);
        }
    };
    match result {
        Err(e) => {
            eprintln!("{}", e.render_chain());
            std::process::exit(1);
        }
        Ok(Status::Interrupted) => std::process::exit(EXIT_INTERRUPTED),
        Ok(Status::Done) => {}
    }
}

/// Prints the sweep bookkeeping footer (cache effectiveness and
/// quarantined-entry count) on stderr, keeping stdout byte-diffable.
fn sweep_footer() {
    let cache = apex::core::VariantCache::shared();
    if cache.is_enabled() {
        eprintln!(
            "cache: {} hit(s), {} miss(es), {} quarantined",
            cache.hits(),
            cache.misses(),
            cache.quarantined()
        );
    }
}

fn app_or_exit(name: Option<&String>) -> apex::apps::Application {
    let Some(name) = name else {
        eprintln!("expected an application name; try `apex list`");
        std::process::exit(2);
    };
    match apex::apps::by_name(name) {
        Some(a) => a,
        None => {
            eprintln!("unknown application '{name}'; try `apex list`");
            std::process::exit(2);
        }
    }
}

fn list() {
    println!("{:<11} {:<7} {:>6} {:>8}  description", "name", "domain", "ops", "unroll");
    for a in apex::apps::analyzed_apps()
        .into_iter()
        .chain(apex::apps::unseen_apps())
    {
        println!(
            "{:<11} {:<7} {:>6} {:>8}  {}",
            a.info.name,
            a.info.domain.to_string(),
            a.graph.compute_op_count(),
            a.info.unroll,
            a.info.description
        );
    }
}

fn dot(args: &[String]) {
    let app = app_or_exit(args.first());
    print!("{}", app.graph.to_dot());
}

fn mine(args: &[String]) -> Result<(), ApexError> {
    let app = app_or_exit(args.first());
    let min_support = match args.get(1).map(|s| s.parse::<usize>()) {
        None => 4,
        Some(Ok(n)) if n >= 1 => n,
        Some(_) => {
            eprintln!("min_support expects a positive integer");
            std::process::exit(2);
        }
    };
    let mined = apex::mining::mine(
        &app.graph,
        &apex::mining::MinerConfig {
            min_support,
            ..apex::mining::MinerConfig::default()
        },
    )?;
    println!(
        "{} frequent subgraphs in '{}' (min support {min_support}):",
        mined.subgraphs.len(),
        app.info.name
    );
    if mined.provenance.is_partial() {
        println!("note: mining stopped early ({})", mined.provenance.marker());
    }
    println!("{:>4} {:>5} {:>5} {:>6}  pattern", "#", "occ", "MIS", "uMIS");
    for (i, m) in mined.subgraphs.iter().take(25).enumerate() {
        println!(
            "{:>4} {:>5} {:>5} {:>6}  {}",
            i + 1,
            m.occurrences.len(),
            m.mis_size,
            m.utilizable_mis(&app.graph),
            m.pattern
        );
    }
    if mined.subgraphs.len() > 25 {
        println!("... ({} more)", mined.subgraphs.len() - 25);
    }
    Ok(())
}

fn dse(args: &[String], resume: bool) -> Result<Status, ApexError> {
    let app = app_or_exit(args.first());
    let tech = apex::tech::TechModel::default();
    // the sweep key is the same content hash the variant cache uses, so a
    // config change changes the journal file and forces a clean start
    let sweep_key = apex::core::variant_cache_key(
        "dse-sweep",
        &format!("pe_spec_{}", app.info.name),
        &[&app],
        &[&app],
        Some(&apex::mining::MinerConfig::default()),
        Some(&apex::core::SubgraphSelection::default()),
        Some(&apex::merge::MergeOptions::default()),
        Some(&tech),
        &std::collections::BTreeSet::new(),
    );
    let journal = SweepJournal::for_sweep(sweep_key);
    let jobs = [SweepJob {
        key: sweep_key,
        label: format!("dse {}", app.info.name),
    }];
    let flag = apex::fault::interrupt::flag();
    eprintln!("specializing a PE for '{}'...", app.info.name);
    let run = apex::core::run_checkpointed(&journal, &jobs, resume, Some(&flag), |_| {
        dse_job(&app, &tech)
    })?;
    for r in &run.results {
        if let apex::core::SweepJobResult::Done { report, .. } = r {
            print!("{}", report.payload);
        }
    }
    sweep_footer();
    if run.interrupted {
        println!(
            "# partial dse ({}): 0/1 job(s); resume with `apex dse {} --resume`",
            Provenance::Partial.marker(),
            app.info.name
        );
        return Ok(Status::Interrupted);
    }
    Ok(Status::Done)
}

/// Builds the `apex dse` report payload for one application (the single
/// journaled job of the `dse` sweep).
fn dse_job(app: &apex::apps::Application, tech: &apex::tech::TechModel) -> Result<JobReport, ApexError> {
    let base = apex::core::baseline_variant(&[app])?;
    let spec = apex::core::specialized_variant(
        &format!("pe_spec_{}", app.info.name),
        &[app],
        &[app],
        &apex::mining::MinerConfig::default(),
        &apex::core::SubgraphSelection::default(),
        &apex::merge::MergeOptions::default(),
        tech,
        &std::collections::BTreeSet::new(),
    )?;
    let opts = apex::core::DseOptions::default();
    let b_outcome = apex::core::dse_evaluate_app(&base, app, tech, &opts);
    let s_outcome = apex::core::dse_evaluate_app(&spec, app, tech, &opts);
    let mut out = String::new();
    for (label, o) in [("baseline", &b_outcome), ("specialized", &s_outcome)] {
        for d in &o.degradations {
            let _ = writeln!(out, "degraded [{label}]: {d}");
        }
    }
    let degradations = match (b_outcome.is_degraded(), s_outcome.is_degraded()) {
        (false, false) => "-".to_owned(),
        _ => format!(
            "{},{}",
            b_outcome.degradation_summary(),
            s_outcome.degradation_summary()
        ),
    };
    let (b_degs, s_degs) = (b_outcome.degradations.len(), s_outcome.degradations.len());
    let b = b_outcome.result?;
    let s = s_outcome.result?;
    let _ = writeln!(out, "{:<24} {:>12} {:>12}", "", "baseline", "specialized");
    let _ = writeln!(out, "{:<24} {:>12} {:>12}", "PEs", b.pnr.pe_tiles, s.pnr.pe_tiles);
    let _ = writeln!(out, "{:<24} {:>12.0} {:>12.0}", "PE area (um2)", b.pe_core_area, s.pe_core_area);
    let _ = writeln!(
        out,
        "{:<24} {:>12.1} {:>12.1}",
        "CGRA energy (pJ/cycle)",
        b.energy_per_cycle.total(),
        s.energy_per_cycle.total()
    );
    let _ = writeln!(
        out,
        "{:<24} {:>12.2} {:>12.2}",
        "CGRA area (mm2)",
        b.area.total() * 1e-6,
        s.area.total() * 1e-6
    );
    let _ = writeln!(out, "{:<24} {:>12} {:>12}", "degradations", b_degs, s_degs);
    let _ = writeln!(
        out,
        "\nsubgraphs merged: {} | rewrite rules: {} | savings: {:.0}% PE area, {:.0}% energy",
        spec.sources.len(),
        spec.rules.len(),
        100.0 * (1.0 - s.pe_core_area / b.pe_core_area),
        100.0 * (1.0 - s.energy_per_cycle.total() / b.energy_per_cycle.total())
    );
    Ok(JobReport {
        payload: out,
        provenance: Provenance::Completed,
        degradations,
    })
}

fn variant_or_exit(name: Option<&String>) -> Result<apex::core::PeVariant, ApexError> {
    let Some(name) = name else {
        eprintln!("expected a variant: base | ip | ml | spec:<app>");
        std::process::exit(2);
    };
    let tech = apex::tech::TechModel::default();
    let all = apex::apps::analyzed_apps();
    let refs: Vec<&apex::apps::Application> = all.iter().collect();
    match name.as_str() {
        "base" => apex::core::baseline_variant(&refs),
        "ip" => {
            let ip = apex::apps::ip_apps();
            let iprefs: Vec<&apex::apps::Application> = ip.iter().collect();
            apex::core::specialized_variant(
                "pe_ip",
                &iprefs,
                &iprefs,
                &apex::mining::MinerConfig::default(),
                &apex::core::SubgraphSelection::default(),
                &apex::merge::MergeOptions::default(),
                &tech,
                &std::collections::BTreeSet::new(),
            )
        }
        "ml" => {
            let ml = apex::apps::ml_apps();
            let mlrefs: Vec<&apex::apps::Application> = ml.iter().collect();
            apex::core::specialized_variant(
                "pe_ml",
                &mlrefs,
                &mlrefs,
                &apex::mining::MinerConfig::default(),
                &apex::core::SubgraphSelection::default(),
                &apex::merge::MergeOptions::default(),
                &tech,
                &std::collections::BTreeSet::new(),
            )
        }
        other => match other.strip_prefix("spec:") {
            Some(app_name) => {
                let app = apex::apps::by_name(app_name).unwrap_or_else(|| {
                    eprintln!("unknown application '{app_name}'");
                    std::process::exit(2);
                });
                apex::core::specialized_variant(
                    &format!("pe_spec_{app_name}"),
                    &[&app],
                    &[&app],
                    &apex::mining::MinerConfig::default(),
                    &apex::core::SubgraphSelection::default(),
                    &apex::merge::MergeOptions::default(),
                    &tech,
                    &std::collections::BTreeSet::new(),
                )
            }
            None => {
                eprintln!("unknown variant '{other}': base | ip | ml | spec:<app>");
                std::process::exit(2);
            }
        },
    }
}

fn verilog(args: &[String], full_array: bool) -> Result<(), ApexError> {
    let variant = variant_or_exit(args.first())?;
    let rtl = if full_array {
        let fabric = apex::cgra::Fabric::new(apex::cgra::FabricConfig::default());
        apex::cgra::emit_cgra_verilog(&fabric, &variant.spec)
    } else {
        apex::pe::emit_verilog(&variant.spec)
    };
    match args.get(1) {
        Some(path) => {
            std::fs::write(path, &rtl).map_err(|e| {
                ApexError::new(apex::fault::Stage::Report, format!("cannot write {path}: {e}"))
            })?;
            eprintln!("wrote {} lines to {path}", rtl.lines().count());
        }
        None => print!("{rtl}"),
    }
    Ok(())
}

fn save(args: &[String]) {
    let app = app_or_exit(args.first());
    let text = apex::ir::to_text(&app.graph);
    match args.get(1) {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(2);
            }
            eprintln!("wrote {} to {path}", app.info.name);
        }
        None => print!("{text}"),
    }
}

fn dse_file(args: &[String]) -> Result<(), ApexError> {
    let Some(path) = args.first() else {
        eprintln!("expected a graph file; write one with `apex save <app> <file>`");
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let app = apex::serve::parse_application(&text, path)?;
    let tech = apex::tech::TechModel::default();
    let spec = apex::core::most_specialized_variant(
        &app,
        &apex::mining::MinerConfig::default(),
        &apex::merge::MergeOptions::default(),
        &tech,
        4,
    )?;
    let base = apex::core::baseline_variant(&[&app])?;
    print!("{}", apex::serve::dse_payload(&app, &spec, &base, &tech)?);
    Ok(())
}

/// `apex verify <app>` / `apex verify --suite`: runs every static
/// verifier pass (`apex::verify`) over the artifacts of the full
/// pipeline for one application or the whole benchmark suite. Prints a
/// per-pass report; exits 1 if any pass reports a violation, 2 on usage
/// errors. Pipeline errors (a stage refusing to produce an artifact at
/// all) surface as the usual `error:` chain, also with exit 1.
fn verify(args: &[String]) -> Result<(), ApexError> {
    let apps: Vec<apex::apps::Application> = if args.iter().any(|a| a == "--suite") {
        apex::apps::analyzed_apps()
            .into_iter()
            .chain(apex::apps::unseen_apps())
            .collect()
    } else {
        vec![app_or_exit(args.first())]
    };
    let tech = apex::tech::TechModel::default();
    let mut total = 0usize;
    let mut failed_apps = 0usize;
    for app in &apps {
        let n = verify_app(app, &tech)?;
        if n > 0 {
            failed_apps += 1;
        }
        total += n;
    }
    println!(
        "verify: {} application(s), {} violation(s){}",
        apps.len(),
        total,
        if total == 0 { " — all passes clean" } else { "" }
    );
    if total > 0 {
        eprintln!("verify: {failed_apps} application(s) with violations");
        std::process::exit(1);
    }
    Ok(())
}

/// Runs all verifier passes for one application end-to-end and prints a
/// per-pass line (`ok` or the rendered violations). Returns the number
/// of violations found.
fn verify_app(
    app: &apex::apps::Application,
    tech: &apex::tech::TechModel,
) -> Result<usize, ApexError> {
    use apex::verify as v;
    println!("== {} ==", app.info.name);
    let mut total = 0usize;
    let mut report = |pass: &str, note: &str, vs: Vec<v::Violation>| {
        if vs.is_empty() {
            println!("{pass:<10} ok{}{note}", if note.is_empty() { "" } else { "  " });
        } else {
            println!("{pass:<10} {} violation(s)", vs.len());
            print!("{}", v::render(&vs));
            total += vs.len();
        }
    };

    // ir: the application dataflow graph itself
    report("ir", "", v::verify_graph(&app.graph));

    // mine: frequent subgraphs + MIS statistics
    let mined = apex::mining::mine(&app.graph, &apex::mining::MinerConfig::default())?;
    report(
        "mine",
        &format!("({} subgraphs)", mined.subgraphs.len()),
        v::verify_mined(&app.graph, &mined.subgraphs),
    );

    // merge / rewrite / pe: the specialized variant's own artifacts
    let variant = apex::core::specialized_variant(
        &format!("pe_spec_{}", app.info.name),
        &[app],
        &[app],
        &apex::mining::MinerConfig::default(),
        &apex::core::SubgraphSelection::default(),
        &apex::merge::MergeOptions::default(),
        tech,
        &std::collections::BTreeSet::new(),
    )?;
    report(
        "merge",
        &format!("({} configs)", variant.spec.datapath.configs.len()),
        v::verify_datapath_with(&variant.spec.datapath, &variant.sources, 16),
    );
    report(
        "rewrite",
        &format!("({} rules)", variant.rules.rules.len()),
        v::verify_ruleset(&variant.spec.datapath, &variant.rules.rules, 8),
    );
    let mut spec = variant.spec.clone();
    apex::pipeline::auto_pipeline(&mut spec, tech, &apex::pipeline::PePipelineOptions::default())?;
    report(
        "pe",
        &format!("({} stages)", spec.pipeline.as_ref().map_or(1, |p| p.stages)),
        v::verify_pe(&spec),
    );

    // map / place / route / bitstream: the backend artifacts
    let design = apex::map::map_application(&app.graph, &variant.spec.datapath, &variant.rules)?;
    report(
        "map",
        &format!("({} nodes)", design.netlist.nodes.len()),
        v::verify_netlist(&design.netlist, &variant.rules),
    );
    let fabric = apex::cgra::Fabric::new(apex::cgra::FabricConfig::default());
    let placement = apex::cgra::place(&design.netlist, &fabric, &apex::cgra::PlaceOptions::default())?;
    report(
        "place",
        "",
        v::verify_placement(&design.netlist, &fabric, &placement),
    );
    let routing = apex::cgra::route(
        &design.netlist,
        &variant.rules,
        &fabric,
        &placement,
        &apex::cgra::RouteOptions::default(),
    )?;
    report(
        "route",
        &format!("({} routes)", routing.routes.len()),
        v::verify_routing(&design.netlist, &variant.rules, &fabric, &placement, &routing),
    );
    let bs = apex::cgra::generate_bitstream(
        &design.netlist,
        &variant.rules,
        &variant.spec.datapath,
        &fabric,
        &placement,
        &routing,
    );
    report(
        "bitstream",
        &format!("({} bits)", bs.total_bits),
        v::verify_bitstream(
            &design.netlist,
            &variant.rules,
            &variant.spec.datapath,
            &fabric,
            &placement,
            &routing,
            &bs,
        ),
    );
    Ok(total)
}

fn describe(args: &[String]) -> Result<(), ApexError> {
    let variant = variant_or_exit(args.first())?;
    let tech = apex::tech::TechModel::default();
    print!("{}", apex::pe::datasheet(&variant.spec, &tech));
    Ok(())
}

/// Pops `--flag <value>` from `args`, parsed with `parse`; exits 2 on a
/// present-but-unparseable value.
fn take_value_flag<T>(
    args: &mut Vec<String>,
    flag: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Option<T> {
    let pos = args.iter().position(|a| a == flag)?;
    match args.get(pos + 1).and_then(|v| parse(v)) {
        Some(v) => {
            args.drain(pos..pos + 2);
            Some(v)
        }
        None => {
            eprintln!("{flag} expects a value");
            std::process::exit(2);
        }
    }
}

/// `apex serve`: run the hardened DSE daemon until SIGINT/SIGTERM or a
/// client `drain` op. Exit code 0 when every admitted job concluded,
/// 3 when unfinished (journaled) jobs remain — restart with `--resume`
/// to run exactly those.
fn serve(args: &[String], resume: bool) -> Result<Status, ApexError> {
    let mut args = args.to_vec();
    let mut config = apex::serve::ServeConfig {
        resume,
        ..apex::serve::ServeConfig::default()
    };
    if let Some(addr) = take_value_flag(&mut args, "--addr", |v| Some(v.to_owned())) {
        config.addr = addr;
    }
    if let Some(n) = take_value_flag(&mut args, "--workers", |v| v.parse::<usize>().ok()) {
        config.workers = n;
    }
    if let Some(n) = take_value_flag(&mut args, "--queue-limit", |v| {
        v.parse::<usize>().ok().filter(|n| *n >= 1)
    }) {
        config.queue_limit = n;
    }
    if let Some(s) = take_value_flag(&mut args, "--idle-timeout-secs", |v| {
        v.parse::<u64>().ok().filter(|s| *s >= 1)
    }) {
        config.idle_timeout = std::time::Duration::from_secs(s);
    }
    if let Some(s) = take_value_flag(&mut args, "--default-deadline-secs", |v| {
        v.parse::<u64>().ok().filter(|s| *s >= 1)
    }) {
        config.default_deadline = std::time::Duration::from_secs(s);
    }
    if let Some(unknown) = args.first() {
        eprintln!("serve: unknown argument '{unknown}'");
        std::process::exit(2);
    }
    let journal = apex::serve::default_journal();
    let server = apex::serve::Server::bind(config, journal, apex::serve::DseRunner)?;
    let summary = server.run();
    sweep_footer();
    if summary.unfinished > 0 {
        return Ok(Status::Interrupted);
    }
    Ok(Status::Done)
}

/// `apex submit <file>`: client side — submit one text-format graph to a
/// running daemon, ride out backpressure, poll to conclusion, print the
/// result payload.
fn submit(args: &[String]) -> Result<(), ApexError> {
    let mut args = args.to_vec();
    let addr = take_value_flag(&mut args, "--addr", |v| Some(v.to_owned()))
        .unwrap_or_else(|| "127.0.0.1:7341".to_owned());
    let tenant = take_value_flag(&mut args, "--tenant", |v| Some(v.to_owned())).unwrap_or_default();
    let deadline_ms = take_value_flag(&mut args, "--deadline-ms", |v| {
        v.parse::<u64>().ok().filter(|ms| *ms >= 1)
    });
    let timeout = std::time::Duration::from_secs(
        take_value_flag(&mut args, "--timeout-secs", |v| {
            v.parse::<u64>().ok().filter(|s| *s >= 1)
        })
        .unwrap_or(600),
    );
    let Some(path) = args.first() else {
        eprintln!("expected a graph file; write one with `apex save <app> <file>`");
        std::process::exit(2);
    };
    let graph = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let result =
        apex::serve::client::submit_and_wait(&addr, &tenant, &graph, deadline_ms, timeout)?;
    if let Some(detail) = result.get("detail") {
        // a concluded-but-failed job: surface the server's error chain
        return Err(ApexError::new(
            apex::fault::Stage::Cli,
            format!("job failed on the server: {detail}"),
        ));
    }
    if let Some(payload) = result.get("payload") {
        print!("{payload}");
    }
    if let Some(p) = result.get("provenance") {
        if p != apex::fault::Provenance::Completed.marker() {
            eprintln!("note: job concluded early ({p})");
        }
    }
    Ok(())
}

/// `apex chaos`: enumerate deterministic fault schedules from the
/// failpoint catalog and run the campaign (see `apex::chaos`). Prints a
/// per-schedule verdict; `--report FILE` additionally writes the full
/// JSONL report. Exit 1 if any schedule violated an invariant (or the
/// binary lacks the `fault-injection` feature), 2 on usage errors.
fn chaos(args: &[String]) -> Result<(), ApexError> {
    let mut args = args.to_vec();
    let schedules = take_value_flag(&mut args, "--schedules", |v| {
        v.parse::<usize>().ok().filter(|n| *n >= 1)
    })
    .unwrap_or(24);
    let seed = take_value_flag(&mut args, "--seed", |v| v.parse::<u64>().ok()).unwrap_or(7);
    let report = take_value_flag(&mut args, "--report", |v| {
        Some(std::path::PathBuf::from(v))
    });
    let scratch = take_value_flag(&mut args, "--scratch", |v| {
        Some(std::path::PathBuf::from(v))
    });
    let list_only = if let Some(pos) = args.iter().position(|a| a == "--list") {
        args.remove(pos);
        true
    } else {
        false
    };
    if let Some(extra) = args.first() {
        eprintln!("chaos: unexpected argument '{extra}'");
        std::process::exit(2);
    }
    if list_only {
        for schedule in apex::chaos::enumerate_schedules(schedules, seed) {
            println!("{}", apex::fault::record::encode(&schedule.fields()));
        }
        return Ok(());
    }
    let config = apex::chaos::ChaosConfig {
        schedules,
        seed,
        scratch,
    };
    let campaign = apex::chaos::run_campaign(&config)?;
    for run in &campaign.runs {
        let verdict = if run.violations.is_empty() { "ok" } else { "VIOLATION" };
        println!(
            "schedule {:>3} [{}] {:<55} {}",
            run.schedule.id,
            run.schedule.mode.name(),
            run.schedule.faults_spec(),
            verdict
        );
        for v in &run.violations {
            println!("    - {v}");
        }
    }
    if let Some(path) = report {
        std::fs::write(&path, campaign.to_jsonl()).map_err(|e| {
            ApexError::new(
                apex::fault::Stage::Cli,
                format!("cannot write report {}: {e}", path.display()),
            )
        })?;
        eprintln!("chaos: JSONL report written to {}", path.display());
    }
    println!(
        "chaos: {} schedule(s), seed {}, {} violation(s) in {} schedule(s)",
        campaign.runs.len(),
        campaign.seed,
        campaign.total_violations(),
        campaign.violated_schedules()
    );
    if campaign.total_violations() > 0 {
        std::process::exit(1);
    }
    Ok(())
}

fn report(filter: &[String], resume: bool) -> Result<Status, ApexError> {
    let experiments = apex::eval::all_experiments();
    for id in filter {
        if !experiments.iter().any(|(name, _)| name == id) {
            let known: Vec<&str> = experiments.iter().map(|(name, _)| *name).collect();
            return Err(ApexError::new(
                apex::fault::Stage::Cli,
                format!("unknown experiment '{id}' (known: {})", known.join(", ")),
            ));
        }
    }
    let selected: Vec<_> = experiments
        .into_iter()
        .filter(|(name, _)| filter.is_empty() || filter.iter().any(|f| f == name))
        .collect();
    // the sweep key covers the selected experiment set so that e.g.
    // `apex report table1` and `apex report` journal independently
    let mut key_parts: Vec<&str> = vec![apex::core::JOURNAL_FORMAT, "report"];
    key_parts.extend(selected.iter().map(|(name, _)| *name));
    let sweep_key = apex::core::fnv1a(&key_parts);
    let journal = SweepJournal::for_sweep(sweep_key);
    let jobs: Vec<SweepJob> = selected
        .iter()
        .map(|(name, _)| SweepJob {
            key: apex::core::fnv1a(&[apex::core::JOURNAL_FORMAT, "report-job", name]),
            label: (*name).to_owned(),
        })
        .collect();
    let flag = apex::fault::interrupt::flag();
    let run = apex::core::run_checkpointed(&journal, &jobs, resume, Some(&flag), |i| {
        let table = (selected[i].1)()?;
        Ok(JobReport {
            payload: format!("{table}\n"),
            provenance: Provenance::Completed,
            degradations: "-".to_owned(),
        })
    })?;
    for r in &run.results {
        if let apex::core::SweepJobResult::Done { report, .. } = r {
            print!("{}", report.payload);
        }
    }
    sweep_footer();
    if run.interrupted {
        println!(
            "# partial report ({}): {}/{} job(s); resume with `apex report --resume`",
            Provenance::Partial.marker(),
            run.done(),
            jobs.len()
        );
        return Ok(Status::Interrupted);
    }
    Ok(Status::Done)
}
