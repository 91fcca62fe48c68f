//! apexbench: end-to-end and per-layer benchmark of the APEX flow.
//!
//! ```text
//! cargo run --release --manifest-path apexbench/Cargo.toml -- \
//!     --workload <specialize|signoff|serve_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs in this one process on one worker thread
//! (`serve_mix` adds one client thread), times whole seeded rounds of
//! ops, and checks every op's output. The last stdout line is a JSON
//! object with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of a traced replay (`--trace 1`). The exit code is 1 when an
//! output check failed. See `BENCHMARK.md` for the workloads and metrics.

mod golden;
mod serve_mix;
mod signoff;
mod specialize;
mod stats;
mod trace;

use stats::{median, peak_rss_mb, percentile, Phase, Tally};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use trace::{OpTrace, Tracer};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// The round index of the untimed warm-up round; timed rounds follow it.
pub const WARMUP_ROUND: u64 = 0;

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Ctx {
    /// Time for untraced and traced ops. A traced run spends half its
    /// time untraced so it can report its own tracing overhead.
    pub fn phase_budgets(&self) -> (Duration, Duration) {
        let all = Duration::from_secs_f64(self.seconds);
        if self.trace {
            (all / 2, all / 2)
        } else {
            (all, Duration::ZERO)
        }
    }
}

/// What a workload hands back to the reporter.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    /// The untraced timed ops.
    pub timed: Phase,
    /// The traced ops (traced runs only).
    pub tracer: Tracer,
    pub tally: Tally,
    /// Per-layer values measured over the whole traced phase.
    pub gauges: Vec<(&'static str, f64)>,
    pub notes: Vec<String>,
}

type Workload = fn(&Ctx) -> Result<Outcome, String>;

const WORKLOADS: &[(&str, Workload)] = &[
    ("specialize", specialize::run),
    ("signoff", signoff::run),
    ("serve_mix", serve_mix::run),
];

/// Per-layer metrics: name, unit, and the span of the layer call that
/// hosts them. Each is the median over the ops that entered that layer,
/// 0 when none did.
const PER_LAYER: &[(&str, &str, &str)] = &[
    ("mining.mine_ms", "ms", "mining.mine"),
    ("mining.patterns", "count", "mining.mine"),
    ("core.select_ms", "ms", "core.select"),
    ("core.selected", "count", "core.select"),
    ("merge.merge_ms", "ms", "merge.merge"),
    ("merge.candidates", "count", "merge.merge"),
    ("merge.truncated", "count", "merge.merge"),
    ("rewrite.synth_ms", "ms", "rewrite.synth"),
    ("rewrite.rules", "count", "rewrite.synth"),
    ("map.map_ms", "ms", "map.map"),
    ("map.pe_count", "count", "map.map"),
    ("pipeline.pipeline_ms", "ms", "pipeline.pipeline"),
    ("cgra.place_ms", "ms", "cgra.place"),
    ("cgra.route_ms", "ms", "cgra.route"),
    ("cgra.route_iterations", "count", "cgra.route"),
    ("cgra.verify_ms", "ms", "cgra.verify"),
    ("cgra.bitstream_ms", "ms", "cgra.bitstream"),
    ("cgra.sim_ms", "ms", "cgra.sim"),
    ("cgra.sim_cycles_per_s", "1/s", "cgra.sim"),
    ("serve.submit_rtt_ms", "ms", "serve.submit"),
    ("serve.queue_wait_ms", "ms", "serve.queue_wait"),
    ("serve.run_ms", "ms", "serve.run"),
    ("serve.notify_ms", "ms", "serve.notify"),
    ("serve.polls", "count", "serve.submit"),
    ("unattributed_ms", "ms", "op"),
];

/// Run-level per-layer metrics (not per-op medians).
const GAUGES: &[(&str, &str)] = &[
    ("cache.hit_ratio", "ratio"),
    ("cache.bytes", "bytes"),
    ("trace.coverage_pct", "%"),
    ("trace_overhead_pct", "%"),
];

/// One op's value of a per-layer metric; `None` when the op did not
/// enter the metric's host layer.
fn per_op(metric: &str, host: &str, t: &OpTrace) -> Option<f64> {
    if host != "op" && !t.span_ms.contains_key(host) {
        return None;
    }
    Some(match metric {
        "core.select_ms" => t.ms("core.select") - t.ms("mining.mine"),
        "cgra.sim_cycles_per_s" => t.count("cgra.sim_cycles") / (t.ms("cgra.sim") / 1e3),
        "unattributed_ms" => t.total_ms - t.attributed_ms,
        m if m.ends_with("_ms") => t.ms(host),
        m => t.count(m),
    })
}

/// Removes the run's scratch directory (cache and journal) on exit.
struct Scratch(PathBuf);

impl Scratch {
    /// Fresh, empty cache and journal directories under the checkout, a
    /// clean `APEX_*` environment, and one worker thread.
    fn isolate(workload: &str) -> Result<Scratch, String> {
        let dir = PathBuf::from(".bench_tmp").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for sub in ["cache", "journal"] {
            std::fs::create_dir_all(dir.join(sub))
                .map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let abs = std::fs::canonicalize(&dir).map_err(|e| e.to_string())?;
        // single-threaded here: nothing else reads the environment yet
        for (key, _) in std::env::vars() {
            if key.starts_with("APEX_") {
                std::env::remove_var(key);
            }
        }
        std::env::set_var("APEX_CACHE_DIR", abs.join("cache"));
        std::env::set_var("APEX_JOURNAL_DIR", abs.join("journal"));
        if workload != "serve_mix" {
            std::env::set_var("APEX_CACHE", "off");
        }
        apex_par::set_jobs(1);
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let args = Args {
        workload: value("--workload")?.to_owned(),
        seed: value("--seed")?
            .parse()
            .map_err(|_| "--seed must be an integer")?,
        seconds: value("--seconds")?
            .parse()
            .map_err(|_| "--seconds must be a number")?,
        trace: match value("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".to_owned()),
        },
    };
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Prints the human-readable lines, then the result object as the last
/// line of stdout.
fn report(args: &Args, o: &Outcome) -> bool {
    let mut metrics: Vec<(&str, &str, f64, usize)> = Vec::new();
    let timed = &o.timed;
    if args.trace {
        let ops = o.tracer.ops();
        for &(name, unit, host) in PER_LAYER {
            let values: Vec<f64> = ops.iter().filter_map(|t| per_op(name, host, t)).collect();
            metrics.push((name, unit, median(&values), values.len()));
        }
        let total: f64 = ops.iter().map(|t| t.total_ms).sum();
        let attributed: f64 = ops.iter().map(|t| t.attributed_ms).sum();
        let traced: Vec<f64> = ops.iter().map(|t| t.total_ms).collect();
        let overhead = (median(&traced) / median(&timed.latencies_ms) - 1.0) * 100.0;
        for &(name, unit) in GAUGES {
            let value = match name {
                "trace.coverage_pct" => 100.0 * attributed / total,
                "trace_overhead_pct" => overhead,
                _ => o.gauges.iter().find(|g| g.0 == name).map_or(0.0, |g| g.1),
            };
            metrics.push((name, unit, value, ops.len()));
        }
    } else {
        let n = timed.ops();
        let busy_s = timed.total_s();
        metrics.push(("jobs_per_s", "1/s", n as f64 / busy_s, n));
        metrics.push((
            "latency_ms_p50",
            "ms",
            percentile(&timed.latencies_ms, 50.0),
            n,
        ));
        metrics.push((
            "latency_ms_p90",
            "ms",
            percentile(&timed.latencies_ms, 90.0),
            n,
        ));
        metrics.push(("cpu_ms_per_job", "ms", timed.cpu_ms / n as f64, n));
        metrics.push(("peak_rss_mb", "MB", peak_rss_mb(), 1));
        metrics.push(("setup_s", "s", median(&o.setup_s), o.setup_s.len()));
    }

    println!(
        "# apexbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &o.notes {
        println!("# {note}");
    }
    for (name, unit, value, n) in &metrics {
        println!("# {name:<24} {value:>14.4} {unit:<6} (n={n})");
    }
    let correct = o.tally.failed == 0;
    println!(
        "# fail_ratio {} ({} failed of {} attempted)",
        o.tally.fail_ratio(),
        o.tally.failed,
        o.tally.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value, _)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.tally.attempted.max(1),
        o.tally.failed,
        body.join(", ")
    );
    correct
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("apexbench: {e}");
            eprintln!(
                "usage: apexbench --workload <specialize|signoff|serve_mix> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let Some(&(_, workload)) = WORKLOADS.iter().find(|w| w.0 == args.workload) else {
        eprintln!("apexbench: unknown workload '{}'", args.workload);
        return ExitCode::from(2);
    };
    let outcome = {
        let _scratch = match Scratch::isolate(&args.workload) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("apexbench: cannot isolate the run: {e}");
                return ExitCode::FAILURE;
            }
        };
        workload(&Ctx {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
        })
    };
    let o = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("apexbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let path = PathBuf::from(".bench_out")
            .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        if let Err(e) = o.tracer.write(&path) {
            eprintln!("apexbench: cannot write {}: {e}", path.display());
        }
    }
    if report(&args, &o) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
