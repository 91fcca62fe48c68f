//! CLI contract tests for the sweep-executor flags and diagnostics:
//! `--jobs` and `apex mine` support validation, experiment-id
//! validation in `apex report`, unknown-application handling, and the
//! crash-safe-sweep contract (interrupted sweeps exit 3 and `--resume`
//! reproduces the full run byte-for-byte) — all must exit with the
//! documented code, never panic, never silently ignore the request.
//! `apex dse-file` must print exactly the daemon's payload for the same
//! graph.

use std::path::PathBuf;
use std::process::Command;

fn apex(args: &[&str]) -> (i32, String) {
    let (code, _stdout, stderr) = apex_env(args, &[]);
    (code, stderr)
}

/// Runs the binary with extra environment variables and captures stdout
/// too (the byte-diffable sweep output lives on stdout; diagnostics and
/// the cache footer live on stderr).
fn apex_env(args: &[&str], envs: &[(&str, &str)]) -> (i32, String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_apex"));
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("apex binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Per-test scratch directory so journals and caches never leak between
/// tests or into the developer's workspace.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apex-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn report_rejects_unknown_experiment_id() {
    // the pre-parallel CLI silently skipped unknown ids and printed
    // nothing — a typo looked like an empty (successful) report
    let (code, stderr) = apex(&["report", "fig99"]);
    assert_ne!(code, 0, "unknown experiment id must fail\nstderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(
        stderr.contains("unknown experiment 'fig99'"),
        "diagnostic names the id: {stderr}"
    );
    assert!(
        stderr.contains("table2"),
        "diagnostic lists the known ids: {stderr}"
    );
}

#[test]
fn jobs_flag_rejects_zero_and_garbage() {
    for bad in ["0", "many", "-3"] {
        let (code, stderr) = apex(&["report", "--jobs", bad, "table1"]);
        assert_ne!(code, 0, "--jobs {bad} must fail\nstderr: {stderr}");
        assert!(
            stderr.contains("--jobs expects a positive integer"),
            "--jobs {bad}: {stderr}"
        );
    }
    // trailing --jobs with no value
    let (code, stderr) = apex(&["report", "table1", "--jobs"]);
    assert_ne!(code, 0, "dangling --jobs must fail\nstderr: {stderr}");
}

#[test]
fn mine_rejects_a_bad_min_support() {
    // a garbage support used to fall back to 4 silently and exit 0
    for bad in ["abc", "0", "-2", "2.5"] {
        let (code, stdout, stderr) = apex_env(&["mine", "gaussian", bad], &[]);
        assert_eq!(code, 2, "min_support {bad} must be a usage error\nstderr: {stderr}");
        assert!(
            stderr.contains("min_support expects a positive integer"),
            "min_support {bad}: {stderr}"
        );
        assert!(stdout.is_empty(), "min_support {bad} mined anyway: {stdout}");
    }
}

#[test]
fn jobs_flag_is_accepted_on_cheap_commands() {
    // `mine` exercises the pooled mining stage; --jobs 2 must parse and
    // not leak into the positional arguments
    let (code, stderr) = apex(&["mine", "gaussian", "--jobs", "2"]);
    assert_eq!(code, 0, "mine with --jobs should succeed\nstderr: {stderr}");
}

#[test]
fn help_documents_exit_codes() {
    let (code, _stdout, stderr) = apex_env(&["--help"], &[]);
    assert_eq!(code, 0, "--help succeeds\nstderr: {stderr}");
    assert!(stderr.contains("exit codes"), "help lists exit codes: {stderr}");
    assert!(
        stderr.contains("3  interrupted"),
        "help documents the interrupted-partial code: {stderr}"
    );
    assert!(stderr.contains("--resume"), "help documents --resume: {stderr}");
}

/// The full crash-safe-sweep round trip through the real binary:
/// a sweep interrupted mid-flight exits with the documented partial code
/// (3), flushes its journal, and a `--resume` rerun completes with stdout
/// byte-identical to an uninterrupted run.
#[test]
fn interrupted_report_exits_3_and_resume_is_byte_identical() {
    let dir = scratch("resume");
    let cache = dir.join("cache");
    let j_full = dir.join("journal-full");
    let j_part = dir.join("journal-part");
    let cache_s = cache.to_string_lossy().into_owned();
    let j_full_s = j_full.to_string_lossy().into_owned();
    let j_part_s = j_part.to_string_lossy().into_owned();
    let args = ["report", "table1", "fig10"];

    // uninterrupted reference run
    let (code, full_out, stderr) = apex_env(
        &args,
        &[("APEX_CACHE_DIR", &cache_s), ("APEX_JOURNAL_DIR", &j_full_s)],
    );
    assert_eq!(code, 0, "reference run succeeds\nstderr: {stderr}");
    assert!(!full_out.is_empty());

    // interrupted run: the deterministic hook raises the interrupt flag
    // after one executed job, exactly like a Ctrl-C between jobs
    let (code, part_out, stderr) = apex_env(
        &args,
        &[
            ("APEX_CACHE_DIR", &cache_s),
            ("APEX_JOURNAL_DIR", &j_part_s),
            ("APEX_INTERRUPT_AFTER", "1"),
        ],
    );
    assert_eq!(code, 3, "interrupted sweep exits 3\nstderr: {stderr}");
    assert!(
        part_out.contains("# partial report (partial): 1/2 job(s)"),
        "partial marker on stdout: {part_out}"
    );
    let journal_files: Vec<_> = std::fs::read_dir(&j_part)
        .expect("journal dir exists after interrupt")
        .collect();
    assert_eq!(journal_files.len(), 1, "one journal file was flushed");

    // resume: replays job 1 from the journal, runs job 2, byte-identical
    let (code, resumed_out, stderr) = apex_env(
        &["report", "table1", "fig10", "--resume"],
        &[("APEX_CACHE_DIR", &cache_s), ("APEX_JOURNAL_DIR", &j_part_s)],
    );
    assert_eq!(code, 0, "resumed run succeeds\nstderr: {stderr}");
    assert!(
        stderr.contains("resume: replaying 1/2"),
        "resume log names the replay count: {stderr}"
    );
    assert_eq!(
        resumed_out, full_out,
        "resumed stdout must be byte-identical to the uninterrupted run"
    );

    // resume with a completed journal replays everything
    let (code, again_out, stderr) = apex_env(
        &["report", "table1", "fig10", "--resume"],
        &[("APEX_CACHE_DIR", &cache_s), ("APEX_JOURNAL_DIR", &j_part_s)],
    );
    assert_eq!(code, 0, "second resume succeeds\nstderr: {stderr}");
    assert_eq!(again_out, full_out, "fully-replayed stdout is stable");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_application_exits_nonzero() {
    let (code, stderr) = apex(&["dse", "no-such-app"]);
    assert_ne!(code, 0, "unknown app must fail\nstderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(
        stderr.contains("unknown application 'no-such-app'"),
        "diagnostic names the app: {stderr}"
    );
}

/// `apex dse-file` and `apex serve` run one custom-graph job: for the same
/// graph text the CLI prints byte for byte what the daemon's runner returns.
#[test]
fn dse_file_prints_the_daemon_payload() {
    use apex::serve::{DseRunner, JobRunner, JobSpec};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::Duration;

    let dir = scratch("dse-file-payload");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let graph = dir.join("mobilenet.g");
    let graph_s = graph.to_string_lossy().into_owned();
    let cache_s = dir.join("cache").to_string_lossy().into_owned();
    let (code, stderr) = apex(&["save", "mobilenet", &graph_s]);
    assert_eq!(code, 0, "save succeeds\nstderr: {stderr}");
    let (code, stdout, stderr) =
        apex_env(&["dse-file", &graph_s], &[("APEX_CACHE_DIR", &cache_s)]);
    assert_eq!(code, 0, "dse-file succeeds\nstderr: {stderr}");

    let report = DseRunner
        .run(&JobSpec {
            tenant: String::new(),
            graph: std::fs::read_to_string(&graph).expect("saved graph"),
            deadline: Duration::from_secs(600),
            cancel: Arc::new(AtomicBool::new(false)),
        })
        .expect("the daemon's runner succeeds");
    assert_eq!(report.provenance, apex::fault::Provenance::Completed);
    assert_eq!(stdout, report.payload);

    let _ = std::fs::remove_dir_all(&dir);
}
