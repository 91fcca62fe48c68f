//! # apex-chaos — deterministic chaos campaigns for the APEX toolchain
//!
//! A chaos campaign answers one question mechanically: *for every fault
//! the workspace knows how to inject, does the pipeline keep its
//! documented promises?* The campaign:
//!
//! 1. **Enumerates fault schedules** deterministically from
//!    [`apex_fault::FAILPOINT_CATALOG`] and a seed — one schedule per
//!    catalog site first (so every registered fail point is exercised),
//!    then seeded multi-fault combinations. A schedule names the sites
//!    to arm, the hit on which each fires, the execution mode
//!    (in-process sweep or a real daemon over TCP), and an optional
//!    memory budget ([`apex_fault::Budget`]).
//! 2. **Runs the workload** under each schedule: a reference run with no
//!    faults, the faulted run (under `catch_unwind`, so an escaped panic
//!    is evidence rather than a crashed campaign), and two `--resume`
//!    runs after the fault is disarmed.
//! 3. **Asserts the invariant battery** after every schedule — see
//!    [`campaign`] for the exact list: no escaped panics, only
//!    documented (flagged) outcome divergence, byte-identical resume
//!    replays, a torn-free journal, a corruption-free variant cache,
//!    and `apex-verify` passes on surviving variants.
//! 4. **Reports** one JSONL line per schedule; the `apex chaos` CLI
//!    exits nonzero if any schedule violated an invariant.
//!
//! Everything is a pure function of `(seed, schedule count)`: the same
//! invocation replays the same faults on the same hits, so a red
//! campaign in CI reproduces locally with the same two numbers.
//!
//! The schedule enumerator and report types compile unconditionally;
//! actually *running* a campaign requires the `fault-injection` feature
//! (the stage crates compile their fail-point sites out otherwise), and
//! [`run_campaign`] returns an error directing the caller to rebuild
//! when the feature is missing.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use apex_fault::record::{self, Fields};
use apex_fault::FAILPOINT_CATALOG;

mod campaign;
pub use campaign::{run_campaign, CampaignReport, ChaosConfig, ScheduleReport};

// ---------------------------------------------------------------------------
// deterministic randomness
// ---------------------------------------------------------------------------

/// SplitMix64 — the workspace's standard tiny deterministic generator
/// (the same mixer the serve client uses for backoff jitter). Good
/// enough to spread schedule parameters; never used for anything
/// security-relevant.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound` must be nonzero).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }
}

// ---------------------------------------------------------------------------
// schedules
// ---------------------------------------------------------------------------

/// How a schedule executes its workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// An in-process checkpointed sweep (mine → merge → … → evaluate on
    /// the benchmark trio), plus an explicit variant-cache store/evict
    /// step so the I/O-fault sites on the cache path are reachable.
    InProcess,
    /// A real daemon on an ephemeral TCP port driven through the serve
    /// client — the only mode where the connection-level sites
    /// (`serve::slow_client`, `serve::accept_error`,
    /// `serve::mid_job_kill`) can fire.
    Daemon,
}

impl Mode {
    /// Stable wire name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Mode::InProcess => "in_process",
            Mode::Daemon => "daemon",
        }
    }
}

/// One fault to arm: the site name and the hit on which it fires
/// (1 = the first time the site is reached).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedFault {
    /// Catalog site name (e.g. `mine::start`).
    pub site: String,
    /// Fire on the `nth` time the site is hit.
    pub nth: u64,
}

/// One deterministic campaign entry: which faults, when, and under what
/// execution mode and memory budget.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Position in the campaign (stable for a given seed).
    pub id: usize,
    /// The faults armed together for this run.
    pub faults: Vec<PlannedFault>,
    /// Execution mode.
    pub mode: Mode,
    /// Memory budget in bytes for the miner/merger resource meters
    /// (`None` = unlimited), making resource exhaustion a schedulable
    /// fault like any other.
    pub mem_budget: Option<u64>,
}

/// Sites that only fire on the daemon's socket path; a schedule arming
/// any of them must run in [`Mode::Daemon`].
fn daemon_only(site: &str) -> bool {
    matches!(
        site,
        "serve::slow_client" | "serve::accept_error" | "serve::mid_job_kill"
    )
}

/// Enumerates `count` schedules for `seed`, deterministically.
///
/// The first `FAILPOINT_CATALOG.len()` schedules arm exactly one
/// catalog site each, in catalog order — every registered fail point is
/// exercised before any combination is tried. Later schedules arm
/// seeded combinations of two or three sites. Firing hits are seeded in
/// `1..=3`; every sixth in-process schedule additionally runs under a
/// tight seeded memory budget (1–8 KiB), so resource exhaustion is part
/// of the standard sweep.
pub fn enumerate_schedules(count: usize, seed: u64) -> Vec<Schedule> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(count);
    for id in 0..count {
        let faults: Vec<PlannedFault> = if let Some(info) = FAILPOINT_CATALOG.get(id) {
            vec![PlannedFault {
                site: info.name.to_owned(),
                nth: 1 + rng.below(3),
            }]
        } else {
            let k = 2 + rng.below(2) as usize;
            let mut picked = Vec::with_capacity(k);
            while picked.len() < k {
                let site = FAILPOINT_CATALOG[rng.below(FAILPOINT_CATALOG.len() as u64) as usize]
                    .name
                    .to_owned();
                if !picked.iter().any(|f: &PlannedFault| f.site == site) {
                    picked.push(PlannedFault {
                        site,
                        nth: 1 + rng.below(3),
                    });
                }
            }
            picked
        };
        let mode = if faults.iter().any(|f| daemon_only(&f.site)) {
            Mode::Daemon
        } else {
            Mode::InProcess
        };
        let mem_budget = if mode == Mode::InProcess && id % 6 == 2 {
            Some(1024u64 << rng.below(4))
        } else {
            None
        };
        out.push(Schedule {
            id,
            faults,
            mode,
            mem_budget,
        });
    }
    out
}

impl Schedule {
    /// The faults in the `APEX_FAILPOINTS` syntax: `site@N,site@N`.
    pub fn faults_spec(&self) -> String {
        let faults: Vec<String> = self
            .faults
            .iter()
            .map(|f| format!("{}@{}", f.site, f.nth))
            .collect();
        faults.join(",")
    }

    /// The schedule as flat [`record`] fields (`mem_budget` only when
    /// set): one `apex chaos --list` line once encoded.
    pub fn fields(&self) -> Fields {
        let mut f = record::fields(&[
            ("schedule", &self.id.to_string()),
            ("mode", self.mode.name()),
            ("faults", &self.faults_spec()),
        ]);
        if let Some(bytes) = self.mem_budget {
            f.insert("mem_budget".to_owned(), bytes.to_string());
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_is_deterministic_and_covers_the_catalog() {
        let a = enumerate_schedules(40, 7);
        let b = enumerate_schedules(40, 7);
        assert_eq!(a.len(), 40);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.faults, y.faults);
            assert_eq!(x.mode, y.mode);
            assert_eq!(x.mem_budget, y.mem_budget);
        }
        // every catalog site appears as a single-fault schedule first
        for (i, info) in FAILPOINT_CATALOG.iter().enumerate() {
            assert_eq!(a[i].faults.len(), 1);
            assert_eq!(a[i].faults[0].site, info.name);
            assert!(a[i].faults[0].nth >= 1 && a[i].faults[0].nth <= 3);
        }
        // combos beyond the catalog arm 2–3 distinct sites
        for s in &a[FAILPOINT_CATALOG.len()..] {
            assert!(s.faults.len() >= 2 && s.faults.len() <= 3);
            let mut sites: Vec<&str> = s.faults.iter().map(|f| f.site.as_str()).collect();
            sites.sort_unstable();
            sites.dedup();
            assert_eq!(sites.len(), s.faults.len(), "combo sites must be distinct");
        }
    }

    #[test]
    fn first_schedules_include_daemon_enospc_and_budget_runs() {
        // the acceptance shape for `apex chaos --schedules 24 --seed 7`:
        // within the first 24 schedules the campaign must reach daemon
        // mode, injected ENOSPC, and a memory-budget run
        let s = enumerate_schedules(24, 7);
        assert!(s.iter().any(|x| x.mode == Mode::Daemon));
        assert!(s
            .iter()
            .any(|x| x.faults.iter().any(|f| f.site.ends_with("enospc"))));
        assert!(s.iter().any(|x| x.mem_budget.is_some()));
    }

    #[test]
    fn seeds_change_the_plan_but_not_the_site_order() {
        let a = enumerate_schedules(24, 7);
        let b = enumerate_schedules(24, 8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.faults[0].site, y.faults[0].site);
        }
        assert!(
            a.iter()
                .zip(&b)
                .any(|(x, y)| x.faults[0].nth != y.faults[0].nth),
            "different seeds must vary the firing hits somewhere"
        );
    }

    #[test]
    fn daemon_only_sites_run_in_daemon_mode() {
        for s in enumerate_schedules(100, 3) {
            let needs_daemon = s.faults.iter().any(|f| daemon_only(&f.site));
            assert_eq!(needs_daemon, s.mode == Mode::Daemon, "schedule {}", s.id);
        }
    }

    #[test]
    fn list_and_report_lines_decode_and_faults_parse_back() {
        let runs = enumerate_schedules(30, 7)
            .into_iter()
            .map(|schedule| ScheduleReport {
                violations: vec!["panic: \"boom\"\tat\\x \u{1}".to_owned(); schedule.id % 3],
                schedule,
            })
            .collect();
        let report = CampaignReport { seed: 7, runs };
        let jsonl = report.to_jsonl();
        let mut lines = jsonl.lines().map(|l| record::decode(l).expect("every line decodes"));
        let header = lines.next().expect("a header line");
        assert_eq!(header["violations"], report.total_violations().to_string());
        assert_eq!(jsonl.lines().count(), 1 + report.runs.len());
        for (mut line, run) in lines.zip(&report.runs) {
            let parsed: Vec<(&str, u64)> = (line["faults"].split(','))
                .filter_map(|f| f.split_once('@'))
                .map(|(site, nth)| (site, nth.parse().unwrap_or(0)))
                .collect();
            let faults = &run.schedule.faults;
            let planned: Vec<_> = faults.iter().map(|f| (f.site.as_str(), f.nth)).collect();
            assert_eq!(parsed, planned);
            assert_eq!(line["violations"], run.violations.join("\n"));
            // the `--list` line is the report line minus the verdict
            line.retain(|k, _| k != "status" && k != "violations");
            let plan = record::encode(&run.schedule.fields());
            assert_eq!(record::decode(&plan), Some(line));
        }
    }
}
