//! Golden gate on the miner's output: every statistic `mine` reports for
//! the nine suite apps, plus one byte-capped run, rendered to text and
//! pinned by an FNV-1a digest. Any change to the embedding search, the
//! MIS, the canonical codes or budget truncation that alters a single
//! row, occurrence, code or flag changes the digest.
//!
//! The configuration is `MinerConfig::default()` with an unlimited
//! budget, which is the default when `APEX_MEM_BUDGET` is unset; it is
//! spelled out so an exported byte cap cannot move the digest.

use apex::apps::{analyzed_apps, by_name, unseen_apps, Application};
use apex::fault::{fnv1a, Budget};
use apex::mining::{mine, MinerConfig};
use std::fmt::Write as _;

fn config() -> MinerConfig {
    MinerConfig {
        budget: Budget::unlimited(),
        ..MinerConfig::default()
    }
}

/// One line per mined subgraph, in rank order, then the run's provenance.
fn render(app: &Application, cfg: &MinerConfig) -> String {
    let out = mine(&app.graph, cfg).expect("no failpoint is armed");
    let fanouts = app.graph.fanouts();
    let mut s = String::new();
    for m in &out.subgraphs {
        let _ = writeln!(
            s,
            "{} | {} | occ={:?} | rep={:?} | mni={} | mis={} | truncated={} | umis={}",
            m.pattern.canonical_code_ref(),
            m.pattern,
            m.occurrences,
            m.representative,
            m.mni_support,
            m.mis_size,
            m.truncated,
            m.utilizable_mis(&app.graph, &fanouts),
        );
    }
    let _ = writeln!(s, "provenance={:?}", out.provenance);
    s
}

#[test]
fn mining_output_of_the_nine_apps_is_pinned() {
    let mut digests = Vec::new();
    for app in analyzed_apps().into_iter().chain(unseen_apps()) {
        let text = render(&app, &config());
        assert!(text.contains("provenance=Completed"), "{}", app.info.name);
        digests.push(format!("{}={:016x}", app.info.name, fnv1a(&[&text])));
    }
    assert_eq!(
        digests,
        [
            "camera=2aab3a35c21b8250",
            "harris=8f0ae7aebb7118c6",
            "gaussian=565f72ff8602a2cc",
            "unsharp=0ca253d6ad7c875f",
            "resnet=3cf8eb5bcf5c2d8e",
            "mobilenet=f32b7ebc23e2ccda",
            "laplacian=98d58e46131c7815",
            "stereo=f0a2f60022fc0fb8",
            "fast=021a042ce82cf0b8",
        ]
    );
}

#[test]
fn byte_capped_mining_truncates_identically() {
    let app = by_name("camera").expect("camera is a suite app");
    let cfg = MinerConfig {
        budget: Budget::unlimited().with_max_bytes(96 * 1024),
        ..MinerConfig::default()
    };
    let text = render(&app, &cfg);
    assert!(text.contains("provenance=TruncatedByBudget"));
    assert!(text.contains("truncated=true"));
    assert_eq!(format!("{:016x}", fnv1a(&[&text])), "99ac07e2d7b044d4");
}
