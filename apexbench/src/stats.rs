//! Seeded op order, percentiles, and the process counters the end-to-end
//! metrics are read from (`/proc`, std only).

use std::time::{Duration, Instant};

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one `(seed, stream)` pair; distinct streams of one
    /// seed are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A byte-sized pixel word, the value range the suite's tests stream.
    pub fn word(&mut self) -> u16 {
        (self.next_u64() & 0xFF) as u16
    }

    pub fn bit(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// The op order of round `round`: every input index exactly once, in a
/// seeded shuffle. Whole rounds keep the op mix identical across seeds;
/// the seed only changes the order and the data.
pub fn round_order(seed: u64, round: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = Rng::new(seed, round);
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// Linear-interpolated percentile (`p` in 0..=100) of unsorted samples;
/// 0 for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Process CPU time (user + system, all threads) in ms, from
/// `/proc/self/stat`. Linux reports it in `USER_HZ` ticks, which is 100
/// on every mainstream kernel configuration.
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after the ')'
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    (utime + stime) * 10.0
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Ops checked and ops that failed or mismatched.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one op; `Err` carries why it failed, printed to stderr.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            eprintln!("op failed: {why}");
        }
    }

    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The timed ops of one phase: wall latency and process CPU per op.
#[derive(Debug, Default)]
pub struct Phase {
    pub latencies_ms: Vec<f64>,
    pub cpu_ms: f64,
}

impl Phase {
    /// Times `f` as one op. Only `f` is inside the timed region; output
    /// checks run after it returns.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let c0 = process_cpu_ms();
        let t0 = Instant::now();
        let r = f();
        self.latencies_ms.push(ms(t0.elapsed()));
        self.cpu_ms += process_cpu_ms() - c0;
        r
    }

    /// Records an op timed elsewhere (the daemon's client loop).
    pub fn push(&mut self, latency_ms: f64, cpu_ms: f64) {
        self.latencies_ms.push(latency_ms);
        self.cpu_ms += cpu_ms;
    }

    pub fn ops(&self) -> usize {
        self.latencies_ms.len()
    }

    /// Summed op time, in seconds.
    pub fn total_s(&self) -> f64 {
        self.latencies_ms.iter().sum::<f64>() / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_same_order_and_whole_rounds() {
        for round in 0..20 {
            let a = round_order(7, round, 36);
            assert_eq!(a, round_order(7, round, 36));
            let mut sorted = a.clone();
            sorted.sort_unstable();
            assert_eq!(
                sorted,
                (0..36).collect::<Vec<_>>(),
                "a round is a permutation"
            );
        }
        assert_ne!(round_order(7, 1, 36), round_order(8, 1, 36));
        assert_ne!(round_order(7, 1, 36), round_order(7, 2, 36));
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=10).map(f64::from).rev().collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(median(&v), 5.5);
        assert!((percentile(&v, 90.0) - 9.1).abs() < 1e-12);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
        // statistics.quantiles-style check on 101 samples: p90 is exact
        let w: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&w, 90.0), 90.0);
    }

    #[test]
    fn phase_counts_every_op() {
        let mut p = Phase::default();
        for _ in 0..5 {
            p.time(|| std::hint::black_box(1 + 1));
        }
        p.push(2.0, 1.0);
        assert_eq!(p.ops(), 6);
        assert_eq!(p.latencies_ms.len(), 6);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.record(Ok(()));
        t.record(Err("mismatch".into()));
        t.record(Ok(()));
        t.record(Ok(()));
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(t.fail_ratio(), 0.25);
    }

    #[test]
    fn proc_counters_are_readable() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_ms() >= 0.0);
    }
}
