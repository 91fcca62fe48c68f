//! `serve_mix`: an in-process `apex_serve::Server<DseRunner>` with one
//! worker on an ephemeral loopback port, driven by one closed-loop
//! client. Three tenant-cache hits per miss: a hit resubmits an
//! application under a tenant whose variants were cached in set-up; a
//! miss uses a new tenant, so the job builds cold and writes the cache.
//! The only workload through admission, the journal, dispatch and the
//! cache.
//!
//! The client sends each request on its own connection through
//! `apex_serve::client::request`, as `apex submit` does. The daemon
//! accepts connections, and dispatches jobs, only when its accept loop
//! wakes from a sleep of up to 20 ms, so a client that submits right
//! after its previous result locks onto that loop and every latency lands
//! on a multiple of 20 ms. A seeded think time of up to one such period
//! before each submit spreads the submits over the loop's phase.
//!
//! Every job appends a numbered `#` comment to the DFG text. That makes
//! its job key new, so the job runs, while the parsed graph, and with it
//! the variant-cache key, stays the same. A new `deadline_ms` would not
//! do: the deadline reaches the miner's budget, which is part of the
//! cache key, so every such resubmission would build cold.

use crate::stats::{ms, process_cpu_ms, round_order, Phase, Rng, Tally};
use crate::trace::Tracer;
use crate::{specialize::suite_texts, Ctx, Outcome, SETUP_REPS, WARMUP_ROUND};
use apex_core::{JobReport, VariantCache};
use apex_fault::{ApexError, Provenance};
use apex_serve::client::request;
use apex_serve::proto::{encode, Fields};
use apex_serve::{default_journal, job_key, DseRunner, JobRunner, JobSpec, ServeConfig, Server};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Status poll interval: the resolution of every latency measured here.
pub const POLL: Duration = Duration::from_millis(2);
const HITS_PER_MISS: usize = 3;
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// A job that has not finished by then counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(120);
/// Longest think time before a submit: the accept loop's sleep.
const THINK_MAX_US: usize = 20_000;
/// One deadline for every job, far beyond any job's run time.
const DEADLINE_MS: u64 = 600_000;

/// When each job ran on the worker, keyed by job key. Recorded only while
/// `on` is set, so the untraced phase runs the plain `DseRunner` path.
#[derive(Default)]
struct RunLog {
    on: AtomicBool,
    runs: Mutex<BTreeMap<u64, (Instant, Instant)>>,
}

/// A timing `JobRunner` around the daemon's real `DseRunner`.
struct TimingRunner {
    inner: DseRunner,
    log: Arc<RunLog>,
}

impl JobRunner for TimingRunner {
    fn run(&self, spec: &JobSpec) -> Result<JobReport, ApexError> {
        if !self.log.on.load(Ordering::SeqCst) {
            return self.inner.run(spec);
        }
        let start = Instant::now();
        let out = self.inner.run(spec);
        let end = Instant::now();
        let deadline_ms = u64::try_from(spec.deadline.as_millis()).unwrap_or(u64::MAX);
        let key = job_key(&spec.tenant, &spec.graph, Some(deadline_ms));
        self.log
            .runs
            .lock()
            .expect("run log lock: no holder panics")
            .insert(key, (start, end));
        out
    }
}

struct Daemon {
    addr: String,
    thread: JoinHandle<apex_serve::RunSummary>,
}

fn start(log: &Arc<RunLog>) -> Result<Daemon, String> {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        ..ServeConfig::default()
    };
    let runner = TimingRunner {
        inner: DseRunner,
        log: Arc::clone(log),
    };
    let server = Server::bind(config, default_journal(), runner).map_err(|e| e.render_chain())?;
    let addr = server
        .local_addr()
        .map_err(|e| e.render_chain())?
        .to_string();
    let thread = std::thread::spawn(move || server.run());
    Ok(Daemon { addr, thread })
}

fn op_line(op: &str, extra: &[(&str, &str)]) -> String {
    let mut f = Fields::new();
    f.insert("op".to_owned(), op.to_owned());
    for (k, v) in extra {
        f.insert((*k).to_owned(), (*v).to_owned());
    }
    encode(&f)
}

fn call(addr: &str, line: &str) -> Result<Fields, String> {
    request(addr, line, IO_TIMEOUT).map_err(|e| e.render_chain())
}

/// Drains the daemon and waits for its accept loop and worker to end.
fn stop(d: Daemon) -> Result<(), String> {
    let resp = call(&d.addr, &op_line("drain", &[]))?;
    if resp.get("ok").map(String::as_str) != Some("draining") {
        return Err(format!("drain refused: {}", encode(&resp)));
    }
    let summary = d
        .thread
        .join()
        .map_err(|_| "daemon thread panicked".to_owned())?;
    if summary.unfinished > 0 {
        return Err(format!("{} jobs unfinished at drain", summary.unfinished));
    }
    Ok(())
}

/// The client's view of one job, from sending the submit to reading the
/// done status.
struct Job {
    id: String,
    key: u64,
    sent: Instant,
    accepted: Instant,
    done: Instant,
    polls: u32,
}

/// Submits, then polls status every [`POLL`] until the job is done.
fn submit_and_poll(addr: &str, tenant: &str, graph: &str) -> Result<Job, String> {
    let deadline = DEADLINE_MS.to_string();
    let submit = op_line(
        "submit",
        &[
            ("tenant", tenant),
            ("graph", graph),
            ("deadline_ms", &deadline),
        ],
    );
    let sent = Instant::now();
    let resp = call(addr, &submit)?;
    let accepted = Instant::now();
    if resp.get("ok").map(String::as_str) != Some("accepted") {
        return Err(format!("submission refused: {}", encode(&resp)));
    }
    let id = resp
        .get("job")
        .cloned()
        .ok_or("accepted without a job id")?;
    let status = op_line("status", &[("job", &id)]);
    let mut polls = 0;
    loop {
        std::thread::sleep(POLL);
        polls += 1;
        let st = call(addr, &status)?;
        match st.get("state").map(String::as_str) {
            Some("done") => break,
            Some("queued" | "running") if sent.elapsed() < JOB_TIMEOUT => {}
            _ => return Err(format!("job {id}: {}", encode(&st))),
        }
    }
    Ok(Job {
        id,
        key: job_key(tenant, graph, Some(DEADLINE_MS)),
        sent,
        accepted,
        done: Instant::now(),
        polls,
    })
}

/// Output check: the job's result is a completed report whose payload
/// equals the first payload seen for this app, which a cold build made.
fn check(
    addr: &str,
    job: &Job,
    app: &str,
    reference: &mut BTreeMap<String, String>,
) -> Result<(), String> {
    let result = call(addr, &op_line("result", &[("job", &job.id)]))?;
    let payload = match (result.get("ok").map(String::as_str), result.get("payload")) {
        (Some("result"), Some(p)) => p,
        _ => return Err(format!("job {}: {}", job.id, encode(&result))),
    };
    if result.get("provenance").map(String::as_str) != Some(Provenance::Completed.marker()) {
        return Err(format!(
            "job {}: not completed: {}",
            job.id,
            encode(&result)
        ));
    }
    let first = reference
        .entry(app.to_owned())
        .or_insert_with(|| payload.clone());
    if first != payload {
        return Err(format!("{app}: payload differs from the cold build"));
    }
    Ok(())
}

/// The client loop's state across set-up and the timed phases.
struct Client {
    addr: String,
    think: Rng,
    apps: Vec<(String, String)>,
    hit_tenant: String,
    seed: u64,
    jobs: u64,
    reference: BTreeMap<String, String>,
    tally: Tally,
}

impl Client {
    /// One op: `slot` picks the app and whether it is a hit or a miss.
    /// Returns the job's timing for the traced phase.
    fn op(&mut self, slot: usize, phase: &mut Phase) -> Option<Job> {
        let (app, hit) = (
            slot / (HITS_PER_MISS + 1),
            !slot.is_multiple_of(HITS_PER_MISS + 1),
        );
        self.jobs += 1;
        let tenant = if hit {
            self.hit_tenant.clone()
        } else {
            format!("miss-{}-{}", self.seed, self.jobs)
        };
        let (name, graph) = &self.apps[app];
        let graph = format!("{graph}# job {}\n", self.jobs);
        let c0 = process_cpu_ms();
        std::thread::sleep(Duration::from_micros(self.think.below(THINK_MAX_US) as u64));
        let job = submit_and_poll(&self.addr, &tenant, &graph);
        if let Ok(j) = &job {
            phase.push(ms(j.done - j.sent), process_cpu_ms() - c0);
        }
        let outcome = match &job {
            Ok(j) => check(&self.addr, j, name, &mut self.reference),
            Err(e) => Err(e.clone()),
        };
        self.tally.record(outcome);
        job.ok()
    }

    /// One whole round: every app once as a miss and three times as a hit.
    fn round(&mut self, round: u64, phase: &mut Phase, mut traced: impl FnMut(Job)) {
        for slot in round_order(self.seed, round, self.apps.len() * (HITS_PER_MISS + 1)) {
            if let Some(job) = self.op(slot, phase) {
                traced(job);
            }
        }
    }

    /// Builds and caches every app's variants under the hit tenant.
    fn prefill(&mut self, phase: &mut Phase) {
        for app in 0..self.apps.len() {
            self.op(app * (HITS_PER_MISS + 1) + 1, phase);
        }
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let log = Arc::new(RunLog::default());
    let mut c = Client {
        addr: String::new(),
        think: Rng::new(ctx.seed, u64::MAX),
        apps: Vec::new(),
        hit_tenant: String::new(),
        seed: ctx.seed,
        jobs: 0,
        reference: BTreeMap::new(),
        tally: Tally::default(),
    };
    let mut setup_s = Vec::new();
    let mut daemon: Option<Daemon> = None;
    for rep in 0..SETUP_REPS {
        if let Some(d) = daemon.take() {
            stop(d)?;
        }
        // a fresh daemon and a fresh hit tenant, so each set-up builds cold
        let t0 = Instant::now();
        let d = start(&log)?;
        c.addr = d.addr.clone();
        c.apps = suite_texts();
        c.hit_tenant = format!("hit-{rep}");
        let started = t0.elapsed();
        // prefill plus one warm-up round count as set-up; checks do not
        let mut warm = Phase::default();
        c.prefill(&mut warm);
        c.round(WARMUP_ROUND, &mut warm, |_| {});
        setup_s.push(started.as_secs_f64() + warm.total_s());
        daemon = Some(d);
    }
    let d = daemon.ok_or("no set-up ran")?;

    let mut timed = Phase::default();
    let mut round = WARMUP_ROUND + 1;
    let (plain, traced) = ctx.phase_budgets();
    let t0 = Instant::now();
    while t0.elapsed() < plain {
        c.round(round, &mut timed, |_| {});
        round += 1;
    }

    let mut tracer = Tracer::new(ctx.trace);
    let mut gauges = Vec::new();
    if ctx.trace {
        log.on.store(true, Ordering::SeqCst);
        let cache = VariantCache::shared();
        let (h0, m0) = (cache.hits(), cache.misses());
        let mut jobs = Vec::new();
        let mut untimed = Phase::default();
        let t0 = Instant::now();
        while t0.elapsed() < traced {
            c.round(round, &mut untimed, |j| jobs.push(j));
            round += 1;
        }
        let runs = log.runs.lock().expect("run log lock: no holder panics");
        for j in &jobs {
            let Some(&(run_start, run_end)) = runs.get(&j.key) else {
                c.tally
                    .record(Err(format!("job {} never reached the runner", j.id)));
                continue;
            };
            tracer.op_at(j.sent, j.done, |tr| {
                tr.record("serve.submit", j.sent, j.accepted);
                tr.record("serve.queue_wait", j.accepted, run_start);
                tr.record("serve.run", run_start, run_end);
                tr.record("serve.notify", run_end, j.done);
                tr.count("serve.polls", f64::from(j.polls));
            });
        }
        let (hits, misses) = ((cache.hits() - h0) as f64, (cache.misses() - m0) as f64);
        gauges.push(("cache.hit_ratio", hits / (hits + misses).max(1.0)));
        gauges.push(("cache.bytes", cache.total_bytes() as f64));
    }
    stop(d)?;
    Ok(Outcome {
        setup_s,
        timed,
        tracer,
        tally: c.tally,
        gauges,
        notes: vec![format!(
            "closed loop, 1 client, 1 worker; latency resolution {} ms (status poll interval)",
            POLL.as_millis()
        )],
    })
}
