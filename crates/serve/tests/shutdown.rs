//! Shutdown of an idle daemon: the acceptor blocks in `accept()`, so
//! drain must wake it, join it and drop the listener. These tests live
//! in their own binary because the interrupt flag they raise is
//! process-global; a lock keeps the two cases apart within it.

use apex_core::{JobReport, SweepJournal};
use apex_fault::{interrupt, ApexError};
use apex_serve::{client, JobRunner, JobSpec, RunSummary, ServeConfig, Server};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

/// Never called: no job is ever submitted.
struct NoJobs;

impl JobRunner for NoJobs {
    fn run(&self, _spec: &JobSpec) -> Result<JobReport, ApexError> {
        Err(ApexError::new(apex_fault::Stage::Cli, "no job expected"))
    }
}

/// Binds an idle daemon on an ephemeral port and runs it on a thread
/// that reports its summary over a channel, so a hung drain fails the
/// test instead of hanging it.
fn start() -> (SocketAddr, mpsc::Receiver<RunSummary>) {
    // a failed case must not leave the flag raised for the next one
    interrupt::reset();
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        ..ServeConfig::default()
    };
    let server = Server::bind(config, SweepJournal::disabled(), NoJobs).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(server.run());
    });
    // let the acceptor reach its blocking accept()
    std::thread::sleep(Duration::from_millis(100));
    (addr, rx)
}

/// `run()` returns within a second of `stop` and the port is closed.
fn assert_stops_within_a_second(addr: SocketAddr, rx: &mpsc::Receiver<RunSummary>) {
    let asked = Instant::now();
    let summary = rx
        .recv_timeout(Duration::from_secs(1))
        .expect("run() did not return within 1 s of the stop request");
    assert_eq!(summary.unfinished, 0);
    assert!(asked.elapsed() < Duration::from_secs(1));
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_secs(1)).is_err(),
        "the listener must be dropped once run() returns"
    );
}

#[test]
fn signal_stops_a_daemon_blocked_in_accept() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let (addr, rx) = start();
    interrupt::trigger();
    assert_stops_within_a_second(addr, &rx);
    interrupt::reset();
}

#[test]
fn drain_op_stops_a_daemon_blocked_in_accept() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let (addr, rx) = start();
    let resp = client::request(
        &addr.to_string(),
        "{\"op\":\"drain\"}",
        Duration::from_secs(5),
    )
    .expect("drain request");
    assert_eq!(resp.get("ok").map(String::as_str), Some("draining"));
    assert_stops_within_a_second(addr, &rx);
}
