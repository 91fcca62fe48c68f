//! A minimal blocking client for the serve protocol — enough for the
//! `apex submit` CLI, the CI smoke test, and the soak tests.

use crate::proto::{self, Fields};
use apex_fault::{fnv1a, ApexError, Stage};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

fn cli_err(msg: impl Into<String>) -> ApexError {
    ApexError::new(Stage::Cli, msg)
}

/// Connects with a timeout (resolving `addr` first).
///
/// # Errors
/// Resolution or connection failures.
fn connect(addr: &str, timeout: Duration) -> Result<TcpStream, ApexError> {
    let resolved = addr
        .to_socket_addrs()
        .map_err(|e| cli_err(format!("cannot resolve {addr}: {e}")))?
        .next()
        .ok_or_else(|| cli_err(format!("{addr} resolves to nothing")))?;
    let stream = TcpStream::connect_timeout(&resolved, timeout)
        .map_err(|e| cli_err(format!("cannot connect to {addr}: {e}")))?;
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .map_err(|e| cli_err(format!("cannot set socket timeouts: {e}")))?;
    Ok(stream)
}

/// Writes one request line. Under the `serve::slow_client` failpoint the
/// bytes trickle out one at a time with a pause — the canonical
/// malicious-client simulation the server's idle timeout must defeat.
fn send_line(stream: &mut TcpStream, line: &str) -> Result<(), ApexError> {
    let io = |e: std::io::Error| cli_err(format!("send failed: {e}"));
    #[cfg(feature = "fault-injection")]
    if apex_fault::failpoints::should_fire("serve::slow_client") {
        for b in line.as_bytes() {
            stream.write_all(std::slice::from_ref(b)).map_err(io)?;
            stream.flush().map_err(io)?;
            std::thread::sleep(Duration::from_millis(250));
        }
        stream.write_all(b"\n").map_err(io)?;
        return stream.flush().map_err(io);
    }
    // one write, as the server answers (see its `write_line`)
    stream.write_all(format!("{line}\n").as_bytes()).map_err(io)
}

/// Reads one newline-terminated response line (bounded by the protocol
/// line cap — the server is trusted more than a client, but not
/// infinitely) through one buffer instead of a `read` per byte. This
/// client sends one request per connection, so bytes the buffer holds
/// past the newline belong to no response and are safely dropped.
fn read_line(stream: &mut TcpStream) -> Result<String, ApexError> {
    let limit = proto::MAX_LINE_BYTES as u64 + 1;
    let mut buf = Vec::new();
    BufReader::new(stream)
        .take(limit)
        .read_until(b'\n', &mut buf)
        .map_err(|e| cli_err(format!("read failed: {e}")))?;
    if let Some(line) = buf.strip_suffix(b"\n") {
        Ok(String::from_utf8_lossy(line).into_owned())
    } else if buf.len() as u64 == limit {
        Err(cli_err("oversized response line"))
    } else {
        Err(cli_err(
            "server closed the connection (idle timeout or drain?)",
        ))
    }
}

/// One request/response round trip on a fresh connection.
///
/// # Errors
/// Connection, I/O, or response-decoding failures. A protocol-level
/// error (`{"err":...}`) is returned as `Ok` — the caller decides
/// whether `overloaded` is fatal or a retry.
pub fn request(addr: &str, line: &str, timeout: Duration) -> Result<Fields, ApexError> {
    let mut stream = connect(addr, timeout)?;
    send_line(&mut stream, line)?;
    let response = read_line(&mut stream)?;
    proto::decode(&response).ok_or_else(|| cli_err(format!("undecodable response: {response}")))
}

/// Admission retries before a shed submission is given up on. Attempt
/// `k` sleeps the server's `retry_after_ms` hint plus deterministic
/// seeded jitter, so a fleet of clients rejected together does not
/// re-stampede the server in lockstep.
pub const MAX_ADMISSION_ATTEMPTS: u32 = 8;

/// Deterministic backoff for admission attempt `attempt` (0-based):
/// the server's hint plus up to 50% seeded jitter. SplitMix64 over
/// (seed, attempt) — the same submission retries on the same schedule
/// every run, while distinct tenants/graphs spread out.
pub fn backoff_with_jitter(hint_ms: u64, seed: u64, attempt: u32) -> Duration {
    let mut z = seed
        .wrapping_add(u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let jitter = if hint_ms == 0 { 0 } else { z % (hint_ms / 2 + 1) };
    Duration::from_millis(hint_ms.saturating_add(jitter))
}

/// Submits a graph and polls until it concludes (honoring `overloaded`
/// backpressure by sleeping the server's `retry_after_ms` hint plus
/// deterministic seeded jitter, for at most
/// [`MAX_ADMISSION_ATTEMPTS`] attempts).
/// Returns the final `result` (or `job_failed`) response fields.
///
/// # Errors
/// Transport failures, a shed submission still shed after the capped
/// retries, or the overall timeout expiring first.
pub fn submit_and_wait(
    addr: &str,
    tenant: &str,
    graph: &str,
    deadline_ms: Option<u64>,
    overall: Duration,
) -> Result<Fields, ApexError> {
    let started = Instant::now();
    let io_timeout = Duration::from_secs(10);
    let submit_line = proto::submit_request(tenant, graph, deadline_ms);

    // admission, retrying through backpressure with capped attempts and
    // deterministic jitter seeded by the submission identity
    let seed = fnv1a(&[tenant, graph]);
    let mut attempt = 0u32;
    let job = loop {
        if started.elapsed() > overall {
            return Err(cli_err("timed out waiting for admission"));
        }
        let resp = request(addr, &submit_line, io_timeout)?;
        if resp.get("ok").map(String::as_str) == Some("accepted") {
            break resp
                .get("job")
                .cloned()
                .ok_or_else(|| cli_err("accepted response without a job id"))?;
        }
        match resp.get("err").map(String::as_str) {
            Some("overloaded") => {
                attempt += 1;
                if attempt >= MAX_ADMISSION_ATTEMPTS {
                    return Err(cli_err(format!(
                        "admission retries exhausted after {attempt} attempts \
                         (server still overloaded)"
                    )));
                }
                let hint = resp
                    .get("retry_after_ms")
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(500);
                std::thread::sleep(backoff_with_jitter(hint, seed, attempt - 1));
            }
            _ => {
                return Err(cli_err(format!(
                    "submission rejected: {}",
                    proto::encode(&resp)
                )))
            }
        }
    };

    // poll to conclusion
    let status_line = proto::encode(&proto::fields(&[("op", "status"), ("job", &job)]));
    let result_line = proto::encode(&proto::fields(&[("op", "result"), ("job", &job)]));
    loop {
        if started.elapsed() > overall {
            return Err(cli_err(format!("timed out waiting for job {job}")));
        }
        let status = request(addr, &status_line, io_timeout)?;
        match status.get("state").map(String::as_str) {
            Some("done") | Some("failed") => return request(addr, &result_line, io_timeout),
            _ => std::thread::sleep(Duration::from_millis(200)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serves one connection with `chunks`, pausing between them, and
    /// returns what the client's `read_line` made of it.
    fn read_from(chunks: Vec<Vec<u8>>) -> Result<String, ApexError> {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            for chunk in chunks {
                // the client may hang up early on an oversized line
                if conn.write_all(&chunk).and_then(|()| conn.flush()).is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(30));
            }
        });
        let mut stream = connect(&addr, Duration::from_secs(5))?;
        let line = read_line(&mut stream);
        drop(stream);
        server.join().expect("server thread");
        line
    }

    #[test]
    fn a_response_written_in_pauses_decodes() {
        let parts = ["{\"ok\":\"po", "ng\",\"queued\":", "\"0\"}\n"];
        let line = read_from(parts.iter().map(|p| p.as_bytes().to_vec()).collect());
        assert_eq!(line.expect("line"), "{\"ok\":\"pong\",\"queued\":\"0\"}");
    }

    #[test]
    fn an_oversized_response_is_refused() {
        let big = vec![b'x'; proto::MAX_LINE_BYTES + 1];
        let err = read_from(vec![big, b"\n".to_vec()]).expect_err("over the cap");
        assert!(err.to_string().contains("oversized response line"), "{err}");
        // exactly at the cap is still a line
        let at_cap = vec![b'x'; proto::MAX_LINE_BYTES];
        let line = read_from(vec![at_cap, b"\n".to_vec()]).expect("at the cap");
        assert_eq!(line.len(), proto::MAX_LINE_BYTES);
    }

    #[test]
    fn eof_before_the_newline_is_a_closed_connection() {
        let err = read_from(vec![b"{\"ok\":".to_vec()]).expect_err("no newline");
        assert!(
            err.to_string().contains("server closed the connection"),
            "{err}"
        );
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        for attempt in 0..MAX_ADMISSION_ATTEMPTS {
            for hint in [0u64, 1, 123, 500, 10_000] {
                let seed = fnv1a(&["tenant-a", "gaussian"]);
                let a = backoff_with_jitter(hint, seed, attempt);
                let b = backoff_with_jitter(hint, seed, attempt);
                assert_eq!(a, b, "same inputs must give the same backoff");
                assert!(a >= Duration::from_millis(hint), "never below the hint");
                assert!(
                    a <= Duration::from_millis(hint + hint / 2 + 1),
                    "jitter capped at ~50% of the hint"
                );
            }
        }
    }

    #[test]
    fn distinct_submissions_jitter_apart() {
        // not a hard guarantee, but the whole point of seeding by identity:
        // across several attempts, two distinct submissions must not share
        // the entire backoff schedule
        let s1 = fnv1a(&["tenant-a", "gaussian"]);
        let s2 = fnv1a(&["tenant-b", "harris"]);
        assert_ne!(s1, s2);
        let all_equal = (0..6).all(|k| {
            backoff_with_jitter(500, s1, k) == backoff_with_jitter(500, s2, k)
        });
        assert!(!all_equal, "schedules must diverge somewhere");
    }

    #[test]
    fn zero_hint_backoff_is_zero() {
        // a zero hint means "retry immediately"; jitter must not invent a
        // wait the server never asked for
        let seed = fnv1a(&["t", "g"]);
        assert_eq!(backoff_with_jitter(0, seed, 0), Duration::ZERO);
    }
}
