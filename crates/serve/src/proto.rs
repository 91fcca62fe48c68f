//! The `apex serve` wire protocol: one flat JSON object per line, every
//! value a string.
//!
//! The line codec itself is [`apex_fault::record`], shared with the
//! sweep journal, the variant-cache envelope and the chaos report, and
//! re-exported here as [`encode`], [`decode`], [`fields`] and
//! [`Fields`]. Anything that codec cannot produce (nested objects,
//! numbers, unknown escapes) is rejected as `bad_request` instead of
//! being guessed at: the peer is untrusted. This module adds the request
//! parser and the response builders on top.
//!
//! See `DESIGN.md` §7 for the full request/response catalogue.

pub use apex_fault::record::{decode, encode, fields, Fields};

/// Hard cap a conforming client must stay under for one request line
/// (servers may configure a lower bound; DFG text dominates the budget).
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness + load probe.
    Ping,
    /// Submit a DFG-text sweep job.
    Submit {
        /// Cache namespace the job runs under (sanitized server-side).
        tenant: String,
        /// DFG text (the `apex save` format).
        graph: String,
        /// Per-job deadline in milliseconds; `None` = server default.
        deadline_ms: Option<u64>,
    },
    /// Poll one job's state.
    Status {
        /// Job key returned by `submit`.
        job: u64,
    },
    /// Fetch one finished job's payload.
    Result {
        /// Job key returned by `submit`.
        job: u64,
    },
    /// Daemon counters (admissions, sheds, evictions, ...).
    Stats,
    /// Ask the daemon to drain and exit (same path as SIGTERM).
    Drain,
}

/// Why a request line failed to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// Not a flat JSON object in the wire dialect.
    Malformed,
    /// No `op` field, or an unknown one.
    UnknownOp,
    /// A required field for the op is missing or unparseable.
    BadField(&'static str),
}

impl ParseError {
    /// The `detail` string reported back to the client.
    pub fn detail(self) -> String {
        match self {
            ParseError::Malformed => "not a flat json object".to_owned(),
            ParseError::UnknownOp => {
                "unknown op (expected ping|submit|status|result|stats|drain)".to_owned()
            }
            ParseError::BadField(f) => format!("missing or invalid field '{f}'"),
        }
    }
}

/// Parses one request line.
///
/// # Errors
/// [`ParseError`] describing what the client got wrong; the server
/// reports it as a `bad_request` response and keeps the connection.
pub fn parse_request(line: &str) -> Result<Request, ParseError> {
    let fields = decode(line).ok_or(ParseError::Malformed)?;
    let op = fields.get("op").ok_or(ParseError::UnknownOp)?;
    match op.as_str() {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "drain" => Ok(Request::Drain),
        "submit" => {
            let graph = fields
                .get("graph")
                .filter(|g| !g.trim().is_empty())
                .ok_or(ParseError::BadField("graph"))?
                .clone();
            let tenant = fields.get("tenant").cloned().unwrap_or_default();
            let deadline_ms = match fields.get("deadline_ms") {
                None => None,
                Some(v) => Some(
                    v.parse::<u64>()
                        .ok()
                        .filter(|ms| *ms > 0)
                        .ok_or(ParseError::BadField("deadline_ms"))?,
                ),
            };
            Ok(Request::Submit {
                tenant,
                graph,
                deadline_ms,
            })
        }
        "status" | "result" => {
            let job = fields
                .get("job")
                .and_then(|j| u64::from_str_radix(j, 16).ok())
                .ok_or(ParseError::BadField("job"))?;
            Ok(if op == "status" {
                Request::Status { job }
            } else {
                Request::Result { job }
            })
        }
        _ => Err(ParseError::UnknownOp),
    }
}

/// Encodes a `submit` request line (`tenant` omitted when empty,
/// `deadline_ms` when `None`) — what `apex submit` sends and what the
/// daemon journals for an admission.
pub fn submit_request(tenant: &str, graph: &str, deadline_ms: Option<u64>) -> String {
    let mut f = fields(&[("op", "submit"), ("graph", graph)]);
    if !tenant.is_empty() {
        f.insert("tenant".to_owned(), tenant.to_owned());
    }
    if let Some(ms) = deadline_ms {
        f.insert("deadline_ms".to_owned(), ms.to_string());
    }
    encode(&f)
}

/// Builds an `{"ok":<kind>, ...}` response line.
pub fn ok_response(kind: &str, extra: &[(&str, String)]) -> String {
    response("ok", kind, extra)
}

/// Builds an `{"err":<code>, ...}` response line. Error codes are the
/// protocol's stable surface: `bad_request`, `overloaded`, `draining`,
/// `unknown_job`, `not_done`, `line_too_long`, `idle_timeout`.
pub fn err_response(code: &str, extra: &[(&str, String)]) -> String {
    response("err", code, extra)
}

fn response(verdict: &str, value: &str, extra: &[(&str, String)]) -> String {
    let mut f = fields(&[(verdict, value)]);
    f.extend(extra.iter().map(|(k, v)| ((*k).to_owned(), v.clone())));
    encode(&f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_request_covers_the_op_catalogue() {
        assert_eq!(parse_request("{\"op\":\"ping\"}"), Ok(Request::Ping));
        assert_eq!(parse_request("{\"op\":\"stats\"}"), Ok(Request::Stats));
        assert_eq!(parse_request("{\"op\":\"drain\"}"), Ok(Request::Drain));
        assert_eq!(
            parse_request("{\"op\":\"submit\",\"tenant\":\"acme\",\"graph\":\"g x\"}"),
            Ok(Request::Submit {
                tenant: "acme".to_owned(),
                graph: "g x".to_owned(),
                deadline_ms: None
            })
        );
        assert_eq!(
            parse_request("{\"op\":\"status\",\"job\":\"00ff\"}"),
            Ok(Request::Status { job: 0xff })
        );
        assert_eq!(
            parse_request("{\"op\":\"result\",\"job\":\"a\"}"),
            Ok(Request::Result { job: 0xa })
        );
    }

    #[test]
    fn parse_request_rejects_bad_fields() {
        assert_eq!(parse_request("nope"), Err(ParseError::Malformed));
        assert_eq!(parse_request("{\"x\":\"y\"}"), Err(ParseError::UnknownOp));
        assert_eq!(parse_request("{\"op\":\"fly\"}"), Err(ParseError::UnknownOp));
        assert_eq!(
            parse_request("{\"op\":\"submit\"}"),
            Err(ParseError::BadField("graph"))
        );
        assert_eq!(
            parse_request("{\"op\":\"submit\",\"graph\":\"g\",\"deadline_ms\":\"soon\"}"),
            Err(ParseError::BadField("deadline_ms"))
        );
        assert_eq!(
            parse_request("{\"op\":\"submit\",\"graph\":\"g\",\"deadline_ms\":\"0\"}"),
            Err(ParseError::BadField("deadline_ms"))
        );
        assert_eq!(
            parse_request("{\"op\":\"status\",\"job\":\"zz\"}"),
            Err(ParseError::BadField("job"))
        );
    }

    #[test]
    fn responses_are_stable_bytes() {
        assert_eq!(
            ok_response("accepted", &[("job", "00ff".to_owned())]),
            "{\"job\":\"00ff\",\"ok\":\"accepted\"}"
        );
        assert_eq!(
            err_response("overloaded", &[("retry_after_ms", "500".to_owned())]),
            "{\"err\":\"overloaded\",\"retry_after_ms\":\"500\"}"
        );
    }
}
