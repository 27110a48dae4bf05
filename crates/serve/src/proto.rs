//! The newline-delimited JSON request/response protocol.
//!
//! One request per line, one response line per request, in order. A
//! connection (or the stdin batch) is a stream of requests:
//!
//! ```text
//! {"id": "r1", "module": "<IR text>", "options": "default", "client": "a"}
//! {"id": "r2", "cmd": "stats"}
//! {"id": "r3", "cmd": "shutdown"}
//! ```
//!
//! * A **roll** request carries a full textual-IR module. The service
//!   parses, verifies, rolls it through the shared worker pool and
//!   cross-request store, and answers with the transformed module plus
//!   per-request and cumulative metrics. A request whose preset and module
//!   text were answered before, and whose reply is still cached, gets the
//!   cached module and `stats` without any of that work. `options` names a
//!   preset ([`RolagOptions::preset`], the vocabulary of the registry's
//!   `rolag<preset>` pass); absent means
//!   [`RolagOptions::DEFAULT_PRESET`]. `client` is an opaque
//!   label echoed in logs — content addressing makes the cache shared
//!   across clients by construction, so it carries no semantics.
//! * `{"cmd": "stats"}` answers with cumulative metrics only.
//! * `{"cmd": "shutdown"}` acknowledges and closes the server loop
//!   (socket mode exits the process; batch mode stops reading).
//!
//! Responses are single-line JSON objects echoing `id`, with `"ok"`
//! telling the two shapes apart: `{"id", "ok": true, "module", "stats":
//! {...}, "request": {...}, "cumulative": {...}}` on success and
//! `{"id", "ok": false, "error": "..."}` on failure.
//!
//! * `request` holds this request's counters. `request_hit` is `true` when
//!   the reply came from the request-level cache; such a request never
//!   reached the store, so its `store_hits` and `store_misses` are `0`.
//! * `cumulative` holds the server's totals. `request_hits` counts the
//!   requests the request-level cache answered; `store_hits`,
//!   `store_misses` and `hit_rate` count only the lookups of requests that
//!   reached the driver.
//!
//! Malformed request lines get an error response with `"id": null`; so do
//! lines longer than [`MAX_LINE_BYTES`] and lines that are not UTF-8, and
//! serving goes on with the next line.

use std::io::{self, BufRead, Read};

use rolag::RolagOptions;

use crate::json::{escaped, parse, Json};

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Roll a textual-IR module.
    Roll {
        /// Echo token for the response.
        id: String,
        /// Textual IR of the module to roll.
        module: String,
        /// Options preset name (see [`RolagOptions::preset`]).
        options: String,
        /// Opaque client label.
        client: Option<String>,
    },
    /// Report cumulative service metrics.
    Stats {
        /// Echo token for the response.
        id: String,
    },
    /// Acknowledge and stop serving.
    Shutdown {
        /// Echo token for the response.
        id: String,
    },
}

impl Request {
    /// The request's echo token.
    pub fn id(&self) -> &str {
        match self {
            Request::Roll { id, .. } | Request::Stats { id } | Request::Shutdown { id } => id,
        }
    }

    /// Renders the request as one NDJSON line (no trailing newline).
    pub fn render(&self) -> String {
        match self {
            Request::Roll {
                id,
                module,
                options,
                client,
            } => {
                let mut out = format!(
                    "{{\"id\": {}, \"module\": {}, \"options\": {}",
                    escaped(id),
                    escaped(module),
                    escaped(options)
                );
                if let Some(client) = client {
                    out.push_str(&format!(", \"client\": {}", escaped(client)));
                }
                out.push('}');
                out
            }
            Request::Stats { id } => format!("{{\"id\": {}, \"cmd\": \"stats\"}}", escaped(id)),
            Request::Shutdown { id } => {
                format!("{{\"id\": {}, \"cmd\": \"shutdown\"}}", escaped(id))
            }
        }
    }
}

/// The longest request line [`read_line`] hands out, in bytes, not
/// counting its `\n`. A longer line is skipped without being buffered, so
/// no client can make a connection hold more than this in memory.
pub const MAX_LINE_BYTES: usize = 64 << 20;

/// Reads the next line of a request stream into `buf`. Returns `None` at
/// the end of the stream, the line's text without its `\n` or `\r\n`,
/// or, for a line longer than [`MAX_LINE_BYTES`] or not in UTF-8, the
/// error to answer it with. Only I/O errors end the stream.
pub fn read_line<'b>(
    input: &mut impl BufRead,
    buf: &'b mut Vec<u8>,
) -> io::Result<Option<Result<&'b str, String>>> {
    buf.clear();
    let limit = MAX_LINE_BYTES as u64 + 1;
    if input.by_ref().take(limit).read_until(b'\n', buf)? == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > MAX_LINE_BYTES {
        skip_line(input)?;
        return Ok(Some(Err(format!(
            "request line longer than {MAX_LINE_BYTES} bytes"
        ))));
    }
    Ok(Some(std::str::from_utf8(buf).map_err(|_| {
        "request line is not valid UTF-8".to_string()
    })))
}

/// Consumes the rest of the current line, up to and including its `\n`.
fn skip_line(input: &mut impl BufRead) -> io::Result<()> {
    loop {
        let chunk = input.fill_buf()?;
        if chunk.is_empty() {
            return Ok(());
        }
        if let Some(end) = chunk.iter().position(|&b| b == b'\n') {
            input.consume(end + 1);
            return Ok(());
        }
        let n = chunk.len();
        input.consume(n);
    }
}

/// Renders an error response line; `id` is `None` for a line that is not
/// a request.
pub fn error_reply(id: Option<&str>, error: &str) -> String {
    let id = id.map_or_else(|| "null".to_string(), escaped);
    format!(
        "{{\"id\": {id}, \"ok\": false, \"error\": {}}}",
        escaped(error)
    )
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut members = match parse(line)? {
        Json::Obj(members) => members,
        _ => Default::default(),
    };
    // String members are moved out, so the module text is not copied.
    let mut take = |key: &str| match members.remove(key) {
        Some(Json::Str(s)) => Some(s),
        _ => None,
    };
    let id = take("id").ok_or("request is missing a string \"id\"")?;
    if let Some(cmd) = take("cmd") {
        return match cmd.as_str() {
            "stats" => Ok(Request::Stats { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            other => Err(format!("unknown cmd {other:?}")),
        };
    }
    let module = take("module").ok_or("request has neither \"cmd\" nor a string \"module\"")?;
    let options = take("options").unwrap_or_else(|| RolagOptions::DEFAULT_PRESET.to_string());
    let client = take("client");
    Ok(Request::Roll {
        id,
        module,
        options,
        client,
    })
}

/// A parsed response line — the client-side view of what the server sent.
#[derive(Debug, Clone, Default)]
pub struct Reply {
    /// Echoed request id (empty for malformed-line errors).
    pub id: String,
    /// Whether the request succeeded.
    pub ok: bool,
    /// Error message, for `ok == false`.
    pub error: Option<String>,
    /// The rolled module text, for successful roll requests.
    pub module: Option<String>,
    /// Loops committed in this request.
    pub rolled: u64,
    /// Function definitions in this request.
    pub functions: u64,
    /// Whether the request-level layer answered the request, so it never
    /// reached the driver or the store.
    pub request_hit: bool,
    /// Definitions replayed from the cross-request store (`0` on a
    /// request hit).
    pub store_hits: u64,
    /// Definitions rolled because the store missed (`0` on a request hit).
    pub store_misses: u64,
    /// This request's wall-clock in the server, nanoseconds.
    pub wall_ns: u64,
    /// Cumulative store hit rate after this request, `0.0..=1.0`.
    pub cumulative_hit_rate: f64,
}

fn num(doc: &Json, key: &str) -> u64 {
    doc.get(key).and_then(Json::as_num).unwrap_or(0.0) as u64
}

/// Parses one response line.
pub fn parse_reply(line: &str) -> Result<Reply, String> {
    let doc = parse(line)?;
    let ok = doc
        .get("ok")
        .and_then(Json::as_bool)
        .ok_or("response is missing \"ok\"")?;
    let id = doc
        .get("id")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    let request = doc.get("request");
    let cumulative = doc.get("cumulative");
    Ok(Reply {
        id,
        ok,
        error: doc.get("error").and_then(Json::as_str).map(str::to_string),
        module: doc.get("module").and_then(Json::as_str).map(str::to_string),
        rolled: doc
            .get("stats")
            .map(|s| num(s, "rolled"))
            .unwrap_or_default(),
        functions: request.map(|r| num(r, "functions")).unwrap_or_default(),
        request_hit: request
            .and_then(|r| r.get("request_hit"))
            .and_then(Json::as_bool)
            .unwrap_or_default(),
        store_hits: request.map(|r| num(r, "store_hits")).unwrap_or_default(),
        store_misses: request.map(|r| num(r, "store_misses")).unwrap_or_default(),
        wall_ns: request.map(|r| num(r, "wall_ns")).unwrap_or_default(),
        cumulative_hit_rate: cumulative
            .and_then(|c| c.get("hit_rate"))
            .and_then(Json::as_num)
            .unwrap_or(0.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Roll {
                id: "r1".into(),
                module: "module \"m\"\n".into(),
                options: "measured".into(),
                client: Some("ci".into()),
            },
            Request::Roll {
                id: "r2".into(),
                module: "module \"m\"\n".into(),
                options: "default".into(),
                client: None,
            },
            Request::Stats { id: "r3".into() },
            Request::Shutdown { id: "r4".into() },
        ];
        for req in reqs {
            let line = req.render();
            assert!(!line.contains('\n'), "one request per line");
            assert_eq!(parse_request(&line).unwrap(), req);
        }
    }

    #[test]
    fn read_line_strips_newlines_and_flags_non_utf8_lines() {
        let mut input = io::Cursor::new(b"a\r\nb\n\xff\n\nc".to_vec());
        let mut buf = Vec::new();
        let mut lines = Vec::new();
        while let Some(line) = read_line(&mut input, &mut buf).unwrap() {
            lines.push(line.map(str::to_string));
        }
        let not_utf8 = Err("request line is not valid UTF-8".to_string());
        assert_eq!(
            lines,
            [
                Ok("a".into()),
                Ok("b".into()),
                not_utf8,
                Ok(String::new()),
                Ok("c".into())
            ]
        );
    }

    #[test]
    fn bad_requests_are_rejected_with_reasons() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{\"module\": \"m\"}").is_err(), "missing id");
        assert!(parse_request("{\"id\": \"x\"}").is_err(), "missing body");
        assert!(parse_request("{\"id\": \"x\", \"cmd\": \"reboot\"}").is_err());
    }
}
