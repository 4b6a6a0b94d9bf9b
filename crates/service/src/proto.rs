//! The typed request/response protocol every transport of
//! `backdroid-serve` speaks: one [`Op`] enum for everything a client
//! can ask, exactly one decode path ([`parse_request`]), and one
//! `render_*` function per reply kind ([`render_analysis`],
//! [`render_batch`], [`render_put_version`], [`render_stats`],
//! [`render_metrics`], [`render_error`], [`render_deadline_error`]).
//! The JSONL stdin/stdout loop, the length-framed socket transport, and
//! the shard pool all carry the same rendered lines — a framed payload
//! *is* a JSONL line — so adding an op here makes it available on every
//! transport at once.
//!
//! The vendored `serde` stand-in has neither a serializer nor a
//! deserializer, so this module carries a small hand-rolled JSON reader
//! and writer. Requests are one JSON object per line:
//!
//! ```json
//! {"id":0,"op":"analyze","app":"3"}
//! {"id":1,"op":"query","app":"3","sinks":["crypto"]}
//! {"id":2,"op":"batch","apps":["0","1","0"]}
//! {"id":3,"op":"put_version","app":"3","seed":7}
//! {"id":4,"op":"analyze_delta","app":"3"}
//! ```
//!
//! Responses mirror the request `id` and contain **only deterministic
//! fields** — sink reports, verdicts, counts — never wall-clock times,
//! engine-wide cache counters, or the warm/cold fetch outcome, all of
//! which depend on scheduling when the server runs multiple workers.
//! That is what lets CI diff server output byte-for-byte across worker
//! counts, search backends, store budgets — and, for `analyze_delta`,
//! across an incrementally updated server and a from-scratch one.

use crate::service::{AppAnalysis, ServiceError};
use backdroid_appgen::workload::{WorkloadOp, WorkloadRequest};
use backdroid_core::{SinkReport, Verdict};
use backdroid_obs::{escape_json_into, RegistrySnapshot};
use std::fmt::{self, Write as _};

// ---------------------------------------------------------------------
// JSON reading
// ---------------------------------------------------------------------

/// The largest integer a request may carry, 2^53 − 1: every integer up
/// to it has its own `f64`, so its literal is read back unchanged.
const MAX_EXACT_INT: u64 = (1 << 53) - 1;

/// A parsed JSON value. Numbers are kept as `f64`, so an integer
/// literal above 2^53 − 1 may be rounded as it is parsed;
/// [`Json::as_u64`] rejects those.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number literal.
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one that an `f64`
    /// holds exactly (at most 2^53 − 1).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_EXACT_INT as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON document, rejecting trailing garbage.
pub fn parse_json(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_literal(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if matches!(b.get(*pos), Some(b'-')) {
        *pos += 1;
    }
    while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
        *pos += 1;
    }
    if matches!(b.get(*pos), Some(b'.')) {
        *pos += 1;
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|n| n.is_finite())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let code = parse_hex4(b, *pos + 1)?;
                        *pos += 4;
                        if (0xD800..=0xDBFF).contains(&code) {
                            // High surrogate: must pair with a following
                            // \uDC00..\uDFFF low surrogate.
                            if !matches!(b.get(*pos + 1..*pos + 3), Some([b'\\', b'u'])) {
                                return Err("unpaired high surrogate".into());
                            }
                            let low = parse_hex4(b, *pos + 3)?;
                            if !(0xDC00..=0xDFFF).contains(&low) {
                                return Err("invalid low surrogate".into());
                            }
                            *pos += 6;
                            let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            out.push(char::from_u32(combined).ok_or("invalid surrogate pair")?);
                        } else {
                            out.push(char::from_u32(code).ok_or("unpaired low surrogate")?);
                        }
                    }
                    _ => return Err(format!("invalid escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8 sequences pass through unchanged.
                let ch_len = utf8_len(c);
                let chunk = b
                    .get(*pos..*pos + ch_len)
                    .and_then(|s| std::str::from_utf8(s).ok())
                    .ok_or("invalid UTF-8 in string")?;
                out.push_str(chunk);
                *pos += ch_len;
            }
        }
    }
}

/// Reads the four hex digits of a `\u` escape starting at `at`.
fn parse_hex4(b: &[u8], at: usize) -> Result<u32, String> {
    let hex = b
        .get(at..at + 4)
        .and_then(|h| std::str::from_utf8(h).ok())
        .ok_or("truncated \\u escape")?;
    u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape".into())
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b']')) {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'}')) {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

// ---------------------------------------------------------------------
// JSON writing
// ---------------------------------------------------------------------

/// A `fmt::Write` adapter that JSON-escapes everything written through
/// it, so `Display` and `Debug` text is escaped as it is formatted,
/// without an intermediate `String`.
struct Escaping<'a>(&'a mut String);

impl fmt::Write for Escaping<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_json_into(self.0, s);
        Ok(())
    }
}

/// Appends `s` as a JSON string literal.
fn push_string(out: &mut String, s: &str) {
    out.push('"');
    escape_json_into(out, s);
    out.push('"');
}

/// Appends formatted text as a JSON string literal.
fn push_formatted(out: &mut String, text: fmt::Arguments<'_>) {
    out.push('"');
    let _ = Escaping(out).write_fmt(text);
    out.push('"');
}

/// Appends `items` as a JSON array, each element written by `push`.
fn push_array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut push: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push(out, item);
    }
    out.push(']');
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// One parsed protocol request.
#[derive(Clone, PartialEq, Debug)]
pub struct Request {
    /// Caller-chosen id echoed in the response.
    pub id: u64,
    /// The operation.
    pub op: Op,
    /// Optional deadline in milliseconds from submission. A sharded
    /// server answers a request still queued past its deadline with a
    /// deterministic `"deadline exceeded"` error instead of analyzing
    /// it. Absent (the default) = no deadline.
    pub deadline_ms: Option<u64>,
}

/// The protocol operations every transport shares; each op's reply is
/// written by its `render_*` function.
#[derive(Clone, PartialEq, Debug)]
pub enum Op {
    /// Full-registry analysis of one app.
    Analyze {
        /// App id (benchset index for `backdroid-serve`).
        app: String,
    },
    /// Detector-restricted analysis of one app.
    Query {
        /// App id.
        app: String,
        /// Requested detector ids (empty = every registered detector).
        /// The wire key stays `"sinks"` for compatibility, and the
        /// legacy class names `"crypto"`/`"ssl"` are also detector ids,
        /// so old clients keep working unchanged. Unknown ids parse
        /// fine and are answered by the service with a deterministic
        /// error response.
        detectors: Vec<String>,
    },
    /// Batched multi-app analysis.
    Batch {
        /// App ids, analyzed in order.
        apps: Vec<String>,
    },
    /// Service + store counter snapshot (tier hit rates, disk bytes).
    /// Operator-facing: counters depend on scheduling and on which tier
    /// served each request, so traces meant for byte-identical replay
    /// diffs must not include this op. A sharded server renders the
    /// aggregate across every shard (live + retired), once every request
    /// submitted ahead of this one has been answered.
    Stats,
    /// Full metrics-registry snapshot: every counter, gauge, and
    /// histogram (with derivable p50/p90/p99), as one aggregate object
    /// plus the per-shard views (`null` for dead shards; a single entry
    /// on an unsharded server). Operator-facing like [`Op::Stats`]
    /// — the values depend on scheduling and tiers, so replay-diffed
    /// traces must not include this op either. A sharded server answers
    /// it once every request submitted ahead of it has been answered.
    Metrics,
    /// Admin op: take shard N down (its queued requests served first,
    /// later ones routed past it, memory tier dropped). Produces **no
    /// output** and is a no-op on a plain [`crate::Service`] (the
    /// single-threaded `backdroid-serve` loop), so a trace spliced with
    /// admin lines still diffs byte-for-byte against any golden — unless
    /// it publishes updates: without a snapshot directory the kill loses
    /// the shard's published updates, and the restarted shard serves
    /// version 1 again; with one, the updated content survives but the
    /// version number starts over.
    KillShard {
        /// The shard index to kill.
        shard: u64,
    },
    /// Admin op: bring shard N back disk-warm over the shared snapshot
    /// directory. Silent, and a no-op on a plain service, like
    /// [`Op::KillShard`].
    RestartShard {
        /// The shard index to restart.
        shard: u64,
    },
    /// Publishes version *n+1* of an app: the server mutates the app's
    /// current program with the deterministic update generator
    /// (`backdroid_appgen::mutate_version`), builds the new version's
    /// image and serves it from then on (with a snapshot directory, its
    /// snapshot is written at once). The response carries only
    /// deterministic fields (version number, the counts of changed,
    /// added and removed classes) so update traces replay byte-for-byte.
    PutVersion {
        /// App id.
        app: String,
        /// Update-generator seed — same current version + same seed ⇒
        /// the same next version on every server.
        seed: u64,
    },
    /// Incremental full-registry analysis of the app's current version,
    /// reusing prior verdicts where the update provably cannot have
    /// changed them. The response body is **byte-identical** to what a
    /// from-scratch analysis of the same version would report — only
    /// the echoed op differs from [`Op::Analyze`] — so delta-warm and
    /// cold servers diff clean.
    AnalyzeDelta {
        /// App id.
        app: String,
    },
}

/// An app id may arrive as a JSON string or a small integer.
fn app_id_of(v: &Json) -> Result<String, String> {
    match v {
        Json::Str(s) => Ok(s.clone()),
        Json::Num(_) => v
            .as_u64()
            .map(|n| n.to_string())
            .ok_or_else(|| "app id must be a string or a non-negative integer".into()),
        _ => Err("app id must be a string or a non-negative integer".into()),
    }
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = parse_json(line)?;
    let id = v
        .get("id")
        .and_then(Json::as_u64)
        .ok_or("request needs a non-negative integer \"id\"")?;
    let op_name = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or("request needs an \"op\" string")?;
    let app = || -> Result<String, String> {
        app_id_of(v.get("app").ok_or("request needs an \"app\" field")?)
    };
    let op = match op_name {
        "analyze" => Op::Analyze { app: app()? },
        "analyze_delta" => Op::AnalyzeDelta { app: app()? },
        "put_version" => Op::PutVersion {
            app: app()?,
            seed: v
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or("put_version needs a non-negative integer \"seed\"")?,
        },
        "query" => {
            let detectors = match v.get("sinks") {
                None => Vec::new(),
                Some(s) => s
                    .as_arr()
                    .ok_or("\"sinks\" must be an array of detector ids")?
                    .iter()
                    .map(|c| {
                        c.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| format!("detector id must be a string, got {c:?}"))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            };
            Op::Query {
                app: app()?,
                detectors,
            }
        }
        "batch" => {
            let apps = v
                .get("apps")
                .and_then(Json::as_arr)
                .ok_or("batch needs an \"apps\" array")?
                .iter()
                .map(app_id_of)
                .collect::<Result<Vec<_>, _>>()?;
            Op::Batch { apps }
        }
        "stats" => Op::Stats,
        "metrics" => Op::Metrics,
        "kill_shard" | "restart_shard" => {
            let shard = v
                .get("shard")
                .and_then(Json::as_u64)
                .ok_or("admin ops need a non-negative integer \"shard\"")?;
            if op_name == "kill_shard" {
                Op::KillShard { shard }
            } else {
                Op::RestartShard { shard }
            }
        }
        other => return Err(format!("unknown op {other:?}")),
    };
    let deadline_ms = match v.get("deadline_ms") {
        None => None,
        Some(d) => Some(
            d.as_u64()
                .ok_or("\"deadline_ms\" must be a non-negative integer")?,
        ),
    };
    Ok(Request {
        id,
        op,
        deadline_ms,
    })
}

/// Decodes one input line as every serving loop does: `None` for a
/// blank line (nothing to answer), else the request, or — for a
/// malformed line — its encoded error reply, which carries the line's
/// `id` when one can be recovered (else 0) so the client can correlate
/// it.
pub fn decode_line(line: &str) -> Option<Result<Request, String>> {
    let line = line.trim();
    if line.is_empty() {
        return None;
    }
    Some(parse_request(line).map_err(|e| {
        let id = parse_json(line)
            .ok()
            .and_then(|v| v.get("id").and_then(Json::as_u64))
            .unwrap_or(0);
        render_error(id, &e)
    }))
}

/// Renders one [`WorkloadRequest`] as a protocol request line — how
/// `backdroid-serve --emit-trace` turns the generator's output into a
/// pipeable trace.
pub fn workload_request_line(id: u64, req: &WorkloadRequest) -> String {
    let deadline = req
        .deadline_ms
        .map(|ms| format!(",\"deadline_ms\":{ms}"))
        .unwrap_or_default();
    match &req.op {
        WorkloadOp::Analyze => {
            format!(
                "{{\"id\":{id},\"op\":\"analyze\",\"app\":\"{}\"{deadline}}}",
                req.app
            )
        }
        WorkloadOp::Query(classes) => {
            let mut sinks = String::new();
            push_array(&mut sinks, classes, |out, c| push_string(out, c));
            format!(
                "{{\"id\":{id},\"op\":\"query\",\"app\":\"{}\",\"sinks\":{sinks}{deadline}}}",
                req.app
            )
        }
        WorkloadOp::Batch(extra) => {
            let mut apps = String::new();
            let ids = std::iter::once(req.app).chain(extra.iter().copied());
            push_array(&mut apps, ids, |out, a| {
                let _ = write!(out, "\"{a}\"");
            });
            format!("{{\"id\":{id},\"op\":\"batch\",\"apps\":{apps}{deadline}}}")
        }
    }
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

/// Reply bytes reserved per sink report: the benchmark corpus averages
/// about 350, so most replies are written without growing the buffer.
const REPORT_BYTES: usize = 384;

/// Bytes to reserve for an analysis body, before any report.
const BODY_BYTES: usize = 192;

/// Appends one sink report object.
fn push_sink_report(out: &mut String, r: &SinkReport) {
    out.push_str("{\"sink\":");
    push_string(out, &r.sink_id);
    out.push_str(",\"method\":");
    push_formatted(out, format_args!("{}", r.site_method));
    let _ = write!(
        out,
        ",\"stmt\":{},\"reachable\":{},",
        r.stmt_idx, r.reachable
    );
    match &r.verdict {
        Verdict::Vulnerable(reason) => {
            out.push_str("\"verdict\":\"vulnerable\",\"reason\":");
            push_string(out, reason);
        }
        Verdict::Safe => out.push_str("\"verdict\":\"safe\""),
        Verdict::Undetermined => out.push_str("\"verdict\":\"undetermined\""),
    }
    out.push_str(",\"entries\":");
    push_array(out, &r.entries, |out, e| {
        push_formatted(out, format_args!("{e}"))
    });
    out.push_str(",\"values\":");
    push_array(out, &r.param_values, |out, v| {
        push_formatted(out, format_args!("{v:?}"))
    });
    let _ = write!(out, ",\"ssg_units\":{}}}", r.ssg_units);
}

/// Appends the deterministic body shared by single-app responses and
/// batch items: app identity, counts, and the per-sink reports. Excludes
/// wall-clock time, engine-wide cache counters, and fetch outcome.
fn push_analysis_fields(out: &mut String, a: &AppAnalysis) {
    out.push_str("\"app\":");
    push_string(out, &a.app_id);
    out.push_str(",\"name\":");
    push_string(out, &a.app_name);
    let _ = write!(
        out,
        ",\"located\":{},\"skipped\":{},\"sinks_analyzed\":{},\"vulnerable\":{},\"reports\":",
        a.report.sink_cache.located,
        a.report.sink_cache.skipped,
        a.report.sinks_analyzed(),
        a.report.vulnerable_sinks().len(),
    );
    push_array(out, &a.report.sink_reports, push_sink_report);
}

/// Renders a single-app response (`op` is echoed: `"analyze"`,
/// `"query"`, or `"analyze_delta"` — the body is the same shape for all
/// three, which is what lets CI byte-diff a delta-warm server against a
/// from-scratch one).
pub fn render_analysis(id: u64, op: &str, a: &AppAnalysis) -> String {
    let mut out = String::with_capacity(BODY_BYTES + REPORT_BYTES * a.report.sink_reports.len());
    let _ = write!(out, "{{\"id\":{id},\"op\":");
    push_string(&mut out, op);
    out.push(',');
    push_analysis_fields(&mut out, a);
    out.push('}');
    out
}

/// Renders a batch response: one result object (or error object) per
/// requested app, in request order.
pub fn render_batch(id: u64, items: &[Result<AppAnalysis, ServiceError>]) -> String {
    let reports: usize = items
        .iter()
        .map(|item| item.as_ref().map_or(0, |a| a.report.sink_reports.len()))
        .sum();
    let mut out = String::with_capacity(BODY_BYTES * (items.len() + 1) + REPORT_BYTES * reports);
    let _ = write!(out, "{{\"id\":{id},\"op\":\"batch\",\"results\":");
    push_array(&mut out, items, |out, item| {
        out.push('{');
        match item {
            Ok(a) => push_analysis_fields(out, a),
            Err(e) => {
                out.push_str("\"error\":");
                push_formatted(out, format_args!("{e}"));
            }
        }
        out.push('}');
    });
    out.push('}');
    out
}

/// Renders an error response.
pub fn render_error(id: u64, message: &str) -> String {
    let mut out = format!("{{\"id\":{id},\"error\":");
    push_string(&mut out, message);
    out.push('}');
    out
}

/// Renders the deterministic deadline error **with the measured queue
/// wait** — the operator sees how far past admission the request sat,
/// not just that it expired. Wall-clock, so deadline-carrying requests
/// stay excluded from replay-diffed traces (they always were: expiry
/// itself is timing-dependent).
pub fn render_deadline_error(id: u64, queue_wait_ms: u64) -> String {
    format!("{{\"id\":{id},\"error\":\"deadline exceeded\",\"queue_wait_ms\":{queue_wait_ms}}}")
}

/// Renders a metrics response: the aggregate registry snapshot plus the
/// per-shard views (`null` where a shard is dead), both rendered by
/// [`RegistrySnapshot::render_json`].
pub fn render_metrics(
    id: u64,
    aggregate: &RegistrySnapshot,
    shards: &[Option<RegistrySnapshot>],
) -> String {
    let mut out = format!(
        "{{\"id\":{id},\"op\":\"metrics\",\"aggregate\":{},\"shards\":",
        aggregate.render_json()
    );
    push_array(&mut out, shards, |out, s| match s {
        Some(snap) => out.push_str(&snap.render_json()),
        None => out.push_str("null"),
    });
    out.push('}');
    out
}

/// The `stats` reply's fields as `(JSON key, metric name)`, in wire
/// order. The first [`STATS_SERVICE_FIELDS`] rows are the service's
/// request counters; the rest render inside the nested `"store"` object.
const STATS_FIELDS: [(&str, &str); 22] = [
    ("requests", "service_requests_total"),
    ("analyze", "service_analyze_total"),
    ("query", "service_query_total"),
    ("batch", "service_batch_total"),
    ("errors", "service_errors_total"),
    ("peak_in_flight", "service_peak_in_flight"),
    ("hits", "store_hits_total"),
    ("misses", "store_misses_total"),
    ("coalesced", "store_coalesced_total"),
    ("loads", "store_loads_total"),
    ("load_failures", "store_load_failures_total"),
    ("evictions", "store_evictions_total"),
    ("bytes_evicted", "store_bytes_evicted_total"),
    ("disk_hits", "store_disk_hits_total"),
    ("disk_misses", "store_disk_misses_total"),
    ("disk_invalidations", "store_disk_invalidations_total"),
    ("disk_writes", "store_disk_writes_total"),
    ("disk_bytes_written", "store_disk_bytes_written_total"),
    ("disk_write_failures", "store_disk_write_failures_total"),
    ("resident_bytes", "store_resident_bytes"),
    ("resident_apps", "store_resident_apps"),
    ("peak_resident_bytes", "store_peak_resident_bytes"),
];

/// How many leading [`STATS_FIELDS`] rows sit outside the `"store"` object.
const STATS_SERVICE_FIELDS: usize = 6;

/// Renders a stats response from a registry snapshot: the service's
/// request counters plus the store's per-tier counters (memory hits,
/// disk hits/misses/invalidations, bytes written), one field per
/// `STATS_FIELDS` row. Operator-facing, not replay-stable.
pub fn render_stats(id: u64, snapshot: &RegistrySnapshot) -> String {
    let mut out = format!("{{\"id\":{id},\"op\":\"stats\"");
    for (i, (key, metric)) in STATS_FIELDS.iter().enumerate() {
        let sep = if i == STATS_SERVICE_FIELDS {
            ",\"store\":{"
        } else {
            ","
        };
        let _ = write!(out, "{sep}\"{key}\":{}", snapshot.value(metric));
    }
    out.push_str("}}");
    out
}

/// Renders a put_version acknowledgement: the new version number plus
/// the ground-truth delta class counts — all pure functions of (current
/// version, seed), so update traces replay byte-for-byte.
pub fn render_put_version(id: u64, o: &crate::service::PutVersionOutcome) -> String {
    let mut out = format!("{{\"id\":{id},\"op\":\"put_version\",\"app\":");
    push_string(&mut out, &o.app_id);
    let _ = write!(
        out,
        ",\"version\":{},\"classes_changed\":{},\"classes_added\":{},\"classes_removed\":{}}}",
        o.version, o.classes_changed, o.classes_added, o.classes_removed,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_and_objects() {
        assert_eq!(parse_json("null").unwrap(), Json::Null);
        assert_eq!(parse_json(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse_json("-2.5e1").unwrap(), Json::Num(-25.0));
        assert_eq!(
            parse_json("\"a\\n\\\"b\\u0041\"").unwrap(),
            Json::Str("a\n\"bA".into())
        );
        // Astral-plane characters arrive as surrogate pairs.
        assert_eq!(
            parse_json("\"\\ud83d\\ude00!\"").unwrap(),
            Json::Str("\u{1F600}!".into())
        );
        for bad in ["\"\\ud83d\"", "\"\\ud83d\\u0041\"", "\"\\ude00\""] {
            assert!(parse_json(bad).is_err(), "{bad:?}: lone surrogates reject");
        }
        let v = parse_json("{\"xs\":[1,2],\"s\":\"ok\",\"b\":false}").unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("ok"));
        assert_eq!(
            v.get("xs").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(v.get("b"), Some(&Json::Bool(false)));
        assert_eq!(parse_json("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(parse_json("{}").unwrap(), Json::Obj(vec![]));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"open", "nan"] {
            assert!(parse_json(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn escape_round_trips_through_the_parser() {
        let nasty = "line1\nline2\t\"quoted\" back\\slash \u{1} ünïcode";
        let mut rendered = String::new();
        push_string(&mut rendered, nasty);
        assert_eq!(parse_json(&rendered).unwrap(), Json::Str(nasty.into()));
    }

    #[test]
    fn parses_the_three_request_ops() {
        let r = parse_request("{\"id\":0,\"op\":\"analyze\",\"app\":\"3\"}").unwrap();
        assert_eq!(r.op, Op::Analyze { app: "3".into() });
        // Numeric app ids normalize to their decimal string.
        let r = parse_request("{\"id\":1,\"op\":\"analyze\",\"app\":3}").unwrap();
        assert_eq!(r.op, Op::Analyze { app: "3".into() });
        let r = parse_request("{\"id\":2,\"op\":\"query\",\"app\":\"0\",\"sinks\":[\"crypto\"]}")
            .unwrap();
        assert_eq!(
            r.op,
            Op::Query {
                app: "0".into(),
                detectors: vec!["crypto".into()]
            }
        );
        // Detector ids beyond the legacy classes parse too; unknown ids
        // are the service's responsibility, not the parser's.
        let r = parse_request("{\"id\":2,\"op\":\"query\",\"app\":\"0\",\"sinks\":[\"webview\"]}")
            .unwrap();
        assert_eq!(
            r.op,
            Op::Query {
                app: "0".into(),
                detectors: vec!["webview".into()]
            }
        );
        let r = parse_request("{\"id\":3,\"op\":\"batch\",\"apps\":[\"0\",1]}").unwrap();
        assert_eq!(
            r.op,
            Op::Batch {
                apps: vec!["0".into(), "1".into()]
            }
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "{\"op\":\"analyze\",\"app\":\"0\"}", // missing id
            "{\"id\":0,\"app\":\"0\"}",           // missing op
            "{\"id\":0,\"op\":\"explode\"}",      // unknown op
            "{\"id\":0,\"op\":\"analyze\"}",      // missing app
            "{\"id\":0,\"op\":\"query\",\"app\":\"0\",\"sinks\":[1]}", // non-string detector id
            "{\"id\":0,\"op\":\"batch\"}",        // missing apps
            "{\"id\":-1,\"op\":\"analyze\",\"app\":\"0\"}", // negative id
            // Ids an `f64` cannot hold exactly: 2^53, 2^53 + 1, 2^64.
            "{\"id\":9007199254740992,\"op\":\"analyze\",\"app\":\"0\"}",
            "{\"id\":9007199254740993,\"op\":\"analyze\",\"app\":\"0\"}",
            "{\"id\":18446744073709551616,\"op\":\"analyze\",\"app\":\"0\"}",
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} must not parse");
        }
        // 2^53 − 1, the largest id accepted, is echoed exactly.
        let top = "{\"id\":9007199254740991,\"op\":\"analyze\",\"app\":\"0\"}";
        assert_eq!(parse_request(top).unwrap().id, 9_007_199_254_740_991);
        // Every serving loop decodes lines alike: blanks answer nothing,
        // and a malformed line's error carries its id when it has one.
        assert_eq!(decode_line(" \t "), None);
        let error = |line| decode_line(line).unwrap().unwrap_err();
        assert!(error(" {\"id\":7,\"op\":\"explode\"} ").starts_with("{\"id\":7,\"error\":"));
        assert!(error("not json").starts_with("{\"id\":0,\"error\":"));
        assert!(error("{\"id\":9007199254740991,\"op\":\"explode\"}")
            .starts_with("{\"id\":9007199254740991,\"error\":"));
        assert!(decode_line("{\"id\":1,\"op\":\"stats\"}").unwrap().is_ok());
    }

    #[test]
    fn workload_lines_parse_back() {
        use backdroid_appgen::workload::{WorkloadOp, WorkloadRequest};
        let lines = [
            workload_request_line(
                0,
                &WorkloadRequest {
                    app: 4,
                    op: WorkloadOp::Analyze,
                    deadline_ms: None,
                },
            ),
            workload_request_line(
                1,
                &WorkloadRequest {
                    app: 2,
                    op: WorkloadOp::Query(vec!["crypto".into(), "ssl".into()]),
                    deadline_ms: Some(40),
                },
            ),
            workload_request_line(
                2,
                &WorkloadRequest {
                    app: 1,
                    op: WorkloadOp::Batch(vec![0, 3]),
                    deadline_ms: None,
                },
            ),
        ];
        let parsed: Vec<Request> = lines
            .iter()
            .map(|l| parse_request(l).expect("trace lines must parse"))
            .collect();
        assert_eq!(parsed[0].op, Op::Analyze { app: "4".into() });
        assert_eq!(
            parsed[1].op,
            Op::Query {
                app: "2".into(),
                detectors: vec!["crypto".into(), "ssl".into()]
            }
        );
        assert_eq!(
            parsed[2].op,
            Op::Batch {
                apps: vec!["1".into(), "0".into(), "3".into()]
            }
        );
        assert_eq!(parsed[0].deadline_ms, None);
        assert_eq!(
            parsed[1].deadline_ms,
            Some(40),
            "deadline survives the wire"
        );
    }

    #[test]
    fn admin_ops_and_deadlines_parse() {
        let r = parse_request("{\"id\":9,\"op\":\"kill_shard\",\"shard\":2}").unwrap();
        assert_eq!(r.op, Op::KillShard { shard: 2 });
        let r = parse_request("{\"id\":10,\"op\":\"restart_shard\",\"shard\":0}").unwrap();
        assert_eq!(r.op, Op::RestartShard { shard: 0 });
        let r = parse_request("{\"id\":0,\"op\":\"analyze\",\"app\":\"1\",\"deadline_ms\":25}")
            .unwrap();
        assert_eq!(r.deadline_ms, Some(25));
        for bad in [
            "{\"id\":9,\"op\":\"kill_shard\"}",
            "{\"id\":9,\"op\":\"kill_shard\",\"shard\":-1}",
            "{\"id\":0,\"op\":\"analyze\",\"app\":\"1\",\"deadline_ms\":\"soon\"}",
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn stats_op_parses_and_renders_valid_json() {
        let r = parse_request("{\"id\":9,\"op\":\"stats\"}").unwrap();
        assert_eq!(r.op, Op::Stats);
        let service = crate::Service::new(crate::ServiceConfig::default(), |id: &str| {
            Err(format!("no app {id}"))
        });
        let snapshot = service.metrics().snapshot();
        // `RegistrySnapshot::value` reads 0 for an absent name, so a
        // misspelled row would render 0 silently.
        for (_, metric) in STATS_FIELDS {
            assert!(snapshot.get(metric).is_some(), "{metric} is not registered");
        }
        let line = render_stats(9, &snapshot);
        let v = parse_json(&line).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(9));
        assert_eq!(v.get("op").and_then(Json::as_str), Some("stats"));
        let store = v.get("store").expect("store object");
        for key in [
            "hits",
            "disk_hits",
            "disk_misses",
            "disk_invalidations",
            "disk_bytes_written",
            "resident_bytes",
        ] {
            assert!(store.get(key).and_then(Json::as_u64).is_some(), "{key}");
        }
    }

    #[test]
    fn metrics_op_parses_and_renders_valid_json() {
        let r = parse_request("{\"id\":4,\"op\":\"metrics\"}").unwrap();
        assert_eq!(r.op, Op::Metrics);
        let registry = backdroid_obs::MetricsRegistry::new();
        registry.counter("service_requests_total").add(3);
        registry.histogram("request_hit_us").record(100);
        let snap = registry.snapshot();
        let line = render_metrics(4, &snap, &[Some(snap.clone()), None]);
        let v = parse_json(&line).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(4));
        assert_eq!(v.get("op").and_then(Json::as_str), Some("metrics"));
        let agg = v.get("aggregate").expect("aggregate object");
        assert_eq!(
            agg.get("service_requests_total")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_u64),
            Some(3)
        );
        assert_eq!(
            agg.get("request_hit_us")
                .and_then(|m| m.get("type"))
                .and_then(Json::as_str),
            Some("histogram")
        );
        let shards = v.get("shards").and_then(Json::as_arr).expect("shards");
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[1], Json::Null, "dead shard renders null");
    }

    #[test]
    fn deadline_error_carries_the_measured_wait() {
        let line = render_deadline_error(3, 41);
        let v = parse_json(&line).unwrap();
        assert_eq!(
            v.get("error").and_then(Json::as_str),
            Some("deadline exceeded")
        );
        assert_eq!(v.get("queue_wait_ms").and_then(Json::as_u64), Some(41));
    }

    #[test]
    fn error_rendering_is_valid_json() {
        let line = render_error(7, "load failed: app index 99 out of range");
        let v = parse_json(&line).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(7));
        assert!(v.get("error").and_then(Json::as_str).is_some());
    }
}
