//! # backdroid-obs
//!
//! The zero-dependency observability substrate for the BackDroid
//! serving stack: a [`MetricsRegistry`] of atomic counters, gauges, and
//! log2-bucketed latency [`Histogram`]s with deterministic JSON and
//! Prometheus-style renderers, plus a per-request span [`Tracer`] whose
//! normalized JSONL export is byte-identical across replays of the same
//! workload (see [`trace`]'s module docs for the contract).
//!
//! Hand-rolled on `std` atomics only — the workspace builds offline, so
//! no metrics or tracing ecosystem crates are available, and none are
//! needed: the serving layer's determinism story demands full control
//! over rendering order anyway.
//!
//! ```
//! use backdroid_obs::MetricsRegistry;
//!
//! let reg = MetricsRegistry::new();
//! reg.counter("requests_total").inc();
//! reg.histogram("latency_ns").record(1_500);
//! let snap = reg.snapshot();
//! assert_eq!(snap.value("requests_total"), 1);
//! assert!(snap.render_json().starts_with("{\"latency_ns\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod trace;

pub use metrics::{
    bucket_of, bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot, MetricValue,
    MetricsRegistry, RegistrySnapshot, HISTOGRAM_BUCKETS,
};
pub use trace::{SpanRecord, TraceBuilder, Tracer};

/// Appends `s` to `out`, escaped for a JSON string literal: quotes,
/// backslashes, `\n`, `\r`, `\t`, and every other control character
/// below U+0020 as `\u00xx`. Everything else, non-ASCII included, is
/// copied as is.
///
/// The workspace's one JSON escaper: the metrics and trace renderers
/// here, the serving layer's reply renderer and the bench artifacts all
/// go through it, so documents that CI diffs against each other cannot
/// drift apart.
pub fn escape_json_into(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    // Every byte that needs escaping is ASCII, so each is a char
    // boundary and the unescaped runs between them slice cleanly.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// [`escape_json_into`] into a new `String`.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_json_into(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\r\t"), "\\r\\t");
        assert_eq!(escape_json("\u{1}\u{1f} \u{7f}"), "\\u0001\\u001f \u{7f}");
        assert_eq!(escape_json("ünï€😀"), "ünï€😀");
        let mut out = String::from("[");
        escape_json_into(&mut out, "x\"");
        assert_eq!(out, "[x\\\"", "appends to what is there");
    }
}
