//! The metrics half of the observability substrate: a registry of
//! atomic counters, gauges, and log2-bucketed histograms with
//! deterministic-ordered snapshot renderers.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`
//! clones around atomics — register once, clone freely, update from any
//! thread without locking. A [`RegistrySnapshot`] is a point-in-time
//! copy whose entries are **sorted by metric name**, so the JSON and
//! Prometheus-style renderings are byte-stable for equal values no
//! matter the registration or update order.
//!
//! Histograms use base-2 buckets: bucket `k > 0` holds values in
//! `[2^(k-1), 2^k)` and bucket `0` holds zero, so recording is one
//! `leading_zeros` plus one atomic add, and p50/p90/p99 are derivable
//! from the bucket counts (as the bucket's inclusive upper bound —
//! machine-independent *bucket* positions, which is what the committed
//! benchmark baselines band).

use crate::escape_json_into;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: one zero bucket plus one per power of
/// two up to `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing atomic counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An atomic gauge: a value that can move both ways (resident bytes,
/// in-flight requests) or track a running maximum (peaks).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` and returns the updated value — lets a depth gauge feed
    /// its running-peak companion without a read-modify race.
    pub fn add_fetch(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::Relaxed) + n
    }

    /// Subtracts `n` (debug-asserts it never goes negative).
    pub fn sub(&self, n: u64) {
        let prev = self.0.fetch_sub(n, Ordering::Relaxed);
        debug_assert!(prev >= n, "gauge went negative");
    }

    /// Raises the value to `v` if `v` is larger (running maximum).
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCell {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A log2-bucketed histogram of `u64` samples (latencies in ns/µs,
/// byte sizes, queue depths — any nonnegative magnitude).
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCell>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramCell {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }
}

/// The bucket index a value lands in: `0` for zero, otherwise
/// `64 - leading_zeros` (bucket `k` spans `[2^(k-1), 2^k)`).
pub fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The inclusive upper bound of bucket `k`.
pub fn bucket_upper_bound(k: usize) -> u64 {
    if k >= 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.0.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(self.0.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.0.count.load(Ordering::Relaxed),
            sum: self.0.sum.load(Ordering::Relaxed),
        }
    }
}

/// A copied histogram state: bucket counts plus exact count and sum.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_of`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Exact sum of all recorded values.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// The exact arithmetic mean (`0.0` when empty). Means are exact —
    /// `sum` and `count` are carried alongside the buckets — so
    /// mean-based checks lose nothing to bucketing.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The bucket index the `q`-quantile (`q` in `[0, 1]`) falls in,
    /// by nearest rank over the bucket counts; `0` when empty.
    pub fn quantile_bucket(&self, q: f64) -> usize {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (k, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return k;
            }
        }
        HISTOGRAM_BUCKETS - 1
    }

    /// The inclusive upper bound of the `q`-quantile's bucket — the
    /// histogram's answer to "p99 ≤ ?" in the recorded unit.
    pub fn quantile_upper(&self, q: f64) -> u64 {
        bucket_upper_bound(self.quantile_bucket(q))
    }

    /// Merges another snapshot into this one (bucketwise sums).
    pub fn absorb(&mut self, other: &HistogramSnapshot) {
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named registry of metrics. Registration is idempotent: asking for
/// an existing name returns a handle to the same underlying atomic, so
/// independent components can share a metric by agreeing on its name.
///
/// Names must match `[a-z0-9_]+` — the renderers emit them unquoted in
/// the Prometheus form and unescaped in JSON.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&self, name: &str, fresh: Metric) -> Metric {
        assert!(valid_name(name), "invalid metric name {name:?}");
        let mut metrics = self.metrics.lock().expect("metrics registry lock");
        metrics.entry(name.to_string()).or_insert(fresh).clone()
    }

    /// Registers (or retrieves) a counter.
    ///
    /// # Panics
    /// If `name` is invalid or already registered as a different kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.register(name, Metric::Counter(Counter::default())) {
            Metric::Counter(c) => c,
            _ => panic!("metric {name:?} is not a counter"),
        }
    }

    /// Registers (or retrieves) a gauge.
    ///
    /// # Panics
    /// If `name` is invalid or already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.register(name, Metric::Gauge(Gauge::default())) {
            Metric::Gauge(g) => g,
            _ => panic!("metric {name:?} is not a gauge"),
        }
    }

    /// Registers (or retrieves) a histogram.
    ///
    /// # Panics
    /// If `name` is invalid or already registered as a different kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.register(name, Metric::Histogram(Histogram::default())) {
            Metric::Histogram(h) => h,
            _ => panic!("metric {name:?} is not a histogram"),
        }
    }

    /// A point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let metrics = self.metrics.lock().expect("metrics registry lock");
        RegistrySnapshot {
            entries: metrics
                .iter()
                .map(|(name, m)| {
                    let value = match m {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
                    };
                    (name.clone(), value)
                })
                .collect(),
        }
    }
}

/// One metric's copied value inside a [`RegistrySnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// A counter's value.
    Counter(u64),
    /// A gauge's value.
    Gauge(u64),
    /// A histogram's full distribution (boxed: the bucket array is large
    /// next to the scalar variants).
    Histogram(Box<HistogramSnapshot>),
}

/// A point-in-time copy of a registry, sorted by metric name. Snapshots
/// from different registries (per-shard services) can be folded together
/// with [`RegistrySnapshot::absorb`] to form an aggregate view — the
/// one source the wire `stats` and `metrics` ops and the stderr
/// summaries all read.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RegistrySnapshot {
    entries: Vec<(String, MetricValue)>,
}

impl RegistrySnapshot {
    /// The named metric's value, if present.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// All `(name, value)` entries in name order.
    pub fn entries(&self) -> &[(String, MetricValue)] {
        &self.entries
    }

    /// A counter or gauge read as a plain number (`0` when absent).
    pub fn value(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricValue::Counter(v)) | Some(MetricValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// The named histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Folds another snapshot in: counters and gauges add, histograms
    /// merge bucketwise, names only in `other` are copied over. Gauges
    /// add rather than take either side: summed per-shard resident
    /// bytes are the fleet's residency, and summed per-shard peaks are
    /// an upper bound on its true simultaneous peak (the shards' peaks
    /// need not coincide).
    pub fn absorb(&mut self, other: &RegistrySnapshot) {
        for (name, theirs) in &other.entries {
            match self.entries.binary_search_by(|(n, _)| n.cmp(name)) {
                Ok(i) => match (&mut self.entries[i].1, theirs) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                    (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a += b,
                    (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.absorb(b),
                    _ => {}
                },
                Err(i) => self.entries.insert(i, (name.clone(), theirs.clone())),
            }
        }
    }

    /// Renders the snapshot as one deterministic JSON object: metric
    /// names in sorted order, histograms as
    /// `{"type":"histogram","count":..,"sum":..,"p50":..,"p90":..,
    /// "p99":..,"buckets":[[k,n],..]}` with only nonzero buckets listed.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_json_into(&mut out, name);
            out.push_str("\":");
            match value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("{{\"type\":\"counter\",\"value\":{v}}}"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("{{\"type\":\"gauge\",\"value\":{v}}}"));
                }
                MetricValue::Histogram(h) => {
                    let buckets: Vec<String> = h
                        .buckets
                        .iter()
                        .enumerate()
                        .filter(|(_, n)| **n > 0)
                        .map(|(k, n)| format!("[{k},{n}]"))
                        .collect();
                    out.push_str(&format!(
                        "{{\"type\":\"histogram\",\"count\":{},\"sum\":{},\
                         \"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[{}]}}",
                        h.count,
                        h.sum,
                        h.quantile_upper(0.50),
                        h.quantile_upper(0.90),
                        h.quantile_upper(0.99),
                        buckets.join(",")
                    ));
                }
            }
        }
        out.push('}');
        out
    }

    /// Renders the snapshot in the Prometheus text exposition style:
    /// `# TYPE` lines, plain `name value` samples, and histograms as
    /// cumulative `name_bucket{le="..."}` series plus `_sum`/`_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.entries {
            match value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!("# TYPE {name} histogram\n"));
                    let mut cum = 0u64;
                    for (k, n) in h.buckets.iter().enumerate() {
                        if *n == 0 {
                            continue;
                        }
                        cum += n;
                        out.push_str(&format!(
                            "{name}_bucket{{le=\"{}\"}} {cum}\n",
                            bucket_upper_bound(k)
                        ));
                    }
                    out.push_str(&format!(
                        "{name}_bucket{{le=\"+Inf\"}} {}\n{name}_sum {}\n{name}_count {}\n",
                        h.count, h.sum, h.count
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        // Every value lies within its bucket's bounds.
        for v in [0u64, 1, 2, 7, 100, 4096, u64::MAX / 2, u64::MAX] {
            let k = bucket_of(v);
            assert!(v <= bucket_upper_bound(k));
            if k > 0 {
                assert!(v > bucket_upper_bound(k - 1));
            }
        }
    }

    #[test]
    fn histogram_count_sum_and_quantiles() {
        let h = Histogram::default();
        for v in [0u64, 1, 5, 5, 900, 1024] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1935);
        assert_eq!(s.buckets.iter().sum::<u64>(), 6, "no sample lost");
        assert!((s.mean() - 322.5).abs() < 1e-9);
        assert!(s.quantile_bucket(0.5) <= s.quantile_bucket(0.9));
        assert!(s.quantile_bucket(0.9) <= s.quantile_bucket(0.99));
        assert_eq!(s.quantile_upper(1.0), bucket_upper_bound(11));
        assert_eq!(HistogramSnapshot::default().quantile_upper(0.99), 0);
    }

    #[test]
    fn registry_handles_share_state_and_snapshots_sort() {
        let reg = MetricsRegistry::new();
        let c1 = reg.counter("zeta_total");
        let c2 = reg.counter("zeta_total");
        c1.inc();
        c2.add(2);
        reg.gauge("alpha_bytes").set(7);
        reg.histogram("mid_ns").record(3);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.entries().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["alpha_bytes", "mid_ns", "zeta_total"]);
        assert_eq!(snap.value("zeta_total"), 3);
        assert_eq!(snap.value("alpha_bytes"), 7);
        assert_eq!(snap.histogram("mid_ns").unwrap().count, 1);
    }

    #[test]
    fn absorb_folds_by_name() {
        let a = MetricsRegistry::new();
        a.counter("x_total").add(2);
        a.histogram("h_ns").record(10);
        let b = MetricsRegistry::new();
        b.counter("x_total").add(3);
        b.counter("only_b_total").inc();
        b.histogram("h_ns").record(1000);
        let mut agg = a.snapshot();
        agg.absorb(&b.snapshot());
        assert_eq!(agg.value("x_total"), 5);
        assert_eq!(agg.value("only_b_total"), 1);
        let h = agg.histogram("h_ns").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 1010);
    }

    #[test]
    fn renderers_are_deterministic() {
        let reg = MetricsRegistry::new();
        reg.counter("b_total").add(4);
        reg.gauge("a_bytes").set(9);
        reg.histogram("c_ns").record(5);
        let one = reg.snapshot().render_json();
        let two = reg.snapshot().render_json();
        assert_eq!(one, two);
        assert!(one.starts_with("{\"a_bytes\":{\"type\":\"gauge\",\"value\":9}"));
        assert!(one.contains("\"b_total\":{\"type\":\"counter\",\"value\":4}"));
        assert!(one.contains("\"buckets\":[[3,1]]"));
        let prom = reg.snapshot().render_prometheus();
        assert!(prom.contains("# TYPE b_total counter\nb_total 4\n"));
        assert!(prom.contains("c_ns_bucket{le=\"7\"} 1\n"));
        assert!(prom.contains("c_ns_sum 5\nc_ns_count 1\n"));
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("twice");
        reg.gauge("twice");
    }
}
