//! # backdroid-service
//!
//! The serving layer: BackDroid's value proposition (DSN 2021) is that
//! *targeted* analysis is cheap enough to answer security questions on
//! demand — this crate turns the owned, `Arc`-shareable
//! [`AppArtifacts`](backdroid_core::AppArtifacts) session of the core
//! crate into a resident **multi-app analysis service**:
//!
//! * [`AppStore`] keeps many app images resident under a **byte
//!   budget** with LRU eviction, and loads cold apps **single-flight**
//!   (N concurrent requests build the image exactly once — the same
//!   pattern as the search engine's command cache, one layer up). It is
//!   the one owner of each app's served image and version number.
//! * [`Service`] answers full analyses, per-detector queries, and
//!   batched multi-app requests against the store, each analysis through
//!   `Backdroid::analyze_artifacts` on the thread that handles the
//!   request, counting every request in its metrics registry (below).
//! * [`proto`] is the line-delimited JSON protocol the `backdroid-serve`
//!   binary speaks on stdin/stdout — deterministic responses that CI
//!   diffs byte-for-byte across worker counts, backends, and budgets.
//! * [`shard`] scales that out: a [`ShardPool`] of N single-service
//!   shards behind a consistent-hash router, with bounded queues
//!   (backpressure), per-request deadlines, and kill/restart that spills
//!   through the snapshot tier and comes back disk-warm.
//! * [`transport`] is the length-framed binary socket protocol
//!   (`tcp:`/`unix:` endpoints) `backdroid-serve --listen`/`--connect`
//!   speak — one JSONL line per frame, responses 1:1 in request order.
//! * [`cli`] is the one command-line flag reader, shared by
//!   `backdroid-serve` and the `backdroid-bench` binaries; each rejects
//!   any flag it does not read.
//! * **Observability** — every layer publishes into a
//!   [`backdroid_obs::MetricsRegistry`] (store tiers, request counters,
//!   per-tier latency and phase histograms, pool queue waits), the one
//!   copy of every count: the `stats` and `metrics` ops and the stderr
//!   summaries all read it back by metric name. The pool can record
//!   per-request span traces whose normalized export replays
//!   byte-identically at any shard count.
//!
//! Responses are a pure function of (app, requested detectors): the
//! store changes *where* artifacts come from, never what analysis
//! reports.
//!
//! ```
//! use backdroid_appgen::{AppSpec, Mechanism, Scenario, SinkKind};
//! use backdroid_core::AppArtifacts;
//! use backdroid_service::{Fetch, Service, ServiceConfig};
//!
//! // A service over a custom loader (any app id ending in a cipher app).
//! let service = Service::new(ServiceConfig::default(), |id: &str| {
//!     let app = AppSpec::named(format!("com.demo.{id}"))
//!         .with_scenario(Scenario::new(Mechanism::DirectEntry, SinkKind::Cipher, true))
//!         .with_filler(4, 3, 4)
//!         .generate();
//!     Ok(AppArtifacts::new(app.program, app.manifest))
//! });
//!
//! let cold = service.analyze_app("alpha").unwrap();
//! let warm = service.analyze_app("alpha").unwrap();
//! assert_eq!(cold.fetch, Fetch::Miss);
//! assert_eq!(warm.fetch, Fetch::Hit);
//! assert_eq!(cold.report.sink_reports, warm.report.sink_reports);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod proto;
pub mod service;
pub mod shard;
pub mod store;
pub mod transport;

pub use proto::Op;
pub use service::{AppAnalysis, PutVersionOutcome, Service, ServiceConfig, ServiceError};
pub use shard::{Responder, ShardPool, ShardPoolConfig};
pub use store::{AppStore, DiskTier, Fetch};
pub use transport::{Endpoint, FrameReader, OrderedEmitter};
