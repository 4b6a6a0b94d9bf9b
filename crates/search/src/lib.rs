//! # backdroid-search
//!
//! The on-the-fly bytecode text search engine (paper §IV): grep-style
//! commands over a merged dexdump plaintext, with line → method
//! resolution, inner-class `$` restoration, and the layered caching of
//! §IV-F whose hit rates the evaluation reports.
//!
//! ## Search backends
//!
//! Uncached commands execute through a pluggable [`SearchBackend`]:
//!
//! * [`LinearScan`] — the paper's grep, touching every dump line per
//!   query. Kept as the correctness oracle: its cost is what the bench
//!   harness's paper-calibrated "scaled minutes" model.
//! * [`Indexed`] *(default)* — posting lists ([`SearchIndex`]) built by
//!   one tokenization pass over the text indexed by
//!   [`BytecodeText::index`] (lazily, on the first indexed query) and
//!   keyed by tokens **interned** into a [`SymbolTable`] (dense `u32`
//!   ids over one string arena), so a probe hashes the needle once and
//!   compares at most one arena slice — no key formatting or
//!   per-query allocation on the hot path; each query touches only
//!   candidate lines, re-verified with the oracle's exact needle +
//!   guard predicate, so the two backends are **hit-for-hit
//!   identical** while indexed work scales with matches instead of app
//!   size.
//!
//! Pick a backend per engine with [`SearchEngine::with_backend`] (or
//! through `backdroid_core::BackdroidOptions::backend` /
//! `AppArtifacts::with_backend` one layer up). Work accounting in
//! [`CacheStats`]: `lines_scanned` is the linear-model grep cost, charged
//! identically under either backend so every detection figure is
//! backend-invariant; `postings_touched` is the candidate lines the
//! indexed backend actually examined (zero under the oracle). The bench
//! harness converts both into scaled minutes to report the two cost
//! models side by side.
//!
//! ## Concurrency model
//!
//! [`SearchEngine`] is a cheaply cloneable handle (`Clone` shares one
//! `Arc`'d interior) whose methods all take `&self`, so one engine can
//! serve many analysis tasks slicing different sink sites of the same
//! app in parallel:
//!
//! * the command cache and the class-level "invoked by" cache are
//!   **sharded** — 16 lock-striped hash maps keyed by the command
//!   value itself, so concurrent tasks rarely contend and a cache hit
//!   never formats a key string;
//! * cache fills are **single-flight** — the shard lock is held across
//!   the backend call, so N tasks missing the same key charge exactly
//!   one execution and N−1 hits, keeping [`CacheStats`] (and therefore
//!   the paper-calibrated scaled minutes) deterministic under any
//!   thread interleaving;
//! * statistics are engine-wide atomic counters; [`CacheStats::since`]
//!   recovers a per-analysis delta from a long-lived shared engine;
//! * the posting lists build lazily in a [`Lazy`] cell, so the first
//!   indexed query from any thread pays the one tokenization pass —
//!   and a text restored from snapshot sections
//!   ([`BytecodeText::from_sections`]) defers even the arena copy and
//!   posting decode until something reads them.
//!
//! ```
//! use backdroid_search::{BackendChoice, BytecodeText, SearchCmd, SearchEngine};
//! use backdroid_dex::{dump_image, DexImage};
//! use backdroid_ir::{ClassBuilder, ClassName, InvokeExpr, MethodBuilder, MethodSig, Program, Type};
//!
//! // Build a one-class app whose go() calls Server.start().
//! let caller = ClassName::new("com.a.Caller");
//! let callee = MethodSig::new("com.a.Server", "start", vec![], Type::Void);
//! let mut m = MethodBuilder::public(&caller, "go", vec![], Type::Void);
//! let srv = m.new_object("com.a.Server", vec![], vec![]);
//! m.invoke(InvokeExpr::call_virtual(callee.clone(), srv, vec![]));
//! let mut p = Program::new();
//! p.add_class(ClassBuilder::new("com.a.Caller").method(m.build()).build());
//!
//! // Disassemble, index, and search for the caller of Server.start() —
//! // once through the posting lists, once through the linear oracle.
//! let dump = dump_image(&DexImage::encode(&p));
//! let engine = SearchEngine::new(BytecodeText::index(&dump)); // Indexed by default
//! let hits = engine.run(&SearchCmd::InvokeOf(callee.clone()));
//! assert_eq!(hits[0].method.to_string(), "<com.a.Caller: void go()>");
//!
//! let oracle = SearchEngine::with_backend(BytecodeText::index(&dump), BackendChoice::LinearScan);
//! assert_eq!(oracle.run(&SearchCmd::InvokeOf(callee)), hits);
//! assert!(engine.stats().postings_touched < oracle.stats().lines_scanned);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
mod engine;
mod index;
mod symbol;
mod text;

pub use backend::{BackendChoice, Indexed, LinearScan, SearchBackend};
pub use engine::{CacheStats, Hit, SearchCmd, SearchEngine, SearchTrace};
pub use index::SearchIndex;
pub use symbol::{Sym, SymbolTable};
pub use text::{parse_proto, BytecodeText, Lazy, MethodSpan};

#[doc(hidden)]
pub use index::string_keyed_postings;
