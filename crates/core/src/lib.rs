//! # backdroid-core
//!
//! A from-scratch reproduction of **BackDroid** — "When Program Analysis
//! Meets Bytecode Search: Targeted and Efficient Inter-procedural Analysis
//! of Modern Android Apps" (Wu et al., DSN 2021).
//!
//! BackDroid avoids whole-app call-graph construction entirely. It greps
//! the disassembled bytecode *text* on the fly whenever a caller must be
//! located, steering a backward, targeted inter-procedural analysis from
//! security-sensitive sink API calls up to Android entry points:
//!
//! 1. **Locate sinks** by text search ([`locate_sinks`]).
//! 2. **Backtrack** with the basic signature search, child-class
//!    signatures, the advanced forward-object-taint search (for super
//!    classes / interfaces / callbacks / async flows), and the special
//!    `<clinit>` / ICC / lifecycle searches ([`find_callers`]).
//! 3. **Slice** backward into a self-contained slicing graph
//!    ([`Ssg`], [`slice_sink`]).
//! 4. **Propagate** constants and points-to facts forward over the SSG
//!    ([`ForwardAnalysis`]) and **judge** the recovered sink parameters
//!    through the [`DetectorRegistry`]'s verdict rules.
//!
//! ## Sessions
//!
//! The preprocessing products — IR program, manifest, indexed dump —
//! live in an owned, `Send + Sync` [`AppArtifacts`] with no lifetime
//! parameter: build it once, share it by `Arc` (a resident app image
//! serving many queries, from as many threads as ask), and start cheap
//! per-task [`TaskContext`]s with [`AppArtifacts::task`].
//! [`Backdroid::analyze`] analyzes the located sink sites one after
//! another on the calling thread, in sink-site order (see [`engine`]'s
//! module docs).
//!
//! ```
//! use backdroid_core::{Backdroid, DetectorRegistry};
//! use backdroid_ir::{ClassBuilder, ClassName, InvokeExpr, MethodBuilder, MethodSig, Program, Type, Value};
//! use backdroid_manifest::{Component, ComponentKind, Manifest};
//!
//! // An activity that creates an ECB cipher in onCreate().
//! let act = ClassName::new("com.example.Main");
//! let mut on_create = MethodBuilder::public(&act, "onCreate", vec![], Type::Void);
//! on_create.invoke(InvokeExpr::call_static(
//!     MethodSig::new("javax.crypto.Cipher", "getInstance",
//!                    vec![Type::string()], Type::object("javax.crypto.Cipher")),
//!     vec![Value::str("AES/ECB/PKCS5Padding")],
//! ));
//! let mut program = Program::new();
//! program.add_class(ClassBuilder::new("com.example.Main")
//!     .extends("android.app.Activity")
//!     .method(on_create.build())
//!     .build());
//! let mut manifest = Manifest::new("com.example");
//! manifest.register(Component::new(ComponentKind::Activity, "com.example.Main"));
//!
//! let report = Backdroid::new().analyze(&program, &manifest);
//! assert_eq!(report.vulnerable_sinks().len(), 1);
//! # assert!(DetectorRegistry::paper().contains("crypto"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advanced;
pub mod backtrack;
pub mod chunks;
pub mod clinit;
pub mod context;
pub mod detect;
pub mod detector;
pub mod engine;
pub mod forward;
pub mod icc;
pub mod leak;
pub mod locate;
pub mod loops;
pub mod reflection;
pub mod sinks;
pub mod slicer;
pub mod snapshot;
pub mod ssg;

pub use backdroid_search::BackendChoice;
pub use backtrack::{find_callers, CallerEdge, ChainStep, EdgeKind, Reached};
pub use chunks::{chunk_key, ChunkManifest, DeltaKind, DeltaManifest};
pub use context::{AppArtifacts, DepTrace, TaskContext};
pub use detect::Verdict;
pub use detector::{DetectorError, DetectorRegistry, DetectorSpec, RuleFn, VerdictRule};
pub use engine::{
    AppReport, Backdroid, BackdroidOptions, DeltaBase, DeltaStats, PhaseTimings, SinkCacheStats,
    SinkReport, SiteTrace,
};
pub use forward::{fold_binop, DataflowValue, ForwardAnalysis};
pub use leak::{default_leak_sinks, default_sources, detect_leaks, Leak, LeakSinkSpec, SourceSpec};
pub use locate::{locate_sinks, SinkSite};
pub use loops::{LoopKind, LoopStats, PathGuard};
pub use reflection::{reflective_callers, resolve_reflective_calls, ReflectiveCall};
pub use sinks::{SinkRegistry, SinkSpec};
pub use slicer::{slice_sink, SliceResult, SlicerConfig};
pub use snapshot::{SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use ssg::{AppSsg, Ssg, SsgEdge, SsgUnit, TaintSet};
