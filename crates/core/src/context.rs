//! The analysis session layer: the two "spaces" of Fig 2 (the bytecode
//! search space and the program analysis space) split into an owned,
//! thread-shareable [`AppArtifacts`] and a cheap per-task
//! [`TaskContext`].
//!
//! `AppArtifacts` is built **once** per app — encode to DEX, disassemble,
//! index — and has no lifetime parameter, so it can live in an `Arc` and
//! serve many concurrent queries against one resident app image (the
//! multi-tenant service shape: the service's pool workers share one
//! image). `TaskContext` is what one analysis task carries: borrowed
//! artifacts, a cloned [`SearchEngine`] handle (clones share the index,
//! caches, and statistics), and the task's private loop counters.

use crate::loops::LoopStats;
use backdroid_dex::{dump_image, DexImage};
use backdroid_ir::wire::{self, WireReader};
use backdroid_ir::{Class, ClassName, Method, MethodSig, Program};
use backdroid_manifest::Manifest;
use backdroid_search::{BackendChoice, BytecodeText, Lazy, SearchEngine};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// The immutable per-app artifacts: the IR program (program analysis
/// space), the Android manifest, and the search engine over the indexed
/// dexdump text (bytecode search space). Owned — no lifetime parameter
/// — and `Send + Sync`, so one instance can be shared by `Arc` (or plain
/// reference inside a scope) across any number of analysis tasks.
///
/// The engine's command caches use interior mutability, but they are
/// semantically transparent: they only memoize pure functions of the
/// dump, so the artifacts behave as an immutable value. An image keeps
/// no per-class digest: an update's class delta is walked from the two
/// programs ([`crate::DeltaManifest::between`]).
///
/// A snapshot restore parks the wire-encoded program in its lazy cell;
/// the class and method counts, read from the section's count prefix,
/// let [`AppArtifacts::estimated_bytes`] answer without decoding it.
#[derive(Debug)]
pub struct AppArtifacts {
    program: Lazy<Program, Vec<u8>>,
    class_count: usize,
    method_count: usize,
    manifest: Manifest,
    engine: SearchEngine,
}

/// Encode → disassemble → index: the shared preprocessing step of §III,
/// used by every artifact constructor that starts from a program and by
/// [`crate::Backdroid::analyze`].
pub(crate) fn build_engine(program: &Program, backend: BackendChoice) -> SearchEngine {
    let image = DexImage::encode(program);
    let dump = dump_image(&image);
    SearchEngine::with_backend(BytecodeText::index(&dump), backend)
}

impl AppArtifacts {
    /// Builds the artifacts by encoding the program to DEX, disassembling
    /// it, and indexing the plaintext — the preprocessing step of §III.
    /// Uses the default search backend ([`BackendChoice::Indexed`]).
    pub fn new(program: Program, manifest: Manifest) -> Self {
        Self::with_backend(program, manifest, BackendChoice::default())
    }

    /// Builds the artifacts with an explicit search-backend choice.
    pub fn with_backend(program: Program, manifest: Manifest, backend: BackendChoice) -> Self {
        let engine = build_engine(&program, backend);
        Self::assemble(program, manifest, engine)
    }

    /// Reassembles artifacts from already-built parts — the restore path
    /// of the snapshot layer (see [`crate::snapshot`]): the text arrives
    /// fully indexed from disk, so no DEX encode, disassembly, or
    /// tokenization runs. The backend is runtime configuration, chosen
    /// by the restorer.
    pub fn from_parts(
        program: Program,
        manifest: Manifest,
        text: BytecodeText,
        backend: BackendChoice,
    ) -> Self {
        Self::assemble(program, manifest, SearchEngine::with_backend(text, backend))
    }

    /// The artifacts of an already-decoded program.
    fn assemble(program: Program, manifest: Manifest, engine: SearchEngine) -> Self {
        AppArtifacts {
            class_count: program.class_count(),
            method_count: program.method_count(),
            program: Lazy::ready(program),
            manifest,
            engine,
        }
    }

    /// Reassembles artifacts with the program still wire-encoded: the
    /// snapshot restore path parks the blob (plus the counts from its
    /// prefix) and decodes it only when [`AppArtifacts::program`] is
    /// first touched. `pub(crate)` — only [`crate::snapshot`] can vouch
    /// that the blob passed its checksum.
    pub(crate) fn from_deferred_parts(
        program_blob: Vec<u8>,
        class_count: usize,
        method_count: usize,
        manifest: Manifest,
        text: BytecodeText,
        backend: BackendChoice,
    ) -> Self {
        AppArtifacts {
            program: Lazy::deferred(program_blob),
            class_count,
            method_count,
            manifest,
            engine: SearchEngine::with_backend(text, backend),
        }
    }

    /// The app's IR program. On a snapshot-restored image the first call
    /// decodes the parked program section; fresh builds pay nothing.
    pub fn program(&self) -> &Program {
        self.program.force(|blob| {
            // The blob passed its section checksum at load time, so the
            // decode cannot fail on bytes a writer produced; an empty
            // program is the total fallback (same stance as the lazy
            // text sections).
            let blob = blob.unwrap_or_default();
            wire::read_program(&mut WireReader::new(&blob)).unwrap_or_default()
        })
    }

    /// Whether the IR program has been decoded. Always `true` for fresh
    /// builds; on a snapshot-restored image it flips on the first
    /// [`AppArtifacts::program`] touch. Observability for the lazy-restore
    /// tests and benchmarks.
    pub fn is_program_materialized(&self) -> bool {
        self.program.is_materialized()
    }

    /// How many of this image's lazily-restorable sections (IR program,
    /// text arena, posting-list index) are currently materialized,
    /// `0..=3`. Always `3` for fresh builds; a manifest-only snapshot
    /// restore reports `0` until first touch. This is the
    /// `lazy_sections_materialized` measure the observability layer
    /// exports and the snapshot benchmark bands.
    pub fn materialized_sections(&self) -> u64 {
        self.is_program_materialized() as u64 + self.engine.text().materialized_sections()
    }

    /// The app's manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The shared bytecode search engine (one index + cache for every
    /// task on these artifacts).
    pub fn engine(&self) -> &SearchEngine {
        &self.engine
    }

    /// A deterministic estimate of this resident app image's memory
    /// footprint in bytes: the indexed dump text (the dominant term —
    /// see [`BytecodeText::resident_bytes`]) plus per-class, per-method,
    /// and per-component bookkeeping for the IR program and manifest.
    ///
    /// This is the unit the serving layer's byte-budgeted app store
    /// accounts in; it is a pure function of the app, so store eviction
    /// decisions replay identically across runs.
    pub fn estimated_bytes(&self) -> u64 {
        const PER_CLASS: u64 = 256;
        const PER_METHOD: u64 = 512;
        const PER_COMPONENT: u64 = 128;
        self.engine.text().resident_bytes()
            + self.class_count as u64 * PER_CLASS
            + self.method_count as u64 * PER_METHOD
            + self.manifest.components().count() as u64 * PER_COMPONENT
    }

    /// Starts one analysis task against these artifacts: a cheap
    /// [`TaskContext`] holding borrowed program/manifest, a cloned engine
    /// handle (shared index, caches, and statistics), and fresh loop
    /// counters. Call from as many threads as you like.
    pub fn task(&self) -> TaskContext<'_> {
        TaskContext {
            program: self.program(),
            manifest: &self.manifest,
            engine: self.engine.clone(),
            loops: LoopStats::default(),
            trace: None,
        }
    }
}

/// The program-side half of a sink site's dependency footprint: which
/// method bodies and class definitions one analysis actually read.
///
/// Together with the search-side [`backdroid_search::SearchTrace`] this
/// is what lets the delta analyzer prove a prior verdict unaffected by
/// a method-body-only app update: hierarchy and signature queries are
/// invariant under such updates, so only *body reads* (recorded here)
/// and *search answers* (recorded there) can change a verdict.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DepTrace {
    /// Methods whose bodies the task fetched.
    pub methods: BTreeSet<MethodSig>,
    /// Classes the task looked up wholesale (e.g. off-path `<clinit>`
    /// collection reads the class definition, then its initializer).
    pub classes: BTreeSet<ClassName>,
}

/// Everything one analysis task needs: the shared app artifacts plus the
/// task's private state (loop counters; slicer budgets travel separately
/// in [`crate::SlicerConfig`]).
///
/// Creating one is O(1) — the engine field is a handle whose clones share
/// the underlying index and caches. One analysis uses one `TaskContext`
/// for its locate step and every sink site.
pub struct TaskContext<'a> {
    /// The app's IR program.
    pub program: &'a Program,
    /// The app's manifest.
    pub manifest: &'a Manifest,
    /// The bytecode search engine handle (shared index and caches).
    pub engine: SearchEngine,
    /// Loop-detection counters accumulated by this task.
    pub loops: LoopStats,
    /// Dependency recorder, set in delta-capture mode for the duration
    /// of one sink site. `None` (the default) records nothing
    /// and costs nothing.
    trace: Option<Arc<Mutex<DepTrace>>>,
}

impl<'a> TaskContext<'a> {
    /// Assembles a task context from explicit parts — used by the sink
    /// loop.
    pub(crate) fn from_parts(
        program: &'a Program,
        manifest: &'a Manifest,
        engine: SearchEngine,
    ) -> Self {
        TaskContext {
            program,
            manifest,
            engine,
            loops: LoopStats::default(),
            trace: None,
        }
    }

    /// Scopes a dependency recorder to this context (delta capture).
    pub(crate) fn set_trace(&mut self, trace: Option<Arc<Mutex<DepTrace>>>) {
        self.trace = trace;
    }

    /// Looks up a method, recording the access when a dependency trace
    /// is active. Analysis passes whose results depend on method
    /// *bodies* must come through here (or [`TaskContext::class`])
    /// rather than `ctx.program` directly — the delta analyzer's
    /// verdict-reuse proof is built from exactly these records.
    pub fn method(&self, sig: &MethodSig) -> Option<&'a Method> {
        if let Some(t) = &self.trace {
            t.lock()
                .unwrap_or_else(|e| e.into_inner())
                .methods
                .insert(sig.clone());
        }
        self.program.method(sig)
    }

    /// Looks up a class definition, recording the access when a
    /// dependency trace is active (see [`TaskContext::method`]).
    pub fn class(&self, name: &ClassName) -> Option<&'a Class> {
        if let Some(t) = &self.trace {
            t.lock()
                .unwrap_or_else(|e| e.into_inner())
                .classes
                .insert(name.clone());
        }
        self.program.class(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backdroid_ir::{ClassBuilder, ClassName, MethodBuilder, Type};
    use backdroid_manifest::{Component, ComponentKind};
    use std::sync::Arc;

    fn one_class_app() -> (Program, Manifest) {
        let name = ClassName::new("com.a.Main");
        let mut m = MethodBuilder::public(&name, "onCreate", vec![], Type::Void);
        m.ret_void();
        let mut p = Program::new();
        p.add_class(ClassBuilder::new("com.a.Main").method(m.build()).build());
        let mut man = Manifest::new("com.a");
        man.register(Component::new(ComponentKind::Activity, "com.a.Main"));
        (p, man)
    }

    #[test]
    fn artifacts_build_engine_from_program() {
        let (p, man) = one_class_app();
        let artifacts = AppArtifacts::new(p, man);
        let ctx = artifacts.task();
        assert!(ctx.engine.text().descriptors().contains("Lcom/a/Main;"));
        assert_eq!(ctx.program.method_count(), 1);
    }

    #[test]
    fn artifacts_are_owned_send_and_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<AppArtifacts>();
    }

    #[test]
    fn tasks_share_one_cache_across_threads() {
        let (p, man) = one_class_app();
        let artifacts = Arc::new(AppArtifacts::new(p, man));
        let cmd = backdroid_search::SearchCmd::MethodNameCall("onCreate".into());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let artifacts = Arc::clone(&artifacts);
                let cmd = cmd.clone();
                scope.spawn(move || {
                    let ctx = artifacts.task();
                    let _ = ctx.engine.run(&cmd);
                });
            }
        });
        let stats = artifacts.engine().stats();
        assert_eq!(stats.commands, 4);
        assert_eq!(stats.hits, 3, "single-flight: one execution, three hits");
    }

    #[test]
    fn estimated_bytes_is_deterministic_and_dominated_by_the_dump() {
        let (p, man) = one_class_app();
        let a = AppArtifacts::new(p, man);
        let estimate = a.estimated_bytes();
        assert!(estimate > a.engine().text().resident_bytes());
        let (p2, man2) = one_class_app();
        let b = AppArtifacts::new(p2, man2);
        assert_eq!(b.estimated_bytes(), estimate, "pure function of the app");
    }
}
