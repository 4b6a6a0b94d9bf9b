//! The search engine: grep-style commands over the bytecode plaintext,
//! with the multi-granularity caching of paper §IV-F and a pluggable
//! execution backend (linear oracle vs inverted index, see
//! [`crate::backend`]).

use crate::backend::{BackendChoice, SearchBackend};
use crate::text::BytecodeText;
use backdroid_dex::{class_descriptor, field_ref_string, method_ref_string};
use backdroid_ir::{ClassName, FieldSig, MethodSig};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One search command. Each corresponds to a grep the paper's tool issues
/// over the dexdump text. Ordered so dependency traces can hold command
/// sets deterministically.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum SearchCmd {
    /// Invocations of an exact method signature (the basic signature
    /// search of §IV-A).
    InvokeOf(MethodSig),
    /// `new-instance` allocations of a class (constructor location for the
    /// advanced search of §IV-B).
    NewInstanceOf(ClassName),
    /// `const-class` literals of a class (explicit-ICC parameters, §IV-D).
    ConstClass(ClassName),
    /// String literals (implicit-ICC action names, crypto transformation
    /// strings, …).
    ConstString(String),
    /// Any access (iget/iput/sget/sput) of a field.
    FieldAccess(FieldSig),
    /// Static accesses (sget/sput) of a field — used when a newly tainted
    /// static field must reveal its accessor methods (§V-A).
    StaticFieldAccess(FieldSig),
    /// Invocations whose callee *name* matches, regardless of class — used
    /// for ICC calls (`startService` on arbitrary context classes) and
    /// sink wrappers.
    MethodNameCall(String),
}

impl SearchCmd {
    /// The canonical textual command (mirrors the "raw search commands"
    /// the paper's tool logs). Used for display and diagnostics; the
    /// command cache keys on the [`SearchCmd`] value itself, so the hot
    /// path never formats this string.
    pub fn canonical(&self) -> String {
        match self {
            SearchCmd::InvokeOf(m) => format!("invoke:{}", method_ref_string(m)),
            SearchCmd::NewInstanceOf(c) => format!("new:{}", class_descriptor(c)),
            SearchCmd::ConstClass(c) => format!("const-class:{}", class_descriptor(c)),
            SearchCmd::ConstString(s) => format!("const-string:\"{s}\""),
            SearchCmd::FieldAccess(f) => format!("field:{}", field_ref_string(f)),
            SearchCmd::StaticFieldAccess(f) => format!("sfield:{}", field_ref_string(f)),
            SearchCmd::MethodNameCall(n) => format!("call-name:;.{n}:("),
        }
    }

    /// The substring the command greps for — both backends match lines
    /// against this exact needle, which is what keeps them hit-for-hit
    /// identical.
    pub fn needle(&self) -> String {
        match self {
            SearchCmd::InvokeOf(m) => method_ref_string(m),
            SearchCmd::NewInstanceOf(c) => class_descriptor(c),
            SearchCmd::ConstClass(c) => class_descriptor(c),
            SearchCmd::ConstString(s) => format!("\"{s}\""),
            SearchCmd::FieldAccess(f) => field_ref_string(f),
            SearchCmd::StaticFieldAccess(f) => field_ref_string(f),
            SearchCmd::MethodNameCall(n) => format!(";.{n}:("),
        }
    }

    /// The opcode guard a matching line must additionally satisfy (e.g.
    /// an `InvokeOf` needle inside a `new-instance` operand is not a
    /// call site).
    pub fn line_guard(&self) -> fn(&str) -> bool {
        match self {
            SearchCmd::InvokeOf(_) => |l| l.contains("invoke-"),
            SearchCmd::NewInstanceOf(_) => |l| l.contains("new-instance"),
            SearchCmd::ConstClass(_) => |l| l.contains("const-class"),
            SearchCmd::ConstString(_) => |l| l.contains("const-string"),
            SearchCmd::FieldAccess(_) => |l| {
                l.contains("iget") || l.contains("iput") || l.contains("sget") || l.contains("sput")
            },
            SearchCmd::StaticFieldAccess(_) => |l| l.contains("sget") || l.contains("sput"),
            SearchCmd::MethodNameCall(_) => |l| l.contains("invoke-"),
        }
    }
}

/// One search hit: the containing method and the dump line.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Hit {
    /// Method whose code contains the matching line.
    pub method: MethodSig,
    /// Line index into the dump.
    pub line: usize,
}

/// Cache statistics, reported per app (§IV-F: "the cache rate of our
/// search commands in each app is 23.39% on average").
///
/// Two work measures coexist so the bench harness can report both cost
/// models: `lines_scanned` is the **linear model** — the grep lines the
/// paper's tool would scan for the uncached commands issued, charged
/// identically under either backend so detection output and the
/// paper-calibrated scaled minutes never depend on the backend choice —
/// and `postings_touched` is the **indexed model** — the candidate lines
/// the [`Indexed`](crate::Indexed) backend actually examined (zero under
/// [`LinearScan`](crate::LinearScan), where the actual work *is*
/// `lines_scanned`).
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct CacheStats {
    /// Total search commands issued.
    pub commands: u64,
    /// Commands answered from cache.
    pub hits: u64,
    /// Linear-model grep work: dump lines a full scan covers for each
    /// non-cached command (backend-independent).
    pub lines_scanned: u64,
    /// Indexed-model work: posting-list candidate lines examined by the
    /// [`Indexed`](crate::Indexed) backend (zero under
    /// [`LinearScan`](crate::LinearScan)).
    pub postings_touched: u64,
}

impl CacheStats {
    /// Cache hit rate in `[0, 1]`; zero when no command was issued.
    pub fn rate(&self) -> f64 {
        if self.commands == 0 {
            0.0
        } else {
            self.hits as f64 / self.commands as f64
        }
    }

    /// The work done since an earlier snapshot of the same engine's
    /// counters (all fields are monotonic, so this is a plain field-wise
    /// difference). Lets a long-lived shared engine report per-analysis
    /// statistics.
    pub fn since(&self, baseline: &CacheStats) -> CacheStats {
        CacheStats {
            commands: self.commands.saturating_sub(baseline.commands),
            hits: self.hits.saturating_sub(baseline.hits),
            lines_scanned: self.lines_scanned.saturating_sub(baseline.lines_scanned),
            postings_touched: self
                .postings_touched
                .saturating_sub(baseline.postings_touched),
        }
    }
}

/// Number of cache shards. Keys hash-distribute across shards so
/// concurrent tasks rarely contend on the same lock.
const CACHE_SHARDS: usize = 16;

fn shard_of<K: Hash>(key: &K) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % CACHE_SHARDS
}

/// Monotonic engine-wide counters, updated lock-free by concurrent tasks.
#[derive(Debug, Default)]
struct SharedStats {
    commands: AtomicU64,
    hits: AtomicU64,
    lines_scanned: AtomicU64,
    postings_touched: AtomicU64,
}

impl SharedStats {
    fn snapshot(&self) -> CacheStats {
        CacheStats {
            commands: self.commands.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            lines_scanned: self.lines_scanned.load(Ordering::Relaxed),
            postings_touched: self.postings_touched.load(Ordering::Relaxed),
        }
    }
}

/// The shared interior of a [`SearchEngine`]: the indexed text, the
/// execution backend, the sharded caches, and the atomic counters.
#[derive(Debug)]
struct EngineShared {
    text: BytecodeText,
    backend: Box<dyn SearchBackend>,
    backend_choice: BackendChoice,
    cmd_cache: Vec<Mutex<HashMap<SearchCmd, Vec<Hit>>>>,
    class_use_cache: Vec<Mutex<HashMap<ClassName, Vec<ClassName>>>>,
    stats: SharedStats,
    caching: AtomicBool,
}

/// Everything one analysis task asked the search engine, with the
/// answers it got: each command with its hit methods, and each
/// class-level "invoked by" target with the classes that use it. The
/// delta analyzer records one per sink site, then asks the updated
/// image the same questions: if every answer is the same (and the
/// site's method footprint is also untouched), the prior verdict is
/// replayed. Line numbers are not kept: no analysis pass reads them,
/// and unrelated edits shift them.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SearchTrace {
    /// Each distinct [`SearchEngine::run`] command issued, with the
    /// method of each hit, in hit order.
    pub cmds: BTreeMap<SearchCmd, Vec<MethodSig>>,
    /// Each distinct [`SearchEngine::classes_using`] target queried,
    /// with the classes it answered.
    pub class_uses: BTreeMap<ClassName, Vec<ClassName>>,
}

/// The per-app search engine: a cheaply cloneable **handle** on one
/// indexed dump, its caches, and its execution backend.
///
/// All methods take `&self`; clones share the text, the command caches,
/// and the statistics, so one engine can serve many concurrent analysis
/// tasks against the same app image. The command cache is sharded
/// (16 lock-striped maps) and **single-flight**: when several tasks miss
/// the same key simultaneously, exactly one executes the search while
/// the rest wait on the shard and replay the cached hits. Consequently
/// `lines_scanned` / `postings_touched` are charged once per unique
/// uncached command — deterministic under any thread interleaving.
///
/// A handle may additionally carry a [`SearchTrace`] recorder
/// ([`SearchEngine::with_recorder`]): recording is a per-handle
/// property (clones of a recording handle keep recording; the original
/// un-recorded handle does not), so the delta analyzer can scope a
/// trace to one sink site without affecting concurrent tasks.
#[derive(Clone, Debug)]
pub struct SearchEngine {
    shared: Arc<EngineShared>,
    recorder: Option<Arc<Mutex<SearchTrace>>>,
}

impl SearchEngine {
    /// Creates an engine over an indexed dump with the default backend
    /// ([`BackendChoice::Indexed`]).
    pub fn new(text: BytecodeText) -> Self {
        Self::with_backend(text, BackendChoice::default())
    }

    /// Creates an engine with an explicit backend choice.
    pub fn with_backend(text: BytecodeText, choice: BackendChoice) -> Self {
        SearchEngine {
            shared: Arc::new(EngineShared {
                text,
                backend: choice.backend(),
                backend_choice: choice,
                cmd_cache: (0..CACHE_SHARDS).map(|_| Mutex::default()).collect(),
                class_use_cache: (0..CACHE_SHARDS).map(|_| Mutex::default()).collect(),
                stats: SharedStats::default(),
                caching: AtomicBool::new(true),
            }),
            recorder: None,
        }
    }

    /// A handle over the same shared engine that records every command
    /// and `classes_using` target, with its answer, into `trace`.
    /// Recording never changes results, caching, or statistics — it
    /// only observes.
    pub fn with_recorder(&self, trace: Arc<Mutex<SearchTrace>>) -> SearchEngine {
        SearchEngine {
            shared: Arc::clone(&self.shared),
            recorder: Some(trace),
        }
    }

    /// Runs `f` on this handle's recorder, if it has one.
    fn record(&self, f: impl FnOnce(&mut SearchTrace)) {
        if let Some(rec) = &self.recorder {
            f(&mut rec.lock().unwrap_or_else(|e| e.into_inner()));
        }
    }

    /// Disables the search caches — used by the caching ablation bench to
    /// quantify the §IV-F enhancement. Affects every clone of this
    /// engine.
    pub fn set_caching(&self, enabled: bool) {
        self.shared.caching.store(enabled, Ordering::Relaxed);
    }

    /// The underlying indexed text.
    pub fn text(&self) -> &BytecodeText {
        &self.shared.text
    }

    /// The backend executing uncached commands.
    pub fn backend_choice(&self) -> BackendChoice {
        self.shared.backend_choice
    }

    /// Cache statistics so far, across all clones of this engine.
    pub fn stats(&self) -> CacheStats {
        self.shared.stats.snapshot()
    }

    /// Executes one uncached command, charging both work measures.
    fn execute(&self, cmd: &SearchCmd) -> Vec<Hit> {
        let s = &self.shared;
        // Linear-model work charged regardless of backend; the indexed
        // backend adds its own postings_touched measure on top.
        s.stats
            .lines_scanned
            .fetch_add(s.text.line_count() as u64, Ordering::Relaxed);
        let mut local = CacheStats::default();
        let hits = s.backend.search(&s.text, cmd, &mut local);
        s.stats
            .postings_touched
            .fetch_add(local.postings_touched, Ordering::Relaxed);
        hits
    }

    /// Runs (or replays from cache) a search command.
    pub fn run(&self, cmd: &SearchCmd) -> Vec<Hit> {
        let hits = self.run_cached(cmd);
        self.record(|t| {
            t.cmds
                .entry(cmd.clone())
                .or_insert_with(|| hits.iter().map(|h| h.method.clone()).collect());
        });
        hits
    }

    /// [`SearchEngine::run`] without the recording.
    fn run_cached(&self, cmd: &SearchCmd) -> Vec<Hit> {
        let s = &self.shared;
        s.stats.commands.fetch_add(1, Ordering::Relaxed);
        if !s.caching.load(Ordering::Relaxed) {
            return self.execute(cmd);
        }
        // Single-flight: the shard lock is held across the backend call so
        // a concurrent requester of the same command waits and replays the
        // cached hits instead of re-executing (and re-charging) it. The
        // cache keys on the command value itself — no canonical-string
        // formatting on either the hit or the miss path.
        let mut shard = s.cmd_cache[shard_of(cmd)].lock().expect("cache poisoned");
        if let Some(hits) = shard.get(cmd) {
            s.stats.hits.fetch_add(1, Ordering::Relaxed);
            return hits.clone();
        }
        let hits = self.execute(cmd);
        shard.insert(cmd.clone(), hits.clone());
        hits
    }

    /// Classes whose code or hierarchy references `target` — the
    /// class-level "invoked by" search the recursive `<clinit>`
    /// reachability walk uses (§IV-C). Combines code-line hits (mapped to
    /// the containing method's class) with `Superclass`/`Interfaces`
    /// header hits.
    pub fn classes_using(&self, target: &ClassName) -> Vec<ClassName> {
        let users = self.classes_using_cached(target);
        self.record(|t| {
            t.class_uses
                .entry(target.clone())
                .or_insert_with(|| users.clone());
        });
        users
    }

    /// [`SearchEngine::classes_using`] without the recording.
    fn classes_using_cached(&self, target: &ClassName) -> Vec<ClassName> {
        let s = &self.shared;
        s.stats.commands.fetch_add(1, Ordering::Relaxed);
        let execute = || {
            s.stats
                .lines_scanned
                .fetch_add(s.text.line_count() as u64, Ordering::Relaxed);
            let mut local = CacheStats::default();
            let out = s.backend.classes_using(&s.text, target, &mut local);
            s.stats
                .postings_touched
                .fetch_add(local.postings_touched, Ordering::Relaxed);
            out
        };
        if !s.caching.load(Ordering::Relaxed) {
            return execute();
        }
        let mut shard = s.class_use_cache[shard_of(target)]
            .lock()
            .expect("cache poisoned");
        if let Some(cached) = shard.get(target) {
            s.stats.hits.fetch_add(1, Ordering::Relaxed);
            return cached.clone();
        }
        let out = execute();
        shard.insert(target.clone(), out.clone());
        out
    }
}

/// The linear class-level "invoked by" scan — the oracle implementation
/// shared by [`crate::LinearScan`] and mirrored (over candidates only) by
/// [`crate::Indexed`].
pub(crate) fn classes_using_scan(text: &BytecodeText, target: &ClassName) -> Vec<ClassName> {
    let desc = class_descriptor(target);
    let mut out: Vec<ClassName> = Vec::new();
    let mut push = |c: ClassName| {
        if c != *target && !out.contains(&c) {
            out.push(c);
        }
    };
    // Track the current class while scanning headers.
    let mut current_class: Option<ClassName> = None;
    for (i, line) in text.lines().enumerate() {
        let trimmed = line.trim_start();
        if let Some(rest) = trimmed.strip_prefix("Class descriptor  : '") {
            if let Some(d) = rest.strip_suffix('\'') {
                if let Some(backdroid_ir::Type::Object(c)) = backdroid_ir::Type::from_descriptor(d)
                {
                    current_class = Some(c);
                }
            }
            continue;
        }
        if !line.contains(desc.as_str()) {
            continue;
        }
        if trimmed.starts_with("Superclass")
            || trimmed.starts_with("#") && trimmed.contains("'") && !trimmed.contains("(in ")
        {
            // Superclass / interface header referencing the target.
            if let Some(c) = current_class.clone() {
                push(c);
            }
            continue;
        }
        if let Some(m) = text.method_at_line(i) {
            push(m.class().clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::text::BytecodeText;
    use backdroid_dex::{dump_image, DexImage};
    use backdroid_ir::{ClassBuilder, InvokeExpr, MethodBuilder, Modifiers, Program, Type, Value};

    fn engine_for(p: &Program) -> SearchEngine {
        let dump = dump_image(&DexImage::encode(p));
        SearchEngine::new(BytecodeText::index(&dump))
    }

    fn engines_for_both(p: &Program) -> [SearchEngine; 2] {
        let dump = dump_image(&DexImage::encode(p));
        [
            SearchEngine::with_backend(BytecodeText::index(&dump), BackendChoice::LinearScan),
            SearchEngine::with_backend(BytecodeText::index(&dump), BackendChoice::Indexed),
        ]
    }

    fn sample() -> Program {
        let mut p = Program::new();
        let caller = ClassName::new("com.a.Caller");
        let callee_sig = MethodSig::new("com.a.Server", "start", vec![], Type::Void);
        let mut m = MethodBuilder::public(&caller, "go", vec![], Type::Void);
        let srv = m.new_object("com.a.Server", vec![], vec![]);
        m.invoke(InvokeExpr::call_virtual(callee_sig, srv, vec![]));
        let mode = m.assign_const(backdroid_ir::Const::str("AES/ECB/PKCS5Padding"));
        m.invoke(InvokeExpr::call_static(
            MethodSig::new(
                "javax.crypto.Cipher",
                "getInstance",
                vec![Type::string()],
                Type::object("javax.crypto.Cipher"),
            ),
            vec![Value::Local(mode)],
        ));
        p.add_class(ClassBuilder::new(caller.as_str()).method(m.build()).build());
        let server = ClassName::new("com.a.Server");
        let mut ctor = MethodBuilder::constructor(&server, vec![]);
        ctor.ret_void();
        let mut start = MethodBuilder::public(&server, "start", vec![], Type::Void);
        let f = FieldSig::new(server.clone(), "PORT", Type::Int);
        let _v = start.read_static_field(f.clone());
        start.ret_void();
        p.add_class(
            ClassBuilder::new(server.as_str())
                .field("PORT", Type::Int, Modifiers::public_static())
                .method(ctor.build())
                .method(start.build())
                .build(),
        );
        p
    }

    /// Every command the sample program can answer, for oracle checks.
    fn battery() -> Vec<SearchCmd> {
        vec![
            SearchCmd::InvokeOf(MethodSig::new("com.a.Server", "start", vec![], Type::Void)),
            SearchCmd::NewInstanceOf(ClassName::new("com.a.Server")),
            SearchCmd::ConstClass(ClassName::new("com.a.Server")),
            SearchCmd::ConstString("AES/ECB/PKCS5Padding".into()),
            SearchCmd::ConstString("AES/ECB".into()),
            SearchCmd::FieldAccess(FieldSig::new("com.a.Server", "PORT", Type::Int)),
            SearchCmd::StaticFieldAccess(FieldSig::new("com.a.Server", "PORT", Type::Int)),
            SearchCmd::MethodNameCall("getInstance".into()),
            SearchCmd::MethodNameCall("missing".into()),
        ]
    }

    #[test]
    fn invoke_search_finds_caller() {
        let p = sample();
        let e = engine_for(&p);
        let hits = e.run(&SearchCmd::InvokeOf(MethodSig::new(
            "com.a.Server",
            "start",
            vec![],
            Type::Void,
        )));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].method.to_string(), "<com.a.Caller: void go()>");
    }

    #[test]
    fn new_instance_search_finds_allocation_site() {
        let p = sample();
        let e = engine_for(&p);
        let hits = e.run(&SearchCmd::NewInstanceOf(ClassName::new("com.a.Server")));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].method.class().as_str(), "com.a.Caller");
    }

    #[test]
    fn const_string_search() {
        let p = sample();
        let e = engine_for(&p);
        let hits = e.run(&SearchCmd::ConstString("AES/ECB/PKCS5Padding".into()));
        assert_eq!(hits.len(), 1);
        // Partial strings do not match (quotes delimit).
        let hits = e.run(&SearchCmd::ConstString("AES/ECB".into()));
        assert!(hits.is_empty());
    }

    #[test]
    fn static_field_search_excludes_instance_accesses() {
        let p = sample();
        let e = engine_for(&p);
        let f = FieldSig::new("com.a.Server", "PORT", Type::Int);
        let hits = e.run(&SearchCmd::StaticFieldAccess(f.clone()));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].method.name(), "start");
        let all = e.run(&SearchCmd::FieldAccess(f));
        assert_eq!(all.len(), 1);
    }

    #[test]
    fn method_name_call_matches_any_class() {
        let p = sample();
        let e = engine_for(&p);
        let hits = e.run(&SearchCmd::MethodNameCall("getInstance".into()));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].method.class().as_str(), "com.a.Caller");
    }

    #[test]
    fn clones_share_cache_and_stats() {
        let p = sample();
        let e1 = engine_for(&p);
        let e2 = e1.clone();
        let cmd = SearchCmd::MethodNameCall("getInstance".into());
        let first = e1.run(&cmd);
        // The clone replays from the shared cache: one hit, no new scan.
        let lines_after_first = e1.stats().lines_scanned;
        let second = e2.run(&cmd);
        assert_eq!(first, second);
        let stats = e2.stats();
        assert_eq!(stats.commands, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.lines_scanned, lines_after_first);
    }

    #[test]
    fn concurrent_same_command_is_single_flight() {
        let p = sample();
        let e = engine_for(&p);
        let cmd = SearchCmd::InvokeOf(MethodSig::new("com.a.Server", "start", vec![], Type::Void));
        let n = 8;
        let results: Vec<Vec<Hit>> = std::thread::scope(|scope| {
            (0..n)
                .map(|_| {
                    let e = e.clone();
                    let cmd = cmd.clone();
                    scope.spawn(move || e.run(&cmd))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("worker"))
                .collect()
        });
        for r in &results {
            assert_eq!(r, &results[0]);
        }
        let stats = e.stats();
        assert_eq!(stats.commands, n as u64);
        // Exactly one execution was charged, no matter the interleaving.
        assert_eq!(stats.hits, n as u64 - 1);
        assert_eq!(stats.lines_scanned, e.text().line_count() as u64);
    }

    #[test]
    fn stats_since_subtracts_a_snapshot() {
        let p = sample();
        let e = engine_for(&p);
        let _ = e.run(&SearchCmd::MethodNameCall("getInstance".into()));
        let baseline = e.stats();
        let _ = e.run(&SearchCmd::MethodNameCall("getInstance".into()));
        let delta = e.stats().since(&baseline);
        assert_eq!(delta.commands, 1);
        assert_eq!(delta.hits, 1);
        assert_eq!(delta.lines_scanned, 0);
    }

    #[test]
    fn cache_counts_repeat_commands() {
        let p = sample();
        let e = engine_for(&p);
        let cmd = SearchCmd::MethodNameCall("getInstance".into());
        let first = e.run(&cmd);
        let second = e.run(&cmd);
        assert_eq!(first, second);
        let stats = e.stats();
        assert_eq!(stats.commands, 2);
        assert_eq!(stats.hits, 1);
        assert!((stats.rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn backends_agree_on_every_command() {
        let p = sample();
        let [linear, indexed] = engines_for_both(&p);
        for cmd in battery() {
            assert_eq!(linear.run(&cmd), indexed.run(&cmd), "{}", cmd.canonical());
        }
        // Same linear-model accounting on both sides…
        assert_eq!(
            linear.stats().lines_scanned,
            indexed.stats().lines_scanned,
            "lines_scanned must be backend-independent"
        );
        // …but the indexed backend touched far less of the dump.
        assert_eq!(linear.stats().postings_touched, 0);
        assert!(indexed.stats().postings_touched < indexed.stats().lines_scanned);
    }

    #[test]
    fn backends_agree_on_classes_using() {
        let mut p = sample();
        let sub = ClassName::new("com.a.SubServer");
        let mut m = MethodBuilder::public(&sub, "noop", vec![], Type::Void);
        m.ret_void();
        p.add_class(
            ClassBuilder::new(sub.as_str())
                .extends("com.a.Server")
                .method(m.build())
                .build(),
        );
        let [linear, indexed] = engines_for_both(&p);
        for target in ["com.a.Server", "com.a.Caller", "com.absent.Class"] {
            let t = ClassName::new(target);
            assert_eq!(
                linear.classes_using(&t),
                indexed.classes_using(&t),
                "{target}"
            );
        }
    }

    #[test]
    fn classes_using_finds_code_and_hierarchy_refs() {
        let mut p = sample();
        // Add a subclass of Server: a hierarchy reference.
        let sub = ClassName::new("com.a.SubServer");
        let mut m = MethodBuilder::public(&sub, "noop", vec![], Type::Void);
        m.ret_void();
        p.add_class(
            ClassBuilder::new(sub.as_str())
                .extends("com.a.Server")
                .method(m.build())
                .build(),
        );
        let e = engine_for(&p);
        let users = e.classes_using(&ClassName::new("com.a.Server"));
        let names: Vec<&str> = users.iter().map(ClassName::as_str).collect();
        assert!(names.contains(&"com.a.Caller"), "code reference: {names:?}");
        assert!(
            names.contains(&"com.a.SubServer"),
            "hierarchy reference: {names:?}"
        );
        // Cached second call.
        let before = e.stats().hits;
        let _ = e.classes_using(&ClassName::new("com.a.Server"));
        assert_eq!(e.stats().hits, before + 1);
    }

    #[test]
    fn a_recorder_keeps_each_answer_and_changes_no_result() {
        let p = sample();
        let plain = engine_for(&p);
        let trace = Arc::new(Mutex::new(SearchTrace::default()));
        let recording = plain.with_recorder(Arc::clone(&trace));
        let start =
            SearchCmd::InvokeOf(MethodSig::new("com.a.Server", "start", vec![], Type::Void));
        let server = ClassName::new("com.a.Server");
        assert_eq!(recording.run(&start), plain.run(&start));
        assert_eq!(recording.run(&start), plain.run(&start));
        assert_eq!(
            recording.classes_using(&server),
            plain.classes_using(&server)
        );
        let _ = plain.run(&SearchCmd::MethodNameCall("getInstance".into()));
        let trace = trace.lock().unwrap();
        // Only the recording handle's questions, each once, with the
        // methods of its hits and the classes using the target.
        let go = MethodSig::new("com.a.Caller", "go", vec![], Type::Void);
        assert_eq!(trace.cmds, BTreeMap::from([(start, vec![go])]));
        assert_eq!(
            trace.class_uses,
            BTreeMap::from([(server, vec![ClassName::new("com.a.Caller")])])
        );
    }
}
