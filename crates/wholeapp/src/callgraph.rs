//! Whole-app call-graph construction — the substrate every pre-BackDroid
//! tool builds first (paper §II-A).
//!
//! Three algorithms of increasing precision/cost are provided, mirroring
//! the paper's comparisons: plain CHA, a SPARK-like flow-insensitive
//! points-to refinement (RTA over instantiated classes), and a
//! `geomPTA`-like context-sensitive variant (the Fig 1 configuration) that
//! re-processes methods per incoming call edge.

use backdroid_ir::{ClassName, InvokeKind, MethodSig, Program, Rvalue, Stmt};
use backdroid_manifest::{AsyncFlowTable, ComponentKind, Manifest};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The call-graph construction algorithm.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CgAlgorithm {
    /// Class-hierarchy analysis: every override is a target.
    Cha,
    /// SPARK-like: dispatch restricted to instantiated classes.
    Spark,
    /// geomPTA-like: SPARK plus per-call-edge context re-processing
    /// (costlier, the Fig 1 configuration).
    GeomPta,
}

/// Why construction stopped early.
#[derive(Clone, Debug, PartialEq)]
pub struct TimedOut {
    /// Work units consumed when the budget ran out.
    pub work_units: u64,
}

/// Construction options.
#[derive(Clone, Debug)]
pub struct CgOptions {
    /// The algorithm.
    pub algorithm: CgAlgorithm,
    /// Async/callback domain-knowledge table (the baseline's hard-coded
    /// edges — see `backdroid_manifest::AsyncFlowTable`).
    pub async_table: AsyncFlowTable,
    /// When `false` (the Amandroid-like default), lifecycle methods of
    /// *any* class extending a component base count as entries, even if
    /// the component is not registered — the §VI-C false-positive source.
    pub manifest_strict: bool,
    /// Package prefixes to skip entirely (Amandroid's `liblist.txt`).
    pub skip_packages: Vec<String>,
    /// Work-unit budget; `None` = unbounded.
    pub budget_units: Option<u64>,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            algorithm: CgAlgorithm::Spark,
            async_table: AsyncFlowTable::baseline(),
            manifest_strict: false,
            skip_packages: Vec::new(),
            budget_units: None,
        }
    }
}

/// The constructed whole-app call graph.
#[derive(Clone, Debug, Default)]
pub struct CallGraph {
    /// Reachable methods.
    pub reached: BTreeSet<MethodSig>,
    /// Call edges (caller → callees).
    pub edges: BTreeMap<MethodSig, BTreeSet<MethodSig>>,
    /// Reverse edges (callee → callers).
    pub callers: BTreeMap<MethodSig, BTreeSet<MethodSig>>,
    /// Classes observed as instantiated.
    pub instantiated: BTreeSet<ClassName>,
    /// Entry methods used.
    pub entries: Vec<MethodSig>,
    /// Work units consumed.
    pub work_units: u64,
}

impl CallGraph {
    /// Number of reachable methods.
    pub fn node_count(&self) -> usize {
        self.reached.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.values().map(BTreeSet::len).sum()
    }
}

/// Enumerates the entry methods, modeling the lifecycle-aware entry
/// synthesis of FlowDroid/Amandroid.
pub fn entry_methods(program: &Program, manifest: &Manifest, strict: bool) -> Vec<MethodSig> {
    let mut entries: Vec<MethodSig> = manifest
        .entry_methods()
        .into_iter()
        .filter(|m| program.method(m).is_some())
        .collect();
    if !strict {
        // Sloppy mode: any class extending a component base contributes
        // its lifecycle handlers, registered or not (the §VI-C FP shape).
        for class in program.classes() {
            let chain = program.superclass_chain(class.name());
            for kind in [
                ComponentKind::Activity,
                ComponentKind::Service,
                ComponentKind::Receiver,
                ComponentKind::Provider,
            ] {
                if chain.contains(&kind.base_class()) {
                    for h in kind.lifecycle_handlers() {
                        let sig = MethodSig::new(
                            class.name().clone(),
                            *h,
                            vec![],
                            backdroid_ir::Type::Void,
                        );
                        if program.method(&sig).is_some() && !entries.contains(&sig) {
                            entries.push(sig);
                        }
                    }
                }
            }
        }
    }
    entries
}

fn skipped(class: &ClassName, skip: &[String]) -> bool {
    skip.iter().any(|p| class.as_str().starts_with(p.as_str()))
}

/// Builds the whole-app call graph.
pub fn build(
    program: &Program,
    manifest: &Manifest,
    opts: &CgOptions,
) -> Result<CallGraph, TimedOut> {
    let mut cg = CallGraph {
        entries: entry_methods(program, manifest, opts.manifest_strict),
        ..CallGraph::default()
    };

    // Fixpoint: RTA needs to re-dispatch when new classes are
    // instantiated; geomPTA re-processes per incoming edge.
    let mut queue: VecDeque<MethodSig> = cg.entries.iter().cloned().collect();
    let mut processed_rounds: BTreeMap<MethodSig, u32> = BTreeMap::new();
    let mut pending_virtuals: Vec<(MethodSig, MethodSig)> = Vec::new(); // (caller, declared)

    while let Some(m) = queue.pop_front() {
        if skipped(m.class(), &opts.skip_packages) {
            continue;
        }
        let rounds = processed_rounds.entry(m.clone()).or_insert(0);
        let max_rounds = match opts.algorithm {
            CgAlgorithm::Cha | CgAlgorithm::Spark => 1,
            // Context-sensitive: re-process per incoming edge, bounded.
            CgAlgorithm::GeomPta => 4,
        };
        if *rounds >= max_rounds && cg.reached.contains(&m) {
            continue;
        }
        *rounds += 1;
        cg.reached.insert(m.clone());
        let Some(body) = program.method(&m).and_then(|x| x.body()) else {
            continue;
        };
        for stmt in body.stmts() {
            cg.work_units += 1;
            if let Some(budget) = opts.budget_units {
                if cg.work_units > budget {
                    return Err(TimedOut {
                        work_units: cg.work_units,
                    });
                }
            }
            // Track instantiations for RTA dispatch.
            if let Stmt::Assign {
                rvalue: Rvalue::New(c),
                ..
            } = stmt
            {
                if cg.instantiated.insert(c.clone()) {
                    // New type: previously unresolved virtual sites may
                    // gain targets — re-queue their callers.
                    for (caller, _) in &pending_virtuals {
                        queue.push_back(caller.clone());
                    }
                }
            }
            let Some(ie) = stmt.invoke_expr() else {
                continue;
            };
            let mut targets: Vec<MethodSig> = Vec::new();
            match ie.kind {
                InvokeKind::Static | InvokeKind::Special | InvokeKind::Super => {
                    targets.extend(program.resolve_app_callee(&ie.callee));
                }
                InvokeKind::Virtual | InvokeKind::Interface => {
                    let cha = program.cha_targets(&ie.callee);
                    match opts.algorithm {
                        CgAlgorithm::Cha => targets = cha,
                        CgAlgorithm::Spark | CgAlgorithm::GeomPta => {
                            // RTA refinement: only instantiated receivers.
                            for t in cha {
                                let cls = t.class();
                                let feasible = cg
                                    .instantiated
                                    .iter()
                                    .any(|ic| ic == cls || program.is_subtype_of(ic, cls))
                                    || !program.defines(cls);
                                if feasible {
                                    targets.push(t);
                                }
                            }
                            pending_virtuals.push((m.clone(), ie.callee.clone()));
                        }
                    }
                }
            }
            // Hard-coded async/callback edges from the domain table — the
            // baseline's only way across implicit flows.
            if opts.async_table.is_registration_api(ie.callee.name()) {
                for (iface, cb) in opts.async_table.callbacks_of(ie.callee.name()) {
                    for class in program.classes() {
                        let implements = program.implements(class.name(), &iface)
                            || program.superclass_chain(class.name()).contains(&iface);
                        if !implements {
                            continue;
                        }
                        if !cg.instantiated.contains(class.name())
                            && opts.algorithm != CgAlgorithm::Cha
                        {
                            continue;
                        }
                        let cb_sig = class
                            .methods()
                            .iter()
                            .find(|mm| mm.sig().name() == cb)
                            .map(|mm| mm.sig().clone());
                        if let Some(cb_sig) = cb_sig {
                            targets.push(cb_sig);
                        }
                    }
                }
            }
            for t in targets {
                if skipped(t.class(), &opts.skip_packages) {
                    continue;
                }
                cg.edges.entry(m.clone()).or_default().insert(t.clone());
                cg.callers.entry(t.clone()).or_default().insert(m.clone());
                if !cg.reached.contains(&t) {
                    queue.push_back(t);
                } else if opts.algorithm == CgAlgorithm::GeomPta {
                    // Context-sensitive re-processing of the callee.
                    queue.push_back(t);
                }
            }
        }
    }
    // Context-sensitive re-analysis: geomPTA re-processes each method once
    // per calling context (bounded), which is where its extra cost — and
    // the Fig 1 timeouts — come from.
    if opts.algorithm == CgAlgorithm::GeomPta {
        let reached: Vec<MethodSig> = cg.reached.iter().cloned().collect();
        for m in reached {
            let contexts = cg.callers.get(&m).map_or(0, |c| c.len()).clamp(1, 3);
            let Some(body) = program.method(&m).and_then(|x| x.body()) else {
                continue;
            };
            for _ctx in 0..contexts {
                for stmt in body.stmts() {
                    cg.work_units += 1;
                    if let Some(budget) = opts.budget_units {
                        if cg.work_units > budget {
                            return Err(TimedOut {
                                work_units: cg.work_units,
                            });
                        }
                    }
                    // Re-resolve dispatch in this context (the precision
                    // work context sensitivity actually performs).
                    if let Some(ie) = stmt.invoke_expr() {
                        let _ = program.cha_targets(&ie.callee);
                    }
                }
            }
        }
    }
    Ok(cg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use backdroid_ir::{ClassBuilder, InvokeExpr, MethodBuilder, Type, Value};
    use backdroid_manifest::Component;

    fn sample() -> (Program, Manifest) {
        let mut p = Program::new();
        let act = ClassName::new("com.a.Main");
        let helper = ClassName::new("com.a.Helper");
        let mut on_create = MethodBuilder::public(&act, "onCreate", vec![], Type::Void);
        let h = on_create.new_object(helper.as_str(), vec![], vec![]);
        on_create.invoke(InvokeExpr::call_virtual(
            MethodSig::new(helper.as_str(), "work", vec![], Type::Void),
            h,
            vec![],
        ));
        p.add_class(
            ClassBuilder::new(act.as_str())
                .extends("android.app.Activity")
                .method(on_create.build())
                .build(),
        );
        let mut ctor = MethodBuilder::constructor(&helper, vec![]);
        ctor.ret_void();
        let mut work = MethodBuilder::public(&helper, "work", vec![], Type::Void);
        work.invoke(InvokeExpr::call_static(
            MethodSig::new("com.a.Util", "log", vec![Type::Int], Type::Void),
            vec![Value::int(1)],
        ));
        p.add_class(
            ClassBuilder::new(helper.as_str())
                .method(ctor.build())
                .method(work.build())
                .build(),
        );
        let util = ClassName::new("com.a.Util");
        let mut log = MethodBuilder::public_static(&util, "log", vec![Type::Int], Type::Void);
        log.ret_void();
        p.add_class(ClassBuilder::new(util.as_str()).method(log.build()).build());

        let mut m = Manifest::new("com.a");
        m.register(Component::new(ComponentKind::Activity, "com.a.Main"));
        (p, m)
    }

    #[test]
    fn reaches_transitive_callees() {
        let (p, m) = sample();
        let cg = build(&p, &m, &CgOptions::default()).unwrap();
        assert!(cg
            .reached
            .iter()
            .any(|s| s.to_string() == "<com.a.Util: void log(int)>"));
        assert!(cg.node_count() >= 4); // onCreate, <init>, work, log
        assert!(cg.edge_count() >= 3);
        assert!(cg.work_units > 0);
    }

    #[test]
    fn budget_times_out() {
        let (p, m) = sample();
        let opts = CgOptions {
            budget_units: Some(2),
            ..CgOptions::default()
        };
        let r = build(&p, &m, &opts);
        assert!(matches!(r, Err(TimedOut { work_units }) if work_units > 2));
    }

    #[test]
    fn sloppy_entries_include_unregistered_components() {
        let (mut p, m) = sample();
        let hidden = ClassName::new("com.a.Hidden");
        let mut oc = MethodBuilder::public(&hidden, "onCreate", vec![], Type::Void);
        oc.ret_void();
        p.add_class(
            ClassBuilder::new(hidden.as_str())
                .extends("android.app.Activity")
                .method(oc.build())
                .build(),
        );
        let sloppy = entry_methods(&p, &m, false);
        assert!(sloppy.iter().any(|e| e.class().as_str() == "com.a.Hidden"));
        let strict = entry_methods(&p, &m, true);
        assert!(!strict.iter().any(|e| e.class().as_str() == "com.a.Hidden"));
    }

    #[test]
    fn skip_packages_prune_the_graph() {
        let (p, m) = sample();
        let opts = CgOptions {
            skip_packages: vec!["com.a.Util".into()],
            ..CgOptions::default()
        };
        let cg = build(&p, &m, &opts).unwrap();
        assert!(!cg
            .reached
            .iter()
            .any(|s| s.class().as_str() == "com.a.Util"));
    }

    #[test]
    fn geompta_costs_more_than_spark() {
        let (p, m) = sample();
        let spark = build(&p, &m, &CgOptions::default()).unwrap();
        let geom = build(
            &p,
            &m,
            &CgOptions {
                algorithm: CgAlgorithm::GeomPta,
                ..CgOptions::default()
            },
        )
        .unwrap();
        assert!(geom.work_units > spark.work_units);
    }

    #[test]
    fn rta_excludes_never_instantiated_overrides() {
        let (mut p, m) = sample();
        // A Helper subclass overriding work() but never instantiated.
        let ghost = ClassName::new("com.a.GhostHelper");
        let mut w = MethodBuilder::public(&ghost, "work", vec![], Type::Void);
        w.ret_void();
        p.add_class(
            ClassBuilder::new(ghost.as_str())
                .extends("com.a.Helper")
                .method(w.build())
                .build(),
        );
        let spark = build(&p, &m, &CgOptions::default()).unwrap();
        assert!(!spark
            .reached
            .iter()
            .any(|s| s.class().as_str() == "com.a.GhostHelper"));
        let cha = build(
            &p,
            &m,
            &CgOptions {
                algorithm: CgAlgorithm::Cha,
                ..CgOptions::default()
            },
        )
        .unwrap();
        assert!(cha
            .reached
            .iter()
            .any(|s| s.class().as_str() == "com.a.GhostHelper"));
    }
}
