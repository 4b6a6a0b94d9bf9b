//! Advanced search with forward object taint analysis (paper §IV-B).
//!
//! When the basic signature search finds nothing — super-class dispatch,
//! interface methods, callbacks, asynchronous flows — the advanced search
//! (1) locates the callee class's object constructor(s) via the accurately
//! searchable `new-instance`, then (2) forward-propagates the constructed
//! object through `DefinitionStmt`/`InvokeStmt`/`ReturnStmt` until an
//! *ending method* is reached, and (3) maintains the whole call chain so
//! the later backward search follows only the flow that actually carries
//! the object.

use crate::backtrack::{CallerEdge, ChainStep, EdgeKind};
use crate::context::TaskContext;
use crate::loops::{LoopKind, PathGuard};
use backdroid_ir::{ClassName, LocalId, MethodSig, Rvalue, Stmt, Value};
use backdroid_search::SearchCmd;
use std::collections::BTreeSet;

/// Upper bound on forward-propagation recursion depth (defensive; real
/// chains in the scenarios are short).
const MAX_FORWARD_DEPTH: usize = 24;

/// Runs the advanced search for `callee`, returning one caller edge per
/// discovered flow. Each edge's `caller` is the constructor-site method
/// (the method that `new`s the callee's class) and `via_chain` records the
/// maintained call chain down to the ending method.
pub fn advanced_search(ctx: &mut TaskContext<'_>, callee: &MethodSig) -> Vec<CallerEdge> {
    let class = callee.class().clone();
    // Step 1: search the object constructor(s) — accurately locatable via
    // the signature-based search on `new-instance` (§IV-B step 1).
    let alloc_hits = ctx.engine.run(&SearchCmd::NewInstanceOf(class.clone()));
    let mut edges = Vec::new();
    for hit in alloc_hits {
        let Some(body) = ctx.method(&hit.method).and_then(|m| m.body()) else {
            continue;
        };
        // Find allocation statements of the class inside the hit method.
        let alloc_sites: Vec<(usize, LocalId)> = body
            .stmts()
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                Stmt::Assign {
                    place: backdroid_ir::Place::Local(l),
                    rvalue: Rvalue::New(c),
                } if c == &class => Some((i, *l)),
                _ => None,
            })
            .collect();
        for (site, local) in alloc_sites {
            let mut visited = BTreeSet::new();
            let mut chain = PathGuard::new();
            chain.push(hit.method.clone());
            let mut endings = Vec::new();
            propagate(
                ctx,
                &hit.method,
                site + 1,
                BTreeSet::from([local]),
                callee,
                &mut chain,
                &mut visited,
                &mut endings,
                0,
            );
            for ending in endings {
                edges.push(CallerEdge {
                    caller: hit.method.clone(),
                    site_stmt: Some(site),
                    via_chain: ending,
                    kind: EdgeKind::ObjectFlow,
                });
            }
        }
    }
    edges
}

/// Forward-propagates the tainted object through one method body starting
/// at `start_idx`. Appends to `endings` one completed chain per ending
/// method found. Tracks only the three statement kinds of §IV-B:
/// `DefinitionStmt`, `InvokeStmt`, and `ReturnStmt`.
#[allow(clippy::too_many_arguments)]
fn propagate(
    ctx: &mut TaskContext<'_>,
    method: &MethodSig,
    start_idx: usize,
    mut tainted: BTreeSet<LocalId>,
    target: &MethodSig,
    chain: &mut PathGuard,
    visited: &mut BTreeSet<MethodSig>,
    endings: &mut Vec<Vec<ChainStep>>,
    depth: usize,
) {
    if depth > MAX_FORWARD_DEPTH {
        return;
    }
    let Some(body) = ctx.method(method).and_then(|m| m.body()) else {
        return;
    };
    let stmts = body.stmts().to_vec();
    for (i, stmt) in stmts.iter().enumerate().skip(start_idx) {
        match stmt {
            // DefinitionStmt: plain object moves, casts, and φ merges
            // propagate the taint between locals.
            Stmt::Assign { place, rvalue } => {
                let out_local = match place {
                    backdroid_ir::Place::Local(l) => Some(*l),
                    _ => None,
                };
                let flows = match rvalue {
                    Rvalue::Use(Value::Local(s)) => tainted.contains(s),
                    Rvalue::Cast(_, Value::Local(s)) => tainted.contains(s),
                    Rvalue::Phi(inputs) => inputs.iter().any(|s| tainted.contains(s)),
                    _ => false,
                };
                if let (Some(d), true) = (out_local, flows) {
                    tainted.insert(d);
                }
                // An assigned invoke also participates as an InvokeStmt.
                if let Rvalue::Invoke(ie) = rvalue {
                    handle_invoke(
                        ctx, method, i, ie, &tainted, target, chain, visited, endings, depth,
                    );
                }
            }
            Stmt::Invoke(ie) => {
                handle_invoke(
                    ctx, method, i, ie, &tainted, target, chain, visited, endings, depth,
                );
            }
            Stmt::Return(Some(Value::Local(l))) if tainted.contains(l) => {
                // ReturnStmt: the object escapes to the caller of this
                // method; the flow continues at whoever invoked us, which
                // the enclosing recursion models (factory-style flows
                // resolve because we stepped in from the call site).
            }
            _ => {}
        }
    }
}

/// Examines one invocation carrying tainted operands: either it is the
/// ending method, or the taint steps into an app-defined callee.
#[allow(clippy::too_many_arguments)]
fn handle_invoke(
    ctx: &mut TaskContext<'_>,
    method: &MethodSig,
    stmt_idx: usize,
    ie: &backdroid_ir::InvokeExpr,
    tainted: &BTreeSet<LocalId>,
    target: &MethodSig,
    chain: &mut PathGuard,
    visited: &mut BTreeSet<MethodSig>,
    endings: &mut Vec<Vec<ChainStep>>,
    depth: usize,
) {
    let base_tainted = ie.base.is_some_and(|b| tainted.contains(&b));
    let tainted_args: Vec<usize> = ie
        .args
        .iter()
        .enumerate()
        .filter_map(|(k, a)| match a {
            Value::Local(l) if tainted.contains(l) => Some(k),
            _ => None,
        })
        .collect();
    if !base_tainted && tainted_args.is_empty() {
        return;
    }

    // Ending condition A (super-class case, §IV-B): a virtual call on the
    // tainted object whose declared sub-signature matches the target
    // callee's, dispatched through a supertype of the target's class.
    if base_tainted
        && ie.callee.same_sub_signature(target)
        && (ie.callee.class() == target.class()
            || is_supertype_of(ctx, ie.callee.class(), target.class()))
    {
        endings.push(chain_with(chain, method, stmt_idx));
        return;
    }

    // Ending condition B (interface / callback / async, §IV-B): a platform
    // API call where a tainted *parameter*'s declared type is an interface
    // (or supertype) of the target's class — e.g. the tainted Runnable
    // reaching `Executor.execute(java.lang.Runnable)`. No pre-defined flow
    // table is consulted; the interface class type is the indicator.
    let callee_is_platform =
        ie.callee.class().is_platform() && !ctx.program.defines(ie.callee.class());

    // Ending condition C (asynchronous receiver flows, §IV-B): a platform
    // method invoked *on* the tainted object through a platform supertype
    // of the target's class — `task.execute()` on an AsyncTask subclass,
    // `thread.start()` on a Thread subclass. The declared class being a
    // supertype of the target's class is the indicator.
    if callee_is_platform
        && base_tainted
        && ie.callee.class().as_str() != "java.lang.Object"
        && is_supertype_of(ctx, ie.callee.class(), target.class())
    {
        endings.push(chain_with(chain, method, stmt_idx));
        return;
    }
    if callee_is_platform {
        // The indicator is the *interface* class type (§IV-B): the tainted
        // parameter's declared type must be an interface the target's
        // class implements. `java.lang.Object` carries no signal and is
        // excluded — otherwise any logging call would end the flow.
        let target_ifaces = ctx.program.interfaces_of(target.class());
        for &k in &tainted_args {
            if let Some(param_class) = ie.callee.params().get(k).and_then(|t| t.class_name()) {
                if param_class.as_str() != "java.lang.Object" && target_ifaces.contains(param_class)
                {
                    endings.push(chain_with(chain, method, stmt_idx));
                    return;
                }
            }
        }
        // Platform call that merely consumes the object without a matching
        // interface type: not an ending; taint does not continue inside.
        return;
    }

    // Step into an app-defined callee carrying the taint (the maintained
    // call chain of §IV-B step 4).
    let Some(resolved) = ctx.program.resolve_app_callee(&ie.callee) else {
        return;
    };
    if visited.contains(&resolved) {
        ctx.loops.record(LoopKind::CrossForward);
        return;
    }
    if chain.would_loop(&resolved) {
        ctx.loops.record(LoopKind::InnerForward);
        return;
    }
    let Some(callee_body) = ctx.method(&resolved).and_then(|m| m.body()) else {
        return;
    };
    // Map tainted argument positions (and receiver) to the callee's
    // identity locals.
    let mut callee_tainted = BTreeSet::new();
    for (idx, s) in callee_body.stmts().iter().enumerate() {
        let _ = idx;
        if let Stmt::Identity { local, kind } = s {
            match kind {
                backdroid_ir::IdentityKind::This(_) if base_tainted => {
                    callee_tainted.insert(*local);
                }
                backdroid_ir::IdentityKind::Param(k, _) if tainted_args.contains(k) => {
                    callee_tainted.insert(*local);
                }
                _ => {}
            }
        }
    }
    if callee_tainted.is_empty() {
        return;
    }
    visited.insert(resolved.clone());
    chain.push(resolved.clone());
    propagate(
        ctx,
        &resolved,
        0,
        callee_tainted,
        target,
        chain,
        visited,
        endings,
        depth + 1,
    );
    chain.pop();
}

/// Builds the recorded chain: the methods walked so far plus the ending
/// call site.
fn chain_with(chain: &PathGuard, ending_method: &MethodSig, site: usize) -> Vec<ChainStep> {
    let mut steps: Vec<ChainStep> = chain
        .path()
        .iter()
        .map(|m| ChainStep {
            method: m.clone(),
            site_stmt: None,
        })
        .collect();
    // Overwrite / append the ending step with its concrete call site.
    if steps.last().is_some_and(|s| &s.method == ending_method) {
        steps.last_mut().expect("non-empty").site_stmt = Some(site);
    } else {
        steps.push(ChainStep {
            method: ending_method.clone(),
            site_stmt: Some(site),
        });
    }
    steps
}

/// Whether `maybe_super` is a supertype (class or interface, app-defined
/// or platform) of `class` — platform supertypes are tracked by name via
/// the hierarchy declarations in the IR.
fn is_supertype_of(ctx: &TaskContext<'_>, maybe_super: &ClassName, class: &ClassName) -> bool {
    if maybe_super == class {
        return true;
    }
    if ctx.program.is_subtype_of(class, maybe_super) {
        return true;
    }
    ctx.program.interfaces_of(class).contains(maybe_super)
        || ctx.program.superclass_chain(class).contains(maybe_super)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AppArtifacts;
    use backdroid_ir::{ClassBuilder, InvokeExpr, MethodBuilder, Program, Type};
    use backdroid_manifest::Manifest;

    /// Reconstructs the paper's Fig 4 shape: an anonymous Runnable whose
    /// run() must be traced to connect() through two runInBackground
    /// wrappers ending at Executor.execute().
    fn lg_tv_shape() -> (Program, Manifest) {
        let mut p = Program::new();
        let inner = ClassName::new("com.connectsdk.service.NetcastTVService$1");
        let service = ClassName::new("com.connectsdk.service.NetcastTVService");
        let util = ClassName::new("com.connectsdk.core.Util");

        // The anonymous Runnable.
        let mut ctor = MethodBuilder::constructor(&inner, vec![Type::Object(service.clone())]);
        ctor.ret_void();
        let mut run = MethodBuilder::public(&inner, "run", vec![], Type::Void);
        run.ret_void();
        p.add_class(
            ClassBuilder::new(inner.as_str())
                .implements("java.lang.Runnable")
                .method(ctor.build())
                .method(run.build())
                .build(),
        );

        // NetcastTVService.connect() constructs the Runnable and hands it
        // to Util.runInBackground(Runnable).
        let mut connect = MethodBuilder::public(&service, "connect", vec![], Type::Void);
        let this = connect.this();
        let r11 = connect.new_object(
            inner.as_str(),
            vec![Type::Object(service.clone())],
            vec![Value::Local(this)],
        );
        connect.invoke(InvokeExpr::call_static(
            MethodSig::new(
                util.as_str(),
                "runInBackground",
                vec![Type::object("java.lang.Runnable")],
                Type::Void,
            ),
            vec![Value::Local(r11)],
        ));
        p.add_class(
            ClassBuilder::new(service.as_str())
                .method(connect.build())
                .build(),
        );

        // Util.runInBackground(Runnable) → runInBackground(Runnable, bool)
        // → Executor.execute(Runnable).
        let mut rib1 = MethodBuilder::public_static(
            &util,
            "runInBackground",
            vec![Type::object("java.lang.Runnable")],
            Type::Void,
        );
        let p0 = rib1.param(0);
        rib1.invoke(InvokeExpr::call_static(
            MethodSig::new(
                util.as_str(),
                "runInBackground",
                vec![Type::object("java.lang.Runnable"), Type::Boolean],
                Type::Void,
            ),
            vec![Value::Local(p0), Value::int(0)],
        ));
        let mut rib2 = MethodBuilder::public_static(
            &util,
            "runInBackground",
            vec![Type::object("java.lang.Runnable"), Type::Boolean],
            Type::Void,
        );
        let exec = rib2.local(Type::object("java.util.concurrent.Executor"));
        let p0 = rib2.param(0);
        rib2.invoke(InvokeExpr::call_interface(
            MethodSig::new(
                "java.util.concurrent.Executor",
                "execute",
                vec![Type::object("java.lang.Runnable")],
                Type::Void,
            ),
            exec,
            vec![Value::Local(p0)],
        ));
        p.add_class(
            ClassBuilder::new(util.as_str())
                .method(rib1.build())
                .method(rib2.build())
                .build(),
        );

        (p, Manifest::new("com.lge.app1"))
    }

    #[test]
    fn fig4_chain_is_uncovered() {
        let (p, m) = lg_tv_shape();
        let art = AppArtifacts::new(p.clone(), m.clone());
        let mut ctx = art.task();
        let callee = MethodSig::new(
            "com.connectsdk.service.NetcastTVService$1",
            "run",
            vec![],
            Type::Void,
        );
        let edges = advanced_search(&mut ctx, &callee);
        assert_eq!(edges.len(), 1, "exactly one flow: {edges:?}");
        let e = &edges[0];
        assert_eq!(
            e.caller.to_string(),
            "<com.connectsdk.service.NetcastTVService: void connect()>"
        );
        assert_eq!(e.kind, EdgeKind::ObjectFlow);
        // Chain: connect → runInBackground(Runnable) → runInBackground(Runnable,boolean)
        let names: Vec<String> = e.via_chain.iter().map(|s| s.method.to_string()).collect();
        assert_eq!(names.len(), 3, "{names:?}");
        assert!(names[1].contains("runInBackground(java.lang.Runnable)"));
        assert!(names[2].contains("runInBackground(java.lang.Runnable,boolean)"));
        // The ending step carries the Executor.execute call site.
        assert!(e.via_chain.last().unwrap().site_stmt.is_some());
    }

    #[test]
    fn super_class_dispatch_is_found() {
        // SuperServer server = new NetcastHttpServer(); server.start();
        let mut p = Program::new();
        let sup = ClassName::new("com.x.SuperServer");
        let sub = ClassName::new("com.x.NetcastHttpServer");
        let mut s_start = MethodBuilder::public(&sup, "start", vec![], Type::Void);
        s_start.ret_void();
        let mut s_ctor = MethodBuilder::constructor(&sup, vec![]);
        s_ctor.ret_void();
        p.add_class(
            ClassBuilder::new(sup.as_str())
                .method(s_start.build())
                .method(s_ctor.build())
                .build(),
        );
        let mut b_start = MethodBuilder::public(&sub, "start", vec![], Type::Void);
        b_start.ret_void();
        let mut b_ctor = MethodBuilder::constructor(&sub, vec![]);
        b_ctor.ret_void();
        p.add_class(
            ClassBuilder::new(sub.as_str())
                .extends(sup.as_str())
                .method(b_start.build())
                .method(b_ctor.build())
                .build(),
        );
        // Caller writes through the super-class static type.
        let user = ClassName::new("com.x.User");
        let mut go = MethodBuilder::public(&user, "go", vec![], Type::Void);
        let obj = go.new_object(sub.as_str(), vec![], vec![]);
        let up = go.cast(Type::Object(sup.clone()), Value::Local(obj));
        go.invoke(InvokeExpr::call_virtual(
            MethodSig::new(sup.as_str(), "start", vec![], Type::Void),
            up,
            vec![],
        ));
        p.add_class(ClassBuilder::new(user.as_str()).method(go.build()).build());

        let m = Manifest::new("com.x");
        let art = AppArtifacts::new(p.clone(), m.clone());
        let mut ctx = art.task();
        let callee = MethodSig::new(sub.as_str(), "start", vec![], Type::Void);
        let edges = advanced_search(&mut ctx, &callee);
        assert_eq!(edges.len(), 1, "{edges:?}");
        assert_eq!(edges[0].caller.to_string(), "<com.x.User: void go()>");
    }

    #[test]
    fn unrelated_platform_call_is_not_an_ending() {
        // The tainted object is passed to a platform API whose parameter
        // type is unrelated to the callee class: no ending reported.
        let mut p = Program::new();
        let cls = ClassName::new("com.x.Widget");
        let mut ctor = MethodBuilder::constructor(&cls, vec![]);
        ctor.ret_void();
        let mut cb = MethodBuilder::public(&cls, "onReady", vec![], Type::Void);
        cb.ret_void();
        p.add_class(
            ClassBuilder::new(cls.as_str())
                .method(ctor.build())
                .method(cb.build())
                .build(),
        );
        let user = ClassName::new("com.x.User");
        let mut go = MethodBuilder::public(&user, "go", vec![], Type::Void);
        let w = go.new_object(cls.as_str(), vec![], vec![]);
        go.invoke(InvokeExpr::call_static(
            MethodSig::new(
                "android.util.Log",
                "d",
                vec![Type::string(), Type::object("java.lang.Object")],
                Type::Void,
            ),
            vec![Value::str("tag"), Value::Local(w)],
        ));
        p.add_class(ClassBuilder::new(user.as_str()).method(go.build()).build());
        let m = Manifest::new("com.x");
        let art = AppArtifacts::new(p.clone(), m.clone());
        let mut ctx = art.task();
        let callee = MethodSig::new(cls.as_str(), "onReady", vec![], Type::Void);
        let edges = advanced_search(&mut ctx, &callee);
        assert!(edges.is_empty(), "{edges:?}");
    }

    #[test]
    fn forward_loops_are_detected_not_infinite() {
        // f(obj) calls g(obj) calls f(obj): must terminate and record a loop.
        let mut p = Program::new();
        let cls = ClassName::new("com.x.R");
        let mut ctor = MethodBuilder::constructor(&cls, vec![]);
        ctor.ret_void();
        let mut run = MethodBuilder::public(&cls, "run", vec![], Type::Void);
        run.ret_void();
        p.add_class(
            ClassBuilder::new(cls.as_str())
                .implements("java.lang.Runnable")
                .method(ctor.build())
                .method(run.build())
                .build(),
        );
        let h = ClassName::new("com.x.H");
        let obj_t = Type::Object(cls.clone());
        let mut f = MethodBuilder::public_static(&h, "f", vec![obj_t.clone()], Type::Void);
        let p0 = f.param(0);
        f.invoke(InvokeExpr::call_static(
            MethodSig::new(h.as_str(), "g", vec![obj_t.clone()], Type::Void),
            vec![Value::Local(p0)],
        ));
        let mut g = MethodBuilder::public_static(&h, "g", vec![obj_t.clone()], Type::Void);
        let p0 = g.param(0);
        g.invoke(InvokeExpr::call_static(
            MethodSig::new(h.as_str(), "f", vec![obj_t.clone()], Type::Void),
            vec![Value::Local(p0)],
        ));
        let mut top = MethodBuilder::public_static(&h, "top", vec![], Type::Void);
        let obj = top.new_object(cls.as_str(), vec![], vec![]);
        top.invoke(InvokeExpr::call_static(
            MethodSig::new(h.as_str(), "f", vec![obj_t.clone()], Type::Void),
            vec![Value::Local(obj)],
        ));
        p.add_class(
            ClassBuilder::new(h.as_str())
                .method(f.build())
                .method(g.build())
                .method(top.build())
                .build(),
        );
        let m = Manifest::new("com.x");
        let art = AppArtifacts::new(p.clone(), m.clone());
        let mut ctx = art.task();
        let callee = MethodSig::new(cls.as_str(), "run", vec![], Type::Void);
        let _ = advanced_search(&mut ctx, &callee);
        assert!(
            ctx.loops.count(LoopKind::InnerForward) + ctx.loops.count(LoopKind::CrossForward) > 0,
            "loop must be recorded: {:?}",
            ctx.loops
        );
    }
}
