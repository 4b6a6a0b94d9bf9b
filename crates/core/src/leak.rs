//! Privacy-leak detection — the §VII extension the paper sketches:
//! "first employ on-the-fly backward analysis to determine the
//! reachability of a source API call by tracing from sources to entry
//! points, and then launch on-demand forward dataflow analysis starting
//! only for those reachable source calls to determine whether there is a
//! leak from source to sink."
//!
//! The module reuses the targeted machinery: source calls are located by
//! text search, their reachability is established by the same
//! search-driven backward walk the sink analysis uses, and only reachable
//! sources pay for a forward taint propagation into leak sinks.

use crate::context::TaskContext;
use crate::loops::{LoopKind, PathGuard};
use crate::sinks::SinkSpec;
use crate::slicer::{slice_sink, SlicerConfig};
use backdroid_ir::{LocalId, MethodSig, Place, Rvalue, Stmt, Type, Value};
use backdroid_search::SearchCmd;
use std::collections::BTreeSet;

/// A privacy source: a platform API whose *result* is sensitive.
#[derive(Clone, PartialEq, Debug)]
pub struct SourceSpec {
    /// Stable identifier (`source.imei`, `source.location`, …).
    pub id: &'static str,
    /// The platform API signature.
    pub api: MethodSig,
}

/// A leak sink: a platform API that exfiltrates tainted arguments.
#[derive(Clone, PartialEq, Debug)]
pub struct LeakSinkSpec {
    /// Stable identifier (`leak.sms`, `leak.log`, …).
    pub id: &'static str,
    /// Platform class of the API.
    pub class: &'static str,
    /// Method name (any overload).
    pub name: &'static str,
}

/// The default privacy sources (the classic FlowDroid set).
pub fn default_sources() -> Vec<SourceSpec> {
    vec![
        SourceSpec {
            id: "source.imei",
            api: MethodSig::new(
                "android.telephony.TelephonyManager",
                "getDeviceId",
                vec![],
                Type::string(),
            ),
        },
        SourceSpec {
            id: "source.line1",
            api: MethodSig::new(
                "android.telephony.TelephonyManager",
                "getLine1Number",
                vec![],
                Type::string(),
            ),
        },
        SourceSpec {
            id: "source.location",
            api: MethodSig::new(
                "android.location.LocationManager",
                "getLastKnownLocation",
                vec![Type::string()],
                Type::object("android.location.Location"),
            ),
        },
    ]
}

/// The default leak sinks.
pub fn default_leak_sinks() -> Vec<LeakSinkSpec> {
    vec![
        LeakSinkSpec {
            id: "leak.sms",
            class: "android.telephony.SmsManager",
            name: "sendTextMessage",
        },
        LeakSinkSpec {
            id: "leak.log",
            class: "android.util.Log",
            name: "d",
        },
        LeakSinkSpec {
            id: "leak.http",
            class: "java.net.URL",
            name: "openConnection",
        },
        LeakSinkSpec {
            id: "leak.stream",
            class: "java.io.OutputStream",
            name: "write",
        },
    ]
}

/// One detected source→sink leak.
#[derive(Clone, PartialEq, Debug)]
pub struct Leak {
    /// The source id.
    pub source_id: &'static str,
    /// The method containing the source call.
    pub source_method: MethodSig,
    /// The leak-sink id.
    pub sink_id: &'static str,
    /// The method containing the leaking call.
    pub sink_method: MethodSig,
    /// Statement index of the leaking call.
    pub sink_stmt: usize,
    /// The forward taint path (methods traversed, source first).
    pub path: Vec<MethodSig>,
}

/// Detects privacy leaks: locate sources by text search, check each
/// source's entry reachability backward, then forward-taint only the
/// reachable ones into leak sinks.
pub fn detect_leaks(
    ctx: &mut TaskContext<'_>,
    sources: &[SourceSpec],
    sinks: &[LeakSinkSpec],
) -> Vec<Leak> {
    let mut leaks = Vec::new();
    for source in sources {
        // Step 1: locate source call sites by text search.
        let hits = ctx.engine.run(&SearchCmd::InvokeOf(source.api.clone()));
        for hit in hits {
            let Some(body) = ctx
                .program
                .method(&hit.method)
                .and_then(|m| m.body())
                .cloned()
            else {
                continue;
            };
            for (idx, stmt) in body.stmts().iter().enumerate() {
                let Some(ie) = stmt.invoke_expr() else {
                    continue;
                };
                if ie.callee != source.api {
                    continue;
                }
                // Step 2: on-the-fly backward reachability of the source
                // call (reuse the slicer with no tracked parameters —
                // pure control-flow backtracking).
                let probe = SinkSpec::new("leak.probe", source.api.clone(), vec![]);
                let reach = slice_sink(ctx, SlicerConfig::default(), &hit.method, idx, &probe);
                if !reach.reachable {
                    continue;
                }
                // Step 3: on-demand forward taint from the source result.
                let Stmt::Assign {
                    place: Place::Local(result),
                    ..
                } = stmt
                else {
                    continue; // result discarded: nothing can leak
                };
                let mut guard = PathGuard::new();
                guard.push(hit.method.clone());
                let mut visited = BTreeSet::new();
                forward_taint(
                    ctx,
                    source,
                    &hit.method,
                    idx + 1,
                    BTreeSet::from([*result]),
                    sinks,
                    &mut guard,
                    &mut visited,
                    &mut leaks,
                    0,
                );
            }
        }
    }
    leaks.sort_by(|a, b| {
        (a.source_id, &a.sink_method, a.sink_stmt).cmp(&(b.source_id, &b.sink_method, b.sink_stmt))
    });
    leaks.dedup();
    leaks
}

const MAX_LEAK_DEPTH: usize = 24;

/// Forward taint propagation from a source result into leak sinks,
/// stepping into app callees that receive tainted arguments.
#[allow(clippy::too_many_arguments)]
fn forward_taint(
    ctx: &mut TaskContext<'_>,
    source: &SourceSpec,
    method: &MethodSig,
    start: usize,
    mut tainted: BTreeSet<LocalId>,
    sinks: &[LeakSinkSpec],
    guard: &mut PathGuard,
    visited: &mut BTreeSet<MethodSig>,
    leaks: &mut Vec<Leak>,
    depth: usize,
) {
    if depth > MAX_LEAK_DEPTH {
        return;
    }
    let Some(body) = ctx.program.method(method).and_then(|m| m.body()).cloned() else {
        return;
    };
    for (idx, stmt) in body.stmts().iter().enumerate().skip(start) {
        match stmt {
            Stmt::Assign { place, rvalue } => {
                let flows = rvalue.operand_locals().iter().any(|l| tainted.contains(l));
                if flows {
                    if let Place::Local(d) = place {
                        tainted.insert(*d);
                    }
                }
                if let Rvalue::Invoke(ie) = rvalue {
                    check_invoke(
                        ctx, source, method, idx, ie, &tainted, sinks, guard, visited, leaks, depth,
                    );
                }
            }
            Stmt::Invoke(ie) => {
                check_invoke(
                    ctx, source, method, idx, ie, &tainted, sinks, guard, visited, leaks, depth,
                );
            }
            _ => {}
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn check_invoke(
    ctx: &mut TaskContext<'_>,
    source: &SourceSpec,
    method: &MethodSig,
    stmt_idx: usize,
    ie: &backdroid_ir::InvokeExpr,
    tainted: &BTreeSet<LocalId>,
    sinks: &[LeakSinkSpec],
    guard: &mut PathGuard,
    visited: &mut BTreeSet<MethodSig>,
    leaks: &mut Vec<Leak>,
    depth: usize,
) {
    let tainted_args: Vec<usize> = ie
        .args
        .iter()
        .enumerate()
        .filter_map(|(k, a)| match a {
            Value::Local(l) if tainted.contains(l) => Some(k),
            _ => None,
        })
        .collect();
    let base_tainted = ie.base.is_some_and(|b| tainted.contains(&b));
    if tainted_args.is_empty() && !base_tainted {
        return;
    }
    // Leak sink?
    for sink in sinks {
        if ie.callee.name() == sink.name && ie.callee.class().as_str() == sink.class {
            leaks.push(Leak {
                source_id: source.id,
                source_method: guard
                    .path()
                    .first()
                    .cloned()
                    .unwrap_or_else(|| method.clone()),
                sink_id: sink.id,
                sink_method: method.clone(),
                sink_stmt: stmt_idx,
                path: guard.path().to_vec(),
            });
            return;
        }
    }
    // Step into app callees carrying the taint.
    let Some(resolved) = ctx.program.resolve_app_callee(&ie.callee) else {
        return;
    };
    if visited.contains(&resolved) {
        ctx.loops.record(LoopKind::CrossForward);
        return;
    }
    if guard.would_loop(&resolved) {
        ctx.loops.record(LoopKind::InnerForward);
        return;
    }
    let Some(callee_body) = ctx.program.method(&resolved).and_then(|m| m.body()) else {
        return;
    };
    let mut callee_tainted = BTreeSet::new();
    for s in callee_body.stmts() {
        if let Stmt::Identity { local, kind } = s {
            match kind {
                backdroid_ir::IdentityKind::Param(k, _) if tainted_args.contains(k) => {
                    callee_tainted.insert(*local);
                }
                backdroid_ir::IdentityKind::This(_) if base_tainted => {
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
    guard.push(resolved.clone());
    forward_taint(
        ctx,
        source,
        &resolved.clone(),
        0,
        callee_tainted,
        sinks,
        guard,
        visited,
        leaks,
        depth + 1,
    );
    guard.pop();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AppArtifacts;
    use backdroid_ir::{ClassBuilder, ClassName, InvokeExpr, MethodBuilder, Program};
    use backdroid_manifest::{Component, ComponentKind, Manifest};

    fn imei_source() -> MethodSig {
        MethodSig::new(
            "android.telephony.TelephonyManager",
            "getDeviceId",
            vec![],
            Type::string(),
        )
    }

    fn sms_sink() -> MethodSig {
        MethodSig::new(
            "android.telephony.SmsManager",
            "sendTextMessage",
            vec![
                Type::string(),
                Type::string(),
                Type::string(),
                Type::object("android.app.PendingIntent"),
                Type::object("android.app.PendingIntent"),
            ],
            Type::Void,
        )
    }

    /// onCreate: imei = tm.getDeviceId(); helper(imei) → sms.sendTextMessage(.., imei, ..)
    fn leaky_program(registered: bool) -> (Program, Manifest) {
        let mut p = Program::new();
        let act = ClassName::new("com.l.Main");
        let mut helper =
            MethodBuilder::public_static(&act, "exfiltrate", vec![Type::string()], Type::Void);
        let data = helper.param(0);
        let sms = helper.local(Type::object("android.telephony.SmsManager"));
        helper.invoke(InvokeExpr::call_virtual(
            sms_sink(),
            sms,
            vec![
                Value::str("+15551234"),
                Value::Const(backdroid_ir::Const::Null),
                Value::Local(data),
                Value::Const(backdroid_ir::Const::Null),
                Value::Const(backdroid_ir::Const::Null),
            ],
        ));
        let mut oc = MethodBuilder::public(&act, "onCreate", vec![], Type::Void);
        let tm = oc.local(Type::object("android.telephony.TelephonyManager"));
        let imei = oc.invoke_assign(InvokeExpr::call_virtual(imei_source(), tm, vec![]));
        oc.invoke(InvokeExpr::call_static(
            MethodSig::new(act.as_str(), "exfiltrate", vec![Type::string()], Type::Void),
            vec![Value::Local(imei)],
        ));
        p.add_class(
            ClassBuilder::new(act.as_str())
                .extends("android.app.Activity")
                .method(oc.build())
                .method(helper.build())
                .build(),
        );
        let mut man = Manifest::new("com.l");
        if registered {
            man.register(Component::new(ComponentKind::Activity, act.as_str()));
        }
        (p, man)
    }

    #[test]
    fn imei_to_sms_leak_is_detected() {
        let (p, man) = leaky_program(true);
        let art = AppArtifacts::new(p.clone(), man.clone());
        let mut ctx = art.task();
        let leaks = detect_leaks(&mut ctx, &default_sources(), &default_leak_sinks());
        assert_eq!(leaks.len(), 1, "{leaks:?}");
        let l = &leaks[0];
        assert_eq!(l.source_id, "source.imei");
        assert_eq!(l.sink_id, "leak.sms");
        assert_eq!(l.sink_method.name(), "exfiltrate");
        assert!(l.path.iter().any(|m| m.name() == "onCreate"));
    }

    #[test]
    fn unreachable_source_is_skipped() {
        // Same code but the activity is not registered: the backward
        // reachability check prunes the source, so no forward taint runs.
        let (p, man) = leaky_program(false);
        let art = AppArtifacts::new(p.clone(), man.clone());
        let mut ctx = art.task();
        let leaks = detect_leaks(&mut ctx, &default_sources(), &default_leak_sinks());
        assert!(leaks.is_empty(), "{leaks:?}");
    }

    #[test]
    fn untainted_sink_calls_are_not_leaks() {
        // The SMS body is a constant, not the IMEI: no leak.
        let mut p = Program::new();
        let act = ClassName::new("com.l.Clean");
        let mut oc = MethodBuilder::public(&act, "onCreate", vec![], Type::Void);
        let tm = oc.local(Type::object("android.telephony.TelephonyManager"));
        let _imei = oc.invoke_assign(InvokeExpr::call_virtual(imei_source(), tm, vec![]));
        let sms = oc.local(Type::object("android.telephony.SmsManager"));
        oc.invoke(InvokeExpr::call_virtual(
            sms_sink(),
            sms,
            vec![
                Value::str("+15551234"),
                Value::Const(backdroid_ir::Const::Null),
                Value::str("hello"),
                Value::Const(backdroid_ir::Const::Null),
                Value::Const(backdroid_ir::Const::Null),
            ],
        ));
        p.add_class(
            ClassBuilder::new(act.as_str())
                .extends("android.app.Activity")
                .method(oc.build())
                .build(),
        );
        let mut man = Manifest::new("com.l");
        man.register(Component::new(ComponentKind::Activity, act.as_str()));
        let art = AppArtifacts::new(p.clone(), man.clone());
        let mut ctx = art.task();
        let leaks = detect_leaks(&mut ctx, &default_sources(), &default_leak_sinks());
        assert!(leaks.is_empty(), "{leaks:?}");
    }

    #[test]
    fn log_sink_catches_tainted_value() {
        let mut p = Program::new();
        let act = ClassName::new("com.l.Logger");
        let mut oc = MethodBuilder::public(&act, "onCreate", vec![], Type::Void);
        let tm = oc.local(Type::object("android.telephony.TelephonyManager"));
        let imei = oc.invoke_assign(InvokeExpr::call_virtual(imei_source(), tm, vec![]));
        oc.invoke(InvokeExpr::call_static(
            MethodSig::new(
                "android.util.Log",
                "d",
                vec![Type::string(), Type::string()],
                Type::Int,
            ),
            vec![Value::str("tag"), Value::Local(imei)],
        ));
        p.add_class(
            ClassBuilder::new(act.as_str())
                .extends("android.app.Activity")
                .method(oc.build())
                .build(),
        );
        let mut man = Manifest::new("com.l");
        man.register(Component::new(ComponentKind::Activity, act.as_str()));
        let art = AppArtifacts::new(p.clone(), man.clone());
        let mut ctx = art.task();
        let leaks = detect_leaks(&mut ctx, &default_sources(), &default_leak_sinks());
        assert_eq!(leaks.len(), 1);
        assert_eq!(leaks[0].sink_id, "leak.log");
    }
}
