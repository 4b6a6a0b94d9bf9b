//! Adjusted backward slicing: builds the self-contained slicing graph for
//! one sink API call during search-driven backtracking (paper §V-A).
//!
//! Differences from classical slicing, as the paper lists them:
//! * inter-procedural steps come from *bytecode search*, not a call graph;
//! * instance fields are tainted together with their base object;
//! * newly tainted static fields trigger a field-signature search so only
//!   the "contained methods" that actually access them are analyzed;
//! * off-path `<clinit>` methods are added into a special static track on
//!   demand after the main pass;
//! * raw typed statements are preserved in the SSG for the forward phase.

use crate::backtrack::{find_callers, CallerEdge, Reached};
use crate::context::TaskContext;
use crate::loops::{LoopKind, PathGuard};
use crate::sinks::SinkSpec;
use crate::ssg::{Ssg, SsgEdge, TaintSet};
use backdroid_ir::{
    FieldSig, IdentityKind, InvokeExpr, LocalId, MethodSig, Place, Rvalue, Stmt, Value,
};
use backdroid_search::SearchCmd;
use std::collections::{BTreeSet, HashSet};

/// Tuning knobs for the slicer.
#[derive(Clone, Copy, Debug)]
pub struct SlicerConfig {
    /// Maximum inter-procedural backtracking depth.
    pub max_depth: usize,
    /// Maximum number of SSG units before the slice is cut off
    /// (defensive bound; never hit by the evaluation workloads).
    pub max_units: usize,
}

impl Default for SlicerConfig {
    fn default() -> Self {
        SlicerConfig {
            max_depth: 48,
            max_units: 200_000,
        }
    }
}

/// The result of slicing one sink call.
#[derive(Debug)]
pub struct SliceResult {
    /// The generated SSG (entries recorded inside).
    pub ssg: Ssg,
    /// Whether the sink call is control-flow reachable from an entry point.
    pub reachable: bool,
}

/// Slices backward from the sink call at `(sink_method, sink_stmt)`.
pub fn slice_sink(
    ctx: &mut TaskContext<'_>,
    config: SlicerConfig,
    sink_method: &MethodSig,
    sink_stmt: usize,
    spec: &SinkSpec,
) -> SliceResult {
    let mut s = BackwardSlicer {
        ctx,
        config,
        ssg: Ssg::new(spec.api.clone()),
        reachable: false,
        seen_frames: HashSet::new(),
    };
    s.run(sink_method, sink_stmt, spec);
    SliceResult {
        reachable: s.reachable,
        ssg: s.ssg,
    }
}

struct BackwardSlicer<'c, 'p> {
    ctx: &'c mut TaskContext<'p>,
    config: SlicerConfig,
    ssg: Ssg,
    reachable: bool,
    /// Deduplicates (method, scan-start, taint set) frames.
    seen_frames: HashSet<(MethodSig, usize, TaintSet)>,
}

impl BackwardSlicer<'_, '_> {
    fn run(&mut self, sink_method: &MethodSig, sink_stmt: usize, spec: &SinkSpec) {
        let Some(body) = self.ctx.method(sink_method).and_then(|m| m.body()) else {
            return;
        };
        let Some(stmt) = body.stmt(sink_stmt) else {
            return;
        };
        let Some(ie) = stmt.invoke_expr() else {
            return;
        };
        let sink_unit = self.ssg.add_unit(sink_method, sink_stmt, stmt);
        self.ssg.set_sink_unit(sink_unit);

        // Taint the tracked sink parameters.
        let mut taints = TaintSet::default();
        for &k in &spec.tracked_params {
            if let Some(Value::Local(l)) = ie.args.get(k) {
                taints.taint_local(*l);
            }
        }

        let mut guard = PathGuard::new();
        guard.push(sink_method.clone());
        self.walk(sink_method, sink_stmt, taints, sink_unit, &mut guard, 0);

        // Off-path static initializers, added on demand (§V-A).
        self.add_off_path_clinits();
    }

    /// Scans `method` backwards from statement `from` (exclusive),
    /// carrying the taint set; on reaching the method head, continues into
    /// callers or records an entry.
    fn walk(
        &mut self,
        method: &MethodSig,
        from: usize,
        mut taints: TaintSet,
        link_unit: usize,
        guard: &mut PathGuard,
        depth: usize,
    ) {
        if depth > self.config.max_depth || self.ssg.units().len() > self.config.max_units {
            return;
        }
        if !self
            .seen_frames
            .insert((method.clone(), from, taints.clone()))
        {
            return;
        }
        let Some(body) = self.ctx.method(method).and_then(|m| m.body()) else {
            return;
        };

        let mut last_unit = link_unit;
        let mut leftover_params: BTreeSet<usize> = BTreeSet::new();
        let mut this_tainted = false;
        let mut leftover_fields: BTreeSet<FieldSig> = BTreeSet::new();

        for idx in (0..from).rev() {
            let stmt = body.stmt(idx).expect("index in range");
            match stmt {
                Stmt::Identity { local, kind } if taints.is_tainted(*local) => {
                    // Record which implicit inputs stay tainted past
                    // the head.
                    match kind {
                        IdentityKind::This(_) => {
                            this_tainted = true;
                            for (b, f) in &taints.instance_fields {
                                if b == local {
                                    leftover_fields.insert(f.clone());
                                }
                            }
                        }
                        IdentityKind::Param(k, _) => {
                            leftover_params.insert(*k);
                        }
                        IdentityKind::CaughtException => {}
                    }
                    let u = self.ssg.add_unit(method, idx, stmt);
                    self.ssg.add_edge(u, last_unit, SsgEdge::Intra);
                    last_unit = u;
                    taints.untaint_local(*local);
                }
                Stmt::Assign { place, rvalue } => {
                    let relevant = self.assign_relevant(place, rvalue, &taints);
                    if !relevant {
                        continue;
                    }
                    let u = self.ssg.add_unit(method, idx, stmt);
                    self.ssg.add_edge(u, last_unit, SsgEdge::Intra);
                    self.transfer_assign(place, rvalue, &mut taints, u, guard, depth);
                    last_unit = u;
                }
                Stmt::Invoke(ie) => {
                    // A bare invoke matters when its receiver is tainted:
                    // constructors initialize the tainted object's state,
                    // and API calls on tainted objects (StringBuilder
                    // .append) feed it.
                    let base_tainted = ie.base.is_some_and(|b| taints.is_tainted(b));
                    if base_tainted {
                        let u = self.ssg.add_unit(method, idx, stmt);
                        self.ssg.add_edge(u, last_unit, SsgEdge::Intra);
                        for a in &ie.args {
                            if let Value::Local(l) = a {
                                taints.taint_local(*l);
                            }
                        }
                        // Dive into an app-defined constructor to capture
                        // the field writes that initialize the object.
                        if ie.callee.is_init() {
                            self.dive_into_contained(ie, u, guard, depth);
                        }
                        last_unit = u;
                    }
                }
                _ => {}
            }
            // Track taints over array writes (weak updates).
            if let Stmt::Assign {
                place: Place::ArrayElem { base, .. },
                rvalue,
            } = stmt
            {
                if taints.is_tainted(*base) {
                    for l in rvalue.operand_locals() {
                        taints.taint_local(l);
                    }
                }
            }
        }

        // Head reached. Entry point?
        if self.ctx.manifest.is_entry_method(method) {
            self.reachable = true;
            self.ssg.add_entry(method.clone());
            // §IV-E: if dataflow is not finished at this handler, earlier
            // lifecycle handlers of the same component may define the
            // leftover fields — analyze them on demand.
            if !leftover_fields.is_empty() {
                self.scan_lifecycle_predecessors(method, &leftover_fields, last_unit, guard, depth);
            }
            return;
        }

        // Nothing left to trace and not an entry: the path is complete in
        // data terms, but control-flow reachability still needs an entry;
        // continue climbing with an empty taint set.
        match find_callers(self.ctx, method) {
            Reached::EntryPoint => {
                self.reachable = true;
                self.ssg.add_entry(method.clone());
            }
            Reached::NoCaller => {}
            Reached::Callers(edges) => {
                for edge in edges {
                    self.continue_in_caller(
                        method,
                        &edge,
                        &leftover_params,
                        this_tainted,
                        &leftover_fields,
                        last_unit,
                        guard,
                        depth,
                    );
                }
            }
        }
    }

    /// Whether an assignment interacts with the current taints.
    fn assign_relevant(&self, place: &Place, rvalue: &Rvalue, taints: &TaintSet) -> bool {
        let _ = rvalue;
        match place {
            Place::Local(l) => taints.is_tainted(*l),
            Place::InstanceField { base, field } => {
                taints.instance_fields.contains(&(*base, field.clone()))
                    || taints.field_tainted(field)
            }
            Place::StaticField(f) => self.ssg.static_taints().contains(f),
            Place::ArrayElem { base, .. } => taints.is_tainted(*base),
        }
    }

    /// Backward transfer for one relevant assignment.
    fn transfer_assign(
        &mut self,
        place: &Place,
        rvalue: &Rvalue,
        taints: &mut TaintSet,
        unit: usize,
        guard: &mut PathGuard,
        depth: usize,
    ) {
        // Strong update of the defined place.
        match place {
            Place::Local(l) => taints.untaint_local(*l),
            Place::InstanceField { base, field } => {
                taints.untaint_instance_field(*base, field);
            }
            Place::StaticField(f) => {
                self.ssg.resolve_static(f);
            }
            Place::ArrayElem { .. } => {}
        }
        // Propagate into the rvalue.
        match rvalue {
            Rvalue::Use(v) | Rvalue::Cast(_, v) | Rvalue::Length(v) => {
                if let Value::Local(l) = v {
                    taints.taint_local(*l);
                }
            }
            Rvalue::Phi(inputs) => {
                for l in inputs {
                    taints.taint_local(*l);
                }
            }
            Rvalue::Read(p) => match p {
                Place::Local(l) => taints.taint_local(*l),
                Place::InstanceField { base, field } => {
                    taints.taint_instance_field(*base, field.clone());
                }
                Place::StaticField(f) => {
                    self.taint_static_with_search(f, unit, guard, depth);
                }
                Place::ArrayElem { base, index } => {
                    taints.taint_local(*base);
                    if let Value::Local(l) = index {
                        taints.taint_local(*l);
                    }
                }
            },
            Rvalue::Binop(_, a, b) => {
                for v in [a, b] {
                    if let Value::Local(l) = v {
                        taints.taint_local(*l);
                    }
                }
            }
            Rvalue::InstanceOf(_, v) => {
                if let Value::Local(l) = v {
                    taints.taint_local(*l);
                }
            }
            Rvalue::New(_) => {
                // Allocation found: the object's origin is resolved; its
                // constructor (a separate bare invoke) initializes state.
            }
            Rvalue::NewArray(_, len) => {
                if let Value::Local(l) = len {
                    taints.taint_local(*l);
                }
            }
            Rvalue::Invoke(ie) => {
                // The tainted value is a call result: taint its inputs and
                // dive into the contained method's return slice.
                if let Some(b) = ie.base {
                    taints.taint_local(b);
                }
                for a in &ie.args {
                    if let Value::Local(l) = a {
                        taints.taint_local(*l);
                    }
                }
                self.dive_into_contained(ie, unit, guard, depth);
            }
        }
    }

    /// Taints a static field; platform fields stay symbolic, app fields
    /// trigger the §V-A accessor search so only matched contained methods
    /// are analyzed.
    fn taint_static_with_search(
        &mut self,
        field: &FieldSig,
        link_unit: usize,
        guard: &mut PathGuard,
        depth: usize,
    ) {
        if self.ssg.static_taints().contains(field) {
            return;
        }
        self.ssg.taint_static(field.clone());
        if field.class().is_platform() && !self.ctx.program.defines(field.class()) {
            // Platform constants (e.g. ALLOW_ALL_HOSTNAME_VERIFIER) are
            // resolved symbolically by the forward phase.
            self.ssg.resolve_static(field);
            return;
        }
        // Search all accessors of the field; analyze the writers.
        // `<clinit>` writers are excluded here: static initializers are
        // never on a call path (the VM runs them implicitly), so their
        // statements belong to the special off-path static track added
        // after the main pass (§V-A).
        let hits = self
            .ctx
            .engine
            .run(&SearchCmd::StaticFieldAccess(field.clone()));
        for hit in hits {
            if hit.method.is_clinit() {
                continue;
            }
            let Some(body) = self.ctx.method(&hit.method).and_then(|m| m.body()) else {
                continue;
            };
            for (idx, stmt) in body.stmts().iter().enumerate() {
                let Stmt::Assign { place, rvalue } = stmt else {
                    continue;
                };
                let Place::StaticField(f) = place else {
                    continue;
                };
                if f != field {
                    continue;
                }
                self.ssg.resolve_static(field);
                let u = self.ssg.add_unit(&hit.method, idx, stmt);
                self.ssg.add_edge(u, link_unit, SsgEdge::Intra);
                // Slice the writer's inputs backward within its method.
                let mut t = TaintSet::default();
                for l in rvalue.operand_locals() {
                    t.taint_local(l);
                }
                if !t.is_empty() {
                    if guard.would_loop(&hit.method) {
                        self.ctx.loops.record(LoopKind::CrossBackward);
                        continue;
                    }
                    guard.push(hit.method.clone());
                    self.walk(&hit.method, idx, t, u, guard, depth + 1);
                    guard.pop();
                }
            }
        }
    }

    /// Dives into an app-defined contained method: for a constructor, the
    /// parameter-to-field writes; for a value-returning call, the return
    /// slice. Connects call and return edges (§V-A).
    fn dive_into_contained(
        &mut self,
        ie: &InvokeExpr,
        call_unit: usize,
        guard: &mut PathGuard,
        depth: usize,
    ) {
        let Some(callee) = self.ctx.program.resolve_app_callee(&ie.callee) else {
            return;
        };
        if guard.would_loop(&callee) {
            self.ctx.loops.record(LoopKind::InnerBackward);
            return;
        }
        let Some(body) = self.ctx.method(&callee).and_then(|m| m.body()) else {
            return;
        };
        guard.push(callee.clone());
        // Return slice: trace each returned value backward.
        for (idx, stmt) in body.stmts().iter().enumerate() {
            if let Stmt::Return(Some(Value::Local(l))) = stmt {
                let ret_unit = self.ssg.add_unit(&callee, idx, stmt);
                self.ssg.add_edge(ret_unit, call_unit, SsgEdge::Return);
                let mut t = TaintSet::default();
                t.taint_local(*l);
                self.walk(&callee, idx, t, ret_unit, guard, depth + 1);
            }
        }
        // Constructor/field-writer slice: trace writes to `this` fields so
        // the forward phase can reconstruct object state.
        if ie.callee.is_init() || ie.base.is_some() {
            let mut this_local: Option<LocalId> = None;
            for stmt in body.stmts() {
                if let Stmt::Identity {
                    local,
                    kind: IdentityKind::This(_),
                } = stmt
                {
                    this_local = Some(*local);
                    break;
                }
            }
            if let Some(this) = this_local {
                for (idx, stmt) in body.stmts().iter().enumerate() {
                    let Stmt::Assign {
                        place: Place::InstanceField { base, .. },
                        rvalue,
                    } = stmt
                    else {
                        continue;
                    };
                    if *base != this {
                        continue;
                    }
                    let u = self.ssg.add_unit(&callee, idx, stmt);
                    self.ssg.add_edge(call_unit, u, SsgEdge::Call);
                    let mut t = TaintSet::default();
                    for l in rvalue.operand_locals() {
                        if l != this {
                            t.taint_local(l);
                        }
                    }
                    if !t.is_empty() {
                        self.walk(&callee, idx, t, u, guard, depth + 1);
                    }
                }
            }
        }
        guard.pop();
    }

    /// Continues the slice in a caller found by search.
    #[allow(clippy::too_many_arguments)]
    fn continue_in_caller(
        &mut self,
        callee: &MethodSig,
        edge: &CallerEdge,
        leftover_params: &BTreeSet<usize>,
        this_tainted: bool,
        leftover_fields: &BTreeSet<FieldSig>,
        callee_top_unit: usize,
        guard: &mut PathGuard,
        depth: usize,
    ) {
        let _ = callee;
        if guard.would_loop(&edge.caller) {
            self.ctx.loops.record(LoopKind::CrossBackward);
            return;
        }
        let Some(body) = self.ctx.method(&edge.caller).and_then(|m| m.body()) else {
            // Callers without IR bodies (shouldn't happen for app code)
            // still count for reachability if they are entries.
            if self.ctx.manifest.is_entry_method(&edge.caller) {
                self.reachable = true;
                self.ssg.add_entry(edge.caller.clone());
            }
            return;
        };
        let site = edge.site_stmt.unwrap_or(body.len());
        let site_stmt = edge.site_stmt.and_then(|s| body.stmt(s));
        // Record the call site and the maintained chain into the SSG.
        let mut link = callee_top_unit;
        if let (Some(s), Some(stmt)) = (edge.site_stmt, site_stmt) {
            let u = self.ssg.add_unit(&edge.caller, s, stmt);
            self.ssg.add_edge(u, callee_top_unit, SsgEdge::Call);
            link = u;
        }
        for step in &edge.via_chain {
            if let (Some(s), Some(b)) = (
                step.site_stmt,
                self.ctx.method(&step.method).and_then(|m| m.body()),
            ) {
                if let Some(stmt) = b.stmt(s) {
                    let u = self.ssg.add_unit(&step.method, s, stmt);
                    self.ssg.add_edge(u, link, SsgEdge::Call);
                }
            }
        }

        // Map leftover taints through the call site.
        let mut t = TaintSet::default();
        let mut scan_from = site;
        match site_stmt {
            // Object-flow edges point at the allocation site: the callee's
            // `this` is the object allocated here. Taint the allocated
            // local (and its fields) and rescan the whole caller, because
            // the defining statements — notably the constructor call —
            // come *after* the allocation.
            Some(Stmt::Assign {
                place: Place::Local(l),
                rvalue: Rvalue::New(_),
            }) => {
                if this_tainted {
                    t.taint_local(*l);
                    for f in leftover_fields {
                        t.taint_instance_field(*l, f.clone());
                    }
                }
                scan_from = body.len();
            }
            Some(stmt) => {
                if let Some(ie) = stmt.invoke_expr() {
                    for &k in leftover_params {
                        if let Some(Value::Local(l)) = ie.args.get(k) {
                            t.taint_local(*l);
                        }
                    }
                    if this_tainted {
                        if let Some(b) = ie.base {
                            t.taint_local(b);
                            for f in leftover_fields {
                                t.taint_instance_field(b, f.clone());
                            }
                        }
                    }
                }
            }
            None => {}
        }

        guard.push(edge.caller.clone());
        self.walk(&edge.caller, scan_from, t, link, guard, depth + 1);
        guard.pop();
    }

    /// §IV-E: on-demand search over earlier lifecycle handlers that may
    /// define fields still tainted when an entry handler is reached.
    fn scan_lifecycle_predecessors(
        &mut self,
        handler: &MethodSig,
        fields: &BTreeSet<FieldSig>,
        link_unit: usize,
        guard: &mut PathGuard,
        depth: usize,
    ) {
        let Some(component) = self.ctx.manifest.component(handler.class()) else {
            return;
        };
        let preds = component.kind().predecessors_of(handler.name());
        for pred in preds {
            let sig = MethodSig::new(
                handler.class().clone(),
                pred,
                vec![],
                backdroid_ir::Type::Void,
            );
            let Some(body) = self.ctx.method(&sig).and_then(|m| m.body()) else {
                continue;
            };
            // Scan the predecessor for writes to the leftover fields.
            for (idx, stmt) in body.stmts().iter().enumerate() {
                let Stmt::Assign {
                    place: Place::InstanceField { field, .. },
                    rvalue,
                } = stmt
                else {
                    continue;
                };
                if !fields.contains(field) {
                    continue;
                }
                let u = self.ssg.add_unit(&sig, idx, stmt);
                self.ssg.add_edge(u, link_unit, SsgEdge::Intra);
                self.ssg.add_entry(sig.clone());
                self.reachable = true;
                let mut t = TaintSet::default();
                for l in rvalue.operand_locals() {
                    t.taint_local(l);
                }
                if !t.is_empty() && !guard.would_loop(&sig) {
                    guard.push(sig.clone());
                    self.walk(&sig, idx, t, u, guard, depth + 1);
                    guard.pop();
                }
            }
        }
    }

    /// After the main pass: resolve remaining static fields from their
    /// classes' `<clinit>` methods, into the special static track (§V-A).
    fn add_off_path_clinits(&mut self) {
        let unresolved: Vec<FieldSig> = self.ssg.unresolved_statics().iter().cloned().collect();
        for field in unresolved {
            let Some(class) = self.ctx.class(field.class()) else {
                continue;
            };
            let Some(clinit) = class.clinit() else {
                continue;
            };
            let sig = clinit.sig();
            let Some(body) = clinit.body() else {
                continue;
            };
            // Only relevant statements enter the static track.
            let mut local_taints: BTreeSet<LocalId> = BTreeSet::new();
            let mut track_units: Vec<usize> = Vec::new();
            for (idx, stmt) in body.stmts().iter().enumerate().rev() {
                let relevant = match stmt {
                    Stmt::Assign {
                        place: Place::StaticField(f),
                        ..
                    } => f == &field,
                    Stmt::Assign {
                        place: Place::Local(l),
                        ..
                    } => local_taints.contains(l),
                    _ => false,
                };
                if !relevant {
                    continue;
                }
                if let Stmt::Assign { rvalue, .. } = stmt {
                    for l in rvalue.operand_locals() {
                        local_taints.insert(l);
                    }
                }
                let u = self.ssg.add_unit(sig, idx, stmt);
                track_units.push(u);
            }
            if !track_units.is_empty() {
                self.ssg.resolve_static(&field);
                // Discovery was backward: reverse into execution order.
                for u in track_units.into_iter().rev() {
                    self.ssg.push_static_track(u);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AppArtifacts;
    use backdroid_ir::{ClassBuilder, ClassName, Const, Modifiers, Program, Type};
    use backdroid_manifest::{Component, ComponentKind, Manifest};

    fn cipher_spec() -> SinkSpec {
        crate::DetectorRegistry::paper().sink_registry().sinks()[0].clone()
    }

    fn cipher_sig() -> MethodSig {
        MethodSig::new(
            "javax.crypto.Cipher",
            "getInstance",
            vec![Type::string()],
            Type::object("javax.crypto.Cipher"),
        )
    }

    /// onCreate stores the mode in a field; onResume reads it and calls
    /// the sink: the §IV-E lifecycle-predecessor scan must pull the
    /// onCreate write into the slice.
    #[test]
    fn lifecycle_predecessor_writes_enter_the_slice() {
        let act = ClassName::new("com.s.Main");
        let field = FieldSig::new(act.clone(), "mode", Type::string());
        let mut on_create =
            backdroid_ir::MethodBuilder::public(&act, "onCreate", vec![], Type::Void);
        let this = on_create.this();
        let v = on_create.assign_const(Const::str("AES/ECB/PKCS5Padding"));
        on_create.write_instance_field(this, field.clone(), Value::Local(v));
        let mut on_resume =
            backdroid_ir::MethodBuilder::public(&act, "onResume", vec![], Type::Void);
        let this = on_resume.this();
        let m = on_resume.read_instance_field(this, field.clone());
        on_resume.invoke(InvokeExpr::call_static(cipher_sig(), vec![Value::Local(m)]));
        let mut p = Program::new();
        p.add_class(
            ClassBuilder::new(act.as_str())
                .extends("android.app.Activity")
                .field("mode", Type::string(), Modifiers::private())
                .method(on_create.build())
                .method(on_resume.build())
                .build(),
        );
        let mut man = Manifest::new("com.s");
        man.register(Component::new(ComponentKind::Activity, act.as_str()));
        let art = AppArtifacts::new(p.clone(), man.clone());
        let mut ctx = art.task();
        let sink_m = MethodSig::new(act.as_str(), "onResume", vec![], Type::Void);
        let body = p.method(&sink_m).unwrap().body().unwrap();
        let sink_idx = body.call_sites_of(&cipher_sig())[0];
        let r = slice_sink(
            &mut ctx,
            SlicerConfig::default(),
            &sink_m,
            sink_idx,
            &cipher_spec(),
        );
        assert!(r.reachable);
        // The onCreate field write is in the SSG.
        assert!(
            r.ssg.units().iter().any(|u| u.method.name() == "onCreate"),
            "predecessor handler statements present: {:#?}",
            r.ssg
                .units()
                .iter()
                .map(|u| u.method.to_string())
                .collect::<Vec<_>>()
        );
        // Both onCreate and onResume are recorded as entries.
        assert!(r.ssg.entries().iter().any(|e| e.name() == "onResume"));
        assert!(r.ssg.entries().iter().any(|e| e.name() == "onCreate"));
    }

    /// The NanoHTTPD shape: the static field's only write lives in
    /// <clinit>; the slicer must add it to the special static track.
    #[test]
    fn off_path_clinit_enters_static_track() {
        let cfg_cls = ClassName::new("com.s.Config");
        let field = FieldSig::new(cfg_cls.clone(), "MODE", Type::string());
        let mut clinit = backdroid_ir::MethodBuilder::clinit(&cfg_cls);
        let v = clinit.assign_const(Const::str("AES/ECB/PKCS5Padding"));
        clinit.write_static_field(field.clone(), Value::Local(v));
        let mut p = Program::new();
        p.add_class(
            ClassBuilder::new(cfg_cls.as_str())
                .field("MODE", Type::string(), Modifiers::public_static())
                .method(clinit.build())
                .build(),
        );
        let act = ClassName::new("com.s.Main");
        let mut on_create =
            backdroid_ir::MethodBuilder::public(&act, "onCreate", vec![], Type::Void);
        let m = on_create.read_static_field(field.clone());
        on_create.invoke(InvokeExpr::call_static(cipher_sig(), vec![Value::Local(m)]));
        p.add_class(
            ClassBuilder::new(act.as_str())
                .extends("android.app.Activity")
                .method(on_create.build())
                .build(),
        );
        let mut man = Manifest::new("com.s");
        man.register(Component::new(ComponentKind::Activity, act.as_str()));
        let art = AppArtifacts::new(p.clone(), man.clone());
        let mut ctx = art.task();
        let sink_m = MethodSig::new(act.as_str(), "onCreate", vec![], Type::Void);
        let body = p.method(&sink_m).unwrap().body().unwrap();
        let sink_idx = body.call_sites_of(&cipher_sig())[0];
        let r = slice_sink(
            &mut ctx,
            SlicerConfig::default(),
            &sink_m,
            sink_idx,
            &cipher_spec(),
        );
        assert!(r.reachable);
        assert!(
            !r.ssg.static_track().is_empty(),
            "off-path <clinit> statements must be on the static track"
        );
        assert!(r
            .ssg
            .static_track()
            .iter()
            .all(|&u| r.ssg.units()[u].method.is_clinit()));
        assert!(r.ssg.unresolved_statics().is_empty(), "field resolved");
    }

    /// Depth limiting cuts runaway recursion without panicking.
    #[test]
    fn depth_limit_is_respected() {
        // a() -> b() -> ... -> sink with a chain longer than max_depth.
        let mut p = Program::new();
        let cls = ClassName::new("com.s.Chain");
        let n = 12usize;
        for k in 0..n {
            let mut mb = backdroid_ir::MethodBuilder::new(
                MethodSig::new(
                    cls.as_str(),
                    format!("f{k}"),
                    vec![Type::string()],
                    Type::Void,
                ),
                Modifiers::public_static(),
            );
            let arg = mb.param(0);
            if k + 1 < n {
                mb.invoke(InvokeExpr::call_static(
                    MethodSig::new(
                        cls.as_str(),
                        format!("f{}", k + 1),
                        vec![Type::string()],
                        Type::Void,
                    ),
                    vec![Value::Local(arg)],
                ));
            } else {
                mb.invoke(InvokeExpr::call_static(
                    cipher_sig(),
                    vec![Value::Local(arg)],
                ));
            }
            p = {
                // add methods one class: build incrementally via single class
                p
            };
            // defer: collect methods below
            let _ = &mb;
            // NOTE: built below
            drop(mb);
        }
        // Rebuild properly: single class with all methods.
        let mut cb = ClassBuilder::new(cls.as_str());
        for k in 0..n {
            let mut mb = backdroid_ir::MethodBuilder::new(
                MethodSig::new(
                    cls.as_str(),
                    format!("f{k}"),
                    vec![Type::string()],
                    Type::Void,
                ),
                Modifiers::public_static(),
            );
            let arg = mb.param(0);
            if k + 1 < n {
                mb.invoke(InvokeExpr::call_static(
                    MethodSig::new(
                        cls.as_str(),
                        format!("f{}", k + 1),
                        vec![Type::string()],
                        Type::Void,
                    ),
                    vec![Value::Local(arg)],
                ));
            } else {
                mb.invoke(InvokeExpr::call_static(
                    cipher_sig(),
                    vec![Value::Local(arg)],
                ));
            }
            cb = cb.method(mb.build());
        }
        let mut p2 = Program::new();
        p2.add_class(cb.build());
        let man = Manifest::new("com.s");
        let art = AppArtifacts::new(p2.clone(), man.clone());
        let mut ctx = art.task();
        let sink_m = MethodSig::new(
            cls.as_str(),
            format!("f{}", n - 1),
            vec![Type::string()],
            Type::Void,
        );
        let body = p2.method(&sink_m).unwrap().body().unwrap();
        let sink_idx = body.call_sites_of(&cipher_sig())[0];
        let tight = SlicerConfig {
            max_depth: 3,
            max_units: 10_000,
        };
        let r = slice_sink(&mut ctx, tight, &sink_m, sink_idx, &cipher_spec());
        // Path cannot reach beyond depth 3; nothing is an entry anyway.
        assert!(!r.reachable);
        assert!(r.ssg.units().len() < 50);
    }
}
