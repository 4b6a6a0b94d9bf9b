//! Forward constant and points-to propagation over an SSG (paper §V-B).
//!
//! The traversal starts with the special static (`<clinit>`) track so
//! static fields referred to by the normal track resolve first, then
//! iterates the normal units to a fixpoint, modeling the six statement
//! expression kinds (`Binop`, `Cast`, `Invoke`, `New`, `NewArray`, `Phi`)
//! and a library of Java/Android API semantics. Object identity is kept
//! through `NewObj`-style facts (allocation-site keyed) and array contents
//! through `ArrayObj` facts, as §V-B describes.

use crate::sinks::SinkSpec;
use crate::ssg::{Ssg, SsgEdge};
use backdroid_ir::{
    BinOp, ClassName, Const, FieldSig, IdentityKind, InvokeExpr, LocalId, MethodSig, Place,
    Program, Rvalue, Stmt, Value,
};
use std::collections::HashMap;
use std::fmt;

/// The dataflow fact for one value: either a computed constant, a symbolic
/// platform constant, an allocation-site object (`NewObj`), an array
/// (`ArrayObj`), or an expression the analysis cannot fold.
#[derive(Clone, PartialEq, Debug)]
#[allow(missing_docs)]
pub enum DataflowValue {
    /// An integral constant.
    Int(i64),
    /// A string constant (possibly assembled via StringBuilder models).
    Str(String),
    /// A `const-class` literal.
    Class(ClassName),
    /// `null`.
    Null,
    /// A symbolic platform constant, e.g.
    /// `SSLSocketFactory.ALLOW_ALL_HOSTNAME_VERIFIER` — kept by name
    /// because the platform's value is opaque to the app analysis.
    PlatformConst(FieldSig),
    /// A `NewObj` fact: an object allocated at SSG unit `site`.
    Obj {
        /// The allocated class.
        class: ClassName,
        /// The allocation-site SSG unit id (object identity).
        site: usize,
    },
    /// An `ArrayObj` fact keyed by its allocation site.
    Arr {
        /// The allocation-site SSG unit id.
        site: usize,
    },
    /// A non-constant expression, rendered for the report.
    Expr(String),
    /// No information.
    Unknown,
}

impl DataflowValue {
    /// The string content, if this fact is a string constant.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            DataflowValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Whether the fact is a concrete constant (paper: "either a constant
    /// or an expression").
    pub fn is_constant(&self) -> bool {
        matches!(
            self,
            DataflowValue::Int(_)
                | DataflowValue::Str(_)
                | DataflowValue::Class(_)
                | DataflowValue::Null
                | DataflowValue::PlatformConst(_)
        )
    }
}

impl fmt::Display for DataflowValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataflowValue::Int(v) => write!(f, "{v}"),
            DataflowValue::Str(s) => write!(f, "\"{s}\""),
            DataflowValue::Class(c) => write!(f, "class {c}"),
            DataflowValue::Null => write!(f, "null"),
            DataflowValue::PlatformConst(c) => write!(f, "{c}"),
            DataflowValue::Obj { class, site } => write!(f, "new {class}@{site}"),
            DataflowValue::Arr { site } => write!(f, "array@{site}"),
            DataflowValue::Expr(e) => write!(f, "expr({e})"),
            DataflowValue::Unknown => write!(f, "?"),
        }
    }
}

/// The forward propagation state and driver.
pub struct ForwardAnalysis<'p> {
    program: &'p Program,
    /// Dependency recorder for the delta analyzer — forward propagation
    /// reads callee bodies when binding parameters, and those reads are
    /// part of a sink site's footprint.
    trace: Option<std::sync::Arc<std::sync::Mutex<crate::context::DepTrace>>>,
    /// Per-flow fact map: (method, local) → fact.
    locals: HashMap<(MethodSig, LocalId), DataflowValue>,
    /// One global fact map for static fields (§V-B).
    statics: HashMap<FieldSig, DataflowValue>,
    /// NewObj member maps: (allocation site, member name) → fact.
    members: HashMap<(usize, String), DataflowValue>,
    /// Field facts by signature, the fallback when the base object's
    /// allocation site is unknown.
    fields_by_sig: HashMap<FieldSig, DataflowValue>,
    /// ArrayObj contents: (allocation site, index) → fact.
    arrays: HashMap<(usize, i64), DataflowValue>,
    /// Return-value facts per method.
    rets: HashMap<MethodSig, DataflowValue>,
}

impl<'p> ForwardAnalysis<'p> {
    /// Creates an analysis over `program`.
    pub fn new(program: &'p Program) -> Self {
        ForwardAnalysis {
            program,
            trace: None,
            locals: HashMap::new(),
            statics: HashMap::new(),
            members: HashMap::new(),
            fields_by_sig: HashMap::new(),
            arrays: HashMap::new(),
            rets: HashMap::new(),
        }
    }

    /// Attaches the delta analyzer's dependency recorder; every callee
    /// body this analysis reads is added to the trace.
    pub fn set_trace(
        &mut self,
        trace: Option<std::sync::Arc<std::sync::Mutex<crate::context::DepTrace>>>,
    ) {
        self.trace = trace;
    }

    /// Runs the propagation over `ssg` and returns the dataflow values of
    /// the sink's tracked parameters.
    pub fn run(&mut self, ssg: &Ssg, spec: &SinkSpec) -> Vec<DataflowValue> {
        // The static track is analyzed first (§V-A/§V-B).
        for pass in 0..3 {
            let _ = pass;
            let mut changed = false;
            for &uid in ssg.static_track() {
                changed |= self.process_unit(ssg, uid);
            }
            if !changed {
                break;
            }
        }
        // Fixpoint over the normal track.
        for _pass in 0..16 {
            let mut changed = false;
            // Execution-ish order: units were discovered backward, so the
            // reverse of discovery order approximates forward order; the
            // fixpoint protects against residual misordering.
            for uid in (0..ssg.units().len()).rev() {
                if ssg.static_track().contains(&uid) {
                    continue;
                }
                changed |= self.process_unit(ssg, uid);
            }
            changed |= self.transfer_edges(ssg);
            if !changed {
                break;
            }
        }
        // Extract sink parameter facts.
        let Some(sink) = ssg.sink_unit() else {
            return spec
                .tracked_params
                .iter()
                .map(|_| DataflowValue::Unknown)
                .collect();
        };
        let Some(ie) = sink.stmt.invoke_expr() else {
            return spec
                .tracked_params
                .iter()
                .map(|_| DataflowValue::Unknown)
                .collect();
        };
        spec.tracked_params
            .iter()
            .map(|&k| match ie.args.get(k) {
                Some(v) => self.eval_value(&sink.method, v),
                None => DataflowValue::Unknown,
            })
            .collect()
    }

    /// Propagates facts across call and return edges.
    fn transfer_edges(&mut self, ssg: &Ssg) -> bool {
        let mut changed = false;
        for &(from, to, label) in ssg.edges() {
            let (fu, tu) = (&ssg.units()[from], &ssg.units()[to]);
            match label {
                SsgEdge::Call if fu.method != tu.method => {
                    // Caller call site → callee: bind parameters.
                    let Some(ie) = fu.stmt.invoke_expr() else {
                        continue;
                    };
                    changed |= self.bind_params(&fu.method, ie, &tu.method);
                }
                SsgEdge::Return if fu.method != tu.method => {
                    // Callee return → call-site result local.
                    let Some(ret) = self.rets.get(&fu.method).cloned() else {
                        continue;
                    };
                    if let Stmt::Assign {
                        place: Place::Local(l),
                        rvalue: Rvalue::Invoke(_),
                    } = &tu.stmt
                    {
                        changed |= self.set_local(&tu.method, *l, ret);
                    }
                }
                _ => {}
            }
        }
        changed
    }

    /// Binds caller arguments (and receiver) to the callee's identity
    /// locals.
    fn bind_params(&mut self, caller: &MethodSig, ie: &InvokeExpr, callee: &MethodSig) -> bool {
        if let Some(t) = &self.trace {
            t.lock()
                .unwrap_or_else(|e| e.into_inner())
                .methods
                .insert(callee.clone());
        }
        let Some(body) = self.program.method(callee).and_then(|m| m.body()) else {
            return false;
        };
        let mut changed = false;
        for stmt in body.stmts() {
            let Stmt::Identity { local, kind } = stmt else {
                continue;
            };
            match kind {
                IdentityKind::This(_) => {
                    if let Some(b) = ie.base {
                        let fact = self.eval_value(caller, &Value::Local(b));
                        changed |= self.set_local(callee, *local, fact);
                    }
                }
                IdentityKind::Param(k, _) => {
                    if let Some(a) = ie.args.get(*k) {
                        let fact = self.eval_value(caller, a);
                        changed |= self.set_local(callee, *local, fact);
                    }
                }
                IdentityKind::CaughtException => {}
            }
        }
        changed
    }

    fn set_local(&mut self, method: &MethodSig, l: LocalId, v: DataflowValue) -> bool {
        if v == DataflowValue::Unknown {
            return false;
        }
        let key = (method.clone(), l);
        if self.locals.get(&key) == Some(&v) {
            return false;
        }
        self.locals.insert(key, v);
        true
    }

    /// Processes one SSG unit; returns whether any fact changed.
    fn process_unit(&mut self, ssg: &Ssg, uid: usize) -> bool {
        let unit = &ssg.units()[uid];
        let method = &unit.method;
        match &unit.stmt {
            Stmt::Assign { place, rvalue } => {
                let fact = self.eval_rvalue(method, rvalue, uid);
                match place {
                    Place::Local(l) => self.set_local(method, *l, fact),
                    Place::InstanceField { base, field } => {
                        let mut changed = false;
                        if let DataflowValue::Obj { site, .. } =
                            self.eval_value(method, &Value::Local(*base))
                        {
                            let key = (site, field.name().to_string());
                            if self.members.get(&key) != Some(&fact)
                                && fact != DataflowValue::Unknown
                            {
                                self.members.insert(key, fact.clone());
                                changed = true;
                            }
                        }
                        if self.fields_by_sig.get(field) != Some(&fact)
                            && fact != DataflowValue::Unknown
                        {
                            self.fields_by_sig.insert(field.clone(), fact);
                            changed = true;
                        }
                        changed
                    }
                    Place::StaticField(f) => {
                        if self.statics.get(f) != Some(&fact) && fact != DataflowValue::Unknown {
                            self.statics.insert(f.clone(), fact);
                            true
                        } else {
                            false
                        }
                    }
                    Place::ArrayElem { base, index } => {
                        let base_fact = self.eval_value(method, &Value::Local(*base));
                        let idx_fact = self.eval_value(method, index);
                        if let (DataflowValue::Arr { site }, DataflowValue::Int(i)) =
                            (base_fact, idx_fact)
                        {
                            if self.arrays.get(&(site, i)) != Some(&fact)
                                && fact != DataflowValue::Unknown
                            {
                                self.arrays.insert((site, i), fact);
                                return true;
                            }
                        }
                        false
                    }
                }
            }
            Stmt::Invoke(ie) => self.model_bare_invoke(method, ie),
            Stmt::Return(Some(v)) => {
                let fact = self.eval_value(method, v);
                if fact != DataflowValue::Unknown && self.rets.get(method) != Some(&fact) {
                    self.rets.insert(method.clone(), fact);
                    true
                } else {
                    false
                }
            }
            _ => false,
        }
    }

    /// Models side effects of bare invokes: constructors that initialize
    /// objects (`StringBuilder(String)`, `Intent(ctx, class)`) and
    /// accumulator APIs (`StringBuilder.append`).
    fn model_bare_invoke(&mut self, method: &MethodSig, ie: &InvokeExpr) -> bool {
        let Some(base) = ie.base else { return false };
        let DataflowValue::Obj { class, site } = self.eval_value(method, &Value::Local(base))
        else {
            return false;
        };
        let mut changed = false;
        let callee_class = ie.callee.class().as_str();
        if ie.callee.is_init() {
            match callee_class {
                "java.lang.StringBuilder" | "java.lang.StringBuffer" => {
                    let init = ie
                        .args
                        .first()
                        .map(|a| self.stringify(method, a))
                        .unwrap_or_default();
                    let key = (site, "__sb".to_string());
                    let v = DataflowValue::Str(init);
                    if self.members.get(&key) != Some(&v) {
                        self.members.insert(key, v);
                        changed = true;
                    }
                }
                "android.content.Intent" => {
                    // Explicit target (const-class) or implicit action.
                    for a in &ie.args {
                        let fact = self.eval_value(method, a);
                        match fact {
                            DataflowValue::Class(c) => {
                                let key = (site, "__target".to_string());
                                self.members.insert(key, DataflowValue::Class(c));
                                changed = true;
                            }
                            DataflowValue::Str(s) => {
                                let key = (site, "__action".to_string());
                                self.members.insert(key, DataflowValue::Str(s));
                                changed = true;
                            }
                            _ => {}
                        }
                    }
                }
                _ => {
                    // App constructors: positional-argument record, so
                    // simple value objects propagate their ctor args.
                    for (k, a) in ie.args.iter().enumerate() {
                        let fact = self.eval_value(method, a);
                        if fact != DataflowValue::Unknown {
                            let key = (site, format!("__ctor{k}"));
                            if self.members.get(&key) != Some(&fact) {
                                self.members.insert(key, fact);
                                changed = true;
                            }
                        }
                    }
                }
            }
            return changed;
        }
        match (class.as_str(), ie.callee.name()) {
            ("java.lang.StringBuilder" | "java.lang.StringBuffer", "append") => {
                let cur = self
                    .members
                    .get(&(site, "__sb".to_string()))
                    .and_then(|v| v.as_str().map(str::to_string))
                    .unwrap_or_default();
                let suffix = ie
                    .args
                    .first()
                    .map(|a| self.stringify(method, a))
                    .unwrap_or_default();
                let v = DataflowValue::Str(format!("{cur}{suffix}"));
                let key = (site, "__sb".to_string());
                if self.members.get(&key) != Some(&v) {
                    self.members.insert(key, v);
                    changed = true;
                }
            }
            ("android.content.Intent", "putExtra") => {
                if let (Some(k), Some(v)) = (ie.args.first(), ie.args.get(1)) {
                    if let DataflowValue::Str(key_s) = self.eval_value(method, k) {
                        let fact = self.eval_value(method, v);
                        let key = (site, format!("extra:{key_s}"));
                        if self.members.get(&key) != Some(&fact) && fact != DataflowValue::Unknown {
                            self.members.insert(key, fact);
                            changed = true;
                        }
                    }
                }
            }
            ("android.content.Intent", "setAction") => {
                if let Some(a) = ie.args.first() {
                    let fact = self.eval_value(method, a);
                    let key = (site, "__action".to_string());
                    if self.members.get(&key) != Some(&fact) && fact != DataflowValue::Unknown {
                        self.members.insert(key, fact);
                        changed = true;
                    }
                }
            }
            _ => {}
        }
        changed
    }

    /// Evaluates a value in a method context.
    pub fn eval_value(&self, method: &MethodSig, v: &Value) -> DataflowValue {
        match v {
            Value::Const(c) => match c {
                Const::Int(i) => DataflowValue::Int(*i),
                Const::Float(fl) => DataflowValue::Expr(format!("{fl}")),
                Const::Str(s) => DataflowValue::Str(s.clone()),
                Const::Class(c) => DataflowValue::Class(c.clone()),
                Const::Null => DataflowValue::Null,
            },
            Value::Local(l) => self
                .locals
                .get(&(method.clone(), *l))
                .cloned()
                .unwrap_or(DataflowValue::Unknown),
        }
    }

    fn stringify(&self, method: &MethodSig, v: &Value) -> String {
        match self.eval_value(method, v) {
            DataflowValue::Str(s) => s,
            DataflowValue::Int(i) => i.to_string(),
            DataflowValue::Null => "null".into(),
            other => format!("{other}"),
        }
    }

    /// Evaluates an rvalue. `uid` is the evaluating SSG unit (used as the
    /// allocation site for `New`/`NewArray`).
    fn eval_rvalue(&mut self, method: &MethodSig, rvalue: &Rvalue, uid: usize) -> DataflowValue {
        match rvalue {
            Rvalue::Use(v) => self.eval_value(method, v),
            Rvalue::Cast(_, v) => self.eval_value(method, v),
            Rvalue::Length(v) => match self.eval_value(method, v) {
                DataflowValue::Arr { .. } => DataflowValue::Expr("lengthof array".into()),
                _ => DataflowValue::Unknown,
            },
            Rvalue::InstanceOf(_, _) => DataflowValue::Unknown,
            Rvalue::Read(p) => self.eval_place(method, p),
            Rvalue::Binop(op, a, b) => {
                let fa = self.eval_value(method, a);
                let fb = self.eval_value(method, b);
                fold_binop(*op, &fa, &fb)
            }
            Rvalue::New(c) => DataflowValue::Obj {
                class: c.clone(),
                site: uid,
            },
            Rvalue::NewArray(_, _) => DataflowValue::Arr { site: uid },
            Rvalue::Phi(inputs) => {
                let facts: Vec<DataflowValue> = inputs
                    .iter()
                    .map(|l| self.eval_value(method, &Value::Local(*l)))
                    .collect();
                match facts.split_first() {
                    Some((first, rest)) if rest.iter().all(|f| f == first) => first.clone(),
                    _ => DataflowValue::Expr(format!(
                        "Phi({})",
                        facts
                            .iter()
                            .map(|f| f.to_string())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )),
                }
            }
            Rvalue::Invoke(ie) => self.eval_invoke(method, ie),
        }
    }

    fn eval_place(&self, method: &MethodSig, p: &Place) -> DataflowValue {
        match p {
            Place::Local(l) => self.eval_value(method, &Value::Local(*l)),
            Place::StaticField(f) => {
                if let Some(v) = self.statics.get(f) {
                    return v.clone();
                }
                if f.class().is_platform() {
                    // Symbolic platform constant, e.g.
                    // ALLOW_ALL_HOSTNAME_VERIFIER.
                    return DataflowValue::PlatformConst(f.clone());
                }
                DataflowValue::Unknown
            }
            Place::InstanceField { base, field } => {
                if let DataflowValue::Obj { site, .. } =
                    self.eval_value(method, &Value::Local(*base))
                {
                    if let Some(v) = self.members.get(&(site, field.name().to_string())) {
                        return v.clone();
                    }
                }
                self.fields_by_sig
                    .get(field)
                    .cloned()
                    .unwrap_or(DataflowValue::Unknown)
            }
            Place::ArrayElem { base, index } => {
                let base_fact = self.eval_value(method, &Value::Local(*base));
                let idx_fact = self.eval_value(method, index);
                if let (DataflowValue::Arr { site }, DataflowValue::Int(i)) = (base_fact, idx_fact)
                {
                    if let Some(v) = self.arrays.get(&(site, i)) {
                        return v.clone();
                    }
                }
                DataflowValue::Unknown
            }
        }
    }

    /// Models the result of a value-returning invoke: Java string APIs and
    /// app-method return facts; everything else becomes an expression.
    fn eval_invoke(&mut self, method: &MethodSig, ie: &InvokeExpr) -> DataflowValue {
        let cls = ie.callee.class().as_str();
        let name = ie.callee.name();
        match (cls, name) {
            ("java.lang.StringBuilder" | "java.lang.StringBuffer", "toString") => {
                if let Some(base) = ie.base {
                    if let DataflowValue::Obj { site, .. } =
                        self.eval_value(method, &Value::Local(base))
                    {
                        if let Some(v) = self.members.get(&(site, "__sb".to_string())) {
                            return v.clone();
                        }
                    }
                }
                DataflowValue::Unknown
            }
            ("java.lang.StringBuilder" | "java.lang.StringBuffer", "append") => {
                // Chained-style append: result aliases the builder.
                if let Some(base) = ie.base {
                    return self.eval_value(method, &Value::Local(base));
                }
                DataflowValue::Unknown
            }
            ("java.lang.String", "valueOf") => ie
                .args
                .first()
                .map(|a| DataflowValue::Str(self.stringify(method, a)))
                .unwrap_or(DataflowValue::Unknown),
            ("java.lang.String", "concat") => {
                let (Some(base), Some(arg)) = (ie.base, ie.args.first()) else {
                    return DataflowValue::Unknown;
                };
                match (
                    self.eval_value(method, &Value::Local(base)),
                    self.eval_value(method, arg),
                ) {
                    (DataflowValue::Str(a), DataflowValue::Str(b)) => {
                        DataflowValue::Str(format!("{a}{b}"))
                    }
                    _ => DataflowValue::Unknown,
                }
            }
            ("java.lang.String", "toLowerCase") => ie
                .base
                .map(|b| match self.eval_value(method, &Value::Local(b)) {
                    DataflowValue::Str(s) => DataflowValue::Str(s.to_lowercase()),
                    _ => DataflowValue::Unknown,
                })
                .unwrap_or(DataflowValue::Unknown),
            ("java.lang.String", "toUpperCase") => ie
                .base
                .map(|b| match self.eval_value(method, &Value::Local(b)) {
                    DataflowValue::Str(s) => DataflowValue::Str(s.to_uppercase()),
                    _ => DataflowValue::Unknown,
                })
                .unwrap_or(DataflowValue::Unknown),
            ("java.lang.Integer", "parseInt") => match ie.args.first() {
                Some(a) => match self.eval_value(method, a) {
                    DataflowValue::Str(s) => s
                        .parse::<i64>()
                        .map(DataflowValue::Int)
                        .unwrap_or(DataflowValue::Unknown),
                    _ => DataflowValue::Unknown,
                },
                None => DataflowValue::Unknown,
            },
            ("android.content.Intent", "getStringExtra") => {
                let (Some(base), Some(k)) = (ie.base, ie.args.first()) else {
                    return DataflowValue::Unknown;
                };
                if let (DataflowValue::Obj { site, .. }, DataflowValue::Str(key)) = (
                    self.eval_value(method, &Value::Local(base)),
                    self.eval_value(method, k),
                ) {
                    if let Some(v) = self.members.get(&(site, format!("extra:{key}"))) {
                        return v.clone();
                    }
                }
                DataflowValue::Unknown
            }
            _ => {
                // App-defined methods: use their propagated return fact.
                if let Some(ret) = self.rets.get(&ie.callee) {
                    return ret.clone();
                }
                if self.program.defines(ie.callee.class()) {
                    if let Some(resolved) =
                        self.program.resolve_dispatch(ie.callee.class(), &ie.callee)
                    {
                        if let Some(ret) = self.rets.get(&resolved) {
                            return ret.clone();
                        }
                    }
                }
                DataflowValue::Unknown
            }
        }
    }
}

/// Constant-folds a binary operation (§V-B: "we mimic arithmetic
/// operations"). String `+` concatenates; unknown operands yield an
/// expression rendering.
pub fn fold_binop(op: BinOp, a: &DataflowValue, b: &DataflowValue) -> DataflowValue {
    use DataflowValue::{Expr, Int, Str};
    match (op, a, b) {
        (BinOp::Add, Int(x), Int(y)) => Int(x.wrapping_add(*y)),
        (BinOp::Sub, Int(x), Int(y)) => Int(x.wrapping_sub(*y)),
        (BinOp::Mul, Int(x), Int(y)) => Int(x.wrapping_mul(*y)),
        (BinOp::Div, Int(x), Int(y)) if *y != 0 => Int(x.wrapping_div(*y)),
        (BinOp::Rem, Int(x), Int(y)) if *y != 0 => Int(x.wrapping_rem(*y)),
        (BinOp::And, Int(x), Int(y)) => Int(x & y),
        (BinOp::Or, Int(x), Int(y)) => Int(x | y),
        (BinOp::Xor, Int(x), Int(y)) => Int(x ^ y),
        (BinOp::Shl, Int(x), Int(y)) => Int(x.wrapping_shl(*y as u32)),
        (BinOp::Shr, Int(x), Int(y)) => Int(x.wrapping_shr(*y as u32)),
        (BinOp::Ushr, Int(x), Int(y)) => Int(((*x as u64) >> (*y as u64 & 63)) as i64),
        (BinOp::Cmp, Int(x), Int(y)) => Int((x.cmp(y) as i8) as i64),
        (BinOp::Add, Str(x), Str(y)) => Str(format!("{x}{y}")),
        (BinOp::Add, Str(x), Int(y)) => Str(format!("{x}{y}")),
        (_, DataflowValue::Unknown, _) | (_, _, DataflowValue::Unknown) => DataflowValue::Unknown,
        (op, a, b) => Expr(format!("{a} {} {b}", op.token())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_folding() {
        use DataflowValue::{Int, Str};
        assert_eq!(fold_binop(BinOp::Add, &Int(2), &Int(3)), Int(5));
        assert_eq!(fold_binop(BinOp::Mul, &Int(4), &Int(5)), Int(20));
        assert_eq!(
            fold_binop(BinOp::Div, &Int(1), &Int(0)),
            DataflowValue::Expr("1 / 0".into())
        );
        assert_eq!(
            fold_binop(BinOp::Add, &Str("AES/".into()), &Str("ECB".into())),
            Str("AES/ECB".into())
        );
        assert_eq!(
            fold_binop(BinOp::Add, &DataflowValue::Unknown, &Int(1)),
            DataflowValue::Unknown
        );
        assert_eq!(
            fold_binop(BinOp::Xor, &Int(0b1010), &Int(0b0110)),
            Int(0b1100)
        );
    }

    #[test]
    fn dataflow_value_display_and_predicates() {
        assert_eq!(DataflowValue::Int(7).to_string(), "7");
        assert_eq!(DataflowValue::Str("x".into()).to_string(), "\"x\"");
        assert!(DataflowValue::Str("x".into()).is_constant());
        assert!(!DataflowValue::Unknown.is_constant());
        assert_eq!(DataflowValue::Str("ab".into()).as_str(), Some("ab"));
        assert_eq!(DataflowValue::Int(1).as_str(), None);
        let pc = DataflowValue::PlatformConst(FieldSig::new(
            "org.apache.http.conn.ssl.SSLSocketFactory",
            "ALLOW_ALL_HOSTNAME_VERIFIER",
            backdroid_ir::Type::object("org.apache.http.conn.ssl.X509HostnameVerifier"),
        ));
        assert!(pc.is_constant());
        assert!(pc.to_string().contains("ALLOW_ALL_HOSTNAME_VERIFIER"));
    }
}
