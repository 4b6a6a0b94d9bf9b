//! Fluent builders for classes and method bodies.
//!
//! The workload generators and tests construct thousands of methods; these
//! builders keep that construction readable while maintaining the IR
//! invariants (identity statements first, fresh locals, patched branch
//! targets).

use crate::body::{Class, FieldDef, Method, MethodBody};
use crate::stmt::{
    BinOp, CondOp, Const, IdentityKind, InvokeExpr, LocalId, Place, Rvalue, Stmt, Value,
};
use crate::types::{ClassName, FieldSig, MethodSig, Modifiers, Type};

/// A forward-referencable branch label.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Label(usize);

/// Builds one [`Class`].
#[derive(Debug)]
pub struct ClassBuilder {
    class: Class,
}

impl ClassBuilder {
    /// Starts a public class.
    pub fn new(name: impl Into<ClassName>) -> Self {
        ClassBuilder {
            class: Class::new(name.into(), Modifiers::public()),
        }
    }

    /// Starts a public interface.
    pub fn new_interface(name: impl Into<ClassName>) -> Self {
        ClassBuilder {
            class: Class::new(name.into(), Modifiers::public().with_interface()),
        }
    }

    /// Sets the superclass.
    pub fn extends(mut self, sup: impl Into<ClassName>) -> Self {
        self.class.set_superclass(sup.into());
        self
    }

    /// Adds an implemented interface.
    pub fn implements(mut self, iface: impl Into<ClassName>) -> Self {
        self.class.add_interface(iface.into());
        self
    }

    /// Adds a field.
    pub fn field(mut self, name: &str, ty: Type, modifiers: Modifiers) -> Self {
        let sig = FieldSig::new(self.class.name().clone(), name, ty);
        self.class.add_field(FieldDef::new(sig, modifiers));
        self
    }

    /// Adds a finished method.
    pub fn method(mut self, method: Method) -> Self {
        self.class.add_method(method);
        self
    }

    /// Adds an abstract method declaration.
    pub fn abstract_method(mut self, name: &str, params: Vec<Type>, ret: Type) -> Self {
        let sig = MethodSig::new(self.class.name().clone(), name, params, ret);
        self.class
            .add_method(Method::new_abstract(sig, Modifiers::public()));
        self
    }

    /// The class name being built.
    pub fn name(&self) -> &ClassName {
        self.class.name()
    }

    /// Finishes the class.
    pub fn build(self) -> Class {
        self.class
    }
}

/// Builds one concrete [`Method`] body with automatic local allocation and
/// label patching.
#[derive(Debug)]
pub struct MethodBuilder {
    sig: MethodSig,
    modifiers: Modifiers,
    body: MethodBody,
    next_local: u32,
    /// (stmt index, label) pairs whose branch target must be patched.
    pending: Vec<(usize, Label)>,
    /// label -> resolved stmt index
    label_targets: Vec<Option<usize>>,
}

impl MethodBuilder {
    /// Starts a method. For instance methods an `@this` identity statement
    /// is emitted automatically; parameters get `@parameterN` identities.
    pub fn new(sig: MethodSig, modifiers: Modifiers) -> Self {
        let mut b = MethodBuilder {
            sig: sig.clone(),
            modifiers,
            body: MethodBody::new(),
            next_local: 0,
            pending: Vec::new(),
            label_targets: Vec::new(),
        };
        if !modifiers.is_static() && !sig.is_clinit() {
            let this = b.fresh(Type::Object(sig.class().clone()));
            b.body.push(Stmt::Identity {
                local: this,
                kind: IdentityKind::This(sig.class().clone()),
            });
        }
        for (i, p) in sig.params().iter().enumerate() {
            let l = b.fresh(p.clone());
            b.body.push(Stmt::Identity {
                local: l,
                kind: IdentityKind::Param(i, p.clone()),
            });
        }
        b
    }

    /// Convenience: starts a `public` instance method on `class`.
    pub fn public(class: &ClassName, name: &str, params: Vec<Type>, ret: Type) -> Self {
        Self::new(
            MethodSig::new(class.clone(), name, params, ret),
            Modifiers::public(),
        )
    }

    /// Convenience: starts a `public static` method on `class`.
    pub fn public_static(class: &ClassName, name: &str, params: Vec<Type>, ret: Type) -> Self {
        Self::new(
            MethodSig::new(class.clone(), name, params, ret),
            Modifiers::public_static(),
        )
    }

    /// Convenience: starts a `private` instance method on `class`.
    pub fn private(class: &ClassName, name: &str, params: Vec<Type>, ret: Type) -> Self {
        Self::new(
            MethodSig::new(class.clone(), name, params, ret),
            Modifiers::private(),
        )
    }

    /// Convenience: starts a constructor on `class`.
    pub fn constructor(class: &ClassName, params: Vec<Type>) -> Self {
        Self::new(
            MethodSig::new(class.clone(), "<init>", params, Type::Void),
            Modifiers::public(),
        )
    }

    /// Convenience: starts the static initializer of `class`.
    pub fn clinit(class: &ClassName) -> Self {
        Self::new(
            MethodSig::new(class.clone(), "<clinit>", vec![], Type::Void),
            Modifiers::public_static(),
        )
    }

    /// The signature under construction.
    pub fn sig(&self) -> &MethodSig {
        &self.sig
    }

    fn fresh(&mut self, ty: Type) -> LocalId {
        let id = LocalId(self.next_local);
        self.next_local += 1;
        self.body.declare_local(id, ty);
        id
    }

    /// Allocates a fresh typed local.
    pub fn local(&mut self, ty: Type) -> LocalId {
        self.fresh(ty)
    }

    /// The local bound to `@this` (local 0 for instance methods).
    ///
    /// # Panics
    /// Panics on static methods, which have no receiver.
    pub fn this(&self) -> LocalId {
        assert!(
            !self.modifiers.is_static() && !self.sig.is_clinit(),
            "static method has no this"
        );
        LocalId(0)
    }

    /// The local bound to `@parameterN`.
    pub fn param(&self, n: usize) -> LocalId {
        assert!(n < self.sig.params().len(), "parameter index out of range");
        let base = if self.modifiers.is_static() || self.sig.is_clinit() {
            0
        } else {
            1
        };
        LocalId((base + n) as u32)
    }

    /// Appends a raw statement.
    pub fn push(&mut self, stmt: Stmt) -> usize {
        self.body.push(stmt)
    }

    /// `local = constant`.
    pub fn assign_const(&mut self, c: Const) -> LocalId {
        let ty = match &c {
            Const::Int(_) => Type::Int,
            Const::Float(_) => Type::Double,
            Const::Str(_) => Type::string(),
            Const::Class(_) => Type::object("java.lang.Class"),
            Const::Null => Type::object("java.lang.Object"),
        };
        let l = self.fresh(ty);
        self.body.push(Stmt::Assign {
            place: Place::Local(l),
            rvalue: Rvalue::Use(Value::Const(c)),
        });
        l
    }

    /// `local = new C(); specialinvoke local.<init>(args)` — the standard
    /// allocation + constructor pair.
    pub fn new_object(
        &mut self,
        class: impl Into<ClassName>,
        ctor_params: Vec<Type>,
        args: Vec<Value>,
    ) -> LocalId {
        let class = class.into();
        let l = self.fresh(Type::Object(class.clone()));
        self.body.push(Stmt::Assign {
            place: Place::Local(l),
            rvalue: Rvalue::New(class.clone()),
        });
        let ctor = MethodSig::new(class, "<init>", ctor_params, Type::Void);
        self.body
            .push(Stmt::Invoke(InvokeExpr::call_special(ctor, l, args)));
        l
    }

    /// Bare invoke statement.
    pub fn invoke(&mut self, ie: InvokeExpr) -> usize {
        self.body.push(Stmt::Invoke(ie))
    }

    /// `local = invoke(...)` with a fresh result local of type `ret`.
    pub fn invoke_assign(&mut self, ie: InvokeExpr) -> LocalId {
        let l = self.fresh(ie.callee.ret().clone());
        self.body.push(Stmt::Assign {
            place: Place::Local(l),
            rvalue: Rvalue::Invoke(ie),
        });
        l
    }

    /// `local = base.field`.
    pub fn read_instance_field(&mut self, base: LocalId, field: FieldSig) -> LocalId {
        let l = self.fresh(field.ty().clone());
        self.body.push(Stmt::Assign {
            place: Place::Local(l),
            rvalue: Rvalue::Read(Place::InstanceField { base, field }),
        });
        l
    }

    /// `base.field = value`.
    pub fn write_instance_field(&mut self, base: LocalId, field: FieldSig, value: Value) {
        self.body.push(Stmt::Assign {
            place: Place::InstanceField { base, field },
            rvalue: Rvalue::Use(value),
        });
    }

    /// `local = <static field>`.
    pub fn read_static_field(&mut self, field: FieldSig) -> LocalId {
        let l = self.fresh(field.ty().clone());
        self.body.push(Stmt::Assign {
            place: Place::Local(l),
            rvalue: Rvalue::Read(Place::StaticField(field)),
        });
        l
    }

    /// `<static field> = value`.
    pub fn write_static_field(&mut self, field: FieldSig, value: Value) {
        self.body.push(Stmt::Assign {
            place: Place::StaticField(field),
            rvalue: Rvalue::Use(value),
        });
    }

    /// `local = a <op> b`.
    pub fn binop(&mut self, op: BinOp, a: Value, b: Value, ty: Type) -> LocalId {
        let l = self.fresh(ty);
        self.body.push(Stmt::Assign {
            place: Place::Local(l),
            rvalue: Rvalue::Binop(op, a, b),
        });
        l
    }

    /// `local = (ty) v`.
    pub fn cast(&mut self, ty: Type, v: Value) -> LocalId {
        let l = self.fresh(ty.clone());
        self.body.push(Stmt::Assign {
            place: Place::Local(l),
            rvalue: Rvalue::Cast(ty, v),
        });
        l
    }

    /// `return;`
    pub fn ret_void(&mut self) {
        self.body.push(Stmt::Return(None));
    }

    /// `return v;`
    pub fn ret(&mut self, v: Value) {
        self.body.push(Stmt::Return(Some(v)));
    }

    /// Reserves a label for a forward branch.
    pub fn reserve_label(&mut self) -> Label {
        self.label_targets.push(None);
        Label(self.label_targets.len() - 1)
    }

    /// Places a reserved label at the *next* statement to be pushed. A
    /// `Nop` landing pad is emitted so the label always has a target.
    pub fn place_label(&mut self, label: Label) {
        let idx = self.body.push(Stmt::Nop);
        self.label_targets[label.0] = Some(idx);
    }

    /// Conditional branch to `label`.
    pub fn if_goto(&mut self, op: CondOp, a: Value, b: Value, label: Label) {
        let idx = self.body.push(Stmt::If {
            op,
            a,
            b,
            target: usize::MAX,
        });
        self.pending.push((idx, label));
    }

    /// Unconditional branch to `label`.
    pub fn goto(&mut self, label: Label) {
        let idx = self.body.push(Stmt::Goto(usize::MAX));
        self.pending.push((idx, label));
    }

    /// Finishes the method, patching all branch targets.
    ///
    /// # Panics
    /// Panics if a reserved label was never placed, or if the body does not
    /// end with a terminator (a trailing `return` is appended for `void`
    /// methods instead of panicking).
    pub fn build(mut self) -> Method {
        // Auto-terminate void methods for convenience.
        let needs_ret = self.body.stmts().last().is_none_or(|s| !s.is_terminator());
        if needs_ret {
            assert!(
                self.sig.ret() == &Type::Void,
                "non-void method {} must end with return",
                self.sig
            );
            self.body.push(Stmt::Return(None));
        }
        for (idx, label) in self.pending {
            let target = self.label_targets[label.0]
                .unwrap_or_else(|| panic!("label {label:?} never placed in {}", self.sig));
            match &mut self.body.stmts_mut()[idx] {
                Stmt::If { target: t, .. } | Stmt::Goto(t) => *t = target,
                other => unreachable!("pending patch on non-branch {other}"),
            }
        }
        Method::new(self.sig, self.modifiers, self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_method_gets_this_and_params() {
        let class = ClassName::new("com.a.B");
        let b = MethodBuilder::public(&class, "m", vec![Type::Int, Type::string()], Type::Void);
        assert_eq!(b.this(), LocalId(0));
        assert_eq!(b.param(0), LocalId(1));
        assert_eq!(b.param(1), LocalId(2));
        let m = b.build();
        let stmts = m.body().unwrap().stmts();
        assert!(matches!(stmts[0], Stmt::Identity { .. }));
        assert!(matches!(stmts[1], Stmt::Identity { .. }));
        assert!(matches!(stmts.last().unwrap(), Stmt::Return(None)));
    }

    #[test]
    fn static_method_params_start_at_zero() {
        let class = ClassName::new("com.a.B");
        let b = MethodBuilder::public_static(&class, "m", vec![Type::Int], Type::Void);
        assert_eq!(b.param(0), LocalId(0));
    }

    #[test]
    #[should_panic(expected = "no this")]
    fn static_method_this_panics() {
        let class = ClassName::new("com.a.B");
        let b = MethodBuilder::public_static(&class, "m", vec![], Type::Void);
        let _ = b.this();
    }

    #[test]
    fn new_object_emits_alloc_and_init() {
        let class = ClassName::new("com.a.B");
        let mut b = MethodBuilder::public_static(&class, "m", vec![], Type::Void);
        let l = b.new_object("com.a.Server", vec![Type::Int], vec![Value::int(8080)]);
        let m = b.build();
        let stmts = m.body().unwrap().stmts();
        assert!(matches!(
            &stmts[0],
            Stmt::Assign { rvalue: Rvalue::New(c), .. } if c.as_str() == "com.a.Server"
        ));
        let ie = stmts[1].invoke_expr().unwrap();
        assert!(ie.callee.is_init());
        assert_eq!(ie.base, Some(l));
    }

    #[test]
    fn labels_are_patched() {
        let class = ClassName::new("com.a.B");
        let mut b = MethodBuilder::public_static(&class, "m", vec![Type::Int], Type::Int);
        let end = b.reserve_label();
        b.if_goto(CondOp::Eq, Value::Local(b.param(0)), Value::int(0), end);
        let x = b.assign_const(Const::Int(1));
        b.ret(Value::Local(x));
        b.place_label(end);
        b.ret(Value::int(0));
        let m = b.build();
        let stmts = m.body().unwrap().stmts();
        let Stmt::If { target, .. } = &stmts[1] else {
            panic!("expected if")
        };
        assert!(matches!(stmts[*target], Stmt::Nop));
    }

    #[test]
    #[should_panic(expected = "never placed")]
    fn unplaced_label_panics() {
        let class = ClassName::new("com.a.B");
        let mut b = MethodBuilder::public_static(&class, "m", vec![], Type::Void);
        let l = b.reserve_label();
        b.goto(l);
        let _ = b.build();
    }

    #[test]
    fn class_builder_assembles() {
        let class = ClassBuilder::new("com.a.Server")
            .extends("com.a.SuperServer")
            .implements("java.lang.Runnable")
            .field("port", Type::Int, Modifiers::private())
            .abstract_method("onReady", vec![], Type::Void)
            .build();
        assert_eq!(class.superclass().unwrap().as_str(), "com.a.SuperServer");
        assert_eq!(class.interfaces().len(), 1);
        assert_eq!(class.fields().len(), 1);
        assert_eq!(class.methods().len(), 1);
    }

    #[test]
    fn clinit_builder() {
        let class = ClassName::new("com.a.B");
        let mut b = MethodBuilder::clinit(&class);
        b.write_static_field(
            FieldSig::new(class.clone(), "PORT", Type::Int),
            Value::int(8089),
        );
        let m = b.build();
        assert!(m.sig().is_clinit());
        assert!(m.modifiers().is_static());
    }
}
