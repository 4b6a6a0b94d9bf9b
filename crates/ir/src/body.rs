//! Method bodies, methods, fields, and classes.

use crate::stmt::{LocalId, Stmt};
use crate::types::{ClassName, FieldSig, MethodSig, Modifiers, Type};
use std::collections::BTreeMap;
use std::fmt;

/// A declared local with its static type.
#[derive(Clone, PartialEq, Debug)]
pub struct Local {
    /// The register id.
    pub id: LocalId,
    /// The declared type.
    pub ty: Type,
}

/// A straight-line-with-branches method body: a statement list addressed by
/// index, plus a local table.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct MethodBody {
    locals: BTreeMap<u32, Type>,
    stmts: Vec<Stmt>,
}

impl MethodBody {
    /// An empty body.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares (or re-types) a local.
    pub fn declare_local(&mut self, id: LocalId, ty: Type) {
        self.locals.insert(id.0, ty);
    }

    /// All declared locals in id order.
    pub fn locals(&self) -> impl Iterator<Item = Local> + '_ {
        self.locals.iter().map(|(id, ty)| Local {
            id: LocalId(*id),
            ty: ty.clone(),
        })
    }

    /// Makes room for `additional` more statements. Wire-decoder only:
    /// it knows a body's statement count before reading them.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.stmts.reserve_exact(additional);
    }

    /// Appends a statement, returning its index.
    pub fn push(&mut self, stmt: Stmt) -> usize {
        self.stmts.push(stmt);
        self.stmts.len() - 1
    }

    /// The statements in order.
    pub fn stmts(&self) -> &[Stmt] {
        &self.stmts
    }

    /// Mutable access for builders that patch branch targets.
    pub fn stmts_mut(&mut self) -> &mut [Stmt] {
        &mut self.stmts
    }

    /// The statement at `idx`.
    pub fn stmt(&self, idx: usize) -> Option<&Stmt> {
        self.stmts.get(idx)
    }

    /// Number of statements.
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    /// Whether the body has no statements.
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }

    /// Indices of statements containing an invoke of `callee` (exact
    /// declared-signature match). This is the "quick forward analysis via
    /// Soot to find the actual call site" from §IV-A step 4.
    pub fn call_sites_of(&self, callee: &MethodSig) -> Vec<usize> {
        self.stmts
            .iter()
            .enumerate()
            .filter(|(_, s)| s.invoke_expr().is_some_and(|ie| &ie.callee == callee))
            .map(|(i, _)| i)
            .collect()
    }
}

/// A method: signature, modifiers, and an optional body (abstract and
/// native methods have none).
#[derive(Clone, PartialEq, Debug)]
pub struct Method {
    sig: MethodSig,
    modifiers: Modifiers,
    body: Option<MethodBody>,
}

impl Method {
    /// Creates a concrete method.
    pub fn new(sig: MethodSig, modifiers: Modifiers, body: MethodBody) -> Self {
        Method {
            sig,
            modifiers,
            body: Some(body),
        }
    }

    /// Creates an abstract (bodyless) method.
    pub fn new_abstract(sig: MethodSig, modifiers: Modifiers) -> Self {
        Method {
            sig,
            modifiers: modifiers.with_abstract(),
            body: None,
        }
    }

    /// Reassembles a method from decoded parts, preserving the modifier
    /// bits exactly (unlike [`Method::new_abstract`], which forces the
    /// `abstract` bit — a decoded native method must stay bodyless and
    /// non-abstract). Wire-decoder only.
    pub(crate) fn from_parts(
        sig: MethodSig,
        modifiers: Modifiers,
        body: Option<MethodBody>,
    ) -> Self {
        Method {
            sig,
            modifiers,
            body,
        }
    }

    /// The signature.
    pub fn sig(&self) -> &MethodSig {
        &self.sig
    }

    /// The modifiers.
    pub fn modifiers(&self) -> Modifiers {
        self.modifiers
    }

    /// The body, if concrete.
    pub fn body(&self) -> Option<&MethodBody> {
        self.body.as_ref()
    }

    /// Mutable access to the body, if concrete — the handle version
    /// mutation uses to rewrite statements in place while keeping the
    /// signature (and therefore every caller) intact.
    pub fn body_mut(&mut self) -> Option<&mut MethodBody> {
        self.body.as_mut()
    }

    /// Whether the method is a "signature method" in the paper's sense
    /// (§IV-A): static, private, or a constructor — cases where the basic
    /// signature-based bytecode search is sound because the call site must
    /// name this exact class.
    pub fn is_signature_method(&self) -> bool {
        self.modifiers.is_static() || self.modifiers.is_private() || self.sig.is_init()
    }
}

/// A field definition inside a class.
#[derive(Clone, PartialEq, Debug)]
pub struct FieldDef {
    sig: FieldSig,
    modifiers: Modifiers,
}

impl FieldDef {
    /// Creates a field definition.
    pub fn new(sig: FieldSig, modifiers: Modifiers) -> Self {
        FieldDef { sig, modifiers }
    }

    /// The field signature.
    pub fn sig(&self) -> &FieldSig {
        &self.sig
    }

    /// The modifiers.
    pub fn modifiers(&self) -> Modifiers {
        self.modifiers
    }
}

/// A class (or interface) definition.
#[derive(Clone, PartialEq, Debug)]
pub struct Class {
    name: ClassName,
    superclass: Option<ClassName>,
    interfaces: Vec<ClassName>,
    modifiers: Modifiers,
    fields: Vec<FieldDef>,
    methods: Vec<Method>,
}

impl Class {
    /// Creates a class extending `java.lang.Object` by default.
    pub fn new(name: ClassName, modifiers: Modifiers) -> Self {
        Class {
            name,
            superclass: Some(ClassName::new("java.lang.Object")),
            interfaces: Vec::new(),
            modifiers,
            fields: Vec::new(),
            methods: Vec::new(),
        }
    }

    /// Reassembles a class from decoded parts, preserving the superclass
    /// exactly (including `None`, which [`Class::new`] cannot express —
    /// it defaults to `java.lang.Object`). The caller is responsible for
    /// the invariants `add_method` asserts (methods declared on this
    /// class, no duplicate signatures); the wire decoder validates both
    /// before constructing.
    pub(crate) fn from_parts(
        name: ClassName,
        superclass: Option<ClassName>,
        interfaces: Vec<ClassName>,
        modifiers: Modifiers,
        fields: Vec<FieldDef>,
        methods: Vec<Method>,
    ) -> Self {
        Class {
            name,
            superclass,
            interfaces,
            modifiers,
            fields,
            methods,
        }
    }

    /// The class name.
    pub fn name(&self) -> &ClassName {
        &self.name
    }

    /// The direct superclass (None only for `java.lang.Object` itself).
    pub fn superclass(&self) -> Option<&ClassName> {
        self.superclass.as_ref()
    }

    /// Sets the superclass.
    pub fn set_superclass(&mut self, sup: ClassName) {
        self.superclass = Some(sup);
    }

    /// Directly implemented interfaces.
    pub fn interfaces(&self) -> &[ClassName] {
        &self.interfaces
    }

    /// Adds an implemented interface.
    pub fn add_interface(&mut self, iface: ClassName) {
        if !self.interfaces.contains(&iface) {
            self.interfaces.push(iface);
        }
    }

    /// The class modifiers.
    pub fn modifiers(&self) -> Modifiers {
        self.modifiers
    }

    /// Whether this is an interface definition.
    pub fn is_interface(&self) -> bool {
        self.modifiers.is_interface()
    }

    /// The declared fields.
    pub fn fields(&self) -> &[FieldDef] {
        &self.fields
    }

    /// Adds a field.
    pub fn add_field(&mut self, field: FieldDef) {
        self.fields.push(field);
    }

    /// The declared methods.
    pub fn methods(&self) -> &[Method] {
        &self.methods
    }

    /// Adds a method.
    ///
    /// # Panics
    /// Panics if the method's declaring class differs from this class, or
    /// if a method with the same signature already exists.
    pub fn add_method(&mut self, method: Method) {
        assert_eq!(
            method.sig().class(),
            &self.name,
            "method declared on wrong class"
        );
        assert!(
            self.find_method(method.sig()).is_none(),
            "duplicate method {}",
            method.sig()
        );
        self.methods.push(method);
    }

    /// Looks up a declared method by exact signature.
    pub fn find_method(&self, sig: &MethodSig) -> Option<&Method> {
        self.methods.iter().find(|m| m.sig() == sig)
    }

    /// Mutable lookup by exact signature. Declaration order (and hence
    /// the dump/chunk encoding order) is unaffected by edits through
    /// this handle.
    pub fn find_method_mut(&mut self, sig: &MethodSig) -> Option<&mut Method> {
        self.methods.iter_mut().find(|m| m.sig() == sig)
    }

    /// Removes a declared method by exact signature, preserving the
    /// declaration order of the rest.
    pub fn remove_method(&mut self, sig: &MethodSig) -> Option<Method> {
        let idx = self.methods.iter().position(|m| m.sig() == sig)?;
        Some(self.methods.remove(idx))
    }

    /// Looks up a declared method matching `sig`'s sub-signature (name +
    /// params + return), ignoring the declaring class. This is the overload
    /// check used when deciding whether a child class needs its own search
    /// signature (§IV-A).
    pub fn find_method_by_sub_signature(&self, sig: &MethodSig) -> Option<&Method> {
        self.methods
            .iter()
            .find(|m| m.sig().same_sub_signature(sig))
    }

    /// All declared constructors.
    pub fn constructors(&self) -> impl Iterator<Item = &Method> + '_ {
        self.methods.iter().filter(|m| m.sig().is_init())
    }

    /// The static initializer, if present.
    pub fn clinit(&self) -> Option<&Method> {
        self.methods.iter().find(|m| m.sig().is_clinit())
    }

    /// Total statement count across all concrete methods — the "code size"
    /// proxy used by the workload generators.
    pub fn stmt_count(&self) -> usize {
        self.methods
            .iter()
            .filter_map(|m| m.body())
            .map(MethodBody::len)
            .sum()
    }
}

impl fmt::Display for Class {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} class {}", self.modifiers, self.name)?;
        if let Some(s) = &self.superclass {
            writeln!(f, "    extends {s}")?;
        }
        for i in &self.interfaces {
            writeln!(f, "    implements {i}")?;
        }
        for fd in &self.fields {
            writeln!(f, "    {} {}", fd.modifiers(), fd.sig())?;
        }
        for m in &self.methods {
            writeln!(f, "    {} {}", m.modifiers(), m.sig())?;
            if let Some(b) = m.body() {
                for (i, s) in b.stmts().iter().enumerate() {
                    writeln!(f, "        {i:>3}: {s}")?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stmt::{InvokeExpr, Value};

    fn sig(class: &str, name: &str) -> MethodSig {
        MethodSig::new(class, name, vec![], Type::Void)
    }

    #[test]
    fn body_call_sites() {
        let mut b = MethodBody::new();
        let callee = sig("com.a.B", "start");
        b.push(Stmt::Invoke(InvokeExpr::call_static(
            sig("com.a.C", "other"),
            vec![],
        )));
        b.push(Stmt::Invoke(InvokeExpr::call_virtual(
            callee.clone(),
            LocalId(0),
            vec![Value::int(1)],
        )));
        assert_eq!(b.call_sites_of(&callee), vec![1]);
        assert_eq!(
            b.call_sites_of(&sig("com.a.B", "missing")),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn signature_methods() {
        let stat = Method::new(
            sig("com.a.B", "m"),
            Modifiers::public_static(),
            MethodBody::new(),
        );
        let privm = Method::new(sig("com.a.B", "p"), Modifiers::private(), MethodBody::new());
        let ctor = Method::new(
            sig("com.a.B", "<init>"),
            Modifiers::public(),
            MethodBody::new(),
        );
        let pubm = Method::new(sig("com.a.B", "v"), Modifiers::public(), MethodBody::new());
        assert!(stat.is_signature_method());
        assert!(privm.is_signature_method());
        assert!(ctor.is_signature_method());
        assert!(!pubm.is_signature_method());
    }

    #[test]
    fn class_method_lookup() {
        let mut c = Class::new(ClassName::new("com.a.B"), Modifiers::public());
        c.add_method(Method::new(
            sig("com.a.B", "start"),
            Modifiers::public(),
            MethodBody::new(),
        ));
        assert!(c.find_method(&sig("com.a.B", "start")).is_some());
        // sub-signature lookup ignores the declaring class
        assert!(c
            .find_method_by_sub_signature(&sig("com.x.Y", "start"))
            .is_some());
        assert!(c.find_method(&sig("com.a.B", "stop")).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate method")]
    fn duplicate_method_panics() {
        let mut c = Class::new(ClassName::new("com.a.B"), Modifiers::public());
        let m = Method::new(sig("com.a.B", "m"), Modifiers::public(), MethodBody::new());
        c.add_method(m.clone());
        c.add_method(m);
    }

    #[test]
    fn class_defaults_to_object_super() {
        let c = Class::new(ClassName::new("com.a.B"), Modifiers::public());
        assert_eq!(
            c.superclass().map(ClassName::as_str),
            Some("java.lang.Object")
        );
        assert!(!c.is_interface());
    }
}
