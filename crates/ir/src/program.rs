//! The whole-program class table with hierarchy and dispatch queries.
//!
//! Only *application* classes live here — Android/Java platform classes are
//! referenced by name but never defined, exactly as in a real DEX file.

use crate::body::{Class, Method};
use crate::types::{ClassName, MethodSig};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// An immutable-after-construction program: every class in the app's DEX.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Program {
    classes: BTreeMap<ClassName, Class>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a class definition.
    ///
    /// # Panics
    /// Panics if a class with the same name was already added.
    pub fn add_class(&mut self, class: Class) {
        let prev = self.classes.insert(class.name().clone(), class);
        assert!(prev.is_none(), "duplicate class definition");
    }

    /// Looks up a class by name.
    pub fn class(&self, name: &ClassName) -> Option<&Class> {
        self.classes.get(name)
    }

    /// Removes a class definition, returning it if present. The update
    /// generator takes a class out this way to edit or drop it.
    pub fn remove_class(&mut self, name: &ClassName) -> Option<Class> {
        self.classes.remove(name)
    }

    /// Whether the class is defined in the app (vs platform-only).
    pub fn defines(&self, name: &ClassName) -> bool {
        self.classes.contains_key(name)
    }

    /// All classes in deterministic (name) order.
    pub fn classes(&self) -> impl Iterator<Item = &Class> + '_ {
        self.classes.values()
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Total method count.
    pub fn method_count(&self) -> usize {
        self.classes.values().map(|c| c.methods().len()).sum()
    }

    /// Total statement count across all method bodies.
    pub fn stmt_count(&self) -> usize {
        self.classes.values().map(Class::stmt_count).sum()
    }

    /// Looks up a method by its exact declared signature.
    pub fn method(&self, sig: &MethodSig) -> Option<&Method> {
        self.classes.get(sig.class())?.find_method(sig)
    }

    /// The direct superclass chain of `name`, from the class upward,
    /// stopping at the first class not defined in the app (platform super
    /// classes are included by name as the final element).
    pub fn superclass_chain(&self, name: &ClassName) -> Vec<ClassName> {
        let mut chain = Vec::new();
        let mut cur = name.clone();
        let mut guard = 0;
        while let Some(c) = self.classes.get(&cur) {
            guard += 1;
            if guard > 1_000 {
                break; // defensive: malformed cyclic hierarchy
            }
            match c.superclass() {
                Some(s) => {
                    chain.push(s.clone());
                    cur = s.clone();
                }
                None => break,
            }
        }
        chain
    }

    /// Whether `sub` is `sup` or a (transitive) subclass/implementer of it.
    pub fn is_subtype_of(&self, sub: &ClassName, sup: &ClassName) -> bool {
        if sub == sup {
            return true;
        }
        let mut queue = VecDeque::from([sub.clone()]);
        let mut seen = BTreeSet::new();
        while let Some(cur) = queue.pop_front() {
            if !seen.insert(cur.clone()) {
                continue;
            }
            if &cur == sup {
                return true;
            }
            if let Some(c) = self.classes.get(&cur) {
                if let Some(s) = c.superclass() {
                    queue.push_back(s.clone());
                }
                for i in c.interfaces() {
                    queue.push_back(i.clone());
                }
            }
        }
        false
    }

    /// Direct subclasses of `name` among defined classes.
    pub fn direct_subclasses(&self, name: &ClassName) -> Vec<ClassName> {
        self.classes
            .values()
            .filter(|c| c.superclass() == Some(name))
            .map(|c| c.name().clone())
            .collect()
    }

    /// All transitive subclasses of `name` (excluding `name` itself).
    pub fn subclasses_transitive(&self, name: &ClassName) -> Vec<ClassName> {
        let mut out = Vec::new();
        let mut queue: VecDeque<ClassName> = VecDeque::from([name.clone()]);
        let mut seen = BTreeSet::new();
        while let Some(cur) = queue.pop_front() {
            for sub in self.direct_subclasses(&cur) {
                if seen.insert(sub.clone()) {
                    out.push(sub.clone());
                    queue.push_back(sub);
                }
            }
        }
        out
    }

    /// Defined classes that (transitively) implement interface `iface`,
    /// including via superclasses and super-interfaces.
    pub fn implementers(&self, iface: &ClassName) -> Vec<ClassName> {
        self.classes
            .values()
            .filter(|c| !c.is_interface())
            .filter(|c| self.implements(c.name(), iface))
            .map(|c| c.name().clone())
            .collect()
    }

    /// Whether `class` implements `iface` directly or transitively.
    pub fn implements(&self, class: &ClassName, iface: &ClassName) -> bool {
        let mut queue = VecDeque::from([class.clone()]);
        let mut seen = BTreeSet::new();
        while let Some(cur) = queue.pop_front() {
            if !seen.insert(cur.clone()) {
                continue;
            }
            if &cur != class && &cur == iface {
                return true;
            }
            if let Some(c) = self.classes.get(&cur) {
                for i in c.interfaces() {
                    if i == iface {
                        return true;
                    }
                    queue.push_back(i.clone());
                }
                if let Some(s) = c.superclass() {
                    queue.push_back(s.clone());
                }
            } else if &cur == iface {
                return true;
            }
        }
        false
    }

    /// Every interface (defined or platform) that `class` transitively
    /// implements, used by the advanced search to decide which interface
    /// type indicates the ending method (§IV-B).
    pub fn interfaces_of(&self, class: &ClassName) -> Vec<ClassName> {
        let mut out = Vec::new();
        let mut queue = VecDeque::from([class.clone()]);
        let mut seen = BTreeSet::new();
        while let Some(cur) = queue.pop_front() {
            if !seen.insert(cur.clone()) {
                continue;
            }
            if let Some(c) = self.classes.get(&cur) {
                for i in c.interfaces() {
                    if !out.contains(i) {
                        out.push(i.clone());
                    }
                    queue.push_back(i.clone());
                }
                if let Some(s) = c.superclass() {
                    queue.push_back(s.clone());
                }
            }
        }
        out
    }

    /// Resolves virtual dispatch: the concrete method actually executed
    /// when `declared` is invoked on a receiver of runtime class
    /// `receiver`. Walks the superclass chain upward from `receiver`
    /// looking for a sub-signature match, like the JVM's method resolution.
    pub fn resolve_dispatch(
        &self,
        receiver: &ClassName,
        declared: &MethodSig,
    ) -> Option<MethodSig> {
        let mut cur = receiver.clone();
        let mut guard = 0;
        loop {
            guard += 1;
            if guard > 1_000 {
                return None;
            }
            let class = self.classes.get(&cur)?;
            if let Some(m) = class.find_method_by_sub_signature(declared) {
                if m.body().is_some() || m.modifiers().is_abstract() {
                    return Some(m.sig().clone());
                }
            }
            cur = class.superclass()?.clone();
        }
    }

    /// The app-defined method an invoke of `callee` runs: `callee`
    /// itself if the app defines that method, else virtual dispatch from
    /// its class ([`Program::resolve_dispatch`]). Reads signatures and
    /// the hierarchy only, never a body.
    pub fn resolve_app_callee(&self, callee: &MethodSig) -> Option<MethodSig> {
        if self.method(callee).is_some() {
            Some(callee.clone())
        } else {
            self.resolve_dispatch(callee.class(), callee)
        }
    }

    /// All concrete override targets of `declared` over the defined
    /// hierarchy — the CHA call-target set used by the whole-app baseline.
    pub fn cha_targets(&self, declared: &MethodSig) -> Vec<MethodSig> {
        let mut out = BTreeSet::new();
        // The statically named class itself (if it concretely defines it).
        if let Some(resolved) = self.resolve_dispatch(declared.class(), declared) {
            out.insert(resolved);
        }
        // Any subclass or implementer overriding it.
        let below: Vec<ClassName> = if self
            .classes
            .get(declared.class())
            .is_some_and(Class::is_interface)
        {
            self.implementers(declared.class())
        } else {
            self.subclasses_transitive(declared.class())
        };
        for sub in below {
            if let Some(resolved) = self.resolve_dispatch(&sub, declared) {
                out.insert(resolved);
            }
        }
        out.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::{Class, Method, MethodBody};
    use crate::stmt::Stmt;
    use crate::types::{Modifiers, Type};

    fn msig(class: &str, name: &str) -> MethodSig {
        MethodSig::new(class, name, vec![], Type::Void)
    }

    fn empty_method(class: &str, name: &str, m: Modifiers) -> Method {
        let mut body = MethodBody::new();
        body.push(Stmt::Return(None));
        Method::new(msig(class, name), m, body)
    }

    /// Hierarchy: IServer (iface) <- SuperServer <- NetcastHttpServer <- ChildServer
    fn sample() -> Program {
        let mut p = Program::new();

        let mut iface = Class::new(
            ClassName::new("com.x.IServer"),
            Modifiers::public().with_interface(),
        );
        iface.add_method(Method::new_abstract(
            msig("com.x.IServer", "start"),
            Modifiers::public(),
        ));
        p.add_class(iface);

        let mut sup = Class::new(ClassName::new("com.x.SuperServer"), Modifiers::public());
        sup.add_interface(ClassName::new("com.x.IServer"));
        sup.add_method(empty_method(
            "com.x.SuperServer",
            "start",
            Modifiers::public(),
        ));
        p.add_class(sup);

        let mut mid = Class::new(
            ClassName::new("com.x.NetcastHttpServer"),
            Modifiers::public(),
        );
        mid.set_superclass(ClassName::new("com.x.SuperServer"));
        mid.add_method(empty_method(
            "com.x.NetcastHttpServer",
            "start",
            Modifiers::public(),
        ));
        p.add_class(mid);

        let mut child = Class::new(ClassName::new("com.x.ChildServer"), Modifiers::public());
        child.set_superclass(ClassName::new("com.x.NetcastHttpServer"));
        // ChildServer does NOT override start()
        child.add_method(empty_method(
            "com.x.ChildServer",
            "stop",
            Modifiers::public(),
        ));
        p.add_class(child);

        p
    }

    #[test]
    fn subtype_queries() {
        let p = sample();
        let child = ClassName::new("com.x.ChildServer");
        let sup = ClassName::new("com.x.SuperServer");
        let iface = ClassName::new("com.x.IServer");
        assert!(p.is_subtype_of(&child, &sup));
        assert!(p.is_subtype_of(&child, &iface));
        assert!(p.is_subtype_of(&child, &child));
        assert!(!p.is_subtype_of(&sup, &child));
    }

    #[test]
    fn subclasses_and_implementers() {
        let p = sample();
        let subs = p.subclasses_transitive(&ClassName::new("com.x.SuperServer"));
        assert_eq!(subs.len(), 2);
        let impls = p.implementers(&ClassName::new("com.x.IServer"));
        assert_eq!(impls.len(), 3); // SuperServer, NetcastHttpServer, ChildServer
    }

    #[test]
    fn dispatch_resolution_walks_up() {
        let p = sample();
        // ChildServer does not override start(): dispatch resolves to
        // NetcastHttpServer.start().
        let resolved = p
            .resolve_dispatch(
                &ClassName::new("com.x.ChildServer"),
                &msig("com.x.NetcastHttpServer", "start"),
            )
            .unwrap();
        assert_eq!(resolved.class().as_str(), "com.x.NetcastHttpServer");
        // Dispatch on the middle class resolves to its own override.
        let resolved = p
            .resolve_dispatch(
                &ClassName::new("com.x.NetcastHttpServer"),
                &msig("com.x.SuperServer", "start"),
            )
            .unwrap();
        assert_eq!(resolved.class().as_str(), "com.x.NetcastHttpServer");
    }

    #[test]
    fn cha_targets_cover_overrides() {
        let p = sample();
        let targets = p.cha_targets(&msig("com.x.SuperServer", "start"));
        let names: Vec<&str> = targets.iter().map(|t| t.class().as_str()).collect();
        assert!(names.contains(&"com.x.SuperServer"));
        assert!(names.contains(&"com.x.NetcastHttpServer"));
        // interface dispatch
        let targets = p.cha_targets(&msig("com.x.IServer", "start"));
        assert!(!targets.is_empty());
    }

    #[test]
    fn counting() {
        let p = sample();
        assert_eq!(p.class_count(), 4);
        assert!(p.method_count() >= 4);
        assert!(p.stmt_count() >= 3);
    }

    #[test]
    #[should_panic(expected = "duplicate class")]
    fn duplicate_class_panics() {
        let mut p = Program::new();
        let c = Class::new(ClassName::new("com.a.B"), Modifiers::public());
        p.add_class(c.clone());
        p.add_class(c);
    }
}
