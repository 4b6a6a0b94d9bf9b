//! Version-to-version class deltas.
//!
//! An app update rarely rewrites the whole program: most classes of
//! v(n+1) equal those of v(n). This module gives the serving layer and
//! the delta analyzer a shared vocabulary for saying which:
//!
//! * **[`DeltaManifest`]** — which classes are unchanged / changed /
//!   added / removed across an update, from one by-value walk over the
//!   two programs ([`DeltaManifest::between`]). The serving layer's
//!   `put_version` reply reports its counts.
//! * **[`DeltaKind`]** — the soundness gate for verdict reuse, read off
//!   that walk by [`DeltaManifest::gate`], which looks again only at the
//!   classes the walk found changed: only *pure method-body* deltas
//!   (identical class set, hierarchy, fields, modifiers, method
//!   signatures and manifest — just different statements) allow the
//!   analysis engine to replay prior sink verdicts selectively;
//!   anything structural forces a full re-analysis.
//! * **[`ChunkManifest`]** — the `class name → chunk key` map of one
//!   program version, where a class's *chunk key* ([`chunk_key`]:
//!   [`fnv1a64_wide`] over its canonical
//!   [`backdroid_ir::wire::write_class`] encoding) is a content address.
//!   [`ChunkManifest::diff`] computes the same [`DeltaManifest`] from
//!   hashes. The serving path never builds one: tests and the
//!   repository benchmark keep it as the oracle the walk is checked
//!   against.

use crate::context::AppArtifacts;
use backdroid_ir::wire::{self, fnv1a64_wide, WireWriter};
use backdroid_ir::{Class, ClassName, MethodSig, Program};
use std::collections::{BTreeMap, BTreeSet};

/// The content address of a class: [`fnv1a64_wide`] over its canonical
/// wire encoding. Equal classes have equal keys; the encoder is
/// injective over the IR, so different classes have different keys,
/// modulo hash collision.
pub fn chunk_key(class: &Class) -> u64 {
    let mut w = WireWriter::new();
    wire::write_class(&mut w, class);
    fnv1a64_wide(&w.into_bytes())
}

/// The `class name → chunk key` map of one program version, in class
/// name order.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ChunkManifest {
    entries: BTreeMap<ClassName, u64>,
}

impl ChunkManifest {
    /// Computes the manifest of a program by hashing every class chunk.
    pub fn of_program(program: &Program) -> ChunkManifest {
        ChunkManifest {
            entries: program
                .classes()
                .map(|c| (c.name().clone(), chunk_key(c)))
                .collect(),
        }
    }

    /// Diffs this (prior) manifest against `next`, producing the
    /// update's [`DeltaManifest`].
    pub fn diff(&self, next: &ChunkManifest) -> DeltaManifest {
        let mut delta = DeltaManifest::default();
        for (name, &key) in &next.entries {
            match self.entries.get(name) {
                Some(&prior) if prior == key => delta.unchanged.push(name.clone()),
                Some(_) => delta.changed.push(name.clone()),
                None => delta.added.push(name.clone()),
            }
        }
        for name in self.entries.keys() {
            if !next.entries.contains_key(name) {
                delta.removed.push(name.clone());
            }
        }
        delta
    }
}

/// How v(n+1) differs from v(n), class by class. All four lists are in
/// class-name order.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DeltaManifest {
    /// Classes present in both versions, equal in both.
    pub unchanged: Vec<ClassName>,
    /// Classes present in both versions that differ.
    pub changed: Vec<ClassName>,
    /// Classes only the new version defines.
    pub added: Vec<ClassName>,
    /// Classes only the old version defines.
    pub removed: Vec<ClassName>,
}

impl DeltaManifest {
    /// Diffs two versions of a program by value: classes are matched by
    /// name and compared with `==`. The lists come out in class-name
    /// order, as [`Program::classes`] walks a `BTreeMap`.
    ///
    /// The result equals
    /// `ChunkManifest::of_program(old).diff(&ChunkManifest::of_program(new))`
    /// except on a NaN or −0.0 `f64` constant, which compares
    /// differently by value than by wire bytes (NaN ≠ NaN, −0.0 == 0.0):
    /// by value, a class holding a NaN counts as changed against an
    /// identical copy, and a 0.0 → −0.0 edit as unchanged. No app
    /// generator emits either constant.
    pub fn between(old: &Program, new: &Program) -> DeltaManifest {
        let mut delta = DeltaManifest::default();
        for class in new.classes() {
            let name = class.name().clone();
            match old.class(class.name()) {
                Some(prior) if prior == class => delta.unchanged.push(name),
                Some(_) => delta.changed.push(name),
                None => delta.added.push(name),
            }
        }
        delta.removed = old
            .classes()
            .filter(|c| new.class(c.name()).is_none())
            .map(|c| c.name().clone())
            .collect();
        delta
    }

    /// The verdict-reuse gate of the update `old → new`, whose by-value
    /// class diff this is (`DeltaManifest::between(old.program(),
    /// new.program())`). An added or removed class, or a changed
    /// manifest, makes the update [`DeltaKind::Structural`]. Otherwise
    /// only the `changed` classes are compared again, pair by pair:
    /// superclass, interfaces, modifiers, fields and method count, then
    /// each method's signature, modifiers and body presence. The methods
    /// whose bodies differ are the changed methods. A class the walk
    /// found equal needs no second look, since [`Class`] equality covers
    /// all of it.
    pub fn gate(&self, old: &AppArtifacts, new: &AppArtifacts) -> DeltaKind {
        if !self.added.is_empty() || !self.removed.is_empty() || old.manifest() != new.manifest() {
            return DeltaKind::Structural;
        }
        let mut changed_methods = BTreeSet::new();
        for name in &self.changed {
            let (Some(oc), Some(nc)) = (old.program().class(name), new.program().class(name))
            else {
                return DeltaKind::Structural;
            };
            if oc.superclass() != nc.superclass()
                || oc.interfaces() != nc.interfaces()
                || oc.modifiers() != nc.modifiers()
                || oc.fields() != nc.fields()
                || oc.methods().len() != nc.methods().len()
            {
                return DeltaKind::Structural;
            }
            for (om, nm) in oc.methods().iter().zip(nc.methods()) {
                if om.sig() != nm.sig()
                    || om.modifiers() != nm.modifiers()
                    || om.body().is_some() != nm.body().is_some()
                {
                    return DeltaKind::Structural;
                }
                if om.body() != nm.body() {
                    changed_methods.insert(nm.sig().clone());
                }
            }
        }
        if changed_methods.is_empty() {
            DeltaKind::Identity
        } else {
            DeltaKind::BodyOnly { changed_methods }
        }
    }
}

/// The soundness classification of an update, from the analysis
/// engine's point of view: the verdict-reuse gate
/// [`DeltaManifest::gate`] computes and [`crate::Backdroid::analyze_delta`]
/// takes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DeltaKind {
    /// The two versions are equal programs with equal manifests.
    Identity,
    /// Only method *statements* changed: the class set, hierarchy,
    /// interfaces, fields, modifiers, and every method signature are
    /// identical. Hierarchy- and signature-level search results are
    /// provably unchanged, so prior sink verdicts whose dependency
    /// traces avoid the changed methods may be reused.
    BodyOnly {
        /// Exactly the methods whose bodies differ.
        changed_methods: BTreeSet<MethodSig>,
    },
    /// Anything else — classes or members added/removed/re-typed.
    /// Verdict reuse is off, and re-analysis is byte-identical to a
    /// cold run by determinism.
    Structural,
}

#[cfg(test)]
mod tests {
    use super::*;
    use backdroid_ir::{ClassBuilder, Const, MethodBuilder, Type};
    use backdroid_manifest::Manifest;

    fn two_class_program(greeting: &str) -> Program {
        let a = ClassName::new("com.chunk.A");
        let mut go = MethodBuilder::public(&a, "go", vec![], Type::Void);
        go.assign_const(Const::str(greeting));
        go.ret_void();
        let b = ClassName::new("com.chunk.B");
        let mut run = MethodBuilder::public(&b, "run", vec![], Type::Void);
        run.ret_void();
        let mut p = Program::new();
        p.add_class(ClassBuilder::new("com.chunk.A").method(go.build()).build());
        p.add_class(ClassBuilder::new("com.chunk.B").method(run.build()).build());
        p
    }

    #[test]
    fn chunk_keys_are_content_addresses() {
        let p1 = two_class_program("hello");
        let p2 = two_class_program("hello");
        let p3 = two_class_program("world");
        let name = ClassName::new("com.chunk.A");
        let other = ClassName::new("com.chunk.B");
        assert_eq!(
            chunk_key(p1.class(&name).unwrap()),
            chunk_key(p2.class(&name).unwrap())
        );
        assert_ne!(
            chunk_key(p1.class(&name).unwrap()),
            chunk_key(p3.class(&name).unwrap())
        );
        // The untouched class keeps its key across the edit.
        assert_eq!(
            chunk_key(p1.class(&other).unwrap()),
            chunk_key(p3.class(&other).unwrap())
        );
    }

    #[test]
    fn walk_and_manifest_diff_agree() {
        let old = two_class_program("hello");
        let new = two_class_program("world");
        let delta = DeltaManifest::between(&old, &new);
        assert_eq!(delta.unchanged, vec![ClassName::new("com.chunk.B")]);
        assert_eq!(delta.changed, vec![ClassName::new("com.chunk.A")]);
        assert!(delta.added.is_empty() && delta.removed.is_empty());
        assert_eq!(
            ChunkManifest::of_program(&old).diff(&ChunkManifest::of_program(&new)),
            delta
        );
        assert_eq!(
            DeltaManifest::between(&old, &old),
            DeltaManifest {
                unchanged: vec![ClassName::new("com.chunk.A"), ClassName::new("com.chunk.B")],
                ..DeltaManifest::default()
            }
        );

        let mut extra = two_class_program("hello");
        let c = ClassName::new("com.chunk.C");
        let mut m = MethodBuilder::public(&c, "x", vec![], Type::Void);
        m.ret_void();
        extra.add_class(ClassBuilder::new("com.chunk.C").method(m.build()).build());
        let grown = DeltaManifest::between(&old, &extra);
        assert_eq!(grown.added, vec![c.clone()]);
        let shrunk = DeltaManifest::between(&extra, &old);
        assert_eq!(shrunk.removed, vec![c]);
        assert_eq!(shrunk.unchanged.len(), 2);
    }

    /// The gate of `old → new`, from their by-value class diff.
    fn gate_between(old: Program, new: Program, new_package: &str) -> DeltaKind {
        let old = AppArtifacts::new(old, Manifest::new("com.chunk"));
        let new = AppArtifacts::new(new, Manifest::new(new_package));
        DeltaManifest::between(old.program(), new.program()).gate(&old, &new)
    }

    #[test]
    fn gate_distinguishes_body_only_from_structural() {
        let old = || two_class_program("hello");
        assert_eq!(gate_between(old(), old(), "com.chunk"), DeltaKind::Identity);

        match gate_between(old(), two_class_program("world"), "com.chunk") {
            DeltaKind::BodyOnly { changed_methods } => {
                assert_eq!(changed_methods.len(), 1);
                assert_eq!(
                    changed_methods.iter().next().unwrap().to_string(),
                    "<com.chunk.A: void go()>"
                );
            }
            other => panic!("expected BodyOnly, got {other:?}"),
        }

        let mut extra = two_class_program("hello");
        let c = ClassName::new("com.chunk.C");
        let mut m = MethodBuilder::public(&c, "x", vec![], Type::Void);
        m.ret_void();
        extra.add_class(ClassBuilder::new("com.chunk.C").method(m.build()).build());
        assert_eq!(
            gate_between(old(), extra, "com.chunk"),
            DeltaKind::Structural
        );

        // Equal programs under a changed manifest are structural too.
        assert_eq!(
            gate_between(old(), old(), "com.other"),
            DeltaKind::Structural
        );
    }
}
