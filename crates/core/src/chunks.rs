//! Per-class chunk manifests and version-to-version deltas.
//!
//! An app update rarely rewrites the whole program: most classes of
//! v(n+1) are byte-identical to v(n). This module gives the snapshot
//! container, the serving layer and the delta analyzer a shared
//! vocabulary for saying which:
//!
//! * **Chunk** — one class definition encoded with
//!   [`backdroid_ir::wire::write_class`]. The encoding is canonical
//!   (deterministic field/method order as declared), so a class's
//!   *chunk key* ([`chunk_key`]: [`fnv1a64_wide`] over exactly those
//!   bytes) is a content address: equal classes collide, different
//!   classes don't (modulo hash collision).
//! * **[`ChunkManifest`]** — the `class name → chunk key` map of one
//!   program version. Stored as snapshot section 6 so a restore can
//!   diff two versions without decoding either program.
//! * **[`DeltaManifest`]** — the diff of two manifests: which classes
//!   are unchanged / changed / added / removed across an update. The
//!   serving layer's `put_version` reply reports its counts.
//! * **[`classify_delta`]** — the soundness gate for verdict reuse:
//!   only *pure method-body* deltas (identical class set, hierarchy,
//!   fields, modifiers, and method signatures — just different
//!   statements) allow the analysis engine to replay prior sink
//!   verdicts selectively; anything structural forces a full
//!   re-analysis.
//!
//! A chunk is only ever hashed, never stored: an updated version is
//! built from the program the update produced and persists as its
//! image's snapshot (see [`crate::snapshot`]), manifest included.

use backdroid_ir::wire::{self, fnv1a64_wide, WireError, WireReader, WireWriter};
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

/// The `class name → chunk key` map of one program version.
///
/// Deterministic by construction (`BTreeMap` name order), so equal
/// programs produce byte-identical encoded manifests and the snapshot
/// round-trip stays exact.
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

    /// Number of classes in this version.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the version defines no classes.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Wire-encodes the manifest: count, then (name, key) in name
    /// order.
    pub fn write(&self, w: &mut WireWriter) {
        w.put_len(self.entries.len());
        for (name, &key) in &self.entries {
            wire::write_class_name(w, name);
            w.put_u64(key);
        }
    }

    /// Decodes a manifest, rejecting duplicate or out-of-order names
    /// so the encoding stays canonical.
    pub fn read(r: &mut WireReader<'_>) -> Result<ChunkManifest, WireError> {
        let count = r.get_len(1)?;
        let mut entries = BTreeMap::new();
        let mut prev: Option<ClassName> = None;
        for _ in 0..count {
            let name = wire::read_class_name(r)?;
            let key = r.get_u64()?;
            if let Some(p) = &prev {
                if *p >= name {
                    return Err(WireError::Malformed(
                        "chunk manifest names out of order".to_string(),
                    ));
                }
            }
            prev = Some(name.clone());
            entries.insert(name, key);
        }
        Ok(ChunkManifest { entries })
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
    /// Classes whose chunk keys match.
    pub unchanged: Vec<ClassName>,
    /// Classes present in both versions with different chunk keys.
    pub changed: Vec<ClassName>,
    /// Classes only the new version defines.
    pub added: Vec<ClassName>,
    /// Classes only the old version defines.
    pub removed: Vec<ClassName>,
}

/// The soundness classification of an update, from the analysis
/// engine's point of view.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DeltaKind {
    /// The two versions are equal programs.
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

/// Classifies an update by structural comparison of the two programs.
pub fn classify_delta(old: &Program, new: &Program) -> DeltaKind {
    let old_names: Vec<&ClassName> = old.classes().map(Class::name).collect();
    let new_names: Vec<&ClassName> = new.classes().map(Class::name).collect();
    if old_names != new_names {
        return DeltaKind::Structural;
    }
    let mut changed_methods = BTreeSet::new();
    for (oc, nc) in old.classes().zip(new.classes()) {
        if oc.superclass() != nc.superclass()
            || oc.interfaces() != nc.interfaces()
            || oc.modifiers() != nc.modifiers()
            || oc.fields() != nc.fields()
        {
            return DeltaKind::Structural;
        }
        if oc.methods().len() != nc.methods().len() {
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

#[cfg(test)]
mod tests {
    use super::*;
    use backdroid_ir::{ClassBuilder, Const, MethodBuilder, Type};

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
    fn manifest_round_trips_and_diffs() {
        let old = ChunkManifest::of_program(&two_class_program("hello"));
        let mut w = WireWriter::new();
        old.write(&mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(ChunkManifest::read(&mut r).unwrap(), old);
        assert!(r.is_empty());

        let new = ChunkManifest::of_program(&two_class_program("world"));
        let delta = old.diff(&new);
        assert_eq!(delta.unchanged, vec![ClassName::new("com.chunk.B")]);
        assert_eq!(delta.changed, vec![ClassName::new("com.chunk.A")]);
        assert!(delta.added.is_empty() && delta.removed.is_empty());
        assert_eq!(
            old.diff(&old),
            DeltaManifest {
                unchanged: vec![ClassName::new("com.chunk.A"), ClassName::new("com.chunk.B")],
                ..DeltaManifest::default()
            }
        );
    }

    #[test]
    fn classify_distinguishes_body_only_from_structural() {
        let old = two_class_program("hello");
        assert_eq!(classify_delta(&old, &old), DeltaKind::Identity);

        let new = two_class_program("world");
        match classify_delta(&old, &new) {
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
        assert_eq!(classify_delta(&old, &extra), DeltaKind::Structural);
    }
}
