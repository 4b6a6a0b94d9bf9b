//! Content-addressed per-class chunks and version-to-version deltas.
//!
//! An app update rarely rewrites the whole program: most classes of
//! v(n+1) are byte-identical to v(n). This module gives the snapshot
//! container and the serving layer a shared vocabulary for exploiting
//! that:
//!
//! * **Chunk** — one class definition encoded with
//!   [`backdroid_ir::wire::write_class`]. The encoding is canonical
//!   (deterministic field/method order as declared), so a class's
//!   *chunk key* — [`fnv1a64_wide`] over exactly those bytes — is a
//!   content address: equal classes collide, different classes don't
//!   (modulo hash collision, which the decoder still validates
//!   structurally).
//! * **[`ChunkManifest`]** — the `class name → chunk key` map of one
//!   program version. Stored as snapshot section 6 so a restore can
//!   diff two versions without decoding either program.
//! * **[`DeltaManifest`]** — the diff of two manifests: which classes
//!   are unchanged / changed / added / removed across an update.
//! * **[`ChunkStore`]** — a directory of checksummed chunk files keyed
//!   by content hash, deduplicated across versions. Reads are total:
//!   a missing, truncated, or bit-rotted chunk surfaces as an error
//!   and the caller falls back to a full re-parse.
//! * **[`classify_delta`]** — the soundness gate for verdict reuse:
//!   only *pure method-body* deltas (identical class set, hierarchy,
//!   fields, modifiers, and method signatures — just different
//!   statements) allow the analysis engine to replay prior sink
//!   verdicts selectively; anything structural forces a full
//!   re-analysis (the chunk store still supplies the unchanged
//!   classes).
//!
//! The invariant the whole path maintains (enforced by
//! `tests/delta_equivalence.rs` alongside `parallel_equivalence` and
//! `snapshot_roundtrip`): a program rebuilt by [`apply_delta`] is
//! **equal** to the from-scratch v(n+1) program, so every downstream
//! artifact — dump text, index, analysis report — is byte-identical.

use backdroid_ir::wire::{self, fnv1a64_wide, WireError, WireReader, WireWriter};
use backdroid_ir::{Class, ClassName, MethodSig, Program};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Canonical wire encoding of one class — the byte string a chunk key
/// addresses. Two classes have equal chunk bytes iff they are equal
/// values (the encoder is injective over the IR).
pub fn class_chunk_bytes(class: &Class) -> Vec<u8> {
    let mut w = WireWriter::new();
    wire::write_class(&mut w, class);
    w.into_bytes()
}

/// The content address of a class: [`fnv1a64_wide`] over
/// [`class_chunk_bytes`].
pub fn chunk_key(class: &Class) -> u64 {
    fnv1a64_wide(&class_chunk_bytes(class))
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

    /// The chunk key recorded for `name`, if the version defines it.
    pub fn key_of(&self, name: &ClassName) -> Option<u64> {
        self.entries.get(name).copied()
    }

    /// Number of classes in this version.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the version defines no classes.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries in class-name order.
    pub fn entries(&self) -> impl Iterator<Item = (&ClassName, u64)> + '_ {
        self.entries.iter().map(|(n, &k)| (n, k))
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
    /// Classes whose chunk keys match — carried over verbatim.
    pub unchanged: Vec<ClassName>,
    /// Classes present in both versions with different chunk keys.
    pub changed: Vec<ClassName>,
    /// Classes only the new version defines.
    pub added: Vec<ClassName>,
    /// Classes only the old version defines.
    pub removed: Vec<ClassName>,
}

impl DeltaManifest {
    /// Whether the update changes nothing.
    pub fn is_identity(&self) -> bool {
        self.changed.is_empty() && self.added.is_empty() && self.removed.is_empty()
    }

    /// Every class touched by the update (changed + added + removed).
    pub fn touched_classes(&self) -> BTreeSet<ClassName> {
        self.changed
            .iter()
            .chain(&self.added)
            .chain(&self.removed)
            .cloned()
            .collect()
    }
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
    /// Verdict reuse is off; the update still takes unchanged classes
    /// from the chunk store, and re-analysis is byte-identical to a
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

/// Why a chunk failed to load. Every variant is an expected disk-tier
/// condition; callers fall back to a full re-parse.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ChunkError {
    /// No chunk file for this key.
    Missing(u64),
    /// The chunk file exists but is truncated, has a bad checksum, or
    /// carries trailing bytes.
    Corrupt(u64),
    /// The checksummed payload decoded to something invalid, or the
    /// decoded class does not belong where the manifest placed it.
    Decode(WireError),
}

impl fmt::Display for ChunkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChunkError::Missing(k) => write!(f, "chunk {k:016x} missing"),
            ChunkError::Corrupt(k) => write!(f, "chunk {k:016x} corrupt"),
            ChunkError::Decode(e) => write!(f, "chunk payload: {e}"),
        }
    }
}

impl std::error::Error for ChunkError {}

impl From<WireError> for ChunkError {
    fn from(e: WireError) -> Self {
        ChunkError::Decode(e)
    }
}

/// Per-chunk file overhead: payload length (u64) + checksum trailer
/// (u64).
const CHUNK_FILE_OVERHEAD: usize = 16;

/// Monotonic suffix for temp files, so concurrent writers of the same
/// chunk never collide before their atomic renames.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A directory of content-addressed chunk files.
///
/// Each chunk lives at `<dir>/<key:016x>.chunk` as
/// `[payload len, u64 LE][payload][fnv1a64_wide(payload), u64 LE]`.
/// Because the key *is* the payload hash, the trailer equals the key
/// for a well-formed file — it exists to make torn writes and bit rot
/// detectable with one sequential read. Writes go through a temp file
/// and an atomic rename, and an existing file is never rewritten
/// (content-addressing makes rewrites pointless), so concurrent
/// writers are safe by construction.
#[derive(Clone, Debug)]
pub struct ChunkStore {
    dir: PathBuf,
}

impl ChunkStore {
    /// Opens (creating if needed) a chunk store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ChunkStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ChunkStore { dir })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.chunk"))
    }

    /// Whether a chunk file for `key` exists (without validating it).
    pub fn contains(&self, key: u64) -> bool {
        self.path_for(key).exists()
    }

    /// Stores `payload` under its content hash, returning `(key, true)`
    /// if a new file was written or `(key, false)` if the chunk was
    /// already present (dedup across versions).
    pub fn put(&self, payload: &[u8]) -> io::Result<(u64, bool)> {
        let key = fnv1a64_wide(payload);
        let path = self.path_for(key);
        if path.exists() {
            return Ok((key, false));
        }
        let mut bytes = Vec::with_capacity(payload.len() + CHUNK_FILE_OVERHEAD);
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&key.to_le_bytes());
        let tmp = self.dir.join(format!(
            ".tmp-{:016x}-{}-{}",
            key,
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, &bytes)?;
        match std::fs::rename(&tmp, &path) {
            Ok(()) => Ok((key, true)),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                // A concurrent writer may have won the rename race;
                // content-addressing means its bytes are ours.
                if path.exists() {
                    Ok((key, false))
                } else {
                    Err(e)
                }
            }
        }
    }

    /// Loads and validates the chunk for `key`. Total: every corruption
    /// mode (missing file, truncation, checksum or length mismatch,
    /// trailing bytes, payload not hashing to its own key) maps to a
    /// [`ChunkError`].
    pub fn get(&self, key: u64) -> Result<Vec<u8>, ChunkError> {
        let bytes = std::fs::read(self.path_for(key)).map_err(|_| ChunkError::Missing(key))?;
        if bytes.len() < CHUNK_FILE_OVERHEAD {
            return Err(ChunkError::Corrupt(key));
        }
        let len = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
        let len = usize::try_from(len).map_err(|_| ChunkError::Corrupt(key))?;
        if bytes.len() != len + CHUNK_FILE_OVERHEAD {
            return Err(ChunkError::Corrupt(key));
        }
        let payload = &bytes[8..8 + len];
        let stored = u64::from_le_bytes(bytes[8 + len..].try_into().expect("8 bytes"));
        if stored != key || fnv1a64_wide(payload) != key {
            return Err(ChunkError::Corrupt(key));
        }
        Ok(payload.to_vec())
    }

    /// Writes every class chunk of `program`, returning
    /// `(chunks_written, chunks_deduped)`.
    pub fn put_program(&self, program: &Program) -> io::Result<(usize, usize)> {
        let mut written = 0;
        let mut deduped = 0;
        for class in program.classes() {
            let (_, fresh) = self.put(&class_chunk_bytes(class))?;
            if fresh {
                written += 1;
            } else {
                deduped += 1;
            }
        }
        Ok((written, deduped))
    }
}

/// Rebuilds the v(n+1) program named by `next`: classes whose keys
/// match `prior`'s manifest are cloned from the resident prior
/// program; everything else is fetched from the chunk store and
/// decoded (the decoder re-validates structure, so a hash collision
/// cannot smuggle in a malformed class).
///
/// Errors — a missing or corrupt chunk — leave the caller to fall
/// back to a full re-parse; on success the result is **equal** to the
/// from-scratch v(n+1) program, which is what makes every downstream
/// byte identical.
pub fn apply_delta(
    prior: &Program,
    prior_manifest: &ChunkManifest,
    next: &ChunkManifest,
    store: &ChunkStore,
) -> Result<Program, ChunkError> {
    let mut program = Program::new();
    for (name, key) in next.entries() {
        if prior_manifest.key_of(name) == Some(key) {
            let class = prior.class(name).ok_or(ChunkError::Missing(key))?.clone();
            program.add_class(class);
            continue;
        }
        let payload = store.get(key)?;
        let mut r = WireReader::new(&payload);
        let class = wire::read_class(&mut r)?;
        if !r.is_empty() {
            return Err(ChunkError::Decode(WireError::Malformed(
                "unconsumed chunk bytes".to_string(),
            )));
        }
        if class.name() != name {
            return Err(ChunkError::Decode(WireError::Malformed(format!(
                "chunk {key:016x} decodes to {}, manifest says {name}",
                class.name()
            ))));
        }
        program.add_class(class);
    }
    Ok(program)
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
        assert!(old.diff(&old).is_identity());
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

    #[test]
    fn store_round_trips_dedups_and_detects_corruption() {
        let dir = std::env::temp_dir().join(format!(
            "backdroid-chunks-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let store = ChunkStore::open(&dir).unwrap();
        let p = two_class_program("hello");
        let class = p.class(&ClassName::new("com.chunk.A")).unwrap();
        let payload = class_chunk_bytes(class);
        let (key, fresh) = store.put(&payload).unwrap();
        assert!(fresh);
        let (key2, fresh2) = store.put(&payload).unwrap();
        assert_eq!(key, key2);
        assert!(!fresh2, "second put dedups");
        assert_eq!(store.get(key).unwrap(), payload);

        // Truncation and bit flips are detected, never decoded.
        let path = store.path_for(key);
        let good = std::fs::read(&path).unwrap();
        std::fs::write(&path, &good[..good.len() - 3]).unwrap();
        assert_eq!(store.get(key), Err(ChunkError::Corrupt(key)));
        let mut flipped = good.clone();
        flipped[9] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        assert_eq!(store.get(key), Err(ChunkError::Corrupt(key)));
        std::fs::write(&path, &good).unwrap();
        assert!(store.get(key).is_ok());
        assert_eq!(store.get(key ^ 1), Err(ChunkError::Missing(key ^ 1)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn apply_delta_rebuilds_the_exact_new_program() {
        let dir = std::env::temp_dir().join(format!(
            "backdroid-chunks-apply-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let store = ChunkStore::open(&dir).unwrap();
        let old = two_class_program("hello");
        let new = two_class_program("world");
        let old_m = ChunkManifest::of_program(&old);
        let new_m = ChunkManifest::of_program(&new);
        let (written, deduped) = store.put_program(&new).unwrap();
        assert_eq!((written, deduped), (2, 0));
        let rebuilt = apply_delta(&old, &old_m, &new_m, &store).unwrap();
        assert_eq!(rebuilt, new);
        // A store missing the changed chunk forces the fallback path.
        let changed_key = new_m.key_of(&ClassName::new("com.chunk.A")).unwrap();
        std::fs::remove_file(store.path_for(changed_key)).unwrap();
        assert_eq!(
            apply_delta(&old, &old_m, &new_m, &store),
            Err(ChunkError::Missing(changed_key))
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
