//! Persistent app-image snapshots: a compact, versioned, checksummed
//! binary encoding of [`AppArtifacts`].
//!
//! BackDroid's preprocessing — encode to DEX, disassemble, index the
//! plaintext (§III) — is the whole cost of a cold app load. A snapshot
//! captures every preprocessing product (IR program, manifest, indexed
//! [`BytecodeText`] *with* its posting lists), so restoring an app image
//! is a cheap decode instead of a re-parse: the disk tier of the
//! serving layer's two-tier store persists exactly this format.
//!
//! ## Container layout
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"BDSNAP\r\n"  (the \r\n catches text-mode mangling)
//!      8     4  format version, u32 LE   (SNAPSHOT_VERSION)
//!     12     8  payload length, u64 LE
//!     20     n  payload: section directory + section blobs
//!   20+n     8  checksum of the section directory, u64 LE
//! ```
//!
//! The payload opens with a **section directory** — a section count
//! byte, then per section its id byte, varint length, and a checksum of
//! the blob — followed by the blobs in id order. Checksums are
//! lane-widened FNV-1a ([`backdroid_ir::wire::fnv1a64_wide`]), and every
//! payload byte is covered by exactly one: blobs by their directory
//! entries, the directory itself by the trailer — so a restore makes a
//! single fast hash pass over the file.
//!
//! ```text
//! id  section   contents                                decoded
//!  0  program   class/method counts + wire IR program   on first touch
//!  1  manifest  wire-encoded Android manifest           eagerly
//!  2  text      dump arena + line table + descs         on first touch
//!  3  spans     method spans + line → span map          on first touch
//!  4  symbols   interned search tokens                  on first touch
//!  5  postings  flattened posting lists + owners        on first touch
//! ```
//!
//! Each section is independently checksummed, but only the Android
//! manifest is *decoded* eagerly: the program section parks its blob in
//! a [`backdroid_search::Lazy`] cell inside [`AppArtifacts`] (its count
//! prefix answers the store's `estimated_bytes` accounting up front),
//! and the text and index sections park inside
//! [`BytecodeText::from_sections`] after structural validation — a
//! disk-warm load that only answers manifest-level questions never pays
//! the program decode, the arena copy, or the posting-list build, so
//! restore cost scales with what a request reads, not with app size
//! (the paper's §IV search-cost argument applied to the persistence
//! layer).
//!
//! The payload uses the deterministic wire vocabulary of
//! [`backdroid_ir::wire`], so **equal artifacts encode byte-identically**
//! — `to_snapshot(from_snapshot(b)) == b` — and CI can diff snapshots
//! across runs. Decoding is total: truncation, magic/version/checksum
//! mismatches, and structurally corrupt payloads all surface as
//! [`SnapshotError`], never as a panic, which is what lets the app store
//! fall back to a fresh parse when a disk snapshot has rotted.
//!
//! The search **backend choice is runtime configuration, not data**: it
//! is deliberately excluded from the format, and the restorer picks it —
//! both backends are hit-for-hit identical over the same text, so one
//! snapshot serves either.
//!
//! [`BytecodeText`]: backdroid_search::BytecodeText
//! [`BytecodeText::from_sections`]: backdroid_search::BytecodeText::from_sections

use crate::context::AppArtifacts;
use backdroid_ir::wire::{self, fnv1a64_wide, WireError, WireReader, WireWriter};
use backdroid_manifest::snapshot::{read_manifest, write_manifest};
use backdroid_search::{BackendChoice, BytecodeText};
use std::fmt;

/// The 8-byte container magic. `\r\n` inside the magic makes any
/// CRLF-translating copy fail loudly at the first check.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"BDSNAP\r\n";

/// The current snapshot format version. Bump on **any** payload layout
/// change: readers reject other versions and the store re-parses.
/// Version 2 introduced the section directory and the interned,
/// arena-backed text sections; version 3 added a per-class chunk
/// manifest as section 6; version 4 dropped it again, since an update
/// diffs the two programs by value (see [`crate::chunks`]).
pub const SNAPSHOT_VERSION: u32 = 4;

/// Bytes before the payload: magic + version + payload length.
const HEADER_LEN: usize = 8 + 4 + 8;

/// Number of payload sections; ids `0..SECTION_COUNT` in order.
const SECTION_COUNT: usize = 6;

/// Why a snapshot failed to load. Every variant is an expected runtime
/// condition for the disk tier (partially written file, stale format,
/// bit rot), so loading is total and the caller can fall back to a
/// fresh parse.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SnapshotError {
    /// The input ends before the container it promises.
    Truncated,
    /// The first 8 bytes are not [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The container is a different format version.
    VersionMismatch {
        /// Version found in the container.
        found: u32,
        /// Version this build reads ([`SNAPSHOT_VERSION`]).
        expected: u32,
    },
    /// The payload (or one of its sections) does not hash to the stored
    /// checksum.
    ChecksumMismatch,
    /// Bytes follow the checksum — the file is not one clean container.
    TrailingBytes,
    /// The checksummed payload decoded to something structurally invalid
    /// (possible only on a hash collision or a buggy writer, so it is
    /// still reported, never trusted).
    Decode(WireError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a BackDroid snapshot (bad magic)"),
            SnapshotError::VersionMismatch { found, expected } => {
                write!(f, "snapshot version {found} (this build reads {expected})")
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::TrailingBytes => write!(f, "trailing bytes after snapshot"),
            SnapshotError::Decode(e) => write!(f, "snapshot payload: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<WireError> for SnapshotError {
    fn from(e: WireError) -> Self {
        SnapshotError::Decode(e)
    }
}

fn malformed(m: &str) -> SnapshotError {
    SnapshotError::Decode(WireError::Malformed(m.to_string()))
}

/// Decodes one fully-consumed section blob.
fn decode_section<T>(
    blob: &[u8],
    read: impl FnOnce(&mut WireReader<'_>) -> Result<T, WireError>,
) -> Result<T, SnapshotError> {
    let mut r = WireReader::new(blob);
    let value = read(&mut r)?;
    if !r.is_empty() {
        return Err(malformed("unconsumed section bytes"));
    }
    Ok(value)
}

impl AppArtifacts {
    /// Serializes these artifacts into one self-contained snapshot:
    /// header, section directory, wire-encoded section blobs (program,
    /// manifest, text arena, method spans, symbol table, posting
    /// lists), checksum. Forces the lazy posting-list index first, so a
    /// restored image never re-tokenizes.
    ///
    /// Deterministic: equal artifacts produce byte-identical snapshots,
    /// and `AppArtifacts::from_snapshot(&a.to_snapshot(), _)` followed
    /// by `to_snapshot` reproduces the input bytes exactly.
    pub fn to_snapshot(&self) -> Vec<u8> {
        let text = self.engine().text();
        let mut sections: Vec<Vec<u8>> = Vec::with_capacity(SECTION_COUNT);
        for id in 0..SECTION_COUNT {
            let mut w = WireWriter::new();
            match id {
                0 => {
                    // Count prefix: lets a restore answer
                    // `estimated_bytes` without decoding the program.
                    let program = self.program();
                    w.put_len(program.class_count());
                    w.put_len(program.method_count());
                    wire::write_program(&mut w, program);
                }
                1 => write_manifest(&mut w, self.manifest()),
                2 => text.write_text_section(&mut w),
                3 => text.write_spans_section(&mut w),
                4 => text.write_symbols_section(&mut w),
                _ => text.write_postings_section(&mut w),
            }
            sections.push(w.into_bytes());
        }

        let mut dir = WireWriter::new();
        dir.put_u8(SECTION_COUNT as u8);
        for (id, blob) in sections.iter().enumerate() {
            dir.put_u8(id as u8);
            dir.put_len(blob.len());
            dir.put_u64(fnv1a64_wide(blob));
        }
        let dir = dir.into_bytes();
        let dir_sum = fnv1a64_wide(&dir);
        let payload_len = dir.len() + sections.iter().map(Vec::len).sum::<usize>();

        let mut out = Vec::with_capacity(HEADER_LEN + payload_len + 8);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload_len as u64).to_le_bytes());
        out.extend_from_slice(&dir);
        for blob in &sections {
            out.extend_from_slice(blob);
        }
        out.extend_from_slice(&dir_sum.to_le_bytes());
        out
    }

    /// Restores artifacts from a snapshot produced by
    /// [`AppArtifacts::to_snapshot`], wrapping the decoded text in a
    /// fresh engine on `backend` (the backend is runtime configuration
    /// and not part of the format). Total: every corruption mode maps
    /// to a [`SnapshotError`].
    ///
    /// **Lazy**: only the manifest section decodes now (plus the
    /// program section's count prefix). The program blob and the
    /// structurally-validated text/index sections materialize when
    /// something first reads them — see the module docs and
    /// [`BytecodeText::from_sections`].
    pub fn from_snapshot(
        bytes: &[u8],
        backend: BackendChoice,
    ) -> Result<AppArtifacts, SnapshotError> {
        if bytes.len() < HEADER_LEN + 8 {
            return Err(SnapshotError::Truncated);
        }
        if bytes[..8] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: version,
                expected: SNAPSHOT_VERSION,
            });
        }
        let payload_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
        let payload_len = usize::try_from(payload_len).map_err(|_| SnapshotError::Truncated)?;
        let total = HEADER_LEN
            .checked_add(payload_len)
            .and_then(|n| n.checked_add(8))
            .ok_or(SnapshotError::Truncated)?;
        if bytes.len() < total {
            return Err(SnapshotError::Truncated);
        }
        if bytes.len() > total {
            return Err(SnapshotError::TrailingBytes);
        }
        let payload = &bytes[HEADER_LEN..HEADER_LEN + payload_len];
        let stored = u64::from_le_bytes(bytes[total - 8..].try_into().expect("8 bytes"));

        // Section directory: count, then (id, len, checksum) per
        // section, ids dense and in order. The trailing checksum covers
        // exactly these directory bytes; each blob is covered by its
        // entry — one hash pass over the file in total.
        let mut r = WireReader::new(payload);
        if r.get_u8()? as usize != SECTION_COUNT {
            return Err(malformed("unexpected section count"));
        }
        let mut entries = Vec::with_capacity(SECTION_COUNT);
        for id in 0..SECTION_COUNT {
            if r.get_u8()? as usize != id {
                return Err(malformed("section directory out of order"));
            }
            let len = r.get_len(1)?;
            let sum = r.get_u64()?;
            entries.push((len, sum));
        }
        let mut off = payload.len() - r.remaining();
        if fnv1a64_wide(&payload[..off]) != stored {
            return Err(SnapshotError::ChecksumMismatch);
        }
        let mut blobs: Vec<&[u8]> = Vec::with_capacity(SECTION_COUNT);
        for &(len, sum) in &entries {
            let end = off.checked_add(len).ok_or(SnapshotError::Truncated)?;
            if end > payload.len() {
                return Err(SnapshotError::Truncated);
            }
            let blob = &payload[off..end];
            if fnv1a64_wide(blob) != sum {
                return Err(SnapshotError::ChecksumMismatch);
            }
            blobs.push(blob);
            off = end;
        }
        if off != payload.len() {
            return Err(malformed("unconsumed payload bytes"));
        }

        // Program section: read the count prefix now, defer the decode.
        let mut pr = WireReader::new(blobs[0]);
        let class_count = pr.get_len(1)?;
        let method_count = pr.get_len(1)?;
        let program_blob = blobs[0][blobs[0].len() - pr.remaining()..].to_vec();
        let manifest = decode_section(blobs[1], read_manifest)?;
        let text = BytecodeText::from_sections(
            blobs[2].to_vec(),
            blobs[3].to_vec(),
            blobs[4].to_vec(),
            blobs[5].to_vec(),
        )?;
        Ok(AppArtifacts::from_deferred_parts(
            program_blob,
            class_count,
            method_count,
            manifest,
            text,
            backend,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backdroid, BackdroidOptions};
    use backdroid_ir::{
        ClassBuilder, ClassName, InvokeExpr, MethodBuilder, MethodSig, Type, Value,
    };
    use backdroid_manifest::{Component, ComponentKind, Manifest};

    fn sample_artifacts() -> AppArtifacts {
        let act = ClassName::new("com.snap.Main");
        let mut on_create = MethodBuilder::public(&act, "onCreate", vec![], Type::Void);
        on_create.invoke(InvokeExpr::call_static(
            MethodSig::new(
                "javax.crypto.Cipher",
                "getInstance",
                vec![Type::string()],
                Type::object("javax.crypto.Cipher"),
            ),
            vec![Value::str("AES/ECB/PKCS5Padding")],
        ));
        let mut program = backdroid_ir::Program::new();
        program.add_class(
            ClassBuilder::new("com.snap.Main")
                .extends("android.app.Activity")
                .method(on_create.build())
                .build(),
        );
        let mut manifest = Manifest::new("com.snap");
        manifest.register(Component::new(ComponentKind::Activity, "com.snap.Main"));
        AppArtifacts::new(program, manifest)
    }

    #[test]
    fn snapshot_round_trips_byte_identically_and_preserves_analysis() {
        let a = sample_artifacts();
        let bytes = a.to_snapshot();
        assert_eq!(bytes, a.to_snapshot(), "encoding is deterministic");
        let b = AppArtifacts::from_snapshot(&bytes, BackendChoice::default()).unwrap();
        assert_eq!(b.to_snapshot(), bytes, "re-snapshot is byte-identical");
        assert_eq!(b.estimated_bytes(), a.estimated_bytes());
        let tool = Backdroid::with_options(BackdroidOptions::default());
        let fresh = tool.analyze_artifacts(&a);
        let restored = tool.analyze_artifacts(&b);
        assert_eq!(fresh.sink_reports, restored.sink_reports);
        assert_eq!(restored.vulnerable_sinks().len(), 1);
    }

    #[test]
    fn restore_is_lazy_until_first_search() {
        let a = sample_artifacts();
        let bytes = a.to_snapshot();
        let b = AppArtifacts::from_snapshot(&bytes, BackendChoice::default()).unwrap();
        // Manifest-level facts are served without touching the program,
        // text, or posting sections.
        let text = b.engine().text();
        assert!(!b.is_program_materialized());
        assert!(!text.is_body_materialized());
        assert!(!text.is_index_materialized());
        assert_eq!(b.manifest().package(), a.manifest().package());
        assert_eq!(b.estimated_bytes(), a.estimated_bytes());
        assert!(!b.is_program_materialized());
        assert!(!text.is_body_materialized());
        assert!(!text.is_index_materialized());
        // Running an analysis materializes on demand — and answers
        // exactly as a fresh parse does.
        let tool = Backdroid::with_options(BackdroidOptions::default());
        let restored = tool.analyze_artifacts(&b);
        assert!(b.is_program_materialized());
        assert!(b.engine().text().is_index_materialized());
        assert_eq!(
            restored.sink_reports,
            tool.analyze_artifacts(&a).sink_reports
        );
    }

    #[test]
    fn one_snapshot_serves_both_backends_identically() {
        let a = sample_artifacts();
        let bytes = a.to_snapshot();
        let indexed = AppArtifacts::from_snapshot(&bytes, BackendChoice::Indexed).unwrap();
        let linear = AppArtifacts::from_snapshot(&bytes, BackendChoice::LinearScan).unwrap();
        let tool = Backdroid::with_options(BackdroidOptions::default());
        assert_eq!(
            tool.analyze_artifacts(&indexed).sink_reports,
            tool.analyze_artifacts(&linear).sink_reports
        );
    }

    #[test]
    fn every_corruption_mode_is_detected() {
        let bytes = sample_artifacts().to_snapshot();

        // Truncation: every strict prefix fails.
        for cut in (0..bytes.len()).step_by(11) {
            assert!(
                AppArtifacts::from_snapshot(&bytes[..cut], BackendChoice::default()).is_err(),
                "prefix of {cut} bytes loaded"
            );
        }

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert_eq!(
            AppArtifacts::from_snapshot(&bad, BackendChoice::default()).unwrap_err(),
            SnapshotError::BadMagic
        );

        // Version bump.
        let mut bad = bytes.clone();
        bad[8] = bad[8].wrapping_add(1);
        assert!(matches!(
            AppArtifacts::from_snapshot(&bad, BackendChoice::default()).unwrap_err(),
            SnapshotError::VersionMismatch {
                found: 5,
                expected: 4
            }
        ));

        // Version-2 files (before the chunk manifest section) and
        // version-3 files (with it) are stale, not corrupt — still
        // rejected with a version mismatch.
        for stale in [2u8, 3] {
            let mut bad = bytes.clone();
            bad[8] = stale;
            assert_eq!(
                AppArtifacts::from_snapshot(&bad, BackendChoice::default()).unwrap_err(),
                SnapshotError::VersionMismatch {
                    found: stale.into(),
                    expected: 4
                }
            );
        }

        // Payload bit flip.
        let mut bad = bytes.clone();
        let mid = HEADER_LEN + (bytes.len() - HEADER_LEN - 8) / 2;
        bad[mid] ^= 0x01;
        assert_eq!(
            AppArtifacts::from_snapshot(&bad, BackendChoice::default()).unwrap_err(),
            SnapshotError::ChecksumMismatch
        );

        // Checksum bit flip.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert_eq!(
            AppArtifacts::from_snapshot(&bad, BackendChoice::default()).unwrap_err(),
            SnapshotError::ChecksumMismatch
        );

        // Trailing garbage.
        let mut bad = bytes.clone();
        bad.push(0);
        assert_eq!(
            AppArtifacts::from_snapshot(&bad, BackendChoice::default()).unwrap_err(),
            SnapshotError::TrailingBytes
        );

        // The pristine bytes still load after all that.
        assert!(AppArtifacts::from_snapshot(&bytes, BackendChoice::default()).is_ok());
    }

    #[test]
    fn errors_render_usefully() {
        for (e, needle) in [
            (SnapshotError::Truncated, "truncated"),
            (SnapshotError::BadMagic, "magic"),
            (
                SnapshotError::VersionMismatch {
                    found: 9,
                    expected: 2,
                },
                "version 9",
            ),
            (SnapshotError::ChecksumMismatch, "checksum"),
            (SnapshotError::TrailingBytes, "trailing"),
            (SnapshotError::Decode(WireError::Truncated), "payload"),
        ] {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }
}
