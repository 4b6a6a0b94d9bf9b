//! Symbol interning for the search core.
//!
//! The inverted index used to key its posting lists by freshly
//! `format!`-ed `String`s, so every probe paid an allocation plus a
//! full string hash + compare against the map's keys. [`SymbolTable`]
//! replaces that with an intern pool: every distinct token is stored
//! exactly once in a contiguous text arena and addressed by a dense
//! `u32` [`Sym`] id, assigned in first-encounter order. Tokenization
//! interns each occurrence once at build time; queries *probe* the
//! table with the needle split into borrowed parts (namespace prefix +
//! payload) — the FNV-1a hash streams across the parts, so a probe
//! allocates nothing and compares at most the one arena slice whose
//! hash matched.
//!
//! The table is wire-serializable as a bare ordered string list
//! ([`SymbolTable::write_wire`]), which makes the id assignment part of
//! the snapshot contract: `Sym` `k` always names the `k`-th stored
//! string, so posting lists serialized in id order need no keys at all.

use backdroid_ir::wire::{fnv1a64_wide, WireError, WireReader, WireWriter};

/// A dense interned-symbol id: index of the string in its
/// [`SymbolTable`], assigned in first-encounter order.
pub type Sym = u32;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streams `bytes` into an in-progress FNV-1a64 hash.
fn fnv_accum(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a64 over the concatenation of `parts`, without concatenating.
fn hash_parts(parts: &[&str]) -> u64 {
    parts
        .iter()
        .fold(FNV_OFFSET, |h, p| fnv_accum(h, p.as_bytes()))
}

/// A string ↔ [`Sym`] intern pool backed by one contiguous text arena.
///
/// Layout: all interned strings concatenated in `text`, addressed by
/// `(offset, len)` spans; an open-addressing (linear-probe) bucket
/// array maps FNV-1a64 hashes to ids. Equality checks compare the
/// probe's parts piecewise against the arena slice — no temporary
/// concatenation on either the intern or the lookup path.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// Every interned string, concatenated in id order.
    text: String,
    /// Per-symbol `(offset, len)` into `text`, indexed by [`Sym`].
    spans: Vec<(u32, u32)>,
    /// Per-symbol FNV-1a64 hash (avoids re-hashing on resize/compare).
    hashes: Vec<u64>,
    /// Open-addressing buckets holding `sym + 1` (`0` = empty); always
    /// a power of two.
    buckets: Vec<u32>,
}

impl SymbolTable {
    /// An empty table.
    pub fn new() -> SymbolTable {
        SymbolTable::default()
    }

    /// Number of distinct symbols interned.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no symbol has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The string a symbol stands for. Panics if `sym` was not issued
    /// by this table.
    pub fn resolve(&self, sym: Sym) -> &str {
        let (off, len) = self.spans[sym as usize];
        &self.text[off as usize..(off + len) as usize]
    }

    /// All symbols with their strings, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        (0..self.spans.len() as u32).map(move |sym| (sym, self.resolve(sym)))
    }

    /// Whether symbol `sym`'s string equals the concatenation of
    /// `parts`, compared piecewise against the arena slice.
    fn equals_parts(&self, sym: Sym, parts: &[&str]) -> bool {
        let mut cur = self.resolve(sym);
        for part in parts {
            match cur.strip_prefix(part) {
                Some(rest) => cur = rest,
                None => return false,
            }
        }
        cur.is_empty()
    }

    /// Interns the concatenation of `parts`, returning its id —
    /// existing symbols are found without allocating; new symbols
    /// append to the arena exactly once.
    pub fn intern(&mut self, parts: &[&str]) -> Sym {
        if self.buckets.is_empty() {
            self.rebuild_buckets(16);
        } else if (self.spans.len() + 1) * 8 > self.buckets.len() * 7 {
            // Keep the load factor below 7/8 so probe chains stay short.
            self.rebuild_buckets(self.buckets.len() * 2);
        }
        let h = hash_parts(parts);
        let mask = self.buckets.len() - 1;
        let mut slot = (h as usize) & mask;
        loop {
            match self.buckets[slot] {
                0 => {
                    let sym = self.spans.len() as Sym;
                    let off = self.text.len() as u32;
                    for part in parts {
                        self.text.push_str(part);
                    }
                    self.spans.push((off, self.text.len() as u32 - off));
                    self.hashes.push(h);
                    self.buckets[slot] = sym + 1;
                    return sym;
                }
                entry => {
                    let sym = entry - 1;
                    if self.hashes[sym as usize] == h && self.equals_parts(sym, parts) {
                        return sym;
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Finds the id of the concatenation of `parts` without interning —
    /// the allocation-free query-path probe.
    pub fn lookup(&self, parts: &[&str]) -> Option<Sym> {
        if self.buckets.is_empty() {
            return None;
        }
        let h = hash_parts(parts);
        let mask = self.buckets.len() - 1;
        let mut slot = (h as usize) & mask;
        loop {
            match self.buckets[slot] {
                0 => return None,
                entry => {
                    let sym = entry - 1;
                    if self.hashes[sym as usize] == h && self.equals_parts(sym, parts) {
                        return Some(sym);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Re-slots every symbol into a fresh bucket array of `cap` slots
    /// (a power of two).
    fn rebuild_buckets(&mut self, cap: usize) {
        let mut buckets = vec![0u32; cap];
        let mask = cap - 1;
        for (i, &h) in self.hashes.iter().enumerate() {
            let mut slot = (h as usize) & mask;
            while buckets[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            buckets[slot] = i as u32 + 1;
        }
        self.buckets = buckets;
    }

    /// Wire-encodes the table as its strings in id order. The id
    /// assignment is thereby part of the encoding: symbol `k` is the
    /// `k`-th string. Deterministic — equal tables (same strings in the
    /// same order) encode byte-identically.
    pub fn write_wire(&self, w: &mut WireWriter) {
        w.put_len(self.spans.len());
        for sym in 0..self.spans.len() as u32 {
            w.put_str(self.resolve(sym));
        }
    }

    /// Decodes a table written by [`SymbolTable::write_wire`],
    /// rejecting duplicate strings (which would silently remap ids).
    pub fn read_wire(r: &mut WireReader<'_>) -> Result<SymbolTable, WireError> {
        let n = r.get_len(1)?;
        let mut table = SymbolTable::default();
        // Size the buckets for all `n` symbols up front, so decoding
        // never re-slots them.
        table.rebuild_buckets(((n + 1) * 8 / 7 + 1).next_power_of_two().max(16));
        for i in 0..n {
            let s = r.get_str()?;
            // A duplicate string interns to its earlier id instead of `i`.
            if table.intern(&[s]) as usize != i {
                return Err(WireError::Malformed("duplicate interned symbol".into()));
            }
        }
        Ok(table)
    }

    /// Structurally validates an encoded table without building it:
    /// checks the string list decodes, is fully consumed, and holds no
    /// duplicates (hash-sorted, ties compared byte-wise). Returns the
    /// symbol count. Used by the lazy snapshot restore to reject a
    /// malformed section eagerly while deferring the arena build.
    pub fn validate_wire(bytes: &[u8]) -> Result<usize, WireError> {
        let mut r = WireReader::new(bytes);
        let n = r.get_len(1)?;
        let mut seen: Vec<(u64, &str)> = Vec::with_capacity(n);
        for _ in 0..n {
            let s = r.get_str()?;
            seen.push((fnv1a64_wide(s.as_bytes()), s));
        }
        if !r.is_empty() {
            return Err(WireError::Malformed(
                "trailing bytes after symbol table".into(),
            ));
        }
        seen.sort_unstable();
        if seen.windows(2).any(|w| w[0] == w[1]) {
            return Err(WireError::Malformed("duplicate interned symbol".into()));
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut t = SymbolTable::new();
        let a = t.intern(&["i:", "Lcom/a/B;.go:()V"]);
        let b = t.intern(&["s:", "AES"]);
        let a2 = t.intern(&["i:", "Lcom/a/B;.go:()V"]);
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(a2, a);
        assert_eq!(t.len(), 2);
        assert_eq!(t.resolve(a), "i:Lcom/a/B;.go:()V");
        assert_eq!(t.resolve(b), "s:AES");
    }

    #[test]
    fn lookup_matches_intern_across_part_splits() {
        let mut t = SymbolTable::new();
        let sym = t.intern(&["c:", "Lcom/a/B;"]);
        // Any split of the same concatenation finds the same symbol.
        assert_eq!(t.lookup(&["c:", "Lcom/a/B;"]), Some(sym));
        assert_eq!(t.lookup(&["c:Lcom/a/B;"]), Some(sym));
        assert_eq!(t.lookup(&["c:L", "com/a/B;"]), Some(sym));
        assert_eq!(t.lookup(&["c:", "Lcom/a/X;"]), None);
        // Part boundaries are not symbol boundaries: a prefix is no hit.
        assert_eq!(t.lookup(&["c:"]), None);
        assert_eq!(t.lookup(&[]), None);
    }

    #[test]
    fn growth_preserves_every_symbol() {
        let mut t = SymbolTable::new();
        let syms: Vec<Sym> = (0..500)
            .map(|i| t.intern(&["n:", &format!("m{i}")]))
            .collect();
        assert_eq!(t.len(), 500);
        for (i, &sym) in syms.iter().enumerate() {
            assert_eq!(sym, i as Sym);
            assert_eq!(t.lookup(&["n:", &format!("m{i}")]), Some(sym));
            assert_eq!(t.resolve(sym), format!("n:m{i}"));
        }
    }

    #[test]
    fn wire_round_trip_preserves_ids_and_rejects_duplicates() {
        let mut t = SymbolTable::new();
        t.intern(&["i:", "Lb;.f:()V"]);
        t.intern(&["s:", ""]);
        t.intern(&["s:", "x\u{e9}"]);
        let mut w = WireWriter::new();
        t.write_wire(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(SymbolTable::validate_wire(&bytes), Ok(3));
        let back = SymbolTable::read_wire(&mut WireReader::new(&bytes)).unwrap();
        assert_eq!(back.len(), t.len());
        for (sym, s) in t.iter() {
            assert_eq!(back.resolve(sym), s);
            assert_eq!(back.lookup(&[s]), Some(sym));
        }
        // Duplicate strings are rejected by both the validator and the
        // decoder.
        let mut w = WireWriter::new();
        w.put_len(2);
        w.put_str("dup");
        w.put_str("dup");
        let bad = w.into_bytes();
        assert!(SymbolTable::validate_wire(&bad).is_err());
        assert!(SymbolTable::read_wire(&mut WireReader::new(&bad)).is_err());
    }

    #[test]
    fn validator_rejects_truncation_and_trailing_bytes() {
        let mut t = SymbolTable::new();
        t.intern(&["n:", "go"]);
        let mut w = WireWriter::new();
        t.write_wire(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            assert!(SymbolTable::validate_wire(&bytes[..cut]).is_err());
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(SymbolTable::validate_wire(&trailing).is_err());
    }
}
