//! The inverted search index: posting lists over the bytecode plaintext.
//!
//! BackDroid's thesis is that analysis cost should scale with the
//! sink-relevant code, not the app size — yet a grep answers every search
//! command by scanning every dump line. [`SearchIndex`] removes that last
//! linear factor: one tokenization pass over the lines
//! [`BytecodeText::index`] indexed (run lazily, on the first indexed
//! query) builds posting lists keyed by exactly the tokens
//! [`SearchCmd::canonical`](crate::SearchCmd::canonical) already defines
//! (method-ref invokes, class descriptors for `new-instance` /
//! `const-class`, `const-string` literals, field references, and bare
//! method-name calls), so the [`Indexed`](crate::Indexed) backend touches
//! only candidate lines instead of the whole dump.
//!
//! # Interned, flattened layout
//!
//! Tokens are interned into a [`SymbolTable`] at build time — each
//! distinct token is a dense `u32` [`Sym`] — and the posting lists are
//! flattened into **one** `Vec<u32>` of ascending line indices addressed
//! by a per-symbol prefix-offset table. A query probes the symbol table
//! with the needle split into borrowed `(namespace, payload)` parts
//! (see [`SymbolTable::lookup`]), then slices its posting range by id:
//! no key formatting, no per-probe allocation, no string compares
//! beyond the single hash-matched arena slice.
//!
//! The index is deliberately a *superset* structure: tokenization is
//! purely lexical over every line (every `L…;` descriptor occurrence,
//! every `;.name:(` member reference, every quote-delimited literal), and
//! the backend re-verifies each candidate with the same needle + opcode
//! guard the linear grep uses. That is what makes the
//! [`LinearScan`](crate::LinearScan) oracle and the indexed backend
//! hit-for-hit identical.
//!
//! [`BytecodeText::index`]: crate::BytecodeText::index

use crate::engine::SearchCmd;
use crate::symbol::{Sym, SymbolTable};
use backdroid_dex::{class_descriptor, field_ref_string, method_ref_string};
use backdroid_ir::wire::{self, WireError, WireReader, WireWriter};
use backdroid_ir::{ClassName, Type};

/// Sentinel for "line is outside any class section".
const NO_OWNER: u32 = u32::MAX;

/// Posting lists over one dump: interned token → ascending line indices.
#[derive(Debug, Default)]
pub struct SearchIndex {
    /// Interned tokens (`i:` invoke ref, `n:` method name, `c:` class
    /// descriptor, `s:` string literal, `f:` field ref), ids in
    /// first-encounter order.
    symbols: SymbolTable,
    /// Prefix offsets into `lines`: symbol `k`'s postings are
    /// `lines[offsets[k]..offsets[k + 1]]`. Length `symbols.len() + 1`.
    offsets: Vec<u32>,
    /// All posting lists flattened: ascending, deduplicated line
    /// indices per symbol range.
    lines: Vec<u32>,
    /// Classes seen in `Class descriptor` header lines, in dump order.
    classes: Vec<ClassName>,
    /// For each line, index into `classes` of the section owning it
    /// (`NO_OWNER` before the first class header).
    owners: Vec<u32>,
}

impl SearchIndex {
    /// Tokenizes the dump lines into posting lists. One pass, O(total
    /// text); built once per [`BytecodeText`](crate::BytecodeText), on
    /// the first indexed query. Every token occurrence is interned, so
    /// the pass allocates only for first-seen tokens.
    pub fn build<'a, I>(lines: I) -> SearchIndex
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut symbols = SymbolTable::new();
        let mut lists: Vec<Vec<u32>> = Vec::new();
        let mut classes: Vec<ClassName> = Vec::new();
        let mut owners: Vec<u32> = Vec::new();
        let mut current_owner = NO_OWNER;
        for (i, line) in lines.into_iter().enumerate() {
            if let Some(rest) = line.trim_start().strip_prefix("Class descriptor  : '") {
                if let Some(desc) = rest.strip_suffix('\'') {
                    if let Some(Type::Object(c)) = Type::from_descriptor(desc) {
                        classes.push(c);
                        current_owner = (classes.len() - 1) as u32;
                    }
                }
            }
            owners.push(current_owner);
            let i = i as u32;
            scan_tokens(line, &mut |prefix, payload| {
                let sym = symbols.intern(&[prefix, payload]) as usize;
                if sym == lists.len() {
                    lists.push(Vec::new());
                }
                let list = &mut lists[sym];
                if list.last() != Some(&i) {
                    list.push(i);
                }
            });
        }
        // Flatten the per-symbol lists into one contiguous run.
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        let mut flat = Vec::with_capacity(lists.iter().map(Vec::len).sum());
        offsets.push(0);
        for list in &lists {
            flat.extend_from_slice(list);
            offsets.push(flat.len() as u32);
        }
        SearchIndex {
            symbols,
            offsets,
            lines: flat,
            classes,
            owners,
        }
    }

    /// The posting range of symbol `sym`.
    fn list(&self, sym: Sym) -> &[u32] {
        let start = self.offsets[sym as usize] as usize;
        let end = self.offsets[sym as usize + 1] as usize;
        &self.lines[start..end]
    }

    /// Probes for the token `{prefix}{payload}` and returns its posting
    /// range — the allocation-free hot path.
    fn lookup_list(&self, prefix: &str, payload: &str) -> &[u32] {
        match self.symbols.lookup(&[prefix, payload]) {
            Some(sym) => self.list(sym),
            None => &[],
        }
    }

    /// Candidate lines for a search command — a superset of the lines the
    /// linear grep would match, in ascending order. The caller must
    /// re-verify each candidate against the command's needle and guard.
    pub fn candidates(&self, cmd: &SearchCmd) -> &[u32] {
        match cmd {
            SearchCmd::InvokeOf(m) => self.lookup_list("i:", &method_ref_string(m)),
            SearchCmd::MethodNameCall(n) => self.lookup_list("n:", n),
            SearchCmd::NewInstanceOf(c) | SearchCmd::ConstClass(c) => {
                self.lookup_list("c:", &class_descriptor(c))
            }
            SearchCmd::ConstString(s) => self.lookup_list("s:", s),
            SearchCmd::FieldAccess(f) | SearchCmd::StaticFieldAccess(f) => {
                self.lookup_list("f:", &field_ref_string(f))
            }
        }
    }

    /// Candidate lines containing a class descriptor anywhere (code
    /// operands, `Superclass` / `Interfaces` headers, field headers) —
    /// the posting list behind the class-level "invoked by" search.
    pub fn class_candidates(&self, descriptor: &str) -> &[u32] {
        self.lookup_list("c:", descriptor)
    }

    /// The class whose dump section contains line `i` (tracked from
    /// `Class descriptor` headers), if any.
    pub fn owner_class_of(&self, i: usize) -> Option<&ClassName> {
        let owner = *self.owners.get(i)?;
        if owner == NO_OWNER {
            None
        } else {
            self.classes.get(owner as usize)
        }
    }

    /// All posting lists as `(token, lines)` pairs in symbol-id order.
    pub fn iter_postings(&self) -> impl Iterator<Item = (&str, &[u32])> {
        (0..self.symbols.len() as u32).map(move |sym| (self.symbols.resolve(sym), self.list(sym)))
    }

    /// Wire-encodes the symbol table section: the interned strings in
    /// id order (see [`SymbolTable::write_wire`]).
    pub fn write_symbols(&self, w: &mut WireWriter) {
        self.symbols.write_wire(w);
    }

    /// Wire-encodes the postings section: one delta-encoded line list
    /// per symbol in id order (ids are implicit — list `k` belongs to
    /// symbol `k`), then the class table and the per-line owner map.
    /// Deterministic: equal indexes produce byte-identical encodings —
    /// the determinism the snapshot format requires.
    pub fn write_postings(&self, w: &mut WireWriter) {
        w.put_len(self.symbols.len());
        for sym in 0..self.symbols.len() as u32 {
            let lines = self.list(sym);
            w.put_len(lines.len());
            let mut prev = 0u32;
            for (i, &line) in lines.iter().enumerate() {
                let delta = if i == 0 { line } else { line - prev };
                w.put_uvarint(delta as u64);
                prev = line;
            }
        }
        w.put_len(self.classes.len());
        for c in &self.classes {
            wire::write_class_name(w, c);
        }
        w.put_len(self.owners.len());
        for &o in &self.owners {
            // NO_OWNER compresses to one byte instead of a 5-byte varint.
            w.put_uvarint(if o == NO_OWNER { 0 } else { o as u64 + 1 });
        }
    }

    /// Decodes a postings section written by
    /// [`SearchIndex::write_postings`] against an already-decoded
    /// symbol table, validating every structural invariant the query
    /// paths rely on: one list per symbol, strictly ascending
    /// deduplicated postings, line indices inside the
    /// `line_count`-line dump, one owner entry per line, and owner
    /// references inside the class table.
    pub fn read_postings(
        r: &mut WireReader<'_>,
        line_count: usize,
        symbols: SymbolTable,
    ) -> Result<SearchIndex, WireError> {
        let malformed = |m: &str| WireError::Malformed(m.to_string());
        let n_lists = r.get_len(1)?;
        if n_lists != symbols.len() {
            return Err(malformed("posting list count does not match symbols"));
        }
        let mut offsets = Vec::with_capacity(n_lists + 1);
        let mut flat: Vec<u32> = Vec::new();
        offsets.push(0);
        for _ in 0..n_lists {
            let n_lines = r.get_len(1)?;
            let mut acc = 0u64;
            for i in 0..n_lines {
                let delta = r.get_uvarint()?;
                if i > 0 && delta == 0 {
                    return Err(malformed("posting line repeated"));
                }
                acc = if i == 0 {
                    delta
                } else {
                    acc.checked_add(delta)
                        .ok_or_else(|| malformed("posting delta overflows"))?
                };
                if acc >= line_count as u64 {
                    return Err(malformed("posting line outside the dump"));
                }
                flat.push(acc as u32);
            }
            offsets.push(flat.len() as u32);
        }
        let n_classes = r.get_len(1)?;
        let mut classes = Vec::with_capacity(n_classes);
        for _ in 0..n_classes {
            classes.push(wire::read_class_name(r)?);
        }
        let n_owners = r.get_len(1)?;
        if n_owners != line_count {
            return Err(malformed("owner table does not cover every line"));
        }
        let mut owners = Vec::with_capacity(n_owners);
        for _ in 0..n_owners {
            let v = r.get_uvarint()?;
            let owner = if v == 0 {
                NO_OWNER
            } else {
                let idx = v - 1;
                if idx >= classes.len() as u64 {
                    return Err(malformed("owner references a missing class"));
                }
                idx as u32
            };
            owners.push(owner);
        }
        Ok(SearchIndex {
            symbols,
            offsets,
            lines: flat,
            classes,
            owners,
        })
    }

    /// Structurally validates an encoded postings section (as checked
    /// by [`SearchIndex::read_postings`]) without building the index —
    /// the eager half of the lazy snapshot restore. `sym_count` is the
    /// symbol count reported by
    /// [`SymbolTable::validate_wire`](crate::SymbolTable::validate_wire).
    pub fn validate_postings(
        bytes: &[u8],
        line_count: usize,
        sym_count: usize,
    ) -> Result<(), WireError> {
        let malformed = |m: &str| WireError::Malformed(m.to_string());
        let mut r = WireReader::new(bytes);
        let n_lists = r.get_len(1)?;
        if n_lists != sym_count {
            return Err(malformed("posting list count does not match symbols"));
        }
        for _ in 0..n_lists {
            let n_lines = r.get_len(1)?;
            let mut acc = 0u64;
            for i in 0..n_lines {
                let delta = r.get_uvarint()?;
                if i > 0 && delta == 0 {
                    return Err(malformed("posting line repeated"));
                }
                acc = if i == 0 {
                    delta
                } else {
                    acc.checked_add(delta)
                        .ok_or_else(|| malformed("posting delta overflows"))?
                };
                if acc >= line_count as u64 {
                    return Err(malformed("posting line outside the dump"));
                }
            }
        }
        let n_classes = r.get_len(1)?;
        for _ in 0..n_classes {
            wire::read_class_name(&mut r)?;
        }
        let n_owners = r.get_len(1)?;
        if n_owners != line_count {
            return Err(malformed("owner table does not cover every line"));
        }
        for _ in 0..n_owners {
            // Owner entries are class index + 1, 0 meaning "no owner".
            let v = r.get_uvarint()?;
            if v > n_classes as u64 {
                return Err(malformed("owner references a missing class"));
            }
        }
        if !r.is_empty() {
            return Err(malformed("trailing bytes after postings"));
        }
        Ok(())
    }

    /// Number of distinct tokens indexed.
    pub fn token_count(&self) -> usize {
        self.symbols.len()
    }

    /// Total postings stored across all tokens.
    pub fn posting_count(&self) -> usize {
        self.lines.len()
    }
}

/// Extracts every lexical token occurrence from one line, calling
/// `emit(namespace_prefix, payload)` per occurrence. Shared between the
/// interned build and the string-keyed reference build so both see
/// exactly the same token stream.
fn scan_tokens(line: &str, emit: &mut impl FnMut(&str, &str)) {
    // Quote-delimited literals: enumerate every quote pair so any
    // needle of the form `"…"` present in the line has its content
    // keyed (dump lines carry at most one literal, so this stays
    // quadratic only in theory).
    for (qa, _) in line.match_indices('"') {
        let after = &line[qa + 1..];
        for (qb, _) in after.match_indices('"') {
            emit("s:", &after[..qb]);
        }
    }

    // Bare method-name calls: every `;.name:(` occurrence, parsed
    // lexically so even refs the descriptor scan below cannot parse
    // still land in the name posting list.
    for (semi, _) in line.match_indices(';') {
        let Some(member) = line[semi + 1..].strip_prefix('.') else {
            continue;
        };
        if let Some(colon) = member.find(':') {
            let name = &member[..colon];
            if !name.is_empty() && member[colon + 1..].starts_with('(') {
                emit("n:", name);
            }
        }
    }

    // Class descriptors and member references: try a descriptor parse
    // at every `L` byte, mirroring how the linear grep's needles can
    // match at any position.
    for (p, _) in line.match_indices('L') {
        let Some(desc_len) = Type::descriptor_len(&line[p..]) else {
            continue;
        };
        emit("c:", &line[p..p + desc_len]);
        let rest = &line[p + desc_len..];
        let Some(member) = rest.strip_prefix('.') else {
            continue;
        };
        let Some(colon) = member.find(':') else {
            continue;
        };
        let name = &member[..colon];
        if name.is_empty() {
            continue;
        }
        let after = &member[colon + 1..];
        if after.starts_with('(') {
            // Method reference: `Lc;.name:(params)ret`.
            if let Some(proto_len) = proto_prefix_len(after) {
                let end = p + desc_len + 1 + colon + 1 + proto_len;
                emit("i:", &line[p..end]);
            }
        } else if let Some(ty_len) = Type::descriptor_len(after) {
            // Field reference: `Lc;.name:type`.
            let end = p + desc_len + 1 + colon + 1 + ty_len;
            emit("f:", &line[p..end]);
        }
    }
}

/// Builds the posting lists as plain `String`-keyed maps via the same
/// tokenizer the interned build uses — the reference implementation the
/// interning layer is property-tested against. Not a public API.
#[doc(hidden)]
pub fn string_keyed_postings<'a, I>(lines: I) -> std::collections::BTreeMap<String, Vec<u32>>
where
    I: IntoIterator<Item = &'a str>,
{
    let mut postings: std::collections::BTreeMap<String, Vec<u32>> = Default::default();
    for (i, line) in lines.into_iter().enumerate() {
        let i = i as u32;
        scan_tokens(line, &mut |prefix, payload| {
            let list = postings.entry(format!("{prefix}{payload}")).or_default();
            if list.last() != Some(&i) {
                list.push(i);
            }
        });
    }
    postings
}

/// Length of the `(params)ret` proto at the start of `s`, if one parses.
fn proto_prefix_len(s: &str) -> Option<usize> {
    if !s.starts_with('(') {
        return None;
    }
    let mut end = 1;
    while !s[end..].starts_with(')') {
        end += Type::descriptor_len(&s[end..])?;
    }
    end += 1;
    Some(end + Type::descriptor_len(&s[end..])?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use backdroid_ir::MethodSig;

    fn build(src: &[&str]) -> SearchIndex {
        SearchIndex::build(src.iter().copied())
    }

    #[test]
    fn invoke_refs_are_keyed_exactly() {
        let idx = build(&[
            "0000: invoke-virtual {v1}, Lcom/a/Server;.start:()V // method@0001",
            "0002: nop // spacer",
            "0004: invoke-static {}, Lcom/a/Util;.go:(ILjava/lang/String;)[B // method@0002",
        ]);
        let m = MethodSig::new("com.a.Server", "start", vec![], Type::Void);
        assert_eq!(idx.candidates(&SearchCmd::InvokeOf(m)), &[0]);
        let g = MethodSig::new(
            "com.a.Util",
            "go",
            vec![Type::Int, Type::string()],
            Type::array(Type::Byte),
        );
        assert_eq!(idx.candidates(&SearchCmd::InvokeOf(g)), &[2]);
        assert_eq!(
            idx.candidates(&SearchCmd::MethodNameCall("go".into())),
            &[2]
        );
    }

    #[test]
    fn string_literal_pairs_cover_substring_needles() {
        let idx = build(&["0000: const-string v0, \"AES/ECB/PKCS5Padding\" // string@0001"]);
        assert_eq!(
            idx.candidates(&SearchCmd::ConstString("AES/ECB/PKCS5Padding".into())),
            &[0]
        );
        // Partial content is not a full quote-pair token.
        assert!(idx
            .candidates(&SearchCmd::ConstString("AES/ECB".into()))
            .is_empty());
    }

    #[test]
    fn class_descriptor_occurrences_index_headers_and_owners() {
        let idx = build(&[
            "Class #0            -",
            "  Class descriptor  : 'Lcom/a/Sub;'",
            "  Superclass        : 'Lcom/a/Base;'",
            "0000: new-instance v0, Lcom/a/Base; // type@0002",
        ]);
        let base = ClassName::new("com.a.Base");
        assert_eq!(idx.class_candidates("Lcom/a/Base;"), &[2, 3]);
        assert_eq!(idx.candidates(&SearchCmd::NewInstanceOf(base)), &[2, 3]);
        assert!(idx.owner_class_of(0).is_none());
        assert_eq!(idx.owner_class_of(2).unwrap().as_str(), "com.a.Sub");
        assert_eq!(idx.owner_class_of(3).unwrap().as_str(), "com.a.Sub");
    }

    #[test]
    fn field_refs_distinguish_type_suffix() {
        let idx = build(&[
            "0000: sget v0, Lcom/a/Server;.PORT:I // field@0000",
            "0001: iget-object v1, v2, Lcom/a/Server;.host:Ljava/lang/String; // field@0001",
        ]);
        let port = backdroid_ir::FieldSig::new("com.a.Server", "PORT", Type::Int);
        assert_eq!(idx.candidates(&SearchCmd::FieldAccess(port.clone())), &[0]);
        assert_eq!(idx.candidates(&SearchCmd::StaticFieldAccess(port)), &[0]);
        let host = backdroid_ir::FieldSig::new("com.a.Server", "host", Type::string());
        assert_eq!(idx.candidates(&SearchCmd::FieldAccess(host)), &[1]);
    }

    #[test]
    fn interned_build_matches_string_keyed_reference() {
        let src = [
            "Class #0            -",
            "  Class descriptor  : 'Lcom/a/Sub;'",
            "0000: invoke-virtual {v1}, Lcom/a/Server;.start:()V // method@0001",
            "0001: const-string v0, \"AES\" // string@0000",
            "0001: const-string v0, \"AES\" // string@0000",
            "0002: sget v0, Lcom/a/Server;.PORT:I // field@0000",
        ];
        let idx = build(&src);
        let reference = string_keyed_postings(src.iter().copied());
        let mut interned: Vec<(String, Vec<u32>)> = idx
            .iter_postings()
            .map(|(tok, lines)| (tok.to_string(), lines.to_vec()))
            .collect();
        interned.sort();
        let flattened: Vec<(String, Vec<u32>)> = reference.into_iter().collect();
        assert_eq!(interned, flattened);
        assert_eq!(
            idx.posting_count(),
            idx.iter_postings().map(|(_, l)| l.len()).sum()
        );
    }

    /// The symbols and postings sections of `idx`.
    fn sections(idx: &SearchIndex) -> (Vec<u8>, Vec<u8>) {
        let mut ws = WireWriter::new();
        idx.write_symbols(&mut ws);
        let mut wp = WireWriter::new();
        idx.write_postings(&mut wp);
        (ws.into_bytes(), wp.into_bytes())
    }

    #[test]
    fn wire_round_trip_is_byte_identical() {
        let idx = build(&[
            "  Class descriptor  : 'Lcom/a/Sub;'",
            "0000: invoke-virtual {v1}, Lcom/a/Server;.start:()V // method@0001",
            "0001: const-string v0, \"AES\" // string@0000",
        ]);
        let (sym_bytes, post_bytes) = sections(&idx);
        let symbols = SymbolTable::read_wire(&mut WireReader::new(&sym_bytes)).unwrap();
        let back =
            SearchIndex::read_postings(&mut WireReader::new(&post_bytes), 3, symbols).unwrap();
        assert_eq!(back.token_count(), idx.token_count());
        assert_eq!(back.posting_count(), idx.posting_count());
        assert_eq!(sections(&back), (sym_bytes.clone(), post_bytes.clone()));
        // The sectioned validators accept exactly the split encoding.
        let n = SymbolTable::validate_wire(&sym_bytes).unwrap();
        assert_eq!(n, idx.token_count());
        SearchIndex::validate_postings(&post_bytes, 3, n).unwrap();
        // Truncations of the postings section are rejected.
        for cut in 0..post_bytes.len() {
            assert!(SearchIndex::validate_postings(&post_bytes[..cut], 3, n).is_err());
        }
    }

    #[test]
    fn prefix_parsers_reject_garbage() {
        assert_eq!(proto_prefix_len("()V"), Some(3));
        assert_eq!(proto_prefix_len("(ILjava/lang/String;)[B rest"), Some(23));
        // A `)` inside a class name does not end the parameter list.
        assert_eq!(proto_prefix_len("(La)b;)V"), Some(8));
        assert_eq!(proto_prefix_len("(Q)V"), None);
        assert_eq!(proto_prefix_len("(I"), None);
        assert_eq!(proto_prefix_len("()"), None);
        assert_eq!(proto_prefix_len("no parens"), None);
    }
}
