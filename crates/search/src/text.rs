//! The indexed bytecode plaintext, arena-backed and lazily restorable.
//!
//! [`BytecodeText`] wraps one merged dexdump output and pre-computes the
//! line → containing-method map that turns a grep hit into a caller
//! method (paper §IV-A step 2: "identify the corresponding method that
//! contains the invocation found in the bytecode plaintext").
//!
//! # Arena layout
//!
//! Lines are not stored as a `Vec<String>`: the whole dump lives in
//! **one** contiguous text arena (`String`) addressed by a
//! `Vec<(u32, u32)>` offset/len table, so a line is a borrowed `&str`
//! slice — one allocation for the entire dump instead of one per line,
//! and [`BytecodeText::resident_bytes`] is computed from exactly that
//! layout (arena bytes + fixed per-line table overhead + spans +
//! descriptors).
//!
//! # Lazy sectioned restore
//!
//! The text serializes as four independent wire sections — text arena,
//! method spans, symbol table, postings (see the `write_*_section`
//! methods) — and [`BytecodeText::from_sections`] rebuilds it from
//! those blobs *without decoding them*: each section is structurally
//! validated up front (so a malformed snapshot is rejected eagerly, as
//! a full decode would), then parked behind a `OnceLock` and
//! materialized on first touch. A restored app that only answers
//! manifest-level questions never pays the arena copy or the
//! posting-list build; the first search command materializes exactly
//! what it reads.

use crate::index::SearchIndex;
use crate::symbol::SymbolTable;
use backdroid_ir::wire::{self, WireError, WireReader, WireWriter};
use backdroid_ir::{ClassName, MethodSig, Type};
use std::collections::BTreeSet;
use std::sync::{Mutex, OnceLock};

/// Fixed per-line bookkeeping counted by
/// [`BytecodeText::resident_bytes`]: the 8-byte offset/len table entry
/// plus the 4-byte line → span map slot.
const PER_LINE_OVERHEAD: u64 = 12;

/// Estimated bytes per [`MethodSpan`] (signature plus indices) used by
/// [`BytecodeText::resident_bytes`].
const PER_SPAN_OVERHEAD: u64 = 96;

/// Estimated heap overhead per stored descriptor string.
const PER_DESC_OVERHEAD: u64 = 32;

/// Sentinel in the line → span map for "line is outside any method".
const NO_SPAN: u32 = u32::MAX;

/// One method's span inside the dump.
#[derive(Clone, Debug, PartialEq)]
pub struct MethodSpan {
    /// The method defined over this span.
    pub sig: MethodSig,
    /// First line index of the span (the `#k : (in L...;)` header).
    pub start_line: usize,
    /// One past the last line of the span.
    pub end_line: usize,
}

/// The eagerly-usable half of a text: arena, line table, spans,
/// descriptors. Everything [`BytecodeText`] answers from except the
/// posting-list index.
#[derive(Debug, Default)]
struct TextBody {
    /// Every dump line concatenated back to back (no separators).
    arena: String,
    /// Per-line `(offset, len)` into `arena`.
    table: Vec<(u32, u32)>,
    spans: Vec<MethodSpan>,
    /// For each line, the index into `spans` of the containing method
    /// (`NO_SPAN` outside any method).
    line_to_span: Vec<u32>,
    /// All class descriptors seen (`Lcom/a/B;`), used for `$`-restoration.
    descriptors: BTreeSet<String>,
}

impl TextBody {
    fn line(&self, i: usize) -> &str {
        let (off, len) = self.table[i];
        &self.arena[off as usize..(off + len) as usize]
    }

    fn lines(&self) -> impl Iterator<Item = &str> {
        self.table
            .iter()
            .map(|&(off, len)| &self.arena[off as usize..(off + len) as usize])
    }
}

/// A value that is either already built or parked as a validated
/// payload `P` (wire bytes), materialized on first touch — the one lazy
/// cell of a restored image: the text body, the posting lists and the
/// IR program each sit in one. The `OnceLock` carries the built value;
/// the mutex serializes the one decode so concurrent first readers do
/// the work exactly once (the same single-flight shape as the engine's
/// command cache).
#[derive(Debug)]
pub struct Lazy<T, P> {
    cell: OnceLock<T>,
    pending: Mutex<Option<P>>,
}

impl<T, P> Lazy<T, P> {
    /// Already materialized.
    pub fn ready(value: T) -> Self {
        let cell = OnceLock::new();
        let _ = cell.set(value);
        Lazy {
            cell,
            pending: Mutex::new(None),
        }
    }

    /// Not materialized, nothing parked — `force`'s `init` builds it
    /// from `None`.
    pub(crate) fn absent() -> Self {
        Lazy {
            cell: OnceLock::new(),
            pending: Mutex::new(None),
        }
    }

    /// Parked as a validated payload.
    pub fn deferred(parked: P) -> Self {
        Lazy {
            cell: OnceLock::new(),
            pending: Mutex::new(Some(parked)),
        }
    }

    /// Whether the value has been built.
    pub fn is_materialized(&self) -> bool {
        self.cell.get().is_some()
    }

    /// Returns the value, materializing it via `init` on first touch.
    /// `init` receives the parked payload, if any; it is dropped after
    /// materialization.
    pub fn force(&self, init: impl FnOnce(Option<P>) -> T) -> &T {
        if let Some(v) = self.cell.get() {
            return v;
        }
        let mut pending = self.pending.lock().unwrap_or_else(|e| e.into_inner());
        if self.cell.get().is_none() {
            let taken = pending.take();
            let _ = self.cell.set(init(taken));
        }
        drop(pending);
        self.cell.get().expect("lazy cell just initialized")
    }
}

/// The disassembled bytecode plaintext, line-indexed.
///
/// Line count and resident-size estimate are stored eagerly, so the
/// serving layer's byte budgeting and the engine's `lines_scanned`
/// accounting never force a lazily restored text to materialize.
#[derive(Debug)]
pub struct BytecodeText {
    line_count: usize,
    resident: u64,
    body: Lazy<TextBody, (Vec<u8>, Vec<u8>)>,
    /// Posting lists over the lines, built (or decoded) once on first
    /// use so the [`Indexed`](crate::Indexed) backend answers commands
    /// without scanning the dump — and the
    /// [`LinearScan`](crate::LinearScan) oracle never pays the
    /// tokenization pass.
    index: Lazy<SearchIndex, (Vec<u8>, Vec<u8>)>,
}

impl BytecodeText {
    /// Indexes a dexdump plaintext: the §III streaming parse into an
    /// arena, line table, method spans and descriptors. The posting
    /// lists wait for the first indexed query.
    pub fn index(dump: &str) -> BytecodeText {
        let mut body = TextBody::default();

        // Streaming parse state.
        let mut pending_class: Option<ClassName> = None; // from "(in L...;)"
        let mut pending_name: Option<String> = None;
        let mut current_span: Option<usize> = None;
        // Spans left open at end of input close at the line count; mark
        // them with a placeholder fixed up after the loop.
        const OPEN: usize = usize::MAX;

        for line in dump.lines() {
            let i = body.table.len();
            let off = body.arena.len();
            body.arena.push_str(line);
            body.table.push((off as u32, line.len() as u32));
            body.line_to_span.push(NO_SPAN);
            let trimmed = line.trim_start();
            if let Some(rest) = trimmed.strip_prefix("Class descriptor  : '") {
                if let Some(desc) = rest.strip_suffix('\'') {
                    body.descriptors.insert(desc.to_string());
                }
                current_span = None;
                continue;
            }
            // Method header: `#0              : (in Lcom/a/B;)`
            if trimmed.starts_with('#') && trimmed.contains(": (in L") {
                if let Some(start) = trimmed.find("(in ") {
                    let desc = trimmed[start + 4..].trim_end_matches(')');
                    if let Some(Type::Object(c)) = Type::from_descriptor(desc) {
                        // Close any open span at this header.
                        if let Some(s) = current_span {
                            body.spans[s].end_line = i;
                        }
                        current_span = None;
                        pending_class = Some(c);
                        pending_name = None;
                        body.descriptors.insert(desc.to_string());
                    }
                }
                continue;
            }
            if let Some(rest) = trimmed.strip_prefix("name          : '") {
                if pending_class.is_some() {
                    pending_name = rest.strip_suffix('\'').map(str::to_string);
                }
                continue;
            }
            if let Some(rest) = trimmed.strip_prefix("type          : '") {
                if let (Some(class), Some(name)) = (pending_class.clone(), pending_name.clone()) {
                    if let Some(proto) = rest.strip_suffix('\'') {
                        if let Some((params, ret)) = parse_proto(proto) {
                            let sig = MethodSig::new(class, name, params, ret);
                            body.spans.push(MethodSpan {
                                sig,
                                start_line: i,
                                end_line: OPEN,
                            });
                            current_span = Some(body.spans.len() - 1);
                            pending_class = None;
                            pending_name = None;
                        }
                    }
                }
                continue;
            }
            if let Some(s) = current_span {
                body.line_to_span[i] = s as u32;
            }
        }
        let line_count = body.table.len();
        assert!(
            body.arena.len() <= u32::MAX as usize,
            "dump exceeds the 4 GiB arena limit"
        );
        for s in &mut body.spans {
            if s.end_line == OPEN {
                s.end_line = line_count;
            }
        }
        let resident = resident_of(&body);
        BytecodeText {
            line_count,
            resident,
            body: Lazy::ready(body),
            index: Lazy::absent(),
        }
    }
}

impl BytecodeText {
    /// The eager half, materialized from parked sections on first touch.
    fn body(&self) -> &TextBody {
        self.body.force(|pending| match pending {
            Some((text, spans)) => decode_body(&text, &spans).unwrap_or_default(),
            // Unreachable: a fresh parse starts `ready`.
            None => TextBody::default(),
        })
    }

    /// Number of lines in the dump. Never materializes a lazy text.
    pub fn line_count(&self) -> usize {
        self.line_count
    }

    /// Line `i` of the dump. Panics if `i >= line_count()`.
    pub fn line(&self, i: usize) -> &str {
        self.body().line(i)
    }

    /// All lines in order, as borrowed slices of the text arena.
    pub fn lines(&self) -> impl Iterator<Item = &str> {
        self.body().lines()
    }

    /// A deterministic estimate of this text's resident memory footprint
    /// in bytes: the arena contents plus fixed per-line bookkeeping
    /// (offset/len table and line → span map), the method spans, and the
    /// descriptor set. Deliberately *excludes* the lazily built
    /// posting-list index so the estimate is a pure function of the
    /// dump — the serving layer's byte-budgeted app store needs the same
    /// number whether or not an indexed query ran yet, and (computed
    /// from the validated section headers) it never materializes a
    /// lazily restored text.
    pub fn resident_bytes(&self) -> u64 {
        self.resident
    }

    /// All method spans in dump order.
    pub fn spans(&self) -> &[MethodSpan] {
        &self.body().spans
    }

    /// The method containing line `i`, if the line is inside a code item.
    pub fn method_at_line(&self, i: usize) -> Option<&MethodSig> {
        let body = self.body();
        let span = *body.line_to_span.get(i)?;
        if span == NO_SPAN {
            None
        } else {
            Some(&body.spans[span as usize].sig)
        }
    }

    /// All class descriptors in the dump.
    pub fn descriptors(&self) -> &BTreeSet<String> {
        &self.body().descriptors
    }

    /// The posting lists over this dump, consumed by the
    /// [`Indexed`](crate::Indexed) backend. Built by one tokenization
    /// pass (or decoded from parked snapshot sections) on first access
    /// and cached for the text's lifetime.
    pub fn search_index(&self) -> &SearchIndex {
        self.index.force(|pending| match pending {
            Some((symbols, postings)) => {
                decode_index(&symbols, &postings, self.line_count).unwrap_or_default()
            }
            None => SearchIndex::build(self.body().lines()),
        })
    }

    /// Whether the text arena / spans half has been materialized.
    /// Diagnostic hook for the lazy-restore tests and benches.
    pub fn is_body_materialized(&self) -> bool {
        self.body.is_materialized()
    }

    /// Whether the posting-list index has been materialized (built or
    /// decoded). Diagnostic hook for the lazy-restore tests and benches.
    pub fn is_index_materialized(&self) -> bool {
        self.index.is_materialized()
    }

    /// How many of this text's lazy sections (body arena, posting-list
    /// index) are currently materialized, `0..=2`. The observability
    /// layer counts these — together with the program section — as
    /// `lazy_sections_materialized`, the banded measure that
    /// manifest-only restores stay parked.
    pub fn materialized_sections(&self) -> u64 {
        self.is_body_materialized() as u64 + self.is_index_materialized() as u64
    }

    /// Wire-encodes the text-arena section: the arena, the per-line
    /// length table (offsets are implicit prefix sums), and the
    /// descriptor set in ascending order.
    pub fn write_text_section(&self, w: &mut WireWriter) {
        let body = self.body();
        w.put_str(&body.arena);
        w.put_len(body.table.len());
        for &(_, len) in &body.table {
            w.put_uvarint(len as u64);
        }
        w.put_len(body.descriptors.len());
        for d in &body.descriptors {
            w.put_str(d);
        }
    }

    /// Wire-encodes the method-span section: spans (signature + bounds)
    /// and the line → span map.
    pub fn write_spans_section(&self, w: &mut WireWriter) {
        let body = self.body();
        w.put_len(body.spans.len());
        for s in &body.spans {
            wire::write_method_sig(w, &s.sig);
            w.put_len(s.start_line);
            w.put_len(s.end_line);
        }
        w.put_len(body.line_to_span.len());
        for &slot in &body.line_to_span {
            // `NO_SPAN` compresses to one byte; span `i` is `i + 1`.
            w.put_uvarint(if slot == NO_SPAN { 0 } else { slot as u64 + 1 });
        }
    }

    /// Wire-encodes the symbol-table section of the posting-list index
    /// (built now if no indexed query ran yet).
    pub fn write_symbols_section(&self, w: &mut WireWriter) {
        self.search_index().write_symbols(w);
    }

    /// Wire-encodes the postings section of the posting-list index.
    pub fn write_postings_section(&self, w: &mut WireWriter) {
        self.search_index().write_postings(w);
    }

    /// Rebuilds a text from its four section blobs **without decoding
    /// them**: each section is structurally validated (rejecting
    /// exactly what the eager decoders reject), cross-checked against
    /// its siblings (line counts, symbol counts), and parked for
    /// materialization on first touch. Only the validated headers are
    /// read eagerly — `line_count()` and `resident_bytes()` are
    /// available immediately, the arena copy and index build are not
    /// paid until something reads them.
    pub fn from_sections(
        text: Vec<u8>,
        spans: Vec<u8>,
        symbols: Vec<u8>,
        postings: Vec<u8>,
    ) -> Result<BytecodeText, WireError> {
        let info = validate_text_section(&text)?;
        let span_count = validate_spans_section(&spans, info.line_count)?;
        let sym_count = SymbolTable::validate_wire(&symbols)?;
        SearchIndex::validate_postings(&postings, info.line_count, sym_count)?;
        let resident = info.arena_len
            + info.line_count as u64 * PER_LINE_OVERHEAD
            + span_count as u64 * PER_SPAN_OVERHEAD
            + info.desc_bytes;
        Ok(BytecodeText {
            line_count: info.line_count,
            resident,
            body: Lazy::deferred((text, spans)),
            index: Lazy::deferred((symbols, postings)),
        })
    }

    /// Restores a dotted banner name printed by dexdump
    /// (`com.a.Outer.1.run:()V`, inner-class `$` flattened to `.`) to the
    /// real method signature, by testing candidate `$` placements against
    /// the class descriptors present in the dump (paper §IV-A step 2:
    /// "an inner class needs to add back the symbol `$`").
    pub fn restore_banner(&self, banner: &str) -> Option<MethodSig> {
        let descriptors = self.descriptors();
        let (dotted_and_name, proto) = banner.rsplit_once(':')?;
        let (dotted_class, name) = dotted_and_name.rsplit_once('.')?;
        let (params, ret) = parse_proto(proto)?;
        // Try every split of the dotted class into package + class parts:
        // the class part joins with `$`, the package part with `.`.
        let segments: Vec<&str> = dotted_class.split('.').collect();
        for split in (0..segments.len()).rev() {
            let pkg = segments[..split].join(".");
            let cls = segments[split..].join("$");
            let candidate = if pkg.is_empty() {
                cls
            } else {
                format!("{pkg}.{cls}")
            };
            let desc = format!("L{};", candidate.replace('.', "/"));
            if descriptors.contains(&desc) {
                return Some(MethodSig::new(candidate, name, params, ret));
            }
        }
        None
    }
}

/// The resident estimate for a materialized body — must agree with the
/// header-only computation in [`BytecodeText::from_sections`].
fn resident_of(body: &TextBody) -> u64 {
    let desc_bytes: u64 = body
        .descriptors
        .iter()
        .map(|d| d.len() as u64 + PER_DESC_OVERHEAD)
        .sum();
    body.arena.len() as u64
        + body.table.len() as u64 * PER_LINE_OVERHEAD
        + body.spans.len() as u64 * PER_SPAN_OVERHEAD
        + desc_bytes
}

/// Aggregates [`validate_text_section`] reports for the header-only
/// resident computation.
struct TextInfo {
    line_count: usize,
    arena_len: u64,
    /// Descriptor contents plus per-descriptor overhead.
    desc_bytes: u64,
}

/// A borrowed, fully validated view of one text section.
struct TextView<'a> {
    arena: &'a str,
    /// Prefix line boundaries into `arena`; length `line_count + 1`.
    line_bounds: Vec<u32>,
    /// Descriptors in strictly ascending order.
    descriptors: Vec<&'a str>,
}

struct BodyParts {
    arena: String,
    table: Vec<(u32, u32)>,
    descriptors: BTreeSet<String>,
}

impl TextView<'_> {
    fn to_body(&self) -> BodyParts {
        let table = self
            .line_bounds
            .windows(2)
            .map(|w| (w[0], w[1] - w[0]))
            .collect();
        BodyParts {
            arena: self.arena.to_string(),
            table,
            descriptors: self.descriptors.iter().map(|d| d.to_string()).collect(),
        }
    }
}

/// Reads and validates one text section from `r` without copying the
/// arena — the shared walk behind both the eager decode and the lazy
/// validator.
fn read_text_view<'a>(r: &mut WireReader<'a>) -> Result<TextView<'a>, WireError> {
    let malformed = |m: &str| WireError::Malformed(m.to_string());
    let arena = r.get_str()?;
    if arena.len() > u32::MAX as usize {
        return Err(malformed("text arena exceeds the 4 GiB limit"));
    }
    let n_lines = r.get_len(1)?;
    let mut line_bounds = Vec::with_capacity(n_lines + 1);
    line_bounds.push(0u32);
    let mut off = 0u64;
    for _ in 0..n_lines {
        off += r.get_uvarint()?;
        if off > arena.len() as u64 || !arena.is_char_boundary(off as usize) {
            return Err(malformed("line table outside the arena"));
        }
        line_bounds.push(off as u32);
    }
    if off != arena.len() as u64 {
        return Err(malformed("line table does not cover the arena"));
    }
    let n_desc = r.get_len(1)?;
    let mut descriptors = Vec::with_capacity(n_desc);
    for _ in 0..n_desc {
        let d = r.get_str()?;
        if descriptors.last().is_some_and(|&p| p >= d) {
            return Err(malformed("descriptors out of order"));
        }
        descriptors.push(d);
    }
    Ok(TextView {
        arena,
        line_bounds,
        descriptors,
    })
}

/// Validates one standalone text-section blob, returning the
/// aggregates the resident estimate needs.
fn validate_text_section(bytes: &[u8]) -> Result<TextInfo, WireError> {
    let mut r = WireReader::new(bytes);
    let view = read_text_view(&mut r)?;
    if !r.is_empty() {
        return Err(WireError::Malformed(
            "trailing bytes after text section".into(),
        ));
    }
    let desc_bytes = view
        .descriptors
        .iter()
        .map(|d| d.len() as u64 + PER_DESC_OVERHEAD)
        .sum();
    Ok(TextInfo {
        line_count: view.line_bounds.len() - 1,
        arena_len: view.arena.len() as u64,
        desc_bytes,
    })
}

/// Reads and validates one spans section from `r`.
fn read_spans_part(
    r: &mut WireReader<'_>,
    line_count: usize,
) -> Result<(Vec<MethodSpan>, Vec<u32>), WireError> {
    let n_spans = r.get_len(1)?;
    let mut spans = Vec::with_capacity(n_spans);
    for _ in 0..n_spans {
        let sig = wire::read_method_sig(r)?;
        let (start_line, end_line) = read_span_bounds(r, line_count)?;
        spans.push(MethodSpan {
            sig,
            start_line,
            end_line,
        });
    }
    let n_map = read_line_map_len(r, line_count)?;
    let mut line_to_span = Vec::with_capacity(n_map);
    for _ in 0..n_map {
        line_to_span.push(read_line_slot(r, n_spans)?);
    }
    Ok((spans, line_to_span))
}

/// One span's `[start, end)` line bounds, which must lie in the dump.
fn read_span_bounds(
    r: &mut WireReader<'_>,
    line_count: usize,
) -> Result<(usize, usize), WireError> {
    let start_line = r.get_uvarint()? as usize;
    let end_line = r.get_uvarint()? as usize;
    if start_line > end_line || end_line > line_count {
        return Err(WireError::Malformed("method span outside the dump".into()));
    }
    Ok((start_line, end_line))
}

/// The line map's length, which must be one entry per line.
fn read_line_map_len(r: &mut WireReader<'_>, line_count: usize) -> Result<usize, WireError> {
    let n_map = r.get_len(1)?;
    if n_map != line_count {
        return Err(WireError::Malformed(
            "line map does not cover every line".into(),
        ));
    }
    Ok(n_map)
}

/// One line-map entry: the containing span's index, or `NO_SPAN`.
fn read_line_slot(r: &mut WireReader<'_>, n_spans: usize) -> Result<u32, WireError> {
    match r.get_uvarint()? {
        0 => Ok(NO_SPAN),
        v if v - 1 < n_spans as u64 => Ok((v - 1) as u32),
        _ => Err(WireError::Malformed(
            "line map references a missing span".into(),
        )),
    }
}

/// Validates one standalone spans-section blob as [`read_spans_part`]
/// would, without building the spans or the line map, and returns the
/// span count.
fn validate_spans_section(bytes: &[u8], line_count: usize) -> Result<usize, WireError> {
    let mut r = WireReader::new(bytes);
    let n_spans = r.get_len(1)?;
    for _ in 0..n_spans {
        wire::skip_method_sig(&mut r)?;
        read_span_bounds(&mut r, line_count)?;
    }
    for _ in 0..read_line_map_len(&mut r, line_count)? {
        read_line_slot(&mut r, n_spans)?;
    }
    if !r.is_empty() {
        return Err(WireError::Malformed(
            "trailing bytes after spans section".into(),
        ));
    }
    Ok(n_spans)
}

/// Materializes a parked body from its validated section blobs.
fn decode_body(text: &[u8], spans: &[u8]) -> Result<TextBody, WireError> {
    let mut r = WireReader::new(text);
    let view = read_text_view(&mut r)?;
    let line_count = view.line_bounds.len() - 1;
    let parts = view.to_body();
    let mut r = WireReader::new(spans);
    let (spans, line_to_span) = read_spans_part(&mut r, line_count)?;
    Ok(TextBody {
        arena: parts.arena,
        table: parts.table,
        spans,
        line_to_span,
        descriptors: parts.descriptors,
    })
}

/// Materializes a parked index from its validated section blobs.
fn decode_index(
    symbols: &[u8],
    postings: &[u8],
    line_count: usize,
) -> Result<SearchIndex, WireError> {
    let symbols = SymbolTable::read_wire(&mut WireReader::new(symbols))?;
    SearchIndex::read_postings(&mut WireReader::new(postings), line_count, symbols)
}

/// Parses a proto string `(I[BLjava/lang/String;)V` into parameter types
/// and return type.
pub fn parse_proto(proto: &str) -> Option<(Vec<Type>, Type)> {
    let rest = proto.strip_prefix('(')?;
    let (params_str, ret_str) = rest.split_once(')')?;
    let mut params = Vec::new();
    let mut cur = params_str;
    while !cur.is_empty() {
        let (ty, next) = Type::parse_descriptor_prefix(cur)?;
        params.push(ty);
        cur = next;
    }
    let ret = Type::from_descriptor(ret_str)?;
    Some((params, ret))
}

#[cfg(test)]
mod tests {
    use super::*;
    use backdroid_dex::{dump_image, DexImage};
    use backdroid_ir::{ClassBuilder, InvokeExpr, MethodBuilder, Program};

    fn sample_program() -> Program {
        let outer = ClassName::new("com.a.Outer");
        let inner = ClassName::new("com.a.Outer$1");
        let mut run = MethodBuilder::public(&inner, "run", vec![], Type::Void);
        let this = run.this();
        run.invoke(InvokeExpr::call_virtual(
            MethodSig::new("com.a.Server", "start", vec![], Type::Void),
            this,
            vec![],
        ));
        let mut go = MethodBuilder::public_static(&outer, "go", vec![Type::Int], Type::Int);
        go.ret(backdroid_ir::Value::int(0));
        let mut p = Program::new();
        p.add_class(
            ClassBuilder::new(inner.as_str())
                .method(run.build())
                .build(),
        );
        p.add_class(ClassBuilder::new(outer.as_str()).method(go.build()).build());
        let mut start =
            MethodBuilder::public(&ClassName::new("com.a.Server"), "start", vec![], Type::Void);
        start.ret_void();
        p.add_class(
            ClassBuilder::new("com.a.Server")
                .method(start.build())
                .build(),
        );
        p
    }

    fn indexed() -> BytecodeText {
        let p = sample_program();
        let text = dump_image(&DexImage::encode(&p));
        BytecodeText::index(&text)
    }

    fn all_lines(t: &BytecodeText) -> Vec<String> {
        t.lines().map(str::to_string).collect()
    }

    #[test]
    fn arena_lines_match_the_dump() {
        let p = sample_program();
        let dump = dump_image(&DexImage::encode(&p));
        let t = BytecodeText::index(&dump);
        let expected: Vec<&str> = dump.lines().collect();
        assert_eq!(t.line_count(), expected.len());
        for (i, line) in expected.iter().enumerate() {
            assert_eq!(t.line(i), *line, "line {i}");
        }
        assert_eq!(all_lines(&t), expected);
    }

    #[test]
    fn spans_cover_all_methods() {
        let t = indexed();
        let names: Vec<String> = t.spans().iter().map(|s| s.sig.to_string()).collect();
        assert!(names.contains(&"<com.a.Outer$1: void run()>".to_string()));
        assert!(names.contains(&"<com.a.Outer: int go(int)>".to_string()));
        assert!(names.contains(&"<com.a.Server: void start()>".to_string()));
    }

    #[test]
    fn hit_lines_map_to_containing_method() {
        let t = indexed();
        let needle = "Lcom/a/Server;.start:()V";
        let hit_line = t
            .lines()
            .position(|l| l.contains("invoke-virtual") && l.contains(needle))
            .expect("invoke line present");
        let m = t.method_at_line(hit_line).expect("line inside a method");
        assert_eq!(m.to_string(), "<com.a.Outer$1: void run()>");
    }

    #[test]
    fn header_lines_have_no_method() {
        let t = indexed();
        let header = t
            .lines()
            .position(|l| l.contains("Class descriptor"))
            .unwrap();
        assert!(t.method_at_line(header).is_none());
    }

    #[test]
    fn banner_restoration_adds_back_dollar() {
        let t = indexed();
        let sig = t
            .restore_banner("com.a.Outer.1.run:()V")
            .expect("restorable banner");
        assert_eq!(sig.class().as_str(), "com.a.Outer$1");
        assert_eq!(sig.name(), "run");
        // Non-inner class restores too.
        let sig = t.restore_banner("com.a.Outer.go:(I)I").unwrap();
        assert_eq!(sig.class().as_str(), "com.a.Outer");
        // Unknown class yields None.
        assert!(t.restore_banner("com.b.Missing.run:()V").is_none());
    }

    #[test]
    fn resident_bytes_is_deterministic_and_tracks_content() {
        let t = indexed();
        let estimate = t.resident_bytes();
        assert!(
            estimate > t.lines().map(|l| l.len() as u64).sum::<u64>(),
            "estimate must cover at least the line contents"
        );
        // A pure function of the dump: re-indexing the same text gives the
        // same number, and touching the lazy posting index must not move it.
        let p = sample_program();
        let again = BytecodeText::index(&dump_image(&DexImage::encode(&p)));
        assert_eq!(again.resident_bytes(), estimate);
        let _ = again.search_index();
        assert_eq!(again.resident_bytes(), estimate);
    }

    /// The four snapshot sections of `t`, in container order.
    fn sections(t: &BytecodeText) -> [Vec<u8>; 4] {
        let writers: [fn(&BytecodeText, &mut WireWriter); 4] = [
            BytecodeText::write_text_section,
            BytecodeText::write_spans_section,
            BytecodeText::write_symbols_section,
            BytecodeText::write_postings_section,
        ];
        writers.map(|write| {
            let mut w = WireWriter::new();
            write(t, &mut w);
            w.into_bytes()
        })
    }

    fn from_sections(sections: &[Vec<u8>; 4]) -> Result<BytecodeText, WireError> {
        let [text, spans, symbols, postings] = sections.clone();
        BytecodeText::from_sections(text, spans, symbols, postings)
    }

    #[test]
    fn wire_round_trip_preserves_queries_and_bytes() {
        let t = indexed();
        let _ = t.search_index(); // force the lazy index before encoding
        let bytes = sections(&t);
        let back = from_sections(&bytes).unwrap();
        assert_eq!(all_lines(&back), all_lines(&t));
        assert_eq!(back.descriptors(), t.descriptors());
        assert_eq!(back.spans(), t.spans());
        for i in 0..t.line_count() {
            assert_eq!(back.method_at_line(i), t.method_at_line(i), "line {i}");
        }
        assert_eq!(
            back.search_index().posting_count(),
            t.search_index().posting_count()
        );
        assert_eq!(
            back.search_index().token_count(),
            t.search_index().token_count()
        );
        assert_eq!(
            back.restore_banner("com.a.Outer.1.run:()V"),
            t.restore_banner("com.a.Outer.1.run:()V")
        );
        // Re-encoding every section of the decoded text is byte-identical.
        assert_eq!(sections(&back), bytes);
        // A restored text never re-tokenizes: its resident estimate still
        // matches a fresh parse (the index is excluded by design).
        assert_eq!(back.resident_bytes(), t.resident_bytes());
    }

    #[test]
    fn sectioned_restore_is_lazy_and_answers_identically() {
        let t = indexed();
        let mut bytes = sections(&t);
        let back = from_sections(&bytes).unwrap();
        // Header-only facts are available without materializing anything.
        assert_eq!(back.line_count(), t.line_count());
        assert_eq!(back.resident_bytes(), t.resident_bytes());
        assert!(!back.is_body_materialized());
        assert!(!back.is_index_materialized());
        // The first index probe materializes the index, not the body.
        assert_eq!(
            back.search_index().token_count(),
            t.search_index().token_count()
        );
        assert!(back.is_index_materialized());
        assert!(!back.is_body_materialized());
        // Touching a line materializes the body; answers are identical.
        assert_eq!(all_lines(&back), all_lines(&t));
        assert!(back.is_body_materialized());
        assert_eq!(back.spans(), t.spans());
        for i in 0..t.line_count() {
            assert_eq!(back.method_at_line(i), t.method_at_line(i), "line {i}");
        }
        // Malformed sections are rejected eagerly, before any touch.
        bytes[1].push(0);
        assert!(from_sections(&bytes).is_err());
    }

    #[test]
    fn spans_validation_accepts_exactly_what_decoding_does() {
        let t = indexed();
        let mut w = WireWriter::new();
        t.write_spans_section(&mut w);
        let spans = w.into_bytes();
        let decodes = |bytes: &[u8]| {
            let mut r = WireReader::new(bytes);
            read_spans_part(&mut r, t.line_count()).is_ok() && r.is_empty()
        };
        let mut cases: Vec<Vec<u8>> = (0..=spans.len()).map(|cut| spans[..cut].to_vec()).collect();
        for i in 0..spans.len() {
            for flip in [0x01, 0x80, 0xff] {
                let mut mutated = spans.clone();
                mutated[i] ^= flip;
                cases.push(mutated);
            }
        }
        for case in &cases {
            assert_eq!(
                validate_spans_section(case, t.line_count()).is_ok(),
                decodes(case),
                "{case:?}"
            );
        }
    }

    #[test]
    fn wire_truncations_fail_cleanly() {
        let t = indexed();
        let whole = sections(&t);
        for (i, section) in whole.iter().enumerate() {
            for cut in 0..section.len() {
                let mut bytes = whole.clone();
                bytes[i].truncate(cut);
                assert!(
                    from_sections(&bytes).is_err(),
                    "section {i}: prefix of {cut} bytes decoded"
                );
            }
        }
    }

    #[test]
    fn proto_parsing() {
        let (params, ret) = parse_proto("(I[BLjava/lang/String;)V").unwrap();
        assert_eq!(params.len(), 3);
        assert_eq!(ret, Type::Void);
        assert!(parse_proto("no-parens").is_none());
        assert!(parse_proto("(Q)V").is_none());
    }
}
