//! The hand-rolled binary wire format shared by every snapshot layer.
//!
//! The build environment vendors API-subset stand-ins for serde (no
//! derive, no serializer), so artifact persistence is written by hand:
//! [`WireWriter`] / [`WireReader`] provide the primitive vocabulary —
//! LEB128 varints, zigzag signed varints, length-prefixed strings,
//! bit-exact `f64` — and this module layers the full IR vocabulary
//! ([`Type`] through [`Program`]) on top. Higher crates reuse the same
//! primitives for manifests ([`backdroid-manifest`]), indexed bytecode
//! text (`backdroid-search`), and the versioned snapshot container
//! (`backdroid-core`).
//!
//! Two properties are load-bearing:
//!
//! * **Determinism** — encoding is a pure function of the value (ordered
//!   containers only; callers sort anything hash-ordered), so equal
//!   artifacts produce byte-identical encodings and CI can diff
//!   snapshots across runs.
//! * **Total decoding** — a reader never panics and never allocates
//!   ahead of its input: every length is checked against the remaining
//!   bytes before use, and malformed tags or dangling references decode
//!   to [`WireError`], not to a crash. That is what lets the two-tier
//!   app store treat a corrupt on-disk snapshot as a cache miss.
//!
//! [`backdroid-manifest`]: https://example.invalid/backdroid-suite

use crate::body::{Class, FieldDef, Method, MethodBody};
use crate::stmt::{
    BinOp, CondOp, Const, IdentityKind, InvokeExpr, InvokeKind, LocalId, Place, Rvalue, Stmt, Value,
};
use crate::types::{ClassName, FieldSig, MethodSig, Modifiers, Type};
use crate::Program;
use std::fmt;

/// Why a wire decode failed. Corrupt input is an expected condition (the
/// disk tier feeds snapshots straight off the filesystem), so decoding is
/// total: every failure is one of these, never a panic.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The input ended before the value it promised.
    Truncated,
    /// The bytes decoded to something structurally invalid (bad tag,
    /// non-UTF-8 string, dangling reference, duplicate definition).
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input truncated"),
            WireError::Malformed(m) => write!(f, "malformed input: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

fn malformed(msg: impl Into<String>) -> WireError {
    WireError::Malformed(msg.into())
}

/// 64-bit FNV-1a over a byte slice — the checksum the snapshot container
/// stores next to its payload.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Lane-widened FNV-1a: the same xor-multiply chain as [`fnv1a64`] but
/// over 8-byte little-endian lanes (zero-padded tail, input length
/// folded into the seed), roughly an order of magnitude faster on bulk
/// data. The snapshot container checksums its section blobs with this.
/// Not interchangeable with [`fnv1a64`] — the two hash the same bytes
/// to different values.
///
/// A single corrupted lane is always detected: each step is bijective
/// in the accumulator, so two states that diverge never re-converge on
/// identical remaining input.
pub fn fnv1a64_wide(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ (bytes.len() as u64).wrapping_mul(PRIME);
    let mut lanes = bytes.chunks_exact(8);
    for lane in &mut lanes {
        let w = u64::from_le_bytes(lane.try_into().expect("8-byte lane"));
        h = (h ^ w).wrapping_mul(PRIME);
    }
    let tail = lanes.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = (h ^ u64::from_le_bytes(last)).wrapping_mul(PRIME);
    }
    h
}

// ---------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------

/// An append-only encoder over a growable byte buffer.
#[derive(Default, Debug)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// One raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A bool as one byte (`0` / `1`).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// An unsigned LEB128 varint.
    pub fn put_uvarint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// A `usize` as an unsigned varint.
    pub fn put_len(&mut self, v: usize) {
        self.put_uvarint(v as u64);
    }

    /// A signed integer, zigzag-encoded then varint-encoded.
    pub fn put_ivarint(&mut self, v: i64) {
        self.put_uvarint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// An `f64`, bit-exact (NaN payloads round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// A fixed-width `u64`, little-endian — used for checksums, where a
    /// varint would let equal values encode at different widths.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Raw bytes with a varint length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_len(v.len());
        self.buf.extend_from_slice(v);
    }

    /// A UTF-8 string with a varint length prefix.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// A cursor over an immutable byte slice. Every read is bounds-checked;
/// length prefixes are validated against the remaining input before any
/// allocation, so hostile lengths cannot force an out-of-memory.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the whole input has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// One raw byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// A bool encoded as `0` / `1` (anything else is malformed).
    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(malformed(format!("invalid bool byte {b:#04x}"))),
        }
    }

    /// An unsigned LEB128 varint (at most 10 bytes).
    pub fn get_uvarint(&mut self) -> Result<u64, WireError> {
        // Most lengths, ids and deltas fit in one byte.
        if let Some(&byte) = self.buf.get(self.pos) {
            if byte & 0x80 == 0 {
                self.pos += 1;
                return Ok(u64::from(byte));
            }
        }
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.get_u8()?;
            let bits = (byte & 0x7f) as u64;
            if shift == 63 && bits > 1 {
                return Err(malformed("varint overflows 64 bits"));
            }
            v |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(malformed("varint longer than 10 bytes"))
    }

    /// A length prefix for items at least `min_item_bytes` wide each:
    /// rejected up front if the remaining input cannot possibly hold that
    /// many, so corrupt lengths fail fast instead of allocating.
    pub fn get_len(&mut self, min_item_bytes: usize) -> Result<usize, WireError> {
        let n = self.get_uvarint()?;
        let n = usize::try_from(n).map_err(|_| malformed("length exceeds usize"))?;
        if n.saturating_mul(min_item_bytes.max(1)) > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    /// A signed zigzag varint.
    pub fn get_ivarint(&mut self) -> Result<i64, WireError> {
        let z = self.get_uvarint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// A bit-exact `f64`.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        if self.remaining() < 8 {
            return Err(WireError::Truncated);
        }
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.buf[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(f64::from_bits(u64::from_le_bytes(raw)))
    }

    /// A fixed-width little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        if self.remaining() < 8 {
            return Err(WireError::Truncated);
        }
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.buf[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(u64::from_le_bytes(raw))
    }

    /// Length-prefixed raw bytes.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.get_len(1)?;
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// A length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.get_bytes()?).map_err(|_| malformed("string is not UTF-8"))
    }
}

// ---------------------------------------------------------------------
// Names, types, signatures
// ---------------------------------------------------------------------

/// Encodes a class name.
pub fn write_class_name(w: &mut WireWriter, c: &ClassName) {
    w.put_str(c.as_str());
}

/// Decodes a class name (must be non-empty).
pub fn read_class_name(r: &mut WireReader<'_>) -> Result<ClassName, WireError> {
    class_name_str(r).map(ClassName::new)
}

/// Reads a class name's text without allocating it.
fn class_name_str<'a>(r: &mut WireReader<'a>) -> Result<&'a str, WireError> {
    let s = r.get_str()?;
    if s.is_empty() {
        return Err(malformed("empty class name"));
    }
    Ok(s)
}

const TY_VOID: u8 = 0;
const TY_BOOLEAN: u8 = 1;
const TY_BYTE: u8 = 2;
const TY_SHORT: u8 = 3;
const TY_CHAR: u8 = 4;
const TY_INT: u8 = 5;
const TY_LONG: u8 = 6;
const TY_FLOAT: u8 = 7;
const TY_DOUBLE: u8 = 8;
const TY_OBJECT: u8 = 9;
const TY_ARRAY: u8 = 10;

/// Encodes a type.
pub fn write_type(w: &mut WireWriter, t: &Type) {
    match t {
        Type::Void => w.put_u8(TY_VOID),
        Type::Boolean => w.put_u8(TY_BOOLEAN),
        Type::Byte => w.put_u8(TY_BYTE),
        Type::Short => w.put_u8(TY_SHORT),
        Type::Char => w.put_u8(TY_CHAR),
        Type::Int => w.put_u8(TY_INT),
        Type::Long => w.put_u8(TY_LONG),
        Type::Float => w.put_u8(TY_FLOAT),
        Type::Double => w.put_u8(TY_DOUBLE),
        Type::Object(c) => {
            w.put_u8(TY_OBJECT);
            write_class_name(w, c);
        }
        Type::Array(e) => {
            w.put_u8(TY_ARRAY);
            write_type(w, e);
        }
    }
}

/// The deepest array type the DEX format can express.
const MAX_ARRAY_DIMS: usize = 255;

/// The element of an encoded type, under any array dimensions.
enum Elem<'a> {
    Primitive(Type),
    /// An object type, by its class name's text.
    Object(&'a str),
}

/// Reads one encoded type without allocating: its array depth and its
/// element. The type grammar lives here; [`read_type`] and
/// [`skip_type`] are built on it.
fn type_parts<'a>(r: &mut WireReader<'a>) -> Result<(usize, Elem<'a>), WireError> {
    let mut dims = 0;
    loop {
        let elem = match r.get_u8()? {
            TY_ARRAY if dims == MAX_ARRAY_DIMS => {
                return Err(malformed("array type nests deeper than 255"))
            }
            TY_ARRAY => {
                dims += 1;
                continue;
            }
            TY_VOID => Type::Void,
            TY_BOOLEAN => Type::Boolean,
            TY_BYTE => Type::Byte,
            TY_SHORT => Type::Short,
            TY_CHAR => Type::Char,
            TY_INT => Type::Int,
            TY_LONG => Type::Long,
            TY_FLOAT => Type::Float,
            TY_DOUBLE => Type::Double,
            TY_OBJECT => return Ok((dims, Elem::Object(class_name_str(r)?))),
            tag => return Err(malformed(format!("unknown type tag {tag}"))),
        };
        return Ok((dims, Elem::Primitive(elem)));
    }
}

/// Decodes a type.
pub fn read_type(r: &mut WireReader<'_>) -> Result<Type, WireError> {
    let (dims, elem) = type_parts(r)?;
    let mut ty = match elem {
        Elem::Primitive(ty) => ty,
        Elem::Object(class) => Type::Object(ClassName::new(class)),
    };
    for _ in 0..dims {
        ty = Type::Array(Box::new(ty));
    }
    Ok(ty)
}

/// Checks one type exactly as [`read_type`] does, without building it.
pub fn skip_type(r: &mut WireReader<'_>) -> Result<(), WireError> {
    type_parts(r).map(drop)
}

/// Encodes a method signature.
pub fn write_method_sig(w: &mut WireWriter, m: &MethodSig) {
    write_class_name(w, m.class());
    w.put_str(m.name());
    w.put_len(m.params().len());
    for p in m.params() {
        write_type(w, p);
    }
    write_type(w, m.ret());
}

/// Decodes a method signature.
pub fn read_method_sig(r: &mut WireReader<'_>) -> Result<MethodSig, WireError> {
    let class = read_class_name(r)?;
    let name = r.get_str()?;
    let n = r.get_len(1)?;
    let mut params = Vec::with_capacity(n);
    for _ in 0..n {
        params.push(read_type(r)?);
    }
    let ret = read_type(r)?;
    Ok(MethodSig::new(class, name, params, ret))
}

/// Checks one method signature exactly as [`read_method_sig`] does,
/// without allocating it: for validators that only need to know the
/// bytes decode.
pub fn skip_method_sig(r: &mut WireReader<'_>) -> Result<(), WireError> {
    class_name_str(r)?;
    r.get_str()?;
    let n = r.get_len(1)?;
    // The parameters, then the return type.
    for _ in 0..=n {
        skip_type(r)?;
    }
    Ok(())
}

/// Encodes a field signature.
pub fn write_field_sig(w: &mut WireWriter, f: &FieldSig) {
    write_class_name(w, f.class());
    w.put_str(f.name());
    write_type(w, f.ty());
}

/// Decodes a field signature.
pub fn read_field_sig(r: &mut WireReader<'_>) -> Result<FieldSig, WireError> {
    let class = read_class_name(r)?;
    let name = r.get_str()?;
    let ty = read_type(r)?;
    Ok(FieldSig::new(class, name, ty))
}

fn write_modifiers(w: &mut WireWriter, m: Modifiers) {
    w.put_uvarint(m.bits() as u64);
}

fn read_modifiers(r: &mut WireReader<'_>) -> Result<Modifiers, WireError> {
    let bits = r.get_uvarint()?;
    let bits = u32::try_from(bits).map_err(|_| malformed("modifier bits exceed u32"))?;
    Ok(Modifiers::from_bits(bits))
}

// ---------------------------------------------------------------------
// Statements and operands
// ---------------------------------------------------------------------

const CONST_INT: u8 = 0;
const CONST_FLOAT: u8 = 1;
const CONST_STR: u8 = 2;
const CONST_CLASS: u8 = 3;
const CONST_NULL: u8 = 4;

fn write_const(w: &mut WireWriter, c: &Const) {
    match c {
        Const::Int(v) => {
            w.put_u8(CONST_INT);
            w.put_ivarint(*v);
        }
        Const::Float(v) => {
            w.put_u8(CONST_FLOAT);
            w.put_f64(*v);
        }
        Const::Str(s) => {
            w.put_u8(CONST_STR);
            w.put_str(s);
        }
        Const::Class(c) => {
            w.put_u8(CONST_CLASS);
            write_class_name(w, c);
        }
        Const::Null => w.put_u8(CONST_NULL),
    }
}

fn read_const(r: &mut WireReader<'_>) -> Result<Const, WireError> {
    Ok(match r.get_u8()? {
        CONST_INT => Const::Int(r.get_ivarint()?),
        CONST_FLOAT => Const::Float(r.get_f64()?),
        CONST_STR => Const::Str(r.get_str()?.to_string()),
        CONST_CLASS => Const::Class(read_class_name(r)?),
        CONST_NULL => Const::Null,
        tag => return Err(malformed(format!("unknown const tag {tag}"))),
    })
}

fn write_local(w: &mut WireWriter, l: LocalId) {
    w.put_uvarint(l.0 as u64);
}

fn read_local(r: &mut WireReader<'_>) -> Result<LocalId, WireError> {
    let v = r.get_uvarint()?;
    let v = u32::try_from(v).map_err(|_| malformed("local id exceeds u32"))?;
    Ok(LocalId(v))
}

const VALUE_LOCAL: u8 = 0;
const VALUE_CONST: u8 = 1;

fn write_value(w: &mut WireWriter, v: &Value) {
    match v {
        Value::Local(l) => {
            w.put_u8(VALUE_LOCAL);
            write_local(w, *l);
        }
        Value::Const(c) => {
            w.put_u8(VALUE_CONST);
            write_const(w, c);
        }
    }
}

fn read_value(r: &mut WireReader<'_>) -> Result<Value, WireError> {
    Ok(match r.get_u8()? {
        VALUE_LOCAL => Value::Local(read_local(r)?),
        VALUE_CONST => Value::Const(read_const(r)?),
        tag => return Err(malformed(format!("unknown value tag {tag}"))),
    })
}

const PLACE_LOCAL: u8 = 0;
const PLACE_IFIELD: u8 = 1;
const PLACE_SFIELD: u8 = 2;
const PLACE_ELEM: u8 = 3;

fn write_place(w: &mut WireWriter, p: &Place) {
    match p {
        Place::Local(l) => {
            w.put_u8(PLACE_LOCAL);
            write_local(w, *l);
        }
        Place::InstanceField { base, field } => {
            w.put_u8(PLACE_IFIELD);
            write_local(w, *base);
            write_field_sig(w, field);
        }
        Place::StaticField(field) => {
            w.put_u8(PLACE_SFIELD);
            write_field_sig(w, field);
        }
        Place::ArrayElem { base, index } => {
            w.put_u8(PLACE_ELEM);
            write_local(w, *base);
            write_value(w, index);
        }
    }
}

fn read_place(r: &mut WireReader<'_>) -> Result<Place, WireError> {
    Ok(match r.get_u8()? {
        PLACE_LOCAL => Place::Local(read_local(r)?),
        PLACE_IFIELD => Place::InstanceField {
            base: read_local(r)?,
            field: read_field_sig(r)?,
        },
        PLACE_SFIELD => Place::StaticField(read_field_sig(r)?),
        PLACE_ELEM => Place::ArrayElem {
            base: read_local(r)?,
            index: read_value(r)?,
        },
        tag => return Err(malformed(format!("unknown place tag {tag}"))),
    })
}

fn binop_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Rem => 4,
        BinOp::And => 5,
        BinOp::Or => 6,
        BinOp::Xor => 7,
        BinOp::Shl => 8,
        BinOp::Shr => 9,
        BinOp::Ushr => 10,
        BinOp::Cmp => 11,
    }
}

fn binop_from(tag: u8) -> Result<BinOp, WireError> {
    Ok(match tag {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::Rem,
        5 => BinOp::And,
        6 => BinOp::Or,
        7 => BinOp::Xor,
        8 => BinOp::Shl,
        9 => BinOp::Shr,
        10 => BinOp::Ushr,
        11 => BinOp::Cmp,
        _ => return Err(malformed(format!("unknown binop tag {tag}"))),
    })
}

fn condop_tag(op: CondOp) -> u8 {
    match op {
        CondOp::Eq => 0,
        CondOp::Ne => 1,
        CondOp::Lt => 2,
        CondOp::Le => 3,
        CondOp::Gt => 4,
        CondOp::Ge => 5,
    }
}

fn condop_from(tag: u8) -> Result<CondOp, WireError> {
    Ok(match tag {
        0 => CondOp::Eq,
        1 => CondOp::Ne,
        2 => CondOp::Lt,
        3 => CondOp::Le,
        4 => CondOp::Gt,
        5 => CondOp::Ge,
        _ => return Err(malformed(format!("unknown condop tag {tag}"))),
    })
}

fn invoke_kind_tag(k: InvokeKind) -> u8 {
    match k {
        InvokeKind::Virtual => 0,
        InvokeKind::Special => 1,
        InvokeKind::Static => 2,
        InvokeKind::Interface => 3,
        InvokeKind::Super => 4,
    }
}

fn invoke_kind_from(tag: u8) -> Result<InvokeKind, WireError> {
    Ok(match tag {
        0 => InvokeKind::Virtual,
        1 => InvokeKind::Special,
        2 => InvokeKind::Static,
        3 => InvokeKind::Interface,
        4 => InvokeKind::Super,
        _ => return Err(malformed(format!("unknown invoke kind tag {tag}"))),
    })
}

fn write_invoke(w: &mut WireWriter, ie: &InvokeExpr) {
    w.put_u8(invoke_kind_tag(ie.kind));
    write_method_sig(w, &ie.callee);
    match ie.base {
        Some(b) => {
            w.put_bool(true);
            write_local(w, b);
        }
        None => w.put_bool(false),
    }
    w.put_len(ie.args.len());
    for a in &ie.args {
        write_value(w, a);
    }
}

fn read_invoke(r: &mut WireReader<'_>) -> Result<InvokeExpr, WireError> {
    let kind = invoke_kind_from(r.get_u8()?)?;
    let callee = read_method_sig(r)?;
    let base = if r.get_bool()? {
        Some(read_local(r)?)
    } else {
        None
    };
    let n = r.get_len(1)?;
    let mut args = Vec::with_capacity(n);
    for _ in 0..n {
        args.push(read_value(r)?);
    }
    Ok(InvokeExpr {
        kind,
        callee,
        base,
        args,
    })
}

const RV_USE: u8 = 0;
const RV_READ: u8 = 1;
const RV_BINOP: u8 = 2;
const RV_CAST: u8 = 3;
const RV_INSTANCEOF: u8 = 4;
const RV_NEW: u8 = 5;
const RV_NEWARRAY: u8 = 6;
const RV_INVOKE: u8 = 7;
const RV_PHI: u8 = 8;
const RV_LENGTH: u8 = 9;

fn write_rvalue(w: &mut WireWriter, rv: &Rvalue) {
    match rv {
        Rvalue::Use(v) => {
            w.put_u8(RV_USE);
            write_value(w, v);
        }
        Rvalue::Read(p) => {
            w.put_u8(RV_READ);
            write_place(w, p);
        }
        Rvalue::Binop(op, a, b) => {
            w.put_u8(RV_BINOP);
            w.put_u8(binop_tag(*op));
            write_value(w, a);
            write_value(w, b);
        }
        Rvalue::Cast(t, v) => {
            w.put_u8(RV_CAST);
            write_type(w, t);
            write_value(w, v);
        }
        Rvalue::InstanceOf(c, v) => {
            w.put_u8(RV_INSTANCEOF);
            write_class_name(w, c);
            write_value(w, v);
        }
        Rvalue::New(c) => {
            w.put_u8(RV_NEW);
            write_class_name(w, c);
        }
        Rvalue::NewArray(t, len) => {
            w.put_u8(RV_NEWARRAY);
            write_type(w, t);
            write_value(w, len);
        }
        Rvalue::Invoke(ie) => {
            w.put_u8(RV_INVOKE);
            write_invoke(w, ie);
        }
        Rvalue::Phi(ls) => {
            w.put_u8(RV_PHI);
            w.put_len(ls.len());
            for l in ls {
                write_local(w, *l);
            }
        }
        Rvalue::Length(v) => {
            w.put_u8(RV_LENGTH);
            write_value(w, v);
        }
    }
}

fn read_rvalue(r: &mut WireReader<'_>) -> Result<Rvalue, WireError> {
    Ok(match r.get_u8()? {
        RV_USE => Rvalue::Use(read_value(r)?),
        RV_READ => Rvalue::Read(read_place(r)?),
        RV_BINOP => {
            let op = binop_from(r.get_u8()?)?;
            Rvalue::Binop(op, read_value(r)?, read_value(r)?)
        }
        RV_CAST => Rvalue::Cast(read_type(r)?, read_value(r)?),
        RV_INSTANCEOF => Rvalue::InstanceOf(read_class_name(r)?, read_value(r)?),
        RV_NEW => Rvalue::New(read_class_name(r)?),
        RV_NEWARRAY => Rvalue::NewArray(read_type(r)?, read_value(r)?),
        RV_INVOKE => Rvalue::Invoke(read_invoke(r)?),
        RV_PHI => {
            let n = r.get_len(1)?;
            let mut ls = Vec::with_capacity(n);
            for _ in 0..n {
                ls.push(read_local(r)?);
            }
            Rvalue::Phi(ls)
        }
        RV_LENGTH => Rvalue::Length(read_value(r)?),
        tag => return Err(malformed(format!("unknown rvalue tag {tag}"))),
    })
}

const ID_THIS: u8 = 0;
const ID_PARAM: u8 = 1;
const ID_CAUGHT: u8 = 2;

fn write_identity(w: &mut WireWriter, k: &IdentityKind) {
    match k {
        IdentityKind::This(c) => {
            w.put_u8(ID_THIS);
            write_class_name(w, c);
        }
        IdentityKind::Param(i, t) => {
            w.put_u8(ID_PARAM);
            w.put_len(*i);
            write_type(w, t);
        }
        IdentityKind::CaughtException => w.put_u8(ID_CAUGHT),
    }
}

fn read_identity(r: &mut WireReader<'_>) -> Result<IdentityKind, WireError> {
    Ok(match r.get_u8()? {
        ID_THIS => IdentityKind::This(read_class_name(r)?),
        ID_PARAM => {
            let i = r.get_uvarint()?;
            let i = usize::try_from(i).map_err(|_| malformed("param index exceeds usize"))?;
            IdentityKind::Param(i, read_type(r)?)
        }
        ID_CAUGHT => IdentityKind::CaughtException,
        tag => return Err(malformed(format!("unknown identity tag {tag}"))),
    })
}

const ST_IDENTITY: u8 = 0;
const ST_ASSIGN: u8 = 1;
const ST_INVOKE: u8 = 2;
const ST_RETURN: u8 = 3;
const ST_IF: u8 = 4;
const ST_GOTO: u8 = 5;
const ST_THROW: u8 = 6;
const ST_NOP: u8 = 7;

fn write_stmt(w: &mut WireWriter, s: &Stmt) {
    match s {
        Stmt::Identity { local, kind } => {
            w.put_u8(ST_IDENTITY);
            write_local(w, *local);
            write_identity(w, kind);
        }
        Stmt::Assign { place, rvalue } => {
            w.put_u8(ST_ASSIGN);
            write_place(w, place);
            write_rvalue(w, rvalue);
        }
        Stmt::Invoke(ie) => {
            w.put_u8(ST_INVOKE);
            write_invoke(w, ie);
        }
        Stmt::Return(v) => {
            w.put_u8(ST_RETURN);
            match v {
                Some(v) => {
                    w.put_bool(true);
                    write_value(w, v);
                }
                None => w.put_bool(false),
            }
        }
        Stmt::If { op, a, b, target } => {
            w.put_u8(ST_IF);
            w.put_u8(condop_tag(*op));
            write_value(w, a);
            write_value(w, b);
            w.put_len(*target);
        }
        Stmt::Goto(t) => {
            w.put_u8(ST_GOTO);
            w.put_len(*t);
        }
        Stmt::Throw(v) => {
            w.put_u8(ST_THROW);
            write_value(w, v);
        }
        Stmt::Nop => w.put_u8(ST_NOP),
    }
}

fn read_target(r: &mut WireReader<'_>) -> Result<usize, WireError> {
    let t = r.get_uvarint()?;
    usize::try_from(t).map_err(|_| malformed("branch target exceeds usize"))
}

fn read_stmt(r: &mut WireReader<'_>) -> Result<Stmt, WireError> {
    Ok(match r.get_u8()? {
        ST_IDENTITY => Stmt::Identity {
            local: read_local(r)?,
            kind: read_identity(r)?,
        },
        ST_ASSIGN => Stmt::Assign {
            place: read_place(r)?,
            rvalue: read_rvalue(r)?,
        },
        ST_INVOKE => Stmt::Invoke(read_invoke(r)?),
        ST_RETURN => {
            if r.get_bool()? {
                Stmt::Return(Some(read_value(r)?))
            } else {
                Stmt::Return(None)
            }
        }
        ST_IF => {
            let op = condop_from(r.get_u8()?)?;
            let a = read_value(r)?;
            let b = read_value(r)?;
            let target = read_target(r)?;
            Stmt::If { op, a, b, target }
        }
        ST_GOTO => Stmt::Goto(read_target(r)?),
        ST_THROW => Stmt::Throw(read_value(r)?),
        ST_NOP => Stmt::Nop,
        tag => return Err(malformed(format!("unknown stmt tag {tag}"))),
    })
}

// ---------------------------------------------------------------------
// Bodies, methods, classes, programs
// ---------------------------------------------------------------------

fn write_body(w: &mut WireWriter, b: &MethodBody) {
    let locals: Vec<_> = b.locals().collect();
    w.put_len(locals.len());
    for l in &locals {
        write_local(w, l.id);
        write_type(w, &l.ty);
    }
    w.put_len(b.len());
    for s in b.stmts() {
        write_stmt(w, s);
    }
}

fn read_body(r: &mut WireReader<'_>) -> Result<MethodBody, WireError> {
    let mut body = MethodBody::new();
    let locals = r.get_len(2)?;
    for _ in 0..locals {
        let id = read_local(r)?;
        let ty = read_type(r)?;
        body.declare_local(id, ty);
    }
    let stmts = r.get_len(1)?;
    body.reserve(stmts);
    for _ in 0..stmts {
        body.push(read_stmt(r)?);
    }
    // Branch targets must stay inside the body so CFG construction cannot
    // index out of bounds on a decoded program.
    for s in body.stmts() {
        for t in s.branch_targets() {
            if t >= body.len() {
                return Err(malformed(format!(
                    "branch target {t} outside body of {} statements",
                    body.len()
                )));
            }
        }
    }
    Ok(body)
}

fn write_method(w: &mut WireWriter, m: &Method) {
    write_method_sig(w, m.sig());
    write_modifiers(w, m.modifiers());
    match m.body() {
        Some(b) => {
            w.put_bool(true);
            write_body(w, b);
        }
        None => w.put_bool(false),
    }
}

fn read_method(r: &mut WireReader<'_>) -> Result<Method, WireError> {
    let sig = read_method_sig(r)?;
    let modifiers = read_modifiers(r)?;
    let body = if r.get_bool()? {
        Some(read_body(r)?)
    } else {
        None
    };
    Ok(Method::from_parts(sig, modifiers, body))
}

/// Encodes one class definition. A class's chunk key is a checksum over
/// exactly these bytes, so equal classes key identically across
/// program versions.
pub fn write_class(w: &mut WireWriter, c: &Class) {
    write_class_name(w, c.name());
    match c.superclass() {
        Some(s) => {
            w.put_bool(true);
            write_class_name(w, s);
        }
        None => w.put_bool(false),
    }
    w.put_len(c.interfaces().len());
    for i in c.interfaces() {
        write_class_name(w, i);
    }
    write_modifiers(w, c.modifiers());
    w.put_len(c.fields().len());
    for f in c.fields() {
        write_field_sig(w, f.sig());
        write_modifiers(w, f.modifiers());
    }
    w.put_len(c.methods().len());
    for m in c.methods() {
        write_method(w, m);
    }
}

/// Decodes one class definition written by [`write_class`], validating
/// the same invariants the program decoder enforces (methods declared on
/// this class, no duplicate signatures).
pub fn read_class(r: &mut WireReader<'_>) -> Result<Class, WireError> {
    let name = read_class_name(r)?;
    let superclass = if r.get_bool()? {
        Some(read_class_name(r)?)
    } else {
        None
    };
    let n_ifaces = r.get_len(1)?;
    let mut interfaces = Vec::with_capacity(n_ifaces);
    for _ in 0..n_ifaces {
        interfaces.push(read_class_name(r)?);
    }
    let modifiers = read_modifiers(r)?;
    let n_fields = r.get_len(1)?;
    let mut fields = Vec::with_capacity(n_fields);
    for _ in 0..n_fields {
        let sig = read_field_sig(r)?;
        let m = read_modifiers(r)?;
        fields.push(FieldDef::new(sig, m));
    }
    let n_methods = r.get_len(1)?;
    let mut methods = Vec::with_capacity(n_methods);
    for _ in 0..n_methods {
        let m = read_method(r)?;
        if m.sig().class() != &name {
            return Err(malformed(format!(
                "method {} declared inside class {}",
                m.sig(),
                name
            )));
        }
        methods.push(m);
    }
    let mut sigs: Vec<&MethodSig> = methods.iter().map(Method::sig).collect();
    sigs.sort_unstable();
    if let Some(w) = sigs.windows(2).find(|w| w[0] == w[1]) {
        return Err(malformed(format!("duplicate method {}", w[0])));
    }
    Ok(Class::from_parts(
        name, superclass, interfaces, modifiers, fields, methods,
    ))
}

/// Encodes a whole program (classes in their deterministic name order).
pub fn write_program(w: &mut WireWriter, p: &Program) {
    w.put_len(p.class_count());
    for c in p.classes() {
        write_class(w, c);
    }
}

/// Decodes a program, rejecting duplicate class definitions (which the
/// in-memory builder would panic on).
pub fn read_program(r: &mut WireReader<'_>) -> Result<Program, WireError> {
    let n = r.get_len(1)?;
    let mut p = Program::new();
    for _ in 0..n {
        let c = read_class(r)?;
        if p.defines(c.name()) {
            return Err(malformed(format!("duplicate class {}", c.name())));
        }
        p.add_class(c);
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClassBuilder, MethodBuilder};

    fn sample_program() -> Program {
        let cls = ClassName::new("com.w.Main");
        let mut m = MethodBuilder::public(&cls, "go", vec![Type::Int, Type::string()], Type::Int);
        let arg = m.param(0);
        m.invoke(InvokeExpr::call_static(
            MethodSig::new("com.w.Util", "log", vec![Type::string()], Type::Void),
            vec![Value::str("hello \"wire\"")],
        ));
        m.ret(Value::Local(arg));
        let mut p = Program::new();
        p.add_class(
            ClassBuilder::new("com.w.Main")
                .extends("android.app.Activity")
                .implements("java.lang.Runnable")
                .field("state", Type::array(Type::Byte), Modifiers::private())
                .method(m.build())
                .build(),
        );
        p
    }

    #[test]
    fn varints_round_trip_and_reject_overflow() {
        let mut w = WireWriter::new();
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            w.put_uvarint(v);
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -300] {
            w.put_ivarint(v);
        }
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            assert_eq!(r.get_uvarint().unwrap(), v);
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -300] {
            assert_eq!(r.get_ivarint().unwrap(), v);
        }
        assert!(r.is_empty());
        // An 11-byte continuation run must not loop forever or panic.
        let bad = [0x80u8; 11];
        assert!(matches!(
            WireReader::new(&bad).get_uvarint(),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn hostile_lengths_fail_before_allocating() {
        // A length prefix of u64::MAX with no payload behind it.
        let mut w = WireWriter::new();
        w.put_uvarint(u64::MAX);
        let bytes = w.into_bytes();
        assert_eq!(
            WireReader::new(&bytes).get_len(1),
            Err(WireError::Truncated)
        );
        assert!(WireReader::new(&bytes).get_bytes().is_err());
    }

    #[test]
    fn f64_round_trips_bit_exactly() {
        let mut w = WireWriter::new();
        let weird_nan = f64::from_bits(0x7ff8_dead_beef_0001);
        for v in [0.0, -0.0, 1.5, f64::INFINITY, weird_nan] {
            w.put_f64(v);
        }
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        for v in [0.0f64, -0.0, 1.5, f64::INFINITY, weird_nan] {
            assert_eq!(r.get_f64().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn program_round_trips_and_is_deterministic() {
        let p = sample_program();
        let mut w = WireWriter::new();
        write_program(&mut w, &p);
        let bytes = w.into_bytes();
        let q = read_program(&mut WireReader::new(&bytes)).unwrap();
        assert_eq!(p.class_count(), q.class_count());
        for (a, b) in p.classes().zip(q.classes()) {
            assert_eq!(a, b);
        }
        let mut w2 = WireWriter::new();
        write_program(&mut w2, &q);
        assert_eq!(bytes, w2.into_bytes(), "re-encoding is byte-identical");
    }

    #[test]
    fn every_truncation_of_a_program_fails_cleanly() {
        let mut w = WireWriter::new();
        write_program(&mut w, &sample_program());
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let r = read_program(&mut WireReader::new(&bytes[..cut]));
            assert!(r.is_err(), "prefix of {cut} bytes decoded to a program");
        }
    }

    #[test]
    fn corrupt_tags_are_malformed_not_panics() {
        let mut w = WireWriter::new();
        write_program(&mut w, &sample_program());
        let bytes = w.into_bytes();
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0xff;
            // Any outcome but a panic is acceptable; most positions error.
            let _ = read_program(&mut WireReader::new(&mutated));
        }
    }

    #[test]
    fn skipping_a_signature_accepts_exactly_what_decoding_does() {
        let mut w = WireWriter::new();
        write_method_sig(
            &mut w,
            &MethodSig::new(
                "com.w.Main",
                "go",
                vec![Type::Int, Type::array(Type::array(Type::string()))],
                Type::object("com.w.Result"),
            ),
        );
        let bytes = w.into_bytes();
        let mut cases = vec![bytes.clone()];
        cases.extend((0..bytes.len()).map(|cut| bytes[..cut].to_vec()));
        for i in 0..bytes.len() {
            for flip in [0x01, 0x80, 0xff] {
                let mut mutated = bytes.clone();
                mutated[i] ^= flip;
                cases.push(mutated);
            }
        }
        for case in &cases {
            let (mut read, mut skip) = (WireReader::new(case), WireReader::new(case));
            let decoded = read_method_sig(&mut read);
            let skipped = skip_method_sig(&mut skip);
            assert_eq!(decoded.is_ok(), skipped.is_ok(), "{case:?}");
            if decoded.is_ok() {
                assert_eq!(read.remaining(), skip.remaining(), "{case:?}");
            }
        }
    }

    #[test]
    fn array_types_nest_at_most_255_deep() {
        let nested = |dims: usize| {
            let mut bytes = vec![TY_ARRAY; dims];
            bytes.push(TY_INT);
            bytes
        };
        let ty = read_type(&mut WireReader::new(&nested(255))).unwrap();
        assert!(ty.descriptor().starts_with(&"[".repeat(255)));
        // Deeper input is malformed, however long: the decoder neither
        // recurses per level nor builds a value too deep to drop.
        for dims in [256, 1_000_000] {
            let err = read_type(&mut WireReader::new(&nested(dims))).unwrap_err();
            assert!(matches!(err, WireError::Malformed(_)));
        }
    }

    #[test]
    fn decoded_branch_targets_stay_in_bounds() {
        let mut w = WireWriter::new();
        // One-statement body whose goto points past the end.
        w.put_len(0); // locals
        w.put_len(1); // stmts
        w.put_u8(ST_GOTO);
        w.put_len(7);
        let err = read_body(&mut WireReader::new(w.bytes())).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)));
    }

    #[test]
    fn duplicate_classes_and_methods_are_rejected() {
        let p = sample_program();
        let mut w = WireWriter::new();
        w.put_len(2);
        let c = p.classes().next().unwrap();
        write_class(&mut w, c);
        write_class(&mut w, c);
        let err = read_program(&mut WireReader::new(w.bytes())).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)));
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"snapshot"), fnv1a64(b"snapsho t"));
    }

    #[test]
    fn fnv1a64_wide_detects_flips_and_length_changes() {
        // Deterministic, and a function of content at every position —
        // including the zero-padded tail, which the folded-in length
        // disambiguates from genuine trailing zero bytes.
        let data: Vec<u8> = (0u32..1000).map(|i| (i % 251) as u8).collect();
        assert_eq!(fnv1a64_wide(&data), fnv1a64_wide(&data.clone()));
        for i in [0usize, 7, 8, 500, 993, 999] {
            let mut bad = data.clone();
            bad[i] ^= 0x40;
            assert_ne!(fnv1a64_wide(&bad), fnv1a64_wide(&data), "flip at {i}");
        }
        let mut extended = data.clone();
        extended.push(0);
        assert_ne!(fnv1a64_wide(&extended), fnv1a64_wide(&data));
        assert_ne!(fnv1a64_wide(b"ab"), fnv1a64_wide(b"ab\0"));
        assert_ne!(fnv1a64_wide(b"snapshot"), fnv1a64(b"snapshot"));
    }
}
