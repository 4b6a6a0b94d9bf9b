//! The dexdump-style disassembler.
//!
//! Produces the *bytecode plaintext* that BackDroid's on-the-fly search
//! greps (paper §III step 1). The layout mirrors real `dexdump -d` output,
//! including the quirks the paper has to work around: the per-method
//! banner line prints the dotted class name with inner-class `$` turned
//! into `.` (§IV-A step 2: "an inner class needs to add back the symbol
//! `$`").

use crate::insn::{FieldIdx, Insn, Reg, TypeIdx};
use crate::model::{ClassDef, DexImage, EncodedMethod, PoolBuilder, ProtoId};
use backdroid_ir::{ClassName, FieldSig, MethodSig, Modifiers, Type};
use std::fmt::Write as _;

/// The bytecode reference form of a method, as it appears in dexdump
/// operand positions: `Lcom/a/B;.start:(I)V`.
pub fn method_ref_string(sig: &MethodSig) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "L{};.{}:(",
        sig.class().as_str().replace('.', "/"),
        sig.name()
    );
    for p in sig.params() {
        s.push_str(&p.descriptor());
    }
    s.push(')');
    s.push_str(&sig.ret().descriptor());
    s
}

/// Parses a bytecode method reference back into a signature.
/// Inverse of [`method_ref_string`].
pub fn parse_method_ref(s: &str) -> Option<MethodSig> {
    // Lcom/a/B;.name:(params)ret
    let class_end = s.find(";.")?;
    let class_desc = &s[..class_end + 1];
    let Type::Object(class) = Type::from_descriptor(class_desc)? else {
        return None;
    };
    let rest = &s[class_end + 2..];
    let (name, proto) = rest.split_once(":(")?;
    let (params_str, ret_str) = proto.split_once(')')?;
    let mut params = Vec::new();
    let mut cur = params_str;
    while !cur.is_empty() {
        let (ty, rest) = Type::parse_descriptor_prefix(cur)?;
        params.push(ty);
        cur = rest;
    }
    let ret = Type::from_descriptor(ret_str)?;
    Some(MethodSig::new(class, name, params, ret))
}

/// The bytecode reference form of a field:
/// `Lcom/a/B;.httpServer:Lcom/c/D;`.
pub fn field_ref_string(sig: &FieldSig) -> String {
    format!(
        "L{};.{}:{}",
        sig.class().as_str().replace('.', "/"),
        sig.name(),
        sig.ty().descriptor()
    )
}

/// Parses a bytecode field reference. Inverse of [`field_ref_string`].
pub fn parse_field_ref(s: &str) -> Option<FieldSig> {
    let class_end = s.find(";.")?;
    let Type::Object(class) = Type::from_descriptor(&s[..class_end + 1])? else {
        return None;
    };
    let rest = &s[class_end + 2..];
    let (name, ty_str) = rest.split_once(':')?;
    Some(FieldSig::new(class, name, Type::from_descriptor(ty_str)?))
}

/// The `Lcom/a/B;` descriptor of a class name.
pub fn class_descriptor(name: &ClassName) -> String {
    format!("L{};", name.as_str().replace('.', "/"))
}

/// Where one pool entry's text sits in a [`PoolText`] arena.
#[derive(Clone, Copy)]
struct Piece {
    start: u32,
    end: u32,
}

/// A method pool entry's text: `Lcom/a/B;.run:(I)V`, its name and its
/// proto.
#[derive(Clone, Copy)]
struct MethodText {
    reference: Piece,
    name: Piece,
    proto: Piece,
}

/// A field pool entry's text: `Lcom/a/B;.port:I`, its name and its
/// type descriptor.
#[derive(Clone, Copy)]
struct FieldText {
    reference: Piece,
    name: Piece,
    ty: Piece,
}

/// One dex file's pool entries in the form the dump prints them, all in
/// one arena and each derived once per entry rather than once per use.
#[derive(Default)]
struct PoolText {
    arena: String,
    strings: Vec<Piece>,
    types: Vec<Piece>,
    methods: Vec<MethodText>,
    fields: Vec<FieldText>,
}

impl PoolText {
    fn new(pools: &PoolBuilder) -> PoolText {
        let mut t = PoolText::default();
        for s in &pools.strings {
            let p = t.push(|a| a.push_str(s));
            t.strings.push(p);
        }
        for d in &pools.types {
            let p = t.push(|a| a.push_str(d));
            t.types.push(p);
        }
        let type_desc = |idx: TypeIdx| pools.types[idx.0 as usize].as_str();
        let proto_text = |a: &mut String, proto: &ProtoId| {
            a.push('(');
            for &p in &proto.params {
                a.push_str(type_desc(p));
            }
            a.push(')');
            a.push_str(type_desc(proto.ret));
        };
        let protos: Vec<Piece> = pools
            .protos
            .iter()
            .map(|proto| t.push(|a| proto_text(a, proto)))
            .collect();
        for m in &pools.methods {
            let proto = &pools.protos[m.proto as usize];
            let reference = t.push(|a| {
                a.push_str(type_desc(m.class));
                a.push('.');
                a.push_str(&pools.strings[m.name.0 as usize]);
                a.push(':');
                proto_text(a, proto);
            });
            t.methods.push(MethodText {
                reference,
                name: t.strings[m.name.0 as usize],
                proto: protos[m.proto as usize],
            });
        }
        for f in &pools.fields {
            let reference = t.push(|a| {
                a.push_str(type_desc(f.class));
                a.push('.');
                a.push_str(&pools.strings[f.name.0 as usize]);
                a.push(':');
                a.push_str(type_desc(f.ty));
            });
            t.fields.push(FieldText {
                reference,
                name: t.strings[f.name.0 as usize],
                ty: t.types[f.ty.0 as usize],
            });
        }
        t
    }

    /// Appends one entry's text through `write` and returns its piece.
    fn push(&mut self, write: impl FnOnce(&mut String)) -> Piece {
        let start = self.arena.len();
        write(&mut self.arena);
        Piece {
            start: start as u32,
            end: self.arena.len() as u32,
        }
    }
}

/// Writes the dump of a whole image into one buffer.
struct Renderer {
    out: String,
    /// The pool text of the file being rendered.
    pool: PoolText,
    /// Fake absolute file offset, advanced per code unit.
    abs: u32,
}

impl Renderer {
    /// Appends template text, which never holds a newline.
    fn s(&mut self, s: &str) {
        self.out.push_str(s);
    }

    /// Ends the current line.
    fn nl(&mut self) {
        self.out.push('\n');
    }

    /// A whole line of template text.
    fn line(&mut self, s: &str) {
        self.s(s);
        self.nl();
    }

    /// Ends a line with a quoted pool entry: `{prefix}{entry}'`, where
    /// `prefix` holds the opening quote.
    fn quoted_line(&mut self, prefix: &str, p: Piece) {
        self.s(prefix);
        self.piece(p);
        self.s("'");
        self.nl();
    }

    /// Appends one pool entry's text.
    fn piece(&mut self, p: Piece) {
        self.out
            .push_str(&self.pool.arena[p.start as usize..p.end as usize]);
    }

    // `reg` and `hex` format by hand because every instruction line
    // calls them several times: with `write!` there the render took
    // about three times as long. Lines printed once per method or
    // class use `write!`.

    /// A register: `v3`.
    fn reg(&mut self, r: Reg) {
        self.out.push('v');
        let mut digits = [0u8; 10];
        let mut i = digits.len();
        let mut v = r.0;
        loop {
            i -= 1;
            digits[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.out.extend(digits[i..].iter().map(|&d| char::from(d)));
    }

    /// `{v:0width$x}`.
    fn hex(&mut self, v: u32, width: u32) {
        let digits = (32 - v.leading_zeros()).div_ceil(4).max(width);
        for i in (0..digits).rev() {
            let nibble = v.checked_shr(4 * i).unwrap_or(0) & 0xf;
            self.out
                .push(char::from(b"0123456789abcdef"[nibble as usize]));
        }
    }

    /// The access flags and their names: `0x0009 (PUBLIC STATIC)`.
    fn access(&mut self, access: Modifiers, is_init: bool) {
        let _ = write!(self.out, "0x{:04x} (", access.bits());
        let mut sep = "";
        for (set, name) in [
            (access.is_public(), "PUBLIC"),
            (access.is_private(), "PRIVATE"),
            (access.is_static(), "STATIC"),
            (access.is_final(), "FINAL"),
            (access.is_abstract(), "ABSTRACT"),
            (access.is_interface(), "INTERFACE"),
            (is_init, "CONSTRUCTOR"),
        ] {
            if set {
                self.s(sep);
                self.s(name);
                sep = " ";
            }
        }
        self.s(")");
    }

    /// Fake code-word hex for an instruction, padded to its column
    /// (stable filler so the dump *looks* like dexdump output; never
    /// parsed by the search).
    fn fake_words(&mut self, insn: &Insn, unit_off: u32) {
        let op = insn.pseudo_opcode() as u32;
        let start = self.out.len();
        for k in 0..insn.units().min(3) {
            if k > 0 {
                self.s(" ");
            }
            let w = (op << 8) ^ (unit_off.wrapping_mul(0x9e37).wrapping_add(k * 0x515d)) & 0xffff;
            self.hex(w & 0xffff, 4);
        }
        let pad = 21usize.saturating_sub(self.out.len() - start);
        self.out.extend(std::iter::repeat_n(' ', pad));
    }

    /// `mnemonic v1, v2`.
    fn op(&mut self, mnemonic: &str, regs: &[Reg]) {
        self.s(mnemonic);
        let mut sep = " ";
        for &r in regs {
            self.s(sep);
            self.reg(r);
            sep = ", ";
        }
    }

    /// `, Lcom/a/B; // type@0001`.
    fn type_operand(&mut self, idx: TypeIdx) {
        self.s(", ");
        self.piece(self.pool.types[idx.0 as usize]);
        self.s(" // type@");
        self.hex(idx.0, 4);
    }

    /// `, Lcom/a/B;.port:I // field@0001`.
    fn field_operand(&mut self, idx: FieldIdx) {
        self.s(", ");
        self.piece(self.pool.fields[idx.0 as usize].reference);
        self.s(" // field@");
        self.hex(idx.0, 4);
    }

    /// A branch target: `0012 // +0012`.
    fn branch_target(&mut self, target_units: u32) {
        let _ = write!(self.out, "{target_units:04x} // +{target_units:04x}");
    }

    fn operand(&mut self, insn: &Insn) {
        match insn {
            Insn::Nop => self.s("nop // spacer"),
            Insn::Move { dst, src } => self.op("move-object", &[*dst, *src]),
            Insn::MoveResult { dst, object } => {
                let mnemonic = if *object {
                    "move-result-object"
                } else {
                    "move-result"
                };
                self.op(mnemonic, &[*dst]);
            }
            Insn::ConstInt { dst, value } => {
                self.op("const", &[*dst]);
                let _ = write!(self.out, ", #int {value}");
            }
            Insn::ConstString { dst, idx } => {
                self.op("const-string", &[*dst]);
                self.s(", \"");
                self.piece(self.pool.strings[idx.0 as usize]);
                self.s("\" // string@");
                self.hex(idx.0, 4);
            }
            Insn::ConstClass { dst, idx } => {
                self.op("const-class", &[*dst]);
                self.type_operand(*idx);
            }
            Insn::ConstNull { dst } => {
                self.op("const/4", &[*dst]);
                self.s(", #int 0 // null");
            }
            Insn::NewInstance { dst, idx } => {
                self.op("new-instance", &[*dst]);
                self.type_operand(*idx);
            }
            Insn::NewArray { dst, size, idx } => {
                self.op("new-array", &[*dst, *size]);
                self.type_operand(*idx);
            }
            Insn::ArrayLength { dst, src } => self.op("array-length", &[*dst, *src]),
            Insn::CheckCast { reg, idx } => {
                self.op("check-cast", &[*reg]);
                self.type_operand(*idx);
            }
            Insn::InstanceOf { dst, src, idx } => {
                self.op("instance-of", &[*dst, *src]);
                self.type_operand(*idx);
            }
            Insn::Iget {
                dst,
                obj,
                idx,
                object,
            } => {
                self.op(if *object { "iget-object" } else { "iget" }, &[*dst, *obj]);
                self.field_operand(*idx);
            }
            Insn::Iput {
                src,
                obj,
                idx,
                object,
            } => {
                self.op(if *object { "iput-object" } else { "iput" }, &[*src, *obj]);
                self.field_operand(*idx);
            }
            Insn::Sget { dst, idx, object } => {
                self.op(if *object { "sget-object" } else { "sget" }, &[*dst]);
                self.field_operand(*idx);
            }
            Insn::Sput { src, idx, object } => {
                self.op(if *object { "sput-object" } else { "sput" }, &[*src]);
                self.field_operand(*idx);
            }
            Insn::Aget { dst, arr, index } => self.op("aget-object", &[*dst, *arr, *index]),
            Insn::Aput { src, arr, index } => self.op("aput-object", &[*src, *arr, *index]),
            Insn::Invoke { kind, idx, args } => {
                self.s(kind.dex_mnemonic());
                self.s(" {");
                let mut sep = "";
                for &r in args {
                    self.s(sep);
                    self.reg(r);
                    sep = ", ";
                }
                self.s("}, ");
                self.piece(self.pool.methods[idx.0 as usize].reference);
                self.s(" // method@");
                self.hex(idx.0, 4);
            }
            Insn::Binop { op, dst, a, b } => {
                let mnemonic = match op {
                    backdroid_ir::BinOp::Add => "add-int",
                    backdroid_ir::BinOp::Sub => "sub-int",
                    backdroid_ir::BinOp::Mul => "mul-int",
                    backdroid_ir::BinOp::Div => "div-int",
                    backdroid_ir::BinOp::Rem => "rem-int",
                    backdroid_ir::BinOp::And => "and-int",
                    backdroid_ir::BinOp::Or => "or-int",
                    backdroid_ir::BinOp::Xor => "xor-int",
                    backdroid_ir::BinOp::Shl => "shl-int",
                    backdroid_ir::BinOp::Shr => "shr-int",
                    backdroid_ir::BinOp::Ushr => "ushr-int",
                    backdroid_ir::BinOp::Cmp => "cmp-long",
                };
                self.op(mnemonic, &[*dst, *a, *b]);
            }
            Insn::IfTest {
                mnemonic,
                a,
                b,
                target_units,
            } => {
                self.op(mnemonic, &[*a, *b]);
                self.s(", ");
                self.branch_target(*target_units);
            }
            Insn::Goto { target_units } => {
                self.s("goto ");
                self.branch_target(*target_units);
            }
            Insn::ReturnVoid => self.s("return-void"),
            Insn::Return { reg, object } => {
                self.op(if *object { "return-object" } else { "return" }, &[*reg]);
            }
            Insn::Throw { reg } => self.op("throw", &[*reg]),
        }
    }

    fn render_method(&mut self, class_desc: Piece, k: usize, m: &EncodedMethod) {
        let text = self.pool.methods[m.idx.0 as usize];
        let _ = write!(self.out, "    #{k:<15}: (in ");
        self.piece(class_desc);
        self.s(")");
        self.nl();
        self.quoted_line("      name          : '", text.name);
        self.quoted_line("      type          : '", text.proto);
        self.s("      access        : ");
        self.access(m.access, m.sig.is_init());
        self.nl();
        let Some(code) = &m.code else {
            self.line("      code          : (none)");
            self.nl();
            return;
        };
        self.line("      code          -");
        let _ = write!(self.out, "      registers     : {}", code.registers);
        self.nl();
        let _ = write!(
            self.out,
            "      ins           : {}",
            m.sig.params().len() + 1
        );
        self.nl();
        let _ = write!(
            self.out,
            "      insns size    : {} 16-bit code units",
            code.total_units
        );
        self.nl();
        let method_start = self.abs;
        let _ = write!(
            self.out,
            "{method_start:06x}:                                       |[{method_start:06x}] "
        );
        // The banner's dotted class name, inner-class `$` flattened.
        let class = m.sig.class().as_str();
        self.out
            .extend(class.chars().map(|c| if c == '$' { '.' } else { c }));
        self.s(".");
        self.piece(text.name);
        self.s(":");
        self.piece(text.proto);
        self.nl();
        for (insn, &unit) in code.insns.iter().zip(&code.offsets) {
            self.hex(method_start + unit * 2, 6);
            self.s(": ");
            self.fake_words(insn, unit);
            self.s(" |");
            self.hex(unit, 4);
            self.s(": ");
            self.operand(insn);
            self.nl();
        }
        self.abs = method_start + code.total_units * 2 + 12;
        self.line("      catches       : (none)");
        self.line("      positions     : ");
        self.nl();
    }

    /// A `    #0              : ` list-entry prefix.
    fn entry(&mut self, i: usize) {
        let _ = write!(self.out, "    #{i}              : ");
    }

    fn render_class(&mut self, idx: usize, class: &ClassDef) {
        let desc = self.pool.types[class.ty.0 as usize];
        let _ = write!(self.out, "Class #{idx}            -");
        self.nl();
        self.quoted_line("  Class descriptor  : '", desc);
        self.s("  Access flags      : ");
        self.access(class.access, false);
        self.nl();
        if let Some(sup) = class.superclass {
            self.quoted_line("  Superclass        : '", self.pool.types[sup.0 as usize]);
        }
        self.line("  Interfaces        -");
        for (i, iface) in class.interfaces.iter().enumerate() {
            self.entry(i);
            self.quoted_line("'", self.pool.types[iface.0 as usize]);
        }
        for (header, statics) in [
            ("  Static fields     -", true),
            ("  Instance fields   -", false),
        ] {
            self.line(header);
            let fields = class
                .fields
                .iter()
                .filter(|f| f.access.is_static() == statics);
            for (i, f) in fields.enumerate() {
                let text = self.pool.fields[f.idx.0 as usize];
                self.entry(i);
                self.s("(in ");
                self.piece(desc);
                self.s(") name:'");
                self.piece(text.name);
                self.quoted_line("' type:'", text.ty);
            }
        }
        for (header, direct) in [
            ("  Direct methods    -", true),
            ("  Virtual methods   -", false),
        ] {
            self.line(header);
            let methods = class.methods.iter().filter(|m| m.direct == direct);
            for (k, m) in methods.enumerate() {
                self.render_method(desc, k, m);
            }
        }
        self.nl();
    }
}

/// An estimate of an image's dump size from its class, field, method
/// and instruction counts, on the high side (generated apps render 80–93%
/// of it), so the output buffer is allocated once.
fn dump_capacity(image: &DexImage) -> usize {
    let mut bytes = 0;
    for class in image.files().iter().flat_map(|f| f.class_defs()) {
        bytes += 256 + 96 * class.fields.len();
        for m in &class.methods {
            bytes += 420 + m.code.as_ref().map_or(0, |c| 88 * c.insns.len());
        }
    }
    bytes
}

/// Disassembles all dex files of a (merged multidex) image into one
/// plaintext, as BackDroid's preprocessing step does (paper §III step 1).
pub fn dump_image(image: &DexImage) -> String {
    let mut r = Renderer {
        out: String::with_capacity(dump_capacity(image)),
        pool: PoolText::default(),
        abs: 0,
    };
    for (i, dex) in image.files().iter().enumerate() {
        r.s("Opened 'classes");
        if i > 0 {
            let _ = write!(r.out, "{}", i + 1);
        }
        r.s(".dex', DEX version '038'");
        r.nl();
        r.pool = PoolText::new(dex.pools());
        r.abs = 0x1000;
        for (idx, class) in dex.class_defs().iter().enumerate() {
            r.render_class(idx, class);
        }
    }
    r.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use backdroid_ir::{ClassBuilder, InvokeExpr, MethodBuilder, Program};

    fn program_with_invoke() -> Program {
        let caller = ClassName::new("com.connectsdk.service.NetcastTVService$1");
        let callee = MethodSig::new(
            "com.connectsdk.service.netcast.NetcastHttpServer",
            "start",
            vec![],
            Type::Void,
        );
        let mut run = MethodBuilder::public(&caller, "run", vec![], Type::Void);
        let srv = run.new_object(
            "com.connectsdk.service.netcast.NetcastHttpServer",
            vec![],
            vec![],
        );
        run.invoke(InvokeExpr::call_virtual(callee, srv, vec![]));
        let mut p = Program::new();
        p.add_class(
            ClassBuilder::new(caller.as_str())
                .implements("java.lang.Runnable")
                .method(run.build())
                .build(),
        );
        p
    }

    #[test]
    fn method_ref_round_trip() {
        let sig = MethodSig::new(
            "com.a.B$1",
            "run",
            vec![Type::Int, Type::string(), Type::array(Type::Byte)],
            Type::object("java.lang.Object"),
        );
        let s = method_ref_string(&sig);
        assert_eq!(
            s,
            "Lcom/a/B$1;.run:(ILjava/lang/String;[B)Ljava/lang/Object;"
        );
        assert_eq!(parse_method_ref(&s), Some(sig));
    }

    #[test]
    fn field_ref_round_trip() {
        let sig = FieldSig::new("com.studiosol.util.NanoHTTPD", "myPort", Type::Int);
        let s = field_ref_string(&sig);
        assert_eq!(s, "Lcom/studiosol/util/NanoHTTPD;.myPort:I");
        assert_eq!(parse_field_ref(&s), Some(sig));
    }

    #[test]
    fn dump_contains_invoke_reference() {
        let p = program_with_invoke();
        let img = crate::model::DexImage::encode(&p);
        let text = dump_image(&img);
        assert!(text.contains(
            "invoke-virtual {v1}, Lcom/connectsdk/service/netcast/NetcastHttpServer;.start:()V"
        ));
        assert!(text.contains("Class descriptor  : 'Lcom/connectsdk/service/NetcastTVService$1;'"));
        assert!(text.contains("name          : 'run'"));
        assert!(text.contains("|[")); // banner line present
        assert!(text.contains("com.connectsdk.service.NetcastTVService.1.run:()V"));
    }

    #[test]
    fn dump_contains_new_instance_and_init() {
        let p = program_with_invoke();
        let img = crate::model::DexImage::encode(&p);
        let text = dump_image(&img);
        assert!(
            text.contains("new-instance v1, Lcom/connectsdk/service/netcast/NetcastHttpServer;")
        );
        assert!(text.contains(
            "invoke-direct {v1}, Lcom/connectsdk/service/netcast/NetcastHttpServer;.<init>:()V"
        ));
    }

    #[test]
    fn dump_is_deterministic() {
        let p = program_with_invoke();
        let a = dump_image(&crate::model::DexImage::encode(&p));
        let b = dump_image(&crate::model::DexImage::encode(&p));
        assert_eq!(a, b);
    }

    #[test]
    fn parse_method_ref_rejects_garbage() {
        assert_eq!(parse_method_ref("not a ref"), None);
        assert_eq!(parse_method_ref("Lcom/a/B;.name:()"), None);
        assert_eq!(parse_method_ref("Lcom/a/B;.name:(Q)V"), None);
    }
}
