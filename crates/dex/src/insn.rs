//! The DEX-level instruction set and the IR → instruction assembler.
//!
//! Instructions reference constant-pool indices ([`crate::model::DexFile`])
//! and virtual registers `vN`. The set covers everything the IR can
//! express; opcode/mnemonic names follow real dalvik bytecode so that the
//! disassembled text looks like genuine `dexdump` output.

use backdroid_ir::{BinOp, Const, InvokeKind, MethodBody, Place, Rvalue, Stmt, Type, Value};

/// A virtual register.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Reg(pub u32);

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Pool index newtypes keep the operand kinds apart.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct StringIdx(pub u32);
/// Index into the type-id pool.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TypeIdx(pub u32);
/// Index into the field-id pool.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FieldIdx(pub u32);
/// Index into the method-id pool.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MethodIdx(pub u32);

/// One dalvik instruction (slightly idealized: register-width constraints
/// of the real encodings are not enforced).
#[derive(Clone, PartialEq, Debug)]
#[allow(missing_docs)]
pub enum Insn {
    Nop,
    Move {
        dst: Reg,
        src: Reg,
    },
    /// `move-result` / `move-result-object` after an invoke.
    MoveResult {
        dst: Reg,
        object: bool,
    },
    ConstInt {
        dst: Reg,
        value: i64,
    },
    ConstString {
        dst: Reg,
        idx: StringIdx,
    },
    ConstClass {
        dst: Reg,
        idx: TypeIdx,
    },
    ConstNull {
        dst: Reg,
    },
    NewInstance {
        dst: Reg,
        idx: TypeIdx,
    },
    NewArray {
        dst: Reg,
        size: Reg,
        idx: TypeIdx,
    },
    ArrayLength {
        dst: Reg,
        src: Reg,
    },
    CheckCast {
        reg: Reg,
        idx: TypeIdx,
    },
    InstanceOf {
        dst: Reg,
        src: Reg,
        idx: TypeIdx,
    },
    Iget {
        dst: Reg,
        obj: Reg,
        idx: FieldIdx,
        object: bool,
    },
    Iput {
        src: Reg,
        obj: Reg,
        idx: FieldIdx,
        object: bool,
    },
    Sget {
        dst: Reg,
        idx: FieldIdx,
        object: bool,
    },
    Sput {
        src: Reg,
        idx: FieldIdx,
        object: bool,
    },
    Aget {
        dst: Reg,
        arr: Reg,
        index: Reg,
    },
    Aput {
        src: Reg,
        arr: Reg,
        index: Reg,
    },
    Invoke {
        kind: InvokeKind,
        idx: MethodIdx,
        args: Vec<Reg>,
    },
    Binop {
        op: BinOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// `if-<op> vA, vB, +off` — target is a code-unit offset, patched late.
    IfTest {
        mnemonic: &'static str,
        a: Reg,
        b: Reg,
        target_units: u32,
    },
    Goto {
        target_units: u32,
    },
    ReturnVoid,
    Return {
        reg: Reg,
        object: bool,
    },
    Throw {
        reg: Reg,
    },
}

impl Insn {
    /// Size of the instruction in 16-bit code units (approximating the
    /// real dalvik formats; only used for offsets and size accounting).
    pub fn units(&self) -> u32 {
        match self {
            Insn::Nop | Insn::ReturnVoid => 1,
            Insn::Move { .. }
            | Insn::MoveResult { .. }
            | Insn::ArrayLength { .. }
            | Insn::ConstNull { .. }
            | Insn::Return { .. }
            | Insn::Throw { .. }
            | Insn::Goto { .. } => 1,
            Insn::ConstInt { value, .. } => {
                if *value >= -8 && *value < 8 {
                    1
                } else if *value >= i16::MIN as i64 && *value <= i16::MAX as i64 {
                    2
                } else {
                    3
                }
            }
            Insn::ConstString { .. }
            | Insn::ConstClass { .. }
            | Insn::NewInstance { .. }
            | Insn::CheckCast { .. }
            | Insn::InstanceOf { .. }
            | Insn::NewArray { .. }
            | Insn::Iget { .. }
            | Insn::Iput { .. }
            | Insn::Sget { .. }
            | Insn::Sput { .. }
            | Insn::Aget { .. }
            | Insn::Aput { .. }
            | Insn::Binop { .. }
            | Insn::IfTest { .. } => 2,
            Insn::Invoke { .. } => 3,
        }
    }

    /// A deterministic pseudo-opcode byte used for the fake hex column in
    /// the dump (faithful-looking output, stable across runs).
    pub fn pseudo_opcode(&self) -> u8 {
        match self {
            Insn::Nop => 0x00,
            Insn::Move { .. } => 0x01,
            Insn::MoveResult { .. } => 0x0a,
            Insn::ReturnVoid => 0x0e,
            Insn::Return { .. } => 0x0f,
            Insn::ConstInt { .. } => 0x13,
            Insn::ConstString { .. } => 0x1a,
            Insn::ConstClass { .. } => 0x1c,
            Insn::ConstNull { .. } => 0x12,
            Insn::CheckCast { .. } => 0x1f,
            Insn::InstanceOf { .. } => 0x20,
            Insn::ArrayLength { .. } => 0x21,
            Insn::NewInstance { .. } => 0x22,
            Insn::NewArray { .. } => 0x23,
            Insn::Throw { .. } => 0x27,
            Insn::Goto { .. } => 0x28,
            Insn::Aget { .. } => 0x44,
            Insn::Aput { .. } => 0x4b,
            Insn::Iget { .. } => 0x52,
            Insn::Iput { .. } => 0x59,
            Insn::Sget { .. } => 0x60,
            Insn::Sput { .. } => 0x67,
            Insn::IfTest { .. } => 0x32,
            Insn::Invoke { kind, .. } => match kind {
                InvokeKind::Virtual => 0x6e,
                InvokeKind::Super => 0x6f,
                InvokeKind::Special => 0x70,
                InvokeKind::Static => 0x71,
                InvokeKind::Interface => 0x72,
            },
            Insn::Binop { .. } => 0x90,
        }
    }
}

/// The assembled code item for one method.
#[derive(Clone, Debug, Default)]
pub struct CodeItem {
    /// Instructions in order.
    pub insns: Vec<Insn>,
    /// Number of registers used.
    pub registers: u32,
    /// Code-unit offset of each instruction.
    pub offsets: Vec<u32>,
    /// Total size in 16-bit code units.
    pub total_units: u32,
}

/// Pool-index resolution callbacks the assembler needs. Implemented by
/// [`crate::model::PoolBuilder`].
pub trait PoolResolver {
    /// Interns a string literal.
    fn string_idx(&mut self, s: &str) -> StringIdx;
    /// Interns a type.
    fn type_idx(&mut self, t: &Type) -> TypeIdx;
    /// Interns a field reference.
    fn field_idx(&mut self, f: &backdroid_ir::FieldSig) -> FieldIdx;
    /// Interns a method reference.
    fn method_idx(&mut self, m: &backdroid_ir::MethodSig) -> MethodIdx;
}

/// Assembles an IR method body into dalvik-style instructions.
pub fn assemble(body: &MethodBody, pools: &mut dyn PoolResolver) -> CodeItem {
    let mut max_local = 0u32;
    for l in body.locals() {
        max_local = max_local.max(l.id.0 + 1);
    }
    let scratch_base = max_local;
    let mut max_reg = max_local;

    // Pass 1: emit instructions per statement, recording (stmt_idx → first
    // insn position) so branch targets can be patched in pass 2.
    let mut insns: Vec<Insn> = Vec::with_capacity(body.len());
    let mut stmt_first_insn: Vec<usize> = Vec::with_capacity(body.len());
    // (insn position, IR stmt target) pairs to patch.
    let mut branch_patches: Vec<(usize, usize)> = Vec::new();

    for stmt in body.stmts() {
        stmt_first_insn.push(insns.len());
        let mut scratch = scratch_base;
        let mut alloc_scratch = || {
            let r = Reg(scratch);
            scratch += 1;
            r
        };
        // Materialize a Value into a register.
        macro_rules! mat {
            ($v:expr) => {{
                match $v {
                    Value::Local(l) => Reg(l.0),
                    Value::Const(c) => {
                        let r = alloc_scratch();
                        match c {
                            Const::Int(v) => insns.push(Insn::ConstInt { dst: r, value: *v }),
                            Const::Float(v) => insns.push(Insn::ConstInt {
                                dst: r,
                                value: v.to_bits() as i64,
                            }),
                            Const::Str(s) => {
                                let idx = pools.string_idx(s);
                                insns.push(Insn::ConstString { dst: r, idx })
                            }
                            Const::Class(c) => {
                                let idx = pools.type_idx(&Type::Object(c.clone()));
                                insns.push(Insn::ConstClass { dst: r, idx })
                            }
                            Const::Null => insns.push(Insn::ConstNull { dst: r }),
                        }
                        r
                    }
                }
            }};
        }

        match stmt {
            Stmt::Identity { .. } => {
                // Identity statements are implicit in dalvik (parameters
                // arrive in the top registers); a nop keeps a stable
                // one-to-one anchor for the statement in the dump.
                insns.push(Insn::Nop);
            }
            Stmt::Nop => insns.push(Insn::Nop),
            Stmt::Assign { place, rvalue } => {
                // Compute the rvalue into a register. When the destination
                // is a plain local, compute directly into it (like a real
                // compiler would) instead of bouncing through a scratch reg.
                let hint: Option<Reg> = match place {
                    Place::Local(l) => Some(Reg(l.0)),
                    _ => None,
                };
                let is_obj_ty = |t: &Type| t.is_reference();
                let src: Reg = match rvalue {
                    Rvalue::Use(Value::Const(c)) if hint.is_some() => {
                        let r = hint.expect("hint checked above");
                        match c {
                            Const::Int(v) => insns.push(Insn::ConstInt { dst: r, value: *v }),
                            Const::Float(v) => insns.push(Insn::ConstInt {
                                dst: r,
                                value: v.to_bits() as i64,
                            }),
                            Const::Str(s) => {
                                let idx = pools.string_idx(s);
                                insns.push(Insn::ConstString { dst: r, idx })
                            }
                            Const::Class(cn) => {
                                let idx = pools.type_idx(&Type::Object(cn.clone()));
                                insns.push(Insn::ConstClass { dst: r, idx })
                            }
                            Const::Null => insns.push(Insn::ConstNull { dst: r }),
                        }
                        r
                    }
                    Rvalue::Use(v) => mat!(v),
                    Rvalue::Read(p) => match p {
                        Place::Local(l) => Reg(l.0),
                        Place::InstanceField { base, field } => {
                            let dst = hint.unwrap_or_else(&mut alloc_scratch);
                            let idx = pools.field_idx(field);
                            insns.push(Insn::Iget {
                                dst,
                                obj: Reg(base.0),
                                idx,
                                object: is_obj_ty(field.ty()),
                            });
                            dst
                        }
                        Place::StaticField(field) => {
                            let dst = hint.unwrap_or_else(&mut alloc_scratch);
                            let idx = pools.field_idx(field);
                            insns.push(Insn::Sget {
                                dst,
                                idx,
                                object: is_obj_ty(field.ty()),
                            });
                            dst
                        }
                        Place::ArrayElem { base, index } => {
                            let i = mat!(index);
                            let dst = hint.unwrap_or_else(&mut alloc_scratch);
                            insns.push(Insn::Aget {
                                dst,
                                arr: Reg(base.0),
                                index: i,
                            });
                            dst
                        }
                    },
                    Rvalue::Binop(op, a, b) => {
                        let ra = mat!(a);
                        let rb = mat!(b);
                        let dst = hint.unwrap_or_else(&mut alloc_scratch);
                        insns.push(Insn::Binop {
                            op: *op,
                            dst,
                            a: ra,
                            b: rb,
                        });
                        dst
                    }
                    Rvalue::Cast(ty, v) => {
                        let r = mat!(v);
                        let idx = pools.type_idx(ty);
                        insns.push(Insn::CheckCast { reg: r, idx });
                        r
                    }
                    Rvalue::InstanceOf(c, v) => {
                        let r = mat!(v);
                        let dst = hint.unwrap_or_else(&mut alloc_scratch);
                        let idx = pools.type_idx(&Type::Object(c.clone()));
                        insns.push(Insn::InstanceOf { dst, src: r, idx });
                        dst
                    }
                    Rvalue::New(c) => {
                        let dst = hint.unwrap_or_else(&mut alloc_scratch);
                        let idx = pools.type_idx(&Type::Object(c.clone()));
                        insns.push(Insn::NewInstance { dst, idx });
                        dst
                    }
                    Rvalue::NewArray(t, len) => {
                        let l = mat!(len);
                        let dst = hint.unwrap_or_else(&mut alloc_scratch);
                        let idx = pools.type_idx(t);
                        insns.push(Insn::NewArray { dst, size: l, idx });
                        dst
                    }
                    Rvalue::Invoke(ie) => {
                        let mut regs = Vec::with_capacity(ie.args.len() + 1);
                        if let Some(b) = ie.base {
                            regs.push(Reg(b.0));
                        }
                        for a in &ie.args {
                            regs.push(mat!(a));
                        }
                        let idx = pools.method_idx(&ie.callee);
                        insns.push(Insn::Invoke {
                            kind: ie.kind,
                            idx,
                            args: regs,
                        });
                        let dst = hint.unwrap_or_else(&mut alloc_scratch);
                        insns.push(Insn::MoveResult {
                            dst,
                            object: ie.callee.ret().is_reference(),
                        });
                        dst
                    }
                    Rvalue::Phi(ls) => {
                        // Shimple φ lowers to a move from its first input;
                        // the dump keeps it as a plain move.
                        let dst = hint.unwrap_or_else(&mut alloc_scratch);
                        let src = ls.first().map_or(dst, |l| Reg(l.0));
                        insns.push(Insn::Move { dst, src });
                        dst
                    }
                    Rvalue::Length(v) => {
                        let r = mat!(v);
                        let dst = hint.unwrap_or_else(&mut alloc_scratch);
                        insns.push(Insn::ArrayLength { dst, src: r });
                        dst
                    }
                };
                // Store into the destination place.
                match place {
                    Place::Local(l) => {
                        if Reg(l.0) != src {
                            insns.push(Insn::Move { dst: Reg(l.0), src });
                        }
                    }
                    Place::InstanceField { base, field } => {
                        let idx = pools.field_idx(field);
                        insns.push(Insn::Iput {
                            src,
                            obj: Reg(base.0),
                            idx,
                            object: field.ty().is_reference(),
                        });
                    }
                    Place::StaticField(field) => {
                        let idx = pools.field_idx(field);
                        insns.push(Insn::Sput {
                            src,
                            idx,
                            object: field.ty().is_reference(),
                        });
                    }
                    Place::ArrayElem { base, index } => {
                        let i = mat!(index);
                        insns.push(Insn::Aput {
                            src,
                            arr: Reg(base.0),
                            index: i,
                        });
                    }
                }
            }
            Stmt::Invoke(ie) => {
                let mut regs = Vec::with_capacity(ie.args.len() + 1);
                if let Some(b) = ie.base {
                    regs.push(Reg(b.0));
                }
                for a in &ie.args {
                    regs.push(mat!(a));
                }
                let idx = pools.method_idx(&ie.callee);
                insns.push(Insn::Invoke {
                    kind: ie.kind,
                    idx,
                    args: regs,
                });
            }
            Stmt::Return(None) => insns.push(Insn::ReturnVoid),
            Stmt::Return(Some(v)) => {
                let r = mat!(v);
                insns.push(Insn::Return {
                    reg: r,
                    object: true,
                });
            }
            Stmt::If { op, a, b, target } => {
                let ra = mat!(a);
                let rb = mat!(b);
                let mnemonic = match op {
                    backdroid_ir::CondOp::Eq => "if-eq",
                    backdroid_ir::CondOp::Ne => "if-ne",
                    backdroid_ir::CondOp::Lt => "if-lt",
                    backdroid_ir::CondOp::Le => "if-le",
                    backdroid_ir::CondOp::Gt => "if-gt",
                    backdroid_ir::CondOp::Ge => "if-ge",
                };
                branch_patches.push((insns.len(), *target));
                insns.push(Insn::IfTest {
                    mnemonic,
                    a: ra,
                    b: rb,
                    target_units: 0,
                });
            }
            Stmt::Goto(target) => {
                branch_patches.push((insns.len(), *target));
                insns.push(Insn::Goto { target_units: 0 });
            }
            Stmt::Throw(v) => {
                let r = mat!(v);
                insns.push(Insn::Throw { reg: r });
            }
        }
        max_reg = max_reg.max(scratch);
    }

    // Pass 2: compute unit offsets and patch branch targets.
    let mut offsets = Vec::with_capacity(insns.len());
    let mut off = 0u32;
    for i in &insns {
        offsets.push(off);
        off += i.units();
    }
    for (pos, stmt_target) in branch_patches {
        let insn_target = if stmt_target < stmt_first_insn.len() {
            stmt_first_insn[stmt_target]
        } else {
            insns.len().saturating_sub(1)
        };
        let unit = offsets.get(insn_target).copied().unwrap_or(0);
        match &mut insns[pos] {
            Insn::IfTest { target_units, .. } | Insn::Goto { target_units } => *target_units = unit,
            _ => unreachable!("patch target is not a branch"),
        }
    }

    CodeItem {
        insns,
        registers: max_reg,
        offsets,
        total_units: off,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backdroid_ir::{ClassName, FieldSig, InvokeExpr, MethodBuilder, MethodSig};
    use std::collections::HashMap;

    #[derive(Default)]
    struct FakePools {
        strings: HashMap<String, u32>,
        types: HashMap<String, u32>,
        fields: HashMap<String, u32>,
        methods: HashMap<String, u32>,
    }

    impl PoolResolver for FakePools {
        fn string_idx(&mut self, s: &str) -> StringIdx {
            let n = self.strings.len() as u32;
            StringIdx(*self.strings.entry(s.into()).or_insert(n))
        }
        fn type_idx(&mut self, t: &Type) -> TypeIdx {
            let n = self.types.len() as u32;
            TypeIdx(*self.types.entry(t.descriptor()).or_insert(n))
        }
        fn field_idx(&mut self, f: &FieldSig) -> FieldIdx {
            let n = self.fields.len() as u32;
            FieldIdx(*self.fields.entry(f.to_string()).or_insert(n))
        }
        fn method_idx(&mut self, m: &MethodSig) -> MethodIdx {
            let n = self.methods.len() as u32;
            MethodIdx(*self.methods.entry(m.to_string()).or_insert(n))
        }
    }

    #[test]
    fn assembles_invoke_and_move_result() {
        let class = ClassName::new("com.a.B");
        let mut b = MethodBuilder::public(&class, "m", vec![], Type::Void);
        let callee = MethodSig::new("com.a.C", "get", vec![], Type::string());
        let this = b.this();
        let _r = b.invoke_assign(InvokeExpr::call_virtual(callee, this, vec![]));
        let m = b.build();
        let mut pools = FakePools::default();
        let code = assemble(m.body().unwrap(), &mut pools);
        let has_invoke = code.insns.iter().any(|i| {
            matches!(
                i,
                Insn::Invoke {
                    kind: InvokeKind::Virtual,
                    ..
                }
            )
        });
        let has_move_result = code
            .insns
            .iter()
            .any(|i| matches!(i, Insn::MoveResult { .. }));
        assert!(has_invoke && has_move_result);
        assert_eq!(code.offsets.len(), code.insns.len());
    }

    #[test]
    fn const_args_are_materialized() {
        let class = ClassName::new("com.a.B");
        let mut b = MethodBuilder::public_static(&class, "m", vec![], Type::Void);
        let callee = MethodSig::new("com.a.C", "log", vec![Type::string()], Type::Void);
        b.invoke(InvokeExpr::call_static(callee, vec![Value::str("AES/ECB")]));
        let m = b.build();
        let mut pools = FakePools::default();
        let code = assemble(m.body().unwrap(), &mut pools);
        assert!(code
            .insns
            .iter()
            .any(|i| matches!(i, Insn::ConstString { .. })));
        assert!(pools.strings.contains_key("AES/ECB"));
    }

    #[test]
    fn branch_targets_are_patched_to_units() {
        let class = ClassName::new("com.a.B");
        let mut b = MethodBuilder::public_static(&class, "m", vec![Type::Int], Type::Void);
        let end = b.reserve_label();
        b.if_goto(
            backdroid_ir::CondOp::Eq,
            Value::Local(b.param(0)),
            Value::int(0),
            end,
        );
        b.invoke(InvokeExpr::call_static(
            MethodSig::new("com.a.C", "hit", vec![], Type::Void),
            vec![],
        ));
        b.place_label(end);
        b.ret_void();
        let m = b.build();
        let mut pools = FakePools::default();
        let code = assemble(m.body().unwrap(), &mut pools);
        let (patched, nop_unit) = {
            let mut patched = None;
            for i in &code.insns {
                if let Insn::IfTest { target_units, .. } = i {
                    patched = Some(*target_units);
                }
            }
            // the landing pad nop is the second-to-last insn (before return)
            let pos = code.insns.len() - 2;
            assert!(matches!(code.insns[pos], Insn::Nop));
            (patched.unwrap(), code.offsets[pos])
        };
        assert_eq!(patched, nop_unit);
    }

    #[test]
    fn offsets_are_monotonic() {
        let class = ClassName::new("com.a.B");
        let mut b = MethodBuilder::public_static(&class, "m", vec![], Type::Int);
        let x = b.assign_const(Const::Int(100_000)); // forces a wide const
        let y = b.binop(BinOp::Add, Value::Local(x), Value::int(1), Type::Int);
        b.ret(Value::Local(y));
        let m = b.build();
        let mut pools = FakePools::default();
        let code = assemble(m.body().unwrap(), &mut pools);
        for w in code.offsets.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(
            code.total_units,
            code.insns.iter().map(Insn::units).sum::<u32>()
        );
    }
}
