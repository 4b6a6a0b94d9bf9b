//! The synthetic DEX container: constant pools, class definitions, and the
//! encoder from [`backdroid_ir::Program`].

use crate::insn::{assemble, CodeItem, FieldIdx, MethodIdx, PoolResolver, StringIdx, TypeIdx};
use backdroid_ir::{Class, ClassName, FieldSig, MethodSig, Modifiers, Program, Type};
use std::collections::{HashMap, HashSet};

/// A proto (method prototype): shorty, return type, parameter types.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ProtoId {
    /// Short-form descriptor, e.g. `VL` for `(Object) -> void`.
    pub shorty: String,
    /// Return type index.
    pub ret: TypeIdx,
    /// Parameter type indices.
    pub params: Vec<TypeIdx>,
}

/// A method reference in the pool.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct MethodId {
    /// Defining class type index.
    pub class: TypeIdx,
    /// Prototype index.
    pub proto: u32,
    /// Name string index.
    pub name: StringIdx,
}

/// A field reference in the pool.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct FieldId {
    /// Defining class type index.
    pub class: TypeIdx,
    /// Field type index.
    pub ty: TypeIdx,
    /// Name string index.
    pub name: StringIdx,
}

/// An encoded method inside a class definition.
#[derive(Clone, Debug)]
pub struct EncodedMethod {
    /// The pool index of this method.
    pub idx: MethodIdx,
    /// The original IR signature (kept for convenient cross-referencing).
    pub sig: MethodSig,
    /// Access flags.
    pub access: Modifiers,
    /// Whether the method sorts into dexdump's "direct" section
    /// (static/private/constructor) rather than "virtual".
    pub direct: bool,
    /// The assembled code, if the method is concrete.
    pub code: Option<CodeItem>,
}

/// An encoded field inside a class definition.
#[derive(Clone, Debug)]
pub struct EncodedField {
    /// The pool index of this field.
    pub idx: FieldIdx,
    /// The original IR signature.
    pub sig: FieldSig,
    /// Access flags.
    pub access: Modifiers,
}

/// An encoded class definition.
#[derive(Clone, Debug)]
pub struct ClassDef {
    /// This class's type index.
    pub ty: TypeIdx,
    /// The class name.
    pub name: ClassName,
    /// Superclass type index, if any.
    pub superclass: Option<TypeIdx>,
    /// Implemented interface type indices.
    pub interfaces: Vec<TypeIdx>,
    /// Access flags.
    pub access: Modifiers,
    /// Fields, in declaration order.
    pub fields: Vec<EncodedField>,
    /// Methods, in declaration order.
    pub methods: Vec<EncodedMethod>,
}

/// String/type/proto/field/method pools under construction.
///
/// The maps are keyed by the IR values themselves (`Arc`-backed, so a
/// key costs a reference count, not a copy): a lookup that hits builds
/// no descriptor or signature text. Text is derived once, when an entry
/// is first interned.
#[derive(Default, Debug)]
pub struct PoolBuilder {
    pub(crate) strings: Vec<String>,
    string_map: HashMap<String, u32>,
    pub(crate) types: Vec<String>, // descriptors
    type_map: HashMap<Type, u32>,
    pub(crate) protos: Vec<ProtoId>,
    proto_map: HashMap<(TypeIdx, Vec<TypeIdx>), u32>,
    pub(crate) fields: Vec<FieldId>,
    field_map: HashMap<FieldSig, u32>,
    pub(crate) methods: Vec<MethodId>,
    method_map: HashMap<MethodSig, u32>,
}

impl PoolBuilder {
    fn intern_string(&mut self, s: &str) -> StringIdx {
        if let Some(&i) = self.string_map.get(s) {
            return StringIdx(i);
        }
        let i = self.strings.len() as u32;
        self.strings.push(s.to_string());
        self.string_map.insert(s.to_string(), i);
        StringIdx(i)
    }

    fn intern_type(&mut self, t: &Type) -> TypeIdx {
        if let Some(&i) = self.type_map.get(t) {
            return TypeIdx(i);
        }
        let i = self.types.len() as u32;
        self.types.push(t.descriptor());
        self.type_map.insert(t.clone(), i);
        TypeIdx(i)
    }

    /// Interns the object type of class `name`.
    fn intern_class(&mut self, name: &ClassName) -> TypeIdx {
        self.intern_type(&Type::Object(name.clone()))
    }

    fn shorty_char(t: &Type) -> char {
        match t {
            Type::Void => 'V',
            Type::Boolean => 'Z',
            Type::Byte => 'B',
            Type::Short => 'S',
            Type::Char => 'C',
            Type::Int => 'I',
            Type::Long => 'J',
            Type::Float => 'F',
            Type::Double => 'D',
            Type::Object(_) | Type::Array(_) => 'L',
        }
    }

    fn intern_proto(&mut self, m: &MethodSig) -> u32 {
        let ret = self.intern_type(m.ret());
        let params: Vec<TypeIdx> = m.params().iter().map(|p| self.intern_type(p)).collect();
        let key = (ret, params);
        if let Some(&i) = self.proto_map.get(&key) {
            return i;
        }
        let mut shorty = String::new();
        shorty.push(Self::shorty_char(m.ret()));
        for p in m.params() {
            shorty.push(Self::shorty_char(p));
        }
        let i = self.protos.len() as u32;
        self.protos.push(ProtoId {
            shorty,
            ret,
            params: key.1.clone(),
        });
        self.proto_map.insert(key, i);
        i
    }
}

impl PoolResolver for PoolBuilder {
    fn string_idx(&mut self, s: &str) -> StringIdx {
        self.intern_string(s)
    }

    fn type_idx(&mut self, t: &Type) -> TypeIdx {
        self.intern_type(t)
    }

    fn field_idx(&mut self, f: &FieldSig) -> FieldIdx {
        if let Some(&i) = self.field_map.get(f) {
            return FieldIdx(i);
        }
        let class = self.intern_class(f.class());
        let ty = self.intern_type(f.ty());
        let name = self.intern_string(f.name());
        let i = self.fields.len() as u32;
        self.fields.push(FieldId { class, ty, name });
        self.field_map.insert(f.clone(), i);
        FieldIdx(i)
    }

    fn method_idx(&mut self, m: &MethodSig) -> MethodIdx {
        if let Some(&i) = self.method_map.get(m) {
            return MethodIdx(i);
        }
        let class = self.intern_class(m.class());
        let proto = self.intern_proto(m);
        let name = self.intern_string(m.name());
        let i = self.methods.len() as u32;
        self.methods.push(MethodId { class, proto, name });
        self.method_map.insert(m.clone(), i);
        MethodIdx(i)
    }
}

/// One encoded DEX file.
#[derive(Debug)]
pub struct DexFile {
    pools: PoolBuilder,
    class_defs: Vec<ClassDef>,
}

impl DexFile {
    /// Encodes `classes` into one DEX file.
    fn encode_classes(classes: &[&Class]) -> DexFile {
        let mut pools = PoolBuilder::default();
        let mut class_defs = Vec::with_capacity(classes.len());
        for &class in classes {
            let name = class.name();
            let ty = pools.intern_class(name);
            let superclass = class.superclass().map(|s| pools.intern_class(s));
            let interfaces = class
                .interfaces()
                .iter()
                .map(|i| pools.intern_class(i))
                .collect();
            let fields = class
                .fields()
                .iter()
                .map(|f| EncodedField {
                    idx: pools.field_idx(f.sig()),
                    sig: f.sig().clone(),
                    access: f.modifiers(),
                })
                .collect();
            let methods = class
                .methods()
                .iter()
                .map(|m| {
                    let idx = pools.method_idx(m.sig());
                    let code = m.body().map(|b| assemble(b, &mut pools));
                    EncodedMethod {
                        idx,
                        sig: m.sig().clone(),
                        access: m.modifiers(),
                        direct: m.modifiers().is_static()
                            || m.modifiers().is_private()
                            || m.sig().is_init(),
                        code,
                    }
                })
                .collect();
            class_defs.push(ClassDef {
                ty,
                name: name.clone(),
                superclass,
                interfaces,
                access: class.modifiers(),
                fields,
                methods,
            });
        }
        DexFile { pools, class_defs }
    }

    /// The class definitions.
    pub fn class_defs(&self) -> &[ClassDef] {
        &self.class_defs
    }

    /// The constant pools, for the disassembler.
    pub(crate) fn pools(&self) -> &PoolBuilder {
        &self.pools
    }

    /// Number of method references in the pool (the multidex limit counts
    /// these, not definitions).
    pub fn method_ref_count(&self) -> usize {
        self.pools.methods.len()
    }

    /// Estimated on-disk size in bytes, following the real DEX layout
    /// arithmetic (header + pools + class defs + code).
    pub fn byte_size(&self) -> u64 {
        let mut n: u64 = 112; // header
        n += self
            .pools
            .strings
            .iter()
            .map(|s| s.len() as u64 + 5)
            .sum::<u64>();
        n += self.pools.types.len() as u64 * 4;
        n += self
            .pools
            .protos
            .iter()
            .map(|p| 12 + p.params.len() as u64 * 2)
            .sum::<u64>();
        n += self.pools.fields.len() as u64 * 8;
        n += self.pools.methods.len() as u64 * 8;
        n += self.class_defs.len() as u64 * 32;
        for c in &self.class_defs {
            n += c.fields.len() as u64 * 4;
            for m in &c.methods {
                n += 8;
                if let Some(code) = &m.code {
                    n += 16 + code.total_units as u64 * 2;
                }
            }
        }
        n
    }
}

/// A (possibly multidex) DEX image: what an APK actually carries.
#[derive(Debug)]
pub struct DexImage {
    files: Vec<DexFile>,
}

/// Default method-reference limit that forces a multidex split, matching
/// Android's 64K reference limit.
pub const MULTIDEX_METHOD_LIMIT: usize = 65_536;

/// The method references a class adds to its file's pool: each declared
/// method, then every callee its body invokes, repeats included.
fn method_refs(class: &Class) -> impl Iterator<Item = &MethodSig> {
    class.methods().iter().flat_map(|m| {
        let callees = m
            .body()
            .into_iter()
            .flat_map(|body| body.stmts().iter().filter_map(|s| s.invoke_expr()));
        std::iter::once(m.sig()).chain(callees.map(|ie| &ie.callee))
    })
}

impl DexImage {
    /// Encodes a whole program with the default multidex limit.
    pub fn encode(program: &Program) -> DexImage {
        Self::encode_with_limit(program, MULTIDEX_METHOD_LIMIT)
    }

    /// Encodes with a custom method-reference limit (tests use small
    /// limits to exercise the split + merge path).
    ///
    /// The split is computed in a single pass by tracking the set of
    /// method references each class contributes (declared methods plus
    /// invoke callees); each sealed chunk is then encoded exactly once.
    pub fn encode_with_limit(program: &Program, limit: usize) -> DexImage {
        assert!(limit > 0, "multidex limit must be positive");
        let mut files = Vec::new();
        let mut chunk: Vec<&Class> = Vec::new();
        let mut refs: HashSet<&MethodSig> = HashSet::new();
        for class in program.classes() {
            let new_refs = method_refs(class).filter(|r| !refs.contains(r)).count();
            if !chunk.is_empty() && refs.len() + new_refs > limit {
                files.push(DexFile::encode_classes(&chunk));
                chunk.clear();
                refs.clear();
            }
            refs.extend(method_refs(class));
            chunk.push(class);
        }
        files.push(DexFile::encode_classes(&chunk));
        DexImage { files }
    }

    /// The individual dex files (`classes.dex`, `classes2.dex`, …).
    pub fn files(&self) -> &[DexFile] {
        &self.files
    }

    /// Total estimated byte size of all dex files.
    pub fn byte_size(&self) -> u64 {
        self.files.iter().map(DexFile::byte_size).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backdroid_ir::{ClassBuilder, InvokeExpr, MethodBuilder, Value};

    fn tiny_program(n_classes: usize) -> Program {
        let mut p = Program::new();
        for i in 0..n_classes {
            let name = ClassName::new(format!("com.t.C{i}"));
            let mut m = MethodBuilder::public(&name, "work", vec![], Type::Void);
            let this = m.this();
            m.invoke(InvokeExpr::call_virtual(
                MethodSig::new(format!("com.t.C{i}"), "helper", vec![Type::Int], Type::Void),
                this,
                vec![Value::int(i as i64)],
            ));
            let mut h = MethodBuilder::public(&name, "helper", vec![Type::Int], Type::Void);
            h.ret_void();
            p.add_class(
                ClassBuilder::new(name.as_str())
                    .method(m.build())
                    .method(h.build())
                    .build(),
            );
        }
        p
    }

    #[test]
    fn single_dex_encoding() {
        let p = tiny_program(3);
        let img = DexImage::encode(&p);
        assert_eq!(img.files().len(), 1);
        let f = &img.files()[0];
        assert_eq!(f.class_defs().len(), 3);
        assert!(f.method_ref_count() >= 6);
        assert!(f.byte_size() > 112);
    }

    #[test]
    fn multidex_splits_and_covers_all_classes() {
        let p = tiny_program(10);
        let img = DexImage::encode_with_limit(&p, 4);
        assert!(img.files().len() > 1, "expected a multidex split");
        let total: usize = img.files().iter().map(|f| f.class_defs().len()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn pools_deduplicate() {
        let p = tiny_program(1);
        let img = DexImage::encode(&p);
        let f = &img.files()[0];
        // "work" + "helper" + "V"... strings unique
        let strings: std::collections::HashSet<&String> = f.pools.strings.iter().collect();
        assert_eq!(strings.len(), f.pools.strings.len());
        let types: std::collections::HashSet<&String> = f.pools.types.iter().collect();
        assert_eq!(types.len(), f.pools.types.len());
    }

    #[test]
    fn direct_vs_virtual_classification() {
        let name = ClassName::new("com.t.K");
        let mut p = Program::new();
        let mut ctor = MethodBuilder::constructor(&name, vec![]);
        ctor.ret_void();
        let mut stat = MethodBuilder::public_static(&name, "s", vec![], Type::Void);
        stat.ret_void();
        let mut virt = MethodBuilder::public(&name, "v", vec![], Type::Void);
        virt.ret_void();
        p.add_class(
            ClassBuilder::new("com.t.K")
                .method(ctor.build())
                .method(stat.build())
                .method(virt.build())
                .build(),
        );
        let img = DexImage::encode(&p);
        let defs = img.files()[0].class_defs();
        let by_name: HashMap<&str, bool> = defs[0]
            .methods
            .iter()
            .map(|m| (m.sig.name(), m.direct))
            .collect();
        assert!(by_name["<init>"]);
        assert!(by_name["s"]);
        assert!(!by_name["v"]);
    }

    #[test]
    fn byte_size_grows_with_code() {
        let small = DexImage::encode(&tiny_program(2)).byte_size();
        let large = DexImage::encode(&tiny_program(20)).byte_size();
        assert!(large > small);
    }
}
