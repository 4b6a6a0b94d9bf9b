//! Core name and type vocabulary shared by every analysis layer.
//!
//! Class, method, and field names use cheaply-clonable interned strings
//! ([`std::sync::Arc`]) because signatures are copied constantly during
//! search-driven backtracking.

use std::fmt;
use std::sync::Arc;

/// A fully-qualified Java class name in dotted form, e.g.
/// `com.connectsdk.service.netcast.NetcastHttpServer`.
///
/// Inner classes keep the `$` separator (`com.a.Outer$1`), matching the
/// Soot/Jimple convention used throughout the paper.
///
/// ```
/// use backdroid_ir::ClassName;
/// let c = ClassName::new("com.example.Main$1");
/// assert!(c.is_inner_class());
/// assert_eq!(c.package(), "com.example");
/// assert_eq!(c.simple_name(), "Main$1");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassName(Arc<str>);

impl ClassName {
    /// Creates a class name from its dotted representation.
    pub fn new(name: impl AsRef<str>) -> Self {
        ClassName(Arc::from(name.as_ref()))
    }

    /// The dotted name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The package prefix (empty for the default package).
    pub fn package(&self) -> &str {
        match self.0.rfind('.') {
            Some(i) => &self.0[..i],
            None => "",
        }
    }

    /// The unqualified class name, `$` separators included.
    pub fn simple_name(&self) -> &str {
        match self.0.rfind('.') {
            Some(i) => &self.0[i + 1..],
            None => &self.0,
        }
    }

    /// Whether this is a (possibly anonymous) inner class.
    pub fn is_inner_class(&self) -> bool {
        self.simple_name().contains('$')
    }

    /// Whether the class belongs to the Android/Java platform rather than
    /// application code. Platform classes never appear in an app's DEX, so
    /// they can never be *defined* in a [`crate::Program`], only referenced.
    pub fn is_platform(&self) -> bool {
        const PLATFORM_PREFIXES: &[&str] = &[
            "java.",
            "javax.",
            "android.",
            "androidx.",
            "dalvik.",
            "org.apache.http.",
            "org.json.",
            "org.w3c.",
            "org.xml.",
            "junit.",
            "kotlin.",
        ];
        PLATFORM_PREFIXES.iter().any(|p| self.0.starts_with(p))
    }
}

impl fmt::Display for ClassName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for ClassName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ClassName({})", self.0)
    }
}

impl From<&str> for ClassName {
    fn from(s: &str) -> Self {
        ClassName::new(s)
    }
}

impl From<String> for ClassName {
    fn from(s: String) -> Self {
        ClassName::new(s)
    }
}

/// A Java/DEX-level type.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
#[allow(missing_docs)]
pub enum Type {
    /// The `void` return pseudo-type.
    Void,
    Boolean,
    Byte,
    Short,
    Char,
    Int,
    Long,
    Float,
    Double,
    /// A reference type named by its class.
    Object(ClassName),
    /// An array of the element type.
    Array(Box<Type>),
}

impl Type {
    /// Convenience constructor for an object type.
    pub fn object(name: impl AsRef<str>) -> Self {
        Type::Object(ClassName::new(name))
    }

    /// Convenience constructor for an array of `elem`.
    pub fn array(elem: Type) -> Self {
        Type::Array(Box::new(elem))
    }

    /// `java.lang.String`, used pervasively by sink parameters.
    pub fn string() -> Self {
        Type::object("java.lang.String")
    }

    /// Whether the type is a reference (object or array) type.
    pub fn is_reference(&self) -> bool {
        matches!(self, Type::Object(_) | Type::Array(_))
    }

    /// The class name if this is an object type.
    pub fn class_name(&self) -> Option<&ClassName> {
        match self {
            Type::Object(c) => Some(c),
            _ => None,
        }
    }

    /// JVM/DEX descriptor form: `I`, `J`, `Lcom/a/B;`, `[I` …
    pub fn descriptor(&self) -> String {
        match self {
            Type::Void => "V".into(),
            Type::Boolean => "Z".into(),
            Type::Byte => "B".into(),
            Type::Short => "S".into(),
            Type::Char => "C".into(),
            Type::Int => "I".into(),
            Type::Long => "J".into(),
            Type::Float => "F".into(),
            Type::Double => "D".into(),
            Type::Object(c) => format!("L{};", c.as_str().replace('.', "/")),
            Type::Array(e) => format!("[{}", e.descriptor()),
        }
    }

    /// Parses a descriptor back into a type.
    ///
    /// Returns `None` on malformed input or trailing garbage.
    pub fn from_descriptor(desc: &str) -> Option<Type> {
        let (ty, rest) = Self::parse_descriptor_prefix(desc)?;
        if rest.is_empty() {
            Some(ty)
        } else {
            None
        }
    }

    /// Parses one descriptor from the front of `desc`, returning the type
    /// and the unconsumed suffix. Used for parsing parameter lists.
    pub fn parse_descriptor_prefix(desc: &str) -> Option<(Type, &str)> {
        let len = Self::descriptor_len(desc)?;
        let (head, rest) = desc.split_at(len);
        let dims = head.bytes().take_while(|&b| b == b'[').count();
        let mut ty = match head.as_bytes()[dims] {
            b'V' => Type::Void,
            b'Z' => Type::Boolean,
            b'B' => Type::Byte,
            b'S' => Type::Short,
            b'C' => Type::Char,
            b'I' => Type::Int,
            b'J' => Type::Long,
            b'F' => Type::Float,
            b'D' => Type::Double,
            // `Lpkg/Cls;`, the one other form `descriptor_len` accepts.
            _ => Type::Object(ClassName::new(head[dims + 1..len - 1].replace('/', "."))),
        };
        for _ in 0..dims {
            ty = Type::Array(Box::new(ty));
        }
        Some((ty, rest))
    }

    /// Length in bytes of the one descriptor at the front of `desc`, if
    /// one is there: the descriptor grammar itself, without building the
    /// [`Type`]. [`Type::parse_descriptor_prefix`] is built on it, and
    /// tokenizers that only need extents call it directly.
    ///
    /// ```
    /// use backdroid_ir::Type;
    /// assert_eq!(Type::descriptor_len("[Ljava/lang/String;I"), Some(19));
    /// assert_eq!(Type::descriptor_len("L;"), None);
    /// assert_eq!(Type::descriptor_len("[V"), None);
    /// ```
    pub fn descriptor_len(desc: &str) -> Option<usize> {
        let dims = desc.bytes().take_while(|&b| b == b'[').count();
        let elem = match desc.as_bytes().get(dims)? {
            // `void` is a return type only, never an array element.
            b'V' if dims == 0 => 1,
            b'Z' | b'B' | b'S' | b'C' | b'I' | b'J' | b'F' | b'D' => 1,
            b'L' => match desc[dims..].find(';')? {
                // `L;` names no class.
                1 => return None,
                end => end + 1,
            },
            _ => return None,
        };
        Some(dims + elem)
    }

    /// Java source form used by Soot signatures (`int`, `java.lang.String`,
    /// `byte[]`).
    pub fn java_name(&self) -> String {
        match self {
            Type::Void => "void".into(),
            Type::Boolean => "boolean".into(),
            Type::Byte => "byte".into(),
            Type::Short => "short".into(),
            Type::Char => "char".into(),
            Type::Int => "int".into(),
            Type::Long => "long".into(),
            Type::Float => "float".into(),
            Type::Double => "double".into(),
            Type::Object(c) => c.as_str().into(),
            Type::Array(e) => format!("{}[]", e.java_name()),
        }
    }

    /// Parses the Java source form emitted by [`Type::java_name`].
    pub fn from_java_name(name: &str) -> Option<Type> {
        let name = name.trim();
        if let Some(stripped) = name.strip_suffix("[]") {
            return Some(Type::Array(Box::new(Type::from_java_name(stripped)?)));
        }
        Some(match name {
            "void" => Type::Void,
            "boolean" => Type::Boolean,
            "byte" => Type::Byte,
            "short" => Type::Short,
            "char" => Type::Char,
            "int" => Type::Int,
            "long" => Type::Long,
            "float" => Type::Float,
            "double" => Type::Double,
            "" => return None,
            other => Type::Object(ClassName::new(other)),
        })
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.java_name())
    }
}

/// A full method signature in the Soot style:
/// `<com.a.B: void start(int,java.lang.String)>`.
///
/// ```
/// use backdroid_ir::{MethodSig, Type};
/// let m = MethodSig::new("com.a.B", "start", vec![Type::Int], Type::Void);
/// assert_eq!(m.to_string(), "<com.a.B: void start(int)>");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MethodSig {
    class: ClassName,
    name: Arc<str>,
    params: Arc<[Type]>,
    ret: Type,
}

impl MethodSig {
    /// Creates a method signature.
    pub fn new(
        class: impl Into<ClassName>,
        name: impl AsRef<str>,
        params: Vec<Type>,
        ret: Type,
    ) -> Self {
        MethodSig {
            class: class.into(),
            name: Arc::from(name.as_ref()),
            params: Arc::from(params),
            ret,
        }
    }

    /// The declaring class.
    pub fn class(&self) -> &ClassName {
        &self.class
    }

    /// The method name (`<init>` and `<clinit>` for constructors and
    /// static initializers).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The parameter types, excluding the implicit receiver.
    pub fn params(&self) -> &[Type] {
        &self.params
    }

    /// The return type.
    pub fn ret(&self) -> &Type {
        &self.ret
    }

    /// Whether this is an instance constructor.
    pub fn is_init(&self) -> bool {
        &*self.name == "<init>"
    }

    /// Whether this is a static class initializer.
    pub fn is_clinit(&self) -> bool {
        &*self.name == "<clinit>"
    }

    /// The signature with the same name/params/return on another class.
    /// Used for child/parent-class search signatures (paper §IV-A).
    pub fn on_class(&self, class: ClassName) -> MethodSig {
        MethodSig {
            class,
            name: self.name.clone(),
            params: self.params.clone(),
            ret: self.ret.clone(),
        }
    }

    /// The "sub-method signature" — name, parameters, and return type
    /// without the declaring class. Two methods with equal sub-signatures
    /// participate in overriding (paper §IV-B uses this to stop the
    /// forward object taint at super-class ending methods).
    pub fn sub_signature(&self) -> String {
        format!(
            "{} {}({})",
            self.ret.java_name(),
            self.name,
            self.params
                .iter()
                .map(Type::java_name)
                .collect::<Vec<_>>()
                .join(",")
        )
    }

    /// Whether `other` has the same name, parameter, and return types.
    pub fn same_sub_signature(&self, other: &MethodSig) -> bool {
        self.name == other.name && self.params == other.params && self.ret == other.ret
    }

    /// Parses the Soot form emitted by [`fmt::Display`].
    pub fn parse(s: &str) -> Option<MethodSig> {
        let s = s.trim();
        let inner = s.strip_prefix('<')?.strip_suffix('>')?;
        let (class, rest) = inner.split_once(": ")?;
        let (ret_and_name, params) = rest.split_once('(')?;
        let params = params.strip_suffix(')')?;
        let (ret, name) = ret_and_name.rsplit_once(' ')?;
        let ret = Type::from_java_name(ret)?;
        let params = if params.is_empty() {
            Vec::new()
        } else {
            params
                .split(',')
                .map(Type::from_java_name)
                .collect::<Option<Vec<_>>>()?
        };
        Some(MethodSig::new(class, name, params, ret))
    }
}

impl fmt::Display for MethodSig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "<{}: {} {}({})>",
            self.class,
            self.ret.java_name(),
            self.name,
            self.params
                .iter()
                .map(Type::java_name)
                .collect::<Vec<_>>()
                .join(",")
        )
    }
}

impl fmt::Debug for MethodSig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MethodSig({self})")
    }
}

/// A field signature in the Soot style:
/// `<com.a.B: int myPort>`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FieldSig {
    class: ClassName,
    name: Arc<str>,
    ty: Type,
}

impl FieldSig {
    /// Creates a field signature.
    pub fn new(class: impl Into<ClassName>, name: impl AsRef<str>, ty: Type) -> Self {
        FieldSig {
            class: class.into(),
            name: Arc::from(name.as_ref()),
            ty,
        }
    }

    /// The declaring class.
    pub fn class(&self) -> &ClassName {
        &self.class
    }

    /// The field name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The field type.
    pub fn ty(&self) -> &Type {
        &self.ty
    }

    /// Parses the Soot form emitted by [`fmt::Display`].
    pub fn parse(s: &str) -> Option<FieldSig> {
        let inner = s.trim().strip_prefix('<')?.strip_suffix('>')?;
        let (class, rest) = inner.split_once(": ")?;
        let (ty, name) = rest.rsplit_once(' ')?;
        Some(FieldSig::new(class, name, Type::from_java_name(ty)?))
    }
}

impl fmt::Display for FieldSig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}: {} {}>", self.class, self.ty.java_name(), self.name)
    }
}

impl fmt::Debug for FieldSig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FieldSig({self})")
    }
}

/// Access and property modifiers for classes, methods, and fields.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Modifiers {
    bits: u32,
}

#[allow(missing_docs)]
impl Modifiers {
    pub const PUBLIC: u32 = 0x0001;
    pub const PRIVATE: u32 = 0x0002;
    pub const PROTECTED: u32 = 0x0004;
    pub const STATIC: u32 = 0x0008;
    pub const FINAL: u32 = 0x0010;
    pub const SYNCHRONIZED: u32 = 0x0020;
    pub const ABSTRACT: u32 = 0x0400;
    pub const INTERFACE: u32 = 0x0200;
    pub const NATIVE: u32 = 0x0100;
    pub const CONSTRUCTOR: u32 = 0x10000;

    /// An empty (package-private) modifier set.
    pub fn none() -> Self {
        Modifiers { bits: 0 }
    }

    /// `public`.
    pub fn public() -> Self {
        Modifiers { bits: Self::PUBLIC }
    }

    /// `private`.
    pub fn private() -> Self {
        Modifiers {
            bits: Self::PRIVATE,
        }
    }

    /// `public static`.
    pub fn public_static() -> Self {
        Modifiers {
            bits: Self::PUBLIC | Self::STATIC,
        }
    }

    /// Adds the `static` bit.
    pub fn with_static(mut self) -> Self {
        self.bits |= Self::STATIC;
        self
    }

    /// Adds the `abstract` bit.
    pub fn with_abstract(mut self) -> Self {
        self.bits |= Self::ABSTRACT;
        self
    }

    /// Adds the `interface` bit.
    pub fn with_interface(mut self) -> Self {
        self.bits |= Self::INTERFACE;
        self
    }

    /// Adds the `final` bit.
    pub fn with_final(mut self) -> Self {
        self.bits |= Self::FINAL;
        self
    }

    /// The raw DEX-style access-flag bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Reconstructs a modifier set from its raw bits — the inverse of
    /// [`Modifiers::bits`], used by the wire decoder.
    pub fn from_bits(bits: u32) -> Self {
        Modifiers { bits }
    }

    /// Whether the `static` bit is set.
    pub fn is_static(&self) -> bool {
        self.bits & Self::STATIC != 0
    }

    /// Whether the `private` bit is set.
    pub fn is_private(&self) -> bool {
        self.bits & Self::PRIVATE != 0
    }

    /// Whether the `public` bit is set.
    pub fn is_public(&self) -> bool {
        self.bits & Self::PUBLIC != 0
    }

    /// Whether the `abstract` bit is set.
    pub fn is_abstract(&self) -> bool {
        self.bits & Self::ABSTRACT != 0
    }

    /// Whether the `interface` bit is set.
    pub fn is_interface(&self) -> bool {
        self.bits & Self::INTERFACE != 0
    }

    /// Whether the `final` bit is set.
    pub fn is_final(&self) -> bool {
        self.bits & Self::FINAL != 0
    }
}

impl fmt::Display for Modifiers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.is_public() {
            parts.push("public");
        }
        if self.is_private() {
            parts.push("private");
        }
        if self.bits & Self::PROTECTED != 0 {
            parts.push("protected");
        }
        if self.is_static() {
            parts.push("static");
        }
        if self.is_final() {
            parts.push("final");
        }
        if self.is_abstract() {
            parts.push("abstract");
        }
        if self.is_interface() {
            parts.push("interface");
        }
        if parts.is_empty() {
            f.write_str("(package)")
        } else {
            f.write_str(&parts.join(" "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_name_parts() {
        let c = ClassName::new("com.connectsdk.service.NetcastTVService$1");
        assert_eq!(c.package(), "com.connectsdk.service");
        assert_eq!(c.simple_name(), "NetcastTVService$1");
        assert!(c.is_inner_class());
        assert!(!c.is_platform());
        assert!(ClassName::new("java.lang.Runnable").is_platform());
        assert!(ClassName::new("android.app.Activity").is_platform());
    }

    #[test]
    fn default_package_class() {
        let c = ClassName::new("Main");
        assert_eq!(c.package(), "");
        assert_eq!(c.simple_name(), "Main");
        assert!(!c.is_inner_class());
    }

    #[test]
    fn descriptors_round_trip() {
        let tys = [
            Type::Void,
            Type::Int,
            Type::Long,
            Type::Boolean,
            Type::Double,
            Type::object("java.lang.String"),
            Type::array(Type::Int),
            Type::array(Type::array(Type::object("com.a.B"))),
        ];
        for t in &tys {
            let d = t.descriptor();
            assert_eq!(Type::from_descriptor(&d).as_ref(), Some(t), "desc {d}");
        }
    }

    #[test]
    fn descriptor_rejects_malformed() {
        assert_eq!(Type::from_descriptor(""), None);
        assert_eq!(Type::from_descriptor("L"), None);
        assert_eq!(Type::from_descriptor("L;"), None);
        assert_eq!(Type::from_descriptor("Q"), None);
        assert_eq!(Type::from_descriptor("II"), None);
        assert_eq!(Type::from_descriptor("[V"), None);
        assert_eq!(Type::from_descriptor("[[V"), None);
    }

    #[test]
    fn descriptor_len_measures_one_descriptor() {
        for (desc, len) in [
            ("", None),
            ("V", Some(1)),
            ("Vx", Some(1)),
            ("I;", Some(1)),
            ("L", None),
            ("L;", None),
            ("La;", Some(3)),
            ("La/b;rest", Some(5)),
            ("Q", None),
            ("[", None),
            ("[V", None),
            ("[[V", None),
            ("[[I", Some(3)),
            ("[La/b;", Some(6)),
            ("[L;", None),
            ("é", None),
            ("Lé;x", Some(4)),
        ] {
            assert_eq!(Type::descriptor_len(desc), len, "desc {desc:?}");
            assert_eq!(
                Type::parse_descriptor_prefix(desc).map(|(_, rest)| desc.len() - rest.len()),
                len,
                "desc {desc:?}"
            );
        }
        assert_eq!(
            Type::parse_descriptor_prefix("[[La/b;I"),
            Some((Type::array(Type::array(Type::object("a.b"))), "I"))
        );
    }

    #[test]
    fn java_names_round_trip() {
        for t in [
            Type::Void,
            Type::Int,
            Type::object("com.a.B"),
            Type::array(Type::Byte),
        ] {
            assert_eq!(Type::from_java_name(&t.java_name()), Some(t));
        }
        assert_eq!(Type::from_java_name(""), None);
    }

    #[test]
    fn method_sig_display_and_parse() {
        let m = MethodSig::new(
            "com.connectsdk.service.netcast.NetcastHttpServer",
            "start",
            vec![],
            Type::Void,
        );
        let s = m.to_string();
        assert_eq!(
            s,
            "<com.connectsdk.service.netcast.NetcastHttpServer: void start()>"
        );
        assert_eq!(MethodSig::parse(&s), Some(m));

        let m2 = MethodSig::new(
            "com.a.B",
            "run",
            vec![Type::Int, Type::string()],
            Type::object("java.lang.Object"),
        );
        assert_eq!(MethodSig::parse(&m2.to_string()), Some(m2));
    }

    #[test]
    fn sub_signatures() {
        let a = MethodSig::new("com.a.Super", "start", vec![Type::Int], Type::Void);
        let b = a.on_class(ClassName::new("com.a.Child"));
        assert!(a.same_sub_signature(&b));
        assert_eq!(a.sub_signature(), "void start(int)");
        let c = MethodSig::new("com.a.Super", "start", vec![], Type::Void);
        assert!(!a.same_sub_signature(&c));
    }

    #[test]
    fn init_and_clinit() {
        let i = MethodSig::new("com.a.B", "<init>", vec![], Type::Void);
        let c = MethodSig::new("com.a.B", "<clinit>", vec![], Type::Void);
        assert!(i.is_init() && !i.is_clinit());
        assert!(c.is_clinit() && !c.is_init());
    }

    #[test]
    fn field_sig_display_and_parse() {
        let f = FieldSig::new("com.studiosol.util.NanoHTTPD", "myPort", Type::Int);
        let s = f.to_string();
        assert_eq!(s, "<com.studiosol.util.NanoHTTPD: int myPort>");
        assert_eq!(FieldSig::parse(&s), Some(f));
    }

    #[test]
    fn modifiers() {
        let m = Modifiers::public_static().with_final();
        assert!(m.is_public() && m.is_static() && m.is_final());
        assert!(!m.is_private());
        assert_eq!(m.to_string(), "public static final");
        assert_eq!(Modifiers::none().to_string(), "(package)");
    }
}
