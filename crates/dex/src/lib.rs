//! # backdroid-dex
//!
//! A synthetic DEX container and `dexdump`-style disassembler — the
//! *bytecode search space* of the BackDroid reproduction (paper §III,
//! Fig 2).
//!
//! The pipeline matches the paper's preprocessing step: an IR
//! [`backdroid_ir::Program`] is encoded into a (possibly multidex)
//! [`DexImage`], whose files are then merged and disassembled into one
//! plaintext via [`dump_image`]. BackDroid's search engine only ever sees
//! that text, never the structured pools.
//!
//! ```
//! use backdroid_dex::{DexImage, dump_image};
//! use backdroid_ir::{ClassBuilder, MethodBuilder, Program, Type, ClassName};
//!
//! let name = ClassName::new("com.example.A");
//! let mut m = MethodBuilder::public(&name, "go", vec![], Type::Void);
//! m.ret_void();
//! let mut p = Program::new();
//! p.add_class(ClassBuilder::new("com.example.A").method(m.build()).build());
//!
//! let image = DexImage::encode(&p);
//! let text = dump_image(&image);
//! assert!(text.contains("Class descriptor  : 'Lcom/example/A;'"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dump;
pub mod insn;
pub mod model;

pub use dump::{
    class_descriptor, dump_image, field_ref_string, method_ref_string, parse_field_ref,
    parse_method_ref,
};
pub use insn::{CodeItem, FieldIdx, Insn, MethodIdx, PoolResolver, Reg, StringIdx, TypeIdx};
pub use model::{ClassDef, DexFile, DexImage, EncodedField, EncodedMethod, MULTIDEX_METHOD_LIMIT};

/// Estimated total APK size in bytes for an encoded image: DEX bytes plus
/// a resource/asset padding factor. Modern apps carry most of their bytes
/// in resources; the paper's Table I sizes (MB) include them, so the
/// workload generator controls `resource_bytes` directly.
pub fn apk_size_bytes(image: &DexImage, resource_bytes: u64) -> u64 {
    image.byte_size() + resource_bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use backdroid_ir::{ClassBuilder, ClassName, MethodBuilder, Program, Type};

    #[test]
    fn apk_size_includes_resources() {
        let name = ClassName::new("com.example.A");
        let mut m = MethodBuilder::public(&name, "go", vec![], Type::Void);
        m.ret_void();
        let mut p = Program::new();
        p.add_class(ClassBuilder::new("com.example.A").method(m.build()).build());
        let img = DexImage::encode(&p);
        let base = apk_size_bytes(&img, 0);
        assert_eq!(apk_size_bytes(&img, 1_000_000), base + 1_000_000);
    }
}
