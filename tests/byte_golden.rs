//! Byte goldens for the cold image build: the `dump_image` text and the
//! `to_snapshot()` bytes, each pinned as a `wire::fnv1a64_wide`
//! fingerprint recorded from a known-good build.
//!
//! Every other byte-identity suite compares two paths of the same build
//! (restore ≡ fresh, delta ≡ scratch, indexed ≡ linear), so a renderer or
//! encoder change that shifts padding or a pool index would pass all of
//! them. These constants fail on any such shift. A change that means to
//! alter the dump format must update them deliberately.

use backdroid_appgen::benchset::{bench_app, BenchsetConfig};
use backdroid_appgen::fixtures::{fixture_count, snapshot_fixture};
use backdroid_appgen::AndroidApp;
use backdroid_core::{AppArtifacts, BackendChoice};
use backdroid_dex::{dump_image, DexImage};
use backdroid_ir::wire::fnv1a64_wide;
use backdroid_ir::{
    BinOp, ClassBuilder, ClassName, CondOp, Const, FieldSig, InvokeExpr, InvokeKind, LocalId,
    MethodBuilder, MethodSig, Modifiers, Place, Program, Rvalue, Stmt, Type, Value,
};
use backdroid_manifest::Manifest;
use backdroid_search::BytecodeText;
use std::fmt::Write as _;

/// `(dump, snapshot)` fingerprints of one build.
type Prints = (u64, u64);

/// Fingerprints the two build outputs of `image` over `app`.
fn prints(app: &AndroidApp, image: &DexImage) -> Prints {
    let dump = dump_image(image);
    let artifacts = AppArtifacts::from_parts(
        app.program.clone(),
        app.manifest.clone(),
        BytecodeText::index(&dump),
        BackendChoice::default(),
    );
    (
        fnv1a64_wide(dump.as_bytes()),
        fnv1a64_wide(&artifacts.to_snapshot()),
    )
}

/// Compares a corpus's fingerprints with the recorded table, printing
/// the whole computed table on mismatch so a deliberate format change
/// can be re-recorded in one step.
fn check(label: &str, got: &[Prints], want: &[Prints]) {
    if got != want {
        let mut table = String::new();
        for (d, s) in got {
            let _ = writeln!(table, "    (0x{d:016x}, 0x{s:016x}),");
        }
        panic!("{label}: build bytes changed; computed table:\n{table}");
    }
}

#[test]
fn snapshot_fixtures_match_recorded_bytes() {
    let got: Vec<Prints> = (0..fixture_count())
        .map(|i| {
            let app = snapshot_fixture(i);
            prints(&app, &DexImage::encode(&app.program))
        })
        .collect();
    check("snapshot fixtures", &got, FIXTURES);
}

#[test]
fn bench_apps_match_recorded_bytes() {
    let cfg = BenchsetConfig::sized(8, 0.04);
    let got: Vec<Prints> = (0..cfg.count)
        .map(|i| {
            let app = bench_app(i, cfg).app;
            prints(&app, &DexImage::encode(&app.program))
        })
        .collect();
    check("bench apps", &got, BENCH_APPS);
}

/// A program that lowers to every instruction form, operand shape and
/// header variant the renderer prints — the generated corpora above
/// never emit branches, arrays, `throw`, primitive field access or most
/// arithmetic.
fn every_form_app() -> AndroidApp {
    let name = ClassName::new("com.golden.Forms$Inner");
    let port = FieldSig::new(name.clone(), "port", Type::Int);
    let host = FieldSig::new(name.clone(), "host", Type::string());
    let count = FieldSig::new(name.clone(), "COUNT", Type::Long);
    let runnable = ClassName::new("java.lang.Runnable");
    let mut m = MethodBuilder::public(
        &name,
        "run",
        vec![Type::Int, Type::array(Type::Byte)],
        Type::Int,
    );
    let this = m.this();
    let n = m.param(0);
    let bytes = m.param(1);
    let end = m.reserve_label();
    for op in [
        CondOp::Eq,
        CondOp::Ne,
        CondOp::Lt,
        CondOp::Le,
        CondOp::Gt,
        CondOp::Ge,
    ] {
        m.if_goto(op, Value::Local(n), Value::int(3), end);
    }
    let mut acc = Value::Local(n);
    for (op, k) in [
        (BinOp::Add, 5),
        (BinOp::Sub, 1_000),
        (BinOp::Mul, -70_000),
        (BinOp::Div, -8),
        (BinOp::Rem, 7),
        (BinOp::And, 255),
        (BinOp::Or, 1 << 40),
        (BinOp::Xor, i64::MIN),
        (BinOp::Shl, 2),
        (BinOp::Shr, 3),
        (BinOp::Ushr, 4),
        (BinOp::Cmp, 0),
    ] {
        acc = Value::Local(m.binop(op, acc, Value::int(k), Type::Int));
    }
    fn assign(m: &mut MethodBuilder, ty: Type, rvalue: Rvalue) -> LocalId {
        let l = m.local(ty);
        m.push(Stmt::Assign {
            place: Place::Local(l),
            rvalue,
        });
        l
    }
    let _ = m.read_instance_field(this, port.clone());
    let _ = m.read_instance_field(this, host.clone());
    m.write_instance_field(this, port, acc);
    m.write_instance_field(this, host, Value::str("a \"quoted\"\nline"));
    let total = m.read_static_field(count.clone());
    m.write_static_field(count, Value::Local(total));
    let arr = assign(
        &mut m,
        Type::array(Type::string()),
        Rvalue::NewArray(Type::string(), Value::int(4)),
    );
    let _ = assign(&mut m, Type::Int, Rvalue::Length(Value::Local(bytes)));
    let elem = assign(
        &mut m,
        Type::string(),
        Rvalue::Read(Place::ArrayElem {
            base: arr,
            index: Value::int(0),
        }),
    );
    m.push(Stmt::Assign {
        place: Place::ArrayElem {
            base: arr,
            index: Value::int(1),
        },
        rvalue: Rvalue::Use(Value::Local(elem)),
    });
    let _ = assign(
        &mut m,
        Type::Boolean,
        Rvalue::InstanceOf(runnable.clone(), Value::Local(this)),
    );
    let _ = m.cast(Type::object("java.lang.Runnable"), Value::Local(this));
    let _ = assign(
        &mut m,
        Type::object("java.lang.Class"),
        Rvalue::Use(Value::Const(Const::Class(runnable.clone()))),
    );
    let none = assign(
        &mut m,
        Type::string(),
        Rvalue::Use(Value::Const(Const::Null)),
    );
    let _ = assign(&mut m, Type::string(), Rvalue::Phi(vec![elem, none]));
    let _ = assign(
        &mut m,
        Type::Double,
        Rvalue::Use(Value::Const(Const::Float(2.5))),
    );
    let helper = MethodSig::new(name.clone(), "helper", vec![Type::Int], Type::Long);
    for kind in [
        InvokeKind::Virtual,
        InvokeKind::Super,
        InvokeKind::Special,
        InvokeKind::Interface,
    ] {
        m.invoke(InvokeExpr {
            kind,
            callee: helper.clone(),
            base: Some(this),
            args: vec![Value::int(kind as i64)],
        });
    }
    let _ = m.invoke_assign(InvokeExpr::call_static(
        MethodSig::new("com.golden.Util", "name", vec![], Type::string()),
        vec![],
    ));
    let _ = m.invoke_assign(InvokeExpr::call_static(helper.clone(), vec![Value::int(1)]));
    m.goto(end);
    m.push(Stmt::Throw(Value::Local(none)));
    m.place_label(end);
    m.ret(Value::Local(n));

    let mut h = MethodBuilder::private(&name, "helper", vec![Type::Int], Type::Long);
    h.ret_void();
    let mut init = MethodBuilder::constructor(&name, vec![]);
    init.ret_void();
    let mut clinit = MethodBuilder::clinit(&name);
    clinit.ret_void();
    let mut program = Program::new();
    program.add_class(
        ClassBuilder::new(name.as_str())
            .extends("com.golden.Base")
            .implements("java.lang.Runnable")
            .implements("com.golden.Listener")
            .field("port", Type::Int, Modifiers::private())
            .field("host", Type::string(), Modifiers::none().with_final())
            .field("COUNT", Type::Long, Modifiers::public_static())
            .method(init.build())
            .method(clinit.build())
            .method(m.build())
            .method(h.build())
            .build(),
    );
    program.add_class(
        ClassBuilder::new_interface("com.golden.Listener")
            .abstract_method(
                "onEvent",
                vec![Type::array(Type::array(Type::Int))],
                Type::Void,
            )
            .build(),
    );
    AndroidApp {
        name: "com.golden".into(),
        program,
        manifest: Manifest::new("com.golden"),
        resource_bytes: 0,
        ground_truth: Vec::new(),
    }
}

#[test]
fn every_instruction_form_matches_recorded_bytes() {
    let app = every_form_app();
    let dump = dump_image(&DexImage::encode(&app.program));
    for form in [
        "if-eq ",
        "if-ne ",
        "if-lt ",
        "if-le ",
        "if-gt ",
        "if-ge ",
        "goto ",
        "throw ",
        "sub-int ",
        "div-int ",
        "rem-int ",
        "and-int ",
        "or-int ",
        "shl-int ",
        "shr-int ",
        "ushr-int ",
        "cmp-long ",
        "iget ",
        "iget-object ",
        "iput ",
        "iput-object ",
        "sget ",
        "sput ",
        "new-array ",
        "array-length ",
        "aget-object ",
        "aput-object ",
        "instance-of ",
        "check-cast ",
        "const-class ",
        "const/4 ",
        "move-object ",
        "move-result ",
        "move-result-object ",
        "invoke-super ",
        "invoke-interface ",
        "invoke-direct ",
        "code          : (none)",
        "CONSTRUCTOR",
        "Superclass",
    ] {
        assert!(
            dump.contains(form),
            "the program no longer lowers to `{form}`"
        );
    }
    check(
        "every form",
        &[prints(&app, &DexImage::encode(&app.program))],
        EVERY_FORM,
    );
}

#[test]
fn forced_multidex_split_matches_recorded_bytes() {
    let app = snapshot_fixture(3);
    let image = DexImage::encode_with_limit(&app.program, 8);
    assert!(image.files().len() > 2, "the limit must force a split");
    check("multidex", &[prints(&app, &image)], MULTIDEX);
}

const FIXTURES: &[Prints] = &[
    (0x6e5bdc8550e83994, 0x2d9bd5541e4c9395),
    (0x34f0d8d798266643, 0x0e99571336944d06),
    (0x4ac91edbea4544d4, 0xf5d07b8d7489a050),
    (0x84f49c1b479e8eb1, 0x5080b554a2e28f00),
    (0x6dcedc1eb7afd26f, 0xcc1c6d4939f8b6ab),
    (0xa0a077726e14c326, 0x39f690e127cd8fe2),
    (0x6bc04eba86b86314, 0xfe012762952c8aa6),
    (0xc1f8e89af404eb8f, 0x644999eb4d041d91),
    (0x6903bd599fc43f17, 0x7478ce5f3e71d263),
    (0x708931c182ed2014, 0xcfaa90a5bffd539c),
    (0xf3096137c5779839, 0x874fbcf47483fed0),
    (0xe36d0adfe47a191b, 0x219488ef1a7afdcf),
    (0x815c021fecd66854, 0x95eb2d2336787903),
    (0x5d1176d368ec6292, 0xd0fd769ac8b0ae6d),
    (0x065a666bb3d8cec2, 0x31118029d4a09519),
    (0x590cf4d3e53f0b51, 0xc64d6f5c6238b398),
    (0x125892376cdcb144, 0x2081641d4bdaa227),
    (0xfcb2930558a3bec8, 0x51037627c660c850),
];

const BENCH_APPS: &[Prints] = &[
    (0x0d3d7aab5f2c607b, 0xf4f04761cf578622),
    (0x27e9f4e473070746, 0x2ff42c1dd188e9c5),
    (0xa9fa85a0752b4e11, 0x2eddb26abd438fb5),
    (0xd67b218bf6ee4392, 0xd4fd56cfbdd78161),
    (0xa5c86004a2b6ac84, 0x81dcb5285b5734cf),
    (0xb6e0dd2525ecff2f, 0x0bd4fc27a1236bfb),
    (0x61f4a7a9380a2c49, 0x1848b54e805853ff),
    (0x30a3245dcfe88316, 0x3eb02ff47f2ee3ec),
];

const EVERY_FORM: &[Prints] = &[(0xb7318f1bf3ff645e, 0xb9319b29f3d22dde)];

const MULTIDEX: &[Prints] = &[(0xfe0c0708cc236319, 0x95e8d4a5c689b1c2)];
