//! Deterministic app-update synthesis: derive version v(n+1) from v(n).
//!
//! Real app stores see a stream of *updates*: most releases touch a
//! handful of method bodies (string/config tweaks, small logic changes),
//! some add or drop methods, and a few restructure whole classes. The
//! incremental analysis path is exercised against exactly that mix:
//! [`mutate_version`] applies a seeded, weighted set of edits to a
//! program and returns ground-truth diff labels ([`VersionMutation`])
//! stating which methods/classes changed and whether the update was
//! body-only — the precondition for verdict reuse in
//! `backdroid_core::Backdroid::analyze_delta`.
//!
//! Same input program + same seed ⇒ identical update, so golden replay
//! tests and CI smoke jobs can regenerate any version chain from seeds.

use backdroid_ir::{
    BinOp, ClassBuilder, ClassName, Const, MethodBuilder, MethodSig, Program, Rvalue, Stmt, Type,
    Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Ground-truth labels for one synthesized update.
#[derive(Clone, Debug, Default)]
pub struct VersionMutation {
    /// Methods whose bodies were edited in place (signature unchanged).
    pub body_edits: Vec<MethodSig>,
    /// Methods added to existing classes.
    pub added_methods: Vec<MethodSig>,
    /// Methods removed from existing classes.
    pub removed_methods: Vec<MethodSig>,
    /// Classes added whole.
    pub added_classes: Vec<ClassName>,
    /// Classes removed whole.
    pub removed_classes: Vec<ClassName>,
}

impl VersionMutation {
    /// Whether the update only edited method bodies — the shape
    /// `DeltaManifest::gate` labels `BodyOnly`, eligible for verdict reuse.
    pub fn is_body_only(&self) -> bool {
        !self.body_edits.is_empty()
            && self.added_methods.is_empty()
            && self.removed_methods.is_empty()
            && self.added_classes.is_empty()
            && self.removed_classes.is_empty()
    }

    /// Whether nothing changed at all.
    pub fn is_identity(&self) -> bool {
        self.body_edits.is_empty()
            && self.added_methods.is_empty()
            && self.removed_methods.is_empty()
            && self.added_classes.is_empty()
            && self.removed_classes.is_empty()
    }
}

/// Derives the next version of `base` by applying `1..=3` seeded edits.
///
/// Edit mix (per edit): ~70% body tweak, ~8% method addition, ~7%
/// method removal, ~8% class addition, ~7% class removal. Body tweaks
/// prefer flipping an assigned cipher-mode string between its secure
/// and insecure variants — so updates genuinely flip verdicts, not just
/// bytes — then fall back to integer-constant bumps and finally to an
/// appended no-op. Class removal only targets generated filler/update
/// classes, never scenario or entry classes, keeping the manifest
/// coherent across a version chain.
pub fn mutate_version(base: &Program, seed: u64) -> (Program, VersionMutation) {
    let mut next = base.clone();
    let mut label = VersionMutation::default();
    let names: Vec<ClassName> = base.classes().map(|c| c.name().clone()).collect();
    if names.is_empty() {
        return (next, label);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_u64.rotate_left(17));
    let edits = rng.gen_range(1..4usize);
    for i in 0..edits {
        let roll = rng.gen_range(0..100u8);
        if roll < 70 {
            edit_body(&mut next, &mut rng, &mut label);
        } else if roll < 78 {
            add_method(&mut next, &mut rng, seed, i, &mut label);
        } else if roll < 85 {
            remove_method(&mut next, &mut rng, &mut label);
        } else if roll < 93 {
            add_class(&mut next, &mut rng, seed, i, &mut label);
        } else {
            remove_class(&mut next, &mut rng, &mut label);
        }
    }
    (next, label)
}

/// Classes current in `p`, in deterministic (BTreeMap) order.
fn class_names(p: &Program) -> Vec<ClassName> {
    p.classes().map(|c| c.name().clone()).collect()
}

fn edit_body(p: &mut Program, rng: &mut StdRng, label: &mut VersionMutation) {
    let names = class_names(p);
    // Collect editable (sig, class) pairs: concrete methods only.
    let mut candidates: Vec<MethodSig> = Vec::new();
    for name in &names {
        let class = p.class(name).expect("listed class exists");
        for m in class.methods() {
            if m.body().is_some() {
                candidates.push(m.sig().clone());
            }
        }
    }
    if candidates.is_empty() {
        return;
    }
    let sig = candidates[rng.gen_range(0..candidates.len())].clone();
    let mut class = p.remove_class(sig.class()).expect("owner exists");
    {
        let body = class
            .find_method_mut(&sig)
            .and_then(|m| m.body_mut())
            .expect("candidate has a body");
        let mut edited = false;
        for stmt in body.stmts_mut() {
            if let Stmt::Assign {
                rvalue: Rvalue::Use(Value::Const(c)),
                ..
            } = stmt
            {
                match c {
                    Const::Str(s) => {
                        // Flip cipher-mode strings between their secure and
                        // insecure variants so verdicts actually change;
                        // perturb other strings in place.
                        *s = if s.contains("/ECB/") {
                            s.replace("/ECB/", "/GCM/")
                                .replace("PKCS5Padding", "NoPadding")
                        } else if s.contains("/GCM/") {
                            s.replace("/GCM/", "/ECB/")
                                .replace("NoPadding", "PKCS5Padding")
                        } else {
                            format!("{s}+")
                        };
                        edited = true;
                        break;
                    }
                    Const::Int(v) => {
                        *v = v.wrapping_add(1);
                        edited = true;
                        break;
                    }
                    _ => {}
                }
            }
        }
        if !edited {
            // Always-applicable fallback: a trailing no-op still changes
            // the body (and its chunk) without touching semantics.
            body.push(Stmt::Nop);
        }
    }
    p.add_class(class);
    label.body_edits.push(sig);
}

fn add_method(p: &mut Program, rng: &mut StdRng, seed: u64, i: usize, label: &mut VersionMutation) {
    let names = class_names(p);
    let concrete: Vec<&ClassName> = names
        .iter()
        .filter(|n| p.class(n).is_some_and(|c| !c.is_interface()))
        .collect();
    if concrete.is_empty() {
        return;
    }
    let target = concrete[rng.gen_range(0..concrete.len())].clone();
    let mname = format!("upd{seed:x}n{i}");
    let sig = MethodSig::new(target.clone(), mname.clone(), vec![Type::Int], Type::Int);
    if p.class(&target)
        .is_some_and(|c| c.find_method(&sig).is_some())
    {
        return;
    }
    let mut mb = MethodBuilder::public_static(&target, &mname, vec![Type::Int], Type::Int);
    let a = mb.param(0);
    let r = mb.binop(
        BinOp::Add,
        Value::Local(a),
        Value::int(rng.gen_range(1..100i64)),
        Type::Int,
    );
    mb.ret(Value::Local(r));
    let mut class = p.remove_class(&target).expect("target exists");
    class.add_method(mb.build());
    p.add_class(class);
    label.added_methods.push(sig);
}

fn remove_method(p: &mut Program, rng: &mut StdRng, label: &mut VersionMutation) {
    let names = class_names(p);
    // Only prune methods from generated filler/update classes with at
    // least two methods, so entry points and scenario wiring survive.
    let mut candidates: Vec<MethodSig> = Vec::new();
    for name in &names {
        if !is_generated_class(name) {
            continue;
        }
        let class = p.class(name).expect("listed class exists");
        if class.methods().len() < 2 {
            continue;
        }
        // Keep m0: it roots the filler call web from the bootstrap
        // activity; pruning interior methods still breaks real edges.
        for m in class.methods().iter().skip(1) {
            candidates.push(m.sig().clone());
        }
    }
    if candidates.is_empty() {
        return;
    }
    let sig = candidates[rng.gen_range(0..candidates.len())].clone();
    let mut class = p.remove_class(sig.class()).expect("owner exists");
    class.remove_method(&sig).expect("candidate exists");
    p.add_class(class);
    label.removed_methods.push(sig);
}

fn add_class(p: &mut Program, rng: &mut StdRng, seed: u64, i: usize, label: &mut VersionMutation) {
    let name = ClassName::new(format!("com.app.upd.U{seed:x}n{i}"));
    if p.class(&name).is_some() {
        return;
    }
    let mut cb = ClassBuilder::new(name.as_str());
    let methods = rng.gen_range(1..3usize);
    for k in 0..methods {
        let mut mb =
            MethodBuilder::public_static(&name, &format!("m{k}"), vec![Type::Int], Type::Int);
        let a = mb.param(0);
        let r = mb.binop(
            BinOp::Xor,
            Value::Local(a),
            Value::int(rng.gen_range(1..64i64)),
            Type::Int,
        );
        mb.ret(Value::Local(r));
        cb = cb.method(mb.build());
    }
    p.add_class(cb.build());
    label.added_classes.push(name);
}

fn remove_class(p: &mut Program, rng: &mut StdRng, label: &mut VersionMutation) {
    let candidates: Vec<ClassName> = class_names(p)
        .into_iter()
        .filter(is_generated_class_owned)
        .collect();
    if candidates.is_empty() {
        return;
    }
    let name = candidates[rng.gen_range(0..candidates.len())].clone();
    p.remove_class(&name).expect("candidate exists");
    label.removed_classes.push(name);
}

/// Whether `name` is a generated filler (`<pkg>.F<i>`) or update
/// (`com.app.upd.*`) class — safe to prune without orphaning the
/// manifest or scenario wiring.
fn is_generated_class(name: &ClassName) -> bool {
    let s = name.as_str();
    if s.starts_with("com.app.upd.") {
        return true;
    }
    match s.rsplit_once('.') {
        Some((_, last)) => {
            let mut chars = last.chars();
            chars.next() == Some('F')
                && chars.as_str().chars().all(|c| c.is_ascii_digit())
                && !chars.as_str().is_empty()
        }
        None => false,
    }
}

fn is_generated_class_owned(name: &ClassName) -> bool {
    is_generated_class(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AppSpec, Mechanism, Scenario, SinkKind};

    fn base() -> Program {
        AppSpec::named("mut")
            .with_seed(3)
            .with_scenario(Scenario::new(
                Mechanism::DirectEntry,
                SinkKind::Cipher,
                true,
            ))
            .with_filler(6, 4, 5)
            .generate()
            .program
    }

    #[test]
    fn mutation_is_deterministic() {
        let p = base();
        let (a, la) = mutate_version(&p, 11);
        let (b, lb) = mutate_version(&p, 11);
        assert_eq!(a, b);
        assert_eq!(format!("{la:?}"), format!("{lb:?}"));
    }

    #[test]
    fn mutation_changes_the_program() {
        let p = base();
        for seed in 0..20u64 {
            let (next, label) = mutate_version(&p, seed);
            if !label.is_identity() {
                assert_ne!(next, p, "seed {seed} labeled a change but program is equal");
            }
        }
    }

    #[test]
    fn labels_match_program_diff() {
        let p = base();
        for seed in 0..30u64 {
            let (next, label) = mutate_version(&p, seed);
            for c in &label.added_classes {
                assert!(p.class(c).is_none() && next.class(c).is_some());
            }
            for c in &label.removed_classes {
                assert!(p.class(c).is_some() && next.class(c).is_none());
            }
            for m in &label.added_methods {
                if label.removed_classes.contains(m.class()) {
                    continue;
                }
                assert!(next.method(m).is_some());
            }
            for m in &label.removed_methods {
                if label.removed_classes.contains(m.class()) {
                    continue;
                }
                assert!(next.method(m).is_none());
            }
            for m in &label.body_edits {
                if label.removed_classes.contains(m.class()) || label.removed_methods.contains(m) {
                    continue;
                }
                assert!(p.method(m).is_some() && next.method(m).is_some());
            }
        }
    }

    #[test]
    fn seeds_cover_body_only_and_structural() {
        let p = base();
        let mut body_only = 0;
        let mut structural = 0;
        for seed in 0..60u64 {
            let (_, label) = mutate_version(&p, seed);
            if label.is_body_only() {
                body_only += 1;
            } else if !label.is_identity() {
                structural += 1;
            }
        }
        assert!(body_only > 5, "body-only updates should dominate");
        assert!(structural > 2, "structural updates must occur");
    }

    #[test]
    fn chains_stay_valid() {
        let mut p = base();
        for seed in 100..110u64 {
            let (next, _) = mutate_version(&p, seed);
            assert!(next.class_count() > 0);
            p = next;
        }
    }
}
