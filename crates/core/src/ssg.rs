//! The self-contained slicing graph (SSG) — paper §V-A.
//!
//! An SSG records, for one sink API call, everything the forward analysis
//! later needs: the raw typed statements touched by the backward slice
//! (`SsgUnit`), the inter-procedural relationships uncovered by bytecode
//! search (call/return edges), the tainted static fields, and a special
//! *static track* holding off-path `<clinit>` statements added on demand.
//! The per-method taint sets of the paper's hierarchical taint map live
//! in the slicer's frames while it runs, not in the SSG.

use backdroid_ir::{FieldSig, LocalId, MethodSig, Stmt};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};

/// A node wrapping one raw typed statement (the paper's `SSGUnit`).
#[derive(Clone, Debug)]
pub struct SsgUnit {
    /// Node id (index into [`Ssg::units`]).
    pub id: usize,
    /// The method containing the statement.
    pub method: MethodSig,
    /// The statement index inside that method's body.
    pub stmt_idx: usize,
    /// The raw typed statement, preserved verbatim (§V-A: "reserve the raw
    /// typed bytecode statements").
    pub stmt: Stmt,
}

/// Edge labels between SSG units.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SsgEdge {
    /// Intra-procedural def→use ordering.
    Intra,
    /// A calling edge uncovered by bytecode search (caller site → callee).
    Call,
    /// A return edge from a contained method back to its call site.
    Return,
}

/// The taint set of one method: the slicer keeps one per frame, which
/// together form the paper's hierarchical taint map (§V-A).
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct TaintSet {
    /// Tainted locals.
    pub locals: BTreeSet<LocalId>,
    /// Tainted instance fields, tracked together with their base object
    /// local so aliasing across method boundaries can be followed (§V-A).
    pub instance_fields: BTreeSet<(LocalId, FieldSig)>,
}

impl TaintSet {
    /// Whether nothing is tainted.
    pub fn is_empty(&self) -> bool {
        self.locals.is_empty() && self.instance_fields.is_empty()
    }

    /// Taints a local.
    pub fn taint_local(&mut self, l: LocalId) {
        self.locals.insert(l);
    }

    /// Whether `l` is tainted.
    pub fn is_tainted(&self, l: LocalId) -> bool {
        self.locals.contains(&l)
    }

    /// Removes a local (strong update at its definition).
    pub fn untaint_local(&mut self, l: LocalId) {
        self.locals.remove(&l);
    }

    /// Taints `base.field`, and the base object itself so the field can be
    /// traced across aliases and method boundaries (§V-A).
    pub fn taint_instance_field(&mut self, base: LocalId, field: FieldSig) {
        self.instance_fields.insert((base, field.clone()));
        self.locals.insert(base);
    }

    /// Whether any tainted instance field has this field signature.
    pub fn field_tainted(&self, field: &FieldSig) -> bool {
        self.instance_fields.iter().any(|(_, f)| f == field)
    }

    /// Untaints `base.field`; if no other tainted field remains on `base`,
    /// the base object is untainted too (the paper's two-step removal).
    pub fn untaint_instance_field(&mut self, base: LocalId, field: &FieldSig) {
        self.instance_fields
            .retain(|(b, f)| !(*b == base && f == field));
        if !self.instance_fields.iter().any(|(b, _)| *b == base) {
            self.locals.remove(&base);
        }
    }
}

/// The self-contained slicing graph for one sink API call.
#[derive(Clone, Debug)]
pub struct Ssg {
    /// The sink API this SSG tracks.
    pub sink_api: MethodSig,
    units: Vec<SsgUnit>,
    /// (from, to, label) edges.
    edges: Vec<(usize, usize, SsgEdge)>,
    /// Unit lookup by (method, stmt index).
    index: HashMap<(MethodSig, usize), usize>,
    /// Id of the sink call unit.
    sink_unit: Option<usize>,
    /// Units forming the special static (`<clinit>`) track, analyzed first
    /// by the forward phase (§V-A).
    static_track: Vec<usize>,
    /// The global static-field taint set.
    static_taints: BTreeSet<FieldSig>,
    /// Static fields whose defining write was never found on-path; the
    /// off-path `<clinit>` pass consumes these (§V-A).
    unresolved_statics: BTreeSet<FieldSig>,
    /// Entry-point methods this slice reached.
    entries: Vec<MethodSig>,
}

impl Ssg {
    /// An empty SSG for one sink API.
    pub fn new(sink_api: MethodSig) -> Self {
        Ssg {
            sink_api,
            units: Vec::new(),
            edges: Vec::new(),
            index: HashMap::new(),
            sink_unit: None,
            static_track: Vec::new(),
            static_taints: BTreeSet::new(),
            unresolved_statics: BTreeSet::new(),
            entries: Vec::new(),
        }
    }

    /// Adds (or finds) the unit for `(method, stmt_idx)`, copying the raw
    /// statement on first insertion only. Returns the unit id.
    pub fn add_unit(&mut self, method: &MethodSig, stmt_idx: usize, stmt: &Stmt) -> usize {
        match self.index.entry((method.clone(), stmt_idx)) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let id = self.units.len();
                self.units.push(SsgUnit {
                    id,
                    method: method.clone(),
                    stmt_idx,
                    stmt: stmt.clone(),
                });
                *e.insert(id)
            }
        }
    }

    /// Marks a unit as the sink call site.
    pub fn set_sink_unit(&mut self, id: usize) {
        assert!(id < self.units.len(), "sink unit out of range");
        self.sink_unit = Some(id);
    }

    /// The sink call unit, if recorded.
    pub fn sink_unit(&self) -> Option<&SsgUnit> {
        self.sink_unit.map(|i| &self.units[i])
    }

    /// Adds an edge.
    pub fn add_edge(&mut self, from: usize, to: usize, label: SsgEdge) {
        assert!(
            from < self.units.len() && to < self.units.len(),
            "edge endpoint out of range"
        );
        if !self.edges.contains(&(from, to, label)) {
            self.edges.push((from, to, label));
        }
    }

    /// Adds a unit to the static (`<clinit>`) track.
    pub fn push_static_track(&mut self, unit: usize) {
        assert!(unit < self.units.len(), "static-track unit out of range");
        if !self.static_track.contains(&unit) {
            self.static_track.push(unit);
        }
    }

    /// All units.
    pub fn units(&self) -> &[SsgUnit] {
        &self.units
    }

    /// All edges.
    pub fn edges(&self) -> &[(usize, usize, SsgEdge)] {
        &self.edges
    }

    /// The static-track unit ids, in discovery order.
    pub fn static_track(&self) -> &[usize] {
        &self.static_track
    }

    /// Taints a static field globally.
    pub fn taint_static(&mut self, field: FieldSig) {
        self.static_taints.insert(field.clone());
        self.unresolved_statics.insert(field);
    }

    /// Marks a static field's defining write as found on-path.
    pub fn resolve_static(&mut self, field: &FieldSig) {
        self.unresolved_statics.remove(field);
    }

    /// Tainted static fields.
    pub fn static_taints(&self) -> &BTreeSet<FieldSig> {
        &self.static_taints
    }

    /// Static fields still lacking a defining write — input to the
    /// off-path `<clinit>` pass.
    pub fn unresolved_statics(&self) -> &BTreeSet<FieldSig> {
        &self.unresolved_statics
    }

    /// Records that the slice reached entry method `m`.
    pub fn add_entry(&mut self, m: MethodSig) {
        if !self.entries.contains(&m) {
            self.entries.push(m);
        }
    }

    /// Entry points reached by this slice.
    pub fn entries(&self) -> &[MethodSig] {
        &self.entries
    }

    /// Whether the slice reached at least one entry point (control-flow
    /// validity of the sink call).
    pub fn is_entry_reachable(&self) -> bool {
        !self.entries.is_empty()
    }

    /// Tail units: units with no incoming intra/call edge — the starting
    /// blocks of the forward traversal (§V-B).
    pub fn tails(&self) -> Vec<usize> {
        let mut has_incoming = vec![false; self.units.len()];
        for (_, to, label) in &self.edges {
            if *label != SsgEdge::Return {
                has_incoming[*to] = true;
            }
        }
        (0..self.units.len())
            .filter(|&i| !has_incoming[i] && !self.static_track.contains(&i))
            .collect()
    }

    /// The unit id for `(method, stmt_idx)`, if present.
    pub fn unit_id(&self, method: &MethodSig, stmt_idx: usize) -> Option<usize> {
        self.index.get(&(method.clone(), stmt_idx)).copied()
    }

    /// Renders the SSG in Graphviz DOT form (as in the paper's Fig 6),
    /// with the sink unit highlighted and entry-method units shaded.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out =
            String::from("digraph ssg {\n  rankdir=BT;\n  node [shape=box, fontsize=9];\n");
        let entry_methods: Vec<&MethodSig> = self.entries.iter().collect();
        for u in &self.units {
            let label = format!("{}\\n{}", u.method, u.stmt).replace('"', "'");
            let mut attrs = format!("label=\"{label}\"");
            if Some(u.id) == self.sink_unit {
                attrs.push_str(", style=filled, fillcolor=palegreen");
            } else if entry_methods.iter().any(|m| **m == u.method) {
                attrs.push_str(", style=filled, fillcolor=lightgrey");
            } else if self.static_track.contains(&u.id) {
                attrs.push_str(", style=filled, fillcolor=lightyellow");
            }
            let _ = writeln!(out, "  n{} [{attrs}];", u.id);
        }
        for (from, to, label) in &self.edges {
            let style = match label {
                SsgEdge::Intra => "",
                SsgEdge::Call => " [color=blue, label=call]",
                SsgEdge::Return => " [color=red, style=dashed, label=ret]",
            };
            let _ = writeln!(out, "  n{from} -> n{to}{style};");
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backdroid_ir::Type;

    fn sig(name: &str) -> MethodSig {
        MethodSig::new("com.a.B", name, vec![], Type::Void)
    }

    fn field(name: &str) -> FieldSig {
        FieldSig::new("com.a.B", name, Type::Int)
    }

    #[test]
    fn unit_dedup() {
        let mut ssg = Ssg::new(sig("sinkApi"));
        let a = ssg.add_unit(&sig("m"), 3, &Stmt::Nop);
        let b = ssg.add_unit(&sig("m"), 3, &Stmt::Nop);
        assert_eq!(a, b);
        assert_eq!(ssg.units().len(), 1);
        assert_eq!(ssg.unit_id(&sig("m"), 3), Some(a));
        assert_eq!(ssg.unit_id(&sig("m"), 4), None);
    }

    #[test]
    fn edges_dedup_and_tails() {
        let mut ssg = Ssg::new(sig("sinkApi"));
        let a = ssg.add_unit(&sig("m"), 0, &Stmt::Nop);
        let b = ssg.add_unit(&sig("m"), 1, &Stmt::Nop);
        ssg.add_edge(a, b, SsgEdge::Intra);
        ssg.add_edge(a, b, SsgEdge::Intra);
        assert_eq!(ssg.edges().len(), 1);
        assert_eq!(ssg.tails(), vec![a]);
    }

    #[test]
    fn taint_set_field_rules() {
        let mut t = TaintSet::default();
        let base = LocalId(2);
        t.taint_instance_field(base, field("port"));
        t.taint_instance_field(base, field("host"));
        assert!(t.is_tainted(base), "base object tainted alongside field");
        assert!(t.field_tainted(&field("port")));
        t.untaint_instance_field(base, &field("port"));
        assert!(t.is_tainted(base), "base stays while another field tainted");
        t.untaint_instance_field(base, &field("host"));
        assert!(
            !t.is_tainted(base),
            "base removed with last field (paper rule)"
        );
        assert!(t.is_empty());
    }

    #[test]
    fn static_taint_resolution() {
        let mut ssg = Ssg::new(sig("sinkApi"));
        ssg.taint_static(field("PORT"));
        assert_eq!(ssg.unresolved_statics().len(), 1);
        ssg.resolve_static(&field("PORT"));
        assert!(ssg.unresolved_statics().is_empty());
        assert_eq!(ssg.static_taints().len(), 1, "taint itself persists");
    }

    #[test]
    fn entries_and_reachability() {
        let mut ssg = Ssg::new(sig("sinkApi"));
        assert!(!ssg.is_entry_reachable());
        ssg.add_entry(sig("onCreate"));
        ssg.add_entry(sig("onCreate"));
        assert_eq!(ssg.entries().len(), 1);
        assert!(ssg.is_entry_reachable());
    }

    #[test]
    fn static_track_excluded_from_tails() {
        let mut ssg = Ssg::new(sig("sinkApi"));
        let a = ssg.add_unit(&sig("<clinit>"), 0, &Stmt::Nop);
        let b = ssg.add_unit(&sig("m"), 0, &Stmt::Nop);
        ssg.push_static_track(a);
        assert_eq!(ssg.tails(), vec![b]);
        assert_eq!(ssg.static_track(), &[a]);
    }

    #[test]
    fn dot_rendering_contains_all_units_and_edges() {
        let mut ssg = Ssg::new(sig("sinkApi"));
        let a = ssg.add_unit(&sig("m"), 0, &Stmt::Nop);
        let b = ssg.add_unit(&sig("onCreate"), 1, &Stmt::Return(None));
        ssg.add_edge(a, b, SsgEdge::Call);
        ssg.set_sink_unit(a);
        ssg.add_entry(sig("onCreate"));
        let dot = ssg.to_dot();
        assert!(dot.contains("digraph ssg"));
        assert!(dot.contains("n0"));
        assert!(dot.contains("n1"));
        assert!(dot.contains("color=blue"));
        assert!(dot.contains("palegreen"), "sink highlighted");
        assert!(dot.contains("lightgrey"), "entry shaded");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_edge_panics() {
        let mut ssg = Ssg::new(sig("sinkApi"));
        ssg.add_edge(0, 1, SsgEdge::Intra);
    }
}

/// A per-app SSG: the union of all per-sink SSGs, with units deduplicated
/// by (method, statement). The paper's §V-A/§VI-D future-work item — "we
/// will evolve the current per-sink SSG to per-app SSG [so that] no
/// matter how many sinks there are, BackDroid only requires to generate a
/// partial-app graph once".
#[derive(Clone, Debug, Default)]
pub struct AppSsg {
    units: Vec<SsgUnit>,
    edges: Vec<(usize, usize, SsgEdge)>,
    index: HashMap<(MethodSig, usize), usize>,
    /// Unit ids of all merged sink call sites, with their sink APIs.
    sinks: Vec<(usize, MethodSig)>,
    static_track: Vec<usize>,
    entries: Vec<MethodSig>,
}

impl AppSsg {
    /// Merges per-sink SSGs into one per-app graph.
    pub fn merge<'a>(ssgs: impl IntoIterator<Item = &'a Ssg>) -> AppSsg {
        let mut app = AppSsg::default();
        for ssg in ssgs {
            // Remap this SSG's unit ids into the merged id space.
            let mut remap = Vec::with_capacity(ssg.units().len());
            for u in ssg.units() {
                let key = (u.method.clone(), u.stmt_idx);
                let id = match app.index.get(&key) {
                    Some(&id) => id,
                    None => {
                        let id = app.units.len();
                        app.units.push(SsgUnit {
                            id,
                            method: u.method.clone(),
                            stmt_idx: u.stmt_idx,
                            stmt: u.stmt.clone(),
                        });
                        app.index.insert(key, id);
                        id
                    }
                };
                remap.push(id);
            }
            for &(from, to, label) in ssg.edges() {
                let e = (remap[from], remap[to], label);
                if !app.edges.contains(&e) {
                    app.edges.push(e);
                }
            }
            if let Some(sink) = ssg.sink_unit() {
                let id = remap[sink.id];
                if !app.sinks.iter().any(|(s, _)| *s == id) {
                    app.sinks.push((id, ssg.sink_api.clone()));
                }
            }
            for &u in ssg.static_track() {
                let id = remap[u];
                if !app.static_track.contains(&id) {
                    app.static_track.push(id);
                }
            }
            for e in ssg.entries() {
                if !app.entries.contains(e) {
                    app.entries.push(e.clone());
                }
            }
        }
        app
    }

    /// All merged units.
    pub fn units(&self) -> &[SsgUnit] {
        &self.units
    }

    /// All merged edges.
    pub fn edges(&self) -> &[(usize, usize, SsgEdge)] {
        &self.edges
    }

    /// The merged sink call sites (unit id, sink API).
    pub fn sinks(&self) -> &[(usize, MethodSig)] {
        &self.sinks
    }

    /// Entries reached by any contributing slice.
    pub fn entries(&self) -> &[MethodSig] {
        &self.entries
    }

    /// The merged static track.
    pub fn static_track(&self) -> &[usize] {
        &self.static_track
    }

    /// Units shared by more than one per-sink slice would be duplicated
    /// without merging; this reports how much the merge saved.
    pub fn dedup_savings(total_input_units: usize, merged: &AppSsg) -> f64 {
        if total_input_units == 0 {
            return 0.0;
        }
        1.0 - merged.units.len() as f64 / total_input_units as f64
    }
}

#[cfg(test)]
mod app_ssg_tests {
    use super::*;
    use backdroid_ir::Type;

    fn sig(name: &str) -> MethodSig {
        MethodSig::new("com.a.B", name, vec![], Type::Void)
    }

    #[test]
    fn merge_deduplicates_shared_units() {
        // Two per-sink SSGs sharing a common upstream statement.
        let mut a = Ssg::new(sig("sinkA"));
        let shared_a = a.add_unit(&sig("helper"), 5, &Stmt::Nop);
        let sink_a = a.add_unit(&sig("m1"), 1, &Stmt::Nop);
        a.add_edge(shared_a, sink_a, SsgEdge::Intra);
        a.set_sink_unit(sink_a);
        a.add_entry(sig("onCreate"));

        let mut b = Ssg::new(sig("sinkB"));
        let shared_b = b.add_unit(&sig("helper"), 5, &Stmt::Nop);
        let sink_b = b.add_unit(&sig("m2"), 2, &Stmt::Nop);
        b.add_edge(shared_b, sink_b, SsgEdge::Intra);
        b.set_sink_unit(sink_b);
        b.add_entry(sig("onCreate"));

        let merged = AppSsg::merge([&a, &b]);
        assert_eq!(merged.units().len(), 3, "shared unit deduplicated");
        assert_eq!(merged.sinks().len(), 2);
        assert_eq!(merged.entries().len(), 1);
        assert_eq!(merged.edges().len(), 2);
        let savings = AppSsg::dedup_savings(4, &merged);
        assert!((savings - 0.25).abs() < 1e-9);
    }

    #[test]
    fn merge_of_empty_iter_is_empty() {
        let merged = AppSsg::merge(std::iter::empty::<&Ssg>());
        assert!(merged.units().is_empty());
        assert!(merged.sinks().is_empty());
        assert_eq!(AppSsg::dedup_savings(0, &merged), 0.0);
    }
}
