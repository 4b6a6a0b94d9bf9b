//! Dead method-loop detection (paper §IV-F, Fig 5).
//!
//! Four loop kinds are distinguished: cross/inner × backward/forward.
//! A *cross* loop repeats a method across inter-procedural steps; an
//! *inner* loop repeats a method within one maintained call chain. The
//! evaluation reports that at least one loop is detected in 60% of apps
//! and that `CrossBackward` is the most common kind.

use backdroid_ir::MethodSig;
use serde::Serialize;
use std::collections::BTreeMap;

/// The four loop kinds named by the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize)]
pub enum LoopKind {
    /// Backward method search revisits a method already on the backtrack
    /// path (Fig 5: `C = A`).
    CrossBackward,
    /// A maintained backward call chain repeats a method (Fig 5: `B3 = B1`).
    InnerBackward,
    /// Forward object-taint propagation revisits a method on its path.
    CrossForward,
    /// A forward call chain repeats a method.
    InnerForward,
}

/// Per-app loop counters.
#[derive(Clone, PartialEq, Eq, Debug, Default, Serialize)]
pub struct LoopStats {
    counts: BTreeMap<LoopKind, u64>,
}

impl LoopStats {
    /// Records one detected loop.
    pub fn record(&mut self, kind: LoopKind) {
        *self.counts.entry(kind).or_insert(0) += 1;
    }

    /// The count for one kind.
    pub fn count(&self, kind: LoopKind) -> u64 {
        self.counts.get(&kind).copied().unwrap_or(0)
    }

    /// Total loops detected.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Whether any loop was detected (the per-app "optimized" flag used by
    /// the 60%-of-apps statistic).
    pub fn any(&self) -> bool {
        self.total() > 0
    }

    /// The most common kind, if any loop was recorded.
    pub fn most_common(&self) -> Option<LoopKind> {
        self.counts.iter().max_by_key(|(_, c)| **c).map(|(k, _)| *k)
    }

    /// Merges another stats object into this one.
    pub fn merge(&mut self, other: &LoopStats) {
        for (k, c) in &other.counts {
            *self.counts.entry(*k).or_insert(0) += c;
        }
    }
}

/// A path-scoped loop guard: detects when `candidate` already appears on
/// the current inter-procedural path.
#[derive(Clone, Debug, Default)]
pub struct PathGuard {
    path: Vec<MethodSig>,
}

impl PathGuard {
    /// An empty guard.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current path.
    pub fn path(&self) -> &[MethodSig] {
        &self.path
    }

    /// Current path depth.
    pub fn depth(&self) -> usize {
        self.path.len()
    }

    /// Whether pushing `candidate` would close a loop.
    pub fn would_loop(&self, candidate: &MethodSig) -> bool {
        self.path.contains(candidate)
    }

    /// Pushes a method, returning `false` (and leaving the path unchanged)
    /// if it would close a loop.
    pub fn push(&mut self, m: MethodSig) -> bool {
        if self.would_loop(&m) {
            return false;
        }
        self.path.push(m);
        true
    }

    /// Pops the most recent method.
    pub fn pop(&mut self) -> Option<MethodSig> {
        self.path.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backdroid_ir::Type;

    fn sig(name: &str) -> MethodSig {
        MethodSig::new("com.a.B", name, vec![], Type::Void)
    }

    #[test]
    fn stats_counting() {
        let mut s = LoopStats::default();
        assert!(!s.any());
        s.record(LoopKind::CrossBackward);
        s.record(LoopKind::CrossBackward);
        s.record(LoopKind::InnerForward);
        assert_eq!(s.count(LoopKind::CrossBackward), 2);
        assert_eq!(s.total(), 3);
        assert!(s.any());
        assert_eq!(s.most_common(), Some(LoopKind::CrossBackward));
    }

    #[test]
    fn stats_merge() {
        let mut a = LoopStats::default();
        a.record(LoopKind::CrossForward);
        let mut b = LoopStats::default();
        b.record(LoopKind::CrossForward);
        b.record(LoopKind::InnerBackward);
        a.merge(&b);
        assert_eq!(a.count(LoopKind::CrossForward), 2);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn guard_detects_cycles() {
        let mut g = PathGuard::new();
        assert!(g.push(sig("a")));
        assert!(g.push(sig("b")));
        assert!(g.would_loop(&sig("a")));
        assert!(!g.push(sig("a")));
        assert_eq!(g.depth(), 2);
        assert_eq!(g.pop(), Some(sig("b")));
        assert!(g.push(sig("b")));
    }
}
