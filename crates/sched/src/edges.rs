//! A schedule's dependency edges, stored once.
//!
//! A built or merged [`Schedule`](crate::Schedule) holds each op's
//! dependency list, the form the builder appends to. Freezing turns that
//! into each op's successor list plus the roots, the form every readiness
//! driver walks, and drops the dependency lists: a frozen schedule keeps
//! every edge once. Readers that want an op's dependencies from a frozen
//! schedule (merge, fingerprint, race check, stats, the invariant probe)
//! get them derived from the successor lists on first use; nothing on the
//! build → freeze → validate → simulate path asks for them.

use std::sync::OnceLock;

use crate::ids::OpId;

/// Compressed sparse rows: row `i` is `adj[off[i]..off[i + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Csr<T> {
    pub(crate) off: Vec<u32>,
    pub(crate) adj: Vec<T>,
}

impl<T> Csr<T> {
    /// Number of rows.
    #[inline]
    pub(crate) fn rows(&self) -> usize {
        self.off.len() - 1
    }

    /// Row `i`.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[T] {
        &self.adj[self.off[i] as usize..self.off[i + 1] as usize]
    }

    /// Indices of the empty rows, ascending, in an exactly sized vector.
    fn empty_rows(&self) -> Vec<u32> {
        let empty = |w: &[u32]| w[0] == w[1];
        let mut out = Vec::with_capacity(self.off.windows(2).filter(|w| empty(w)).count());
        out.extend(
            self.off
                .windows(2)
                .enumerate()
                .filter(|(_, w)| empty(w))
                .map(|(i, _)| OpId::from(i).0),
        );
        out
    }
}

/// Transposes `csr`: row `t` of the result lists every `i` whose row names
/// `t` (`at` maps an entry to its row), ascending. The fill runs back to
/// front and decrements each row's end offset down to its start, so no
/// cursor array is needed and each row comes out in ascending order.
fn transpose<S: Copy, D: Copy>(
    csr: &Csr<S>,
    at: impl Fn(S) -> usize,
    id: impl Fn(u32) -> D,
) -> Csr<D> {
    let n = csr.rows();
    let mut off = vec![0u32; n + 1];
    for &s in &csr.adj {
        off[at(s)] += 1;
    }
    // Inclusive prefix sum: `off[t]` is where row `t` ends.
    let mut end = 0;
    for o in &mut off {
        end += *o;
        *o = end;
    }
    let mut adj = vec![id(0); csr.adj.len()];
    for i in (0..n).rev() {
        let from = id(OpId::from(i).0);
        for &s in csr.row(i) {
            let t = at(s);
            off[t] -= 1;
            adj[off[t] as usize] = from;
        }
    }
    Csr { off, adj }
}

/// The edges of a schedule, in the one form it stores.
#[derive(Debug, Clone)]
pub(crate) enum Edges {
    /// Each op's dependencies, ascending and deduped: what the builder,
    /// `merge_parts` and `relocate_onto` of a built schedule produce.
    Deps(Csr<OpId>),
    /// Each op's successors in creation order and the ops without
    /// dependencies: what [`Edges::freeze`] leaves. The dependency lists
    /// are derived from the successors when a reader first asks.
    Succs {
        succs: Csr<u32>,
        roots: Vec<u32>,
        deps: OnceLock<Csr<OpId>>,
    },
}

impl Edges {
    /// Number of dependency edges.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        match self {
            Edges::Deps(deps) => deps.adj.len(),
            Edges::Succs { succs, .. } => succs.adj.len(),
        }
    }

    /// Every op's dependency list, ascending and deduped; derived (once)
    /// from the successor lists of a frozen schedule.
    #[inline]
    pub(crate) fn deps(&self) -> &Csr<OpId> {
        match self {
            Edges::Deps(deps) => deps,
            Edges::Succs { succs, deps, .. } => {
                deps.get_or_init(|| transpose(succs, |s: u32| s as usize, OpId))
            }
        }
    }

    /// Whether the dependency lists are in memory.
    pub(crate) fn holds_deps(&self) -> bool {
        match self {
            Edges::Deps(_) => true,
            Edges::Succs { deps, .. } => deps.get().is_some(),
        }
    }

    /// The successor lists and roots of a frozen schedule.
    ///
    /// # Panics
    ///
    /// On a schedule that was not frozen.
    #[inline]
    pub(crate) fn frozen(&self) -> (&Csr<u32>, &[u32]) {
        match self {
            Edges::Succs { succs, roots, .. } => (succs, roots),
            Edges::Deps(_) => unreachable!("a frozen schedule stores successor lists"),
        }
    }

    /// Converts to the successor form, dropping the dependency lists. A
    /// schedule already in that form (an unwrapped frozen one) passes
    /// through untouched, so refreezing costs nothing.
    pub(crate) fn freeze(&mut self) {
        if let Edges::Deps(deps) = self {
            let succs = transpose(deps, OpId::index, |i| i);
            let roots = deps.empty_rows();
            *self = Edges::Succs {
                succs,
                roots,
                deps: OnceLock::new(),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deps(lists: &[&[u32]]) -> Csr<OpId> {
        let mut off = vec![0u32];
        let mut adj = Vec::new();
        for l in lists {
            adj.extend(l.iter().copied().map(OpId));
            off.push(u32::try_from(adj.len()).unwrap());
        }
        Csr { off, adj }
    }

    #[test]
    fn freezing_keeps_creation_order_and_derives_the_same_deps() {
        // 0 -> {1, 2, 3}, {1, 2} -> 3, 2 -> 4
        let lists: &[&[u32]] = &[&[], &[0], &[0], &[0, 1, 2], &[2]];
        let mut e = Edges::Deps(deps(lists));
        e.freeze();
        let (succs, roots) = e.frozen();
        assert_eq!(succs.row(0), &[1, 2, 3]);
        assert_eq!(succs.row(2), &[3, 4]);
        assert!(succs.row(4).is_empty());
        assert_eq!(roots, &[0]);
        assert_eq!(e.len(), 6);
        assert!(!e.holds_deps());
        assert_eq!(e.deps(), &deps(lists));
        assert!(e.holds_deps());
    }

    #[test]
    fn sizes_are_exact() {
        let mut e = Edges::Deps(deps(&[&[], &[0], &[0, 1]]));
        e.freeze();
        let (succs, roots) = e.frozen();
        assert_eq!(succs.off.capacity(), 4);
        assert_eq!(succs.adj.capacity(), 3);
        assert_eq!(roots.len(), 1);
        assert_eq!(e.deps().off.capacity(), 4);
    }
}
