//! Recursive topology tree: the N-level generalization of [`ProcGrid`].
//!
//! A [`Topology`] is an ordered list of levels, outermost first. Level `0`
//! splits the machine into `fanout[0]` groups (nodes, say), level `1`
//! splits each of those into `fanout[1]` sub-groups (sockets), and so on;
//! the innermost level's groups are single ranks. Ranks are block-mapped
//! exactly like [`ProcGrid`]: the groups at any depth are contiguous rank
//! ranges, and a group's *leader* is its first rank. A two-level tree is
//! therefore isomorphic to `ProcGrid::new(nodes, ppn)` — see
//! [`Topology::flatten`].
//!
//! Each level also carries the link characteristics of the interconnect
//! that joins its groups (rail count, per-rail bandwidth, startup
//! latency), allowing heterogeneous speeds per level. The *shape* (fanouts)
//! drives schedule construction; the link parameters feed cost models,
//! never op emission — so two trees with equal shapes build identical
//! schedules.

use crate::grid::ProcGrid;
use crate::ids::{GroupId, RankId};

/// One level of a [`Topology`]: how many children each group at this depth
/// splits into, and the link joining those children.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopoLevel {
    /// Children per group at this level (≥ 1).
    pub fanout: u32,
    /// Parallel rails of the link joining the children (≥ 1).
    pub rails: u8,
    /// Per-rail bandwidth of the link, bytes/second.
    pub bw: f64,
    /// Startup latency of one transfer over the link, seconds.
    pub alpha: f64,
}

impl TopoLevel {
    /// A level with placeholder link parameters (one rail, unit bandwidth,
    /// zero latency). The shape is what schedule construction consumes;
    /// callers that price or fingerprint trees should set real link values
    /// via [`TopoLevel::with_link`] (or build the tree from a cluster
    /// spec).
    pub fn new(fanout: u32) -> Self {
        TopoLevel {
            fanout,
            rails: 1,
            bw: 1.0,
            alpha: 0.0,
        }
    }

    /// Replaces the link parameters.
    pub fn with_link(self, rails: u8, bw: f64, alpha: f64) -> Self {
        TopoLevel {
            rails,
            bw,
            alpha,
            ..self
        }
    }
}

/// A recursive, block-mapped process topology (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    levels: Vec<TopoLevel>,
}

impl Topology {
    /// Creates a topology from explicit levels, outermost first.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty, any fanout is zero, or the total rank
    /// count overflows `u32`.
    pub fn new(levels: Vec<TopoLevel>) -> Self {
        assert!(!levels.is_empty(), "a topology needs at least one level");
        let mut total = 1u32;
        for (d, lvl) in levels.iter().enumerate() {
            assert!(lvl.fanout > 0, "level {d} has zero fanout");
            total = total
                .checked_mul(lvl.fanout)
                .expect("rank count overflows u32");
        }
        Topology { levels }
    }

    /// A topology from fanouts alone, with placeholder links
    /// ([`TopoLevel::new`]).
    pub fn from_fanouts(fanouts: &[u32]) -> Self {
        Topology::new(fanouts.iter().map(|&f| TopoLevel::new(f)).collect())
    }

    /// The canonical two-level (node × rank) tree matching
    /// `ProcGrid::new(nodes, ppn)`.
    pub fn two_level(nodes: u32, ppn: u32) -> Self {
        Topology::from_fanouts(&[nodes, ppn])
    }

    /// The canonical three-level (node × socket × rank) tree of the
    /// NUMA-aware design.
    pub fn three_level(nodes: u32, sockets: u32, per_socket: u32) -> Self {
        Topology::from_fanouts(&[nodes, sockets, per_socket])
    }

    /// The two-level tree equivalent to `grid` (its inverse is
    /// [`Topology::flatten`]).
    pub fn from_grid(grid: &ProcGrid) -> Self {
        Topology::two_level(grid.nodes(), grid.ppn())
    }

    /// Number of levels.
    #[inline]
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// All levels, outermost first.
    #[inline]
    pub fn levels(&self) -> &[TopoLevel] {
        &self.levels
    }

    /// The level at depth `d`.
    #[inline]
    pub fn level(&self, d: usize) -> &TopoLevel {
        &self.levels[d]
    }

    /// Fanout at depth `d`.
    #[inline]
    pub fn fanout(&self, d: usize) -> u32 {
        self.levels[d].fanout
    }

    /// Total ranks (the product of all fanouts).
    pub fn nranks(&self) -> u32 {
        self.levels.iter().map(|l| l.fanout).product()
    }

    /// Number of groups at depth `d`: the product of fanouts *above* `d`.
    /// `num_groups(0) == 1` (the whole machine); `num_groups(depth())` is
    /// the rank count.
    pub fn num_groups(&self, d: usize) -> u32 {
        self.levels[..d].iter().map(|l| l.fanout).product()
    }

    /// Ranks per group at depth `d`: the product of fanouts *at and below*
    /// `d`. `group_size(0)` is the rank count; `group_size(depth()) == 1`.
    pub fn group_size(&self, d: usize) -> u32 {
        self.levels[d..].iter().map(|l| l.fanout).product()
    }

    /// The depth-`d` group containing `rank`.
    #[inline]
    pub fn group_of(&self, d: usize, rank: RankId) -> GroupId {
        debug_assert!(rank.0 < self.nranks(), "rank {rank} out of topology");
        GroupId(rank.0 / self.group_size(d))
    }

    /// The first rank of depth-`d` group `g` — its *leader*.
    #[inline]
    pub fn leader(&self, d: usize, g: GroupId) -> RankId {
        debug_assert!(g.0 < self.num_groups(d), "group {g} out of depth {d}");
        RankId(g.0 * self.group_size(d))
    }

    /// Iterator over the ranks of depth-`d` group `g`, in rank order.
    pub fn ranks_of(&self, d: usize, g: GroupId) -> impl Iterator<Item = RankId> {
        let size = self.group_size(d);
        let base = g.0 * size;
        (base..base + size).map(RankId)
    }

    /// The equivalent two-level grid: level 0 becomes the node dimension,
    /// everything below collapses into ppn. A depth-1 tree flattens to a
    /// single node.
    pub fn flatten(&self) -> ProcGrid {
        if self.depth() == 1 {
            ProcGrid::single_node(self.fanout(0))
        } else {
            ProcGrid::new(self.fanout(0), self.group_size(1))
        }
    }

    /// Whether this tree flattens onto `grid` (same node count and ppn).
    pub fn matches(&self, grid: &ProcGrid) -> bool {
        self.flatten() == *grid
    }

    /// Sanity-checks the link parameters (the shape is validated at
    /// construction).
    pub fn validate(&self) -> Result<(), String> {
        for (d, lvl) in self.levels.iter().enumerate() {
            if lvl.rails == 0 {
                return Err(format!("level {d}: rails must be at least 1"));
            }
            if !(lvl.bw.is_finite() && lvl.bw > 0.0) {
                return Err(format!(
                    "level {d}: bw must be positive and finite, got {}",
                    lvl.bw
                ));
            }
            if !(lvl.alpha.is_finite() && lvl.alpha >= 0.0) {
                return Err(format!(
                    "level {d}: alpha must be non-negative, got {}",
                    lvl.alpha
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_arithmetic_is_consistent() {
        let t = Topology::from_fanouts(&[4, 2, 3]);
        assert_eq!(t.depth(), 3);
        assert_eq!(t.nranks(), 24);
        assert_eq!(t.num_groups(0), 1);
        assert_eq!(t.num_groups(1), 4);
        assert_eq!(t.num_groups(2), 8);
        assert_eq!(t.num_groups(3), 24);
        assert_eq!(t.group_size(0), 24);
        assert_eq!(t.group_size(1), 6);
        assert_eq!(t.group_size(2), 3);
        assert_eq!(t.group_size(3), 1);
        for d in 0..=t.depth() {
            assert_eq!(t.num_groups(d) * t.group_size(d), t.nranks());
        }
    }

    #[test]
    fn groups_are_contiguous_with_leader_first() {
        let t = Topology::from_fanouts(&[2, 2, 2]);
        let g = GroupId(2); // third socket overall = node 1, socket 0
        assert_eq!(t.leader(2, g), RankId(4));
        let ranks: Vec<_> = t.ranks_of(2, g).collect();
        assert_eq!(ranks, vec![RankId(4), RankId(5)]);
        for r in ranks {
            assert_eq!(t.group_of(2, r), g);
        }
        assert_eq!(t.group_of(1, RankId(5)), GroupId(1));
        assert_eq!(t.group_of(0, RankId(5)), GroupId(0));
    }

    #[test]
    fn flatten_round_trips_with_from_grid() {
        let grid = ProcGrid::new(3, 5);
        let t = Topology::from_grid(&grid);
        assert_eq!(t.flatten(), grid);
        assert!(t.matches(&grid));
        // Deeper trees flatten onto the grid their outer level implies.
        let t3 = Topology::from_fanouts(&[3, 5, 1]);
        assert!(t3.matches(&grid));
        assert!(!Topology::from_fanouts(&[5, 3]).matches(&grid));
    }

    #[test]
    fn depth_one_flattens_to_a_single_node() {
        let t = Topology::from_fanouts(&[7]);
        assert_eq!(t.flatten(), ProcGrid::single_node(7));
        assert_eq!(t.nranks(), 7);
        assert_eq!(t.group_size(0), 7);
    }

    #[test]
    fn validate_rejects_bad_links() {
        let ok = Topology::three_level(2, 2, 4);
        ok.validate().unwrap();
        let bad = Topology::new(vec![TopoLevel::new(2).with_link(0, 1.0, 0.0)]);
        assert!(bad.validate().is_err());
        let bad = Topology::new(vec![TopoLevel::new(2).with_link(1, -1.0, 0.0)]);
        assert!(bad.validate().is_err());
        let bad = Topology::new(vec![TopoLevel::new(2).with_link(1, 1.0, f64::NAN)]);
        assert!(bad.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "zero fanout")]
    fn zero_fanout_rejected() {
        Topology::from_fanouts(&[4, 0]);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn empty_tree_rejected() {
        Topology::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn overflowing_tree_rejected() {
        Topology::from_fanouts(&[1 << 16, 1 << 16, 2]);
    }
}
