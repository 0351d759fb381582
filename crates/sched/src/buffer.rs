//! Buffer declarations.
//!
//! A schedule moves bytes between *declared* buffers. A buffer is either
//! private to one rank (its send/recv buffers) or shared by all ranks on one
//! node (the shared-memory segment used by the two-level designs for the
//! overlapped distribution phase).

use crate::grid::ProcGrid;
use crate::ids::{BufId, NodeId, RankId};

/// Where a buffer lives and who may touch it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufKind {
    /// Owned by a single rank; only that rank's CPU may copy into/out of it,
    /// but CMA transfers and RDMA may read/write it remotely (that is their
    /// entire point).
    Private(RankId),
    /// A POSIX-shm style segment mapped by every rank of one node.
    NodeShared(NodeId),
}

/// A declared buffer: identity, placement, and extent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferDecl {
    /// Dense identifier, assigned by the builder.
    pub id: BufId,
    /// Placement and access class.
    pub kind: BufKind,
    /// Extent in bytes.
    pub len: usize,
    /// For node-shared buffers on NUMA clusters: the socket whose memory
    /// the segment's pages live on (first-touch). `None` = interleaved /
    /// NUMA-agnostic; the simulator then charges no cross-socket cost for
    /// accessing it. Ignored for private buffers.
    pub home_socket: Option<u32>,
    /// Human-readable label used in traces and DOT dumps.
    pub label: String,
}

impl BufferDecl {
    /// The node on which the buffer physically resides.
    pub fn node(&self, grid: &ProcGrid) -> NodeId {
        match self.kind {
            BufKind::Private(rank) => grid.node_of(rank),
            BufKind::NodeShared(node) => node,
        }
    }

    /// Whether `rank` may address this buffer with a local (CPU) operation.
    ///
    /// Private buffers are addressable only by their owner; node-shared
    /// buffers by any rank of that node.
    pub fn local_to(&self, grid: &ProcGrid, rank: RankId) -> bool {
        match self.kind {
            BufKind::Private(owner) => owner == rank,
            BufKind::NodeShared(node) => grid.node_of(rank) == node,
        }
    }

    /// Whether `rank` may be an endpoint of a transfer touching this buffer.
    ///
    /// Transfers (CMA or rail) address remote private memory by design, so
    /// the endpoint only needs to be on *some* rank; node-shared buffers
    /// require the endpoint rank to be on the owning node (shm segments are
    /// not exported over the network in the paper's designs).
    pub fn transfer_endpoint_ok(&self, grid: &ProcGrid, rank: RankId) -> bool {
        match self.kind {
            BufKind::Private(owner) => owner == rank,
            BufKind::NodeShared(node) => grid.node_of(rank) == node,
        }
    }
}

/// A byte position within a declared buffer, 8 bytes in all.
///
/// The offset is a `u32`, like the length of every op that reads or
/// writes through a `Loc`: the builder rejects a buffer longer than
/// `u32::MAX` bytes, so every in-bounds offset fits. The constructors
/// take `usize` and panic on an offset that does not fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Loc {
    /// Target buffer.
    pub buf: BufId,
    /// Byte offset from the start of the buffer.
    pub offset: u32,
}

impl Loc {
    /// Convenience constructor.
    ///
    /// # Panics
    ///
    /// If `offset` exceeds `u32::MAX`.
    #[inline]
    pub fn new(buf: BufId, offset: usize) -> Self {
        Loc {
            buf,
            offset: extent(offset),
        }
    }

    /// The same buffer at `offset + delta`.
    ///
    /// # Panics
    ///
    /// If the new offset exceeds `u32::MAX`.
    #[inline]
    pub fn at(self, delta: usize) -> Self {
        Loc::new(self.buf, self.offset as usize + delta)
    }
}

/// Narrows a byte offset or length to the op table's `u32`.
///
/// # Panics
///
/// If `bytes` exceeds `u32::MAX`; builders check their buffer sizes
/// first, so only an out-of-bounds offset gets here.
#[inline]
pub(crate) fn extent(bytes: usize) -> u32 {
    match u32::try_from(bytes) {
        Ok(b) => b,
        Err(_) => panic!("byte extent {bytes} exceeds u32::MAX"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(kind: BufKind) -> BufferDecl {
        BufferDecl {
            id: BufId(0),
            kind,
            len: 64,
            home_socket: None,
            label: "t".into(),
        }
    }

    #[test]
    fn private_buffer_local_only_to_owner() {
        let g = ProcGrid::new(2, 2);
        let b = decl(BufKind::Private(RankId(1)));
        assert!(b.local_to(&g, RankId(1)));
        assert!(!b.local_to(&g, RankId(0)));
        assert!(!b.local_to(&g, RankId(2)));
        assert_eq!(b.node(&g), NodeId(0));
    }

    #[test]
    fn shared_buffer_local_to_whole_node() {
        let g = ProcGrid::new(2, 2);
        let b = decl(BufKind::NodeShared(NodeId(1)));
        assert!(b.local_to(&g, RankId(2)));
        assert!(b.local_to(&g, RankId(3)));
        assert!(!b.local_to(&g, RankId(0)));
        assert_eq!(b.node(&g), NodeId(1));
    }

    #[test]
    fn loc_at_advances_offset() {
        let l = Loc::new(BufId(3), 16);
        assert_eq!(l.at(8), Loc::new(BufId(3), 24));
        let last = Loc::new(BufId(0), u32::MAX as usize);
        assert_eq!(last.offset, u32::MAX);
    }

    #[test]
    #[should_panic(expected = "exceeds u32::MAX")]
    fn loc_past_u32_panics() {
        Loc::new(BufId(0), 1 << 32);
    }

    #[test]
    #[should_panic(expected = "exceeds u32::MAX")]
    fn loc_at_past_u32_panics() {
        Loc::new(BufId(0), u32::MAX as usize).at(1);
    }
}
