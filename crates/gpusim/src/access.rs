//! Declared tile-level accesses of simulated operations.
//!
//! The context executes kernel numerics eagerly in program order while
//! computing an *overlapped* schedule for the clock. That is sound only if
//! the program orders every true dependency through streams, events, or
//! syncs — the same contract real CUDA code lives under. Operations declare
//! the tiles they read and write through an [`AccessSet`]; the op log
//! ([`crate::oplog::OpLog`]) carries those declarations to `hchol-analyze`,
//! which checks the contract with a vector-clock happens-before sweep.

use crate::memory::BufferId;

/// One tile of one device buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileRef {
    /// The buffer.
    pub buf: BufferId,
    /// Tile row within the buffer's grid.
    pub bi: usize,
    /// Tile column within the buffer's grid.
    pub bj: usize,
}

impl TileRef {
    /// Convenience constructor.
    pub fn new(buf: BufferId, bi: usize, bj: usize) -> Self {
        TileRef { buf, bi, bj }
    }
}

impl std::fmt::Display for TileRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "buf{}({},{})", self.buf.0, self.bi, self.bj)
    }
}

/// Declared accesses of one operation.
#[derive(Debug, Clone, Default)]
pub struct AccessSet {
    /// Tiles the operation reads.
    pub reads: Vec<TileRef>,
    /// Tiles the operation writes.
    pub writes: Vec<TileRef>,
}

impl AccessSet {
    /// An empty (undeclared) access set.
    pub fn none() -> Self {
        AccessSet::default()
    }

    /// Build from explicit reads/writes.
    pub fn new(reads: Vec<TileRef>, writes: Vec<TileRef>) -> Self {
        AccessSet { reads, writes }
    }

    /// True if nothing is declared.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_constructed_sets() {
        assert!(AccessSet::none().is_empty());
        let t = TileRef::new(BufferId(3), 1, 2);
        let a = AccessSet::new(vec![t], vec![]);
        assert!(!a.is_empty());
        assert_eq!(a.reads[0], t);
        assert_eq!(t.to_string(), "buf3(1,2)");
    }
}
