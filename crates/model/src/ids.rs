//! Node identifiers.
//!
//! The paper (Assumption 3) requires only *locally unique* IDs; the
//! implementation uses globally unique dense indices because they double as
//! vector offsets, which is strictly stronger and loses no generality.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Dense identifier of a node within one deployed network.
///
/// `NodeId(0)` is, by convention of [`crate::deployment`], the broadcast
/// source placed at the center of the field.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The broadcast source (center of the field) in every deployment
    /// produced by this workspace.
    pub const SOURCE: NodeId = NodeId(0);

    /// The id as a vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<usize> for NodeId {
    #[expect(
        clippy::expect_used,
        reason = "`From` cannot be fallible; deployments cap node counts far below u32::MAX, making overflow a caller bug"
    )]
    fn from(v: usize) -> Self {
        NodeId(u32::try_from(v).expect("node index exceeds u32 range"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_ordering() {
        let a = NodeId::from(3usize);
        assert_eq!(a.index(), 3);
        assert_eq!(a, NodeId(3));
        assert!(NodeId(2) < NodeId(10));
        assert_eq!(NodeId::SOURCE.index(), 0);
        assert_eq!(format!("{}", NodeId(7)), "n7");
    }

    #[test]
    #[should_panic(expected = "exceeds u32")]
    fn oversized_index_panics() {
        let _ = NodeId::from(usize::try_from(u64::from(u32::MAX) + 1).unwrap());
    }
}
