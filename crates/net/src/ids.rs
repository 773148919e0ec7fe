//! Typed indices into a [`crate::Network`].

use aqua_artifact::{ArtifactError, Codec, Reader, Writer};

/// Index of a node (junction, reservoir or tank) within a network.
///
/// Node ids are dense: they range over `0..network.node_count()` and can be
/// used to index per-node result vectors produced by the hydraulic engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Returns the dense index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }

    /// Creates a node id from a dense index.
    ///
    /// The caller is responsible for the index being in range for the network
    /// it is used with; out-of-range ids cause panics on lookup.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NodeId(index)
    }
}

/// Index of a link (pipe, pump or valve) within a network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub(crate) usize);

impl LinkId {
    /// Returns the dense index of this link.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }

    /// Creates a link id from a dense index.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        LinkId(index)
    }
}

/// Index of a demand pattern within a network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PatternId(pub(crate) usize);

impl PatternId {
    /// Returns the dense index of this pattern.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl Codec for NodeId {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.0 as u64);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(NodeId(usize::decode(r)?))
    }
}

impl Codec for LinkId {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.0 as u64);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(LinkId(usize::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trips_through_index() {
        let id = NodeId::from_index(7);
        assert_eq!(id.index(), 7);
    }

    #[test]
    fn link_id_round_trips_through_index() {
        let id = LinkId::from_index(3);
        assert_eq!(id.index(), 3);
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(NodeId::from_index(1) < NodeId::from_index(2));
        assert!(LinkId::from_index(0) < LinkId::from_index(9));
    }

    #[test]
    fn ids_round_trip_through_the_artifact_codec() {
        let mut w = Writer::new();
        vec![NodeId(3), NodeId(91)].encode(&mut w);
        LinkId(7).encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(
            Vec::<NodeId>::decode(&mut r).unwrap(),
            vec![NodeId(3), NodeId(91)]
        );
        assert_eq!(LinkId::decode(&mut r).unwrap(), LinkId(7));
        r.finish().unwrap();
    }
}
