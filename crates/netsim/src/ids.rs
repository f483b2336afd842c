//! Strongly-typed identifiers for processors and ports.
//!
//! The paper's processors are anonymous (finite-state automata cannot hold
//! unique names); [`NodeId`]s exist only in the simulator and the master
//! computer, never inside protocol logic. Ports are numbered `0..δ`
//! (the paper numbers them from 1; we are 0-based throughout).

/// Index of a processor in a [`crate::Topology`].
///
/// `u32` keeps hot per-node tables small (see the type-size guidance in the
/// Rust performance book); networks beyond 2³² processors are out of scope.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The processor index as a `usize`, for table lookups.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A port number on a single processor, in `0..δ`.
///
/// The same `Port` value can denote an in-port or an out-port depending on
/// context; the two namespaces are independent (a processor has up to δ
/// in-ports *and* up to δ out-ports).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Port(pub u8);

impl Port {
    /// The port number as a `usize`, for table lookups.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Port {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A set of port numbers as a 64-bit mask: bit `p` set ⇔ port `p` present.
///
/// Connectivity awareness (§1.2.1) is per-port boolean state; one machine
/// word replaces the per-node `Vec<bool>` the engine used to allocate for
/// every processor's metadata. δ is capped at 64
/// ([`crate::topology::MAX_DELTA`]) so every legal port fits.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct PortMask(u64);

impl PortMask {
    /// The empty set.
    pub const EMPTY: PortMask = PortMask(0);

    /// The raw bit pattern.
    #[inline]
    pub fn bits(self) -> u64 {
        self.0
    }

    /// A copy with `p` added.
    #[inline]
    pub fn with(self, p: Port) -> Self {
        debug_assert!(p.0 < 64, "ports are bounded by MAX_DELTA = 64");
        PortMask(self.0 | 1u64 << p.0)
    }

    /// Is `p` in the set?
    #[inline]
    pub fn contains(self, p: Port) -> bool {
        p.0 < 64 && self.0 & (1u64 << p.0) != 0
    }

    /// Number of ports in the set.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Is the set empty?
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The `i`-th port in ascending order, if any.
    #[inline]
    pub fn nth(self, i: usize) -> Option<Port> {
        self.iter().nth(i)
    }

    /// Iterate over the ports in ascending order.
    #[inline]
    pub fn iter(self) -> PortMaskIter {
        PortMaskIter(self.0)
    }
}

impl IntoIterator for PortMask {
    type Item = Port;
    type IntoIter = PortMaskIter;
    fn into_iter(self) -> PortMaskIter {
        self.iter()
    }
}

/// Ascending-order iterator over a [`PortMask`].
#[derive(Clone, Copy, Debug)]
pub struct PortMaskIter(u64);

impl Iterator for PortMaskIter {
    type Item = Port;

    #[inline]
    fn next(&mut self) -> Option<Port> {
        if self.0 == 0 {
            return None;
        }
        let p = self.0.trailing_zeros() as u8;
        self.0 &= self.0 - 1;
        Some(Port(p))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for PortMaskIter {}

/// One end of a wire: a specific port on a specific processor.
///
/// Stored in the topology's adjacency tables: the entry for an out-port
/// holds the *remote* endpoint `(dst node, dst in-port)` and vice versa.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Endpoint {
    /// The processor on this end of the wire.
    pub node: NodeId,
    /// The port on that processor the wire plugs into.
    pub port: Port,
}

impl Endpoint {
    /// Convenience constructor.
    #[inline]
    pub fn new(node: NodeId, port: Port) -> Self {
        Endpoint { node, port }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.node, self.port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip_and_order() {
        let a = NodeId(3);
        let b = NodeId(7);
        assert!(a < b);
        assert_eq!(a.idx(), 3);
        assert_eq!(format!("{a}"), "n3");
    }

    #[test]
    fn port_order_and_display() {
        assert!(Port(0) < Port(1));
        assert_eq!(Port(5).idx(), 5);
        assert_eq!(format!("{}", Port(2)), "p2");
    }

    #[test]
    fn endpoint_display_and_eq() {
        let e = Endpoint::new(NodeId(1), Port(2));
        assert_eq!(format!("{e}"), "n1:p2");
        assert_eq!(e, Endpoint::new(NodeId(1), Port(2)));
        assert_ne!(e, Endpoint::new(NodeId(1), Port(3)));
    }

    #[test]
    fn port_mask_set_semantics() {
        let m = PortMask::EMPTY.with(Port(0)).with(Port(5)).with(Port(63));
        assert!(m.contains(Port(0)) && m.contains(Port(5)) && m.contains(Port(63)));
        assert!(!m.contains(Port(1)));
        assert_eq!(m.len(), 3);
        assert_eq!(m.iter().collect::<Vec<_>>(), [Port(0), Port(5), Port(63)]);
        assert_eq!(m.nth(1), Some(Port(5)));
        assert_eq!(m.nth(3), None);
        assert!(PortMask::EMPTY.is_empty());
        assert_eq!(std::mem::size_of::<PortMask>(), 8);
    }

    #[test]
    fn ids_are_small() {
        // Hot tables index by these; keep them machine-word friendly.
        assert_eq!(std::mem::size_of::<NodeId>(), 4);
        assert_eq!(std::mem::size_of::<Port>(), 1);
        assert!(std::mem::size_of::<Endpoint>() <= 8);
    }
}
