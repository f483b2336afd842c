//! Port-labelled directed multigraphs — the paper's network model (§1.1).
//!
//! A network is formed "by connecting out-ports from processors to the
//! in-ports of other processors with wires". Each wire is unidirectional and
//! carries one constant-size character per tick. A pair of processors may be
//! connected by two wires in opposite directions (a simulated bidirectional
//! link) or by several parallel wires; a processor is never wired to itself
//! (self-loops carry no information in the model and the paper never uses
//! them — see DESIGN.md §5).
//!
//! ## Storage
//!
//! A finished [`Topology`] is stored in compressed-sparse-row form: one
//! `offsets` array per direction (length N+1) plus one packed entry per
//! wire end. Node `v`'s wired out-ports live at
//! `out_adj[out_off[v] .. out_off[v+1]]`, sorted by local port number.
//! Entries are 8 bytes each, so a δ=3 network costs ~56 bytes/node — flat,
//! cache-friendly, and free of the per-node `Vec` headers and heap blocks
//! the million-node regimes cannot afford. The query API below exposes thin
//! views (iterators and O(1) lookups) over these arrays; nothing allocates.

use crate::ids::{Endpoint, NodeId, Port, PortMask};

/// Largest supported port bound δ. Connectivity masks are single 64-bit
/// words ([`PortMask`]); the paper's δ is a small constant, so this is not
/// a practical restriction.
pub const MAX_DELTA: u8 = 64;

/// A single wire: out-port `src_port` of `src` feeds in-port `dst_port` of `dst`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Edge {
    /// Sending processor.
    pub src: NodeId,
    /// Out-port on the sender.
    pub src_port: Port,
    /// Receiving processor.
    pub dst: NodeId,
    /// In-port on the receiver.
    pub dst_port: Port,
}

/// Errors raised while constructing a topology.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TopologyError {
    /// A referenced node does not exist.
    UnknownNode(NodeId),
    /// A port number is ≥ δ.
    PortOutOfRange { node: NodeId, port: Port, delta: u8 },
    /// The out-port (or in-port) is already wired.
    PortBusy {
        node: NodeId,
        port: Port,
        is_out: bool,
    },
    /// Self-loops are rejected (DESIGN.md §5).
    SelfLoop(NodeId),
    /// All ports on this side of the node are already wired.
    NodeFull { node: NodeId, is_out: bool },
    /// The finished network violates the model: a node lacks a connected
    /// in-port or out-port, or there are fewer than two processors.
    Malformed(String),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::UnknownNode(n) => write!(f, "unknown node {n}"),
            TopologyError::PortOutOfRange { node, port, delta } => {
                write!(f, "port {port} on {node} out of range (delta = {delta})")
            }
            TopologyError::PortBusy { node, port, is_out } => {
                let side = if *is_out { "out" } else { "in" };
                write!(f, "{side}-port {port} on {node} already wired")
            }
            TopologyError::SelfLoop(n) => write!(f, "self-loop on {n} rejected"),
            TopologyError::NodeFull { node, is_out } => {
                let side = if *is_out { "out" } else { "in" };
                write!(f, "all {side}-ports of {node} are wired")
            }
            TopologyError::Malformed(msg) => write!(f, "malformed network: {msg}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// One wired port in a CSR adjacency row: the local port number plus the
/// packed remote endpoint. 8 bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct CsrEntry {
    /// Local port number (out-port in `out_adj`, in-port in `in_adj`).
    local: u8,
    /// Remote port number on `peer`.
    peer_port: u8,
    /// Remote processor.
    peer: u32,
}

impl CsrEntry {
    #[inline]
    fn endpoint(self) -> Endpoint {
        Endpoint::new(NodeId(self.peer), Port(self.peer_port))
    }
}

/// An immutable, validated network topology.
///
/// Construct one through [`TopologyBuilder`] or the generators in
/// [`crate::generators`]. Validation guarantees: at least two processors,
/// every processor has ≥ 1 connected in-port and ≥ 1 connected out-port
/// (required by the model, §1.1), no self-loops, and all port numbers < δ.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Topology {
    delta: u8,
    n: u32,
    /// CSR offsets: node `v`'s wired out-ports are `out_adj[out_off[v] ..
    /// out_off[v+1]]`, ascending by port. Length N+1.
    out_off: Vec<u32>,
    out_adj: Vec<CsrEntry>,
    /// Mirror of the out-tables for the in-direction. Length N+1.
    in_off: Vec<u32>,
    in_adj: Vec<CsrEntry>,
}

impl Topology {
    /// The network constant δ: the uniform bound on in- and out-degree.
    #[inline]
    pub fn delta(&self) -> u8 {
        self.delta
    }

    /// Number of processors N.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n as usize
    }

    /// Number of wires E.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out_adj.len()
    }

    /// Iterate over all node ids `0..N`.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n).map(NodeId)
    }

    /// The CSR row of wired out-ports for `node`.
    #[inline]
    fn out_row(&self, node: NodeId) -> &[CsrEntry] {
        &self.out_adj[self.out_off[node.idx()] as usize..self.out_off[node.idx() + 1] as usize]
    }

    /// The CSR row of wired in-ports for `node`.
    #[inline]
    fn in_row(&self, node: NodeId) -> &[CsrEntry] {
        &self.in_adj[self.in_off[node.idx()] as usize..self.in_off[node.idx() + 1] as usize]
    }

    /// The remote endpoint fed by `node`'s out-port `port`, if wired.
    ///
    /// Rows are sorted by port and at most δ long, so a linear scan is
    /// both correct and faster than a binary search at the paper's δ.
    #[inline]
    pub fn out_endpoint(&self, node: NodeId, port: Port) -> Option<Endpoint> {
        self.out_row(node)
            .iter()
            .find(|e| e.local == port.0)
            .map(|e| e.endpoint())
    }

    /// The remote endpoint feeding `node`'s in-port `port`, if wired.
    #[inline]
    pub fn in_endpoint(&self, node: NodeId, port: Port) -> Option<Endpoint> {
        self.in_row(node)
            .iter()
            .find(|e| e.local == port.0)
            .map(|e| e.endpoint())
    }

    /// Out-port connectivity of a node as a bitmask (out-port awareness,
    /// §1.2.1). Bit `o` set ⇔ out-port `o` is wired.
    #[inline]
    pub fn out_mask(&self, node: NodeId) -> PortMask {
        self.out_row(node)
            .iter()
            .fold(PortMask::EMPTY, |m, e| m.with(Port(e.local)))
    }

    /// In-port connectivity of a node as a bitmask (in-port awareness, §1.2.1).
    #[inline]
    pub fn in_mask(&self, node: NodeId) -> PortMask {
        self.in_row(node)
            .iter()
            .fold(PortMask::EMPTY, |m, e| m.with(Port(e.local)))
    }

    /// Out-port connectivity flags of a node, one `bool` per port `0..δ`,
    /// without allocating (borrows the CSR row).
    pub fn out_connected(&self, node: NodeId) -> impl Iterator<Item = bool> + '_ {
        let m = self.out_mask(node);
        (0..self.delta).map(move |p| m.contains(Port(p)))
    }

    /// In-port connectivity flags of a node, one `bool` per port `0..δ`,
    /// without allocating (borrows the CSR row).
    pub fn in_connected(&self, node: NodeId) -> impl Iterator<Item = bool> + '_ {
        let m = self.in_mask(node);
        (0..self.delta).map(move |p| m.contains(Port(p)))
    }

    /// Connected out-degree of a node.
    #[inline]
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out_row(node).len()
    }

    /// Connected in-degree of a node.
    #[inline]
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.in_row(node).len()
    }

    /// Out-neighbours of a node as `(out-port, remote endpoint)` pairs, in
    /// ascending port order.
    pub fn out_edges(&self, node: NodeId) -> impl Iterator<Item = (Port, Endpoint)> + '_ {
        self.out_row(node)
            .iter()
            .map(|e| (Port(e.local), e.endpoint()))
    }

    /// In-neighbours of a node as `(in-port, remote endpoint)` pairs, in
    /// ascending port order.
    pub fn in_edges(&self, node: NodeId) -> impl Iterator<Item = (Port, Endpoint)> + '_ {
        self.in_row(node)
            .iter()
            .map(|e| (Port(e.local), e.endpoint()))
    }

    /// Every wire in the network, in `(src node, src port)` order, as a
    /// non-allocating view over the CSR arrays.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.node_ids().flat_map(move |src| {
            self.out_edges(src).map(move |(src_port, ep)| Edge {
                src,
                src_port,
                dst: ep.node,
                dst_port: ep.port,
            })
        })
    }

    /// The edge set as a sorted vector — the canonical form used to compare a
    /// reconstructed map against ground truth.
    pub fn sorted_edges(&self) -> Vec<Edge> {
        let mut e: Vec<Edge> = self.edges().collect();
        e.sort_unstable();
        e
    }

    /// Follow a sequence of out-ports starting from `from`. Returns the node
    /// reached, or `None` if some port on the walk is unwired.
    ///
    /// This is how the master computer's canonical names (root→A port paths)
    /// are resolved back to ground-truth processors during verification.
    pub fn walk_out_ports(&self, from: NodeId, ports: &[Port]) -> Option<NodeId> {
        let mut cur = from;
        for &p in ports {
            cur = self.out_endpoint(cur, p)?.node;
        }
        Some(cur)
    }

    /// Validate the cross-linking invariants; used by tests and after
    /// deserialization. Checks that out- and in-tables mirror each other and
    /// that model requirements hold.
    ///
    /// A valid network is confirmed by one pass over its wires
    /// ([`Topology::wired_consistently`]); only a network that fails it is
    /// scanned node by node, so the error always names the first defect in
    /// node order.
    pub fn validate(&self) -> Result<(), TopologyError> {
        if self.wired_consistently() {
            return Ok(());
        }
        self.first_defect()
    }

    /// Sufficient condition for [`Topology::validate`] to pass, checked
    /// with one lookup per wire instead of two.
    ///
    /// Every row holds 1..=δ entries with strictly ascending ports, every
    /// out-wire avoids a self-loop and its in-end mirrors it, and both
    /// directions hold the same number of entries. Mirroring makes the map
    /// from out-wires to the in-entries they land on injective (an entry
    /// names one sender); equal totals make it onto, so every in-entry is
    /// some out-wire's mirror and the in-to-out check holds as well.
    fn wired_consistently(&self) -> bool {
        let delta = self.delta as usize;
        let rows_ok = |off: &[u32], adj: &[CsrEntry]| {
            off.windows(2).all(|w| {
                let row = &adj[w[0] as usize..w[1] as usize];
                (1..=delta).contains(&row.len()) && row.windows(2).all(|p| p[0].local < p[1].local)
            })
        };
        self.n >= 2
            && self.out_adj.len() == self.in_adj.len()
            && rows_ok(&self.out_off, &self.out_adj)
            && rows_ok(&self.in_off, &self.in_adj)
            && self.node_ids().all(|node| {
                self.out_edges(node).all(|(o, ep)| {
                    ep.node != node
                        && self.in_endpoint(ep.node, ep.port) == Some(Endpoint::new(node, o))
                })
            })
    }

    /// The first defect in node order, checking each node's degree bound,
    /// wires in both directions and degrees in turn; `Ok` if there is none.
    fn first_defect(&self) -> Result<(), TopologyError> {
        if self.n < 2 {
            return Err(TopologyError::Malformed(
                "the model requires at least two processors".into(),
            ));
        }
        for node in self.node_ids() {
            if self.out_degree(node) > self.delta as usize
                || self.in_degree(node) > self.delta as usize
            {
                return Err(TopologyError::Malformed(format!(
                    "{node} has more than delta = {} ports",
                    self.delta
                )));
            }
            for (o, ep) in self.out_edges(node) {
                if ep.node == node {
                    return Err(TopologyError::SelfLoop(node));
                }
                let back = self.in_endpoint(ep.node, ep.port);
                if back != Some(Endpoint::new(node, o)) {
                    return Err(TopologyError::Malformed(format!(
                        "wire {node}:{o} -> {ep} not mirrored ({back:?})"
                    )));
                }
            }
            for (i, ep) in self.in_edges(node) {
                let fwd = self.out_endpoint(ep.node, ep.port);
                if fwd != Some(Endpoint::new(node, i)) {
                    return Err(TopologyError::Malformed(format!(
                        "wire {ep} -> {node}:{i} not mirrored ({fwd:?})"
                    )));
                }
            }
            if self.out_degree(node) == 0 {
                return Err(TopologyError::Malformed(format!(
                    "{node} has no connected out-port"
                )));
            }
            if self.in_degree(node) == 0 {
                return Err(TopologyError::Malformed(format!(
                    "{node} has no connected in-port"
                )));
            }
        }
        Ok(())
    }
}

/// Incremental constructor for [`Topology`].
///
/// Port numbers can be chosen explicitly ([`TopologyBuilder::connect`]) or
/// auto-assigned to the lowest free ports ([`TopologyBuilder::connect_auto`]),
/// which keeps generator output deterministic in edge-insertion order.
///
/// Internally the builder keeps two flat `n·δ` slot tables (`slot = node·δ +
/// port`) and compresses them to the CSR form of [`Topology`] at
/// [`TopologyBuilder::build`]. Per-node wired-port counts sit beside the
/// tables, so free-port queries such as [`TopologyBuilder::can_connect`]
/// are O(1) and never touch them.
#[derive(Clone, Debug)]
pub struct TopologyBuilder {
    delta: u8,
    n: usize,
    /// `outs[v·δ + o]` = remote `(node, in-port)` fed by `v`'s out-port `o`.
    outs: Vec<Option<Endpoint>>,
    /// `ins[v·δ + i]` = remote `(node, out-port)` feeding `v`'s in-port `i`.
    ins: Vec<Option<Endpoint>>,
    /// `out_used[v]` = number of wired out-ports of `v` (the `Some`s in its
    /// `outs` slots). [`TopologyBuilder::connect`] is the only writer of the
    /// slot tables and of these counts.
    out_used: Vec<u8>,
    /// `in_used[v]` = number of wired in-ports of `v`.
    in_used: Vec<u8>,
}

impl TopologyBuilder {
    /// Start a network with `n` processors and port bound `delta` (δ ≥ 2,
    /// as in the paper).
    ///
    /// Panics when `n·δ` does not fit in 32 bits: the engine's flat route
    /// tables index wire slots with `u32` (one value reserved as the
    /// unrouted sentinel), and silently truncating node ids there would
    /// corrupt the wiring. Spec-driven construction rejects such sizes
    /// earlier with a structured parse error.
    pub fn new(n: usize, delta: u8) -> Self {
        assert!(delta >= 2, "the paper requires delta >= 2");
        assert!(
            delta <= MAX_DELTA,
            "delta must be <= {MAX_DELTA} (connectivity masks are 64-bit)"
        );
        assert!(n >= 2, "the model requires at least two processors");
        assert!(
            n.checked_mul(delta as usize)
                .is_some_and(|slots| slots < u32::MAX as usize),
            "network too large: n * delta must fit in 32 bits"
        );
        TopologyBuilder {
            delta,
            n,
            outs: vec![None; n * delta as usize],
            ins: vec![None; n * delta as usize],
            out_used: vec![0; n],
            in_used: vec![0; n],
        }
    }

    /// δ of the network under construction.
    pub fn delta(&self) -> u8 {
        self.delta
    }

    /// Number of processors.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    #[inline]
    fn slot(&self, node: NodeId, port: Port) -> usize {
        node.idx() * self.delta as usize + port.idx()
    }

    #[inline]
    fn slots(&self, node: NodeId) -> std::ops::Range<usize> {
        let base = node.idx() * self.delta as usize;
        base..base + self.delta as usize
    }

    fn check_node(&self, n: NodeId) -> Result<(), TopologyError> {
        if n.idx() >= self.n {
            Err(TopologyError::UnknownNode(n))
        } else {
            Ok(())
        }
    }

    /// Wire out-port `src_port` of `src` to in-port `dst_port` of `dst`.
    pub fn connect(
        &mut self,
        src: NodeId,
        src_port: Port,
        dst: NodeId,
        dst_port: Port,
    ) -> Result<(), TopologyError> {
        self.check_node(src)?;
        self.check_node(dst)?;
        if src == dst {
            return Err(TopologyError::SelfLoop(src));
        }
        if src_port.idx() >= self.delta as usize {
            return Err(TopologyError::PortOutOfRange {
                node: src,
                port: src_port,
                delta: self.delta,
            });
        }
        if dst_port.idx() >= self.delta as usize {
            return Err(TopologyError::PortOutOfRange {
                node: dst,
                port: dst_port,
                delta: self.delta,
            });
        }
        if self.outs[self.slot(src, src_port)].is_some() {
            return Err(TopologyError::PortBusy {
                node: src,
                port: src_port,
                is_out: true,
            });
        }
        if self.ins[self.slot(dst, dst_port)].is_some() {
            return Err(TopologyError::PortBusy {
                node: dst,
                port: dst_port,
                is_out: false,
            });
        }
        let (so, si) = (self.slot(src, src_port), self.slot(dst, dst_port));
        self.outs[so] = Some(Endpoint::new(dst, dst_port));
        self.ins[si] = Some(Endpoint::new(src, src_port));
        self.out_used[src.idx()] += 1;
        self.in_used[dst.idx()] += 1;
        Ok(())
    }

    /// Wire `src` to `dst` using the lowest free out-port on `src` and the
    /// lowest free in-port on `dst`. Returns the chosen `(out, in)` ports.
    pub fn connect_auto(
        &mut self,
        src: NodeId,
        dst: NodeId,
    ) -> Result<(Port, Port), TopologyError> {
        self.check_node(src)?;
        self.check_node(dst)?;
        if src == dst {
            return Err(TopologyError::SelfLoop(src));
        }
        let o = self.outs[self.slots(src)]
            .iter()
            .position(Option::is_none)
            .ok_or(TopologyError::NodeFull {
                node: src,
                is_out: true,
            })?;
        let i = self.ins[self.slots(dst)]
            .iter()
            .position(Option::is_none)
            .ok_or(TopologyError::NodeFull {
                node: dst,
                is_out: false,
            })?;
        let (o, i) = (Port(o as u8), Port(i as u8));
        self.connect(src, o, dst, i)?;
        Ok((o, i))
    }

    /// True if `src` has a free out-port and `dst` a free in-port. O(1).
    pub fn can_connect(&self, src: NodeId, dst: NodeId) -> bool {
        src != dst
            && src.idx() < self.n
            && dst.idx() < self.n
            && self.out_used[src.idx()] < self.delta
            && self.in_used[dst.idx()] < self.delta
    }

    /// Number of wired out-ports of `node` so far. O(1).
    ///
    /// Panics if `node` does not exist.
    pub(crate) fn out_degree(&self, node: NodeId) -> usize {
        self.out_used[node.idx()] as usize
    }

    /// True if some wire `src → dst` already exists (any port pair).
    pub fn has_edge(&self, src: NodeId, dst: NodeId) -> bool {
        self.outs[self.slots(src)]
            .iter()
            .flatten()
            .any(|ep| ep.node == dst)
    }

    /// Finish and validate: compress the slot tables to CSR form.
    pub fn build(self) -> Result<Topology, TopologyError> {
        let delta = self.delta as usize;
        let wires = self.out_used.iter().map(|&c| c as usize).sum();
        let pack = |slots: &[Option<Endpoint>]| {
            let mut off = Vec::with_capacity(self.n + 1);
            let mut adj = Vec::with_capacity(wires);
            off.push(0u32);
            for node in 0..self.n {
                for port in 0..delta {
                    if let Some(ep) = slots[node * delta + port] {
                        adj.push(CsrEntry {
                            local: port as u8,
                            peer_port: ep.port.0,
                            peer: ep.node.0,
                        });
                    }
                }
                off.push(adj.len() as u32);
            }
            (off, adj)
        };
        let (out_off, out_adj) = pack(&self.outs);
        let (in_off, in_adj) = pack(&self.ins);
        let t = Topology {
            delta: self.delta,
            n: self.n as u32,
            out_off,
            out_adj,
            in_off,
            in_adj,
        };
        t.validate()?;
        Ok(t)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // asserts may panic freely
mod tests {
    use super::*;

    fn two_cycle() -> Topology {
        let mut b = TopologyBuilder::new(2, 2);
        b.connect(NodeId(0), Port(0), NodeId(1), Port(0)).unwrap();
        b.connect(NodeId(1), Port(0), NodeId(0), Port(0)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn minimal_two_cycle_builds() {
        let t = two_cycle();
        assert_eq!(t.num_nodes(), 2);
        assert_eq!(t.num_edges(), 2);
        assert_eq!(
            t.out_endpoint(NodeId(0), Port(0)),
            Some(Endpoint::new(NodeId(1), Port(0)))
        );
        assert_eq!(
            t.in_endpoint(NodeId(0), Port(0)),
            Some(Endpoint::new(NodeId(1), Port(0)))
        );
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = TopologyBuilder::new(2, 2);
        assert_eq!(
            b.connect(NodeId(0), Port(0), NodeId(0), Port(1)),
            Err(TopologyError::SelfLoop(NodeId(0)))
        );
        assert_eq!(
            b.connect_auto(NodeId(1), NodeId(1)),
            Err(TopologyError::SelfLoop(NodeId(1)))
        );
    }

    #[test]
    fn busy_port_rejected() {
        let mut b = TopologyBuilder::new(3, 2);
        b.connect(NodeId(0), Port(0), NodeId(1), Port(0)).unwrap();
        assert_eq!(
            b.connect(NodeId(0), Port(0), NodeId(2), Port(0)),
            Err(TopologyError::PortBusy {
                node: NodeId(0),
                port: Port(0),
                is_out: true
            })
        );
        assert_eq!(
            b.connect(NodeId(2), Port(0), NodeId(1), Port(0)),
            Err(TopologyError::PortBusy {
                node: NodeId(1),
                port: Port(0),
                is_out: false
            })
        );
    }

    #[test]
    fn port_out_of_range_rejected() {
        let mut b = TopologyBuilder::new(2, 2);
        assert!(matches!(
            b.connect(NodeId(0), Port(2), NodeId(1), Port(0)),
            Err(TopologyError::PortOutOfRange { .. })
        ));
    }

    #[test]
    fn unknown_node_rejected() {
        let mut b = TopologyBuilder::new(2, 2);
        assert_eq!(
            b.connect(NodeId(5), Port(0), NodeId(1), Port(0)),
            Err(TopologyError::UnknownNode(NodeId(5)))
        );
    }

    #[test]
    fn node_without_in_port_fails_validation() {
        let mut b = TopologyBuilder::new(3, 2);
        // n2 gets an out-edge but no in-edge.
        b.connect(NodeId(0), Port(0), NodeId(1), Port(0)).unwrap();
        b.connect(NodeId(1), Port(0), NodeId(0), Port(0)).unwrap();
        b.connect(NodeId(2), Port(0), NodeId(0), Port(1)).unwrap();
        assert!(matches!(b.build(), Err(TopologyError::Malformed(_))));
    }

    #[test]
    fn connect_auto_picks_lowest_free_ports() {
        let mut b = TopologyBuilder::new(3, 3);
        assert_eq!(
            b.connect_auto(NodeId(0), NodeId(1)).unwrap(),
            (Port(0), Port(0))
        );
        assert_eq!(
            b.connect_auto(NodeId(0), NodeId(1)).unwrap(),
            (Port(1), Port(1))
        );
        assert_eq!(
            b.connect_auto(NodeId(2), NodeId(1)).unwrap(),
            (Port(0), Port(2))
        );
        // n1 is now full on the in-side.
        assert_eq!(
            b.connect_auto(NodeId(2), NodeId(1)),
            Err(TopologyError::NodeFull {
                node: NodeId(1),
                is_out: false
            })
        );
    }

    #[test]
    fn parallel_edges_supported() {
        let mut b = TopologyBuilder::new(2, 2);
        b.connect_auto(NodeId(0), NodeId(1)).unwrap();
        b.connect_auto(NodeId(0), NodeId(1)).unwrap();
        b.connect_auto(NodeId(1), NodeId(0)).unwrap();
        let t = b.build().unwrap();
        assert_eq!(t.num_edges(), 3);
        assert_eq!(t.out_degree(NodeId(0)), 2);
        assert_eq!(t.in_degree(NodeId(1)), 2);
    }

    #[test]
    fn edges_listing_sorted_and_mirrored() {
        let t = two_cycle();
        let e = t.sorted_edges();
        assert_eq!(e.len(), 2);
        assert_eq!(e[0].src, NodeId(0));
        assert_eq!(e[1].src, NodeId(1));
        t.validate().unwrap();
    }

    #[test]
    fn connectivity_views_match_wiring() {
        let mut b = TopologyBuilder::new(2, 3);
        b.connect(NodeId(0), Port(2), NodeId(1), Port(1)).unwrap();
        b.connect(NodeId(1), Port(0), NodeId(0), Port(0)).unwrap();
        let t = b.build().unwrap();
        assert_eq!(
            t.out_connected(NodeId(0)).collect::<Vec<_>>(),
            vec![false, false, true]
        );
        assert_eq!(
            t.in_connected(NodeId(1)).collect::<Vec<_>>(),
            vec![false, true, false]
        );
        assert_eq!(t.out_mask(NodeId(0)).iter().collect::<Vec<_>>(), [Port(2)]);
        assert_eq!(t.in_mask(NodeId(0)).iter().collect::<Vec<_>>(), [Port(0)]);
    }

    #[test]
    fn walk_out_ports_follows_wires() {
        let t = two_cycle();
        assert_eq!(t.walk_out_ports(NodeId(0), &[Port(0)]), Some(NodeId(1)));
        assert_eq!(
            t.walk_out_ports(NodeId(0), &[Port(0), Port(0)]),
            Some(NodeId(0))
        );
        assert_eq!(t.walk_out_ports(NodeId(0), &[Port(1)]), None);
        assert_eq!(t.walk_out_ports(NodeId(0), &[]), Some(NodeId(0)));
    }

    #[test]
    fn clone_roundtrip_validates() {
        // Rebuilding from the edge list reproduces an identical, valid
        // topology (the structural analogue of a serialization roundtrip).
        let t = two_cycle();
        let mut b = TopologyBuilder::new(t.num_nodes(), t.delta());
        for e in t.edges() {
            b.connect(e.src, e.src_port, e.dst, e.dst_port).unwrap();
        }
        let t2 = b.build().unwrap();
        assert_eq!(t, t2);
        t2.validate().unwrap();
    }

    /// A `Topology` assembled from per-node rows exactly as given: no
    /// sorting and no validation, so a test can hand `validate` anything.
    fn from_rows(delta: u8, outs: &[Vec<CsrEntry>], ins: &[Vec<CsrEntry>]) -> Topology {
        let flat = |rows: &[Vec<CsrEntry>]| {
            let mut off = vec![0u32];
            let mut adj = Vec::new();
            for row in rows {
                adj.extend_from_slice(row);
                off.push(adj.len() as u32);
            }
            (off, adj)
        };
        let ((out_off, out_adj), (in_off, in_adj)) = (flat(outs), flat(ins));
        Topology {
            delta,
            n: outs.len() as u32,
            out_off,
            out_adj,
            in_off,
            in_adj,
        }
    }

    /// `validate`'s one-pass acceptance never admits a network the
    /// node-ordered scan rejects, so both report the same first defect.
    /// Corruptions of a valid network with rows of 1 to δ wires: a field
    /// of one entry or an extra entry on one side only, or, keeping both
    /// ends mirrored, a removed wire, an added wire (self-loops included)
    /// or a relabelled port (duplicates and ports ≥ δ included).
    #[test]
    fn validate_reports_the_node_ordered_first_defect() {
        use crate::rng::DetRng;
        let (n, delta) = (10u32, 3u8);
        let mut b = TopologyBuilder::new(n as usize, delta);
        for u in 0..n {
            b.connect_auto(NodeId(u), NodeId((u + 1) % n)).unwrap();
            if u % 3 == 0 {
                b.connect_auto(NodeId(u), NodeId((u + 4) % n)).unwrap();
            }
        }
        let base = b.build().unwrap();
        assert!(base.wired_consistently());
        let rows = |out: bool| -> Vec<Vec<CsrEntry>> {
            base.node_ids()
                .map(|v| if out { base.out_row(v) } else { base.in_row(v) }.to_vec())
                .collect()
        };
        let mut rng = DetRng::seed_from_u64(0x7661_6c69_6461_7465);
        let mut outcomes = [0usize; 2];
        for case in 0..4000 {
            let (mut outs, mut ins) = (rows(true), rows(false));
            let port = |rng: &mut DetRng| rng.random_range(0..delta as u32 + 2) as u8;
            let node = |rng: &mut DetRng| rng.random_range(0..n) as usize;
            // A random wire: (u, index in u's out-row, v, index in v's in-row).
            let wire = |rng: &mut DetRng, outs: &[Vec<CsrEntry>], ins: &[Vec<CsrEntry>]| {
                let u = (0..)
                    .map(|_| node(rng))
                    .find(|&u| !outs[u].is_empty())
                    .unwrap();
                let k = rng.random_range(0..outs[u].len() as u32) as usize;
                let (v, i) = (outs[u][k].peer as usize, outs[u][k].peer_port);
                let j = ins[v].iter().position(|e| e.local == i).unwrap();
                (u, k, v, j)
            };
            match rng.random_range(0..5) {
                0 => {
                    let side = if rng.random_bool(0.5) {
                        &mut outs
                    } else {
                        &mut ins
                    };
                    let v = (0..)
                        .map(|_| node(&mut rng))
                        .find(|&v| !side[v].is_empty())
                        .unwrap();
                    let k = rng.random_range(0..side[v].len() as u32) as usize;
                    match rng.random_range(0..3) {
                        0 => side[v][k].local = port(&mut rng),
                        1 => side[v][k].peer_port = port(&mut rng),
                        _ => side[v][k].peer = rng.random_range(0..n),
                    }
                }
                1 => {
                    let side = if rng.random_bool(0.5) {
                        &mut outs
                    } else {
                        &mut ins
                    };
                    let entry = CsrEntry {
                        local: port(&mut rng),
                        peer_port: port(&mut rng),
                        peer: rng.random_range(0..n),
                    };
                    side[node(&mut rng)].push(entry);
                }
                2 => {
                    let (u, k, v, j) = wire(&mut rng, &outs, &ins);
                    outs[u].remove(k);
                    ins[v].remove(j);
                }
                3 => {
                    let (u, v) = (node(&mut rng), node(&mut rng));
                    let (o, i) = (port(&mut rng), port(&mut rng));
                    outs[u].push(CsrEntry {
                        local: o,
                        peer_port: i,
                        peer: v as u32,
                    });
                    ins[v].push(CsrEntry {
                        local: i,
                        peer_port: o,
                        peer: u as u32,
                    });
                }
                _ => {
                    let (u, k, v, j) = wire(&mut rng, &outs, &ins);
                    let p = port(&mut rng);
                    if rng.random_bool(0.5) {
                        (outs[u][k].local, ins[v][j].peer_port) = (p, p);
                    } else {
                        (ins[v][j].local, outs[u][k].peer_port) = (p, p);
                    }
                }
            }
            let t = from_rows(delta, &outs, &ins);
            let first = t.first_defect();
            assert_eq!(t.validate(), first, "case {case}");
            outcomes[usize::from(first.is_err())] += 1;
        }
        assert!(
            outcomes.iter().all(|&c| c > 500),
            "valid/defective: {outcomes:?}"
        );
    }

    /// The O(1) free-port counts against a scan of the slot tables, after
    /// every call of a random sequence of explicit and automatic connects
    /// that includes each way a connect can fail.
    #[test]
    fn can_connect_agrees_with_a_slot_scan_through_failing_connects() {
        use crate::rng::DetRng;
        let (n, delta) = (6u32, 3u8);
        let mut b = TopologyBuilder::new(n as usize, delta);
        // Reference: scan `node`'s slots on one side (`None` past the last node).
        let scan = |b: &TopologyBuilder, node: NodeId, out: bool| {
            let table = if out { &b.outs } else { &b.ins };
            (node.idx() < b.n).then(|| table[b.slots(node)].to_vec())
        };
        let free = |b: &TopologyBuilder, node: NodeId, out: bool| {
            scan(b, node, out).is_some_and(|row| row.contains(&None))
        };
        let wired = |b: &TopologyBuilder, node: NodeId, out: bool| {
            scan(b, node, out).map_or(0, |row| row.iter().flatten().count())
        };
        let mut rng = DetRng::seed_from_u64(0x636f_756e_7473);
        let mut failures = std::collections::BTreeSet::new();
        for step in 0..600 {
            // One draw past the last node exercises the range checks too.
            let src = NodeId(rng.random_range(0..n + 1));
            let dst = NodeId(rng.random_range(0..n + 1));
            let counts = (b.out_used.clone(), b.in_used.clone());
            let result = if rng.random_bool(0.5) {
                b.connect_auto(src, dst).map(|_| ())
            } else {
                // Ports up to δ inclusive: δ itself is out of range.
                let o = Port(rng.random_range(0..delta as u32 + 1) as u8);
                let i = Port(rng.random_range(0..delta as u32 + 1) as u8);
                b.connect(src, o, dst, i)
            };
            if let Err(e) = result {
                failures.insert(match e {
                    TopologyError::UnknownNode(_) => "UnknownNode",
                    TopologyError::PortOutOfRange { .. } => "PortOutOfRange",
                    TopologyError::PortBusy { .. } => "PortBusy",
                    TopologyError::SelfLoop(_) => "SelfLoop",
                    TopologyError::NodeFull { .. } => "NodeFull",
                    TopologyError::Malformed(_) => "Malformed",
                });
                assert_eq!(
                    (&b.out_used, &b.in_used),
                    (&counts.0, &counts.1),
                    "step {step}: failed {e:?} moved the counts"
                );
            }
            for v in (0..n).map(NodeId) {
                assert_eq!(b.out_degree(v), wired(&b, v, true), "step {step}");
                assert_eq!(
                    b.in_used[v.idx()] as usize,
                    wired(&b, v, false),
                    "step {step}"
                );
            }
            for s in (0..n + 1).map(NodeId) {
                for d in (0..n + 1).map(NodeId) {
                    let scan = s != d && free(&b, s, true) && free(&b, d, false);
                    assert_eq!(b.can_connect(s, d), scan, "step {step}: {s} -> {d}");
                }
            }
        }
        for kind in [
            "PortBusy",
            "SelfLoop",
            "PortOutOfRange",
            "NodeFull",
            "UnknownNode",
        ] {
            assert!(failures.contains(kind), "{kind} never hit: {failures:?}");
        }
    }

    #[test]
    #[should_panic(expected = "delta >= 2")]
    fn delta_below_two_panics() {
        let _ = TopologyBuilder::new(2, 1);
    }

    #[test]
    #[should_panic(expected = "two processors")]
    fn single_node_panics() {
        let _ = TopologyBuilder::new(1, 2);
    }

    #[test]
    #[should_panic(expected = "fit in 32 bits")]
    fn oversized_network_panics() {
        let _ = TopologyBuilder::new(u32::MAX as usize, 2);
    }
}
