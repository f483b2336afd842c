//! The master computer (paper §3, "What is the master computer's strategy
//! for mapping the network given the computational transcript…").
//!
//! The computer replays the root's transcript, drawing the topological map
//! as the algorithm proceeds:
//!
//! * it allocates **names** to processors as they are discovered — a name
//!   is the canonical shortest path root→A, read off the ID→OD conversion
//!   (Lemma 4.1); the protocol is deterministic, so the same processor
//!   always presents the same path;
//! * it keeps a **stack** of processor positions mirroring the DFS token:
//!   FORWARD pushes the reporting processor after drawing the directed
//!   edge from the previous stack top; BACK pops;
//! * root-local moves (LocalForward/LocalBack) do the same bookkeeping for
//!   edges into the root, which the root transcribes without a network RCA
//!   (README, reconstruction choice 2).
//!
//! The decoder is strict: out-of-order events, duplicate edges, stack
//! underflow, or inconsistent canonical paths are hard [`DecodeError`]s —
//! corrupted transcripts must never silently produce a wrong map.

use crate::events::TranscriptEvent;
use gtd_netsim::{Edge, NodeId, Port, Topology, TopologyBuilder};
use gtd_snake::{Hop, PortPath};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// One directed wire in the reconstructed map, in master-computer names.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MapEdge {
    /// Name of the sending processor (0 = root).
    pub src: u32,
    /// Out-port on the sender.
    pub src_port: Port,
    /// Name of the receiving processor.
    pub dst: u32,
    /// In-port on the receiver.
    pub dst_port: Port,
}

/// The finished map: names with their canonical paths, plus every wire.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NetworkMap {
    /// `paths[name]` = canonical root→processor port path; `paths[0]` = ε.
    pub paths: Vec<PortPath>,
    /// All wires, sorted.
    pub edges: Vec<MapEdge>,
}

/// Transcript decoding failures (strictness is a feature: a root transcript
/// that cannot be replayed exactly is evidence of a protocol bug).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// Event arrived in a phase where it is not legal.
    UnexpectedEvent(&'static str),
    /// Transcript fed after `Terminated`.
    AfterTermination,
    /// A BACK with an empty (or root-only) stack.
    StackUnderflow,
    /// A BACK whose revealed position does not match the reporting node.
    StackMismatch,
    /// The same out-port of the same processor reported two edges.
    DuplicateEdge(MapEdge),
    /// A processor re-appeared with a different canonical A→root path.
    InconsistentReturnPath(u32),
    /// `Terminated` with the DFS stack not back at the root.
    UnbalancedAtTermination,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnexpectedEvent(w) => write!(f, "unexpected transcript event: {w}"),
            DecodeError::AfterTermination => write!(f, "transcript event after termination"),
            DecodeError::StackUnderflow => write!(f, "DFS stack underflow"),
            DecodeError::StackMismatch => write!(f, "BACK revealed an unexpected stack top"),
            DecodeError::DuplicateEdge(e) => write!(f, "out-port reported twice: {e:?}"),
            DecodeError::InconsistentReturnPath(n) => {
                write!(f, "processor {n} changed its canonical return path")
            }
            DecodeError::UnbalancedAtTermination => {
                write!(f, "termination with unfinished DFS stack")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Map-vs-ground-truth verification failures.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VerifyError {
    /// A canonical path does not walk to a processor in the real network.
    PathUnresolvable(u32),
    /// Two names resolved to the same real processor.
    DuplicateName(u32, u32),
    /// The map found a different number of processors than the network has.
    NodeCountMismatch {
        /// Processors in the map.
        mapped: usize,
        /// Processors in the network.
        actual: usize,
    },
    /// The mapped edge set differs from the real edge set.
    EdgeSetMismatch {
        /// Edges in the real network but not the map.
        missing: usize,
        /// Edges in the map but not the network.
        extra: usize,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::PathUnresolvable(n) => write!(f, "name {n}: path does not resolve"),
            VerifyError::DuplicateName(a, b) => write!(f, "names {a} and {b} are one processor"),
            VerifyError::NodeCountMismatch { mapped, actual } => {
                write!(f, "mapped {mapped} processors, network has {actual}")
            }
            VerifyError::EdgeSetMismatch { missing, extra } => {
                write!(f, "edge sets differ: {missing} missing, {extra} extra")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

impl NetworkMap {
    /// Processors discovered (including the root).
    pub fn num_nodes(&self) -> usize {
        self.paths.len()
    }

    /// Wires discovered.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Resolve every master-computer name against the ground-truth
    /// network and return the mapped wires in **ground-truth labels**,
    /// sorted — the common currency of the `TopologyMapper` comparisons.
    ///
    /// Errors if a canonical path does not walk to a processor, two names
    /// collide, or the processor count disagrees; the returned edge set
    /// may still differ from the network's (that final check is
    /// [`NetworkMap::verify_against`]'s job).
    pub fn resolve_edges(&self, topo: &Topology, root: NodeId) -> Result<Vec<Edge>, VerifyError> {
        let mut resolved: Vec<NodeId> = Vec::with_capacity(self.paths.len());
        let mut seen: HashMap<NodeId, u32> = HashMap::new();
        for (name, path) in self.paths.iter().enumerate() {
            let id = path
                .resolve(topo, root)
                .ok_or(VerifyError::PathUnresolvable(name as u32))?;
            if let Some(&prev) = seen.get(&id) {
                return Err(VerifyError::DuplicateName(prev, name as u32));
            }
            seen.insert(id, name as u32);
            resolved.push(id);
        }
        if resolved.len() != topo.num_nodes() {
            return Err(VerifyError::NodeCountMismatch {
                mapped: resolved.len(),
                actual: topo.num_nodes(),
            });
        }
        let mut mapped: Vec<Edge> = self
            .edges
            .iter()
            .map(|e| Edge {
                src: resolved[e.src as usize],
                src_port: e.src_port,
                dst: resolved[e.dst as usize],
                dst_port: e.dst_port,
            })
            .collect();
        mapped.sort_unstable();
        Ok(mapped)
    }

    /// Theorem 4.1 check: resolve every name against the ground-truth
    /// network and require the edge sets to agree **exactly** (port level).
    pub fn verify_against(&self, topo: &Topology, root: NodeId) -> Result<(), VerifyError> {
        let mapped = self.resolve_edges(topo, root)?;
        let actual = topo.sorted_edges();
        if mapped != actual {
            let mapped_set: std::collections::BTreeSet<_> = mapped.iter().collect();
            let actual_set: std::collections::BTreeSet<_> = actual.iter().collect();
            return Err(VerifyError::EdgeSetMismatch {
                missing: actual_set.difference(&mapped_set).count(),
                extra: mapped_set.difference(&actual_set).count(),
            });
        }
        Ok(())
    }

    /// Materialize the map as a [`Topology`] in master-computer names (what
    /// a downstream user of the protocol would consume, e.g. for routing).
    pub fn to_topology(&self) -> Result<Topology, gtd_netsim::TopologyError> {
        let delta = self
            .edges
            .iter()
            .flat_map(|e| [e.src_port.0, e.dst_port.0])
            .max()
            .map_or(2, |m| (m + 1).max(2));
        let mut b = TopologyBuilder::new(self.paths.len().max(2), delta);
        for e in &self.edges {
            b.connect(NodeId(e.src), e.src_port, NodeId(e.dst), e.dst_port)?;
        }
        b.build()
    }
}

/// Phase of the transcript decoder within one RCA.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Phase {
    /// Between RCAs.
    Idle,
    /// Reading the A→root path off the IG→OG conversion.
    Ig(Vec<Hop>),
    /// IG tail seen; waiting for the ID snake.
    AwaitId(Vec<Hop>),
    /// Reading the root→A path off the ID→OD conversion.
    Id(Vec<Hop>, Vec<Hop>),
    /// Both paths complete; waiting for the FORWARD/BACK loop token.
    AwaitLoop(Vec<Hop>, Vec<Hop>),
}

/// The unbounded-memory computer attached to the root.
#[derive(Clone, Debug)]
pub struct MasterComputer {
    started: bool,
    terminated: bool,
    phase: Phase,
    names: HashMap<PortPath, u32>,
    paths: Vec<PortPath>,
    /// Canonical A→root path recorded per name, for the determinism check.
    return_paths: Vec<Option<PortPath>>,
    stack: Vec<u32>,
    /// `(src, src_port) → (dst, dst_port)`; each out-port maps one wire.
    edges: HashMap<(u32, Port), (u32, Port)>,
}

impl Default for MasterComputer {
    fn default() -> Self {
        Self::new()
    }
}

impl MasterComputer {
    /// A computer waiting for its communication processor to start.
    pub fn new() -> Self {
        MasterComputer {
            started: false,
            terminated: false,
            phase: Phase::Idle,
            names: HashMap::new(),
            paths: Vec::new(),
            return_paths: Vec::new(),
            stack: Vec::new(),
            edges: HashMap::new(),
        }
    }

    /// Has the protocol terminated?
    pub fn terminated(&self) -> bool {
        self.terminated
    }

    fn intern(&mut self, path: PortPath, return_path: PortPath) -> Result<u32, DecodeError> {
        match self.names.entry(path.clone()) {
            Entry::Occupied(o) => {
                let name = *o.get();
                // Determinism check (Definition 4.1): the canonical paths
                // must be reproduced exactly on every visit.
                match &self.return_paths[name as usize] {
                    Some(rp) if *rp != return_path => {
                        Err(DecodeError::InconsistentReturnPath(name))
                    }
                    _ => Ok(name),
                }
            }
            Entry::Vacant(v) => {
                let name = self.paths.len() as u32;
                v.insert(name);
                self.paths.push(path);
                self.return_paths.push(Some(return_path));
                Ok(name)
            }
        }
    }

    fn draw_edge(
        &mut self,
        src: u32,
        src_port: Port,
        dst: u32,
        dst_port: Port,
    ) -> Result<(), DecodeError> {
        match self.edges.entry((src, src_port)) {
            Entry::Occupied(_) => Err(DecodeError::DuplicateEdge(MapEdge {
                src,
                src_port,
                dst,
                dst_port,
            })),
            Entry::Vacant(v) => {
                v.insert((dst, dst_port));
                Ok(())
            }
        }
    }

    /// Feed one transcript symbol from the root.
    pub fn feed(&mut self, ev: TranscriptEvent) -> Result<(), DecodeError> {
        if self.terminated {
            return Err(DecodeError::AfterTermination);
        }
        if !self.started {
            return match ev {
                TranscriptEvent::Start => {
                    self.started = true;
                    // "the stack will initially consist of only the root"
                    self.names.insert(PortPath::empty(), 0);
                    self.paths.push(PortPath::empty());
                    self.return_paths.push(None);
                    self.stack.push(0);
                    Ok(())
                }
                _ => Err(DecodeError::UnexpectedEvent("before Start")),
            };
        }
        let phase = std::mem::replace(&mut self.phase, Phase::Idle);
        match (phase, ev) {
            (Phase::Idle, TranscriptEvent::IgHop(h)) => {
                self.phase = Phase::Ig(vec![h]);
                Ok(())
            }
            (Phase::Ig(mut v), TranscriptEvent::IgHop(h)) => {
                v.push(h);
                self.phase = Phase::Ig(v);
                Ok(())
            }
            (Phase::Ig(v), TranscriptEvent::IgTail) => {
                self.phase = Phase::AwaitId(v);
                Ok(())
            }
            (Phase::AwaitId(v), TranscriptEvent::IdHop(h)) => {
                self.phase = Phase::Id(v, vec![h]);
                Ok(())
            }
            (Phase::Id(v, mut w), TranscriptEvent::IdHop(h)) => {
                w.push(h);
                self.phase = Phase::Id(v, w);
                Ok(())
            }
            (Phase::Id(v, w), TranscriptEvent::IdTail) => {
                self.phase = Phase::AwaitLoop(v, w);
                Ok(())
            }
            (Phase::AwaitLoop(v, w), TranscriptEvent::LoopForward { out_port, in_port }) => {
                let name = self.intern(PortPath::from_hops(w), PortPath::from_hops(v))?;
                let &top = self.stack.last().ok_or(DecodeError::StackUnderflow)?;
                self.draw_edge(top, out_port, name, in_port)?;
                self.stack.push(name);
                Ok(())
            }
            (Phase::AwaitLoop(v, w), TranscriptEvent::LoopBack) => {
                let name = self.intern(PortPath::from_hops(w), PortPath::from_hops(v))?;
                self.stack.pop().ok_or(DecodeError::StackUnderflow)?;
                let &top = self.stack.last().ok_or(DecodeError::StackUnderflow)?;
                if top != name {
                    return Err(DecodeError::StackMismatch);
                }
                Ok(())
            }
            (Phase::Idle, TranscriptEvent::LocalForward { out_port, in_port }) => {
                let &top = self.stack.last().ok_or(DecodeError::StackUnderflow)?;
                self.draw_edge(top, out_port, 0, in_port)?;
                self.stack.push(0);
                Ok(())
            }
            (Phase::Idle, TranscriptEvent::LocalBack) => {
                self.stack.pop().ok_or(DecodeError::StackUnderflow)?;
                let &top = self.stack.last().ok_or(DecodeError::StackUnderflow)?;
                if top != 0 {
                    return Err(DecodeError::StackMismatch);
                }
                Ok(())
            }
            (Phase::Idle, TranscriptEvent::Terminated) => {
                if self.stack != [0] {
                    return Err(DecodeError::UnbalancedAtTermination);
                }
                self.terminated = true;
                Ok(())
            }
            (Phase::Idle, TranscriptEvent::Start) => {
                Err(DecodeError::UnexpectedEvent("duplicate Start"))
            }
            _ => Err(DecodeError::UnexpectedEvent("event out of phase")),
        }
    }

    /// Finish decoding and hand over the map. Errors if the protocol never
    /// terminated (the map would be partial).
    pub fn into_map(self) -> Result<NetworkMap, DecodeError> {
        if !self.terminated {
            return Err(DecodeError::UnexpectedEvent("transcript incomplete"));
        }
        Ok(self.into_partial_map())
    }

    /// Hand over whatever map the transcript built so far, terminated or
    /// not — the graceful-degradation path for faulted sessions that ran
    /// out of retries: every edge in it was reported by a completed RCA,
    /// so the partial map is exact on what it covers, merely incomplete.
    pub fn into_partial_map(self) -> NetworkMap {
        let mut edges: Vec<MapEdge> = self
            .edges
            .into_iter()
            .map(|((src, src_port), (dst, dst_port))| MapEdge {
                src,
                src_port,
                dst,
                dst_port,
            })
            .collect();
        edges.sort_unstable();
        NetworkMap {
            paths: self.paths,
            edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtd_netsim::Port;

    fn hop(o: u8, i: u8) -> Hop {
        Hop::new(Port(o), Port(i))
    }

    /// Hand-written transcript for the 2-cycle (root ↔ n1): the DFS visits
    /// n1 (FORWARD), n1 explores its out-port back into the root
    /// (LocalForward, then the root bounces the token via BCA and n1
    /// reports BACK), and finally n1 backtracks to the root (LocalBack).
    fn two_cycle_transcript() -> Vec<TranscriptEvent> {
        use TranscriptEvent::*;
        vec![
            Start,
            // n1's FORWARD RCA: path n1→root = (0,0); path root→n1 = (0,0)
            IgHop(hop(0, 0)),
            IgTail,
            IdHop(hop(0, 0)),
            IdTail,
            LoopForward {
                out_port: Port(0),
                in_port: Port(0),
            },
            // n1 explores its out-port: token re-enters the root…
            LocalForward {
                out_port: Port(0),
                in_port: Port(0),
            },
            // …the root bounces it back via BCA, and n1 reports BACK
            IgHop(hop(0, 0)),
            IgTail,
            IdHop(hop(0, 0)),
            IdTail,
            LoopBack,
            // n1 is finished: the BCA returns the token to the root
            LocalBack,
            Terminated,
        ]
    }

    #[test]
    fn decodes_two_cycle() {
        let mut m = MasterComputer::new();
        for ev in two_cycle_transcript() {
            m.feed(ev).unwrap();
        }
        assert!(m.terminated());
        let map = m.into_map().unwrap();
        assert_eq!(map.num_nodes(), 2);
        assert_eq!(map.num_edges(), 2);
        let topo = gtd_netsim::generators::ring(2);
        map.verify_against(&topo, NodeId(0)).unwrap();
        // and the map materializes as a valid topology
        let rebuilt = map.to_topology().unwrap();
        assert_eq!(rebuilt.num_edges(), 2);
    }

    #[test]
    fn rejects_event_before_start() {
        let mut m = MasterComputer::new();
        assert!(matches!(
            m.feed(TranscriptEvent::IgTail),
            Err(DecodeError::UnexpectedEvent(_))
        ));
    }

    #[test]
    fn rejects_out_of_phase_events() {
        let mut m = MasterComputer::new();
        m.feed(TranscriptEvent::Start).unwrap();
        m.feed(TranscriptEvent::IgHop(hop(0, 0))).unwrap();
        // an IdHop while still reading the IG path is illegal
        assert!(matches!(
            m.feed(TranscriptEvent::IdHop(hop(0, 0))),
            Err(DecodeError::UnexpectedEvent(_))
        ));
    }

    #[test]
    fn rejects_duplicate_edge() {
        let mut m = MasterComputer::new();
        m.feed(TranscriptEvent::Start).unwrap();
        m.feed(TranscriptEvent::LocalForward {
            out_port: Port(0),
            in_port: Port(0),
        })
        .unwrap();
        m.feed(TranscriptEvent::LocalBack).unwrap();
        assert!(matches!(
            m.feed(TranscriptEvent::LocalForward {
                out_port: Port(0),
                in_port: Port(1)
            }),
            Err(DecodeError::DuplicateEdge(_))
        ));
    }

    #[test]
    fn rejects_back_mismatch() {
        use TranscriptEvent::*;
        let mut m = MasterComputer::new();
        m.feed(Start).unwrap();
        // BACK RCA claiming to be a processor that is not under the top
        m.feed(IgHop(hop(0, 0))).unwrap();
        m.feed(IgTail).unwrap();
        m.feed(IdHop(hop(0, 0))).unwrap();
        m.feed(IdTail).unwrap();
        assert!(matches!(
            m.feed(LoopBack),
            Err(DecodeError::StackMismatch) | Err(DecodeError::StackUnderflow)
        ));
    }

    #[test]
    fn rejects_unbalanced_termination() {
        use TranscriptEvent::*;
        let mut m = MasterComputer::new();
        m.feed(Start).unwrap();
        m.feed(LocalForward {
            out_port: Port(0),
            in_port: Port(0),
        })
        .unwrap();
        assert_eq!(
            m.feed(Terminated),
            Err(DecodeError::UnbalancedAtTermination)
        );
    }

    #[test]
    fn rejects_inconsistent_return_path() {
        use TranscriptEvent::*;
        let mut m = MasterComputer::new();
        m.feed(Start).unwrap();
        for ev in [
            IgHop(hop(0, 0)),
            IgTail,
            IdHop(hop(0, 0)),
            IdTail,
            LoopForward {
                out_port: Port(0),
                in_port: Port(0),
            },
        ] {
            m.feed(ev).unwrap();
        }
        // same processor (same root→A path) with a different A→root path
        for ev in [IgHop(hop(1, 1)), IgTail, IdHop(hop(0, 0)), IdTail] {
            m.feed(ev).unwrap();
        }
        assert_eq!(
            m.feed(LoopBack),
            Err(DecodeError::InconsistentReturnPath(1))
        );
    }

    #[test]
    fn incomplete_transcript_cannot_become_a_map() {
        let mut m = MasterComputer::new();
        m.feed(TranscriptEvent::Start).unwrap();
        assert!(m.into_map().is_err());
    }

    #[test]
    fn rejects_events_after_termination() {
        let mut m = MasterComputer::new();
        m.feed(TranscriptEvent::Start).unwrap();
        m.feed(TranscriptEvent::Terminated).unwrap();
        assert_eq!(
            m.feed(TranscriptEvent::Start),
            Err(DecodeError::AfterTermination)
        );
    }
}
