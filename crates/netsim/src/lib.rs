//! # gtd-netsim
//!
//! Substrate for reproducing Goldstein's *Determination of the Topology of a
//! Directed Network* (IPPS 2002): a simulator for strongly-connected directed
//! networks of identical synchronous finite-state automata.
//!
//! The crate provides three things:
//!
//! 1. **Topologies** ([`Topology`], [`TopologyBuilder`]) — port-labelled
//!    directed multigraphs. Every edge is a unidirectional wire from a
//!    numbered *out-port* of one processor to a numbered *in-port* of
//!    another, exactly matching the paper's network model (§1.1). Port
//!    counts are uniformly bounded by a network constant δ ≥ 2.
//!    Workload families come either as imperative [`generators`] calls or
//!    as declarative, parse/render round-trippable [`TopologySpec`] values
//!    (`"ring:64"`, `"random-sc:n=512,delta=3,seed=7"`, …) backed by the
//!    same generators — see [`spec`] for the grammar and the registry.
//! 2. **Graph algorithms** ([`algo`]) — strong-connectivity, BFS layers,
//!    exact diameters, and the *canonical* breadth-first trees that the
//!    paper's growing snakes carve (first arrival wins, ties broken by the
//!    lowest-numbered in-port). These are used as ground truth against
//!    which protocol behaviour is verified.
//! 3. **The lockstep engine** ([`engine`]) — a synchronous simulator in
//!    which, on every global clock tick, each automaton reads one
//!    constant-size character per in-port, performs a state change, and
//!    writes one character per out-port. It steps only the active
//!    frontier, over one shard or k shards fanned out on a persistent
//!    worker pool, and its transcripts are identical at every shard
//!    count. Tests check it against [`oracle`], a naive simulator that
//!    shares no routing code with it.
//!
//! Nothing in this crate knows about snakes or the GTD protocol; it is the
//! "hardware" on which `gtd-snake` and `gtd-core` run.
//!
//! ```
//! use gtd_netsim::{algo, generators, NodeId, Port, TopologyBuilder};
//!
//! // Wire a network by hand…
//! let mut b = TopologyBuilder::new(3, 2);
//! b.connect(NodeId(0), Port(0), NodeId(1), Port(0)).unwrap();
//! b.connect(NodeId(1), Port(0), NodeId(2), Port(0)).unwrap();
//! b.connect(NodeId(2), Port(0), NodeId(0), Port(0)).unwrap();
//! let triangle = b.build().unwrap();
//! assert!(algo::is_strongly_connected(&triangle));
//!
//! // …or generate one, and query the ground truth the protocol is
//! // verified against.
//! let topo = generators::random_sc(24, 3, 7);
//! assert!(algo::is_strongly_connected(&topo));
//! let paths = algo::canonical_path(&topo, NodeId(0), NodeId(5)).unwrap();
//! assert_eq!(paths.len() as u32, algo::bfs_dist(&topo, NodeId(0))[5]);
//! ```
//!
//! The simulator is library substrate for long fault-injection runs, so
//! the crate warns on `unwrap`/`expect`: every keep is a structural
//! invariant with a local `#[allow]` naming why it cannot fire.
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod algo;
pub mod engine;
pub mod generators;
pub mod ids;
pub mod mutation;
pub mod oracle;
mod pool;
pub mod rng;
pub mod spec;
pub mod topology;

pub use engine::{Automaton, Engine, EngineMode, FaultPlane, NodeMeta, StepCtx};
pub use ids::{Endpoint, NodeId, Port, PortMask};
pub use mutation::{
    burst_r_parts, burst_r_selector, restart_victim, AppliedMutation, MembershipChange,
    MutationError, MutationKind, MutationSchedule, MutationSpec, MutationSuffixError,
    ScheduledMutation, TopologyMutation, MUTATION_REGISTRY,
};
pub use spec::{
    DynamicSpec, FamilySpec, FaultKnobSpec, ParamSpec, ParseSpecError, TopologySpec, FAULT_REGISTRY,
};
pub use topology::{Edge, Topology, TopologyBuilder, TopologyError, MAX_DELTA};
