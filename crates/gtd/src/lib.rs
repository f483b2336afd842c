//! # gtd — the facade crate
//!
//! One import for the whole reproduction of Goldstein's *Determination of
//! the Topology of a Directed Network* (IPPS 2002):
//!
//! * [`netsim`] — the lockstep simulator: port-labelled directed
//!   multigraphs ([`Topology`]), graph ground truth ([`algo`]), workload
//!   [`generators`] and their declarative [`TopologySpec`] layer, and the
//!   three-strategy synchronous engine;
//! * [`snake`] — the finite-state snake/token data structures (paper §2);
//! * [`protocol`] — the GTD protocol itself: [`GtdSession`] builder,
//!   [`RunOutcome`], the protocol automaton and the master computer;
//! * [`baselines`] — unbounded-memory comparison mappers, the §5
//!   lower-bound machinery, and the [`TopologyMapper`] trait that runs
//!   GTD, flood-echo and source-routed DFS through one
//!   probe-and-reconstruct interface;
//! * [`bench`] — the experiment layer: spec-backed workloads and the
//!   [`Campaign`] grid runner (specs × mappers × engine modes × roots ×
//!   repetitions, executed across a worker pool with deterministic,
//!   order-independent results);
//! * [`serve`] — the crash-tolerant campaign service: a coordinator that
//!   shards grid cells across worker processes over a line-delimited
//!   JSON protocol, with per-cell leases, heartbeats, bounded re-issue
//!   and a persistent cell cache (`harness serve` / `harness work` /
//!   `harness grid --via`).
//!
//! ```
//! use gtd::{Campaign, GtdSession, NodeId, TopologyMapper, TopologySpec};
//!
//! let spec: TopologySpec = "random-sc:n=20,delta=3,seed=1".parse().unwrap();
//! let topo = spec.build();
//!
//! // Run the protocol through the session builder…
//! let run = GtdSession::on(&topo).root(NodeId(2)).run().expect("terminates");
//! run.map.verify_against(&topo, NodeId(2)).expect("exact port-level map");
//!
//! // …or run *every* mapper through the common trait:
//! for mapper in gtd::all_mappers() {
//!     let out = mapper.map_network(&topo, NodeId(0)).expect("mapper succeeds");
//!     assert!(out.verify_against(&topo), "{} disagrees", mapper.name());
//! }
//!
//! // …or declare a whole experiment grid and let the campaign run it:
//! let report = Campaign::new()
//!     .spec(spec)
//!     .mappers(["gtd", "flood-echo"])
//!     .jobs(2)
//!     .run()
//!     .expect("grid is well-formed");
//! assert_eq!(report.records.len(), 2);
//! assert_eq!(report.error_count(), 0);
//! ```

pub use gtd_baselines as baselines;
pub use gtd_bench as bench;
pub use gtd_core as protocol;
pub use gtd_netsim as netsim;
pub use gtd_serve as serve;
pub use gtd_snake as snake;

pub use gtd_baselines::{
    all_mappers, mapper_by_name, mapper_names, DynamicRun, FloodEchoMapper, GtdMapper, MapperError,
    MapperRun, RoutedDfsMapper, TopologyMapper,
};
pub use gtd_bench::{
    Campaign, CampaignError, CampaignReport, CellError, CellOutcome, GroupStat, RemapSummary,
    RunRecord,
};
pub use gtd_core::{
    default_tick_budget, phase_breakdown, AttemptOutcome, DecodeError, EpochOutcome, EpochStatus,
    GtdError, GtdSession, MasterComputer, MutationOutcome, NetworkMap, PhaseBreakdown,
    PreconditionViolation, ProtocolNode, RemapOutcome, RemapPolicy, ResilientOutcome, RunOutcome,
    RunStats, StartBehavior, TranscriptEvent, VerifyError,
};
pub use gtd_netsim::{
    algo, generators, mutation, spec, AppliedMutation, DynamicSpec, Edge, Engine, EngineMode,
    FaultPlane, MembershipChange, MutationError, MutationKind, MutationSchedule, NodeId,
    ParseSpecError, Port, ScheduledMutation, Topology, TopologyBuilder, TopologyMutation,
    TopologySpec,
};
