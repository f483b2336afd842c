//! # gtd-core
//!
//! Goldstein's **Global Topology Determination** protocol (IPPS 2002),
//! complete with both auxiliary protocols:
//!
//! * the **Root Communication Algorithm** (RCA, paper §4.2) — a processor A
//!   signals FORWARD/BACK to the root while the root's master computer
//!   learns the canonical shortest paths A→root and root→A;
//! * the **Backwards Communication Algorithm** (BCA, paper §4.1, rebuilt
//!   from its stated contract — see README, reconstruction choice 1) — a
//!   constant-size message crosses a directed edge backwards;
//! * the **DFS driver** (§3) that walks the DFS token across every edge,
//!   reporting each move to the root; and
//! * the **master computer** (§3) that replays the root's transcript into
//!   an exact port-level map of the network.
//!
//! The protocol runs on `gtd-netsim`'s lockstep engine as a single
//! finite-state automaton type, [`ProtocolNode`], identical at every
//! processor (the root differs only by its power-on flag, as in the paper).
//!
//! The primary entry point is the [`GtdSession`] builder: pick a root,
//! an engine strategy and a tick budget, then run once or repeatedly.
//!
//! ```
//! use gtd_core::GtdSession;
//! use gtd_netsim::{generators, EngineMode, NodeId};
//!
//! let topo = generators::random_sc(24, 3, 7);
//! let run = GtdSession::on(&topo)
//!     .root(NodeId(3))
//!     .mode(EngineMode::Sparse)
//!     .run()
//!     .expect("protocol completes");
//! run.map.verify_against(&topo, NodeId(3)).expect("exact map");
//! assert!(run.ticks > 0);
//! assert_eq!(run.stats.edges_reported(), topo.num_edges());
//! ```

pub mod events;
pub mod master;
pub mod node;
pub mod phases;
pub mod runner;
pub mod session;

pub use events::{RcaReport, TranscriptEvent};
pub use master::{DecodeError, MapEdge, MasterComputer, NetworkMap, VerifyError};
pub use node::{ProtocolNode, StartBehavior, RESTART_DOWNTIME};
pub use phases::{phase_breakdown, PhaseBreakdown};
pub use runner::{
    build_gtd_engine, build_gtd_engine_sharded, build_gtd_engine_with, needs_wide_word,
    run_single_bca, run_single_rca, BcaProbe, RcaProbe,
};
pub use session::{
    default_progress_window, default_tick_budget, AttemptOutcome, EpochOutcome, EpochStatus,
    GtdError, GtdSession, MutationOutcome, PreconditionViolation, RemapOutcome, RemapPolicy,
    ResilientOutcome, RunOutcome, RunStats,
};
