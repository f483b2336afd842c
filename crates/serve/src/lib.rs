//! # gtd-serve — the crash-tolerant campaign service
//!
//! A coordinator/worker subsystem that runs
//! [`Campaign`](gtd_bench::Campaign) grids as a long-lived network
//! service: `harness serve` starts a coordinator, `harness work`
//! connects workers (or the coordinator spawns them itself), and
//! `harness grid --via ADDR` becomes a thin client whose JSONL/CSV
//! output is byte-identical to the in-process path for any worker
//! count — including runs where workers crash or stall mid-grid.
//!
//! The pieces:
//!
//! * [`protocol`] — the line-delimited JSON wire format (message
//!   grammar in the module docs), built on `gtd_bench::json` and the
//!   same [`RunRecord`](gtd_bench::RunRecord) serialization the
//!   exports use.
//! * [`coordinator`] — [`serve`]: leases, heartbeats, bounded
//!   re-issue, grid-order streaming, and the persistent cell cache
//!   that lets a restarted service re-serve finished grids with zero
//!   live cells.
//! * [`worker`] — [`run_worker`]: the lease-execute-answer loop,
//!   running cells through the exact code path the in-process runner
//!   uses.
//! * [`client`] — [`run_grid`]: submit a request, collect the stream
//!   back into a [`CampaignReport`](gtd_bench::CampaignReport).
//!
//! Everything here is std-only: the service speaks plain TCP and the
//! crate adds no dependencies beyond the workspace's own.
//!
//! Wire-facing code must not panic on peer input, so the whole crate
//! warns on `unwrap`/`expect`; `gtd-check lint` enforces the same rule
//! token-level on the wire-path files.
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod client;
pub mod coordinator;
pub mod protocol;
pub mod worker;

pub use client::{connect_with_retry, run_grid, ServeError, ServedGrid};
pub use coordinator::{serve, ServeOptions, ServerHandle};
pub use protocol::{GridRequest, Message, ProtocolError};
pub use worker::{run_worker, run_worker_with_retry};
