//! The common probe-and-reconstruct interface.
//!
//! Three very different machines can map a directed network from a single
//! collector: the paper's finite-state GTD protocol, the unbounded-message
//! flood-echo (baseline B1) and the unbounded-memory source-routed DFS
//! (baseline B2). [`TopologyMapper`] runs all of them through one
//! interface — pick a network and a root, get back the discovered wires
//! and the synchronous-round cost — so experiment E7-style comparisons
//! are apples-to-apples by construction (in the spirit of the common
//! evaluation harnesses of the topology-identification literature).
//!
//! Mappers are addressable by stable name ([`mapper_by_name`]) so campaign
//! grids and CLI flags can select them as data; [`all_mappers`] returns
//! every implementation for exhaustive comparisons.
//!
//! ```
//! use gtd_baselines::mapper::all_mappers;
//! use gtd_netsim::{generators, NodeId};
//!
//! let topo = generators::ring(8);
//! for mapper in all_mappers() {
//!     let out = mapper.map_network(&topo, NodeId(3)).expect("maps");
//!     assert!(out.verify_against(&topo));
//!     assert!(out.rounds > 0);
//! }
//! ```

use crate::{flood_echo, source_routed_dfs};
use gtd_core::{
    phase_breakdown, EpochStatus, GtdError, GtdSession, PhaseBreakdown, PreconditionViolation,
    RemapPolicy, RunStats, VerifyError,
};
use gtd_netsim::{Edge, EngineMode, FaultPlane, MutationSchedule, NodeId, Topology};

/// Why a mapper failed to produce a comparable edge set.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MapperError {
    /// The network or root violates a model precondition
    /// ([`PreconditionViolation::check`]); nothing was mapped.
    Precondition {
        /// The mapper that refused to run.
        mapper: &'static str,
        /// The violated precondition.
        violation: PreconditionViolation,
    },
    /// The underlying GTD run failed (budget, decode, invariant).
    Gtd(GtdError),
    /// The reconstructed map could not be resolved against ground truth
    /// (protocol bug — Theorem 4.1 promises this never happens).
    Unresolvable(VerifyError),
    /// The GTD run survived an unreliable wire plane (paper §1.2.2) but
    /// exhausted its retry budget without a verified map. This is the
    /// *structured* degradation outcome: the run terminated cleanly and
    /// carries the evidence of how far each attempt got.
    Degraded {
        /// Best status across the attempts ([`EpochStatus::Partial`] when
        /// some edges decoded, [`EpochStatus::Exhausted`] when none did).
        status: EpochStatus,
        /// Retries spent (attempts minus one).
        retries: u32,
        /// Edges in the best partial map (exact on the edges it covers).
        partial_edges: usize,
        /// Characters the fault plane destroyed outright.
        fault_dropped: u64,
        /// Characters the fault plane delivered late.
        fault_delayed: u64,
    },
}

impl std::fmt::Display for MapperError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapperError::Precondition { mapper, violation } => {
                write!(f, "{mapper} run failed: precondition violated: {violation}")
            }
            MapperError::Gtd(e) => write!(f, "gtd run failed: {e}"),
            MapperError::Unresolvable(e) => write!(f, "map does not resolve: {e}"),
            MapperError::Degraded {
                status,
                retries,
                partial_edges,
                fault_dropped,
                fault_delayed,
            } => write!(
                f,
                "degraded to {status:?} after {retries} retries \
                 ({partial_edges} partial edges; faults dropped {fault_dropped}, \
                 delayed {fault_delayed})"
            ),
        }
    }
}

impl std::error::Error for MapperError {}

impl From<GtdError> for MapperError {
    fn from(e: GtdError) -> Self {
        match e {
            GtdError::Precondition(violation) => MapperError::Precondition {
                mapper: "gtd",
                violation,
            },
            e => MapperError::Gtd(e),
        }
    }
}

/// A baseline mapper's run from its rounds, messages and edges, or
/// `mapper`'s [`MapperError::Precondition`] when the baseline refused
/// the network ([`PreconditionViolation::check`]).
fn baseline_run(
    mapper: &'static str,
    run: Result<(u64, u64, Vec<Edge>), PreconditionViolation>,
) -> Result<MapperRun, MapperError> {
    let (rounds, messages, edges) =
        run.map_err(|violation| MapperError::Precondition { mapper, violation })?;
    Ok(MapperRun {
        rounds,
        messages: Some(messages),
        edges,
        stats: None,
        phases: None,
        clean: None,
    })
}

/// What every mapper returns: the discovered wires in ground-truth
/// labels plus the cost of discovering them.
#[derive(Clone, Debug)]
pub struct MapperRun {
    /// Synchronous rounds (global clock ticks) until the collector had
    /// the complete map.
    pub rounds: u64,
    /// Messages sent, when the mapper counts them (`None` for GTD, which
    /// ships one constant-size character per wire per tick by design).
    pub messages: Option<u64>,
    /// Every discovered wire, sorted, in ground-truth node labels.
    pub edges: Vec<Edge>,
    /// Transcript-derived protocol counters (GTD only).
    pub stats: Option<RunStats>,
    /// Where the ticks went (GTD with
    /// [`GtdMapper::capture_phases`] only).
    pub phases: Option<PhaseBreakdown>,
    /// Lemma 4.2 check: was the network left pristine (GTD only)?
    pub clean: Option<bool>,
}

impl MapperRun {
    /// Did the mapper discover exactly the network's wires?
    pub fn verify_against(&self, topo: &Topology) -> bool {
        self.edges == topo.sorted_edges()
    }
}

/// What a mapper measured over a dynamic (mutating) scenario — the
/// common shape GTD and the baselines report so remap costs are directly
/// comparable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DynamicRun {
    /// Rounds until the collector first held a *correct* map. For the
    /// analytic baselines this is the pristine-network mapping cost; for
    /// GTD's live timeline it spans any epochs an early mutation wasted
    /// before the first verified map.
    pub initial_rounds: u64,
    /// Per scheduled mutation, in schedule order: rounds from the
    /// mutation to the next correct map (the **remap latency**).
    pub remap_latencies: Vec<Option<u64>>,
    /// Mapping epochs executed over the timeline.
    pub epochs: usize,
    /// Processors in the network at the end of each epoch, in timeline
    /// order (membership mutations change N mid-run).
    pub epoch_nodes: Vec<usize>,
    /// Total rounds spent mapping across the timeline. For GTD this is
    /// the live engine timeline (wasted work, resets and idle gaps
    /// included); for the analytic baselines it is the sum of the
    /// per-epoch mapping costs.
    pub total_rounds: u64,
    /// Did the final map match the final topology?
    pub verified: bool,
    /// Characters the fault plane destroyed over the whole timeline
    /// (GTD live timeline only; the analytic baselines never touch a
    /// wire, so they report 0 even under an active plane).
    pub fault_dropped: u64,
    /// Characters the fault plane delivered late (GTD only, as above).
    pub fault_delayed: u64,
}

impl DynamicRun {
    /// Largest observed remap latency, if any mutation was remapped.
    pub fn max_remap_latency(&self) -> Option<u64> {
        self.remap_latencies.iter().flatten().copied().max()
    }
}

/// A machine that maps an unknown directed network from one collector
/// processor. Implementations must return edges in **ground-truth
/// labels**, sorted, so outcomes are directly comparable.
pub trait TopologyMapper {
    /// Short display name (table rows, bench ids, campaign grids).
    fn name(&self) -> &'static str;

    /// Map `topo` from `root`. A network or root that violates a model
    /// precondition ([`PreconditionViolation::check`]) is refused with
    /// [`MapperError::Precondition`] before anything runs.
    fn map_network(&self, topo: &Topology, root: NodeId) -> Result<MapperRun, MapperError>;

    /// Map a network whose topology mutates at scheduled ticks, reporting
    /// a remap latency per mutation.
    ///
    /// The default drives the *idealized* dynamic path every collector
    /// can follow: map the pristine network, then re-map from scratch
    /// after each mutation (with the same swap fallback for inapplicable
    /// mutations that the live engine uses), so the remap latency is one
    /// fresh mapping run. [`GtdMapper`] overrides this with
    /// [`GtdSession::run_dynamic`] — the live engine timeline in which
    /// the mutation disturbs a run already in flight — which is exactly
    /// the comparison the paper's §1 scenario asks for: what does
    /// re-determination cost a finite-state protocol versus an idealized
    /// collector?
    fn map_dynamic(
        &self,
        base: &Topology,
        schedule: &MutationSchedule,
        root: NodeId,
    ) -> Result<DynamicRun, MapperError> {
        let initial = self.map_network(base, root)?;
        let mut verified = initial.verify_against(base);
        let mut topo = base.clone();
        let mut root = root;
        let mut total = initial.rounds;
        let mut epochs = 1usize;
        let mut epoch_nodes = vec![base.num_nodes()];
        let mut latencies = Vec::with_capacity(schedule.len());
        for sm in schedule.iter() {
            // Membership mutations change N and can shift the collector's
            // id; track both, exactly as the live GTD timeline does.
            let applied = topo.apply_or_fallback_rooted(&sm.mutation, root);
            root = applied.membership.relabel(root);
            topo = applied.topology;
            let remap = self.map_network(&topo, root)?;
            verified = remap.verify_against(&topo);
            total += remap.rounds;
            epochs += 1;
            epoch_nodes.push(topo.num_nodes());
            latencies.push(Some(remap.rounds));
        }
        Ok(DynamicRun {
            initial_rounds: initial.rounds,
            remap_latencies: latencies,
            epochs,
            epoch_nodes,
            total_rounds: total,
            verified,
            fault_dropped: 0,
            fault_delayed: 0,
        })
    }
}

/// The paper's finite-state protocol behind the common interface.
///
/// Runs a [`GtdSession`] and resolves the canonical-path names back to
/// ground-truth labels. Transcript capture is off by default (the mapper
/// interface only needs the map and the cost); switch
/// [`capture_phases`](GtdMapper::capture_phases) on to also get the
/// per-phase tick breakdown in [`MapperRun::phases`].
#[derive(Clone, Copy, Debug)]
pub struct GtdMapper {
    /// Engine strategy for the run.
    pub mode: EngineMode,
    /// Optional tick budget (defaults to the generous protocol bound).
    pub tick_budget: Option<u64>,
    /// Capture the transcript and fill [`MapperRun::phases`].
    pub capture_phases: bool,
    /// Remap trigger for dynamic timelines (lazy: let a disturbed epoch
    /// run out; eager: power-cycle at the mutation). Static runs and the
    /// analytic baselines ignore it — they re-map instantly either way.
    pub policy: RemapPolicy,
    /// Wire-level fault plane for protocol runs ([`FaultPlane::NONE`]
    /// for reliable wires). The analytic baselines are *fault-immune*:
    /// they compute on the topology graph, never on simulated wires, so
    /// the plane only affects `"gtd"`.
    pub fault: FaultPlane,
    /// Extra attempts a faulted static run may spend before degrading
    /// to [`MapperError::Degraded`] (ignored on reliable wires).
    pub max_retries: u32,
}

impl Default for GtdMapper {
    fn default() -> Self {
        GtdMapper {
            mode: EngineMode::Sparse,
            tick_budget: None,
            capture_phases: false,
            policy: RemapPolicy::Lazy,
            fault: FaultPlane::NONE,
            max_retries: 3,
        }
    }
}

impl TopologyMapper for GtdMapper {
    fn name(&self) -> &'static str {
        "gtd"
    }

    fn map_network(&self, topo: &Topology, root: NodeId) -> Result<MapperRun, MapperError> {
        let mut session = GtdSession::on(topo)
            .root(root)
            .mode(self.mode)
            .capture_transcript(self.capture_phases);
        if let Some(budget) = self.tick_budget {
            session = session.tick_budget(budget);
        }
        if self.fault.is_active() {
            // Unreliable wires: drive the wedge-detecting retry loop and
            // translate a spent retry budget into the structured
            // degradation error instead of a hang or a panic.
            let res = session
                .faults(self.fault)
                .max_retries(self.max_retries)
                .run_resilient()?;
            if !res.verified() {
                return Err(MapperError::Degraded {
                    status: res.status,
                    retries: res.retries(),
                    partial_edges: res.map.as_ref().map_or(0, |m| m.num_edges()),
                    fault_dropped: res.stats.fault_dropped,
                    fault_delayed: res.stats.fault_delayed,
                });
            }
            let map = res.map.as_ref().expect("verified outcomes carry a map");
            let edges = map
                .resolve_edges(topo, root)
                .map_err(MapperError::Unresolvable)?;
            return Ok(MapperRun {
                rounds: res.ticks,
                messages: None,
                edges,
                stats: Some(res.stats),
                phases: self.capture_phases.then(|| phase_breakdown(&res.events)),
                // Bounded settle under faults: a dropped UNMARK can leave
                // a stray circulating, so cleanliness is not asserted.
                clean: None,
            });
        }
        let outcome = session.run()?;
        let edges = outcome
            .map
            .resolve_edges(topo, root)
            .map_err(MapperError::Unresolvable)?;
        Ok(MapperRun {
            rounds: outcome.ticks,
            messages: None,
            edges,
            stats: Some(outcome.stats),
            phases: self.capture_phases.then_some(outcome.phases),
            clean: Some(outcome.clean_at_end),
        })
    }

    /// GTD runs the *live* dynamic timeline: the scheduled mutations hit
    /// the engine mid-run ([`GtdSession::run_dynamic`]), so the reported
    /// remap latencies include the wasted tail of the disturbed run and
    /// any RESET/power-cycle cost — the honest finite-state price of the
    /// paper's "topology might change" scenario.
    fn map_dynamic(
        &self,
        base: &Topology,
        schedule: &MutationSchedule,
        root: NodeId,
    ) -> Result<DynamicRun, MapperError> {
        let mut session = GtdSession::on(base)
            .root(root)
            .mode(self.mode)
            .policy(self.policy)
            .faults(self.fault)
            .max_retries(self.max_retries)
            .capture_transcript(false);
        if let Some(budget) = self.tick_budget {
            session = session.tick_budget(budget);
        }
        let out = session.run_dynamic(schedule)?;
        // Global ticks until the first verified map — comparable to the
        // baselines' pristine mapping cost even when an early mutation
        // wedged or staled the first epoch.
        let initial_rounds = out
            .epochs
            .iter()
            .find(|e| e.status == EpochStatus::Verified)
            .map_or(0, |e| e.end_tick);
        Ok(DynamicRun {
            initial_rounds,
            remap_latencies: out.remap_latencies(),
            epochs: out.epochs.len(),
            epoch_nodes: out.epoch_nodes(),
            total_rounds: out.total_ticks,
            verified: out.final_verified(),
            fault_dropped: out.fault_dropped,
            fault_delayed: out.fault_delayed,
        })
    }
}

/// Baseline B1: unbounded-message flood-echo ([`crate::flood_echo`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct FloodEchoMapper;

impl TopologyMapper for FloodEchoMapper {
    fn name(&self) -> &'static str {
        "flood-echo"
    }

    fn map_network(&self, topo: &Topology, root: NodeId) -> Result<MapperRun, MapperError> {
        let run = flood_echo(topo, root).map(|out| (out.rounds, out.messages, out.edges));
        baseline_run(self.name(), run)
    }
}

/// Baseline B2: unbounded-memory source-routed DFS
/// ([`crate::source_routed_dfs`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct RoutedDfsMapper;

impl TopologyMapper for RoutedDfsMapper {
    fn name(&self) -> &'static str {
        "routed-dfs"
    }

    fn map_network(&self, topo: &Topology, root: NodeId) -> Result<MapperRun, MapperError> {
        let run = source_routed_dfs(topo, root).map(|out| (out.rounds, out.messages, out.edges));
        baseline_run(self.name(), run)
    }
}

/// The stable mapper names, in descending cost order (matches
/// [`all_mappers`]).
pub fn mapper_names() -> Vec<&'static str> {
    vec!["gtd", "routed-dfs", "flood-echo"]
}

/// Build a mapper by its stable name (`"gtd"`, `"routed-dfs"`,
/// `"flood-echo"`): `"gtd"` is a copy of `cfg`, and the baselines ignore
/// every knob (they are analytic machines). Returns `None` for unknown
/// names.
pub fn mapper_by_name(
    name: &str,
    cfg: &GtdMapper,
) -> Option<Box<dyn TopologyMapper + Send + Sync>> {
    match name {
        "gtd" => Some(Box::new(*cfg)),
        "routed-dfs" => Some(Box::new(RoutedDfsMapper)),
        "flood-echo" => Some(Box::new(FloodEchoMapper)),
        _ => None,
    }
}

/// Every mapper, in descending cost order: GTD (finite-state), routed
/// DFS (unbounded memory), flood-echo (unbounded messages).
pub fn all_mappers() -> Vec<Box<dyn TopologyMapper + Send + Sync>> {
    mapper_names()
        .into_iter()
        .map(|n| mapper_by_name(n, &GtdMapper::default()).expect("registry name"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtd_netsim::generators;

    #[test]
    fn every_mapper_agrees_with_ground_truth_from_any_root() {
        let topo = generators::random_sc(18, 3, 5);
        for mapper in all_mappers() {
            for root in [0u32, 7, 17] {
                let out = mapper.map_network(&topo, NodeId(root)).unwrap();
                assert!(
                    out.verify_against(&topo),
                    "{} from root {root} disagrees",
                    mapper.name()
                );
            }
        }
    }

    #[test]
    fn every_mapper_refuses_a_bad_root_or_a_network_that_is_not_strongly_connected() {
        // Two disjoint 2-cycles: valid wiring, not strongly connected.
        let mut b = gtd_netsim::TopologyBuilder::new(4, 2);
        for (u, v) in [(0, 1), (1, 0), (2, 3), (3, 2)] {
            b.connect_auto(NodeId(u), NodeId(v)).unwrap();
        }
        let split = b.build().unwrap();
        let ring = generators::ring(8);
        let root_n9 = PreconditionViolation::RootOutOfRange {
            root: NodeId(9),
            nodes: 8,
        };
        let cases = [
            (&ring, NodeId(9), root_n9),
            (
                &split,
                NodeId(0),
                PreconditionViolation::NotStronglyConnected,
            ),
        ];
        for mapper in all_mappers() {
            for &(topo, root, violation) in &cases {
                let want = MapperError::Precondition {
                    mapper: mapper.name(),
                    violation,
                };
                let dynamic = mapper.map_dynamic(topo, &MutationSchedule::default(), root);
                assert_eq!(mapper.map_network(topo, root).unwrap_err(), want);
                assert_eq!(dynamic.unwrap_err(), want);
            }
        }
        // The free functions behind the baselines refuse the same cases.
        for &(topo, root, violation) in &cases {
            assert_eq!(flood_echo(topo, root).unwrap_err(), violation);
            assert_eq!(source_routed_dfs(topo, root).unwrap_err(), violation);
        }
        assert_eq!(
            MapperError::Precondition {
                mapper: "routed-dfs",
                violation: root_n9
            }
            .to_string(),
            "routed-dfs run failed: precondition violated: root n9 out of range \
             (network has 8 processors)"
        );
    }

    #[test]
    fn gtd_mapper_budget_surfaces_as_mapper_error() {
        let topo = generators::ring(10);
        let mapper = GtdMapper {
            tick_budget: Some(5),
            ..GtdMapper::default()
        };
        match mapper.map_network(&topo, NodeId(0)) {
            Err(MapperError::Gtd(GtdError::BudgetExhausted { budget: 5, .. })) => {}
            other => panic!("expected budget error, got {other:?}"),
        }
    }

    #[test]
    fn cost_ordering_holds_through_the_trait() {
        let topo = generators::random_sc(30, 3, 9);
        let rounds: Vec<u64> = all_mappers()
            .iter()
            .map(|m| m.map_network(&topo, NodeId(0)).unwrap().rounds)
            .collect();
        // gtd > routed-dfs > flood-echo
        assert!(
            rounds[0] > rounds[1],
            "gtd {} vs dfs {}",
            rounds[0],
            rounds[1]
        );
        assert!(
            rounds[1] > rounds[2],
            "dfs {} vs flood {}",
            rounds[1],
            rounds[2]
        );
    }

    #[test]
    fn mapper_by_name_round_trips_the_registry() {
        for name in mapper_names() {
            let m = mapper_by_name(name, &GtdMapper::default()).unwrap();
            assert_eq!(m.name(), name);
        }
        assert!(mapper_by_name("oracle", &GtdMapper::default()).is_none());
    }

    #[test]
    fn every_mapper_follows_the_dynamic_path() {
        use gtd_netsim::{MutationKind, MutationSchedule, TopologyMutation};
        let topo = generators::random_sc(16, 3, 5);
        let schedule = MutationSchedule::new().with(
            50,
            TopologyMutation {
                kind: MutationKind::RewirePort,
                selector: 1,
            },
        );
        for mapper in all_mappers() {
            let run = mapper.map_dynamic(&topo, &schedule, NodeId(0)).unwrap();
            assert!(run.verified, "{} final map wrong", mapper.name());
            assert_eq!(run.remap_latencies.len(), 1, "{}", mapper.name());
            assert!(
                run.remap_latencies[0].is_some(),
                "{} latency missing",
                mapper.name()
            );
            assert!(run.initial_rounds > 0, "{}", mapper.name());
            // GTD may absorb an early mutation into its first mapping run
            // (one epoch); the idealized baselines always re-map (two).
            assert!(run.epochs >= 1, "{}", mapper.name());
        }
    }

    #[test]
    fn every_mapper_follows_the_membership_dynamic_path() {
        use gtd_netsim::{MutationKind, MutationSchedule, TopologyMutation};
        let topo = generators::random_sc(16, 3, 5);
        let schedule = MutationSchedule::new()
            .with(
                50,
                TopologyMutation {
                    kind: MutationKind::NodeLeave,
                    selector: 1,
                },
            )
            .with(
                5_000,
                TopologyMutation {
                    kind: MutationKind::NodeJoin,
                    selector: 4,
                },
            );
        for mapper in all_mappers() {
            let run = mapper
                .map_dynamic(&topo, &schedule, NodeId(3))
                .unwrap_or_else(|e| panic!("{}: {e}", mapper.name()));
            assert!(run.verified, "{} final map wrong", mapper.name());
            assert_eq!(run.remap_latencies.len(), 2, "{}", mapper.name());
            assert!(
                run.remap_latencies.iter().all(Option::is_some),
                "{}",
                mapper.name()
            );
            // the final epoch ran on 16 nodes again (one leave, one join)
            assert_eq!(
                run.epoch_nodes.last().copied(),
                Some(16),
                "{}: {:?}",
                mapper.name(),
                run.epoch_nodes
            );
            assert!(
                run.epoch_nodes.contains(&15),
                "{}: {:?}",
                mapper.name(),
                run.epoch_nodes
            );
        }
    }

    #[test]
    fn gtd_mapper_policies_agree_on_the_final_map_but_not_the_path() {
        use gtd_netsim::{MutationKind, MutationSchedule, TopologyMutation};
        let topo = generators::ring(16);
        let schedule = MutationSchedule::new().with(
            100,
            TopologyMutation {
                kind: MutationKind::NodeLeave,
                selector: 5,
            },
        );
        let lazy = GtdMapper::default()
            .map_dynamic(&topo, &schedule, NodeId(0))
            .unwrap();
        let eager = GtdMapper {
            policy: RemapPolicy::Eager,
            ..GtdMapper::default()
        }
        .map_dynamic(&topo, &schedule, NodeId(0))
        .unwrap();
        assert!(lazy.verified && eager.verified);
        assert!(
            eager.remap_latencies[0].unwrap() <= lazy.remap_latencies[0].unwrap(),
            "eager {:?} vs lazy {:?}",
            eager.remap_latencies,
            lazy.remap_latencies
        );
    }

    #[test]
    fn gtd_live_remap_costs_more_than_the_idealized_baselines() {
        use gtd_netsim::{MutationKind, MutationSchedule, TopologyMutation};
        let topo = generators::random_sc(20, 3, 8);
        let schedule = MutationSchedule::new().with(
            60,
            TopologyMutation {
                kind: MutationKind::DropEdge,
                selector: 2,
            },
        );
        let gtd = GtdMapper::default()
            .map_dynamic(&topo, &schedule, NodeId(0))
            .unwrap();
        let flood = FloodEchoMapper
            .map_dynamic(&topo, &schedule, NodeId(0))
            .unwrap();
        assert!(
            gtd.max_remap_latency().unwrap() > flood.max_remap_latency().unwrap(),
            "gtd {:?} vs flood {:?}",
            gtd.remap_latencies,
            flood.remap_latencies
        );
    }

    #[test]
    fn faulted_gtd_mapper_retries_its_way_to_a_verified_map() {
        // Every dropped character is fatal on a ring (single token, no
        // redundant wires), so a lossy run verifies exactly when a
        // re-seeded retry happens to be drop-free — the retry loop is
        // what rescues the run, not luck on the first attempt.
        let topo = generators::ring(6);
        let mapper = GtdMapper {
            fault: FaultPlane {
                loss: 0.001,
                delay_min: 0,
                delay_max: 0,
                seed: 8,
            },
            ..GtdMapper::default()
        };
        let run = mapper.map_network(&topo, NodeId(0)).unwrap();
        assert!(run.verify_against(&topo));
        let stats = run.stats.unwrap();
        assert!(stats.retries > 0, "expected the retry loop to fire");
        assert_eq!(stats.fault_dropped, 0, "the winning attempt is drop-free");
        // Cleanliness is not asserted under faults (bounded settle).
        assert_eq!(run.clean, None);
    }

    #[test]
    fn total_loss_surfaces_as_structured_degradation() {
        let topo = generators::ring(8);
        let mapper = GtdMapper {
            fault: FaultPlane {
                loss: 1.0,
                delay_min: 0,
                delay_max: 0,
                seed: 1,
            },
            max_retries: 1,
            ..GtdMapper::default()
        };
        match mapper.map_network(&topo, NodeId(0)) {
            Err(MapperError::Degraded {
                status,
                retries,
                partial_edges,
                fault_dropped,
                ..
            }) => {
                assert_eq!(status, EpochStatus::Exhausted);
                assert_eq!(retries, 1);
                assert_eq!(partial_edges, 0);
                assert!(fault_dropped > 0);
            }
            other => panic!("expected structured degradation, got {other:?}"),
        }
    }

    #[test]
    fn analytic_baselines_are_fault_immune() {
        let topo = generators::random_sc(14, 3, 6);
        let cfg = GtdMapper {
            fault: FaultPlane {
                loss: 1.0,
                delay_min: 0,
                delay_max: 0,
                seed: 3,
            },
            ..GtdMapper::default()
        };
        for name in ["flood-echo", "routed-dfs"] {
            let mapper = mapper_by_name(name, &cfg).unwrap();
            let run = mapper.map_network(&topo, NodeId(0)).unwrap();
            assert!(run.verify_against(&topo), "{name} faulted by a plane");
        }
    }

    #[test]
    fn faulted_dynamic_timeline_reports_fault_counters() {
        use gtd_netsim::{MutationKind, MutationSchedule, TopologyMutation};
        let topo = generators::ring(10);
        let schedule = MutationSchedule::new().with(
            80,
            TopologyMutation {
                kind: MutationKind::RewirePort,
                selector: 2,
            },
        );
        let mapper = GtdMapper {
            fault: FaultPlane {
                loss: 0.0,
                delay_min: 1,
                delay_max: 1,
                seed: 4,
            },
            ..GtdMapper::default()
        };
        let run = mapper.map_dynamic(&topo, &schedule, NodeId(0)).unwrap();
        assert!(run.verified, "constant delay must still verify");
        assert!(run.fault_delayed > 0);
        // (A constant delay can still collision-drop at mutation or
        // power-cycle boundaries, so fault_dropped is not asserted zero.)
    }

    #[test]
    fn gtd_mapper_captures_phases_and_cleanliness_on_demand() {
        let topo = generators::ring(8);
        let quiet = GtdMapper::default().map_network(&topo, NodeId(0)).unwrap();
        assert!(quiet.phases.is_none());
        assert_eq!(quiet.clean, Some(true));
        assert!(quiet.stats.unwrap().rcas() > 0);

        let chatty = GtdMapper {
            capture_phases: true,
            ..GtdMapper::default()
        }
        .map_network(&topo, NodeId(0))
        .unwrap();
        let phases = chatty.phases.unwrap();
        assert!(phases.total() > 0);
        assert_eq!(phases.rcas, chatty.stats.unwrap().rcas());
    }
}
