//! Declarative experiment grids.
//!
//! A [`Campaign`] is the paper-claim shape — "over family F at size N,
//! mapper M costs R rounds" — as a first-class value: a grid of
//! [`TopologySpec`]s × mapper names × [`EngineMode`]s × [`RemapPolicy`]s
//! × roots × repetitions. [`Campaign::run`] executes every cell across a
//! scoped worker-thread pool and returns a [`CampaignReport`] of
//! structured [`RunRecord`]s.
//!
//! Four properties make campaigns fit for batch execution:
//!
//! * **Determinism** — records are returned in grid order and contain
//!   only logical quantities (rounds, counters, phase ticks — never wall
//!   time), so the JSONL/CSV exports are byte-identical regardless of
//!   [`Campaign::jobs`].
//! * **Fault tolerance** — a cell that fails (tick budget exhausted,
//!   precondition violated) is captured as a [`CellError`] in its record;
//!   the rest of the grid still completes.
//! * **Aggregation** — [`CampaignReport::aggregate`] groups cells by
//!   (spec, mapper, mode, policy) and reports min/median/max rounds per
//!   group.
//! * **Incrementality** — every cell is a pure function of its
//!   (spec, mapper, mode, policy, root, rep) key, so
//!   [`Campaign::resume_from`] can seed completed cells from a previous
//!   export ([`parse_jsonl`]) and execute only the rest, byte-identically
//!   to a fresh run.
//!
//! ```
//! use gtd_bench::Campaign;
//!
//! let report = Campaign::new()
//!     .parse_specs(["ring:16", "debruijn:2,4"]).unwrap()
//!     .mappers(["gtd", "flood-echo"])
//!     .jobs(4)
//!     .run()
//!     .unwrap();
//! assert_eq!(report.records.len(), 4);
//! assert_eq!(report.error_count(), 0);
//! for line in report.to_jsonl().lines() {
//!     gtd_bench::json::JsonValue::parse(line).expect("rows are valid JSON");
//! }
//! ```

use crate::json::{bool_field, num_field, str_field, JsonValue};
use gtd_baselines::{mapper_by_name, GtdMapper, MapperError};
use gtd_core::{GtdError, PhaseBreakdown, RemapPolicy};
use gtd_netsim::{DynamicSpec, EngineMode, NodeId, ParseSpecError, Topology};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

/// A campaign could not be configured or started. Per-cell failures are
/// *not* errors at this level — they land in [`RunRecord::result`].
#[derive(Clone, Debug, PartialEq)]
pub enum CampaignError {
    /// A grid axis that must be non-empty was empty.
    EmptyAxis(&'static str),
    /// A mapper name did not resolve
    /// (see [`gtd_baselines::mapper_names`]).
    UnknownMapper(String),
    /// A spec failed to parse or validate.
    Spec(ParseSpecError),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::EmptyAxis(axis) => write!(f, "campaign has no {axis}"),
            CampaignError::UnknownMapper(name) => {
                write!(
                    f,
                    "unknown mapper {name:?} (known: {})",
                    gtd_baselines::mapper_names().join(", ")
                )
            }
            CampaignError::Spec(e) => write!(f, "bad topology spec: {e}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<ParseSpecError> for CampaignError {
    fn from(e: ParseSpecError) -> Self {
        CampaignError::Spec(e)
    }
}

/// One grid cell's inputs — everything a cell's result is a pure
/// function of, as a standalone value. [`Campaign::run`] executes these
/// on its in-process worker pool; the campaign service
/// (`gtd-serve`) ships them to worker *processes* and executes them with
/// the exact same code path, which is what keeps service output
/// byte-identical to in-process output.
#[derive(Clone, Debug, PartialEq)]
pub struct CellSpec {
    /// Topology spec (static or dynamic).
    pub spec: DynamicSpec,
    /// Mapper name (see [`gtd_baselines::mapper_names`]).
    pub mapper: String,
    /// Engine mode.
    pub mode: EngineMode,
    /// Remap policy.
    pub policy: RemapPolicy,
    /// Root processor.
    pub root: NodeId,
    /// Repetition index (0-based).
    pub rep: usize,
    /// Tick budget (`None` = the spec-derived default).
    pub budget: Option<u64>,
}

impl CellSpec {
    /// Execute this cell against its own freshly built base topology.
    pub fn execute_built(&self) -> RunRecord {
        self.execute(&self.spec.build())
    }

    /// Execute this cell against a pre-built base topology (callers that
    /// share one spec across many cells build it once). An unknown mapper
    /// name, a root outside the base topology or a network that is not
    /// strongly connected is a `precondition` [`CellError`] — a cell
    /// failure, never a panic (every mapper checks the model
    /// preconditions before it runs).
    pub fn execute(&self, topo: &Topology) -> RunRecord {
        let cfg = GtdMapper {
            mode: self.mode,
            tick_budget: self.budget,
            capture_phases: true,
            policy: self.policy,
            fault: self.spec.fault,
            ..GtdMapper::default()
        };
        // Fault counters are only rendered for cells whose spec carries an
        // active plane, so reliable-wire rows stay byte-identical to
        // exports from before the fault plane existed.
        let faulted = self.spec.fault.is_active();
        let result = match mapper_by_name(&self.mapper, &cfg) {
            None => Err(CellError {
                kind: "precondition",
                message: format!(
                    "unknown mapper {:?} (known: {})",
                    self.mapper,
                    gtd_baselines::mapper_names().join(", ")
                ),
            }),
            Some(mapper) if self.spec.is_static() => match mapper.map_network(topo, self.root) {
                Ok(run) => Ok(CellOutcome {
                    rounds: run.rounds,
                    messages: run.messages,
                    verified: run.verify_against(topo),
                    rcas: run.stats.map(|s| s.rcas()),
                    bcas: run.stats.map(|s| s.bcas()),
                    dropped: run.stats.map(|s| s.dropped),
                    clean: run.clean,
                    phases: run.phases,
                    remap: None,
                    fault_dropped: run.stats.filter(|_| faulted).map(|s| s.fault_dropped),
                    fault_delayed: run.stats.filter(|_| faulted).map(|s| s.fault_delayed),
                    retries: run.stats.filter(|_| faulted).map(|s| s.retries),
                }),
                Err(e) => Err(CellError::from(e)),
            },
            Some(mapper) => match mapper.map_dynamic(topo, &self.spec.schedule, self.root) {
                Ok(run) => Ok(CellOutcome {
                    rounds: run.total_rounds,
                    messages: None,
                    verified: run.verified,
                    rcas: None,
                    bcas: None,
                    dropped: None,
                    clean: None,
                    phases: None,
                    remap: Some(RemapSummary {
                        epochs: run.epochs,
                        initial_rounds: run.initial_rounds,
                        latencies: run.remap_latencies,
                        epoch_nodes: run.epoch_nodes,
                    }),
                    fault_dropped: faulted.then_some(run.fault_dropped),
                    fault_delayed: faulted.then_some(run.fault_delayed),
                    retries: None,
                }),
                Err(e) => Err(CellError::from(e)),
            },
        };
        self.record(topo, result)
    }

    /// This cell's record of `result`, run against `topo`, its base
    /// topology.
    pub fn record(&self, topo: &Topology, result: Result<CellOutcome, CellError>) -> RunRecord {
        RunRecord {
            spec: self.spec.to_string(),
            mapper: self.mapper.clone(),
            mode: self.mode,
            policy: self.policy,
            root: self.root,
            rep: self.rep,
            nodes: topo.num_nodes(),
            edges: topo.num_edges(),
            budget: self.budget,
            result,
        }
    }

    /// [`CellSpec::execute`] bounded by a wall-clock timeout. The cell
    /// runs on a freshly spawned thread; if it has not finished within
    /// `timeout` the record is a `cell-timeout` [`CellError`] and the
    /// runaway thread is detached (it cannot be cancelled, but it can no
    /// longer stall the grid). `timeout = None` executes inline.
    ///
    /// A timed-out record is a function of the host's wall clock, not of
    /// the cell's inputs, so it is never admitted to the incremental
    /// cache (see [`Campaign::resume_from`]).
    pub fn execute_with_timeout(&self, topo: &Topology, timeout: Option<Duration>) -> RunRecord {
        let Some(limit) = timeout else {
            return self.execute(topo);
        };
        let (tx, rx) = mpsc::channel();
        let cell = self.clone();
        let owned = topo.clone();
        std::thread::spawn(move || {
            // the receiver may have given up: a send error is fine
            let _ = tx.send(cell.execute(&owned));
        });
        match rx.recv_timeout(limit) {
            Ok(record) => record,
            Err(_) => self.record(
                topo,
                Err(CellError {
                    kind: "cell-timeout",
                    message: format!(
                        "cell exceeded the {} ms wall-clock timeout",
                        limit.as_millis()
                    ),
                }),
            ),
        }
    }
}

/// Builder for an experiment grid. Construct with [`Campaign::new`], add
/// axes, then [`Campaign::run`].
#[derive(Clone, Debug)]
pub struct Campaign {
    specs: Vec<DynamicSpec>,
    mappers: Vec<String>,
    modes: Vec<EngineMode>,
    policies: Vec<RemapPolicy>,
    roots: Vec<NodeId>,
    reps: usize,
    jobs: usize,
    tick_budget: Option<u64>,
    cell_timeout: Option<Duration>,
    cache: Vec<RunRecord>,
}

impl Default for Campaign {
    fn default() -> Self {
        Campaign::new()
    }
}

impl Campaign {
    /// An empty grid with default axes: sparse engine, root `n0`, one
    /// repetition, one worker. Specs and mappers must be added before
    /// [`Campaign::run`].
    pub fn new() -> Self {
        Campaign {
            specs: Vec::new(),
            mappers: Vec::new(),
            modes: vec![EngineMode::Sparse],
            policies: vec![RemapPolicy::Lazy],
            roots: vec![NodeId(0)],
            reps: 1,
            jobs: 1,
            tick_budget: None,
            cell_timeout: None,
            cache: Vec::new(),
        }
    }

    /// Add one topology spec to the grid — static
    /// ([`TopologySpec`](gtd_netsim::TopologySpec)) or dynamic
    /// ([`DynamicSpec`], with a mutation schedule).
    pub fn spec(mut self, spec: impl Into<DynamicSpec>) -> Self {
        self.specs.push(spec.into());
        self
    }

    /// Add several topology specs (static or dynamic).
    pub fn specs<S: Into<DynamicSpec>>(mut self, specs: impl IntoIterator<Item = S>) -> Self {
        self.specs.extend(specs.into_iter().map(Into::into));
        self
    }

    /// Parse and add spec strings (`"ring:64"`,
    /// `"ring:64+drop-edge=3@t500"`, …). Fails fast on the first
    /// malformed spec.
    pub fn parse_specs<S: AsRef<str>>(
        mut self,
        specs: impl IntoIterator<Item = S>,
    ) -> Result<Self, CampaignError> {
        for s in specs {
            self.specs.push(s.as_ref().parse::<DynamicSpec>()?);
        }
        Ok(self)
    }

    /// Replace the mapper axis with the given stable names (validated at
    /// [`Campaign::run`]).
    pub fn mappers<S: Into<String>>(mut self, names: impl IntoIterator<Item = S>) -> Self {
        self.mappers = names.into_iter().map(Into::into).collect();
        self
    }

    /// Replace the engine-mode axis (default: sparse only).
    pub fn modes(mut self, modes: impl IntoIterator<Item = EngineMode>) -> Self {
        self.modes = modes.into_iter().collect();
        self
    }

    /// Replace the remap-policy axis (default: lazy only). The policy
    /// only changes GTD's dynamic timelines; static cells and the
    /// analytic baselines run identically under either value, so widening
    /// this axis is mainly useful on dynamic GTD grids.
    pub fn policies(mut self, policies: impl IntoIterator<Item = RemapPolicy>) -> Self {
        self.policies = policies.into_iter().collect();
        self
    }

    /// Replace the root axis (default: `n0` only). A root out of range
    /// for a particular spec becomes a per-cell `precondition` error for
    /// every mapper, static or dynamic, not a grid failure.
    pub fn roots(mut self, roots: impl IntoIterator<Item = NodeId>) -> Self {
        self.roots = roots.into_iter().collect();
        self
    }

    /// Repetitions per cell (default 1). Runs are deterministic, so
    /// repetitions mainly stress re-execution and fill out aggregates.
    pub fn reps(mut self, reps: usize) -> Self {
        self.reps = reps.max(1);
        self
    }

    /// Worker threads executing cells (default 1; `0` = one per available
    /// CPU). Results are independent of this knob by construction.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Tick budget applied to every protocol cell. A cell that exhausts
    /// it reports [`CellError`] with kind `budget-exhausted` while the
    /// rest of the grid completes.
    pub fn tick_budget(mut self, budget: u64) -> Self {
        self.tick_budget = Some(budget);
        self
    }

    /// Wall-clock timeout per cell. A cell that exceeds it reports
    /// [`CellError`] with kind `cell-timeout` while the rest of the grid
    /// completes, so a wedged cell can never stall a grid. Timed-out
    /// cells run on detached threads (they cannot be cancelled, only
    /// abandoned), and their records are wall-clock-dependent, so they
    /// are never admitted to the incremental cache and the timeout is
    /// *not* part of a cell's [`CacheKey`] — a record that completed is
    /// the same record under any timeout.
    pub fn cell_timeout(mut self, timeout: Duration) -> Self {
        self.cell_timeout = Some(timeout);
        self
    }

    /// Seed the incremental cell cache with previously computed records:
    /// a grid cell whose identity — (spec, mapper, mode, policy, root,
    /// rep, tick budget), all the inputs a cell's result is a pure
    /// function of — matches a seeded record is **not executed**; the
    /// record lands in its grid slot verbatim. Reusing a record is
    /// therefore exact, and re-running a completed grid against its own
    /// export executes zero live cells while producing byte-identical
    /// JSONL/CSV output. Records that match no cell of this grid
    /// (including records produced under a different tick budget) are
    /// ignored.
    pub fn resume_from(mut self, records: impl IntoIterator<Item = RunRecord>) -> Self {
        self.cache.extend(records);
        self
    }

    /// [`Campaign::resume_from`] over a `harness grid --json` /
    /// [`CampaignReport::to_jsonl`] export ([`parse_jsonl`]). Lines that
    /// are not grid records (e.g. `harness run` experiment rows, or
    /// perf rows marked `"bench"` — grid-shaped, but not campaign
    /// cells) are skipped; lines that are not JSON at all are an error.
    pub fn resume_from_jsonl(self, text: &str) -> Result<Self, String> {
        Ok(self.resume_from(parse_jsonl(text)?))
    }

    /// Validate the grid's axes and expand its cells in grid order (spec
    /// → mapper → mode → policy → root → rep) — the shared prologue of
    /// [`Campaign::run`] and the campaign service coordinator, which
    /// ships the same cells to worker processes instead of threads.
    pub fn plan(&self) -> Result<Vec<CellSpec>, CampaignError> {
        if self.specs.is_empty() {
            return Err(CampaignError::EmptyAxis("topology specs"));
        }
        if self.mappers.is_empty() {
            return Err(CampaignError::EmptyAxis("mappers"));
        }
        if self.modes.is_empty() {
            return Err(CampaignError::EmptyAxis("engine modes"));
        }
        if self.policies.is_empty() {
            return Err(CampaignError::EmptyAxis("remap policies"));
        }
        if self.roots.is_empty() {
            return Err(CampaignError::EmptyAxis("roots"));
        }
        for spec in &self.specs {
            spec.validate()?;
        }
        for name in &self.mappers {
            if mapper_by_name(name, &GtdMapper::default()).is_none() {
                return Err(CampaignError::UnknownMapper(name.clone()));
            }
        }
        let mut cells = Vec::new();
        for spec in &self.specs {
            for mapper in &self.mappers {
                for &mode in &self.modes {
                    for &policy in &self.policies {
                        for &root in &self.roots {
                            for rep in 0..self.reps.max(1) {
                                cells.push(CellSpec {
                                    spec: spec.clone(),
                                    mapper: mapper.clone(),
                                    mode,
                                    policy,
                                    root,
                                    rep,
                                    budget: self.tick_budget,
                                });
                            }
                        }
                    }
                }
            }
        }
        Ok(cells)
    }

    /// Grid cells per spec — the stride between consecutive specs in the
    /// grid order [`Campaign::plan`] produces.
    pub fn cells_per_spec(&self) -> usize {
        self.mappers.len()
            * self.modes.len()
            * self.policies.len()
            * self.roots.len()
            * self.reps.max(1)
    }

    /// Execute every cell of the grid and collect the report.
    ///
    /// Cells are distributed over [`Campaign::jobs`] scoped worker
    /// threads; each record lands in its grid-order slot, so the report
    /// (and its JSONL/CSV exports) is identical for any job count.
    pub fn run(&self) -> Result<CampaignReport, CampaignError> {
        let cells = self.plan()?;

        // Build every base topology once; cells share them read-only.
        let topos: Vec<Topology> = self.specs.iter().map(DynamicSpec::build).collect();
        let spec_of = |cell_idx: usize| cell_idx / self.cells_per_spec();

        // Incremental cache: pre-fill grid slots whose (spec, mapper,
        // mode, policy, root, rep, budget) key was seeded via
        // [`Campaign::resume_from`]; only the remaining cells run live.
        // Wall-clock-dependent records (`cell-timeout`, `worker-lost`)
        // are not pure functions of the key and are never reused.
        let mut cache: HashMap<CacheKey, RunRecord> = self
            .cache
            .iter()
            .filter(|r| r.is_cacheable())
            .map(|r| (r.cache_key(), r.clone()))
            .collect();
        let slots: Vec<Option<RunRecord>> = cells.iter().map(|c| cache.remove(&c.key())).collect();
        let cached = slots.iter().filter(|s| s.is_some()).count();
        let pending: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_none())
            .map(|(i, _)| i)
            .collect();

        let workers = if self.jobs == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            self.jobs
        }
        .min(pending.len().max(1));

        let run_cell = |idx: usize| -> RunRecord {
            cells[idx].execute_with_timeout(&topos[spec_of(idx)], self.cell_timeout)
        };

        let slots: Mutex<Vec<Option<RunRecord>>> = Mutex::new(slots);
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= pending.len() {
                        break;
                    }
                    let slot = pending[i];
                    let record = run_cell(slot);
                    slots.lock().expect("no worker panicked")[slot] = Some(record);
                });
            }
        });

        let records = slots
            .into_inner()
            .expect("workers joined")
            .into_iter()
            .map(|r| r.expect("every slot filled"))
            .collect();
        Ok(CampaignReport { records, cached })
    }
}

/// A per-cell failure, captured instead of aborting the grid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellError {
    /// Stable machine-readable kind, one of [`CellError::KINDS`].
    pub kind: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl CellError {
    /// Every kind a cell failure can carry — the single source of truth
    /// shared by the producer ([`From<MapperError>`], which must map into
    /// this set) and the export parser ([`RunRecord::from_json`], which
    /// accepts exactly this set). Extend here first when adding a kind.
    ///
    /// The first seven are *logical* failures — pure functions of the
    /// cell's inputs, reproducible and therefore cacheable. The last two
    /// are *operational*: `cell-timeout` (the cell exceeded a wall-clock
    /// limit; [`Campaign::cell_timeout`] or a service worker's bound) and
    /// `worker-lost` (the campaign service gave up on a cell after its
    /// retry budget). Operational records are never admitted to the
    /// incremental cache (see [`RunRecord::is_cacheable`]).
    pub const KINDS: [&'static str; 9] = [
        "budget-exhausted",
        "precondition",
        "decode",
        "remap-diverged",
        "invariant",
        "unresolvable",
        "fault-degraded",
        "cell-timeout",
        "worker-lost",
    ];

    /// Is this kind a pure function of the cell's inputs (reproducible on
    /// any host), as opposed to an operational artifact of one execution?
    pub fn kind_is_deterministic(kind: &str) -> bool {
        !matches!(kind, "cell-timeout" | "worker-lost")
    }

    /// Resolve a serialized kind back to its static string, `None` for
    /// kinds this build does not know.
    pub fn kind_from_str(s: &str) -> Option<&'static str> {
        Self::KINDS.into_iter().find(|k| *k == s)
    }
}

impl From<MapperError> for CellError {
    fn from(e: MapperError) -> Self {
        let kind = match &e {
            MapperError::Gtd(GtdError::BudgetExhausted { .. }) => "budget-exhausted",
            MapperError::Precondition { .. } | MapperError::Gtd(GtdError::Precondition(_)) => {
                "precondition"
            }
            MapperError::Gtd(GtdError::Decode(_)) => "decode",
            MapperError::Gtd(GtdError::RemapDiverged { .. }) => "remap-diverged",
            MapperError::Gtd(GtdError::Invariant { .. }) => "invariant",
            MapperError::Unresolvable(_) => "unresolvable",
            // Deterministic (DetRng-seeded plane), so degraded cells are
            // cacheable like any other logical outcome.
            MapperError::Degraded { .. } => "fault-degraded",
        };
        debug_assert!(
            CellError::kind_from_str(kind).is_some(),
            "{kind} missing from CellError::KINDS — exports would not parse back"
        );
        CellError {
            kind,
            message: e.to_string(),
        }
    }
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.kind, self.message)
    }
}

/// Lower median (the `(len-1)/2`-th order statistic) — the single
/// definition every aggregate, summary and report in this crate uses.
/// Sorts `samples` in place; `None` when empty.
pub fn lower_median(samples: &mut [u64]) -> Option<u64> {
    samples.sort_unstable();
    if samples.is_empty() {
        None
    } else {
        Some(samples[(samples.len() - 1) / 2])
    }
}

/// Dynamic-cell extras: what the remapping timeline of a mutated spec
/// measured.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RemapSummary {
    /// Mapping epochs executed over the timeline.
    pub epochs: usize,
    /// Rounds until the first correct map (see
    /// [`DynamicRun::initial_rounds`](gtd_baselines::DynamicRun)).
    pub initial_rounds: u64,
    /// Remap latency per scheduled mutation, in schedule order.
    pub latencies: Vec<Option<u64>>,
    /// Processors at the end of each epoch, in timeline order
    /// (membership mutations change N mid-run).
    pub epoch_nodes: Vec<usize>,
}

impl RemapSummary {
    /// Median remap latency over the mutations that were remapped (lower
    /// middle for even counts).
    pub fn median_latency(&self) -> Option<u64> {
        let mut ls: Vec<u64> = self.latencies.iter().flatten().copied().collect();
        lower_median(&mut ls)
    }
}

/// What a successful cell measured. Only logical quantities — never wall
/// time — so reports are reproducible byte-for-byte.
#[derive(Clone, Debug, PartialEq)]
pub struct CellOutcome {
    /// Synchronous rounds until the collector had the map (for dynamic
    /// cells: total rounds over the whole remapping timeline).
    pub rounds: u64,
    /// Messages, for mappers that count them.
    pub messages: Option<u64>,
    /// Did the discovered edge set match ground truth exactly (for
    /// dynamic cells: did the final map match the final topology)?
    pub verified: bool,
    /// RCAs run (static GTD cells only).
    pub rcas: Option<usize>,
    /// BCAs run (static GTD cells only).
    pub bcas: Option<usize>,
    /// Snake characters refused by the bounded dwell queues (static GTD
    /// cells only; 0 on clean runs).
    pub dropped: Option<u64>,
    /// Lemma 4.2 cleanliness (static GTD cells only).
    pub clean: Option<bool>,
    /// Phase breakdown of the run's ticks (static GTD cells only).
    pub phases: Option<PhaseBreakdown>,
    /// Remapping timeline results (dynamic cells only).
    pub remap: Option<RemapSummary>,
    /// Characters the wire fault plane destroyed (GTD cells whose spec
    /// carries an active plane; `None` on reliable wires so legacy rows
    /// re-render byte-identically).
    pub fault_dropped: Option<u64>,
    /// Characters the wire fault plane delivered late (as above).
    pub fault_delayed: Option<u64>,
    /// Retries the faulted static run spent before verifying (as above;
    /// dynamic timelines account retries per epoch instead).
    pub retries: Option<u32>,
}

/// One grid cell's identity and result.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Canonical spec string, mutation suffixes included (round-trips
    /// through [`DynamicSpec`]'s `FromStr`).
    pub spec: String,
    /// Mapper name.
    pub mapper: String,
    /// Engine mode the cell ran under.
    pub mode: EngineMode,
    /// Remap policy the cell ran under (meaningful for dynamic GTD
    /// cells; recorded for every cell so the axis is always visible).
    pub policy: RemapPolicy,
    /// Root processor.
    pub root: NodeId,
    /// Repetition index (0-based).
    pub rep: usize,
    /// Processors in the built topology.
    pub nodes: usize,
    /// Wires in the built topology.
    pub edges: usize,
    /// The campaign tick budget the cell ran under (`None` = the
    /// default, spec-derived budget). Part of the cell's identity: the
    /// same cell can succeed under one budget and exhaust another.
    pub budget: Option<u64>,
    /// Measurement or captured failure.
    pub result: Result<CellOutcome, CellError>,
}

/// A grid cell's identity — every input a cell's result is a pure
/// function of: (spec, mapper, mode name, policy name, root, rep, tick
/// budget).
pub type CacheKey = (
    String,
    String,
    &'static str,
    &'static str,
    u32,
    usize,
    Option<u64>,
);

/// Parse a JSONL export ([`CampaignReport::to_jsonl`] / `harness grid
/// --json`) back into records. The inverse of [`RunRecord::to_json`] up
/// to fields the export does not carry (phase RCA counts), so re-rendering
/// a parsed record reproduces its row byte-for-byte — the property the
/// incremental cache ([`Campaign::resume_from`]) relies on. Rows that are
/// not grid records are skipped — `harness run` experiment rows, and
/// engine perf rows, which older harness versions wrote grid-shaped but
/// marked with a `"bench"` member precisely so they can never satisfy a
/// campaign cell; exports holding them still load. Lines that fail to
/// parse as JSON are an error naming the line.
pub fn parse_jsonl(text: &str) -> Result<Vec<RunRecord>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let row = JsonValue::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if row.get("bench").is_some() {
            continue;
        }
        if let Some(rec) = RunRecord::from_json(&row) {
            out.push(rec);
        }
    }
    Ok(out)
}

impl CellSpec {
    /// This cell's deterministic identity — matches
    /// [`RunRecord::cache_key`] of the record executing it produces.
    pub fn key(&self) -> CacheKey {
        (
            self.spec.to_string(),
            self.mapper.clone(),
            self.mode.name(),
            self.policy.name(),
            self.root.0,
            self.rep,
            self.budget,
        )
    }
}

impl RunRecord {
    /// This cell's deterministic identity (see [`Campaign::resume_from`]).
    pub fn cache_key(&self) -> CacheKey {
        (
            self.spec.clone(),
            self.mapper.clone(),
            self.mode.name(),
            self.policy.name(),
            self.root.0,
            self.rep,
            self.budget,
        )
    }

    /// May this record be reused for a cell with the same
    /// [`RunRecord::cache_key`]? True for successful cells and logical
    /// failures; false for operational failures (`cell-timeout`,
    /// `worker-lost`), which depend on the wall clock and the worker
    /// fleet rather than on the cell's inputs.
    pub fn is_cacheable(&self) -> bool {
        match &self.result {
            Ok(_) => true,
            Err(e) => CellError::kind_is_deterministic(e.kind),
        }
    }

    /// Parse one JSONL row back into a record — `None` when the object is
    /// not a grid record. Rows predating the policy axis default to
    /// `lazy` (its historical value). Inverse of [`RunRecord::to_json`];
    /// see [`parse_jsonl`].
    pub fn from_json(row: &JsonValue) -> Option<RunRecord> {
        let spec = str_field(row, "spec")?;
        let mapper = str_field(row, "mapper")?;
        let mode: EngineMode = str_field(row, "mode")?.parse().ok()?;
        let policy: RemapPolicy = match row.get("policy") {
            Some(JsonValue::Str(s)) => s.parse().ok()?,
            None => RemapPolicy::Lazy,
            _ => return None,
        };
        let root = NodeId(num_field(row, "root")? as u32);
        let rep = num_field(row, "rep")? as usize;
        let nodes = num_field(row, "n")? as usize;
        let edges = num_field(row, "e")? as usize;
        let result = if bool_field(row, "ok")? {
            let remap = match row.get("remap_latencies") {
                Some(JsonValue::Arr(ls)) => Some(RemapSummary {
                    epochs: num_field(row, "epochs")? as usize,
                    initial_rounds: num_field(row, "initial_rounds")?,
                    latencies: ls
                        .iter()
                        .map(|l| match l {
                            JsonValue::Num(n) => Some(*n as u64),
                            _ => None,
                        })
                        .collect(),
                    epoch_nodes: match row.get("epoch_n") {
                        Some(JsonValue::Arr(ns)) => ns
                            .iter()
                            .map(|n| match n {
                                JsonValue::Num(n) => *n as usize,
                                _ => 0,
                            })
                            .collect(),
                        _ => Vec::new(),
                    },
                }),
                _ => None,
            };
            // The export carries the four phase tick counters but not the
            // breakdown's RCA count, which is left zero — to_json never
            // renders it, so round-trips stay byte-identical.
            let phases = row.get("phases").map(|p| PhaseBreakdown {
                search: num_field(p, "search").unwrap_or(0),
                echo: num_field(p, "echo").unwrap_or(0),
                mark: num_field(p, "mark").unwrap_or(0),
                report_cleanup: num_field(p, "report_cleanup").unwrap_or(0),
                rcas: 0,
            });
            Ok(CellOutcome {
                rounds: num_field(row, "rounds")?,
                messages: num_field(row, "messages"),
                verified: bool_field(row, "verified")?,
                rcas: num_field(row, "rcas").map(|r| r as usize),
                bcas: num_field(row, "bcas").map(|b| b as usize),
                dropped: num_field(row, "dropped"),
                clean: bool_field(row, "clean"),
                phases,
                remap,
                fault_dropped: num_field(row, "fault_dropped"),
                fault_delayed: num_field(row, "fault_delayed"),
                retries: num_field(row, "retries").map(|r| r as u32),
            })
        } else {
            let kind = CellError::kind_from_str(&str_field(row, "error_kind")?)?;
            Err(CellError {
                kind,
                message: str_field(row, "error")?,
            })
        };
        Some(RunRecord {
            spec,
            mapper,
            mode,
            policy,
            root,
            rep,
            nodes,
            edges,
            budget: num_field(row, "budget"),
            result,
        })
    }

    /// Render as one flat JSON object (one JSONL row).
    pub fn to_json(&self) -> JsonValue {
        let mut row = crate::json!({
            "spec": self.spec,
            "mapper": self.mapper,
            "mode": self.mode.name(),
            "policy": self.policy.name(),
            "root": self.root.0,
            "rep": self.rep,
            "n": self.nodes,
            "e": self.edges,
            "ok": self.result.is_ok(),
        });
        let JsonValue::Obj(map) = &mut row else {
            unreachable!("json! builds an object")
        };
        if let Some(budget) = self.budget {
            map.insert("budget".into(), JsonValue::Num(budget as f64));
        }
        // The spec string is canonical, so its fault segments (between the
        // base and the first mutation suffix) ARE the plane's seed and
        // parameters; echo them in a dedicated member so fault schedules
        // are greppable without re-parsing specs. Derived from `spec`, so
        // parse → re-render stays byte-identical.
        if let Some(start) = self.spec.find('~') {
            let end = self.spec.find('+').unwrap_or(self.spec.len());
            map.insert("fault".into(), JsonValue::Str(self.spec[start..end].into()));
        }
        match &self.result {
            Ok(out) => {
                map.insert("rounds".into(), JsonValue::Num(out.rounds as f64));
                map.insert(
                    "messages".into(),
                    out.messages
                        .map_or(JsonValue::Null, |m| JsonValue::Num(m as f64)),
                );
                map.insert("verified".into(), JsonValue::Bool(out.verified));
                if let Some(rcas) = out.rcas {
                    map.insert("rcas".into(), JsonValue::Num(rcas as f64));
                }
                if let Some(bcas) = out.bcas {
                    map.insert("bcas".into(), JsonValue::Num(bcas as f64));
                }
                if let Some(dropped) = out.dropped {
                    map.insert("dropped".into(), JsonValue::Num(dropped as f64));
                }
                if let Some(clean) = out.clean {
                    map.insert("clean".into(), JsonValue::Bool(clean));
                }
                if let Some(p) = &out.phases {
                    map.insert(
                        "phases".into(),
                        crate::json!({
                            "search": p.search,
                            "echo": p.echo,
                            "mark": p.mark,
                            "report_cleanup": p.report_cleanup,
                        }),
                    );
                }
                if let Some(r) = &out.remap {
                    map.insert("epochs".into(), JsonValue::Num(r.epochs as f64));
                    map.insert(
                        "initial_rounds".into(),
                        JsonValue::Num(r.initial_rounds as f64),
                    );
                    map.insert(
                        "remap_latencies".into(),
                        JsonValue::Arr(
                            r.latencies
                                .iter()
                                .map(|l| l.map_or(JsonValue::Null, |v| JsonValue::Num(v as f64)))
                                .collect(),
                        ),
                    );
                    map.insert(
                        "epoch_n".into(),
                        JsonValue::Arr(
                            r.epoch_nodes
                                .iter()
                                .map(|&n| JsonValue::Num(n as f64))
                                .collect(),
                        ),
                    );
                }
                if let Some(fd) = out.fault_dropped {
                    map.insert("fault_dropped".into(), JsonValue::Num(fd as f64));
                }
                if let Some(fd) = out.fault_delayed {
                    map.insert("fault_delayed".into(), JsonValue::Num(fd as f64));
                }
                if let Some(r) = out.retries {
                    map.insert("retries".into(), JsonValue::Num(r as f64));
                }
            }
            Err(err) => {
                map.insert("error_kind".into(), JsonValue::Str(err.kind.into()));
                map.insert("error".into(), JsonValue::Str(err.message.clone()));
            }
        }
        row
    }
}

/// Aggregated rounds over one (spec, mapper, mode, policy) group.
#[derive(Clone, Debug, PartialEq)]
pub struct GroupStat {
    /// Canonical spec string.
    pub spec: String,
    /// Mapper name.
    pub mapper: String,
    /// Engine mode.
    pub mode: EngineMode,
    /// Remap policy.
    pub policy: RemapPolicy,
    /// Cells in the group (roots × reps).
    pub runs: usize,
    /// Cells that failed.
    pub errors: usize,
    /// Minimum rounds over successful cells.
    pub min_rounds: Option<u64>,
    /// Median rounds over successful cells (lower middle for even
    /// counts).
    pub median_rounds: Option<u64>,
    /// Maximum rounds over successful cells.
    pub max_rounds: Option<u64>,
    /// Minimum remap latency over the group's dynamic cells.
    pub min_remap: Option<u64>,
    /// Median remap latency over the group's dynamic cells.
    pub median_remap: Option<u64>,
    /// Maximum remap latency over the group's dynamic cells.
    pub max_remap: Option<u64>,
}

/// The outcome of [`Campaign::run`]: every cell's record, in grid order.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignReport {
    /// One record per grid cell, ordered spec → mapper → mode → root →
    /// rep regardless of worker count.
    pub records: Vec<RunRecord>,
    /// How many of those records were satisfied from the incremental
    /// cache ([`Campaign::resume_from`]) instead of executing live.
    pub cached: usize,
}

impl CampaignReport {
    /// Number of cells whose result is an error.
    pub fn error_count(&self) -> usize {
        self.records.iter().filter(|r| r.result.is_err()).count()
    }

    /// Group consecutive records by (spec, mapper, mode, policy) — the
    /// grid order keeps groups contiguous — and aggregate rounds.
    pub fn aggregate(&self) -> Vec<GroupStat> {
        let mut out: Vec<GroupStat> = Vec::new();
        let mut samples: Vec<u64> = Vec::new();
        let mut remap_samples: Vec<u64> = Vec::new();
        let finish = |g: &mut GroupStat, samples: &mut Vec<u64>, remap: &mut Vec<u64>| {
            g.median_rounds = lower_median(samples);
            g.min_rounds = samples.first().copied();
            g.max_rounds = samples.last().copied();
            samples.clear();
            g.median_remap = lower_median(remap);
            g.min_remap = remap.first().copied();
            g.max_remap = remap.last().copied();
            remap.clear();
        };
        for rec in &self.records {
            let fresh = match out.last() {
                Some(g) => {
                    g.spec != rec.spec
                        || g.mapper != rec.mapper
                        || g.mode != rec.mode
                        || g.policy != rec.policy
                }
                None => true,
            };
            if fresh {
                if let Some(g) = out.last_mut() {
                    finish(g, &mut samples, &mut remap_samples);
                }
                out.push(GroupStat {
                    spec: rec.spec.clone(),
                    mapper: rec.mapper.clone(),
                    mode: rec.mode,
                    policy: rec.policy,
                    runs: 0,
                    errors: 0,
                    min_rounds: None,
                    median_rounds: None,
                    max_rounds: None,
                    min_remap: None,
                    median_remap: None,
                    max_remap: None,
                });
            }
            let g = out.last_mut().expect("pushed above");
            g.runs += 1;
            match &rec.result {
                Ok(o) => {
                    samples.push(o.rounds);
                    if let Some(r) = &o.remap {
                        remap_samples.extend(r.latencies.iter().flatten());
                    }
                }
                Err(_) => g.errors += 1,
            }
        }
        if let Some(g) = out.last_mut() {
            finish(g, &mut samples, &mut remap_samples);
        }
        out
    }

    /// Serialize all records as JSON lines (one object per cell, ending
    /// with a trailing newline). Byte-identical for any
    /// [`Campaign::jobs`] value.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in &self.records {
            out.push_str(&rec.to_json().render());
            out.push('\n');
        }
        out
    }

    /// Serialize all records as CSV (header + one row per cell). Fields
    /// containing commas or quotes are quoted per RFC 4180.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "spec,mapper,mode,policy,root,rep,n,e,ok,rounds,messages,verified,clean,epochs,epoch_n,remap_median,fault_dropped,fault_delayed,retries,error_kind,error\n",
        );
        for rec in &self.records {
            let blank = String::new;
            let opt = |v: Option<String>| v.unwrap_or_default();
            let (
                rounds,
                messages,
                verified,
                clean,
                epochs,
                epoch_n,
                remap_median,
                fault_dropped,
                fault_delayed,
                retries,
                kind,
                error,
            ) = match &rec.result {
                Ok(o) => (
                    o.rounds.to_string(),
                    o.messages.map_or(String::new(), |m| m.to_string()),
                    o.verified.to_string(),
                    o.clean.map_or(String::new(), |c| c.to_string()),
                    o.remap
                        .as_ref()
                        .map_or(String::new(), |r| r.epochs.to_string()),
                    // per-epoch processor counts, ';'-joined (one CSV
                    // field, no quoting needed)
                    o.remap.as_ref().map_or(String::new(), |r| {
                        r.epoch_nodes
                            .iter()
                            .map(usize::to_string)
                            .collect::<Vec<_>>()
                            .join(";")
                    }),
                    o.remap
                        .as_ref()
                        .and_then(RemapSummary::median_latency)
                        .map_or(String::new(), |l| l.to_string()),
                    opt(o.fault_dropped.map(|v| v.to_string())),
                    opt(o.fault_delayed.map(|v| v.to_string())),
                    opt(o.retries.map(|v| v.to_string())),
                    String::new(),
                    String::new(),
                ),
                Err(e) => (
                    blank(),
                    blank(),
                    blank(),
                    blank(),
                    blank(),
                    blank(),
                    blank(),
                    blank(),
                    blank(),
                    blank(),
                    e.kind.to_string(),
                    e.message.clone(),
                ),
            };
            let fields = [
                rec.spec.clone(),
                rec.mapper.clone(),
                rec.mode.name().to_string(),
                rec.policy.name().to_string(),
                rec.root.0.to_string(),
                rec.rep.to_string(),
                rec.nodes.to_string(),
                rec.edges.to_string(),
                rec.result.is_ok().to_string(),
                rounds,
                messages,
                verified,
                clean,
                epochs,
                epoch_n,
                remap_median,
                fault_dropped,
                fault_delayed,
                retries,
                kind,
                error,
            ];
            let row: Vec<String> = fields.iter().map(|f| csv_escape(f)).collect();
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

fn csv_escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> Campaign {
        Campaign::new()
            .parse_specs(["ring:8", "debruijn:2,3"])
            .unwrap()
            .mappers(["gtd", "routed-dfs", "flood-echo"])
            .modes([EngineMode::Dense, EngineMode::Sparse])
    }

    #[test]
    fn grid_order_is_spec_mapper_mode_root_rep() {
        let report = tiny_grid().run().unwrap();
        assert_eq!(report.records.len(), 2 * 3 * 2);
        assert_eq!(report.records[0].spec, "ring:8");
        assert_eq!(report.records[0].mapper, "gtd");
        assert_eq!(report.records[0].mode, EngineMode::Dense);
        assert_eq!(report.records[1].mode, EngineMode::Sparse);
        assert_eq!(report.records[2].mapper, "routed-dfs");
        assert_eq!(report.records[6].spec, "debruijn:2,3");
        assert!(report.records.iter().all(|r| r.result.is_ok()));
    }

    #[test]
    fn empty_axes_and_unknown_mappers_fail_fast() {
        assert_eq!(
            Campaign::new().run().unwrap_err(),
            CampaignError::EmptyAxis("topology specs")
        );
        assert_eq!(
            Campaign::new()
                .parse_specs(["ring:8"])
                .unwrap()
                .run()
                .unwrap_err(),
            CampaignError::EmptyAxis("mappers")
        );
        assert_eq!(
            Campaign::new()
                .parse_specs(["ring:8"])
                .unwrap()
                .mappers(["oracle"])
                .run()
                .unwrap_err(),
            CampaignError::UnknownMapper("oracle".into())
        );
        assert!(matches!(
            Campaign::new().parse_specs(["ring:one"]).unwrap_err(),
            CampaignError::Spec(_)
        ));
    }

    #[test]
    fn out_of_range_root_is_a_cell_error_not_a_grid_failure() {
        let report = Campaign::new()
            .parse_specs(["ring:4", "ring:4+rewire=1@t50", "ring:16"])
            .unwrap()
            .mappers(["gtd", "routed-dfs", "flood-echo"])
            .roots([NodeId(9)])
            .run()
            .unwrap();
        assert_eq!(report.records.len(), 9);
        // n9 exists in ring:16 but not in ring:4, static or dynamic
        for rec in &report.records[..6] {
            let err = rec.result.as_ref().unwrap_err();
            assert_eq!(err.kind, "precondition", "{} on {}", rec.mapper, rec.spec);
            assert_eq!(
                err.message,
                format!(
                    "{} run failed: precondition violated: root n9 out of range \
                     (network has 4 processors)",
                    rec.mapper
                )
            );
        }
        assert!(report.records[6..].iter().all(|r| r.result.is_ok()));
        assert_eq!(report.error_count(), 6);
    }

    #[test]
    fn invariant_errors_round_trip_as_their_own_kind() {
        let what = "network failed to settle after termination";
        let err = CellError::from(MapperError::Gtd(GtdError::Invariant { what, tick: 7 }));
        assert_eq!(err.kind, "invariant");
        assert!(err.message.contains(what), "{}", err.message);
        assert_eq!(CellError::kind_from_str("invariant"), Some("invariant"));
        assert!(CellError::kind_is_deterministic("invariant"));
    }

    #[test]
    fn aggregate_groups_by_spec_mapper_mode() {
        let report = Campaign::new()
            .parse_specs(["ring:8"])
            .unwrap()
            .mappers(["gtd"])
            .roots([NodeId(0), NodeId(3), NodeId(5)])
            .run()
            .unwrap();
        let agg = report.aggregate();
        assert_eq!(agg.len(), 1);
        assert_eq!(agg[0].runs, 3);
        assert_eq!(agg[0].errors, 0);
        let (min, med, max) = (
            agg[0].min_rounds.unwrap(),
            agg[0].median_rounds.unwrap(),
            agg[0].max_rounds.unwrap(),
        );
        assert!(min <= med && med <= max);
    }

    #[test]
    fn csv_quotes_fields_with_commas() {
        let report = Campaign::new()
            .parse_specs(["debruijn:2,3"])
            .unwrap()
            .mappers(["flood-echo"])
            .run()
            .unwrap();
        let csv = report.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("spec,mapper,"));
        let row = lines.next().unwrap();
        assert!(row.starts_with("\"debruijn:2,3\",flood-echo,"), "{row}");
    }

    #[test]
    fn fault_schedules_are_part_of_the_cache_key() {
        // The canonical spec string embeds the fault suffixes (loss,
        // delay, seed), and the spec string is the first component of the
        // cache key — so a record produced under one fault schedule can
        // never satisfy a cell under another, and `--resume-from` is safe
        // across fault-plane changes by construction.
        let mk = |s: &str| CellSpec {
            spec: s.parse().unwrap(),
            mapper: "gtd".into(),
            mode: EngineMode::Sparse,
            policy: RemapPolicy::Lazy,
            root: NodeId(0),
            rep: 0,
            budget: None,
        };
        let reliable = mk("ring:8");
        let lossy = mk("ring:8~loss=0.01~fault-seed=7");
        let reseeded = mk("ring:8~loss=0.01~fault-seed=8");
        let delayed = mk("ring:8~delay=1..2~fault-seed=7");
        let keys = [reliable.key(), lossy.key(), reseeded.key(), delayed.key()];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b, "fault schedules collided in the cache key");
            }
        }
        // An all-zero plane parses back to the unfaulted spec, so it
        // shares the unfaulted cell's key (and may reuse its cached row).
        assert_eq!(mk("ring:8~loss=0").key(), reliable.key());
        // And the executed record's key matches its cell's key, so the
        // resume cache actually admits faulted rows.
        let rec = lossy.execute_built();
        assert_eq!(rec.cache_key(), lossy.key());
        assert!(rec.is_cacheable());
    }

    #[test]
    fn resume_never_crosses_fault_schedules() {
        let first = Campaign::new()
            .parse_specs(["ring:6~loss=0.001~fault-seed=8"])
            .unwrap()
            .mappers(["gtd"])
            .run()
            .unwrap();
        assert_eq!(first.cached, 0);
        // Same grid resumed from its own export: fully cached.
        let again = Campaign::new()
            .parse_specs(["ring:6~loss=0.001~fault-seed=8"])
            .unwrap()
            .mappers(["gtd"])
            .resume_from(first.records.clone())
            .run()
            .unwrap();
        assert_eq!(again.cached, 1);
        assert_eq!(again.records, first.records);
        // A different fault seed is a different cell: nothing reused.
        let reseeded = Campaign::new()
            .parse_specs(["ring:6~loss=0.001~fault-seed=9"])
            .unwrap()
            .mappers(["gtd"])
            .resume_from(first.records.clone())
            .run()
            .unwrap();
        assert_eq!(reseeded.cached, 0);
    }

    #[test]
    fn faulted_rows_carry_fault_fields_and_round_trip() {
        let report = Campaign::new()
            .parse_specs(["ring:6~loss=0.001~fault-seed=8", "ring:6"])
            .unwrap()
            .mappers(["gtd"])
            .run()
            .unwrap();
        let jsonl = report.to_jsonl();
        let (faulted_row, reliable_row) = {
            let mut lines = jsonl.lines();
            (lines.next().unwrap(), lines.next().unwrap())
        };
        // The faulted row records the schedule (seed included) and the
        // counters; the reliable row is schema-identical to a pre-fault
        // export.
        assert!(faulted_row.contains("\"fault\":\"~loss=0.001~fault-seed=8\""));
        assert!(faulted_row.contains("\"fault_dropped\""));
        assert!(faulted_row.contains("\"retries\""));
        for key in ["fault", "fault_dropped", "fault_delayed", "retries"] {
            assert!(!reliable_row.contains(&format!("\"{key}\"")), "{key}");
        }
        // Byte-identical round-trip, fault fields included. (Full record
        // equality is not asserted: the export intentionally drops the
        // phase breakdown's RCA count — see `from_json`.)
        let parsed = parse_jsonl(&jsonl).unwrap();
        let rerendered: String = parsed.iter().map(|r| r.to_json().render() + "\n").collect();
        assert_eq!(rerendered, jsonl);
    }

    #[test]
    fn hopeless_fault_schedules_degrade_to_a_structured_cell_error() {
        let report = Campaign::new()
            .parse_specs(["ring:6~loss=1~fault-seed=1"])
            .unwrap()
            .mappers(["gtd", "flood-echo"])
            .run()
            .unwrap();
        let err = report.records[0].result.as_ref().unwrap_err();
        assert_eq!(err.kind, "fault-degraded");
        assert!(err.message.contains("Exhausted"), "{}", err.message);
        // Degraded cells are deterministic, so the cache may reuse them.
        assert!(report.records[0].is_cacheable());
        // The analytic baseline never touches a wire: same spec, still ok.
        assert!(report.records[1].result.is_ok());
    }
}
