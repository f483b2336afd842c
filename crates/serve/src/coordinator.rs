//! The campaign-service coordinator: a long-lived process that accepts
//! grid requests, shards their cells across worker processes, streams
//! completed rows back in deterministic grid order, and survives worker
//! failure.
//!
//! # Architecture
//!
//! All decisions are made by the **pure coordinator brain**
//! ([`gtd_check::brain`]): a `step(&mut State, Event) -> Vec<Effect>`
//! state machine with no clocks, threads, or sockets. This module is
//! the imperative shell around it — one **brain thread** translates the
//! outside world (listener, per-connection readers, a 200 ms ticker)
//! into brain [`events`](gtd_check::brain::Event) and performs the
//! returned [`effects`](gtd_check::brain::Effect) on real TCP streams,
//! the record store, and the JSONL journal.
//!
//! The split is what makes the service *checkable*: `gtd-check model`
//! exhaustively explores the very same transition function under
//! adversarial interleavings (crashes, stalls, duplicates, phantoms,
//! expiry races) and proves the invariant battery — every grid
//! terminates, no double-caching, bounded re-issue, no cache poisoning
//! from revoked leases, monotone grid-order streaming. See the README's
//! "Correctness tooling" section.
//!
//! # Fault model
//!
//! * Every issued cell is a **lease**: worker + deadline. The deadline
//!   is derived from the cell's tick budget (a wedged worker cannot hold
//!   a cell hostage for longer than the work could honestly take).
//! * Workers **heartbeat** even mid-cell; a silent worker is declared
//!   dead and its leases revoked. A worker whose connection drops (crash,
//!   kill) is detected immediately via EOF.
//! * A revoked lease is **re-issued** to a surviving worker, up to
//!   [`ServeOptions::max_attempts`] total attempts; after that the cell
//!   lands as a structured `worker-lost` [`CellError`](gtd_bench::CellError)
//!   — a grid always terminates.
//! * A worker that stalls past its lease is **quarantined** (no new
//!   cells) until it answers or dies; a late/duplicate result for a
//!   revoked or completed lease is ignored by lease id.
//! * Completed cells enter the coordinator's **cache** (and, with
//!   [`ServeOptions::cache_path`], an append-only JSONL journal reloaded
//!   on restart), so a re-submitted grid — or a grid re-served after a
//!   coordinator crash — completes with zero live cells, byte-identical.

use crate::protocol::{
    read_message, write_message, GridRequest, Message, ProtocolError, HEARTBEAT_MS,
};
use gtd_bench::{CacheKey, CellError, CellSpec, RunRecord};
use gtd_check::brain::{self, CellSeed, Effect, LoseReason};
use gtd_core::default_tick_budget;
use gtd_netsim::Topology;
use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::time::{Duration, Instant};

/// Coordinator configuration (all knobs have service-grade defaults).
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port; the bound
    /// address is on the returned [`ServerHandle`]).
    pub listen: String,
    /// Append-only JSONL journal of completed cells. Loaded on startup
    /// when it exists — a restarted coordinator re-serves finished grids
    /// from cache with zero live cells.
    pub cache_path: Option<PathBuf>,
    /// Records to pre-seed the cache with (e.g. a `--resume-from`
    /// export). Non-cacheable records are ignored.
    pub seed: Vec<RunRecord>,
    /// Fixed lease duration overriding the tick-budget derivation —
    /// mainly for tests that need fast expiry.
    pub lease_override: Option<Duration>,
    /// Upper clamp for derived leases, overriding the n-scaled default
    /// (`--lease-max-ms`). Ignored when `lease_override` is set.
    pub lease_max: Option<Duration>,
    /// Total attempts per cell before it fails as `worker-lost` (first
    /// issue + re-issues). At least 1.
    pub max_attempts: u32,
    /// How long a grid may sit with live cells and *no* connected
    /// workers before those cells fail as `worker-lost`.
    pub no_worker_grace: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            listen: "127.0.0.1:0".into(),
            cache_path: None,
            seed: Vec::new(),
            lease_override: None,
            lease_max: None,
            max_attempts: 3,
            no_worker_grace: Duration::from_secs(15),
        }
    }
}

/// A running coordinator.
pub struct ServerHandle {
    /// The address the service is listening on.
    pub addr: SocketAddr,
    brain: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// Block on the brain thread (which never exits — the service runs
    /// until the process dies).
    pub fn wait(self) {
        let _ = self.brain.join();
    }
}

/// Start the coordinator: bind, spawn the listener/ticker/brain threads,
/// return immediately with the bound address.
pub fn serve(opts: ServeOptions) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&opts.listen)?;
    let addr = listener.local_addr()?;
    let (tx, rx) = mpsc::channel::<Event>();

    // Listener: one greeter thread per connection. The greeter reads the
    // first line to learn the peer's role, then keeps reading on the
    // connection's behalf.
    {
        let tx = tx.clone();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                let tx = tx.clone();
                std::thread::spawn(move || greet(stream, tx));
            }
        });
    }

    // Ticker: drives lease expiry and liveness checks.
    {
        let tx = tx.clone();
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_millis(200));
            if tx.send(Event::Tick).is_err() {
                break;
            }
        });
    }

    let mut shell = Shell::new(opts)?;
    let brain = std::thread::spawn(move || {
        while let Ok(event) = rx.recv() {
            shell.handle(event);
        }
    });
    Ok(ServerHandle { addr, brain })
}

/// What the I/O threads report to the brain.
enum Event {
    WorkerJoin { id: u64, writer: TcpStream },
    WorkerMsg { id: u64, msg: Message },
    WorkerBad { id: u64, err: ProtocolError },
    WorkerGone { id: u64 },
    Grid { req: GridRequest, writer: TcpStream },
    Tick,
}

static NEXT_CONN: AtomicU64 = AtomicU64::new(1);

/// Per-connection greeter: classify by first message, then pump events.
fn greet(stream: TcpStream, tx: Sender<Event>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    match read_message(&mut reader) {
        Ok(Some(Ok(Message::Hello))) => {
            let id = NEXT_CONN.fetch_add(1, Ordering::Relaxed);
            let Ok(write_half) = writer.try_clone() else {
                return;
            };
            if tx
                .send(Event::WorkerJoin {
                    id,
                    writer: write_half,
                })
                .is_err()
            {
                return;
            }
            loop {
                match read_message(&mut reader) {
                    Ok(Some(Ok(msg))) => {
                        if tx.send(Event::WorkerMsg { id, msg }).is_err() {
                            return;
                        }
                    }
                    Ok(Some(Err(err))) => {
                        if tx.send(Event::WorkerBad { id, err }).is_err() {
                            return;
                        }
                    }
                    Ok(None) | Err(_) => {
                        let _ = tx.send(Event::WorkerGone { id });
                        return;
                    }
                }
            }
        }
        Ok(Some(Ok(Message::Grid(req)))) => {
            if tx.send(Event::Grid { req, writer }).is_err() {
                return;
            }
            // The protocol has no further client → coordinator messages:
            // answer anything else with a structured error, stop at EOF.
            loop {
                match read_message(&mut reader) {
                    Ok(Some(Ok(_))) | Ok(Some(Err(_))) => {
                        let msg = Message::Error {
                            message: "unexpected message after grid request".into(),
                        };
                        let Ok(mut w) = reader.get_ref().try_clone() else {
                            return;
                        };
                        if write_message(&mut w, &msg).is_err() {
                            return;
                        }
                    }
                    Ok(None) | Err(_) => return,
                }
            }
        }
        Ok(Some(Ok(_))) => {
            let _ = write_message(
                &mut writer,
                &Message::Error {
                    message: "first message must be \"hello\" (worker) or \"grid\" (client)".into(),
                },
            );
        }
        Ok(Some(Err(ProtocolError(e)))) => {
            let _ = write_message(&mut writer, &Message::Error { message: e });
        }
        Ok(None) | Err(_) => {}
    }
}

/// A completed row the shell is holding for its slot: the record plus
/// the observability fields the journal and Row messages carry.
struct RowOut {
    record: Box<RunRecord>,
    worker_id: Option<u64>,
    wall_ms: Option<f64>,
}

/// The shell's half of the active grid: everything the brain's slot
/// indices refer to (cells, topologies, the client socket, records).
struct GridShell {
    client: Option<TcpStream>,
    cells: Vec<CellSpec>,
    /// Base topology per spec string (shared by the spec's cells).
    topos: HashMap<String, Topology>,
    cell_timeout_ms: Option<u64>,
    records: Vec<Option<RowOut>>,
}

/// The imperative shell: owns sockets, cache, and journal; delegates
/// every scheduling decision to the pure brain.
struct Shell {
    opts: ServeOptions,
    state: brain::State,
    /// Origin of the brain's logical clock.
    epoch: Instant,
    cache: HashMap<CacheKey, RunRecord>,
    journal: Option<std::fs::File>,
    writers: HashMap<u64, TcpStream>,
    active: Option<GridShell>,
    backlog: VecDeque<(GridRequest, TcpStream)>,
}

impl Shell {
    fn new(opts: ServeOptions) -> std::io::Result<Shell> {
        let mut cache: HashMap<CacheKey, RunRecord> = HashMap::new();
        let mut admit = |records: Vec<RunRecord>| {
            for r in records {
                if r.is_cacheable() {
                    cache.insert(r.cache_key(), r);
                }
            }
        };
        if let Some(path) = &opts.cache_path {
            if let Ok(text) = std::fs::read_to_string(path) {
                admit(
                    gtd_bench::parse_jsonl(&text)
                        .map_err(|e| std::io::Error::other(format!("{}: {e}", path.display())))?,
                );
            }
        }
        admit(opts.seed.clone());
        let journal = match &opts.cache_path {
            Some(path) => Some(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            ),
            None => None,
        };
        let state = brain::State::new(
            brain::Options {
                max_attempts: opts.max_attempts,
                silence_ms: HEARTBEAT_MS * 10,
                grace_ms: opts.no_worker_grace.as_millis() as u64,
            },
            brain::Faults::NONE,
        );
        Ok(Shell {
            opts,
            state,
            epoch: Instant::now(),
            cache,
            journal,
            writers: HashMap::new(),
            active: None,
            backlog: VecDeque::new(),
        })
    }

    fn handle(&mut self, event: Event) {
        // Brain events discovered while performing effects (write
        // failures become worker deaths) queue here and are applied
        // before the next I/O event.
        let mut pending: VecDeque<brain::Event> = VecDeque::new();
        match event {
            Event::WorkerJoin { id, writer } => {
                self.writers.insert(id, writer);
                self.apply(brain::Event::WorkerJoin { id }, None, &mut pending);
            }
            Event::WorkerGone { id } => {
                self.writers.remove(&id);
                self.apply(brain::Event::WorkerGone { id }, None, &mut pending);
            }
            Event::WorkerBad { id, err } => {
                // Malformed worker line: answer with a structured error,
                // keep the worker (its lease is still honored).
                if let Some(w) = self.writers.get_mut(&id) {
                    let _ = write_message(w, &Message::Error { message: err.0 });
                }
                self.apply(brain::Event::WorkerSeen { id }, None, &mut pending);
            }
            Event::WorkerMsg { id, msg } => match msg {
                Message::Heartbeat => {
                    self.apply(brain::Event::WorkerSeen { id }, None, &mut pending);
                }
                Message::Result {
                    cell,
                    wall_ms,
                    record,
                } => {
                    let cacheable = record.is_cacheable();
                    self.apply(
                        brain::Event::Result {
                            worker: id,
                            task: cell,
                            cacheable,
                        },
                        Some(RowOut {
                            record,
                            worker_id: Some(id),
                            wall_ms: Some(wall_ms),
                        }),
                        &mut pending,
                    );
                }
                // Anything else from a worker is unexpected: answer
                // with an error, keep serving.
                _ => {
                    if let Some(w) = self.writers.get_mut(&id) {
                        let _ = write_message(
                            w,
                            &Message::Error {
                                message: "unexpected message from worker".into(),
                            },
                        );
                    }
                    self.apply(brain::Event::WorkerSeen { id }, None, &mut pending);
                }
            },
            Event::Grid { req, writer } => {
                self.backlog.push_back((req, writer));
            }
            Event::Tick => {
                let now_ms = self.epoch.elapsed().as_millis() as u64;
                self.apply(brain::Event::Tick { now_ms }, None, &mut pending);
            }
        }
        loop {
            while let Some(ev) = pending.pop_front() {
                if let brain::Event::WorkerGone { id } = &ev {
                    self.writers.remove(id);
                }
                self.apply(ev, None, &mut pending);
            }
            // Start a queued grid once the brain is idle. A fully cached
            // grid completes inside `apply`, so keep going until the
            // brain is busy or the backlog is empty.
            if self.state.grid.is_none() && !self.backlog.is_empty() {
                self.start_next_grid(&mut pending);
                continue;
            }
            break;
        }
    }

    /// Step the brain and perform the returned effects. `payload`
    /// carries the record of a `Result` event for the `Accept` effect.
    fn apply(
        &mut self,
        event: brain::Event,
        mut payload: Option<RowOut>,
        pending: &mut VecDeque<brain::Event>,
    ) {
        for effect in self.state.step(event) {
            match effect {
                Effect::Welcome { worker } => {
                    let ok = self.writers.get_mut(&worker).is_some_and(|w| {
                        write_message(
                            w,
                            &Message::Welcome {
                                worker_id: worker,
                                heartbeat_ms: HEARTBEAT_MS,
                            },
                        )
                        .is_ok()
                    });
                    if !ok {
                        pending.push_back(brain::Event::WorkerGone { id: worker });
                    }
                }
                Effect::Assign {
                    worker, task, slot, ..
                } => {
                    let msg = self.active.as_ref().map(|grid| Message::Cell {
                        cell: task,
                        spec: grid.cells[slot].clone(),
                        cell_timeout_ms: grid.cell_timeout_ms,
                    });
                    let ok = match (self.writers.get_mut(&worker), msg) {
                        (Some(w), Some(msg)) => write_message(w, &msg).is_ok(),
                        _ => false,
                    };
                    if !ok {
                        pending.push_back(brain::Event::WorkerGone { id: worker });
                    }
                }
                Effect::Accept { slot, .. } => {
                    if let (Some(grid), Some(row)) = (&mut self.active, payload.take()) {
                        grid.records[slot] = Some(row);
                    }
                }
                Effect::CacheInsert { slot, .. } => self.cache_insert(slot),
                Effect::DropResult { .. } => {
                    // Late result for a revoked lease, or a duplicate:
                    // ignored. Results are deterministic, so the
                    // accepted copy is identical anyway.
                }
                Effect::Fail {
                    slot,
                    attempts,
                    reason,
                    ..
                } => {
                    if let Some(grid) = &mut self.active {
                        let why = match reason {
                            LoseReason::NoWorkers => reason.why().to_string(),
                            _ => format!("last lease revoked because {}", reason.why()),
                        };
                        let record = lost_record(&grid.cells[slot], &grid.topos, attempts, &why);
                        grid.records[slot] = Some(RowOut {
                            record: Box::new(record),
                            worker_id: None,
                            wall_ms: None,
                        });
                    }
                }
                Effect::GridStart { .. } => {
                    // Cached rows were pre-filled by start_next_grid.
                }
                Effect::Emit { slot, .. } => {
                    if let Some(grid) = &mut self.active {
                        // The model checker proves Emit only follows
                        // Accept/Fail/cache pre-fill; the map below is
                        // how the shell stays panic-free regardless.
                        if let (Some(client), Some(row)) = (&mut grid.client, &grid.records[slot]) {
                            let msg = Message::Row {
                                cell: slot,
                                record: row.record.clone(),
                                worker_id: row.worker_id,
                                wall_ms: row.wall_ms,
                            };
                            if write_message(client, &msg).is_err() {
                                // A client that went away stops receiving
                                // rows; the grid still completes (and
                                // caches).
                                grid.client = None;
                            }
                        }
                    }
                }
                Effect::GridDone {
                    cells,
                    cached,
                    retries,
                    ..
                } => {
                    if let Some(mut grid) = self.active.take() {
                        let errors = grid
                            .records
                            .iter()
                            .filter(|r| r.as_ref().is_some_and(|row| row.record.result.is_err()))
                            .count();
                        if let Some(client) = &mut grid.client {
                            let _ = write_message(
                                client,
                                &Message::Done {
                                    cells,
                                    errors,
                                    cached,
                                    retries,
                                },
                            );
                        }
                    }
                }
            }
        }
    }

    /// Journal + cache the accepted record held in `slot`.
    fn cache_insert(&mut self, slot: usize) {
        let Some(grid) = &self.active else { return };
        let Some(row) = &grid.records[slot] else {
            return;
        };
        let record = row.record.as_ref();
        self.cache.insert(record.cache_key(), record.clone());
        if let Some(journal) = &mut self.journal {
            let _ = writeln!(
                journal,
                "{}",
                service_row(record, row.worker_id, row.wall_ms).render()
            );
            let _ = journal.flush();
        }
    }

    /// Pop one queued request, plan it, and submit it to the brain (the
    /// brain is idle, so it starts immediately). Cache hits are decided
    /// here, at grid start.
    fn start_next_grid(&mut self, pending: &mut VecDeque<brain::Event>) {
        let Some((req, mut writer)) = self.backlog.pop_front() else {
            return;
        };
        let cells = match req.to_campaign().and_then(|c| c.plan()) {
            Ok(cells) => cells,
            Err(e) => {
                let _ = write_message(
                    &mut writer,
                    &Message::Error {
                        message: format!("bad grid request: {e}"),
                    },
                );
                return;
            }
        };
        let mut topos: HashMap<String, Topology> = HashMap::new();
        for cell in &cells {
            topos
                .entry(cell.spec.to_string())
                .or_insert_with(|| cell.spec.build());
        }
        let mut records: Vec<Option<RowOut>> = Vec::with_capacity(cells.len());
        let mut seeds: Vec<CellSeed> = Vec::with_capacity(cells.len());
        for cell in &cells {
            let cached = self.cache.get(&cell.key());
            records.push(cached.map(|record| RowOut {
                record: Box::new(record.clone()),
                worker_id: None,
                wall_ms: None,
            }));
            let lease = match self.opts.lease_override {
                Some(d) => d,
                None => lease_for(cell, &topos[&cell.spec.to_string()], self.opts.lease_max),
            };
            seeds.push(CellSeed {
                cached: cached.is_some(),
                lease_ms: lease.as_millis() as u64,
            });
        }
        self.active = Some(GridShell {
            client: Some(writer),
            cells,
            topos,
            cell_timeout_ms: req.cell_timeout_ms,
            records,
        });
        self.apply(brain::Event::Submit { cells: seeds }, None, pending);
    }
}

/// Lease duration for a cell: proportional to the work the cell may
/// honestly do (its tick budget × the number of mapping epochs), assuming
/// a conservative 100k engine-ticks/sec floor, clamped to [2s, cap].
///
/// The cap used to be a flat 120s, which a million-node cell exceeds on
/// any honest worker — every lease expired mid-run and the cell looped
/// to `worker-lost`. The default cap now scales with the cell's size
/// (120s per 100k nodes) so huge-but-heartbeating cells keep their
/// lease; `max` (`--lease-max-ms`) overrides the cap outright.
fn lease_for(cell: &CellSpec, topo: &Topology, max: Option<Duration>) -> Duration {
    let budget = cell.budget.unwrap_or_else(|| default_tick_budget(topo));
    let epochs = 1 + cell.spec.schedule.items().len() as u64;
    let cap = match max {
        Some(d) => (d.as_millis() as u64).max(1),
        None => 120_000u64.saturating_mul(((topo.num_nodes() as u64).div_ceil(100_000)).max(1)),
    };
    Duration::from_millis((budget.saturating_mul(epochs) / 100).clamp(2_000.min(cap), cap))
}

/// The structured record for a cell the service gave up on.
fn lost_record(
    cell: &CellSpec,
    topos: &HashMap<String, Topology>,
    attempts: u32,
    why: &str,
) -> RunRecord {
    let topo = &topos[&cell.spec.to_string()];
    cell.record(
        topo,
        Err(CellError {
            kind: "worker-lost",
            message: format!("cell abandoned after {attempts} lease(s): {why}"),
        }),
    )
}

/// A journal/observability row: the record payload plus `worker_id` and
/// `wall_ms`. [`RunRecord::from_json`] ignores the extra members, so the
/// journal reloads through [`gtd_bench::parse_jsonl`] and the fields
/// never affect [`RunRecord::cache_key`] or `harness compare`.
fn service_row(
    record: &RunRecord,
    worker_id: Option<u64>,
    wall_ms: Option<f64>,
) -> gtd_bench::json::JsonValue {
    use gtd_bench::json::JsonValue;
    let mut row = record.to_json();
    if let JsonValue::Obj(map) = &mut row {
        if let Some(w) = worker_id {
            map.insert("worker_id".into(), JsonValue::Num(w as f64));
        }
        if let Some(x) = wall_ms {
            map.insert("wall_ms".into(), JsonValue::Num(x));
        }
    }
    row
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // asserts may panic freely
mod tests {
    use super::*;
    use gtd_netsim::{DynamicSpec, EngineMode, NodeId};

    fn cell(spec: &str, budget: Option<u64>) -> (CellSpec, Topology) {
        let spec: DynamicSpec = spec.parse().expect("spec parses");
        let topo = spec.build();
        let cell = CellSpec {
            spec,
            mapper: "snake".into(),
            mode: EngineMode::Sparse,
            policy: Default::default(),
            root: NodeId(0),
            rep: 0,
            budget,
        };
        (cell, topo)
    }

    #[test]
    fn lease_cap_scales_with_cell_size() {
        // Small cells keep the historical 120s ceiling.
        let (small, topo) = cell("ring:64", Some(100_000_000));
        assert_eq!(
            lease_for(&small, &topo, None),
            Duration::from_millis(120_000)
        );
        // A huge cell's honest runtime exceeds 120s; the cap scales with
        // n (120s per 100k nodes) instead of revoking mid-run.
        let (big, topo) = cell("ring:200001", Some(100_000_000));
        assert_eq!(lease_for(&big, &topo, None), Duration::from_millis(360_000));
        // --lease-max-ms restores a hard ceiling when asked for.
        assert_eq!(
            lease_for(&big, &topo, Some(Duration::from_millis(120_000))),
            Duration::from_millis(120_000)
        );
        // A cap below the 2s floor wins: the operator asked for it.
        let (tiny, topo) = cell("ring:64", Some(1));
        assert_eq!(
            lease_for(&tiny, &topo, Some(Duration::from_millis(500))),
            Duration::from_millis(500)
        );
    }
}
