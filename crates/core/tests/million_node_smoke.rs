//! Million-node smoke at debug-feasible scale: `random-sc:n=100000`
//! must build under the slot-table/SoA layout, sparse and parallel must agree
//! byte-for-byte on a bounded flood window, and steady-state ticks must
//! not allocate at all: every dwelling character stays in its
//! processor's inline dwell pool.
//!
//! The counting allocator is process-global, so this file holds exactly
//! one test: any neighbour would race the counter.

use gtd_core::events::TranscriptEvent;
use gtd_core::{ProtocolNode, StartBehavior};
use gtd_netsim::{Engine, EngineMode, NodeId, TopologySpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts every heap allocation (including `realloc` growth) made by the
/// test process. Frees are uncounted: the invariant under test is "no
/// new memory in steady state", not "no memory".
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// One bounded IG-flood window: build the engine, run `warm + measured`
/// ticks, and return the transcript bytes of the warm-up window, the
/// per-tick allocation counts over the measured ticks, and the number of
/// dwell lanes that spilled.
fn flood_window(
    topo: &gtd_netsim::Topology,
    mode: EngineMode,
    warm: u64,
    measured: u64,
) -> (Vec<u8>, Vec<usize>, usize) {
    let mut engine = Engine::new(topo, mode, |meta| {
        let start = if meta.id == NodeId(1) {
            StartBehavior::SingleRca
        } else {
            StartBehavior::Passive
        };
        ProtocolNode::new(&meta, start)
    });
    let mut transcript = Vec::new();
    let mut events: Vec<(NodeId, TranscriptEvent)> = Vec::new();
    let mut scratch = String::new();
    for t in 0..warm {
        engine.tick(&mut events);
        use std::fmt::Write;
        for (id, e) in events.drain(..) {
            scratch.clear();
            writeln!(scratch, "{t} {id} {e:?}").expect("fmt to String");
            transcript.extend_from_slice(scratch.as_bytes());
        }
    }
    let mut per_tick = Vec::with_capacity(measured as usize);
    for _ in 0..measured {
        let before = ALLOCS.load(Ordering::Relaxed);
        engine.tick(&mut events);
        events.clear();
        per_tick.push(ALLOCS.load(Ordering::Relaxed) - before);
    }
    let spilled = engine.nodes().iter().map(|n| n.spilled_lanes()).sum();
    (transcript, per_tick, spilled)
}

#[test]
fn hundred_k_nodes_build_agree_and_stay_alloc_free() {
    // The IG flood triples every ~3 ticks and covers the graph by tick
    // ~73 (measured); past that the only remaining activity is the DFS
    // crawl reaching one new node every ~4 ticks.
    let spec = TopologySpec::RandomSc {
        n: 100_000,
        delta: 3,
        seed: 9,
    };
    let topo = spec.build();
    assert_eq!(topo.num_nodes(), 100_000);

    let warm = 76;
    let measured = 20u64;
    let (sparse, per_tick, spilled) = flood_window(&topo, EngineMode::Sparse, warm, measured);
    let (parallel, _, _) = flood_window(&topo, EngineMode::Parallel, warm, measured);
    assert!(
        !sparse.is_empty(),
        "the flood window must produce transcript events"
    );
    assert_eq!(
        sparse, parallel,
        "sparse and parallel transcripts must be byte-identical"
    );
    // Steady-state ticks allocate zero, first touches included: a
    // clean run's characters never leave their processor's inline pool,
    // so no node ever boxes a slab.
    assert!(
        per_tick.iter().all(|&a| a == 0),
        "steady-state ticks must not allocate: {per_tick:?}"
    );
    assert_eq!(spilled, 0, "a clean flood must not spill a dwell lane");
}
