//! # gtd-baselines
//!
//! Comparison points for the GTD protocol (experiment E7) and the paper's
//! §5 lower-bound machinery (experiment E6).
//!
//! The baselines deliberately *break* the paper's hardest constraint —
//! finite-state processors — while keeping the directed-network model, so
//! the measured gap between them and GTD quantifies exactly what
//! finite-stateness costs:
//!
//! * [`flood_echo`] — every processor has a unique id and unbounded
//!   message capacity; local edge knowledge floods to the root in O(D)
//!   synchronous rounds. This is the fastest conceivable mapper and the
//!   idealized analogue of LAN mappers like Mainwaring et al.'s (§1.2.2).
//! * [`source_routed_dfs`] — unbounded-memory processors run the same DFS
//!   edge walk as GTD, but reports and backwards moves are source-routed
//!   messages instead of snake constructs: O(E·D) rounds with a tiny
//!   constant. The Θ(E·D) *shape* matches GTD; the constant is what snakes,
//!   KILL floods and UNMARK circuits cost.
//!
//! The [`lower_bound`] module implements Lemma 5.1 (the binary-tree+leaf-
//! loop family and its topology count), Lemma 5.2 (the transcript-capacity
//! bound), and Theorem 5.1's resulting minimum running time.

//!
//! The [`mapper`] module runs GTD *and* both baselines through the single
//! [`TopologyMapper`] probe-and-reconstruct interface, addressable by
//! stable name — the unit a campaign grid crosses with topologies, roots
//! and engine modes.

pub mod flood;
pub mod lower_bound;
pub mod mapper;
pub mod routed_dfs;

pub use flood::{flood_echo, FloodOutcome};
pub use lower_bound::{
    canonical_map_key, count_distinct_small, family_size_log2, min_ticks_lower_bound,
    signal_alphabet_log2, transcript_capacity_log2, tree_loop_params, TreeLoopParams,
};
pub use mapper::{
    all_mappers, mapper_by_name, mapper_names, DynamicRun, FloodEchoMapper, GtdMapper, MapperError,
    MapperRun, RoutedDfsMapper, TopologyMapper,
};
pub use routed_dfs::{source_routed_dfs, RoutedDfsOutcome};
