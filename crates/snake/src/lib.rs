//! # gtd-snake
//!
//! The data structures of Goldstein's protocol (paper §2): **tokens**,
//! **snakes**, **speeds**, and **marked loops**, implemented as reusable
//! finite-state components that `gtd-core`'s protocol automaton composes.
//!
//! A *snake* (Even–Litman–Winkler) is an arbitrarily long string of
//! constant-size characters stored across adjacent processors; its
//! characters encode a path as a series of `(out-port, in-port)` hops.
//! *Growing* snakes flood breadth-first and generate encoded paths;
//! *dying* snakes consume themselves to mark an encoded path. *Tokens* are
//! single constant-size markers (KILL, UNMARK, loop tokens). Every
//! construct moves at *speed-1* (3 ticks per hop) or *speed-3*
//! (1 tick per hop); the 3:1 ratio is what lets KILL tokens provably catch
//! up with growing-snake heads (paper Lemma 4.2).
//!
//! Nothing here decides *when* to do anything — initiation, conversion at
//! the root, and all sequencing live in `gtd-core`. This crate guarantees
//! the local, per-processor rules of §2 are followed exactly.

pub mod chars;
pub mod dying;
pub mod grow;
pub mod marks;
pub mod path;
pub mod signal;
pub mod speed;

pub use chars::{Hop, SnakeChar, SnakeKind};
pub use dying::{DyingEmit, DyingPassage};
pub use grow::{GrowEmit, GrowRelay};
pub use marks::{LoopMarks, MarkPair, Route};
pub use path::PortPath;
pub use signal::{BcaMsg, DfsToken, LoopToken, Presence, Signal};
pub use speed::{DwellItem, DwellQueue, DwellSpill, SPEED1_DWELL, SPEED3_DWELL};
