//! # gtd-check — correctness tooling for the gtd workspace
//!
//! Three pillars, std-only (this workspace builds fully offline):
//!
//! * [`brain`] — the campaign-service coordinator's decision core as a
//!   pure `step(&mut State, Event) -> Vec<Effect>` state machine.
//!   `gtd-serve` drives it against real sockets; the model checker
//!   drives it against every bounded event interleaving. Same code,
//!   both drivers.
//! * [`model`] — the bounded-exhaustive model checker: DFS over the
//!   adversarial event alphabet with state-hash pruning, an invariant
//!   battery ([`model::INVARIANTS`]), and a mutant matrix proving each
//!   invariant can actually fail.
//! * [`lint`] + [`lexer`] — `gtd-check lint`, token-level repo-specific
//!   static analysis with a reviewed allowlist (`lint.allow`): each
//!   token rule is one row of [`LINT_RULES`].
//!
//! Plus [`loc`], the non-test line count the ROADMAP reports.
//!
//! Binary: `gtd-check` (`lint` / `model` / `sanitize` / `ci` / `loc` /
//! `list`).

pub mod brain;
pub mod lexer;
pub mod lint;
pub mod loc;
pub mod model;

pub use lint::{lint_with_allowlist, parse_allowlist, LintOutcome, LintRule, LINT_RULES};
pub use model::{Config as ModelConfig, Report as ModelReport, INVARIANTS};
