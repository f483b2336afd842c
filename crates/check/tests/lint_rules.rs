//! Per-rule lint tests: each rule fires on a minimal violating snippet
//! (and stays quiet on the clean twin), so a refactor that silently
//! disarms a rule fails here, not in a code review six months later.

use gtd_check::lint::{self, Workspace};
use gtd_check::{lint_with_allowlist, parse_allowlist};

/// Run the full lint over a synthetic workspace and keep one rule's hits.
fn findings(rule: &str, files: Vec<(&str, &str)>, readme: &str) -> Vec<lint::Violation> {
    lint::lint(&Workspace::synthetic(files, readme))
        .into_iter()
        .filter(|v| v.rule == rule)
        .collect()
}

/// A README that satisfies registry-sync (every registered name present),
/// so the other rules can be tested without registry noise.
fn full_readme() -> String {
    let mut readme = String::new();
    for m in gtd_netsim::MUTATION_REGISTRY {
        readme.push_str(m.name);
        readme.push('\n');
    }
    for f in gtd_netsim::spec::REGISTRY {
        readme.push_str(f.name);
        readme.push('\n');
    }
    for k in gtd_netsim::spec::FAULT_REGISTRY {
        readme.push_str(&format!("`{}`\n", k.name));
    }
    readme
}

/// An engine.rs snippet defining every scoped hot-path fn, with `tick`'s
/// body swappable so tests can plant a violation in it.
fn engine_with_tick(tick_body: &str) -> String {
    format!(
        r#"
        impl Engine {{
            pub fn new() -> Self {{ Engine {{ buf: Vec::new() }} }}
            pub fn tick(&mut self) {{ {tick_body} }}
            fn tick_dense(&mut self) {{}}
            fn tick_event(&mut self) {{}}
            fn tick_saturated(&mut self) {{}}
            fn rebuild_frontier(&mut self) {{}}
            fn run_phases(&mut self) {{}}
        }}
        unsafe fn shard_step(ctx: *const (), s: usize) {{}}
        unsafe fn shard_scatter(ctx: *const (), s: usize) {{}}
        unsafe fn shard_merge(ctx: *const (), s: usize) {{}}
        unsafe fn shard_step_all(ctx: *const (), s: usize) {{}}
        unsafe fn shard_gather(ctx: *const (), s: usize) {{}}
    "#
    )
}

#[test]
fn alloc_in_tick_path_is_flagged() {
    let engine = engine_with_tick("let v = vec![0u8; 4]; drop(v);");
    let hits = findings(
        "no-alloc-in-tick-path",
        vec![("crates/netsim/src/engine.rs", &engine)],
        &full_readme(),
    );
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].message.contains("vec!"), "{}", hits[0]);
    assert!(hits[0].excerpt.contains("vec!"), "{}", hits[0]);
}

#[test]
fn alloc_outside_the_hot_path_is_fine() {
    // `Vec::new` in the constructor is out of scope; a clean tick passes.
    let engine = engine_with_tick("self.buf.clear();");
    let hits = findings(
        "no-alloc-in-tick-path",
        vec![("crates/netsim/src/engine.rs", &engine)],
        &full_readme(),
    );
    assert!(hits.is_empty(), "{hits:?}");
}

#[test]
fn moved_hot_path_is_itself_a_violation() {
    // The rule must not go quiet when the function it guards is renamed.
    let engine = "impl Engine { pub fn step_once(&mut self) {} }";
    let hits = findings(
        "no-alloc-in-tick-path",
        vec![("crates/netsim/src/engine.rs", engine)],
        &full_readme(),
    );
    assert_eq!(hits.len(), 11, "one per scoped engine fn: {hits:?}");
    assert!(hits.iter().all(|v| v.message.contains("not found")));
}

#[test]
fn lock_in_pool_coordination_is_flagged_but_tests_are_exempt() {
    let pool = r#"
        use std::sync::Mutex;
        pub struct WorkerPool { guard: Mutex<()> }
        #[cfg(test)]
        mod tests {
            use std::sync::Mutex;
            #[test]
            fn test_side_lock() { let m = Mutex::new(()); drop(m.lock()); }
        }
    "#;
    let hits = findings(
        "no-lock-in-tick-path",
        vec![("crates/netsim/src/pool.rs", pool)],
        &full_readme(),
    );
    assert_eq!(hits.len(), 2, "use + field; test mod exempt: {hits:?}");
    assert!(hits.iter().all(|v| v.message.contains("Mutex")));
}

#[test]
fn atomic_pool_coordination_is_clean() {
    let pool = r#"
        use std::sync::atomic::{AtomicU64, AtomicUsize};
        pub struct PoolShared { seq: AtomicU64, next: AtomicUsize }
    "#;
    let hits = findings(
        "no-lock-in-tick-path",
        vec![("crates/netsim/src/pool.rs", pool)],
        &full_readme(),
    );
    assert!(hits.is_empty(), "{hits:?}");
}

#[test]
fn lock_in_the_engine_dispatch_path_is_flagged() {
    let engine = engine_with_tick("self.guard.lock();");
    let hits = findings(
        "no-lock-in-tick-path",
        vec![("crates/netsim/src/engine.rs", &engine)],
        &full_readme(),
    );
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].message.contains(".lock()"), "{}", hits[0]);
}

#[test]
fn unwrap_on_a_wire_path_is_flagged_but_tests_are_exempt() {
    let protocol = r#"
        pub fn decode(line: &str) -> u64 {
            line.parse().unwrap()
        }
        #[cfg(test)]
        mod tests {
            #[test]
            fn ok() { assert_eq!(super::decode("7"), 7); }
            #[test]
            fn test_side_unwrap() { "9".parse::<u64>().unwrap(); }
        }
    "#;
    let hits = findings(
        "no-unwrap-in-wire-paths",
        vec![("crates/serve/src/protocol.rs", protocol)],
        &full_readme(),
    );
    assert_eq!(hits.len(), 1, "test-mod unwrap must not count: {hits:?}");
    assert_eq!(hits[0].line, 3, "{}", hits[0]);
}

#[test]
fn panic_tokens_in_strings_and_comments_do_not_count() {
    let worker = r#"
        pub fn explain() -> &'static str {
            // a comment mentioning .unwrap() is documentation, not a panic
            "never call .unwrap() on wire input"
        }
    "#;
    let hits = findings(
        "no-unwrap-in-wire-paths",
        vec![("crates/serve/src/worker.rs", worker)],
        &full_readme(),
    );
    assert!(hits.is_empty(), "{hits:?}");
}

#[test]
fn clone_in_signal_code_is_flagged() {
    let snake = "pub fn forward(sig: &Signal) -> Signal { sig.clone() }";
    let hits = findings(
        "copy-sig-discipline",
        vec![("crates/snake/src/lib.rs", snake)],
        &full_readme(),
    );
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].message.contains(".clone()"));
}

#[test]
fn debug_assert_in_core_is_flagged() {
    let node = "pub fn on_signal(s: u8) { debug_assert!(s < 16); }";
    let hits = findings(
        "debug-assert-policy",
        vec![("crates/core/src/session.rs", node)],
        &full_readme(),
    );
    assert_eq!(hits.len(), 1, "{hits:?}");
}

#[test]
fn debug_assert_eq_and_ne_in_core_are_flagged() {
    let node = "pub fn on_signal(a: u8, b: u8) { debug_assert_eq!(a, b); debug_assert_ne!(a, 0); }";
    let hits = findings(
        "debug-assert-policy",
        vec![("crates/core/src/session.rs", node)],
        &full_readme(),
    );
    assert_eq!(hits.len(), 2, "{hits:?}");
}

#[test]
fn registry_drift_is_flagged() {
    // Two variants vs the real seven-entry registry: the counts disagree.
    let mutation = "pub enum MutationKind { DropEdge, AddEdge }";
    let hits = findings(
        "registry-sync",
        vec![("crates/netsim/src/mutation.rs", mutation)],
        &full_readme(),
    );
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].message.contains("MUTATION_REGISTRY"), "{}", hits[0]);
}

#[test]
fn registry_names_missing_from_readme_are_flagged() {
    let hits = findings("registry-sync", vec![], "");
    let expected = gtd_netsim::MUTATION_REGISTRY.len()
        + gtd_netsim::spec::REGISTRY.len()
        + gtd_netsim::spec::FAULT_REGISTRY.len();
    assert_eq!(hits.len(), expected, "{hits:?}");
    assert!(hits.iter().all(|v| v.file == "README.md"));
}

#[test]
fn wallclock_in_the_brain_is_flagged() {
    let brain = r#"
        use std::time::Instant;
        pub struct State { started: Instant }
    "#;
    let hits = findings(
        "pure-brain-no-wallclock",
        vec![("crates/check/src/brain.rs", brain)],
        &full_readme(),
    );
    assert_eq!(hits.len(), 2, "use + field: {hits:?}");
    // Identifier boundaries: `Instant` must not fire inside a longer name.
    let clean = findings(
        "pure-brain-no-wallclock",
        vec![(
            "crates/check/src/brain.rs",
            "pub struct InstantaneousRate(f64);",
        )],
        &full_readme(),
    );
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn every_registered_rule_has_a_firing_test() {
    // This file must grow with the registry: if a rule is added without a
    // violating-snippet test above, the count here goes stale on purpose.
    assert_eq!(lint::LINT_RULES.len(), 7);
}

#[test]
fn allowlist_suppresses_and_reports_stale() {
    let snake = "pub fn forward(sig: &Signal) -> Signal { sig.clone() }";
    let ws = Workspace::synthetic(vec![("crates/snake/src/lib.rs", snake)], &full_readme());
    let allow = parse_allowlist(
        "# comment\n\
         copy-sig-discipline crates/snake/src/lib.rs sig.clone\n\
         copy-sig-discipline crates/snake/src/gone.rs\n",
    );
    let outcome = lint_with_allowlist(&ws, &allow);
    assert_eq!(outcome.suppressed, 1);
    assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
    assert_eq!(outcome.stale.len(), 1, "the gone.rs entry matches nothing");
    assert_eq!(outcome.stale[0].file, "crates/snake/src/gone.rs");
    assert!(!outcome.clean(), "stale entries fail the run");
}

#[test]
fn allowlist_substring_must_match() {
    let snake = "pub fn forward(sig: &Signal) -> Signal { sig.clone() }";
    let ws = Workspace::synthetic(vec![("crates/snake/src/lib.rs", snake)], &full_readme());
    let allow = parse_allowlist("copy-sig-discipline crates/snake/src/lib.rs other_site\n");
    let outcome = lint_with_allowlist(&ws, &allow);
    assert_eq!(outcome.suppressed, 0);
    assert_eq!(outcome.violations.len(), 1);
    assert_eq!(outcome.stale.len(), 1);
}
