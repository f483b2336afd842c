//! The lint pass behind `gtd-check lint`: repo-specific, token-level
//! static analysis.
//!
//! Each rule in [`LINT_RULES`] encodes an invariant of *this* codebase
//! that the compiler cannot see — hot paths that must not allocate,
//! wire-facing modules that must not panic on untrusted bytes,
//! registries that must stay in sync with the grammars and docs that
//! describe them. Rules scan [scrubbed](crate::lexer::scrub) source, so
//! comments and string literals cannot trip (or hide) a finding. A token
//! rule is one table row (tokens, scanned paths, scoped fns, message) that
//! [`lint`] runs; only `registry-sync` has its own pass.
//!
//! Suppressions live in a reviewed `lint.allow` file at the workspace
//! root, one entry per line (`rule path [substring]`); entries that
//! match nothing are themselves errors, so the allowlist cannot rot.

use crate::lexer;
use std::fmt;
use std::path::{Path, PathBuf};

/// A registered lint rule (the registry feeds `harness list`, the README
/// table, and `gtd-check lint`'s own output). A token rule fires on any
/// of its `tokens` in the files under `paths` (minus `#[cfg(test)]`
/// regions) and in the bodies of its scoped fns; `registry-sync` has no
/// token spec and is checked by its own pass.
pub struct LintRule {
    pub name: &'static str,
    pub summary: &'static str,
    pub rationale: &'static str,
    /// Scrubbed-source tokens that fire the rule.
    pub tokens: &'static [&'static str],
    /// Path prefixes scanned whole, test regions excepted.
    pub paths: &'static [&'static str],
    /// `(file, fns)`: scan only these fn bodies. A scoped fn that no
    /// longer exists is itself a violation (a renamed or split hot path
    /// must not silently disarm the rule); a missing *file* is skipped
    /// so rule tests can build partial synthetic workspaces.
    pub scopes: &'static [(&'static str, &'static [&'static str])],
    pub message: &'static str,
}

/// Every rule, in the order `harness list` and `gtd-check list` print.
pub const LINT_RULES: &[LintRule] = &[
    LintRule {
        name: "no-alloc-in-tick-path",
        summary: "no allocating calls inside Engine::tick and its two tick paths \
                  (tick_event/tick_saturated), the shard phases, the \
                  worker-pool dispatch path, Node::flush_due, or the per-epoch \
                  topology queries (slot-table views, masks, rewire hooks)",
        rationale: "the per-tick path is the O(N*D) inner loop the paper's cost model \
                    measures; one stray format!/clone turns the profile to noise — \
                    and the remap/verify paths re-query the topology every epoch, \
                    so its connectivity views must stay allocation-free too",
        // Tokens that allocate (or deep-copy) on the heap.
        tokens: &[
            "Vec::new",
            "vec!",
            ".to_vec()",
            ".clone()",
            "format!",
            "String::new",
            "String::from",
            ".to_string()",
            "Box::new",
            ".collect()",
        ],
        paths: &[],
        // `Engine::tick`, its two tick paths, the shard phases the pool fans
        // out, the frontier rebuild and the pool's dispatch/claim/worker
        // loop; plus the per-epoch paths: the topology's connectivity views
        // (queried on every remap and verify) and the automaton's rewire hooks.
        scopes: &[
            (
                "crates/netsim/src/engine.rs",
                &[
                    "tick",
                    "tick_event",
                    "tick_saturated",
                    "shard_step",
                    "shard_scatter",
                    "shard_merge",
                    "shard_step_all",
                    "shard_gather",
                    "rebuild_frontier",
                    "run_phases",
                ],
            ),
            (
                "crates/netsim/src/pool.rs",
                &["dispatch", "run_claims", "worker_loop"],
            ),
            (
                "crates/netsim/src/topology.rs",
                &[
                    "out_endpoint",
                    "in_endpoint",
                    "out_mask",
                    "in_mask",
                    "out_connected",
                    "in_connected",
                    "edges",
                ],
            ),
            (
                "crates/core/src/node.rs",
                &["flush_due", "on_rewire", "on_join"],
            ),
        ],
        message: "allocation in the per-tick hot path",
    },
    LintRule {
        name: "no-lock-in-tick-path",
        summary: "no Mutex/RwLock/Condvar/Barrier/mpsc in the worker-pool \
                  coordination path or the parallel tick functions",
        rationale: "the pool's per-tick handshake is a seqlock-style epoch counter by \
                    design; a blocking primitive reintroduces the exact dispatch tax \
                    the sharded engine exists to remove",
        tokens: &["Mutex", "RwLock", "Condvar", "Barrier", "mpsc", ".lock()"],
        // The whole pool module is coordination path, plus the engine
        // functions that drive pooled dispatch every tick.
        paths: &["crates/netsim/src/pool.rs"],
        scopes: &[(
            "crates/netsim/src/engine.rs",
            &["tick", "tick_event", "tick_saturated", "run_phases"],
        )],
        message: "blocking synchronisation on the per-tick coordination path \
                  (the worker pool is a lock-free epoch handshake by design)",
    },
    LintRule {
        name: "no-unwrap-in-wire-paths",
        summary: "no unwrap/expect/panic!/unreachable! in serve's protocol, \
                  coordinator, worker, or client modules",
        rationale: "these modules parse untrusted bytes from the network; malformed \
                    input must land as a structured ProtocolError, not a panic",
        tokens: &[
            ".unwrap()",
            ".expect(",
            "panic!(",
            "unreachable!",
            "todo!",
            "unimplemented!",
        ],
        paths: &[
            "crates/serve/src/protocol.rs",
            "crates/serve/src/coordinator.rs",
            "crates/serve/src/worker.rs",
            "crates/serve/src/client.rs",
        ],
        scopes: &[],
        message: "possible panic on a wire path (untrusted bytes must become ProtocolError)",
    },
    LintRule {
        name: "copy-sig-discipline",
        summary: "no .clone()/.to_owned()/.to_vec() in the snake crate or the node \
                  automaton",
        rationale: "signals are Copy by design (PR 5 made routing copy-free); a clone \
                    that compiles is a silent performance regression",
        tokens: &[".clone()", ".to_owned()", ".to_vec()"],
        paths: &["crates/snake/src/", "crates/core/src/node.rs"],
        scopes: &[],
        message: "deep copy in signal-handling code (signals are Copy by design)",
    },
    LintRule {
        name: "debug-assert-policy",
        summary: "no debug_assert!, debug_assert_eq! or debug_assert_ne! in core or snake production code",
        rationale: "mutation-era inputs (mid-run joins, stale signals) must be \
                    recoverably dropped; a debug_assert papers over a path release \
                    builds will take",
        tokens: &["debug_assert", "debug_assert_eq", "debug_assert_ne"],
        paths: &["crates/core/src/", "crates/snake/src/"],
        scopes: &[],
        message: "debug_assert on a mutation-era input path (drop recoverably instead: \
                  release builds skip this check)",
    },
    LintRule {
        name: "registry-sync",
        summary: "MutationKind/TopologySpec/FaultPlane knobs match their registry \
                  tables, examples parse, and every family and knob is in the README",
        rationale: "the registries are the source of truth for harness list, the \
                    suffix grammar, and the docs; the compiler cannot see a missing \
                    row",
        tokens: &[],
        paths: &[],
        scopes: &[],
        message: "",
    },
    LintRule {
        name: "pure-brain-no-wallclock",
        summary: "the coordinator brain stays free of Instant/SystemTime/threads/\
                  sockets/HashMap",
        rationale: "the model checker's verdict is only valid if the brain it explores \
                    is deterministic and replayable; wall-clock or iteration-order \
                    nondeterminism would quietly invalidate every proof",
        tokens: &[
            "Instant",
            "SystemTime",
            "std::thread",
            "TcpStream",
            "TcpListener",
            "HashMap",
            "HashSet",
        ],
        paths: &["crates/check/src/brain.rs"],
        scopes: &[],
        message: "nondeterminism in the pure coordinator brain (the model checker's \
                  verdict depends on exact replay)",
    },
];

/// One finding.
#[derive(Clone, Debug)]
pub struct Violation {
    pub rule: &'static str,
    pub file: String,
    pub line: usize,
    pub message: String,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}:{}: {}\n    {}",
            self.rule, self.file, self.line, self.message, self.excerpt
        )
    }
}

/// A loaded source file: raw text plus its scrubbed twin.
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    pub raw: String,
    pub scrubbed: String,
}

/// The lintable slice of the repository.
pub struct Workspace {
    pub root: PathBuf,
    pub files: Vec<SourceFile>,
    pub readme: String,
}

impl Workspace {
    /// Load every `.rs` file under `crates/*/{src,tests,examples}` (the
    /// code this repo owns; `third_party/` shims are not ours to lint).
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut files = Vec::new();
        let crates = root.join("crates");
        let mut dirs: Vec<PathBuf> = Vec::new();
        if crates.is_dir() {
            for entry in std::fs::read_dir(&crates)? {
                let dir = entry?.path();
                for sub in ["src", "tests", "examples"] {
                    let d = dir.join(sub);
                    if d.is_dir() {
                        dirs.push(d);
                    }
                }
            }
        }
        while let Some(dir) = dirs.pop() {
            for entry in std::fs::read_dir(&dir)? {
                let path = entry?.path();
                if path.is_dir() {
                    dirs.push(path);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    let raw = std::fs::read_to_string(&path)?;
                    let rel = path
                        .strip_prefix(root)
                        .unwrap_or(&path)
                        .components()
                        .map(|c| c.as_os_str().to_string_lossy())
                        .collect::<Vec<_>>()
                        .join("/");
                    files.push(SourceFile {
                        rel,
                        scrubbed: lexer::scrub(&raw),
                        raw,
                    });
                }
            }
        }
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        let readme = std::fs::read_to_string(root.join("README.md")).unwrap_or_default();
        Ok(Workspace {
            root: root.to_path_buf(),
            files,
            readme,
        })
    }

    /// In-memory workspace for rule unit tests.
    pub fn synthetic(files: Vec<(&str, &str)>, readme: &str) -> Workspace {
        Workspace {
            root: PathBuf::new(),
            files: files
                .into_iter()
                .map(|(rel, raw)| SourceFile {
                    rel: rel.to_string(),
                    scrubbed: lexer::scrub(raw),
                    raw: raw.to_string(),
                })
                .collect(),
            readme: readme.to_string(),
        }
    }

    fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }
}

/// Run every rule. Findings come back sorted by (file, line, rule).
pub fn lint(ws: &Workspace) -> Vec<Violation> {
    let mut out = Vec::new();
    for rule in LINT_RULES {
        for file in &ws.files {
            if rule.paths.iter().any(|p| file.rel.starts_with(p)) {
                let tests = lexer::test_regions(&file.scrubbed);
                scan_tokens(
                    file,
                    0..file.raw.len(),
                    &tests,
                    rule,
                    rule.message,
                    &mut out,
                );
            }
        }
        for &(rel, fns) in rule.scopes {
            let Some(file) = ws.file(rel) else { continue };
            for name in fns {
                match lexer::fn_body(&file.scrubbed, name) {
                    Some(body) => {
                        let message = format!("{} (fn `{name}`)", rule.message);
                        scan_tokens(file, body, &[], rule, &message, &mut out);
                    }
                    None => out.push(Violation {
                        rule: rule.name,
                        file: rel.to_string(),
                        line: 1,
                        message: format!(
                            "scoped function `{name}` not found — the hot path moved; \
                             update the rule's scope"
                        ),
                        excerpt: String::new(),
                    }),
                }
            }
        }
    }
    registry_sync(ws, &mut out);
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

// -------------------------------------------------------- registry-sync

/// The one rule that is not a token search: the live registries against
/// their enums, their examples against the grammars, and every name
/// against the README.
fn registry_sync(ws: &Workspace, out: &mut Vec<Violation>) {
    const RULE: &str = "registry-sync";
    let mut push = |file: &str, line: usize, message: String| {
        out.push(Violation {
            rule: RULE,
            file: file.to_string(),
            line,
            message,
            excerpt: String::new(),
        });
    };
    // MutationKind ↔ MUTATION_REGISTRY ↔ suffix grammar ↔ README.
    let mutation_rs = "crates/netsim/src/mutation.rs";
    if let Some(file) = ws.file(mutation_rs) {
        let enum_at = file.raw.find("enum MutationKind").unwrap_or(0);
        let line = lexer::line_of(&file.raw, enum_at);
        match lexer::enum_variants(&file.scrubbed, "MutationKind") {
            Some(n) if n == gtd_netsim::MUTATION_REGISTRY.len() => {}
            Some(n) => push(
                mutation_rs,
                line,
                format!(
                    "enum MutationKind has {n} variants but MUTATION_REGISTRY lists {}",
                    gtd_netsim::MUTATION_REGISTRY.len()
                ),
            ),
            None => push(mutation_rs, line, "enum MutationKind not found".into()),
        }
    }
    for spec in gtd_netsim::MUTATION_REGISTRY {
        if spec
            .example
            .parse::<gtd_netsim::ScheduledMutation>()
            .is_err()
        {
            push(
                mutation_rs,
                1,
                format!(
                    "registry example `{}` does not parse under the suffix grammar",
                    spec.example
                ),
            );
        }
        if !spec.example.starts_with(spec.name) {
            push(
                mutation_rs,
                1,
                format!(
                    "registry example `{}` is not a `{}` suffix",
                    spec.example, spec.name
                ),
            );
        }
        if !ws.readme.contains(spec.name) {
            push(
                "README.md",
                1,
                format!(
                    "mutation kind `{}` is missing from the README table",
                    spec.name
                ),
            );
        }
    }
    // TopologySpec ↔ spec::REGISTRY ↔ spec grammar ↔ README.
    let spec_rs = "crates/netsim/src/spec.rs";
    if let Some(file) = ws.file(spec_rs) {
        let enum_at = file.raw.find("enum TopologySpec").unwrap_or(0);
        let line = lexer::line_of(&file.raw, enum_at);
        match lexer::enum_variants(&file.scrubbed, "TopologySpec") {
            Some(n) if n == gtd_netsim::spec::REGISTRY.len() => {}
            Some(n) => push(
                spec_rs,
                line,
                format!(
                    "enum TopologySpec has {n} variants but spec::REGISTRY lists {}",
                    gtd_netsim::spec::REGISTRY.len()
                ),
            ),
            None => push(spec_rs, line, "enum TopologySpec not found".into()),
        }
    }
    for fam in gtd_netsim::spec::REGISTRY {
        if fam.example.parse::<gtd_netsim::TopologySpec>().is_err() {
            push(
                spec_rs,
                1,
                format!("registry example `{}` does not parse", fam.example),
            );
        }
        if !fam.example.starts_with(fam.name) {
            push(
                spec_rs,
                1,
                format!(
                    "registry example `{}` is not a `{}` spec",
                    fam.example, fam.name
                ),
            );
        }
        if !ws.readme.contains(fam.name) {
            push(
                "README.md",
                1,
                format!(
                    "topology family `{}` is missing from the README table",
                    fam.name
                ),
            );
        }
    }
    // FaultPlane knobs ↔ FAULT_REGISTRY ↔ suffix grammar ↔ README.
    for knob in gtd_netsim::spec::FAULT_REGISTRY {
        if knob.example.parse::<gtd_netsim::DynamicSpec>().is_err() {
            push(
                spec_rs,
                1,
                format!(
                    "fault registry example `{}` does not parse under the \
                     suffix grammar",
                    knob.example
                ),
            );
        }
        if !knob.example.contains(&format!("~{}=", knob.name)) {
            push(
                spec_rs,
                1,
                format!(
                    "fault registry example `{}` does not use the `{}` knob",
                    knob.example, knob.name
                ),
            );
        }
        if !ws.readme.contains(&format!("`{}`", knob.name)) && !ws.readme.contains(knob.example) {
            push(
                "README.md",
                1,
                format!(
                    "fault knob `{}` is missing from the README fault-model table",
                    knob.name
                ),
            );
        }
    }
}

/// Scan `range` of a scrubbed file for the rule's tokens, skipping `holes`
/// (test-mod regions), with identifier-boundary checks so `Instant`
/// cannot match inside `InstantiationError`.
fn scan_tokens(
    file: &SourceFile,
    range: std::ops::Range<usize>,
    holes: &[std::ops::Range<usize>],
    rule: &LintRule,
    message: &str,
    out: &mut Vec<Violation>,
) {
    let hay = &file.scrubbed[range.clone()];
    for token in rule.tokens {
        let mut from = 0;
        while let Some(pos) = hay[from..].find(token) {
            let at = range.start + from + pos;
            from += pos + token.len();
            if holes.iter().any(|h| h.contains(&at)) {
                continue;
            }
            if !boundary_ok(&file.scrubbed, at, token) {
                continue;
            }
            let line = lexer::line_of(&file.raw, at);
            let excerpt = file
                .raw
                .lines()
                .nth(line - 1)
                .unwrap_or("")
                .trim()
                .to_string();
            out.push(Violation {
                rule: rule.name,
                file: file.rel.clone(),
                line,
                message: format!("`{token}`: {message}"),
                excerpt,
            });
        }
    }
}

fn boundary_ok(scrubbed: &str, at: usize, token: &str) -> bool {
    let bytes = scrubbed.as_bytes();
    let ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let head = token.as_bytes()[0];
    let tail = token.as_bytes()[token.len() - 1];
    if ident(head) && at > 0 && ident(bytes[at - 1]) {
        return false;
    }
    if ident(tail) {
        if let Some(&b) = bytes.get(at + token.len()) {
            if ident(b) {
                return false;
            }
        }
    }
    true
}

// ------------------------------------------------------------ allowlist

/// One `lint.allow` entry: `rule path [substring]`.
#[derive(Clone, Debug)]
pub struct AllowEntry {
    pub rule: String,
    pub file: String,
    pub substring: Option<String>,
    /// Line in lint.allow, for stale-entry reporting.
    pub line: usize,
}

/// Parse `lint.allow` (blank lines and `#` comments ignored).
pub fn parse_allowlist(text: &str) -> Vec<AllowEntry> {
    let mut entries = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, char::is_whitespace);
        let (Some(rule), Some(file)) = (parts.next(), parts.next()) else {
            continue;
        };
        entries.push(AllowEntry {
            rule: rule.to_string(),
            file: file.to_string(),
            substring: parts.next().map(|s| s.trim().to_string()),
            line: i + 1,
        });
    }
    entries
}

/// The result of a full lint run with suppressions applied.
pub struct LintOutcome {
    /// Findings no allowlist entry covers.
    pub violations: Vec<Violation>,
    /// Findings suppressed by the allowlist.
    pub suppressed: usize,
    /// Allowlist entries that matched nothing (errors: the list rots).
    pub stale: Vec<AllowEntry>,
    pub files_scanned: usize,
}

impl LintOutcome {
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.stale.is_empty()
    }
}

/// Lint the workspace and apply the allowlist.
pub fn lint_with_allowlist(ws: &Workspace, allow: &[AllowEntry]) -> LintOutcome {
    let all = lint(ws);
    let mut used = vec![false; allow.len()];
    let mut violations = Vec::new();
    let mut suppressed = 0;
    for v in all {
        let hit = allow.iter().enumerate().find(|(_, a)| {
            a.rule == v.rule
                && a.file == v.file
                && a.substring
                    .as_deref()
                    .is_none_or(|s| v.excerpt.contains(s) || v.message.contains(s))
        });
        match hit {
            Some((i, _)) => {
                used[i] = true;
                suppressed += 1;
            }
            None => violations.push(v),
        }
    }
    let stale = allow
        .iter()
        .zip(&used)
        .filter(|(_, &u)| !u)
        .map(|(a, _)| a.clone())
        .collect();
    LintOutcome {
        violations,
        suppressed,
        stale,
        files_scanned: ws.files.len(),
    }
}
