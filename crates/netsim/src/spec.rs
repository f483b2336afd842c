//! Declarative topology specifications.
//!
//! A [`TopologySpec`] is a workload *as data*: every generator family in
//! [`generators`](crate::generators) has a spec variant, a stable textual
//! grammar (`family:arg,arg,…` with positional or `key=value` arguments),
//! and a [`FamilySpec`] entry in the [`REGISTRY`] so tools can enumerate
//! what exists. Specs round-trip through `Display`/`FromStr` — the
//! canonical rendering parses back to an equal spec — which makes them fit
//! for CLI flags, JSON rows and campaign grids alike.
//!
//! ```
//! use gtd_netsim::{generators, TopologySpec};
//!
//! let spec: TopologySpec = "debruijn:2,5".parse().unwrap();
//! assert_eq!(spec, TopologySpec::Debruijn { k: 2, m: 5 });
//! assert_eq!(spec.to_string(), "debruijn:2,5");
//! assert_eq!(spec.build(), generators::debruijn(2, 5));
//!
//! // named arguments parse too (in any order)
//! let named: TopologySpec = "random-sc:seed=7,n=64,delta=3".parse().unwrap();
//! assert_eq!(named.to_string(), "random-sc:n=64,delta=3,seed=7");
//! ```

use crate::engine::FaultPlane;
use crate::generators;
use crate::mutation::{MutationSchedule, MutationSuffixError, ScheduledMutation};
use crate::topology::{Topology, MAX_DELTA};
use std::fmt;
use std::str::FromStr;

/// A declarative description of one generator invocation.
///
/// `Display` renders the canonical grammar; `FromStr` parses it back
/// (accepting positional *or* named arguments); [`TopologySpec::build`]
/// produces the [`Topology`]. Specs are plain data: hash-free, cheap to
/// clone, and deterministic to build (same spec ⇒ identical port-level
/// wiring).
#[derive(Clone, Debug, PartialEq)]
pub enum TopologySpec {
    /// `ring:N` — directed ring, D = N − 1.
    Ring {
        /// Number of processors (≥ 2).
        n: usize,
    },
    /// `line-bidi:N` — bidirectional line.
    LineBidi {
        /// Number of processors (≥ 2).
        n: usize,
    },
    /// `torus:W,H` — directed torus (wrap-around right/down edges).
    Torus {
        /// Grid width (≥ 2).
        w: usize,
        /// Grid height (≥ 1).
        h: usize,
    },
    /// `debruijn:K,M` — de Bruijn graph B(K, M) on K^M nodes.
    Debruijn {
        /// Alphabet size / out-degree (2..=[`MAX_DELTA`]).
        k: usize,
        /// Word length; D = M.
        m: usize,
    },
    /// `kautz:K,M` — Kautz graph K(K, M) on (K+1)·K^M nodes.
    Kautz {
        /// Out-degree (2..=[`MAX_DELTA`]).
        k: usize,
        /// Word length; D = M + 1.
        m: usize,
    },
    /// `hypercube:D` — bidirectional hypercube Q_D.
    Hypercube {
        /// Dimensions (1..=7).
        dims: u32,
    },
    /// `complete:N` — complete bidirectional network (tiny N only).
    Complete {
        /// Number of processors (2..=9).
        n: usize,
    },
    /// `random-sc:n=…,delta=…,seed=…` — random strongly-connected digraph.
    RandomSc {
        /// Number of processors (≥ 2).
        n: usize,
        /// Degree bound δ (2..=[`MAX_DELTA`]).
        delta: u8,
        /// Deterministic seed.
        seed: u64,
    },
    /// `bidi-grid-faulty:w=…,h=…,p=…,seed=…` — the paper's §1.2.2
    /// bidirectional grid with per-direction link failures.
    BidiGridFaulty {
        /// Grid width.
        w: usize,
        /// Grid height (w·h ≥ 2).
        h: usize,
        /// Per-direction failure probability in `[0, 1)`.
        p: f64,
        /// Deterministic seed.
        seed: u64,
    },
    /// `tree-loop:h=…,seed=…` — the Lemma 5.1 lower-bound family with a
    /// seeded random leaf permutation.
    TreeLoop {
        /// Tree height (1..=20).
        h: u32,
        /// Permutation seed.
        seed: u64,
    },
}

/// One parameter of a spec family.
#[derive(Clone, Copy, Debug)]
pub struct ParamSpec {
    /// Parameter name (the `key` in `key=value`).
    pub name: &'static str,
    /// Default rendering when omitted, if the parameter is optional.
    pub default: Option<&'static str>,
    /// One-line description.
    pub doc: &'static str,
}

/// Registry entry describing one spec family.
#[derive(Clone, Copy, Debug)]
pub struct FamilySpec {
    /// Family name (the part before `:`).
    pub name: &'static str,
    /// Ordered parameters (positional order).
    pub params: &'static [ParamSpec],
    /// A canonical, buildable example spec string.
    pub example: &'static str,
    /// One-line description of the family.
    pub summary: &'static str,
}

const fn p(name: &'static str, doc: &'static str) -> ParamSpec {
    ParamSpec {
        name,
        default: None,
        doc,
    }
}

const fn p_opt(name: &'static str, default: &'static str, doc: &'static str) -> ParamSpec {
    ParamSpec {
        name,
        default: Some(default),
        doc,
    }
}

/// Every spec family, in display order. This is the single source of
/// truth tools enumerate (`harness list`, property tests, docs).
pub const REGISTRY: &[FamilySpec] = &[
    FamilySpec {
        name: "ring",
        params: &[p("n", "processors (>= 2)")],
        example: "ring:16",
        summary: "directed ring, D = N - 1 (worst case for O(N*D))",
    },
    FamilySpec {
        name: "line-bidi",
        params: &[p("n", "processors (>= 2)")],
        example: "line-bidi:16",
        summary: "bidirectional line; d(root, k) = k",
    },
    FamilySpec {
        name: "torus",
        params: &[p("w", "width (>= 2)"), p("h", "height (>= 1)")],
        example: "torus:4,4",
        summary: "directed torus with wrap-around right/down edges",
    },
    FamilySpec {
        name: "debruijn",
        params: &[
            p("k", "alphabet / out-degree (2..=64)"),
            p("m", "word length (>= 1)"),
        ],
        example: "debruijn:2,5",
        summary: "de Bruijn B(k,m): K^M nodes, D = m = log_k N",
    },
    FamilySpec {
        name: "kautz",
        params: &[p("k", "out-degree (2..=64)"), p("m", "word length (>= 1)")],
        example: "kautz:2,3",
        summary: "Kautz K(k,m): densest bounded-degree/low-diameter family",
    },
    FamilySpec {
        name: "hypercube",
        params: &[p("dims", "dimensions (1..=7)")],
        example: "hypercube:4",
        summary: "bidirectional hypercube Q_d, D = d = log2 N",
    },
    FamilySpec {
        name: "complete",
        params: &[p("n", "processors (2..=9)")],
        example: "complete:4",
        summary: "complete bidirectional network (dense adversarial case)",
    },
    FamilySpec {
        name: "random-sc",
        params: &[
            p("n", "processors (>= 2)"),
            p("delta", "degree bound (2..=64)"),
            p_opt("seed", "0", "deterministic seed"),
        ],
        example: "random-sc:n=32,delta=3,seed=1",
        summary: "random strongly-connected digraph with bounded degrees",
    },
    FamilySpec {
        name: "bidi-grid-faulty",
        params: &[
            p("w", "grid width"),
            p("h", "grid height (w*h >= 2)"),
            p("p", "per-direction failure probability in [0, 1)"),
            p_opt("seed", "0", "deterministic seed"),
        ],
        example: "bidi-grid-faulty:w=4,h=4,p=0.2,seed=11",
        summary: "bidirectional grid with directional link faults (paper 1.2.2)",
    },
    FamilySpec {
        name: "tree-loop",
        params: &[
            p("h", "tree height (1..=20)"),
            p_opt("seed", "0", "leaf-permutation seed"),
        ],
        example: "tree-loop:h=3,seed=7",
        summary: "Lemma 5.1 lower-bound family (tree + permuted leaf loop)",
    },
];

/// Registry entry describing one fault-plane suffix knob (`~key=value`).
#[derive(Clone, Copy, Debug)]
pub struct FaultKnobSpec {
    /// Knob name (the `key` in `~key=value`).
    pub name: &'static str,
    /// A canonical, parseable example spec string using the knob.
    pub example: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

/// Every fault-plane suffix knob, in display order. Like [`REGISTRY`]
/// this is the single source of truth tools enumerate (`harness list`,
/// docs). The knobs configure the engine's [`FaultPlane`]: decisions are
/// stateless per-character hashes, so a faulted spec's transcript is
/// byte-identical across engine modes and shard counts, and `~loss=0`
/// (or any all-zero combination) parses to exactly the unfaulted spec.
pub const FAULT_REGISTRY: &[FaultKnobSpec] = &[
    FaultKnobSpec {
        name: "loss",
        example: "ring:64~loss=0.01",
        summary: "per-character drop probability in [0, 1]",
    },
    FaultKnobSpec {
        name: "delay",
        example: "ring:64~delay=1..3",
        summary: "extra per-character delivery delay in ticks (d or a..b)",
    },
    FaultKnobSpec {
        name: "fault-seed",
        example: "ring:64~loss=0.02~fault-seed=42",
        summary: "seed for the stateless per-character fault hash",
    },
];

/// Look up a family by name.
pub fn family(name: &str) -> Option<&'static FamilySpec> {
    REGISTRY.iter().find(|f| f.name == name)
}

/// One canonical, buildable spec per registry family (parsed from each
/// entry's `example`).
pub fn registry_examples() -> Vec<TopologySpec> {
    REGISTRY
        .iter()
        .map(|f| {
            f.example
                .parse()
                .unwrap_or_else(|e| panic!("registry example {:?} must parse: {e}", f.example))
        })
        .collect()
}

/// Why a spec string failed to parse or validate.
#[derive(Clone, Debug, PartialEq)]
pub enum ParseSpecError {
    /// The string was empty or had no family name before `:`.
    Empty,
    /// The family name is not in the [`REGISTRY`].
    UnknownFamily {
        /// The name that was given.
        family: String,
    },
    /// A required parameter was not supplied.
    MissingParam {
        /// The family.
        family: &'static str,
        /// The missing parameter.
        param: &'static str,
    },
    /// A named argument does not name a parameter of the family.
    UnknownParam {
        /// The family.
        family: &'static str,
        /// The unknown key.
        param: String,
    },
    /// The same parameter was supplied twice.
    DuplicateParam {
        /// The family.
        family: &'static str,
        /// The duplicated parameter.
        param: &'static str,
    },
    /// More positional arguments than the family has parameters.
    TooManyArgs {
        /// The family.
        family: &'static str,
        /// Arguments given.
        got: usize,
        /// Parameters available.
        max: usize,
    },
    /// A value failed to parse as the parameter's type.
    BadValue {
        /// The family.
        family: &'static str,
        /// The parameter.
        param: &'static str,
        /// The offending text.
        value: String,
        /// What was expected (e.g. `"an integer"`).
        expected: &'static str,
    },
    /// The spec parsed but its values violate the family's constraints.
    OutOfRange {
        /// The family.
        family: &'static str,
        /// Human-readable constraint, e.g. `"n must be >= 2"`.
        constraint: String,
    },
    /// A fault suffix (`~key=value`) of a [`DynamicSpec`] is malformed
    /// or out of range.
    BadFaultSuffix {
        /// The offending segment text (without the leading `~`).
        segment: String,
        /// What is wrong with it.
        reason: String,
    },
    /// A mutation suffix (`+kind=selector@tTICK`) of a
    /// [`DynamicSpec`] is malformed.
    BadMutationSuffix {
        /// The offending suffix text (without the leading `+`).
        suffix: String,
        /// 1-based position of the suffix in the spec string.
        index: usize,
        /// The scheduled tick, when it parsed.
        tick: Option<u64>,
        /// What is wrong with the suffix.
        reason: MutationSuffixError,
    },
}

impl fmt::Display for ParseSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseSpecError::Empty => write!(f, "empty topology spec (expected family:args)"),
            ParseSpecError::UnknownFamily { family } => {
                let known: Vec<&str> = REGISTRY.iter().map(|s| s.name).collect();
                write!(
                    f,
                    "unknown topology family {family:?} (known: {})",
                    known.join(", ")
                )
            }
            ParseSpecError::MissingParam { family, param } => {
                write!(f, "{family}: missing required parameter {param:?}")
            }
            ParseSpecError::UnknownParam { family, param } => {
                let known: Vec<&str> = crate::spec::family(family)
                    .map(|s| s.params.iter().map(|p| p.name).collect())
                    .unwrap_or_default();
                write!(
                    f,
                    "{family}: unknown parameter {param:?} (expected one of: {})",
                    known.join(", ")
                )
            }
            ParseSpecError::DuplicateParam { family, param } => {
                write!(f, "{family}: parameter {param:?} given more than once")
            }
            ParseSpecError::TooManyArgs { family, got, max } => {
                write!(f, "{family}: got {got} arguments but takes at most {max}")
            }
            ParseSpecError::BadValue {
                family,
                param,
                value,
                expected,
            } => write!(
                f,
                "{family}: parameter {param} = {value:?} is not {expected}"
            ),
            ParseSpecError::OutOfRange { family, constraint } => {
                write!(f, "{family}: {constraint}")
            }
            ParseSpecError::BadFaultSuffix { segment, reason } => {
                write!(f, "fault suffix ~{segment}: {reason}")
            }
            ParseSpecError::BadMutationSuffix {
                suffix,
                index,
                tick,
                reason,
            } => {
                write!(f, "mutation suffix #{index} {suffix:?}")?;
                if let Some(t) = tick {
                    write!(f, " (at tick {t})")?;
                }
                write!(f, ": {reason}")
            }
        }
    }
}

impl std::error::Error for ParseSpecError {}

impl TopologySpec {
    /// The family name (matches the [`REGISTRY`] entry).
    pub fn family_name(&self) -> &'static str {
        match self {
            TopologySpec::Ring { .. } => "ring",
            TopologySpec::LineBidi { .. } => "line-bidi",
            TopologySpec::Torus { .. } => "torus",
            TopologySpec::Debruijn { .. } => "debruijn",
            TopologySpec::Kautz { .. } => "kautz",
            TopologySpec::Hypercube { .. } => "hypercube",
            TopologySpec::Complete { .. } => "complete",
            TopologySpec::RandomSc { .. } => "random-sc",
            TopologySpec::BidiGridFaulty { .. } => "bidi-grid-faulty",
            TopologySpec::TreeLoop { .. } => "tree-loop",
        }
    }

    /// Check the family's parameter constraints without building.
    ///
    /// [`FromStr`] validates automatically, so parsed specs always build;
    /// directly-constructed values can be checked here to get a structured
    /// error instead of a generator panic. Includes the 32-bit wire-slot
    /// bound (`n·δ < u32::MAX`) the engine's flat route tables require.
    pub fn validate(&self) -> Result<(), ParseSpecError> {
        // `n·δ` must stay below u32::MAX: slot indices are u32 and the
        // engine reserves u32::MAX as its unrouted sentinel.
        fn slots_overflow(n: usize, delta: u8) -> bool {
            n.checked_mul(delta as usize)
                .is_none_or(|slots| slots >= u32::MAX as usize)
        }
        let fail = |constraint: String| {
            Err(ParseSpecError::OutOfRange {
                family: self.family_name(),
                constraint,
            })
        };
        match *self {
            TopologySpec::Ring { n } | TopologySpec::LineBidi { n } if n < 2 => {
                fail(format!("n must be >= 2 (got {n})"))
            }
            TopologySpec::Torus { w, h } if w < 2 || h < 1 => {
                fail(format!("need w >= 2 and h >= 1 (got {w}x{h})"))
            }
            TopologySpec::Debruijn { k, m } | TopologySpec::Kautz { k, m } if k < 2 || m < 1 => {
                fail(format!("need k >= 2 and m >= 1 (got k={k}, m={m})"))
            }
            TopologySpec::Debruijn { k, m } | TopologySpec::Kautz { k, m }
                if (m as f64) * (k as f64).log2() > 22.0 =>
            {
                fail(format!("k^m too large to simulate (k={k}, m={m})"))
            }
            TopologySpec::Hypercube { dims } if !(1..=7).contains(&dims) => {
                fail(format!("dims must be in 1..=7 (got {dims})"))
            }
            TopologySpec::Complete { n } if !(2..=9).contains(&n) => {
                fail(format!("n must be in 2..=9 (got {n})"))
            }
            TopologySpec::RandomSc { n, delta, .. } if n < 2 || delta < 2 => fail(format!(
                "need n >= 2 and delta >= 2 (got n={n}, delta={delta})"
            )),
            // Port bound: connectivity masks are single 64-bit words, so
            // the builder refuses δ > MAX_DELTA (δ = k for the word graphs).
            TopologySpec::RandomSc { delta, .. } if delta > MAX_DELTA => {
                fail(format!("delta must be <= {MAX_DELTA} (got {delta})"))
            }
            TopologySpec::Debruijn { k, .. } | TopologySpec::Kautz { k, .. }
                if k > MAX_DELTA as usize =>
            {
                fail(format!("k must be <= {MAX_DELTA} (got {k})"))
            }
            TopologySpec::BidiGridFaulty { w, h, p, .. }
                if w * h < 2 || !(0.0..1.0).contains(&p) =>
            {
                fail(format!(
                    "need w*h >= 2 and p in [0, 1) (got {w}x{h}, p={p})"
                ))
            }
            TopologySpec::TreeLoop { h, .. } if !(1..=20).contains(&h) => {
                fail(format!("h must be in 1..=20 (got {h})"))
            }
            // Wire-slot bound: the engine's flat route tables index the
            // n·δ port slots with `u32` (one value reserved as the
            // unrouted sentinel), so networks whose slot count does not
            // fit in 32 bits must be rejected here with a structured
            // error — not silently truncated, and not a builder panic
            // halfway through generation.
            TopologySpec::Ring { n } | TopologySpec::LineBidi { n } if slots_overflow(n, 2) => {
                fail(format!("n too large: {n}*2 wire slots must fit in 32 bits"))
            }
            TopologySpec::Torus { w, h } if slots_overflow(w.saturating_mul(h), 2) => fail(
                format!("{w}x{h} too large: w*h*2 wire slots must fit in 32 bits"),
            ),
            TopologySpec::RandomSc { n, delta, .. } if slots_overflow(n, delta) => fail(format!(
                "n too large: {n}*{delta} wire slots must fit in 32 bits"
            )),
            TopologySpec::BidiGridFaulty { w, h, .. } if slots_overflow(w.saturating_mul(h), 4) => {
                fail(format!(
                    "{w}x{h} too large: w*h*4 wire slots must fit in 32 bits"
                ))
            }
            _ => Ok(()),
        }
    }

    /// Build the topology. The corresponding `generators::*` call is the
    /// backend, so `spec.build()` is port-for-port identical to calling
    /// the generator directly.
    ///
    /// Panics on constraint violations (see [`TopologySpec::validate`] for
    /// the structured check; parsed specs are always valid).
    pub fn build(&self) -> Topology {
        match *self {
            TopologySpec::Ring { n } => generators::ring(n),
            TopologySpec::LineBidi { n } => generators::line_bidi(n),
            TopologySpec::Torus { w, h } => generators::torus(w, h),
            TopologySpec::Debruijn { k, m } => generators::debruijn(k, m),
            TopologySpec::Kautz { k, m } => generators::kautz(k, m),
            TopologySpec::Hypercube { dims } => generators::hypercube_bidi(dims),
            TopologySpec::Complete { n } => generators::complete_bidi(n),
            TopologySpec::RandomSc { n, delta, seed } => generators::random_sc(n, delta, seed),
            TopologySpec::BidiGridFaulty { w, h, p, seed } => {
                generators::bidi_grid_faulty(w, h, p, seed)
            }
            TopologySpec::TreeLoop { h, seed } => generators::tree_loop_random(h, seed),
        }
    }
}

impl fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologySpec::Ring { n } => write!(f, "ring:{n}"),
            TopologySpec::LineBidi { n } => write!(f, "line-bidi:{n}"),
            TopologySpec::Torus { w, h } => write!(f, "torus:{w},{h}"),
            TopologySpec::Debruijn { k, m } => write!(f, "debruijn:{k},{m}"),
            TopologySpec::Kautz { k, m } => write!(f, "kautz:{k},{m}"),
            TopologySpec::Hypercube { dims } => write!(f, "hypercube:{dims}"),
            TopologySpec::Complete { n } => write!(f, "complete:{n}"),
            TopologySpec::RandomSc { n, delta, seed } => {
                write!(f, "random-sc:n={n},delta={delta},seed={seed}")
            }
            TopologySpec::BidiGridFaulty { w, h, p, seed } => {
                write!(f, "bidi-grid-faulty:w={w},h={h},p={p},seed={seed}")
            }
            TopologySpec::TreeLoop { h, seed } => write!(f, "tree-loop:h={h},seed={seed}"),
        }
    }
}

/// Resolved textual arguments for one family, in parameter order.
struct Args {
    family: &'static FamilySpec,
    values: Vec<Option<String>>,
}

impl Args {
    fn resolve(family: &'static FamilySpec, raw: &str) -> Result<Self, ParseSpecError> {
        let mut values: Vec<Option<String>> = vec![None; family.params.len()];
        let mut next_positional = 0usize;
        let args: Vec<&str> = if raw.is_empty() {
            Vec::new()
        } else {
            raw.split(',').collect()
        };
        let total_args = args.len();
        for arg in args {
            let (idx, value) = match arg.split_once('=') {
                Some((key, value)) => {
                    let key = key.trim();
                    let idx = family
                        .params
                        .iter()
                        .position(|p| p.name == key)
                        .ok_or_else(|| ParseSpecError::UnknownParam {
                            family: family.name,
                            param: key.to_string(),
                        })?;
                    (idx, value)
                }
                None => {
                    if next_positional >= family.params.len() {
                        return Err(ParseSpecError::TooManyArgs {
                            family: family.name,
                            got: total_args,
                            max: family.params.len(),
                        });
                    }
                    let idx = next_positional;
                    next_positional += 1;
                    (idx, arg)
                }
            };
            if values[idx].is_some() {
                return Err(ParseSpecError::DuplicateParam {
                    family: family.name,
                    param: family.params[idx].name,
                });
            }
            values[idx] = Some(value.trim().to_string());
        }
        for (i, param) in family.params.iter().enumerate() {
            if values[i].is_none() {
                match param.default {
                    Some(d) => values[i] = Some(d.to_string()),
                    None => {
                        return Err(ParseSpecError::MissingParam {
                            family: family.name,
                            param: param.name,
                        })
                    }
                }
            }
        }
        Ok(Args { family, values })
    }

    fn get<T: FromStr>(&self, idx: usize, expected: &'static str) -> Result<T, ParseSpecError> {
        // Args::parse fills every slot (value or default) before get runs.
        #[allow(clippy::expect_used)]
        let text = self.values[idx].as_deref().expect("resolved above");
        text.parse().map_err(|_| ParseSpecError::BadValue {
            family: self.family.name,
            param: self.family.params[idx].name,
            value: text.to_string(),
            expected,
        })
    }
}

impl FromStr for TopologySpec {
    type Err = ParseSpecError;

    fn from_str(s: &str) -> Result<Self, ParseSpecError> {
        let s = s.trim();
        if s.is_empty() {
            return Err(ParseSpecError::Empty);
        }
        let (name, raw_args) = match s.split_once(':') {
            Some((name, rest)) => (name.trim(), rest.trim()),
            None => (s, ""),
        };
        if name.is_empty() {
            return Err(ParseSpecError::Empty);
        }
        let fam = family(name).ok_or_else(|| ParseSpecError::UnknownFamily {
            family: name.to_string(),
        })?;
        let args = Args::resolve(fam, raw_args)?;
        const INT: &str = "an integer";
        let spec = match fam.name {
            "ring" => TopologySpec::Ring {
                n: args.get(0, INT)?,
            },
            "line-bidi" => TopologySpec::LineBidi {
                n: args.get(0, INT)?,
            },
            "torus" => TopologySpec::Torus {
                w: args.get(0, INT)?,
                h: args.get(1, INT)?,
            },
            "debruijn" => TopologySpec::Debruijn {
                k: args.get(0, INT)?,
                m: args.get(1, INT)?,
            },
            "kautz" => TopologySpec::Kautz {
                k: args.get(0, INT)?,
                m: args.get(1, INT)?,
            },
            "hypercube" => TopologySpec::Hypercube {
                dims: args.get(0, INT)?,
            },
            "complete" => TopologySpec::Complete {
                n: args.get(0, INT)?,
            },
            "random-sc" => TopologySpec::RandomSc {
                n: args.get(0, INT)?,
                delta: args.get(1, INT)?,
                seed: args.get(2, INT)?,
            },
            "bidi-grid-faulty" => TopologySpec::BidiGridFaulty {
                w: args.get(0, INT)?,
                h: args.get(1, INT)?,
                p: args.get(2, "a number")?,
                seed: args.get(3, INT)?,
            },
            "tree-loop" => TopologySpec::TreeLoop {
                h: args.get(0, INT)?,
                seed: args.get(1, INT)?,
            },
            other => unreachable!("family {other} in registry but not in parser"),
        };
        spec.validate()?;
        Ok(spec)
    }
}

/// A topology spec plus a fault plane and a mutation timeline: the full
/// grammar `family:args~key=value~…+kind=selector@tTICK+…` (paper §1:
/// "the topology … might change"; §1.2.2: faulty communication).
///
/// An empty schedule is a static scenario, so every plain
/// [`TopologySpec`] string parses as a `DynamicSpec` too. The canonical
/// rendering puts fault segments (`~loss=…`, `~delay=…`, `~fault-seed=…`
/// — see [`FAULT_REGISTRY`]) between the base and the tick-ordered
/// mutation suffixes, omits inactive fault axes, and round-trips
/// through `Display`/`FromStr`; an all-zero fault plane parses to
/// exactly the unfaulted spec, so `ring:8~loss=0` *is* `ring:8`.
///
/// ```
/// use gtd_netsim::{DynamicSpec, MutationKind};
///
/// let spec: DynamicSpec = "ring:64~loss=0.01+drop-edge=3@t500".parse().unwrap();
/// assert_eq!(spec.base.to_string(), "ring:64");
/// assert_eq!(spec.fault.loss, 0.01);
/// assert_eq!(spec.schedule.len(), 1);
/// assert_eq!(spec.schedule.items()[0].tick, 500);
/// assert_eq!(spec.schedule.items()[0].mutation.kind, MutationKind::DropEdge);
/// assert_eq!(spec.to_string(), "ring:64~loss=0.01+drop-edge=3@t500");
///
/// let fixed: DynamicSpec = "ring:16".parse().unwrap();
/// assert!(fixed.is_static());
/// assert_eq!(fixed.effective_faults(), None);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DynamicSpec {
    /// The initial topology.
    pub base: TopologySpec,
    /// Wire-level fault plane ([`FaultPlane::NONE`] when reliable).
    pub fault: FaultPlane,
    /// Tick-stamped mutations applied over the run.
    pub schedule: MutationSchedule,
}

impl DynamicSpec {
    /// A static scenario over `base`.
    pub fn fixed(base: TopologySpec) -> Self {
        DynamicSpec {
            base,
            fault: FaultPlane::NONE,
            schedule: MutationSchedule::new(),
        }
    }

    /// Does the scenario never mutate?
    pub fn is_static(&self) -> bool {
        self.schedule.is_empty()
    }

    /// The fault plane to install on the engine, or `None` when the
    /// spec is reliable — callers skip `set_fault_plane` entirely so the
    /// unfaulted path stays bit-identical and allocation-free.
    pub fn effective_faults(&self) -> Option<FaultPlane> {
        self.fault.is_active().then_some(self.fault)
    }

    /// Check the base family's parameter constraints and the fault
    /// plane's ranges (mutation validity is decided against the live
    /// topology at apply time).
    pub fn validate(&self) -> Result<(), ParseSpecError> {
        self.base.validate()?;
        if !self.fault.loss.is_finite() || !(0.0..=1.0).contains(&self.fault.loss) {
            return Err(ParseSpecError::BadFaultSuffix {
                segment: format!("loss={}", self.fault.loss),
                reason: "loss must be in [0, 1]".to_string(),
            });
        }
        if self.fault.delay_min > self.fault.delay_max {
            return Err(ParseSpecError::BadFaultSuffix {
                segment: format!("delay={}..{}", self.fault.delay_min, self.fault.delay_max),
                reason: "delay range must satisfy min <= max".to_string(),
            });
        }
        Ok(())
    }

    /// Build the initial topology (tick 0, before any mutation).
    pub fn build(&self) -> Topology {
        self.base.build()
    }

    /// The topology after the whole schedule has been applied (swap
    /// fallback for inapplicable mutations; collector on processor 0 —
    /// `node-leave` suffixes never remove it).
    pub fn final_topology(&self) -> Topology {
        self.schedule.final_topology(&self.base.build())
    }

    /// [`DynamicSpec::final_topology`] for a collector on `root` (the
    /// root id is tracked across membership changes).
    pub fn final_topology_rooted(&self, root: crate::NodeId) -> Topology {
        self.schedule
            .final_topology_rooted(&self.base.build(), root)
    }
}

impl From<TopologySpec> for DynamicSpec {
    fn from(base: TopologySpec) -> Self {
        DynamicSpec::fixed(base)
    }
}

impl fmt::Display for DynamicSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.base)?;
        // Canonical fault rendering: inactive axes are omitted, a
        // degenerate delay range prints as a single value, and the seed
        // only appears on an active plane — so an all-zero plane renders
        // (and therefore compares) exactly like the unfaulted spec.
        if self.fault.is_active() {
            if self.fault.loss > 0.0 {
                write!(f, "~loss={}", self.fault.loss)?;
            }
            if self.fault.delay_max > 0 {
                if self.fault.delay_min == self.fault.delay_max {
                    write!(f, "~delay={}", self.fault.delay_max)?;
                } else {
                    write!(
                        f,
                        "~delay={}..{}",
                        self.fault.delay_min, self.fault.delay_max
                    )?;
                }
            }
            if self.fault.seed != 0 {
                write!(f, "~fault-seed={}", self.fault.seed)?;
            }
        }
        for sm in self.schedule.iter() {
            write!(f, "+{sm}")?;
        }
        Ok(())
    }
}

/// Parse the `~key=value` fault segments following the base spec.
fn parse_fault_segments<'a>(
    segments: impl Iterator<Item = &'a str>,
) -> Result<FaultPlane, ParseSpecError> {
    let bad = |segment: &str, reason: String| ParseSpecError::BadFaultSuffix {
        segment: segment.to_string(),
        reason,
    };
    let mut fault = FaultPlane::NONE;
    let mut seen = [false; 3]; // loss, delay, fault-seed
    for segment in segments {
        let segment = segment.trim();
        let Some((key, value)) = segment.split_once('=') else {
            return Err(bad(segment, "expected key=value".to_string()));
        };
        let (key, value) = (key.trim(), value.trim());
        let idx = match key {
            "loss" => 0,
            "delay" => 1,
            "fault-seed" => 2,
            _ => {
                let known: Vec<&str> = FAULT_REGISTRY.iter().map(|k| k.name).collect();
                return Err(bad(
                    segment,
                    format!("unknown fault knob {key:?} (known: {})", known.join(", ")),
                ));
            }
        };
        if std::mem::replace(&mut seen[idx], true) {
            return Err(bad(segment, format!("fault knob {key:?} given twice")));
        }
        match idx {
            0 => {
                let loss: f64 = value
                    .parse()
                    .map_err(|_| bad(segment, format!("{value:?} is not a number")))?;
                if !loss.is_finite() || !(0.0..=1.0).contains(&loss) {
                    return Err(bad(segment, "loss must be in [0, 1]".to_string()));
                }
                fault.loss = loss;
            }
            1 => {
                let (lo, hi) = match value.split_once("..") {
                    Some((lo, hi)) => (lo.trim(), hi.trim()),
                    None => (value, value),
                };
                let parse_tick = |t: &str| {
                    t.parse::<u64>()
                        .map_err(|_| bad(segment, format!("{t:?} is not a tick count")))
                };
                let (min, max) = (parse_tick(lo)?, parse_tick(hi)?);
                if min > max {
                    return Err(bad(
                        segment,
                        "delay range must satisfy min <= max".to_string(),
                    ));
                }
                fault.delay_min = min;
                fault.delay_max = max;
            }
            _ => {
                fault.seed = value
                    .parse()
                    .map_err(|_| bad(segment, format!("{value:?} is not a seed")))?;
            }
        }
    }
    // Normalize: a plane with no active axis is *the* reliable plane —
    // `~loss=0` and a lone `~fault-seed=…` parse to the unfaulted spec.
    if !fault.is_active() {
        fault = FaultPlane::NONE;
    }
    Ok(fault)
}

impl FromStr for DynamicSpec {
    type Err = ParseSpecError;

    fn from_str(s: &str) -> Result<Self, ParseSpecError> {
        let mut parts = s.split('+');
        let head = parts.next().unwrap_or("");
        // Fault segments sit between the base spec and the mutation
        // suffixes: `family:args~loss=0.01~delay=1..3+rewire=2@t200`.
        let mut segments = head.split('~');
        let base: TopologySpec = segments.next().unwrap_or("").parse()?;
        let fault = parse_fault_segments(segments)?;
        let mut schedule = MutationSchedule::new();
        for (i, suffix) in parts.enumerate() {
            let suffix = suffix.trim();
            match ScheduledMutation::parse_suffix(suffix) {
                Ok(sm) => schedule.push(sm.tick, sm.mutation),
                Err((tick, reason)) => {
                    return Err(ParseSpecError::BadMutationSuffix {
                        suffix: suffix.to_string(),
                        index: i + 1,
                        tick,
                        reason,
                    })
                }
            }
        }
        Ok(DynamicSpec {
            base,
            fault,
            schedule,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // asserts may panic freely
mod tests {
    use super::*;

    #[test]
    fn registry_examples_parse_build_and_roundtrip() {
        for fam in REGISTRY {
            let spec: TopologySpec = fam.example.parse().unwrap();
            assert_eq!(spec.family_name(), fam.name);
            let rendered = spec.to_string();
            let back: TopologySpec = rendered.parse().unwrap();
            assert_eq!(back, spec, "{} must round-trip", fam.example);
            let topo = spec.build();
            assert!(topo.num_nodes() >= 2, "{}", fam.example);
        }
    }

    #[test]
    fn positional_and_named_args_agree() {
        let a: TopologySpec = "random-sc:64,3,9".parse().unwrap();
        let b: TopologySpec = "random-sc:n=64,delta=3,seed=9".parse().unwrap();
        let c: TopologySpec = "random-sc:seed=9,delta=3,n=64".parse().unwrap();
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn optional_seed_defaults_to_zero() {
        assert_eq!(
            "random-sc:n=16,delta=3".parse::<TopologySpec>().unwrap(),
            TopologySpec::RandomSc {
                n: 16,
                delta: 3,
                seed: 0
            }
        );
        assert_eq!(
            "tree-loop:h=3".parse::<TopologySpec>().unwrap(),
            TopologySpec::TreeLoop { h: 3, seed: 0 }
        );
    }

    #[test]
    fn whitespace_is_tolerated() {
        let spec: TopologySpec = "  debruijn: 2 , 5 ".parse().unwrap();
        assert_eq!(spec, TopologySpec::Debruijn { k: 2, m: 5 });
    }

    #[test]
    fn unknown_family_lists_known_families() {
        let err = "moebius:3".parse::<TopologySpec>().unwrap_err();
        assert!(matches!(err, ParseSpecError::UnknownFamily { .. }));
        let msg = err.to_string();
        assert!(msg.contains("moebius"), "{msg}");
        assert!(msg.contains("ring"), "{msg}");
        assert!(msg.contains("bidi-grid-faulty"), "{msg}");
    }

    #[test]
    fn missing_param_is_reported_by_name() {
        let err = "random-sc:n=16".parse::<TopologySpec>().unwrap_err();
        assert_eq!(
            err,
            ParseSpecError::MissingParam {
                family: "random-sc",
                param: "delta"
            }
        );
        assert!(err.to_string().contains("delta"));
    }

    #[test]
    fn unknown_param_lists_expected_keys() {
        let err = "random-sc:n=16,gamma=3"
            .parse::<TopologySpec>()
            .unwrap_err();
        assert!(matches!(err, ParseSpecError::UnknownParam { .. }));
        let msg = err.to_string();
        assert!(msg.contains("gamma") && msg.contains("delta"), "{msg}");
    }

    #[test]
    fn duplicate_and_excess_args_are_rejected() {
        assert_eq!(
            "ring:4,n=5".parse::<TopologySpec>().unwrap_err(),
            ParseSpecError::DuplicateParam {
                family: "ring",
                param: "n"
            }
        );
        assert_eq!(
            "ring:4,5".parse::<TopologySpec>().unwrap_err(),
            ParseSpecError::TooManyArgs {
                family: "ring",
                got: 2,
                max: 1
            }
        );
    }

    #[test]
    fn bad_values_name_the_parameter() {
        let err = "ring:banana".parse::<TopologySpec>().unwrap_err();
        assert_eq!(
            err,
            ParseSpecError::BadValue {
                family: "ring",
                param: "n",
                value: "banana".into(),
                expected: "an integer"
            }
        );
        let err = "bidi-grid-faulty:w=3,h=3,p=maybe,seed=0"
            .parse::<TopologySpec>()
            .unwrap_err();
        assert!(err.to_string().contains("maybe"), "{err}");
    }

    #[test]
    fn out_of_range_values_are_structured_errors_not_panics() {
        for bad in [
            "ring:1",
            "hypercube:9",
            "complete:64",
            "bidi-grid-faulty:w=4,h=4,p=1.5,seed=0",
            "tree-loop:h=0",
            "random-sc:n=16,delta=1",
            "debruijn:2,40",
        ] {
            let err = bad.parse::<TopologySpec>().unwrap_err();
            assert!(
                matches!(err, ParseSpecError::OutOfRange { .. }),
                "{bad} -> {err:?}"
            );
        }
    }

    #[test]
    fn port_bounds_above_max_delta_are_structured_errors_not_panics() {
        // δ = MAX_DELTA is the largest bound the builder accepts: it builds.
        let ok: TopologySpec = "random-sc:n=8,delta=64,seed=1".parse().unwrap();
        assert_eq!(ok.build().delta(), MAX_DELTA);
        let ok: TopologySpec = "debruijn:64,1".parse().unwrap();
        assert_eq!(ok.build().delta(), MAX_DELTA);
        // Above it the builder would panic, so parsing must refuse.
        for bad in [
            "random-sc:n=8,delta=65",
            "random-sc:n=8,delta=255",
            "debruijn:65,1",
            "kautz:65,1",
        ] {
            let err = bad.parse::<TopologySpec>().unwrap_err();
            assert!(
                matches!(err, ParseSpecError::OutOfRange { .. }),
                "{bad} -> {err:?}"
            );
            assert!(err.to_string().contains("<= 64"), "{bad} -> {err}");
        }
        let direct = TopologySpec::RandomSc {
            n: 8,
            delta: 65,
            seed: 0,
        };
        assert!(matches!(
            direct.validate(),
            Err(ParseSpecError::OutOfRange { .. })
        ));
    }

    #[test]
    fn oversized_networks_are_structured_errors_not_truncation() {
        // n·δ must fit in 32 bits (flat route-table slot indices with a
        // u32 sentinel); anything larger is a structured parse error, not
        // a silent node-id truncation inside the engine.
        for bad in [
            "ring:4294967295",
            "ring:18446744073709551615",
            "line-bidi:2147483648",
            "torus:65536,65536",
            "random-sc:n=4294967295,delta=3,seed=1",
            "random-sc:n=1431655766,delta=3,seed=1",
            "bidi-grid-faulty:w=40000,h=40000,p=0.1,seed=0",
        ] {
            let err = bad.parse::<TopologySpec>().unwrap_err();
            assert!(
                matches!(err, ParseSpecError::OutOfRange { .. }),
                "{bad} -> {err:?}"
            );
            assert!(err.to_string().contains("32 bits"), "{bad} -> {err}");
        }
        // The million-node bench regime sits comfortably inside the bound.
        let ok: TopologySpec = "random-sc:n=1000000,delta=3,seed=9".parse().unwrap();
        ok.validate().unwrap();
    }

    #[test]
    fn empty_specs_are_rejected() {
        assert_eq!(
            "".parse::<TopologySpec>().unwrap_err(),
            ParseSpecError::Empty
        );
        assert_eq!(
            "  ".parse::<TopologySpec>().unwrap_err(),
            ParseSpecError::Empty
        );
        assert_eq!(
            ":4".parse::<TopologySpec>().unwrap_err(),
            ParseSpecError::Empty
        );
    }

    #[test]
    fn spec_builds_match_generator_calls() {
        assert_eq!(TopologySpec::Ring { n: 9 }.build(), generators::ring(9));
        assert_eq!(
            TopologySpec::BidiGridFaulty {
                w: 4,
                h: 3,
                p: 0.2,
                seed: 5
            }
            .build(),
            generators::bidi_grid_faulty(4, 3, 0.2, 5)
        );
        assert_eq!(
            TopologySpec::TreeLoop { h: 3, seed: 11 }.build(),
            generators::tree_loop_random(3, 11)
        );
    }

    #[test]
    fn dynamic_specs_round_trip_and_sort_suffixes_by_tick() {
        let spec: DynamicSpec = "random-sc:n=512,delta=3,seed=7+rewire=5@t900+rewire=2@t200"
            .parse()
            .unwrap();
        assert_eq!(spec.schedule.len(), 2);
        // canonical rendering orders by tick
        assert_eq!(
            spec.to_string(),
            "random-sc:n=512,delta=3,seed=7+rewire=2@t200+rewire=5@t900"
        );
        let back: DynamicSpec = spec.to_string().parse().unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn static_specs_parse_as_dynamic_specs() {
        let spec: DynamicSpec = "debruijn:2,5".parse().unwrap();
        assert!(spec.is_static());
        assert_eq!(spec.base, TopologySpec::Debruijn { k: 2, m: 5 });
        assert_eq!(spec.to_string(), "debruijn:2,5");
        assert_eq!(DynamicSpec::from(TopologySpec::Ring { n: 4 }), {
            let s: DynamicSpec = "ring:4".parse().unwrap();
            s
        });
    }

    #[test]
    fn malformed_mutation_suffixes_report_suffix_index_and_tick() {
        use crate::mutation::MutationSuffixError as E;
        let cases: [(&str, usize, Option<u64>, E); 6] = [
            ("ring:8+", 1, None, E::Empty),
            ("ring:8+drop-edge=3", 1, None, E::MissingTick),
            (
                "ring:8+drop-edge=3@500",
                1,
                None,
                E::BadTick {
                    value: "500".into(),
                },
            ),
            (
                "ring:8+swap=1@t2+warp=1@t5",
                2,
                Some(5),
                E::UnknownKind {
                    kind: "warp".into(),
                },
            ),
            ("ring:8+drop-edge@t5", 1, Some(5), E::MissingSelector),
            (
                "ring:8+drop-edge=banana@t5",
                1,
                Some(5),
                E::BadSelector {
                    value: "banana".into(),
                },
            ),
        ];
        for (text, index, tick, reason) in cases {
            let err = text.parse::<DynamicSpec>().unwrap_err();
            let ParseSpecError::BadMutationSuffix {
                index: got_index,
                tick: got_tick,
                reason: ref got_reason,
                ref suffix,
            } = err
            else {
                panic!("{text:?}: expected BadMutationSuffix, got {err:?}");
            };
            assert_eq!(got_index, index, "{text:?}");
            assert_eq!(got_tick, tick, "{text:?}");
            assert_eq!(*got_reason, reason, "{text:?}");
            assert!(
                text.ends_with(suffix.as_str()) || suffix.is_empty(),
                "{text:?}"
            );
            // the human rendering names the suffix (and the tick if known)
            let msg = err.to_string();
            if !suffix.is_empty() {
                assert!(msg.contains(suffix.as_str()), "{msg}");
            }
            if let Some(t) = tick {
                assert!(msg.contains(&format!("tick {t}")), "{msg}");
            }
        }
    }

    #[test]
    fn fault_suffixes_parse_and_render_canonically() {
        let spec: DynamicSpec = "ring:64~loss=0.01~delay=1..3~fault-seed=42+rewire=2@t200"
            .parse()
            .unwrap();
        assert_eq!(spec.base, TopologySpec::Ring { n: 64 });
        assert_eq!(
            spec.fault,
            FaultPlane {
                loss: 0.01,
                delay_min: 1,
                delay_max: 3,
                seed: 42
            }
        );
        assert_eq!(spec.schedule.len(), 1);
        assert_eq!(
            spec.to_string(),
            "ring:64~loss=0.01~delay=1..3~fault-seed=42+rewire=2@t200"
        );
        let back: DynamicSpec = spec.to_string().parse().unwrap();
        assert_eq!(back, spec);
        assert_eq!(spec.effective_faults(), Some(spec.fault));
    }

    #[test]
    fn degenerate_delay_ranges_render_as_a_single_value() {
        let a: DynamicSpec = "ring:8~delay=2".parse().unwrap();
        let b: DynamicSpec = "ring:8~delay=2..2".parse().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.fault.delay_min, 2);
        assert_eq!(a.fault.delay_max, 2);
        assert_eq!(b.to_string(), "ring:8~delay=2");
    }

    #[test]
    fn zero_fault_suffixes_are_exactly_the_unfaulted_spec() {
        let plain: DynamicSpec = "ring:8".parse().unwrap();
        for text in ["ring:8~loss=0", "ring:8~delay=0", "ring:8~fault-seed=7"] {
            let spec: DynamicSpec = text.parse().unwrap();
            assert_eq!(spec, plain, "{text}");
            assert_eq!(spec.fault, FaultPlane::NONE, "{text}");
            assert_eq!(spec.effective_faults(), None, "{text}");
            assert_eq!(spec.to_string(), "ring:8", "{text}");
        }
        // …but a seed on an *active* plane is kept
        let seeded: DynamicSpec = "ring:8~loss=0.5~fault-seed=7".parse().unwrap();
        assert_eq!(seeded.fault.seed, 7);
    }

    #[test]
    fn malformed_fault_suffixes_are_structured_errors() {
        for (text, needle) in [
            ("ring:8~loss", "key=value"),
            ("ring:8~loss=2", "loss must be in [0, 1]"),
            ("ring:8~loss=-0.5", "loss must be in [0, 1]"),
            ("ring:8~loss=nan", "loss must be in [0, 1]"),
            ("ring:8~loss=banana", "not a number"),
            ("ring:8~delay=3..1", "min <= max"),
            ("ring:8~delay=x..2", "not a tick count"),
            ("ring:8~jitter=2", "unknown fault knob"),
            ("ring:8~loss=0.1~loss=0.2", "given twice"),
        ] {
            let err = text.parse::<DynamicSpec>().unwrap_err();
            assert!(
                matches!(err, ParseSpecError::BadFaultSuffix { .. }),
                "{text} -> {err:?}"
            );
            assert!(err.to_string().contains(needle), "{text} -> {err}");
        }
    }

    #[test]
    fn fault_registry_examples_parse_and_use_their_knob() {
        for knob in FAULT_REGISTRY {
            let spec: DynamicSpec = knob
                .example
                .parse()
                .unwrap_or_else(|e| panic!("{}: {e}", knob.example));
            assert!(spec.fault.is_active(), "{}", knob.example);
            assert!(knob.example.contains(&format!("~{}=", knob.name)));
        }
    }

    #[test]
    fn validate_rejects_out_of_range_planes_built_directly() {
        let mut spec = DynamicSpec::fixed(TopologySpec::Ring { n: 8 });
        spec.validate().unwrap();
        spec.fault.loss = 1.5;
        assert!(matches!(
            spec.validate(),
            Err(ParseSpecError::BadFaultSuffix { .. })
        ));
        spec.fault.loss = 0.1;
        spec.fault.delay_min = 5;
        spec.fault.delay_max = 2;
        assert!(matches!(
            spec.validate(),
            Err(ParseSpecError::BadFaultSuffix { .. })
        ));
    }

    #[test]
    fn bad_base_spec_in_a_dynamic_string_reports_the_family_error() {
        let err = "moebius:3+swap=1@t5".parse::<DynamicSpec>().unwrap_err();
        assert!(
            matches!(err, ParseSpecError::UnknownFamily { .. }),
            "{err:?}"
        );
    }
}
