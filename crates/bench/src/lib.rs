//! # gtd-bench
//!
//! The experiment layer: the structured families the experiments share
//! ([`core_family_specs`]), the [`Campaign`] grid runner
//! (topology specs × mappers × engine modes × roots × repetitions over a
//! worker pool), a plain-text table writer, and JSON row dumps so
//! experiment numbers stay regenerable.
//!
//! Protocol runs go through the unified
//! [`GtdSession`](gtd_core::GtdSession) API; mapper comparisons go
//! through [`gtd_baselines::TopologyMapper`]; grids go through
//! [`Campaign`].

pub mod campaign;
pub mod json;

use gtd_netsim::TopologySpec;

pub use campaign::{
    parse_jsonl, CacheKey, Campaign, CampaignError, CampaignReport, CellError, CellOutcome,
    CellSpec, GroupStat, RemapSummary, RunRecord,
};
pub use gtd_core::{phase_breakdown, PhaseBreakdown};

use crate::json::JsonValue;

/// The structured families used across experiments, as specs (kept small
/// enough that every experiment finishes on a laptop; the harness accepts
/// a scale knob).
pub fn core_family_specs(scale: usize) -> Vec<TopologySpec> {
    let s = scale.max(1);
    vec![
        TopologySpec::Ring { n: 16 * s },
        TopologySpec::LineBidi { n: 16 * s },
        TopologySpec::Torus { w: 4 * s, h: 4 },
        TopologySpec::Debruijn {
            k: 2,
            m: 4 + s.ilog2() as usize,
        },
        TopologySpec::TreeLoop {
            h: 3 + s.ilog2(),
            seed: 7,
        },
        TopologySpec::RandomSc {
            n: 32 * s,
            delta: 3,
            seed: 1,
        },
        TopologySpec::BidiGridFaulty {
            w: 4 * s,
            h: 4,
            p: 0.2,
            seed: 11,
        },
    ]
}

/// Simple fixed-width table printer (markdown-flavoured).
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], widths: &[usize], out: &mut String| {
            out.push('|');
            for (c, w) in cells.iter().zip(widths) {
                out.push(' ');
                out.push_str(c);
                out.push_str(&" ".repeat(w - c.len() + 1));
                out.push('|');
            }
            out.push('\n');
        };
        line(&self.headers, &widths, &mut out);
        out.push('|');
        for w in &widths {
            out.push_str(&"-".repeat(w + 2));
            out.push('|');
        }
        out.push('\n');
        for row in &self.rows {
            line(row, &widths, &mut out);
        }
        out
    }
}

/// Serialize one experiment row as a JSON line:
/// `{"experiment": "E2", "data": {...}}`.
pub fn json_line(experiment: &str, data: JsonValue) -> String {
    crate::json!({ "experiment": experiment, "data": data }).render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtd_core::GtdSession;
    use gtd_netsim::generators;

    #[test]
    fn families_are_valid_networks() {
        for spec in core_family_specs(1) {
            let topo = spec.build();
            topo.validate().unwrap();
            assert!(gtd_netsim::algo::is_strongly_connected(&topo), "{spec}");
        }
    }

    #[test]
    fn families_scale() {
        let nodes = |scale| -> usize {
            core_family_specs(scale)
                .iter()
                .map(|s| s.build().num_nodes())
                .sum()
        };
        assert!(nodes(4) > nodes(1));
    }

    #[test]
    fn family_names_round_trip_as_specs() {
        for spec in core_family_specs(2) {
            let reparsed: TopologySpec = spec.to_string().parse().unwrap();
            assert_eq!(reparsed, spec, "{spec} must round-trip");
            assert_eq!(reparsed.build(), spec.build());
        }
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["yyyy".into(), "2".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    #[test]
    fn phase_breakdown_accounts_for_most_ticks() {
        let topo = generators::ring(8);
        let run = GtdSession::on(&topo).run().expect("protocol terminates");
        let pb = phase_breakdown(&run.events);
        assert_eq!(pb.rcas, 14, "2E minus the root-local moves on an 8-ring");
        let total_run = run.events.last().unwrap().0;
        assert!(pb.total() <= total_run);
        assert!(
            pb.total() * 10 >= total_run * 8,
            "breakdown should cover >= 80% of the run: {} vs {}",
            pb.total(),
            total_run
        );
    }

    #[test]
    fn json_rows_parse_back() {
        let line = json_line("E1", crate::json!({"n": 4u32}));
        let v = JsonValue::parse(&line).unwrap();
        assert_eq!(v.get("experiment"), Some(&JsonValue::Str("E1".into())));
        assert_eq!(
            v.get("data").and_then(|d| d.get("n")),
            Some(&JsonValue::Num(4.0))
        );
    }
}
