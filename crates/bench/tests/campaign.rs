//! Campaign integration suite: determinism across worker counts, per-cell
//! fault capture, and export round-trips through the JSON parser.

use gtd_bench::json::JsonValue;
use gtd_bench::Campaign;
use gtd_core::RemapPolicy;
use gtd_netsim::{EngineMode, NodeId};

fn reference_grid() -> Campaign {
    Campaign::new()
        .parse_specs(["ring:16", "debruijn:2,4", "random-sc:n=24,delta=3,seed=3"])
        .unwrap()
        .mappers(["gtd", "routed-dfs", "flood-echo"])
        .modes([EngineMode::Dense, EngineMode::Sparse, EngineMode::Parallel])
        .roots([NodeId(0), NodeId(5)])
        .reps(2)
}

#[test]
fn jsonl_is_byte_identical_for_any_job_count() {
    let serial = reference_grid().jobs(1).run().unwrap().to_jsonl();
    let parallel = reference_grid().jobs(8).run().unwrap().to_jsonl();
    assert_eq!(serial, parallel, "jobs must not affect results");
    assert_eq!(serial.lines().count(), 3 * 3 * 3 * 2 * 2);

    let auto = reference_grid().jobs(0).run().unwrap().to_csv();
    assert_eq!(auto, reference_grid().jobs(3).run().unwrap().to_csv());
}

#[test]
fn every_jsonl_row_parses_with_the_bench_json_parser() {
    let report = reference_grid().jobs(4).run().unwrap();
    let jsonl = report.to_jsonl();
    assert!(!jsonl.is_empty());
    for line in jsonl.lines() {
        let row = JsonValue::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert!(row.get("spec").is_some());
        assert!(row.get("mapper").is_some());
        assert_eq!(row.get("ok"), Some(&JsonValue::Bool(true)));
        assert!(row.get("rounds").is_some());
    }
}

#[test]
fn budget_exhausted_cell_is_captured_while_the_rest_completes() {
    // ring:4 finishes well under 3000 ticks; ring:32 needs far more.
    let report = Campaign::new()
        .parse_specs(["ring:4", "ring:32"])
        .unwrap()
        .mappers(["gtd", "flood-echo"])
        .tick_budget(3_000)
        .jobs(2)
        .run()
        .unwrap();
    assert_eq!(report.records.len(), 4);
    assert_eq!(report.error_count(), 1);

    let small_gtd = &report.records[0];
    assert_eq!(
        (small_gtd.spec.as_str(), small_gtd.mapper.as_str()),
        ("ring:4", "gtd")
    );
    assert!(small_gtd.result.is_ok(), "small run fits the budget");

    let big_gtd = report
        .records
        .iter()
        .find(|r| r.spec == "ring:32" && r.mapper == "gtd")
        .unwrap();
    let err = big_gtd.result.as_ref().unwrap_err();
    assert_eq!(err.kind, "budget-exhausted");
    assert!(err.message.contains("3000"), "{}", err.message);

    // the budget only binds the protocol cells; baselines are unaffected
    assert!(report
        .records
        .iter()
        .filter(|r| r.mapper == "flood-echo")
        .all(|r| r.result.is_ok()));

    // failed cells render as ok=false rows that still parse
    let jsonl = report.to_jsonl();
    let err_line = jsonl
        .lines()
        .find(|l| l.contains("error_kind"))
        .expect("error row present");
    let row = JsonValue::parse(err_line).unwrap();
    assert_eq!(row.get("ok"), Some(&JsonValue::Bool(false)));
    assert_eq!(
        row.get("error_kind"),
        Some(&JsonValue::Str("budget-exhausted".into()))
    );
}

#[test]
fn dynamic_grid_jsonl_is_byte_identical_for_any_job_count() {
    let grid = || {
        Campaign::new()
            .parse_specs([
                "ring:16+drop-edge=1@t100",
                "random-sc:n=20,delta=3,seed=3+rewire=2@t50+add-edge=1@t4000",
            ])
            .unwrap()
            .mappers(["gtd", "routed-dfs", "flood-echo"])
            .modes([EngineMode::Dense, EngineMode::Sparse])
            .reps(2)
    };
    let serial = grid().jobs(1).run().unwrap().to_jsonl();
    let parallel = grid().jobs(8).run().unwrap().to_jsonl();
    assert_eq!(serial, parallel, "jobs must not affect dynamic results");
    assert_eq!(serial.lines().count(), 2 * 3 * 2 * 2);

    // every dynamic row carries a populated remap story
    for line in serial.lines() {
        let row = JsonValue::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(row.get("ok"), Some(&JsonValue::Bool(true)), "{line}");
        assert_eq!(row.get("verified"), Some(&JsonValue::Bool(true)), "{line}");
        assert!(row.get("epochs").is_some(), "{line}");
        assert!(row.get("initial_rounds").is_some(), "{line}");
        let Some(JsonValue::Arr(latencies)) = row.get("remap_latencies") else {
            panic!("remap_latencies missing: {line}");
        };
        let spec = match row.get("spec") {
            Some(JsonValue::Str(s)) => s.clone(),
            other => panic!("bad spec field {other:?}"),
        };
        assert_eq!(
            latencies.len(),
            spec.matches('+').count(),
            "one latency per mutation: {line}"
        );
        assert!(
            latencies.iter().all(|l| matches!(l, JsonValue::Num(_))),
            "latency populated for every mutation: {line}"
        );
    }

    // the spec strings round-trip through the dynamic grammar
    use gtd_netsim::DynamicSpec;
    for line in serial.lines() {
        let row = JsonValue::parse(line).unwrap();
        if let Some(JsonValue::Str(s)) = row.get("spec") {
            let spec: DynamicSpec = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(&spec.to_string(), s, "canonical rendering");
        }
    }

    // CSV gains the remap columns (policy and per-epoch n included)
    let csv = grid().jobs(0).run().unwrap().to_csv();
    let header = csv.lines().next().unwrap();
    assert!(header.contains("mode,policy,root"), "{header}");
    assert!(header.contains("epochs,epoch_n,remap_median"), "{header}");
    assert_eq!(csv, grid().jobs(3).run().unwrap().to_csv());
}

/// The membership reference grid: N-changing specs × mappers × both
/// remap policies. Shared by the jobs-independence and golden-file tests
/// (and regenerable with the equivalent `harness grid` invocation — see
/// `golden/README.md`).
fn membership_grid() -> Campaign {
    Campaign::new()
        .parse_specs([
            "ring:12+node-join=2@t60",
            "ring:12+node-leave=1@t60",
            "random-sc:n=16,delta=3,seed=5+burst=3@t80",
        ])
        .unwrap()
        .mappers(["gtd", "flood-echo"])
        .policies([RemapPolicy::Lazy, RemapPolicy::Eager])
}

#[test]
fn membership_grid_jsonl_is_byte_identical_for_any_job_count() {
    let serial = membership_grid().jobs(1).run().unwrap().to_jsonl();
    let parallel = membership_grid().jobs(8).run().unwrap().to_jsonl();
    assert_eq!(serial, parallel, "jobs must not affect membership grids");
    assert_eq!(serial.lines().count(), 3 * 2 * 2);

    for line in serial.lines() {
        let row = JsonValue::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(row.get("ok"), Some(&JsonValue::Bool(true)), "{line}");
        assert_eq!(row.get("verified"), Some(&JsonValue::Bool(true)), "{line}");
        // the policy axis is recorded on every row
        let Some(JsonValue::Str(policy)) = row.get("policy") else {
            panic!("policy missing: {line}");
        };
        assert!(policy == "lazy" || policy == "eager", "{line}");
        // dynamic rows carry per-epoch node counts, one per epoch
        let Some(JsonValue::Arr(epoch_n)) = row.get("epoch_n") else {
            panic!("epoch_n missing: {line}");
        };
        let Some(&JsonValue::Num(epochs)) = row.get("epochs") else {
            panic!("epochs missing: {line}");
        };
        assert_eq!(epoch_n.len(), epochs as usize, "{line}");
        // membership specs end on the mutated node count
        let spec = match row.get("spec") {
            Some(JsonValue::Str(s)) => s.clone(),
            other => panic!("bad spec field {other:?}"),
        };
        let expect_last = if spec.contains("node-join") {
            13.0
        } else if spec.contains("node-leave") {
            11.0
        } else {
            16.0
        };
        assert_eq!(epoch_n.last(), Some(&JsonValue::Num(expect_last)), "{line}");
    }
}

#[test]
fn membership_grid_exports_match_the_golden_files() {
    // Golden-file pin on the JSONL/CSV schemas: any drift in field
    // names, ordering, or the deterministic values themselves fails
    // here. Regenerate via the command in golden/README.md after an
    // intentional schema change.
    let report = membership_grid().jobs(2).run().unwrap();
    assert_eq!(
        report.to_jsonl(),
        include_str!("golden/membership_grid.jsonl"),
        "JSONL export drifted from the golden file"
    );
    assert_eq!(
        report.to_csv(),
        include_str!("golden/membership_grid.csv"),
        "CSV export drifted from the golden file"
    );
}

#[test]
fn aggregate_carries_remap_latency_columns() {
    let report = Campaign::new()
        .parse_specs(["ring:12+swap=1@t40", "ring:12"])
        .unwrap()
        .mappers(["gtd"])
        .run()
        .unwrap();
    let agg = report.aggregate();
    assert_eq!(agg.len(), 2);
    let dynamic = agg.iter().find(|g| g.spec.contains('+')).unwrap();
    assert!(dynamic.median_remap.is_some());
    assert!(dynamic.min_remap <= dynamic.median_remap);
    assert!(dynamic.median_remap <= dynamic.max_remap);
    let fixed = agg.iter().find(|g| !g.spec.contains('+')).unwrap();
    assert_eq!(fixed.median_remap, None);
}

#[test]
fn resume_from_own_export_executes_zero_live_cells_byte_identically() {
    // ISSUE 5 acceptance: re-running a completed grid with --resume-from
    // its own JSONL executes zero live cells and produces byte-identical
    // output. Includes dynamic + membership cells and both policies.
    let grid = || {
        Campaign::new()
            .parse_specs(["ring:12", "ring:12+node-join=2@t60", "debruijn:2,3"])
            .unwrap()
            .mappers(["gtd", "flood-echo"])
            .modes([EngineMode::Dense, EngineMode::Sparse])
            .policies([RemapPolicy::Lazy, RemapPolicy::Eager])
            .jobs(2)
    };
    let first = grid().run().unwrap();
    assert_eq!(first.cached, 0);
    let jsonl = first.to_jsonl();
    let resumed = grid().resume_from_jsonl(&jsonl).unwrap().run().unwrap();
    assert_eq!(resumed.cached, resumed.records.len(), "zero live cells");
    assert_eq!(resumed.to_jsonl(), jsonl, "JSONL byte-identical");
    assert_eq!(resumed.to_csv(), first.to_csv(), "CSV byte-identical");
    assert_eq!(resumed.aggregate(), first.aggregate());
}

#[test]
fn resume_covers_only_matching_cells_and_runs_the_rest_live() {
    let base = Campaign::new()
        .parse_specs(["ring:8"])
        .unwrap()
        .mappers(["gtd"])
        .run()
        .unwrap();
    // widen the grid: the cached cell is reused, the new cells run live
    let wide = Campaign::new()
        .parse_specs(["ring:8", "ring:16"])
        .unwrap()
        .mappers(["gtd", "flood-echo"])
        .resume_from(base.records.clone())
        .run()
        .unwrap();
    assert_eq!(wide.records.len(), 4);
    assert_eq!(wide.cached, 1);
    assert_eq!(wide.records[0], base.records[0], "cached slot verbatim");
    // a fresh run of the wide grid agrees cell-for-cell with the mix
    let fresh = Campaign::new()
        .parse_specs(["ring:8", "ring:16"])
        .unwrap()
        .mappers(["gtd", "flood-echo"])
        .run()
        .unwrap();
    assert_eq!(wide.to_jsonl(), fresh.to_jsonl());
    // records keyed on another axis value are ignored, not misapplied
    let other_mode = Campaign::new()
        .parse_specs(["ring:8"])
        .unwrap()
        .mappers(["gtd"])
        .modes([EngineMode::Dense])
        .resume_from(base.records.clone()) // sparse-mode records
        .run()
        .unwrap();
    assert_eq!(other_mode.cached, 0);
}

#[test]
fn cached_error_cells_are_reused_without_re_running() {
    let grid = || {
        Campaign::new()
            .parse_specs(["ring:32"])
            .unwrap()
            .mappers(["gtd"])
            .tick_budget(3_000)
    };
    let first = grid().run().unwrap();
    assert_eq!(first.error_count(), 1);
    let resumed = grid()
        .resume_from_jsonl(&first.to_jsonl())
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(resumed.cached, 1);
    assert_eq!(resumed.to_jsonl(), first.to_jsonl());
}

#[test]
fn cache_never_crosses_tick_budgets_or_accepts_bench_rows() {
    // A cell's result depends on the tick budget, so the budget is part
    // of the cache key: records computed under one budget must not
    // satisfy a grid running under another.
    let tight = Campaign::new()
        .parse_specs(["ring:32"])
        .unwrap()
        .mappers(["gtd"])
        .tick_budget(3_000)
        .run()
        .unwrap();
    assert_eq!(tight.error_count(), 1, "3k ticks is not enough for ring:32");
    let unbudgeted = Campaign::new()
        .parse_specs(["ring:32"])
        .unwrap()
        .mappers(["gtd"])
        .resume_from_jsonl(&tight.to_jsonl())
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(unbudgeted.cached, 0, "different budget must re-run");
    assert_eq!(unbudgeted.error_count(), 0, "default budget succeeds");
    // Perf rows in older exports are grid-shaped but carry a "bench"
    // marker; resume must never let one satisfy a real cell.
    let bench_row = r#"{"bench":"engine","e":64,"mapper":"gtd","mode":"sparse","n":64,"ok":true,"policy":"lazy","rep":0,"root":0,"rounds":1,"spec":"ring:64","verified":true,"wall_ms":1.0}"#;
    let poisoned = Campaign::new()
        .parse_specs(["ring:64"])
        .unwrap()
        .mappers(["gtd"])
        .resume_from_jsonl(bench_row)
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(poisoned.cached, 0, "bench rows are not campaign cells");
    let rounds = poisoned.records[0].result.as_ref().unwrap().rounds;
    assert!(rounds > 1, "the cell ran live, not from the perf row");
}

#[test]
fn every_record_round_trips_through_from_json_byte_identically() {
    use gtd_bench::campaign::parse_jsonl;
    use gtd_bench::RunRecord;
    // success, dynamic, membership and error cells all round-trip
    let mut records = membership_grid().jobs(2).run().unwrap().records;
    records.extend(
        Campaign::new()
            .parse_specs(["ring:32", "ring:8"])
            .unwrap()
            .mappers(["gtd"])
            .tick_budget(3_000)
            .run()
            .unwrap()
            .records,
    );
    for rec in &records {
        let row = rec.to_json();
        let back = RunRecord::from_json(&row).expect("grid row parses back");
        assert_eq!(back.to_json().render(), row.render(), "{}", rec.spec);
        assert_eq!(back.cache_key(), rec.cache_key());
    }
    // parse_jsonl skips non-grid rows instead of failing
    let mut text = String::from("{\"experiment\":\"E1\",\"data\":{\"n\":4}}\n");
    text.push_str(&records[0].to_json().render());
    text.push('\n');
    let parsed = parse_jsonl(&text).unwrap();
    assert_eq!(parsed.len(), 1);
    assert_eq!(parsed[0].cache_key(), records[0].cache_key());
    // non-JSON lines are an error naming the line
    assert!(parse_jsonl("not json\n").unwrap_err().contains("line 1"));
}

#[test]
fn repetitions_of_a_deterministic_grid_agree() {
    let report = Campaign::new()
        .parse_specs(["tree-loop:h=3,seed=7"])
        .unwrap()
        .mappers(["gtd"])
        .reps(3)
        .jobs(3)
        .run()
        .unwrap();
    assert_eq!(report.records.len(), 3);
    let rounds: Vec<u64> = report
        .records
        .iter()
        .map(|r| r.result.as_ref().unwrap().rounds)
        .collect();
    assert!(rounds.windows(2).all(|w| w[0] == w[1]), "{rounds:?}");
    let agg = report.aggregate();
    assert_eq!(agg.len(), 1);
    assert_eq!(agg[0].runs, 3);
    assert_eq!(agg[0].min_rounds, agg[0].max_rounds);
}

#[test]
fn cell_timeout_lands_as_a_structured_error_and_the_grid_completes() {
    use std::time::Duration;
    let report = Campaign::new()
        .parse_specs(["ring:128"])
        .unwrap()
        .mappers(["gtd"])
        .cell_timeout(Duration::from_millis(1))
        .run()
        .unwrap();
    assert_eq!(report.records.len(), 1);
    let err = report.records[0]
        .result
        .as_ref()
        .expect_err("a 1ms budget cannot map ring:128");
    assert_eq!(err.kind, "cell-timeout");
    assert!(err.message.contains("1 ms"), "{}", err.message);
    // the record exports and parses back like any other failure
    let parsed = gtd_bench::parse_jsonl(&report.to_jsonl()).unwrap();
    assert_eq!(parsed.len(), 1);
    assert_eq!(parsed[0], report.records[0]);
}

#[test]
fn timed_out_records_are_never_reused_from_the_cache() {
    use std::time::Duration;
    let grid = || {
        Campaign::new()
            .parse_specs(["ring:64"])
            .unwrap()
            .mappers(["gtd"])
    };
    let timed_out = grid().cell_timeout(Duration::from_millis(1)).run().unwrap();
    assert_eq!(timed_out.error_count(), 1);
    assert!(!timed_out.records[0].is_cacheable());
    // resuming from the timed-out export must re-execute the cell (an
    // operational failure says nothing about the cell's true result) —
    // and without the timeout it now succeeds
    let resumed = grid()
        .resume_from_jsonl(&timed_out.to_jsonl())
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(
        resumed.cached, 0,
        "cell-timeout records must not satisfy cells"
    );
    assert!(resumed.records[0].result.is_ok());
    // whereas a logical failure (budget exhaustion) is reused as before
    let exhausted = grid().tick_budget(10).run().unwrap();
    assert_eq!(
        exhausted.records[0].result.as_ref().unwrap_err().kind,
        "budget-exhausted"
    );
    assert!(exhausted.records[0].is_cacheable());
    let resumed = grid()
        .tick_budget(10)
        .resume_from_jsonl(&exhausted.to_jsonl())
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(resumed.cached, 1);
}
