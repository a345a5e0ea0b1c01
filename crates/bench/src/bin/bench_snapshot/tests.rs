use super::*;

/// A run of `secs` with `hits`/`misses` shared-cache probes.
fn run(secs: f64, hits: u64, misses: u64) -> Run {
    let mut run = Run {
        secs,
        ..Run::default()
    };
    run.pp.shared_cache_hits = hits;
    run.pp.shared_cache_misses = misses;
    run.pp.output_tokens = 1000;
    run
}

/// One row per compared name, each at `tokens_per_sec`.
fn compared_rows(tokens_per_sec: f64) -> Vec<Row> {
    let names = GROUPS.iter().flat_map(|g| g.compared);
    names
        .map(|&name| Row {
            name,
            wall: false,
            reps: 1,
            run: run(1000.0 / tokens_per_sec, 0, 0),
        })
        .collect()
}

fn group(rows: &str) -> &'static Group {
    GROUPS
        .iter()
        .find(|g| g.rows.join(" ") == rows)
        .expect("declared")
}

#[test]
fn bounds_keep_their_values() {
    let limits: Vec<(&str, f64)> = GROUPS
        .iter()
        .flat_map(|g| g.gates)
        .flat_map(|g| [8, 4, 2, 1].map(|cores| (g.what, g.bound.limit(cores))))
        .collect();
    let want = |what: &str, by_cores: [f64; 4]| {
        let got: Vec<f64> = limits.iter().filter(|l| l.0 == what).map(|l| l.1).collect();
        assert_eq!(got, by_cores, "{what}");
    };
    want("governed cost", [-0.02; 4]);
    want("shared-cache hit rate", [0.15; 4]);
    want("cache speedup", [1.3; 4]);
    want("fast-path speedup", [1.25; 4]);
    want("profiles cost", [2.4; 4]);
    want("warm speedup", [3.0; 4]);
    want("daemon speedup", [3.0; 4]);
    want("kernel_j2 speedup", [1.7, 1.7, 1.7, 0.4]);
    want("kernel_j8 speedup", [3.0, 2.0, 1.3, 0.3]);
    assert_eq!(limits.len(), 9 * 4, "one entry per gate and core count");
    assert_eq!(CROSS_RUN_FLOOR, -0.40);
    let rows: usize = GROUPS.iter().map(|g| g.rows.len()).sum();
    assert_eq!(rows, 16);
}

#[test]
fn every_gate_passes_just_inside_its_bound_and_fails_just_past_it() {
    for gate in GROUPS.iter().flat_map(|g| g.gates) {
        for cores in [1, 2, 4, 8] {
            let limit = gate.bound.limit(cores);
            let step = if matches!(gate.bound, Bound::AtMost(_)) {
                -1e-9
            } else {
                1e-9
            };
            let verdict = |value| Verdict {
                what: gate.what.to_string(),
                value,
                fastest: None,
                percent: false,
                bound: gate.bound,
                cores,
            };
            assert!(verdict(limit + step).pass(), "{} inside", gate.what);
            assert!(!verdict(limit - step).pass(), "{} past", gate.what);
        }
    }
}

#[test]
fn gates_read_the_median_of_within_rep_ratios() {
    // Leg 1 (cache off) is 1.2x leg 0 in two reps of three. The fastest
    // reps of each leg make 1.33x, which would pass the 1.3x floor.
    let headers = group("full_headers full_headers_nocache");
    let reps = vec![
        vec![run(1.0, 1, 4), run(1.2, 0, 0)],
        vec![run(0.9, 1, 1), run(1.08, 0, 0)],
        vec![run(1.1, 1, 1), run(1.5, 0, 0)],
    ];
    let verdicts = judge(headers, &reps, 2);
    let hit_rate = &verdicts[0];
    assert_eq!(hit_rate.value, 0.5, "median of 0.2, 0.5, 0.5");
    assert!(hit_rate.pass());
    let speedup = &verdicts[1];
    assert!((speedup.value - 1.2).abs() < 1e-9, "{}", speedup.value);
    assert!(!speedup.pass());
    assert!((speedup.fastest.expect("min-of-reps") - 1.08 / 0.9).abs() < 1e-9);
}

#[test]
fn cross_run_compare_fails_past_forty_percent() {
    let committed: Vec<(String, f64)> = compared_rows(1000.0)
        .iter()
        .map(|r| (r.name.to_string(), r.run.tokens_per_sec()))
        .collect();
    let verdicts = cross_run(&compared_rows(601.0), &committed);
    assert_eq!(verdicts.len(), 9, "every compared row");
    assert!(verdicts.iter().all(Verdict::pass));
    let verdicts = cross_run(&compared_rows(599.0), &committed);
    assert!(verdicts.iter().all(|v| !v.pass()));
}

#[test]
fn a_missing_row_fails() {
    let mut committed: Vec<(String, f64)> = compared_rows(1000.0)
        .iter()
        .map(|r| (r.name.to_string(), r.run.tokens_per_sec()))
        .collect();
    committed.retain(|(name, _)| name != "fig9");
    let failed: Vec<String> = cross_run(&compared_rows(1000.0), &committed)
        .into_iter()
        .filter(|v| !v.pass())
        .map(|v| v.what)
        .collect();
    assert_eq!(failed, ["fig9 tokens/s vs committed (row missing)"]);
    let mut rows = compared_rows(1000.0);
    rows.retain(|r| r.name != "kernel_j8");
    let verdicts = cross_run(&rows, &committed);
    assert_eq!(verdicts.iter().filter(|v| !v.pass()).count(), 2);
}

#[test]
fn update_writes_nothing_for_a_failing_snapshot() {
    let path = std::env::temp_dir().join(format!("bench-update-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let rows = compared_rows(1000.0);
    let mut verdicts = judge(
        group("fig9_condfree fig9_condfree_nofp"),
        &[vec![run(1.0, 0, 0), run(1.2, 0, 0)]],
        2,
    );
    assert!(!verdicts[0].pass(), "1.2x is under the 1.25x floor");
    let snapshot = snapshot_json(&machine(2), &rows);
    assert!(update(&path, &snapshot, &verdicts).is_err());
    assert!(!path.exists(), "a failing snapshot must not be written");

    verdicts[0].value = 1.3;
    let snapshot = snapshot_json(&machine(2), &rows);
    update(&path, &snapshot, &verdicts).expect("a passing snapshot is written");
    let text = std::fs::read_to_string(&path).expect("written");
    std::fs::remove_file(&path).expect("clean up");
    // What the update writes, the next compare reads.
    let rates = committed_rates(&text).expect("the snapshot parses");
    assert_eq!(rates.len(), rows.len());
    assert!(rates.iter().all(|(_, rate)| (rate - 1000.0).abs() < 0.1));
    let json = Json::parse(&text).expect("valid JSON");
    let row = &json.get("rows").and_then(Json::as_array).expect("rows")[0];
    let counters = row.get("counters").expect("counters");
    let tokens = counters.get("cpp.output_tokens").and_then(Json::as_f64);
    assert_eq!(tokens, Some(1000.0), "counters are named layer.name");
}

#[test]
fn arguments_are_update_and_reps() {
    let parse = |args: &[&str]| parse_args(args.iter().map(|a| a.to_string()));
    assert_eq!(parse(&[]), Ok((false, None)));
    assert_eq!(parse(&["--update", "--reps", "3"]), Ok((true, Some(3))));
    assert!(parse(&["--reps", "0"]).is_err());
    assert!(parse(&["--warmup", "1"]).is_err());
}
