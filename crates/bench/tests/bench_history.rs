//! `BENCH_history.jsonl` is the only committed record of simulator
//! speed: one line per PR, the medians (and, where recorded, the
//! quartiles) of the benchmark `BENCHMARK.json` defines. A line may
//! also carry, per metric, the median and quartiles of the per-pair
//! change/parent ratios of the alternating pairs it was measured in
//! (`<metric>_ratio`, `_ratio_q1`, `_ratio_q3`): unlike the absolute
//! numbers, those compare across hosts. This keeps the record from
//! drifting from that definition.

use std::path::PathBuf;

use vr_obs::Json;

fn repo_file(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `name` of every entry of `BENCHMARK.json`'s array `list`.
fn names(bench: &Json, list: &str) -> Vec<String> {
    let entries = bench.get(list).and_then(Json::as_arr).expect(list);
    entries.iter().map(|e| e.get("name").and_then(Json::as_str).expect("name").into()).collect()
}

#[test]
fn every_history_line_matches_the_benchmark_definition() {
    let bench = Json::parse(&repo_file("BENCHMARK.json")).expect("BENCHMARK.json parses");
    let workloads = names(&bench, "workloads");
    let medians = names(&bench, "end_to_end");
    let mut keys: Vec<String> =
        medians.iter().flat_map(|m| [m.clone(), format!("{m}_q1"), format!("{m}_q3")]).collect();
    keys.push("stats_fnv".into());
    keys.sort_unstable();

    let history = repo_file("BENCH_history.jsonl");
    let mut last_pr = 0;
    for (i, line) in history.lines().enumerate() {
        let at = format!("BENCH_history.jsonl line {}", i + 1);
        let rec = Json::parse(line).unwrap_or_else(|e| panic!("{at}: {e}"));
        let pr = rec.get("pr").and_then(Json::as_u64).unwrap_or_else(|| panic!("{at}: no pr"));
        assert!(pr > last_pr, "{at}: pr {pr} does not follow pr {last_pr}");
        last_pr = pr;

        let per_workload = rec.get("workloads").and_then(Json::as_obj).expect("workloads");
        let got: Vec<&str> = per_workload.iter().map(|(w, _)| w.as_str()).collect();
        assert_eq!(got, workloads, "{at}: workload names");
        for (w, values) in per_workload {
            // The pair-ratio triple is optional per metric: all three
            // keys or none.
            let mut want = keys.clone();
            for m in &medians {
                let triple =
                    [format!("{m}_ratio"), format!("{m}_ratio_q1"), format!("{m}_ratio_q3")];
                match triple.iter().filter(|k| values.get(k).is_some()).count() {
                    0 => {}
                    3 => want.extend(triple),
                    _ => panic!("{at}: {w} {m}: the ratio triple is all three keys or none"),
                }
            }
            want.sort_unstable();
            let mut got: Vec<&str> =
                values.as_obj().expect("metrics").iter().map(|(k, _)| k.as_str()).collect();
            got.sort_unstable();
            assert_eq!(got, want, "{at}: {w} metric keys");
            // Where all three were recorded, a median (of the values or
            // of the ratios) lies inside its quartiles.
            for m in medians.iter().flat_map(|m| [m.clone(), format!("{m}_ratio")]) {
                let num = |k: &str| values.get(k).and_then(Json::as_f64);
                let q = (num(&format!("{m}_q1")), num(&m), num(&format!("{m}_q3")));
                if let (Some(q1), Some(med), Some(q3)) = q {
                    assert!(q1 <= med && med <= q3, "{at}: {w} {m} {q1} {med} {q3}");
                }
            }
        }
    }
    assert!(last_pr > 0, "BENCH_history.jsonl is empty");
}
