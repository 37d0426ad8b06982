//! `BENCHMARK.json` against the tables in the code, and a smoke run of
//! each workload at [`Sizing::smoke`].

use vr_obs::Json;

use super::*;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn field<'a>(obj: &'a Json, key: &str) -> &'a str {
    obj.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("string field {key}"))
}

#[test]
fn benchmark_json_declares_exactly_the_tables_in_the_code() {
    let json = benchmark_json();
    let keys: Vec<&str> = json.as_obj().expect("object").iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);

    assert_eq!(json.get("run_seconds").and_then(Json::as_f64), Some(DEFAULT_SECONDS));
    let names: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));

    for (key, table) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
        let declared = json.get(key).and_then(Json::as_arr).expect(key);
        assert_eq!(declared.len(), table.len(), "{key}");
        for (d, m) in declared.iter().zip(&table) {
            assert_eq!(field(d, "name"), m.name);
            assert_eq!(field(d, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(d, "better"), m.better.as_str(), "{}", m.name);
            assert_eq!(d.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
        }
    }
    let mut all: Vec<String> =
        end_to_end().into_iter().chain(per_layer()).map(|m| m.name).collect();
    let total = all.len();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), total, "a metric name is used once");
    assert!(end_to_end().iter().any(|m| m.name == "setup_s" && m.unit == "s"));
}

/// Runs `workload` at smoke size and returns its parsed result line.
fn smoke(workload: Workload, trace: bool) -> (Report, Json) {
    let sizing = Sizing::smoke();
    let scratch =
        scratch_dir(&format!("{}-{}", workload.name(), u8::from(trace))).expect("scratch");
    let tracer = Tracer::new(trace, SPAN_CAPACITY);
    let run =
        Run { sizing: &sizing, seed: 0x5EED, seconds: 0.001, tracer: &tracer, scratch: &scratch };
    let mut report = measure(workload, &run);
    let (spans, dropped) = tracer.finish();
    let _ = std::fs::remove_dir_all(&scratch);
    if trace {
        let check = trace::check(&spans, &report.concurrent_ops);
        assert!(check.ops > 0 && dropped == 0, "{workload:?}: {check:?}");
        assert_eq!(check.escaping_children, 0, "{workload:?}");
        assert!(check.self_time_error <= 0.02, "{workload:?}: {check:?}");
    } else {
        assert!(spans.is_empty());
    }
    assert_eq!(report.failures, Vec::<String>::new(), "{workload:?}");
    let table = if trace { per_layer() } else { end_to_end() };
    // Every metric is printed exactly once in the table...
    let printed = render_table(&report, &table);
    for m in &table {
        let rows = printed.lines().filter(|l| l.split(' ').next() == Some(m.name.as_str())).count();
        assert_eq!(rows, 1, "{workload:?} prints {} once", m.name);
    }
    // ...and exactly once, as a finite number, in the result line.
    let line = result_line(&report, &table);
    let json = Json::parse(&line).expect("the result line is JSON");
    let keys: Vec<&str> = json.as_obj().expect("object").iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(json.get("correct"), Some(&Json::Bool(true)), "{workload:?}");
    assert!(json.get("attempted").and_then(Json::as_u64).expect("attempted") >= 1);
    assert_eq!(json.get("failed").and_then(Json::as_u64), Some(0));
    let metrics = json.get("metrics").and_then(Json::as_obj).expect("metrics");
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, table.iter().map(|m| m.name.as_str()).collect::<Vec<_>>());
    for ((name, value), def) in metrics.iter().zip(&table) {
        let v = value.get("value").and_then(Json::as_f64).unwrap_or_else(|| panic!("{name} value"));
        assert!(v.is_finite(), "{name} = {v}");
        assert_eq!(field(value, "unit"), def.unit, "{name}");
        if !trace {
            assert!(v > 0.0, "{workload:?}: end-to-end metric {name} is never 0");
        }
    }
    report.notes.clear();
    (report, json)
}

fn value(json: &Json, name: &str) -> f64 {
    json.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{name}"))
}

#[test]
fn smoke_core_ooo() {
    let (untraced, _) = smoke(Workload::CoreOoo, false);
    let (traced, json) = smoke(Workload::CoreOoo, true);
    assert_eq!(untraced.stats_fnv, traced.stats_fnv, "simulated stats repeat exactly");
    assert_eq!(value(&json, "core.vr_episodes"), 0.0);
    assert!(value(&json, "core.kips.NAS-CG") > 0.0);
    assert!(value(&json, "isa.emulate_ns_per_inst") > 0.0);
    assert_eq!(value(&json, "chip.new_ms_p50"), 0.0, "not exercised here");
}

#[test]
fn smoke_core_vr() {
    smoke(Workload::CoreVr, false);
    let (_, json) = smoke(Workload::CoreVr, true);
    assert!(value(&json, "core.vr_ooo_kips_ratio_hmean") > 0.0);
    assert!(value(&json, "model.vr_speedup_hmean") > 0.0);
}

#[test]
fn smoke_chip_scale() {
    smoke(Workload::ChipScale, false);
    let (_, json) = smoke(Workload::ChipScale, true);
    for n in ["n2", "n4", "n8"] {
        assert!(value(&json, &format!("chip.agg_kips.{n}")) > 0.0);
    }
    assert!(value(&json, "chip.lockstep_cost_ratio.n4") > 0.0);
    assert!(value(&json, "mem.shared_access_ns_per_line") > 0.0);
}

#[test]
fn smoke_campaign_coldwarm() {
    smoke(Workload::CampaignColdwarm, false);
    let (_, json) = smoke(Workload::CampaignColdwarm, true);
    assert_eq!(value(&json, "campaign.computed"), 26.0);
    assert_eq!(value(&json, "campaign.hits"), 26.0);
    assert_eq!(value(&json, "campaign.failed"), 0.0);
    assert!(value(&json, "pool.dispatch_us_p50") > 0.0);
    assert!(value(&json, "campaign.engine_self_ms_per_point") > 0.0);
}

#[test]
fn arch_check_accepts_the_simulator_and_rejects_a_divergent_state() {
    let sizing = Sizing::smoke();
    let pair = inputs::generate(&sizing, 1, inputs::Programs::ChipPair);
    let off = Tracer::new(false, 0);
    for ra in [vr_core::RunaheadConfig::none(), vr_core::RunaheadConfig::vector()] {
        for w in &pair {
            let (sim, stats, _) = core_wl::sim_op(w, &ra, sizing.core_insts, &off).expect("runs");
            let committed = stats.instructions;
            assert_eq!(core_wl::check_arch_state(w, &sim, committed), Ok(()), "{}", w.name);
            // The emulator a hundred instructions earlier holds other registers.
            assert!(core_wl::check_arch_state(w, &sim, committed - 100).is_err(), "{}", w.name);
            // One stray byte, far from anything the program touches.
            let mut stray = (**w).clone();
            stray.memory.write(0x7000_0000_0000, 1, 0xAB);
            assert_eq!(
                core_wl::check_arch_state(&stray, &sim, committed),
                Err("memory digest differs from the emulator".to_owned()),
                "{}",
                w.name
            );
        }
    }
}

#[test]
fn a_failed_op_marks_the_run_incorrect() {
    let mut report = Report::new();
    report.attempt("a", Ok(()));
    report.fail("b", "boom");
    let json = Json::parse(&result_line(&report, &end_to_end())).expect("JSON");
    assert_eq!(json.get("correct"), Some(&Json::Bool(false)));
    assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(2));
    assert_eq!(json.get("failed").and_then(Json::as_u64), Some(1));
    assert_eq!(report.failures, ["b: boom"]);
}

#[test]
fn arguments_follow_the_drivers_contract() {
    let argv = |s: &str| s.split(' ').map(str::to_owned).collect::<Vec<_>>();
    let a = parse_args(&argv("--workload chip_scale --seed 7 --seconds 10 --trace 1")).expect("ok");
    assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::ChipScale, 7, 10.0, true));
    let a = parse_args(&argv("--workload core_vr")).expect("ok");
    assert_eq!((a.seed, a.trace, a.selfcheck), (0x5EED, false, false));
    assert_eq!(parse_args(&argv("--workload core_vr --seed 0x10")).expect("hex").seed, 16);
    for bad in [
        "--seed 1",
        "--workload nope",
        "--workload core_vr --trace 2",
        "--workload core_vr --seconds 0",
        "--workload core_vr --bogus",
    ] {
        assert!(parse_args(&argv(bad)).is_err(), "{bad}");
    }
}

#[test]
fn selfcheck_compares_two_runs_against_the_bounds() {
    let mut a = Report::new();
    let mut b = Report::new();
    for (r, kips) in [(&mut a, 1000.0), (&mut b, 700.0)] {
        r.put("sim_kips", kips, 3, None);
        r.put("setup_s", 2.0, 1, None);
    }
    let text = render_selfcheck(&a, &b);
    let row = |name: &str| text.lines().find(|l| l.starts_with(name)).expect(name).to_owned();
    assert!(row("sim_kips").ends_with("UNRESOLVED"), "30% worse against a 20% bound: {text}");
    assert!(row("setup_s").ends_with("PASS"));
}
