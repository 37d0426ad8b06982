//! Exact JSON serialization of [`SimStats`] / [`MemStats`] and of a
//! whole [`ChipRun`] for the on-disk result store.
//!
//! Every counter is a `u64`, and the `vr-obs` JSON type keeps `u64`s
//! exact through a serialize → parse round trip, so a stored record
//! reproduces the in-memory stats **bit-identically** — the property
//! the `--cache` byte-identical-output contract rests on.
//!
//! Both directions are written with *exhaustive destructuring* (the
//! same idiom as `SimStats::delta`): adding a counter to either struct
//! without deciding how it persists is a compile error, never a field
//! that silently reads back as zero from old records. (Old records
//! missing the new field are rejected as corrupt by the strict reader
//! and recomputed — correct, if pessimistic; bumping
//! [`crate::CODE_SALT`] achieves the same end more explicitly.)

use vr_chip::{ChipRun, ChipStats};
use vr_core::SimStats;
use vr_mem::MemStats;
use vr_obs::Json;

fn arr4(a: [u64; 4]) -> Json {
    Json::Arr(a.iter().map(|&v| Json::U64(v)).collect())
}

fn get_u64(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key).and_then(Json::as_u64).ok_or_else(|| format!("missing/non-u64 field `{key}`"))
}

fn get_arr4(j: &Json, key: &str) -> Result<[u64; 4], String> {
    let arr = j.get(key).and_then(Json::as_arr).ok_or_else(|| format!("missing array `{key}`"))?;
    if arr.len() != 4 {
        return Err(format!("array `{key}` has {} elements, want 4", arr.len()));
    }
    let mut out = [0u64; 4];
    for (o, v) in out.iter_mut().zip(arr) {
        *o = v.as_u64().ok_or_else(|| format!("non-u64 element in `{key}`"))?;
    }
    Ok(out)
}

/// Serializes the full stats record (including the nested
/// [`MemStats`]) as an insertion-ordered JSON object.
pub fn stats_to_json(s: &SimStats) -> Json {
    // Exhaustive: a new SimStats field fails to compile here.
    let SimStats {
        cycles,
        instructions,
        full_rob_stall_cycles,
        commit_stall_cycles,
        branches,
        mispredicts,
        runahead_entries,
        runahead_cycles,
        runahead_insts,
        delayed_termination_stall_cycles,
        vr_batches,
        vr_batches_aborted,
        vr_lanes_spawned,
        vr_lanes_invalidated,
        vr_no_stride_intervals,
        faults_injected,
        runahead_aborts,
        mem,
        mshr_occupancy_integral,
    } = *s;
    let MemStats {
        demand_loads,
        demand_stores,
        load_hits,
        load_merges,
        dram_reads,
        dram_writebacks,
        pf_issued,
        pf_used,
        pf_dropped_mshr,
        pf_dropped_fault,
        pf_delayed_fault,
        spec_stores,
        timeliness,
    } = mem;
    let mem_obj = Json::Obj(vec![
        ("demand_loads".into(), Json::U64(demand_loads)),
        ("demand_stores".into(), Json::U64(demand_stores)),
        ("load_hits".into(), arr4(load_hits)),
        ("load_merges".into(), Json::U64(load_merges)),
        ("dram_reads".into(), arr4(dram_reads)),
        ("dram_writebacks".into(), Json::U64(dram_writebacks)),
        ("pf_issued".into(), arr4(pf_issued)),
        ("pf_used".into(), arr4(pf_used)),
        ("pf_dropped_mshr".into(), Json::U64(pf_dropped_mshr)),
        ("pf_dropped_fault".into(), Json::U64(pf_dropped_fault)),
        ("pf_delayed_fault".into(), Json::U64(pf_delayed_fault)),
        ("spec_stores".into(), Json::U64(spec_stores)),
        ("timeliness".into(), arr4(timeliness)),
    ]);
    Json::Obj(vec![
        ("cycles".into(), Json::U64(cycles)),
        ("instructions".into(), Json::U64(instructions)),
        ("full_rob_stall_cycles".into(), Json::U64(full_rob_stall_cycles)),
        ("commit_stall_cycles".into(), Json::U64(commit_stall_cycles)),
        ("branches".into(), Json::U64(branches)),
        ("mispredicts".into(), Json::U64(mispredicts)),
        ("runahead_entries".into(), Json::U64(runahead_entries)),
        ("runahead_cycles".into(), Json::U64(runahead_cycles)),
        ("runahead_insts".into(), Json::U64(runahead_insts)),
        ("delayed_termination_stall_cycles".into(), Json::U64(delayed_termination_stall_cycles)),
        ("vr_batches".into(), Json::U64(vr_batches)),
        ("vr_batches_aborted".into(), Json::U64(vr_batches_aborted)),
        ("vr_lanes_spawned".into(), Json::U64(vr_lanes_spawned)),
        ("vr_lanes_invalidated".into(), Json::U64(vr_lanes_invalidated)),
        ("vr_no_stride_intervals".into(), Json::U64(vr_no_stride_intervals)),
        ("faults_injected".into(), Json::U64(faults_injected)),
        ("runahead_aborts".into(), Json::U64(runahead_aborts)),
        ("mem".into(), mem_obj),
        ("mshr_occupancy_integral".into(), Json::U64(mshr_occupancy_integral)),
    ])
}

/// Strict inverse of [`stats_to_json`]: every field must be present
/// and `u64`-typed.
///
/// # Errors
///
/// Returns a message naming the first missing or mistyped field — the
/// store treats any error here as record corruption (quarantine, then
/// recompute).
pub fn stats_from_json(j: &Json) -> Result<SimStats, String> {
    let mem_j = j.get("mem").ok_or("missing object `mem`")?;
    let mem = MemStats {
        demand_loads: get_u64(mem_j, "demand_loads")?,
        demand_stores: get_u64(mem_j, "demand_stores")?,
        load_hits: get_arr4(mem_j, "load_hits")?,
        load_merges: get_u64(mem_j, "load_merges")?,
        dram_reads: get_arr4(mem_j, "dram_reads")?,
        dram_writebacks: get_u64(mem_j, "dram_writebacks")?,
        pf_issued: get_arr4(mem_j, "pf_issued")?,
        pf_used: get_arr4(mem_j, "pf_used")?,
        pf_dropped_mshr: get_u64(mem_j, "pf_dropped_mshr")?,
        pf_dropped_fault: get_u64(mem_j, "pf_dropped_fault")?,
        pf_delayed_fault: get_u64(mem_j, "pf_delayed_fault")?,
        spec_stores: get_u64(mem_j, "spec_stores")?,
        timeliness: get_arr4(mem_j, "timeliness")?,
    };
    // Exhaustive struct literal: a new SimStats field fails to compile
    // here until a reader is written for it.
    Ok(SimStats {
        cycles: get_u64(j, "cycles")?,
        instructions: get_u64(j, "instructions")?,
        full_rob_stall_cycles: get_u64(j, "full_rob_stall_cycles")?,
        commit_stall_cycles: get_u64(j, "commit_stall_cycles")?,
        branches: get_u64(j, "branches")?,
        mispredicts: get_u64(j, "mispredicts")?,
        runahead_entries: get_u64(j, "runahead_entries")?,
        runahead_cycles: get_u64(j, "runahead_cycles")?,
        runahead_insts: get_u64(j, "runahead_insts")?,
        delayed_termination_stall_cycles: get_u64(j, "delayed_termination_stall_cycles")?,
        vr_batches: get_u64(j, "vr_batches")?,
        vr_batches_aborted: get_u64(j, "vr_batches_aborted")?,
        vr_lanes_spawned: get_u64(j, "vr_lanes_spawned")?,
        vr_lanes_invalidated: get_u64(j, "vr_lanes_invalidated")?,
        vr_no_stride_intervals: get_u64(j, "vr_no_stride_intervals")?,
        faults_injected: get_u64(j, "faults_injected")?,
        runahead_aborts: get_u64(j, "runahead_aborts")?,
        mem,
        mshr_occupancy_integral: get_u64(j, "mshr_occupancy_integral")?,
    })
}

/// Serializes a whole chip point's result — every core's stats in core
/// order, then the chip-level counters — as the payload of its one
/// store record.
pub fn chip_run_to_json(run: &ChipRun) -> Json {
    // Exhaustive: a new ChipRun field fails to compile here.
    let ChipRun { per_core, chip } = run;
    Json::Obj(vec![
        ("per_core".into(), Json::Arr(per_core.iter().map(stats_to_json).collect())),
        ("chip".into(), chip_stats_to_json(chip)),
    ])
}

/// Strict inverse of [`chip_run_to_json`].
///
/// # Errors
///
/// Returns a message naming the first missing or mistyped field (the
/// store quarantines such records and recomputes the point).
pub fn chip_run_from_json(j: &Json) -> Result<ChipRun, String> {
    let per_core = j.get("per_core").and_then(Json::as_arr).ok_or("missing array `per_core`")?;
    Ok(ChipRun {
        per_core: per_core.iter().map(stats_from_json).collect::<Result<_, _>>()?,
        chip: chip_stats_from_json(j.get("chip").ok_or("missing object `chip`")?)?,
    })
}

/// Serializes the chip-level contention counters of one multi-core
/// point with the same exhaustive destructuring discipline as
/// [`stats_to_json`].
fn chip_stats_to_json(s: &ChipStats) -> Json {
    // Exhaustive: a new ChipStats field fails to compile here.
    let ChipStats {
        cycles,
        bank_conflicts,
        arbitration_stall_cycles,
        shared_mshr_rejections,
        llc_hits,
        llc_misses,
        dram_writebacks,
    } = *s;
    Json::Obj(vec![
        ("cycles".into(), Json::U64(cycles)),
        ("bank_conflicts".into(), Json::U64(bank_conflicts)),
        ("arbitration_stall_cycles".into(), Json::U64(arbitration_stall_cycles)),
        ("shared_mshr_rejections".into(), Json::U64(shared_mshr_rejections)),
        ("llc_hits".into(), Json::U64(llc_hits)),
        ("llc_misses".into(), Json::U64(llc_misses)),
        ("dram_writebacks".into(), Json::U64(dram_writebacks)),
    ])
}

/// Strict inverse of [`chip_stats_to_json`].
fn chip_stats_from_json(j: &Json) -> Result<ChipStats, String> {
    // Exhaustive struct literal, like `stats_from_json`.
    Ok(ChipStats {
        cycles: get_u64(j, "cycles")?,
        bank_conflicts: get_u64(j, "bank_conflicts")?,
        arbitration_stall_cycles: get_u64(j, "arbitration_stall_cycles")?,
        shared_mshr_rejections: get_u64(j, "shared_mshr_rejections")?,
        llc_hits: get_u64(j, "llc_hits")?,
        llc_misses: get_u64(j, "llc_misses")?,
        dram_writebacks: get_u64(j, "dram_writebacks")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_stats() -> SimStats {
        // Every field non-zero and distinct, extremes included, so a
        // swapped or dropped field cannot cancel out.
        SimStats {
            cycles: u64::MAX,
            instructions: 2,
            full_rob_stall_cycles: 3,
            commit_stall_cycles: 4,
            branches: 5,
            mispredicts: 6,
            runahead_entries: 7,
            runahead_cycles: 8,
            runahead_insts: 9,
            delayed_termination_stall_cycles: 10,
            vr_batches: 11,
            vr_batches_aborted: 12,
            vr_lanes_spawned: 13,
            vr_lanes_invalidated: 14,
            vr_no_stride_intervals: 16,
            faults_injected: 17,
            runahead_aborts: 18,
            mem: MemStats {
                demand_loads: 19,
                demand_stores: 20,
                load_hits: [21, 22, 23, 24],
                load_merges: 25,
                dram_reads: [26, 27, 28, 29],
                dram_writebacks: 30,
                pf_issued: [31, 32, 33, 34],
                pf_used: [35, 36, 37, 38],
                pf_dropped_mshr: 39,
                pf_dropped_fault: 40,
                pf_delayed_fault: 41,
                spec_stores: 42,
                timeliness: [43, 44, 45, (1 << 53) + 1],
            },
            mshr_occupancy_integral: 46,
        }
    }

    #[test]
    fn round_trip_is_bit_exact_including_u64_extremes() {
        let s = dense_stats();
        for text in [stats_to_json(&s).to_string(), stats_to_json(&s).to_pretty()] {
            let parsed = Json::parse(&text).expect("self-emitted JSON parses");
            assert_eq!(stats_from_json(&parsed).expect("reads back"), s);
        }
        let d = SimStats::default();
        let round = stats_from_json(&Json::parse(&stats_to_json(&d).to_string()).unwrap()).unwrap();
        assert_eq!(round, d);
    }

    #[test]
    fn missing_and_mistyped_fields_are_rejected_with_the_field_name() {
        let j = stats_to_json(&dense_stats());
        // Remove one top-level field.
        let Json::Obj(members) = &j else { panic!() };
        let pruned = Json::Obj(members.iter().filter(|(k, _)| k != "branches").cloned().collect());
        let err = stats_from_json(&pruned).unwrap_err();
        assert!(err.contains("branches"), "{err}");
        // Mistype one nested field.
        let text = j.to_string().replace("\"spec_stores\":42", "\"spec_stores\":\"42\"");
        let err = stats_from_json(&Json::parse(&text).unwrap()).unwrap_err();
        assert!(err.contains("spec_stores"), "{err}");
        // Truncate a 4-array.
        let text = j.to_string().replace("[21,22,23,24]", "[21,22,23]");
        let err = stats_from_json(&Json::parse(&text).unwrap()).unwrap_err();
        assert!(err.contains("load_hits"), "{err}");
        // Not an object at all.
        assert!(stats_from_json(&Json::U64(1)).is_err());
    }

    #[test]
    fn chip_stats_round_trip_is_bit_exact_and_strict() {
        let s = ChipStats {
            cycles: u64::MAX,
            bank_conflicts: 2,
            arbitration_stall_cycles: 3,
            shared_mshr_rejections: 4,
            llc_hits: 5,
            llc_misses: 6,
            dram_writebacks: (1 << 53) + 1,
        };
        for text in [chip_stats_to_json(&s).to_string(), chip_stats_to_json(&s).to_pretty()] {
            let parsed = Json::parse(&text).expect("self-emitted JSON parses");
            assert_eq!(chip_stats_from_json(&parsed).expect("reads back"), s);
        }
        let j = chip_stats_to_json(&s);
        let Json::Obj(members) = &j else { panic!() };
        let pruned =
            Json::Obj(members.iter().filter(|(k, _)| k != "bank_conflicts").cloned().collect());
        let err = chip_stats_from_json(&pruned).unwrap_err();
        assert!(err.contains("bank_conflicts"), "{err}");
        assert!(chip_stats_from_json(&Json::U64(1)).is_err());
    }

    #[test]
    fn chip_run_round_trip_is_bit_exact_and_strict() {
        let run = ChipRun {
            per_core: vec![dense_stats(), SimStats::default()],
            chip: ChipStats { cycles: u64::MAX, llc_hits: 7, ..ChipStats::default() },
        };
        for text in [chip_run_to_json(&run).to_string(), chip_run_to_json(&run).to_pretty()] {
            let parsed = Json::parse(&text).expect("self-emitted JSON parses");
            assert_eq!(chip_run_from_json(&parsed).expect("reads back"), run);
        }
        // A strict reader all the way down: one core's missing counter
        // rejects the whole run.
        let text = chip_run_to_json(&run).to_string().replacen("\"spec_stores\"", "\"x\"", 1);
        let err = chip_run_from_json(&Json::parse(&text).unwrap()).unwrap_err();
        assert!(err.contains("spec_stores"), "{err}");
        let j = chip_run_to_json(&run);
        let Json::Obj(members) = &j else { panic!() };
        let pruned = Json::Obj(members.iter().filter(|(k, _)| k != "chip").cloned().collect());
        assert!(chip_run_from_json(&pruned).unwrap_err().contains("chip"));
    }
}
