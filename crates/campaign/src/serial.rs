//! Exact JSON of a whole [`ChipRun`] for the on-disk result store.
//!
//! Every stats record — `SimStats` (with its nested `MemStats`) and
//! `ChipStats` — is written and read by its [`Counters`] impl, which
//! derives from the record's one `vr_obs::counters!` field list. Every
//! counter is a `u64`, and the `vr-obs` JSON type keeps `u64`s exact
//! through a serialize → parse round trip, so a stored record
//! reproduces the in-memory stats **bit-identically** — the property
//! the `--cache` byte-identical-output contract rests on. A record
//! missing a field is rejected as corrupt by the strict reader and
//! recomputed.

use vr_chip::{ChipRun, ChipStats};
use vr_core::SimStats;
use vr_obs::{Counters, Json, Reader};

/// Serializes a whole chip point's result — every core's stats in core
/// order, then the chip-level counters — as the payload of its one
/// store record.
pub(crate) fn chip_run_to_json(run: &ChipRun) -> Json {
    // Exhaustive: a new ChipRun field fails to compile here.
    let ChipRun { per_core, chip } = run;
    Json::Obj(vec![
        ("per_core".into(), Json::Arr(per_core.iter().map(SimStats::to_json).collect())),
        ("chip".into(), chip.to_json()),
    ])
}

/// Strict reader, the inverse of [`chip_run_to_json`]: reads the value
/// that comes next in `r`, members as [`Counters::read`] reads a
/// record's.
///
/// # Errors
///
/// Returns a message naming the first missing or mistyped field (the
/// store quarantines such records and recomputes the point).
pub(crate) fn read_chip_run(r: &mut Reader<'_>) -> Result<ChipRun, String> {
    let (mut per_core, mut chip) = (None, None);
    r.object(|name, r| {
        match name {
            "per_core" if per_core.is_none() => {
                let mut stats = Vec::new();
                r.array(|_, r| SimStats::read(r).map(|s| stats.push(s)))
                    .map_err(|e| format!("array `per_core`: {e}"))?;
                per_core = Some(stats);
            }
            "chip" if chip.is_none() => {
                chip = Some(ChipStats::read(r).map_err(|e| format!("field `chip`: {e}"))?);
            }
            _ => r.skip()?,
        }
        Ok(())
    })?;
    Ok(ChipRun {
        per_core: per_core.ok_or("missing array `per_core`")?,
        chip: chip.ok_or("missing field `chip`")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_mem::MemStats;

    /// [`read_chip_run`] over a tree.
    fn chip_run_from_json(j: &Json) -> Result<ChipRun, String> {
        let text = j.to_string();
        let mut r = Reader::new(&text);
        let run = read_chip_run(&mut r)?;
        r.finish()?;
        Ok(run)
    }

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
                pf_evicted_unused: [47, 48, 49, 50],
                pf_dropped_mshr: 39,
                pf_dropped_fault: 40,
                pf_delayed_fault: 41,
                spec_stores: 42,
                timeliness: [43, 44, 45, (1 << 53) + 1],
            },
            mshr_occupancy_integral: 46,
        }
    }

    fn fnv(text: &str) -> u64 {
        let mut h = vr_obs::Fnv64::new();
        h.write_bytes(text.as_bytes());
        h.finish()
    }

    /// The stored record's bytes, pinned: a change here changes what
    /// every existing store holds, so it must bump `CODE_SALT` (or a
    /// schema tag) in the same change.
    #[test]
    fn stored_record_bytes_are_pinned() {
        assert_eq!(fnv(&SimStats::to_json(&dense_stats()).to_pretty()), 0xe707_5b62_aba3_5488);
        let run = ChipRun {
            per_core: vec![dense_stats(), SimStats::default()],
            chip: ChipStats { cycles: u64::MAX, llc_hits: 7, ..ChipStats::default() },
        };
        assert_eq!(fnv(&chip_run_to_json(&run).to_pretty()), 0x4ffb_3a91_b915_6594);
    }

    #[test]
    fn round_trip_is_bit_exact_including_u64_extremes() {
        let s = dense_stats();
        for text in [SimStats::to_json(&s).to_string(), SimStats::to_json(&s).to_pretty()] {
            let parsed = Json::parse(&text).expect("self-emitted JSON parses");
            assert_eq!(SimStats::from_json(&parsed).expect("reads back"), s);
        }
        let d = SimStats::default();
        let round =
            SimStats::from_json(&Json::parse(&SimStats::to_json(&d).to_string()).unwrap()).unwrap();
        assert_eq!(round, d);
    }

    #[test]
    fn missing_and_mistyped_fields_are_rejected_with_the_field_name() {
        let j = SimStats::to_json(&dense_stats());
        // Remove one top-level field.
        let Json::Obj(members) = &j else { panic!() };
        let pruned = Json::Obj(members.iter().filter(|(k, _)| k != "branches").cloned().collect());
        let err = SimStats::from_json(&pruned).unwrap_err();
        assert!(err.contains("branches"), "{err}");
        // Mistype one nested field.
        let text = j.to_string().replace("\"spec_stores\":42", "\"spec_stores\":\"42\"");
        let err = SimStats::from_json(&Json::parse(&text).unwrap()).unwrap_err();
        assert!(err.contains("spec_stores"), "{err}");
        // Truncate a 4-array.
        let text = j.to_string().replace("[21,22,23,24]", "[21,22,23]");
        let err = SimStats::from_json(&Json::parse(&text).unwrap()).unwrap_err();
        assert!(err.contains("load_hits"), "{err}");
        // Not an object at all.
        assert!(SimStats::from_json(&Json::U64(1)).is_err());
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
        for text in [ChipStats::to_json(&s).to_string(), ChipStats::to_json(&s).to_pretty()] {
            let parsed = Json::parse(&text).expect("self-emitted JSON parses");
            assert_eq!(ChipStats::from_json(&parsed).expect("reads back"), s);
        }
        let j = ChipStats::to_json(&s);
        let Json::Obj(members) = &j else { panic!() };
        let pruned =
            Json::Obj(members.iter().filter(|(k, _)| k != "bank_conflicts").cloned().collect());
        let err = ChipStats::from_json(&pruned).unwrap_err();
        assert!(err.contains("bank_conflicts"), "{err}");
        assert!(ChipStats::from_json(&Json::U64(1)).is_err());
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
