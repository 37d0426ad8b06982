//! Pure invariant predicates for the per-cycle checker.
//!
//! The `checked` cargo feature makes [`crate::Simulator`] run a
//! battery of structural assertions every cycle; a violation surfaces
//! as [`crate::SimError::Invariant`] from `try_run` instead of letting
//! a scheduling bug silently corrupt results thousands of cycles
//! later. The predicates here are pure functions over the scheduler's
//! occupancy numbers so they can be unit-tested without a simulator;
//! the glue that extracts those numbers from the (private) pipeline
//! structures lives in `sim.rs`.

// Without the feature the checker body compiles away, leaving these
// helpers referenced only by their unit tests.
#![cfg_attr(not(feature = "checked"), allow(dead_code))]

/// A structure's occupancy must not exceed its capacity.
/// Returns a description of the violation, if any.
pub(crate) fn check_occupancy(name: &str, used: usize, cap: usize) -> Result<(), String> {
    if used > cap {
        return Err(format!("{name} over capacity: {used} > {cap}"));
    }
    Ok(())
}

/// Sequence numbers in the reorder buffer must be strictly increasing
/// from head to tail (program order is the whole point of a ROB).
pub(crate) fn check_rob_order(seqs: impl IntoIterator<Item = u64>) -> Result<(), String> {
    let mut prev: Option<u64> = None;
    for s in seqs {
        if let Some(p) = prev {
            if s <= p {
                return Err(format!("rob out of program order: seq {s} follows seq {p}"));
            }
        }
        prev = Some(s);
    }
    Ok(())
}

/// A derived occupancy recount must agree with the maintained counter
/// (catches counter drift from a missed decrement).
pub(crate) fn check_recount(name: &str, counter: usize, recount: usize) -> Result<(), String> {
    if counter != recount {
        return Err(format!("{name} counter drift: maintained {counter}, recounted {recount}"));
    }
    Ok(())
}

/// Free-register accounting: free lists can never exceed the pool.
pub(crate) fn check_free_regs(name: &str, free: usize, pool: usize) -> Result<(), String> {
    if free > pool {
        return Err(format!("{name} free list larger than pool: {free} > {pool}"));
    }
    Ok(())
}

/// Vector-lane mask accounting (DESIGN.md §14): every lane-state mask
/// is confined to the `k` spawned lanes, no lane is both `active` and
/// `done`, and a poisoned lane can never be active again.
pub(crate) fn check_lane_masks(
    k: usize,
    active: &[u64],
    done: &[u64],
    poisoned: &[u64],
    at_gather: &[u64],
) -> Result<(), String> {
    let confined = |name: &str, m: &[u64]| -> Result<(), String> {
        let mut bits = 0usize;
        for (w, &word) in m.iter().enumerate() {
            if word != 0 {
                bits = bits.max(w * 64 + 64 - word.leading_zeros() as usize);
            }
        }
        if bits > k {
            return Err(format!("{name} mask names lane {} but only {k} lanes spawned", bits - 1));
        }
        Ok(())
    };
    confined("active", active)?;
    confined("done", done)?;
    confined("poisoned", poisoned)?;
    confined("at_gather", at_gather)?;
    for (name_a, a, name_b, b) in
        [("active", active, "done", done), ("active", active, "poisoned", poisoned)]
    {
        if a.iter().zip(b.iter()).any(|(&x, &y)| x & y != 0) {
            return Err(format!("lane in both {name_a} and {name_b} masks"));
        }
    }
    Ok(())
}

/// Runahead containment: no speculative requestor may ever have
/// written the memory hierarchy.
pub(crate) fn check_no_spec_stores(spec_stores: u64) -> Result<(), String> {
    if spec_stores != 0 {
        return Err(format!(
            "{spec_stores} speculative store(s) reached the memory hierarchy; \
             runahead must be architecturally invisible"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_bounds() {
        assert!(check_occupancy("iq", 128, 128).is_ok());
        assert!(check_occupancy("iq", 0, 128).is_ok());
        let e = check_occupancy("iq", 129, 128).unwrap_err();
        assert!(e.contains("iq over capacity"));
    }

    #[test]
    fn rob_order() {
        assert!(check_rob_order([1, 2, 5, 9]).is_ok());
        assert!(check_rob_order([]).is_ok());
        assert!(check_rob_order([7]).is_ok());
        assert!(check_rob_order([1, 3, 3]).unwrap_err().contains("out of program order"));
        assert!(check_rob_order([5, 4]).is_err());
    }

    #[test]
    fn recount_drift() {
        assert!(check_recount("lq", 4, 4).is_ok());
        assert!(check_recount("lq", 4, 3).unwrap_err().contains("counter drift"));
    }

    #[test]
    fn free_regs() {
        assert!(check_free_regs("int", 256, 256).is_ok());
        assert!(check_free_regs("int", 257, 256).is_err());
    }

    #[test]
    fn lane_mask_accounting() {
        let empty = [0u64; 4];
        // Disjoint, confined: ok.
        let active = [0b0011u64, 0, 0, 0];
        let done = [0b1000u64, 0, 0, 0];
        assert!(check_lane_masks(4, &active, &done, &empty, &active).is_ok());
        // Lane beyond k.
        let wide = [0, 0, 0, 1u64 << 63];
        assert!(check_lane_masks(4, &wide, &empty, &empty, &empty)
            .unwrap_err()
            .contains("lane 255"));
        // Overlap between active and done.
        assert!(check_lane_masks(4, &active, &active, &empty, &empty)
            .unwrap_err()
            .contains("both active and done"));
        // Poisoned lane resurrected as active.
        assert!(check_lane_masks(4, &active, &empty, &active, &empty)
            .unwrap_err()
            .contains("poisoned"));
    }

    #[test]
    fn spec_store_containment() {
        assert!(check_no_spec_stores(0).is_ok());
        assert!(check_no_spec_stores(1).unwrap_err().contains("architecturally invisible"));
    }
}
