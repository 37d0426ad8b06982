//! Hash join probe (HJ2 / HJ8): a chain of 2 or 8 dependent
//! hash-and-lookup levels per probe key — the paper's Figure 1 pattern
//! `C[hash(B[hash(A[i])])]…` at the stated depths.

use vr_isa::{Asm, Reg};

use crate::hpcdb::{iter_count, table_len, xorshift_stream};
use crate::layout::Arena;
use crate::{Scale, Workload};

/// The in-ISA hash: three xorshift steps then mask (matches the
/// assembly emitted by [`hashjoin`]).
pub(crate) fn hash(mut x: u64, mask: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x & mask
}

/// Builds a hash-join probe of `depth` dependent hash levels
/// (`depth` = 2 ⇒ HJ2, 8 ⇒ HJ8). The accumulated sum of final-level
/// values lands in the result cell.
///
/// # Panics
///
/// Panics if `depth == 0`.
pub fn hashjoin(scale: Scale, depth: u32) -> Workload {
    assert!(depth > 0, "a hash join needs at least one level");
    let len = table_len(scale);
    let mask = len - 1;
    let iters = iter_count(scale);

    let mut arena = Arena::new();
    let mut memory = vr_isa::Memory::new();
    let keys = arena.alloc_u64s(iters);
    let table = arena.alloc_u64s(len);
    let result = arena.alloc_u64s(1);
    memory.write_u64s(keys, xorshift_stream(0x4A11, iters, u64::MAX));
    memory.write_u64s(table, xorshift_stream(0x7AB1 ^ u64::from(depth), len, u64::MAX));

    let mut a = Asm::new();
    let (keys_r, table_r, res) = (Reg::A0, Reg::A1, Reg::A6);
    let (i, iters_r, k, tmp, acc, maskr) = (Reg::S0, Reg::S1, Reg::T3, Reg::T4, Reg::S2, Reg::S3);

    a.li(i, 0);
    a.li(iters_r, iters as i64);
    a.li(acc, 0);
    a.li(maskr, mask as i64);
    let top = a.here();
    let done = a.label();
    a.bgeu(i, iters_r, done);
    a.slli(tmp, i, 3);
    a.add(tmp, tmp, keys_r);
    a.ld(k, tmp, 0); // k = keys[i]            (striding load)
    for _ in 0..depth {
        // k = hash(k) & mask — xorshift in three steps.
        a.slli(tmp, k, 13);
        a.xor(k, k, tmp);
        a.srli(tmp, k, 7);
        a.xor(k, k, tmp);
        a.slli(tmp, k, 17);
        a.xor(k, k, tmp);
        a.and(k, k, maskr);
        a.slli(tmp, k, 3);
        a.add(tmp, tmp, table_r);
        a.ld(k, tmp, 0); // k = T[k]            (dependent indirect)
    }
    a.add(acc, acc, k);
    a.addi(i, i, 1);
    a.j(top);
    a.bind(done);
    a.st(acc, res, 0);
    a.halt();

    Workload {
        name: format!("HJ{depth}"),
        program: a.assemble(),
        memory,
        init_regs: vec![(keys_r, keys), (table_r, table), (res, result)],
    }
}

/// Pure-Rust reference: the accumulated sum the kernel stores.
pub fn hashjoin_reference(scale: Scale, depth: u32) -> u64 {
    let len = table_len(scale);
    let mask = len - 1;
    let iters = iter_count(scale);
    let table: Vec<u64> = xorshift_stream(0x7AB1 ^ u64::from(depth), len, u64::MAX).collect();
    let mut acc = 0u64;
    for mut k in xorshift_stream(0x4A11, iters, u64::MAX) {
        for _ in 0..depth {
            k = table[hash(k, mask) as usize];
        }
        acc = acc.wrapping_add(k);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(depth: u32) {
        let w = hashjoin(Scale::Test, depth);
        let (cpu, mem) = w.run_functional_with_memory(50_000_000).expect("halts");
        assert!(cpu.halted());
        let res = w.init_regs.iter().find(|(r, _)| *r == Reg::A6).unwrap().1;
        assert_eq!(mem.read_u64(res), hashjoin_reference(Scale::Test, depth));
    }

    #[test]
    fn hj2_matches_reference() {
        check(2);
    }

    #[test]
    fn hj8_matches_reference() {
        check(8);
    }

    #[test]
    fn names_follow_the_paper() {
        assert_eq!(hashjoin(Scale::Test, 2).name, "HJ2");
        assert_eq!(hashjoin(Scale::Test, 8).name, "HJ8");
    }

    #[test]
    fn deeper_chains_run_longer() {
        let l2 = hashjoin(Scale::Test, 2).dynamic_length(50_000_000).unwrap();
        let l8 = hashjoin(Scale::Test, 8).dynamic_length(50_000_000).unwrap();
        assert!(l8 > l2 * 2, "HJ8 must execute far more instructions: {l8} vs {l2}");
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn zero_depth_panics() {
        let _ = hashjoin(Scale::Test, 0);
    }
}
