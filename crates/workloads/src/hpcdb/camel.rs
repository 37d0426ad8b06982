//! Camel: alternating memory-bound and compute-bound "humps" (our
//! interpretation of the kernel from the programmable-prefetcher /
//! runahead literature; see DESIGN.md). Each iteration performs one
//! indirect gather; every `HUMP`-th iteration additionally runs a
//! short ALU-only mixing loop, so memory phases alternate with compute
//! phases.

use vr_isa::{Asm, Reg};

use crate::hpcdb::{iter_count, table_len, xorshift_stream};
use crate::layout::Arena;
use crate::{Scale, Workload};

/// Iterations per compute hump.
pub const HUMP: u64 = 16;
/// ALU mixing rounds inside a hump.
pub const MIX_ROUNDS: i64 = 24;

/// Builds the camel kernel. The mixed accumulator lands in the result
/// cell.
pub fn camel(scale: Scale) -> Workload {
    let len = table_len(scale);
    let iters = iter_count(scale);

    let mut arena = Arena::new();
    let mut memory = vr_isa::Memory::new();
    let idx = arena.alloc_u64s(iters);
    let data = arena.alloc_u64s(len);
    let result = arena.alloc_u64s(1);
    memory.write_u64s(idx, xorshift_stream(0xCA, iters, len));
    memory.write_u64s(data, xorshift_stream(0xE1, len, u64::MAX));

    let mut a = Asm::new();
    let (idx_r, data_r, res) = (Reg::A0, Reg::A1, Reg::A6);
    let (i, iters_r, v, tmp, acc, humpmask, j, jend) =
        (Reg::S0, Reg::S1, Reg::T3, Reg::T4, Reg::S2, Reg::S3, Reg::S4, Reg::S5);

    a.li(i, 0);
    a.li(iters_r, iters as i64);
    a.li(acc, 0x1234_5678);
    a.li(humpmask, (HUMP - 1) as i64);
    a.li(jend, MIX_ROUNDS);
    let top = a.here();
    let done = a.label();
    a.bgeu(i, iters_r, done);
    // Memory hump: acc ^= data[idx[i]].
    a.slli(tmp, i, 3);
    a.add(tmp, tmp, idx_r);
    a.ld(v, tmp, 0); // idx[i]                 (striding load)
    a.slli(tmp, v, 3);
    a.add(tmp, tmp, data_r);
    a.ld(v, tmp, 0); // data[idx[i]]           (indirect load)
    a.xor(acc, acc, v);
    // Compute hump every HUMP iterations.
    let no_hump = a.label();
    a.and(tmp, i, humpmask);
    a.bne(tmp, Reg::ZERO, no_hump);
    a.li(j, 0);
    let mix = a.here();
    a.slli(tmp, acc, 13);
    a.xor(acc, acc, tmp);
    a.srli(tmp, acc, 7);
    a.xor(acc, acc, tmp);
    a.addi(j, j, 1);
    a.blt(j, jend, mix);
    a.bind(no_hump);
    a.addi(i, i, 1);
    a.j(top);
    a.bind(done);
    a.st(acc, res, 0);
    a.halt();

    Workload {
        name: "Camel".to_owned(),
        program: a.assemble(),
        memory,
        init_regs: vec![(idx_r, idx), (data_r, data), (res, result)],
    }
}

/// Pure-Rust reference: the final accumulator value.
pub fn camel_reference(scale: Scale) -> u64 {
    let len = table_len(scale);
    let iters = iter_count(scale);
    let data: Vec<u64> = xorshift_stream(0xE1, len, u64::MAX).collect();
    let mut acc = 0x1234_5678u64;
    for (i, ix) in xorshift_stream(0xCA, iters, len).enumerate() {
        acc ^= data[ix as usize];
        if (i as u64).is_multiple_of(HUMP) {
            for _ in 0..MIX_ROUNDS {
                acc ^= acc << 13;
                acc ^= acc >> 7;
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference() {
        let w = camel(Scale::Test);
        let (cpu, mem) = w.run_functional_with_memory(20_000_000).expect("halts");
        assert!(cpu.halted());
        let res = w.init_regs.iter().find(|(r, _)| *r == Reg::A6).unwrap().1;
        assert_eq!(mem.read_u64(res), camel_reference(Scale::Test));
    }

    #[test]
    fn compute_humps_dominate_dynamic_length() {
        // Each hump adds ~6·MIX_ROUNDS instructions per HUMP
        // iterations, roughly matching the memory phase.
        let len = camel(Scale::Test).dynamic_length(20_000_000).unwrap();
        let per_iter_mem = 11;
        let per_iter_mix = 6 * MIX_ROUNDS as u64 / HUMP + 3;
        let expect = 2000 * (per_iter_mem + per_iter_mix);
        assert!(
            (len as i64 - expect as i64).unsigned_abs() < expect / 3,
            "length {len} vs expected ≈{expect}"
        );
    }
}
