//! RandomAccess (HPCC GUPS): `T[R[i] & mask] ^= R[i]` over a
//! precomputed LCG stream — a striding index load feeding an indirect
//! read-modify-write, the form used throughout the runahead
//! literature.

use vr_isa::{Asm, Reg};

use crate::hpcdb::{iter_count, table_len, xorshift_stream};
use crate::layout::Arena;
use crate::{Scale, Workload};

/// Builds the GUPS kernel.
pub fn randomaccess(scale: Scale) -> Workload {
    let len = table_len(scale);
    let mask = len - 1;
    let iters = iter_count(scale);

    let mut arena = Arena::new();
    let mut memory = vr_isa::Memory::new();
    let rand_arr = arena.alloc_u64s(iters);
    let table = arena.alloc_u64s(len);
    memory.write_u64s(rand_arr, xorshift_stream(0x6055, iters, u64::MAX));

    let mut a = Asm::new();
    let (rnd, tbl) = (Reg::A0, Reg::A1);
    let (i, iters_r, r, tmp, v, maskr) = (Reg::S0, Reg::S1, Reg::T3, Reg::T4, Reg::T5, Reg::S2);

    a.li(i, 0);
    a.li(iters_r, iters as i64);
    a.li(maskr, mask as i64);
    let top = a.here();
    let done = a.label();
    a.bgeu(i, iters_r, done);
    a.slli(tmp, i, 3);
    a.add(tmp, tmp, rnd);
    a.ld(r, tmp, 0); // r = R[i]               (striding load)
    a.addi(i, i, 1);
    a.and(tmp, r, maskr);
    a.slli(tmp, tmp, 3);
    a.add(tmp, tmp, tbl);
    a.ld(v, tmp, 0); // T[r & mask]            (indirect load)
    a.xor(v, v, r);
    a.st(v, tmp, 0); // T[r & mask] ^= r       (indirect store)
    a.j(top);
    a.bind(done);
    a.halt();

    Workload {
        name: "RandomAccess".to_owned(),
        program: a.assemble(),
        memory,
        init_regs: vec![(rnd, rand_arr), (tbl, table)],
    }
}

/// Pure-Rust reference: the table after all updates.
pub fn randomaccess_reference(scale: Scale) -> Vec<u64> {
    let len = table_len(scale);
    let mask = len - 1;
    let iters = iter_count(scale);
    let mut table = vec![0u64; len as usize];
    for r in xorshift_stream(0x6055, iters, u64::MAX) {
        table[(r & mask) as usize] ^= r;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference() {
        let w = randomaccess(Scale::Test);
        let (cpu, mem) = w.run_functional_with_memory(20_000_000).expect("halts");
        assert!(cpu.halted());
        let t_base = w.init_regs.iter().find(|(r, _)| *r == Reg::A1).unwrap().1;
        for (i, &exp) in randomaccess_reference(Scale::Test).iter().enumerate() {
            assert_eq!(mem.read_u64(t_base + 8 * i as u64), exp, "T[{i}]");
        }
    }

    #[test]
    fn updates_touch_many_distinct_lines() {
        let table = randomaccess_reference(Scale::Test);
        let touched = table.iter().filter(|&&v| v != 0).count();
        assert!(touched > table.len() / 2, "GUPS must scatter widely: {touched}");
    }
}
