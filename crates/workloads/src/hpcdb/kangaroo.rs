//! Kangaroo: three dependent array "hops" per iteration
//! (`C[B[mix(A[i])]]`) with a short mixing computation between hops —
//! pointer-hop indirection (our interpretation of the kernel used
//! across the prefetching literature; see DESIGN.md). The mix keeps
//! the kernel's LLC MPKI in the paper's 19–61 range: our hand-written
//! RISC loops are 3–4× denser than the compiled x86 the paper
//! measures, so without it the kernel saturates DRAM bandwidth and no
//! prefetching technique can help (documented calibration).

use vr_isa::{Asm, Reg};

use crate::hpcdb::{iter_count, table_len, xorshift_stream};
use crate::layout::Arena;
use crate::{Scale, Workload};

/// Builds the kangaroo kernel. The sum of final-hop values lands in
/// the result cell.
pub fn kangaroo(scale: Scale) -> Workload {
    let len = table_len(scale);
    let iters = iter_count(scale);

    let mut arena = Arena::new();
    let mut memory = vr_isa::Memory::new();
    let a_arr = arena.alloc_u64s(iters);
    let b_arr = arena.alloc_u64s(len);
    let c_arr = arena.alloc_u64s(len);
    let result = arena.alloc_u64s(1);
    memory.write_u64s(a_arr, xorshift_stream(0xA0, iters, len));
    memory.write_u64s(b_arr, xorshift_stream(0xB0, len, len));
    memory.write_u64s(c_arr, xorshift_stream(0xC0, len, u64::MAX));

    let mut asm = Asm::new();
    let (ar, br, cr, res) = (Reg::A0, Reg::A1, Reg::A2, Reg::A6);
    let (i, iters_r, v, tmp, acc) = (Reg::S0, Reg::S1, Reg::T3, Reg::T4, Reg::S2);

    asm.li(i, 0);
    asm.li(iters_r, iters as i64);
    asm.li(acc, 0);
    let top = asm.here();
    let done = asm.label();
    asm.bgeu(i, iters_r, done);
    asm.slli(tmp, i, 3);
    asm.add(tmp, tmp, ar);
    asm.ld(v, tmp, 0); // v = A[i]              (striding load)
                       // mix: v = ((v ^ (v>>9)) * 5) % len — keeps MPKI paper-like while
                       // staying a pure function of the chain value (vectorizable).
    asm.srli(tmp, v, 9);
    asm.xor(v, v, tmp);
    asm.slli(tmp, v, 2);
    asm.add(v, v, tmp);
    asm.andi(v, v, (len - 1) as i64);
    asm.slli(tmp, v, 3);
    asm.add(tmp, tmp, br);
    asm.ld(v, tmp, 0); // v = B[mix(v)]         (hop 1)
    asm.srli(tmp, v, 9);
    asm.xor(v, v, tmp);
    asm.slli(tmp, v, 2);
    asm.add(v, v, tmp);
    asm.andi(v, v, (len - 1) as i64);
    asm.slli(tmp, v, 3);
    asm.add(tmp, tmp, cr);
    asm.ld(v, tmp, 0); // v = C[mix(v)]         (hop 2)
    asm.add(acc, acc, v);
    asm.addi(i, i, 1);
    asm.j(top);
    asm.bind(done);
    asm.st(acc, res, 0);
    asm.halt();

    Workload {
        name: "Kangaroo".to_owned(),
        program: asm.assemble(),
        memory,
        init_regs: vec![(ar, a_arr), (br, b_arr), (cr, c_arr), (res, result)],
    }
}

/// Pure-Rust reference: the accumulated sum.
pub fn kangaroo_reference(scale: Scale) -> u64 {
    let len = table_len(scale);
    let iters = iter_count(scale);
    let b: Vec<u64> = xorshift_stream(0xB0, len, len).collect();
    let c: Vec<u64> = xorshift_stream(0xC0, len, u64::MAX).collect();
    let mix = |v: u64| {
        let v = v ^ (v >> 9);
        v.wrapping_mul(5) & (len - 1)
    };
    xorshift_stream(0xA0, iters, len).fold(0u64, |acc, v| {
        let v1 = b[mix(v) as usize];
        acc.wrapping_add(c[mix(v1) as usize])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference() {
        let w = kangaroo(Scale::Test);
        let (cpu, mem) = w.run_functional_with_memory(20_000_000).expect("halts");
        assert!(cpu.halted());
        let res = w.init_regs.iter().find(|(r, _)| *r == Reg::A6).unwrap().1;
        assert_eq!(mem.read_u64(res), kangaroo_reference(Scale::Test));
    }

    #[test]
    fn dynamic_length_scales_with_iterations() {
        let len = kangaroo(Scale::Test).dynamic_length(20_000_000).unwrap();
        // ~24 instructions per iteration plus prologue/epilogue.
        assert!((20 * 2000..30 * 2000).contains(&len), "length {len}");
    }
}
