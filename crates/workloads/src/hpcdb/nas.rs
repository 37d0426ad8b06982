//! NAS-CG and NAS-IS kernels.
//!
//! * NAS-CG: the conjugate-gradient benchmark's hot loop is the sparse
//!   matrix-vector product `w[v] = Σ a[e] · p[col[e]]` over a CSR
//!   matrix — a floating-point single-level indirect gather.
//! * NAS-IS: the integer-sort benchmark's hot loop is histogram
//!   counting `C[key[i]] += 1` — a read-modify-write single-level
//!   indirection over a modest-range key set.

use vr_isa::{Asm, FReg, Reg};

use crate::graph::uniform;
use crate::hpcdb::{iter_count, table_len, xorshift_stream};
use crate::layout::Arena;
use crate::{Scale, Workload};

/// Deterministic matrix value per edge index.
fn cg_value(e: u64) -> f64 {
    ((e % 97) as f64 + 1.0) / 97.0
}

/// Builds the NAS-CG sparse matvec. `w` lands in its output array.
pub fn nas_cg(scale: Scale) -> Workload {
    let (n, deg) = match scale {
        Scale::Test => (512, 8),
        Scale::Paper => (1 << 16, 24),
    };
    let g = uniform(n, deg, 0xC6);
    let m = g.num_edges() as u64;

    let mut arena = Arena::new();
    let mut memory = vr_isa::Memory::new();
    let row_ptr = arena.alloc_u64s(n as u64 + 1);
    let col_idx = arena.alloc_u64s(m);
    let a_vals = arena.alloc_u64s(m);
    let p_vec = arena.alloc_u64s(n as u64);
    let w_vec = arena.alloc_u64s(n as u64);
    memory.write_u64_slice(row_ptr, g.row_ptr());
    memory.write_u64_slice(col_idx, g.col_idx());
    for e in 0..m {
        memory.write_f64(a_vals + 8 * e, cg_value(e));
    }
    for v in 0..n as u64 {
        memory.write_f64(p_vec + 8 * v, ((v % 31) as f64 - 15.0) / 31.0);
    }

    let mut a = Asm::new();
    let (row, col, av, pv, wv) = (Reg::A0, Reg::A1, Reg::A2, Reg::A3, Reg::A4);
    let (v, nreg, e, eend, u, tmp) = (Reg::S0, Reg::S1, Reg::S2, Reg::S3, Reg::T4, Reg::T0);
    let (sum, x, y) = (FReg::F0, FReg::F1, FReg::F2);

    a.li(v, 0);
    let outer = a.here();
    let done = a.label();
    a.bgeu(v, nreg, done);
    a.slli(tmp, v, 3);
    a.add(tmp, tmp, row);
    a.ld(e, tmp, 0);
    a.ld(eend, tmp, 8);
    a.fcvt(sum, Reg::ZERO);
    let inner = a.here();
    let after = a.label();
    a.bgeu(e, eend, after);
    a.slli(tmp, e, 3);
    a.add(tmp, tmp, col);
    a.ld(u, tmp, 0); // col[e]                  (striding load)
    a.slli(tmp, e, 3);
    a.add(tmp, tmp, av);
    a.fld(x, tmp, 0); // a[e]                   (striding load)
    a.addi(e, e, 1);
    a.slli(tmp, u, 3);
    a.add(tmp, tmp, pv);
    a.fld(y, tmp, 0); // p[col[e]]              (indirect load)
    a.fmul(x, x, y);
    a.fadd(sum, sum, x);
    a.j(inner);
    a.bind(after);
    a.slli(tmp, v, 3);
    a.add(tmp, tmp, wv);
    a.fst(sum, tmp, 0);
    a.addi(v, v, 1);
    a.j(outer);
    a.bind(done);
    a.halt();

    Workload {
        name: "NAS-CG".to_owned(),
        program: a.assemble(),
        memory,
        init_regs: vec![
            (row, row_ptr),
            (col, col_idx),
            (av, a_vals),
            (pv, p_vec),
            (wv, w_vec),
            (nreg, n as u64),
        ],
    }
}

/// Pure-Rust reference: the `w` vector.
pub fn nas_cg_reference(scale: Scale) -> Vec<f64> {
    let (n, deg) = match scale {
        Scale::Test => (512, 8),
        Scale::Paper => (1 << 16, 24),
    };
    let g = uniform(n, deg, 0xC6);
    let p: Vec<f64> = (0..n as u64).map(|v| ((v % 31) as f64 - 15.0) / 31.0).collect();
    (0..n)
        .map(|v| {
            let mut sum = 0.0;
            for e in g.row_ptr()[v]..g.row_ptr()[v + 1] {
                sum += cg_value(e) * p[g.col_idx()[e as usize] as usize];
            }
            sum
        })
        .collect()
}

/// Builds the NAS-IS histogram pass: `C[key[i]] += 1` over a random
/// key stream.
pub fn nas_is(scale: Scale) -> Workload {
    let buckets = table_len(scale) / 2;
    let iters = iter_count(scale) * 2;

    let mut arena = Arena::new();
    let mut memory = vr_isa::Memory::new();
    let keys = arena.alloc_u64s(iters);
    let counts = arena.alloc_u64s(buckets);
    memory.write_u64_slice(keys, &xorshift_stream(0x15, iters, buckets));

    let mut a = Asm::new();
    let (keys_r, counts_r) = (Reg::A0, Reg::A1);
    let (i, iters_r, k, tmp, c) = (Reg::S0, Reg::S1, Reg::T3, Reg::T4, Reg::T5);

    a.li(i, 0);
    a.li(iters_r, iters as i64);
    let top = a.here();
    let done = a.label();
    a.bgeu(i, iters_r, done);
    a.slli(tmp, i, 3);
    a.add(tmp, tmp, keys_r);
    a.ld(k, tmp, 0); // key[i]                 (striding load)
    a.addi(i, i, 1);
    a.slli(tmp, k, 3);
    a.add(tmp, tmp, counts_r);
    a.ld(c, tmp, 0); // C[key]                 (indirect load)
    a.addi(c, c, 1);
    a.st(c, tmp, 0); // C[key] += 1            (indirect store)
    a.j(top);
    a.bind(done);
    a.halt();

    Workload {
        name: "NAS-IS".to_owned(),
        program: a.assemble(),
        memory,
        init_regs: vec![(keys_r, keys), (counts_r, counts)],
    }
}

/// Pure-Rust reference: the counts array.
pub fn nas_is_reference(scale: Scale) -> Vec<u64> {
    let buckets = table_len(scale) / 2;
    let iters = iter_count(scale) * 2;
    let keys = xorshift_stream(0x15, iters, buckets);
    let mut counts = vec![0u64; buckets as usize];
    for k in keys {
        counts[k as usize] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cg_matches_reference() {
        let w = nas_cg(Scale::Test);
        let (cpu, mem) = w.run_functional_with_memory(20_000_000).expect("halts");
        assert!(cpu.halted());
        let w_base = w.init_regs.iter().find(|(r, _)| *r == Reg::A4).unwrap().1;
        for (i, &exp) in nas_cg_reference(Scale::Test).iter().enumerate() {
            assert_eq!(mem.read_f64(w_base + 8 * i as u64), exp, "w[{i}]");
        }
    }

    #[test]
    fn is_matches_reference() {
        let w = nas_is(Scale::Test);
        let (cpu, mem) = w.run_functional_with_memory(20_000_000).expect("halts");
        assert!(cpu.halted());
        let c_base = w.init_regs.iter().find(|(r, _)| *r == Reg::A1).unwrap().1;
        let expected = nas_is_reference(Scale::Test);
        for (i, &exp) in expected.iter().enumerate() {
            assert_eq!(mem.read_u64(c_base + 8 * i as u64), exp, "C[{i}]");
        }
        assert_eq!(expected.iter().sum::<u64>(), iter_count(Scale::Test) * 2);
    }
}
