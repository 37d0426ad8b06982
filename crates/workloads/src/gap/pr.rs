//! PageRank (GAP `pr`, pull direction, one power iteration).

use vr_isa::{Asm, FReg, Reg};

use crate::gap::{load_graph, named};
use crate::graph::{Csr, GraphPreset};
use crate::Workload;

/// Builds one pull-style PageRank iteration over `g`:
/// `rank_new[v] = (1−d)/n + d · Σ_{u→v} contrib[u]` with
/// `contrib[u] = rank[u] / outdeg[u]` precomputed in the image
/// (as GAP does between iterations).
///
/// Note the graph is interpreted as *incoming* edges for the pull:
/// `col_idx` entries of row `v` are the vertices contributing to `v`.
pub fn pr_on(g: &Csr, preset: GraphPreset) -> Workload {
    let mut img = load_graph(g);
    let n = img.n;
    let contrib = img.arena.alloc_u64s(n);
    let rank_new = img.arena.alloc_u64s(n);
    let consts = img.arena.alloc_u64s(2);

    let init_rank = 1.0 / n as f64;
    let contribs: Vec<f64> =
        (0..n as usize).map(|v| init_rank / g.degree(v).max(1) as f64).collect();
    img.memory.write_f64_slice(contrib, &contribs);
    img.memory.write_f64(consts, 0.15 / n as f64);
    img.memory.write_f64(consts + 8, 0.85);

    let mut a = Asm::new();
    let (row, col, ctb, rnk, cst) = (Reg::A0, Reg::A1, Reg::A2, Reg::A3, Reg::A4);
    let (v, nreg, e, eend, u, tmp) = (Reg::S0, Reg::S1, Reg::S2, Reg::S3, Reg::T4, Reg::T0);
    let (sum, c, base, damp) = (FReg::F0, FReg::F1, FReg::F2, FReg::F3);

    a.li(v, 0);
    a.fld(base, cst, 0);
    a.fld(damp, cst, 8);
    let outer = a.here();
    let done = a.label();
    a.bgeu(v, nreg, done);
    a.slli(tmp, v, 3);
    a.add(tmp, tmp, row);
    a.ld(e, tmp, 0);
    a.ld(eend, tmp, 8);
    a.fcvt(sum, Reg::ZERO); // sum = 0.0
    let inner = a.here();
    let after = a.label();
    a.bgeu(e, eend, after);
    a.slli(tmp, e, 3);
    a.add(tmp, tmp, col);
    a.ld(u, tmp, 0); // u = col[e]            (striding load)
    a.addi(e, e, 1);
    a.slli(tmp, u, 3);
    a.add(tmp, tmp, ctb);
    a.fld(c, tmp, 0); // contrib[u]           (indirect load)
    a.fadd(sum, sum, c);
    a.j(inner);
    a.bind(after);
    a.fmul(sum, sum, damp);
    a.fadd(sum, sum, base);
    a.slli(tmp, v, 3);
    a.add(tmp, tmp, rnk);
    a.fst(sum, tmp, 0);
    a.addi(v, v, 1);
    a.j(outer);
    a.bind(done);
    a.halt();

    Workload {
        name: named("pr", preset),
        program: a.assemble(),
        memory: img.memory,
        init_regs: vec![
            (row, img.row_ptr),
            (col, img.col_idx),
            (ctb, contrib),
            (rnk, rank_new),
            (cst, consts),
            (nreg, n),
        ],
    }
}

/// Pure-Rust reference for one pull iteration; returns `rank_new`.
pub fn pr_reference(g: &Csr) -> Vec<f64> {
    let n = g.num_nodes();
    let init_rank = 1.0 / n as f64;
    let contrib: Vec<f64> = (0..n).map(|v| init_rank / g.degree(v).max(1) as f64).collect();
    (0..n)
        .map(|v| {
            let mut sum = 0.0;
            for &u in g.neighbors(v) {
                sum += contrib[u as usize];
            }
            sum * 0.85 + 0.15 / n as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{kronecker, uniform};

    fn check(g: &Csr) {
        let w = pr_on(g, GraphPreset::Kron);
        let (cpu, mem) = w.run_functional_with_memory(50_000_000).expect("pr halts");
        assert!(cpu.halted());
        let rank_base = w.init_regs.iter().find(|(r, _)| *r == Reg::A3).unwrap().1;
        let expected = pr_reference(g);
        for (i, &r) in expected.iter().enumerate() {
            let got = mem.read_f64(rank_base + 8 * i as u64);
            // Same summation order ⇒ bit-identical fp results.
            assert_eq!(got, r, "rank_new[{i}]");
        }
    }

    #[test]
    fn matches_reference_on_uniform_graph() {
        check(&uniform(150, 5, 4));
    }

    #[test]
    fn matches_reference_on_kronecker_graph() {
        check(&kronecker(7, 6, 11));
    }

    #[test]
    fn ranks_sum_to_about_one() {
        let g = uniform(100, 4, 9);
        let ranks = pr_reference(&g);
        let total: f64 = ranks.iter().sum();
        // One iteration of pull PR over a stochastic-ish matrix keeps
        // total mass near 1 when every vertex has outdegree > 0.
        assert!((total - 1.0).abs() < 0.2, "total rank {total}");
    }
}
