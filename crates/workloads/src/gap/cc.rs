//! Connected components (GAP `cc`, label propagation).

use vr_isa::{Asm, Reg};

use crate::gap::{load_graph, named};
use crate::graph::{Csr, GraphPreset};
use crate::Workload;

/// Number of label-propagation rounds (fixed for deterministic
/// dynamic instruction counts; GAP iterates to convergence).
pub const CC_ROUNDS: u64 = 2;

/// Builds label-propagation connected components over `g`:
/// `comp[v] = min(comp[v], comp[u])` over all edges, repeated
/// [`CC_ROUNDS`] times.
pub fn cc_on(g: &Csr, preset: GraphPreset) -> Workload {
    let mut img = load_graph(g);
    let n = img.n;
    let comp = img.arena.alloc_u64s(n);
    img.memory.write_u64s(comp, 0..n);

    let mut a = Asm::new();
    let (row, col, cmp) = (Reg::A0, Reg::A1, Reg::A2);
    let (v, nreg, e, eend, u, tmp, cv, cu, round, rounds) =
        (Reg::S0, Reg::S1, Reg::S2, Reg::S3, Reg::T4, Reg::T0, Reg::S5, Reg::T5, Reg::S6, Reg::S7);

    a.li(round, 0);
    a.li(rounds, CC_ROUNDS as i64);
    let round_top = a.here();
    let all_done = a.label();
    a.bgeu(round, rounds, all_done);
    a.li(v, 0);
    let outer = a.here();
    let round_end = a.label();
    a.bgeu(v, nreg, round_end);
    a.slli(tmp, v, 3);
    a.add(tmp, tmp, row);
    a.ld(e, tmp, 0);
    a.ld(eend, tmp, 8);
    // cv = comp[v]
    a.slli(tmp, v, 3);
    a.add(tmp, tmp, cmp);
    a.ld(cv, tmp, 0);
    let inner = a.here();
    let after = a.label();
    a.bgeu(e, eend, after);
    a.slli(tmp, e, 3);
    a.add(tmp, tmp, col);
    a.ld(u, tmp, 0); // u = col[e]            (striding load)
    a.addi(e, e, 1);
    a.slli(tmp, u, 3);
    a.add(tmp, tmp, cmp);
    a.ld(cu, tmp, 0); // comp[u]              (indirect load)
    a.minu(cv, cv, cu);
    a.j(inner);
    a.bind(after);
    a.slli(tmp, v, 3);
    a.add(tmp, tmp, cmp);
    a.st(cv, tmp, 0);
    a.addi(v, v, 1);
    a.j(outer);
    a.bind(round_end);
    a.addi(round, round, 1);
    a.j(round_top);
    a.bind(all_done);
    a.halt();

    Workload {
        name: named("cc", preset),
        program: a.assemble(),
        memory: img.memory,
        init_regs: vec![(row, img.row_ptr), (col, img.col_idx), (cmp, comp), (nreg, n)],
    }
}

/// Pure-Rust reference: `comp` after [`CC_ROUNDS`] rounds of the same
/// in-place sweep order.
pub fn cc_reference(g: &Csr) -> Vec<u64> {
    let n = g.num_nodes();
    let mut comp: Vec<u64> = (0..n as u64).collect();
    for _ in 0..CC_ROUNDS {
        for v in 0..n {
            let mut cv = comp[v];
            for &u in g.neighbors(v) {
                cv = cv.min(comp[u as usize]);
            }
            comp[v] = cv;
        }
    }
    comp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{kronecker, uniform};

    fn check(g: &Csr) {
        let w = cc_on(g, GraphPreset::Orkut);
        let (cpu, mem) = w.run_functional_with_memory(80_000_000).expect("cc halts");
        assert!(cpu.halted());
        let comp_base = w.init_regs.iter().find(|(r, _)| *r == Reg::A2).unwrap().1;
        for (i, &c) in cc_reference(g).iter().enumerate() {
            assert_eq!(mem.read_u64(comp_base + 8 * i as u64), c, "comp[{i}]");
        }
    }

    #[test]
    fn matches_reference_on_uniform_graph() {
        check(&uniform(120, 4, 5));
    }

    #[test]
    fn matches_reference_on_kronecker_graph() {
        check(&kronecker(7, 4, 2));
    }

    #[test]
    fn two_cliques_get_distinct_labels() {
        // 0-1-2 ring and 3-4-5 ring: labels collapse to 0 and 3.
        let g = Csr::from_edges(
            6,
            &[(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (3, 4), (4, 3), (4, 5), (5, 4), (3, 5)],
        );
        let comp = cc_reference(&g);
        assert_eq!(comp, vec![0, 0, 0, 3, 3, 3]);
    }
}
