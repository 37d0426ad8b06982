//! Single-source shortest paths (GAP `sssp`), as bounded Bellman-Ford
//! edge relaxation over the CSR (GAP's delta-stepping needs dynamic
//! bucketing; bounded relaxation keeps the same striding-load →
//! indirect-distance access pattern the paper exploits, with a
//! deterministic dynamic length).

use vr_isa::{Asm, Reg};

use crate::gap::{load_graph, named, source_vertex};
use crate::graph::{Csr, GraphPreset};
use crate::Workload;

/// Relaxation rounds.
pub const SSSP_ROUNDS: u64 = 2;

/// "Infinity" initial distance (small enough never to overflow when a
/// weight is added).
pub const INF: u64 = 1 << 40;

/// Deterministic per-edge weight in 1..=15.
fn weight(e: u64) -> u64 {
    (e.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) + 1
}

/// Builds bounded Bellman-Ford over `g` with synthetic weights.
pub fn sssp_on(g: &Csr, preset: GraphPreset) -> Workload {
    let mut img = load_graph(g);
    let n = img.n;
    let m = g.num_edges() as u64;
    let dist = img.arena.alloc_u64s(n);
    let weights = img.arena.alloc_u64s(m.max(1));
    let src = source_vertex(g);
    let dists: Vec<u64> = (0..n).map(|v| if v == src { 0 } else { INF }).collect();
    img.memory.write_u64_slice(dist, &dists);
    img.memory.write_u64_slice(weights, &(0..m).map(weight).collect::<Vec<_>>());

    let mut a = Asm::new();
    let (row, col, dst_arr, wts) = (Reg::A0, Reg::A1, Reg::A2, Reg::A3);
    let (v, nreg, e, eend, u, tmp, dv, w, nd, du, round, rounds, uaddr) = (
        Reg::S0,
        Reg::S1,
        Reg::S2,
        Reg::S3,
        Reg::T4,
        Reg::T0,
        Reg::S5,
        Reg::T5,
        Reg::T6,
        Reg::T1,
        Reg::S6,
        Reg::S7,
        Reg::S8,
    );

    a.li(round, 0);
    a.li(rounds, SSSP_ROUNDS as i64);
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
    a.slli(tmp, v, 3);
    a.add(tmp, tmp, dst_arr);
    a.ld(dv, tmp, 0); // dv = dist[v]
    let inner = a.here();
    let after = a.label();
    a.bgeu(e, eend, after);
    a.slli(tmp, e, 3);
    a.add(tmp, tmp, col);
    a.ld(u, tmp, 0); // u = col[e]             (striding load)
    a.slli(tmp, e, 3);
    a.add(tmp, tmp, wts);
    a.ld(w, tmp, 0); // w = weights[e]         (striding load)
    a.addi(e, e, 1);
    a.add(nd, dv, w); // nd = dv + w
    a.slli(uaddr, u, 3);
    a.add(uaddr, uaddr, dst_arr);
    a.ld(du, uaddr, 0); // du = dist[u]        (indirect load)
    let skip = a.label();
    a.bgeu(nd, du, skip); // relax only if shorter (data-dependent)
    a.st(nd, uaddr, 0);
    a.bind(skip);
    a.j(inner);
    a.bind(after);
    a.addi(v, v, 1);
    a.j(outer);
    a.bind(round_end);
    a.addi(round, round, 1);
    a.j(round_top);
    a.bind(all_done);
    a.halt();

    Workload {
        name: named("sssp", preset),
        program: a.assemble(),
        memory: img.memory,
        init_regs: vec![
            (row, img.row_ptr),
            (col, img.col_idx),
            (dst_arr, dist),
            (wts, weights),
            (nreg, n),
        ],
    }
}

/// Pure-Rust reference: `dist` after [`SSSP_ROUNDS`] rounds of the
/// same in-place sweep.
pub fn sssp_reference(g: &Csr, src: u64) -> Vec<u64> {
    let n = g.num_nodes();
    let mut dist = vec![INF; n];
    dist[src as usize] = 0;
    for _ in 0..SSSP_ROUNDS {
        for v in 0..n {
            let dv = dist[v];
            let (start, end) = (g.row_ptr()[v], g.row_ptr()[v + 1]);
            for e in start..end {
                let u = g.col_idx()[e as usize] as usize;
                let nd = dv + weight(e);
                if nd < dist[u] {
                    dist[u] = nd;
                }
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{kronecker, uniform};

    fn check(g: &Csr) {
        let w = sssp_on(g, GraphPreset::Urand);
        let (cpu, mem) = w.run_functional_with_memory(80_000_000).expect("sssp halts");
        assert!(cpu.halted());
        let dist_base = w.init_regs.iter().find(|(r, _)| *r == Reg::A2).unwrap().1;
        for (i, &d) in sssp_reference(g, super::source_vertex(g)).iter().enumerate() {
            assert_eq!(mem.read_u64(dist_base + 8 * i as u64), d, "dist[{i}]");
        }
    }

    #[test]
    fn matches_reference_on_uniform_graph() {
        check(&uniform(100, 4, 21));
    }

    #[test]
    fn matches_reference_on_kronecker_graph() {
        check(&kronecker(7, 4, 22));
    }

    #[test]
    fn weights_are_bounded_and_nonzero() {
        for e in 0..1000 {
            let w = weight(e);
            assert!((1..=16).contains(&w));
        }
    }

    #[test]
    fn source_distance_stays_zero() {
        let g = uniform(50, 3, 8);
        let d = sssp_reference(&g, super::source_vertex(&g));
        assert_eq!(d[super::source_vertex(&g) as usize], 0);
    }
}
