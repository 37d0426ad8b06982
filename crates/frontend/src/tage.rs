//! TAGE direction predictor (TAgged GEometric history length).
//!
//! A faithful-in-spirit, storage-budgeted implementation of the TAGE
//! component of TAGE-SC-L (Seznec, CBP 2016), which the paper's Table 1
//! configures at 8 KB. The statistical corrector and loop predictor of
//! the full TAGE-SC-L add ~1–2% accuracy on SPEC-like codes; the
//! data-dependent branches of the graph workloads evaluated here are
//! dominated by the TAGE tables themselves, so SC and L are omitted
//! (documented substitution — see DESIGN.md).

use crate::DirectionPredictor;

/// Configuration of a [`Tage`] predictor.
#[derive(Clone, Debug)]
pub struct TageConfig {
    /// log2 of the number of base bimodal entries.
    pub base_log: u32,
    /// log2 of the number of entries in each tagged table.
    pub table_log: u32,
    /// Geometric history lengths, one per tagged table, ascending.
    pub hist_lengths: Vec<u32>,
    /// Tag width in bits for each tagged table.
    pub tag_bits: Vec<u32>,
    /// Period (in updates) of the usefulness-counter aging reset.
    pub u_reset_period: u64,
}

impl TageConfig {
    /// The default ≈8 KB budget: 4K-entry bimodal base (1 KB) plus six
    /// 512-entry tagged tables with 9–13-bit tags (≈6 KB), history
    /// lengths 4…130.
    pub fn budget_8kb() -> TageConfig {
        TageConfig {
            base_log: 12,
            table_log: 9,
            hist_lengths: vec![4, 9, 18, 35, 67, 130],
            tag_bits: vec![9, 9, 10, 11, 12, 13],
            u_reset_period: 1 << 18,
        }
    }

    /// Storage cost in bits (for the hardware-overhead table).
    pub fn storage_bits(&self) -> u64 {
        let base = (1u64 << self.base_log) * 2;
        let tagged: u64 =
            self.tag_bits.iter().map(|&t| (1u64 << self.table_log) * (3 + 2 + u64::from(t))).sum();
        base + tagged
    }
}

/// Circular global-history buffer plus an incrementally-maintained
/// folded (compressed) register, as in Seznec's reference code.
#[derive(Clone, Debug)]
struct Folded {
    comp: u32,
    /// Compressed length (bits of the folded register).
    clen: u32,
    outpoint: u32,
}

impl Folded {
    fn new(olen: u32, clen: u32) -> Folded {
        Folded { comp: 0, clen, outpoint: olen % clen }
    }

    /// Shifts in the newest history bit and shifts out the bit that
    /// just fell off the end of the original-length window.
    fn update(&mut self, new_bit: u32, evicted_bit: u32) {
        self.comp = (self.comp << 1) | new_bit;
        self.comp ^= evicted_bit << self.outpoint;
        self.comp ^= self.comp >> self.clen;
        self.comp &= (1 << self.clen) - 1;
    }
}

#[derive(Clone, Copy, Default, Debug)]
struct TageEntry {
    /// Signed 3-bit counter, −4..=3; ≥0 predicts taken.
    ctr: i8,
    tag: u16,
    /// 2-bit usefulness.
    useful: u8,
    valid: bool,
}

/// Upper bound on the number of tagged tables, so per-prediction
/// index/tag scratch can live in fixed stack arrays instead of heap
/// vectors (the predictor runs once per fetched conditional branch —
/// squarely on the simulator hot path, DESIGN.md §12). Seznec's
/// largest published TAGE-SC-L uses 12 tagged tables; 16 is generous.
pub const MAX_TAGGED_TABLES: usize = 16;

/// The TAGE predictor.
#[derive(Clone, Debug)]
pub struct Tage {
    cfg: TageConfig,
    base: Vec<u8>,
    tables: Vec<Vec<TageEntry>>,
    /// Circular raw history, `hist_head` the newest bit's slot. Its
    /// length is a power of two above the longest history, so a
    /// position is a mask, not a division.
    hist: Vec<u8>,
    hist_head: usize,
    folded_idx: Vec<Folded>,
    folded_tag0: Vec<Folded>,
    folded_tag1: Vec<Folded>,
    /// Updates left until the next usefulness reset: counts down from
    /// `u_reset_period`, so the check is a compare, not a division. A
    /// period of 0 never resets: the count wraps to 2^64 updates.
    until_reset: u64,
    /// Simple LFSR for allocation-tie randomization.
    lfsr: u32,
}

impl Tage {
    /// Creates a TAGE predictor from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `hist_lengths` and `tag_bits` lengths differ, are
    /// empty, or exceed `MAX_TAGGED_TABLES`.
    pub fn new(cfg: TageConfig) -> Tage {
        assert_eq!(cfg.hist_lengths.len(), cfg.tag_bits.len(), "table parameter mismatch");
        assert!(!cfg.hist_lengths.is_empty(), "need at least one tagged table");
        assert!(
            cfg.hist_lengths.len() <= MAX_TAGGED_TABLES,
            "at most {MAX_TAGGED_TABLES} tagged tables supported"
        );
        let ring = (*cfg.hist_lengths.last().unwrap() as usize + 1).next_power_of_two();
        let tables = vec![vec![TageEntry::default(); 1 << cfg.table_log]; cfg.hist_lengths.len()];
        let folded_idx = cfg.hist_lengths.iter().map(|&l| Folded::new(l, cfg.table_log)).collect();
        let folded_tag0 =
            cfg.hist_lengths.iter().zip(&cfg.tag_bits).map(|(&l, &t)| Folded::new(l, t)).collect();
        let folded_tag1 = cfg
            .hist_lengths
            .iter()
            .zip(&cfg.tag_bits)
            .map(|(&l, &t)| Folded::new(l, t.max(2) - 1))
            .collect();
        Tage {
            base: vec![2; 1 << cfg.base_log],
            tables,
            hist: vec![0; ring],
            hist_head: 0,
            folded_idx,
            folded_tag0,
            folded_tag1,
            until_reset: cfg.u_reset_period,
            lfsr: 0x2468_ace1,
            cfg,
        }
    }

    /// The default ≈8 KB predictor.
    pub fn default_8kb() -> Tage {
        Tage::new(TageConfig::budget_8kb())
    }

    /// Storage cost in bits of this instance.
    pub fn storage_bits(&self) -> u64 {
        self.cfg.storage_bits()
    }

    fn index(&self, pc: u64, table: usize) -> usize {
        let mask = (1u64 << self.cfg.table_log) - 1;
        let f = u64::from(self.folded_idx[table].comp);
        ((pc ^ (pc >> self.cfg.table_log) ^ f ^ (table as u64)) & mask) as usize
    }

    fn tag(&self, pc: u64, table: usize) -> u16 {
        let mask = (1u64 << self.cfg.tag_bits[table]) - 1;
        let f0 = u64::from(self.folded_tag0[table].comp);
        let f1 = u64::from(self.folded_tag1[table].comp) << 1;
        ((pc ^ f0 ^ f1) & mask) as u16
    }

    fn base_index(&self, pc: u64) -> usize {
        (pc & ((1 << self.cfg.base_log) - 1)) as usize
    }

    fn next_rand(&mut self) -> u32 {
        // 32-bit xorshift.
        let mut x = self.lfsr;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        self.lfsr = x;
        x
    }

    fn push_history(&mut self, taken: bool) {
        let mask = self.hist.len() - 1;
        self.hist_head = (self.hist_head + 1) & mask;
        self.hist[self.hist_head] = u8::from(taken);
        let new_bit = u32::from(taken);
        for t in 0..self.cfg.hist_lengths.len() {
            let l = self.cfg.hist_lengths[t] as usize;
            // The bit that just left the window of length l: the one
            // that was `l` positions back before this push.
            let evict = u32::from(self.hist[self.hist_head.wrapping_sub(l) & mask]);
            self.folded_idx[t].update(new_bit, evict);
            self.folded_tag0[t].update(new_bit, evict);
            self.folded_tag1[t].update(new_bit, evict);
        }
    }
}

impl DirectionPredictor for Tage {
    fn predict_and_train(&mut self, pc: u64, taken: bool) -> bool {
        let n_tables = self.tables.len();

        // --- prediction: find provider (longest history hit) and alt.
        let mut provider: Option<usize> = None;
        let mut alt: Option<usize> = None;
        // Fixed stack scratch (no per-prediction heap allocation):
        // `new()` guarantees n_tables <= MAX_TAGGED_TABLES.
        let mut idx = [0usize; MAX_TAGGED_TABLES];
        let mut tag = [0u16; MAX_TAGGED_TABLES];
        for t in (0..n_tables).rev() {
            idx[t] = self.index(pc, t);
            tag[t] = self.tag(pc, t);
            let e = &self.tables[t][idx[t]];
            if e.valid && e.tag == tag[t] {
                if provider.is_none() {
                    provider = Some(t);
                } else if alt.is_none() {
                    alt = Some(t);
                    break;
                }
            }
        }

        let base_pred = self.base[self.base_index(pc)] >= 2;
        let alt_pred = match alt {
            Some(t) => self.tables[t][idx[t]].ctr >= 0,
            None => base_pred,
        };
        let pred = match provider {
            Some(t) => self.tables[t][idx[t]].ctr >= 0,
            None => base_pred,
        };

        // --- update.
        let base_idx = self.base_index(pc);

        match provider {
            Some(t) => {
                let e = &mut self.tables[t][idx[t]];
                e.ctr = if taken { (e.ctr + 1).min(3) } else { (e.ctr - 1).max(-4) };
                if pred != alt_pred {
                    if pred == taken {
                        e.useful = (e.useful + 1).min(3);
                    } else {
                        e.useful = e.useful.saturating_sub(1);
                    }
                }
                // When the provider's entry is weak and useless, also
                // train the alternate/base so it can take over.
                if e.ctr == 0 || e.ctr == -1 {
                    let b = &mut self.base[base_idx];
                    *b = crate::bimodal::saturate(*b, taken);
                }
            }
            None => {
                let b = &mut self.base[base_idx];
                *b = crate::bimodal::saturate(*b, taken);
            }
        }

        // --- allocation on misprediction, in a longer-history table.
        if pred != taken {
            let start = provider.map_or(0, |t| t + 1);
            if start < n_tables {
                // Collect candidate tables with a free (u == 0) slot.
                let mut allocated = false;
                let skew = (self.next_rand() as usize) % 2;
                let mut t = start + skew.min(n_tables - 1 - start);
                while t < n_tables {
                    let e = &mut self.tables[t][idx[t]];
                    if e.useful == 0 {
                        *e = TageEntry {
                            ctr: if taken { 0 } else { -1 },
                            tag: tag[t],
                            useful: 0,
                            valid: true,
                        };
                        allocated = true;
                        break;
                    }
                    t += 1;
                }
                if !allocated {
                    // Aging: decay usefulness so future allocations
                    // can succeed.
                    for (table, &i) in self.tables.iter_mut().zip(&idx).skip(start) {
                        table[i].useful = table[i].useful.saturating_sub(1);
                    }
                }
            }
        }

        // --- periodic graceful reset of usefulness counters.
        self.until_reset = self.until_reset.wrapping_sub(1);
        if self.until_reset == 0 {
            self.until_reset = self.cfg.u_reset_period;
            for table in &mut self.tables {
                for e in table.iter_mut() {
                    e.useful >>= 1;
                }
            }
        }

        self.push_history(taken);
        pred
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accuracy(p: &mut Tage, seq: impl Iterator<Item = (u64, bool)>, warmup: usize) -> f64 {
        let mut total = 0usize;
        let mut correct = 0usize;
        for (i, (pc, taken)) in seq.enumerate() {
            let pred = p.predict_and_train(pc, taken);
            if i >= warmup {
                total += 1;
                if pred == taken {
                    correct += 1;
                }
            }
        }
        correct as f64 / total as f64
    }

    #[test]
    fn learns_biased_branches() {
        let mut p = Tage::default_8kb();
        let seq = (0..5000).map(|i| (0x100 + (i % 7), i % 7 != 3));
        assert!(accuracy(&mut p, seq, 1000) > 0.98);
    }

    #[test]
    fn learns_short_loop_exit() {
        // Loop of trip count 9: taken 8× then not-taken. Needs history.
        let mut p = Tage::default_8kb();
        let seq = (0..20_000).map(|i| (0x40, i % 9 != 8));
        let acc = accuracy(&mut p, seq, 5000);
        assert!(acc > 0.95, "loop-exit accuracy {acc}");
    }

    #[test]
    fn beats_bimodal_on_history_correlated_pattern() {
        use crate::Bimodal;
        // Period-12 pattern requiring ~12 bits of history.
        let pattern = [true, true, false, true, false, false, true, true, true, false, false, true];
        let seq = || (0..30_000).map(|i| (0x80u64, pattern[i % pattern.len()]));

        let mut tage = Tage::default_8kb();
        let tage_acc = accuracy(&mut tage, seq(), 10_000);

        let mut bim = Bimodal::default();
        let mut bim_correct = 0;
        let mut bim_total = 0;
        for (i, (pc, taken)) in seq().enumerate() {
            let pred = bim.predict_and_train(pc, taken);
            if i >= 10_000 {
                bim_total += 1;
                if pred == taken {
                    bim_correct += 1;
                }
            }
        }
        let bim_acc = bim_correct as f64 / bim_total as f64;
        assert!(
            tage_acc > bim_acc + 0.1,
            "TAGE ({tage_acc:.3}) should clearly beat bimodal ({bim_acc:.3})"
        );
        assert!(tage_acc > 0.97, "TAGE accuracy {tage_acc}");
    }

    #[test]
    fn random_branches_do_not_crash_and_stay_bounded() {
        let mut p = Tage::default_8kb();
        let mut x = 12345u64;
        for _ in 0..50_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pc = x % 997;
            let taken = (x >> 17) & 1 == 1;
            p.predict_and_train(pc, taken);
        }
    }

    #[test]
    fn storage_budget_is_near_8kb() {
        let bits = Tage::default_8kb().storage_bits();
        let kib = bits as f64 / 8192.0;
        assert!((6.0..=10.0).contains(&kib), "storage {kib:.2} KiB should be ≈8 KiB");
    }

    #[test]
    fn history_ring_is_a_power_of_two_past_the_longest_history() {
        let p = Tage::default_8kb();
        assert!(p.hist.len().is_power_of_two());
        assert!(p.hist.len() > 130);
    }

    #[test]
    fn usefulness_halves_every_reset_period_updates() {
        let mut p = Tage::new(TageConfig { u_reset_period: 4, ..TageConfig::budget_8kb() });
        let max_useful = |p: &Tage| p.tables.iter().flatten().map(|e| e.useful).max().unwrap();
        for e in p.tables.iter_mut().flatten() {
            e.useful = 3;
        }
        for round in 0..2 {
            for i in 0..3 {
                p.predict_and_train(0x40 + i, i % 2 == 0);
            }
            assert_eq!(max_useful(&p), 3 >> round, "no reset before update {}", 4 * (round + 1));
            p.predict_and_train(0x40, true);
            assert_eq!(max_useful(&p), 3 >> (round + 1), "reset at update {}", 4 * (round + 1));
        }
    }

    #[test]
    fn folded_register_stays_within_width() {
        let mut f = Folded::new(130, 10);
        for i in 0..1000u32 {
            f.update(i & 1, (i >> 1) & 1);
            assert!(f.comp < (1 << 10));
        }
    }
}
