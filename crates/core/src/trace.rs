//! Pipeline tracing: per-instruction stage timestamps with a textual
//! pipeline-diagram renderer (the moral equivalent of gem5's
//! `O3PipeView`).

use vr_isa::Inst;
use vr_obs::RingLog;

/// Stage timestamps of one committed instruction.
#[derive(Clone, Copy, Debug)]
pub struct TraceRecord {
    /// Dynamic sequence number.
    pub seq: u64,
    /// Program counter.
    pub pc: u64,
    /// The instruction.
    pub inst: Inst,
    /// Cycle fetched.
    pub fetch_at: u64,
    /// Cycle dispatched into the back-end.
    pub dispatch_at: u64,
    /// Cycle issued to a functional unit.
    pub issue_at: u64,
    /// Cycle the result became available.
    pub complete_at: u64,
    /// Cycle committed.
    pub commit_at: u64,
    /// Whether this instruction was a mispredicted branch.
    pub mispredicted: bool,
}

/// Bounded ring buffer of the most recent [`TraceRecord`]s.
#[derive(Debug)]
pub struct PipelineTrace {
    records: RingLog<TraceRecord>,
}

impl PipelineTrace {
    /// Creates a trace keeping the last `capacity` commits.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> PipelineTrace {
        PipelineTrace { records: RingLog::new(capacity) }
    }

    /// Appends a record, evicting the oldest beyond capacity.
    pub fn push(&mut self, r: TraceRecord) {
        self.records.push(r);
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Renders the retained window as a pipeline diagram. The pc is
    /// printed in hex and every column is sized to the widest value in
    /// the window (never narrower than its header), so columns never
    /// shear no matter how large the cycle counts or addresses get:
    ///
    /// ```text
    /// seq pc    F   D   I   X   C   instruction
    /// 12  0x7   100 115 116 117 118 add x6, x6, x5
    /// ```
    pub fn render(&self) -> String {
        self.render_annotated(&[])
    }

    /// Renders like [`Self::render`], with runahead episodes overlaid:
    /// for each `(entered_at, exited_at)` episode window, a
    /// `== runahead episode [a..b] ==` separator is inserted before the
    /// first instruction committing at or after the entry cycle, and
    /// every instruction whose in-flight span `[fetch, commit]`
    /// overlaps an episode is flagged `<RA>`.
    pub fn render_annotated(&self, episodes: &[(u64, u64)]) -> String {
        use std::fmt::Write as _;
        let width = |vals: &mut dyn Iterator<Item = usize>, header: usize| -> usize {
            vals.fold(header, usize::max)
        };
        let dec = |v: u64| -> usize {
            let mut n = 1;
            let mut v = v / 10;
            while v > 0 {
                n += 1;
                v /= 10;
            }
            n
        };
        let rs = &self.records;
        // {:#x} renders as "0x" + hex digits.
        let pcs: Vec<String> = rs.iter().map(|r| format!("{:#x}", r.pc)).collect();
        let seq_w = width(&mut rs.iter().map(|r| dec(r.seq)), "seq".len());
        let pc_w = width(&mut pcs.iter().map(String::len), 2);
        let f_w = width(&mut rs.iter().map(|r| dec(r.fetch_at)), 1);
        let d_w = width(&mut rs.iter().map(|r| dec(r.dispatch_at)), 1);
        let i_w = width(&mut rs.iter().map(|r| dec(r.issue_at)), 1);
        let x_w = width(&mut rs.iter().map(|r| dec(r.complete_at)), 1);
        let c_w = width(&mut rs.iter().map(|r| dec(r.commit_at)), 1);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<seq_w$} {:<pc_w$} {:<f_w$} {:<d_w$} {:<i_w$} {:<x_w$} {:<c_w$} instruction",
            "seq", "pc", "F", "D", "I", "X", "C",
        );
        let mut next_ep = 0usize;
        for (r, pc) in rs.iter().zip(&pcs) {
            while next_ep < episodes.len() && episodes[next_ep].0 <= r.commit_at {
                let (a, b) = episodes[next_ep];
                let _ = writeln!(out, "== runahead episode [{a}..{b}] ==");
                next_ep += 1;
            }
            let in_episode = episodes.iter().any(|&(a, b)| r.fetch_at <= b && a <= r.commit_at);
            let _ = writeln!(
                out,
                "{:<seq_w$} {:<pc_w$} {:<f_w$} {:<d_w$} {:<i_w$} {:<x_w$} {:<c_w$} {}{}{}",
                r.seq,
                pc,
                r.fetch_at,
                r.dispatch_at,
                r.issue_at,
                r.complete_at,
                r.commit_at,
                r.inst,
                if r.mispredicted { "   <MISPREDICT>" } else { "" },
                if in_episode { "   <RA>" } else { "" },
            );
        }
        out
    }

    /// Sanity-checks monotonicity of every record's stage order.
    pub fn is_well_ordered(&self) -> bool {
        self.records.iter().all(|r| {
            r.fetch_at <= r.dispatch_at
                && r.dispatch_at <= r.issue_at
                && r.issue_at <= r.complete_at
                && r.complete_at <= r.commit_at
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64) -> TraceRecord {
        TraceRecord {
            seq,
            pc: seq * 2,
            inst: Inst::NOP,
            fetch_at: 10,
            dispatch_at: 25,
            issue_at: 26,
            complete_at: 27,
            commit_at: 28,
            mispredicted: seq % 2 == 1,
        }
    }

    #[test]
    fn ring_buffer_keeps_the_newest() {
        let mut t = PipelineTrace::new(3);
        for s in 0..10 {
            t.push(rec(s));
        }
        let seqs: Vec<u64> = t.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
    }

    #[test]
    fn rendering_contains_stages_and_flags() {
        let mut t = PipelineTrace::new(4);
        t.push(rec(1));
        let s = t.render();
        assert!(s.contains("nop"));
        assert!(s.contains("<MISPREDICT>"));
        assert!(s.lines().count() >= 2);
    }

    #[test]
    fn rendering_prints_pc_in_hex_and_never_shears_columns() {
        // Regression: pc used to print in decimal and the fixed-width
        // columns sheared once any value exceeded 8-9 digits.
        let mut t = PipelineTrace::new(4);
        t.push(rec(2));
        let mut big = rec(4);
        big.pc = 0x4000_0000; // 10 decimal digits — used to shear
        big.fetch_at = 1_234_567_890;
        big.dispatch_at = 1_234_567_901;
        big.issue_at = 1_234_567_902;
        big.complete_at = 1_234_567_903;
        big.commit_at = 1_234_567_904;
        big.mispredicted = false;
        t.push(big);
        let s = t.render();
        assert!(s.contains("0x4000000"), "pc must render in hex: {s}");
        assert!(!s.contains("1073741824"), "pc must not render in decimal: {s}");
        // Every row puts the instruction mnemonic in the same column.
        let cols: Vec<usize> = s
            .lines()
            .map(|l| l.find("nop").or(l.find("instruction")))
            .map(Option::unwrap)
            .collect();
        assert!(cols.windows(2).all(|w| w[0] == w[1]), "columns sheared: {s}");
    }

    #[test]
    fn annotated_rendering_marks_episodes() {
        let mut t = PipelineTrace::new(4);
        t.push(rec(0)); // spans cycles 10..28
        let mut late = rec(2);
        late.mispredicted = false;
        late.fetch_at = 100;
        late.dispatch_at = 101;
        late.issue_at = 102;
        late.complete_at = 103;
        late.commit_at = 104;
        t.push(late);
        let s = t.render_annotated(&[(15, 60)]);
        assert!(s.contains("== runahead episode [15..60] =="), "missing separator: {s}");
        let in_ep: Vec<&str> = s.lines().filter(|l| l.contains("<RA>")).collect();
        assert_eq!(in_ep.len(), 1, "only the overlapping record is flagged: {s}");
        assert!(in_ep[0].starts_with('0'), "seq 0 overlaps [15..60]: {s}");
        // Plain render is the empty-episode special case.
        assert_eq!(t.render(), t.render_annotated(&[]));
    }

    #[test]
    fn well_ordered_check() {
        let mut t = PipelineTrace::new(4);
        t.push(rec(0));
        assert!(t.is_well_ordered());
        let mut bad = rec(1);
        bad.commit_at = 0;
        t.push(bad);
        assert!(!t.is_well_ordered());
    }
}
