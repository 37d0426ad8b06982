//! Program container.

use crate::inst::Inst;

/// An assembled program: a flat sequence of instructions.
///
/// Program counters are *instruction indices*, not byte addresses: no
/// instruction cache is modelled, so a PC never needs one.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct Program {
    insts: Vec<Inst>,
}

impl Program {
    /// Wraps a sequence of instructions as a program. Execution starts
    /// at index 0.
    pub fn new(insts: Vec<Inst>) -> Program {
        Program { insts }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The instruction at index `pc`, if in bounds.
    pub fn fetch(&self, pc: u64) -> Option<&Inst> {
        self.insts.get(pc as usize)
    }

    /// All instructions, in order.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Renders the program as readable assembly, one instruction per
    /// line with its index.
    pub fn to_listing(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, inst) in self.insts.iter().enumerate() {
            let _ = writeln!(out, "{i:5}: {inst}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Op;

    #[test]
    fn fetch_in_and_out_of_bounds() {
        let p = Program::new(vec![Inst::NOP, Inst { op: Op::Halt, ..Inst::NOP }]);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.fetch(0), Some(&Inst::NOP));
        assert!(p.fetch(2).is_none());
        assert!(p.fetch(u64::MAX).is_none());
    }

    #[test]
    fn listing_contains_every_instruction() {
        let p = Program::new(vec![Inst::NOP; 3]);
        let listing = p.to_listing();
        assert_eq!(listing.lines().count(), 3);
        assert!(listing.contains("0: nop"));
    }
}
