//! Program container.

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::inst::Inst;

/// An assembled program: a flat sequence of instructions.
///
/// Program counters are *instruction indices*, not byte addresses: no
/// instruction cache is modelled, so a PC never needs one.
///
/// The instructions never change after [`Program::new`], so the
/// [`Program::listing`] is rendered at most once and kept; clones share
/// the rendered text. The memo is invisible: `==` compares the
/// instructions only, and `{:?}` prints them whether or not the
/// listing has been rendered.
#[derive(Clone, Default)]
pub struct Program {
    insts: Vec<Inst>,
    listing: OnceLock<Arc<str>>,
}

impl Program {
    /// Wraps a sequence of instructions as a program. Execution starts
    /// at index 0.
    pub fn new(insts: Vec<Inst>) -> Program {
        Program { insts, listing: OnceLock::new() }
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

    /// The program as readable assembly, one instruction per line with
    /// its index. Rendered on the first call; later calls, on this
    /// program or any clone made after it, return the same text.
    pub fn listing(&self) -> &str {
        self.listing.get_or_init(|| render(&self.insts).into())
    }
}

fn render(insts: &[Inst]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (i, inst) in insts.iter().enumerate() {
        let _ = writeln!(out, "{i:5}: {inst}");
    }
    out
}

impl PartialEq for Program {
    fn eq(&self, other: &Program) -> bool {
        self.insts == other.insts
    }
}

impl Eq for Program {}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program").field("insts", &self.insts).finish()
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
        let listing = p.listing();
        assert_eq!(listing.lines().count(), 3);
        assert!(listing.contains("0: nop"));
    }

    fn sample() -> Program {
        let halt = Inst { op: Op::Halt, ..Inst::NOP };
        Program::new(vec![
            Inst::NOP,
            Inst { op: Op::Addi, rd: 5, rs1: 5, imm: -3, ..Inst::NOP },
            halt,
        ])
    }

    #[test]
    fn the_listing_memo_does_not_change_equality() {
        let (a, b) = (sample(), sample());
        assert_eq!(a, b);
        a.listing();
        assert_eq!(a, b, "only one side rendered");
        assert_eq!(b, a);
        let c = a.clone();
        b.listing();
        assert_eq!(a, b, "both rendered");
        assert_eq!(a, c);
        assert_ne!(a, Program::new(vec![Inst::NOP]));
    }

    #[test]
    fn the_listing_memo_does_not_change_debug() {
        let p = sample();
        let before = format!("{p:?}");
        p.listing();
        assert_eq!(format!("{p:?}"), before);
        assert_eq!(format!("{:?}", p.clone()), before);
    }

    #[test]
    fn the_kept_listing_is_a_fresh_render() {
        let p = sample();
        let first = p.listing().to_owned();
        assert_eq!(first, render(p.insts()));
        assert_eq!(p.listing(), first);
        let clone = p.clone();
        assert!(std::ptr::eq(clone.listing(), p.listing()), "clones share the text");
        assert_eq!(Program::new(p.insts().to_vec()).listing(), first);
    }
}
