//! Instruction definitions and static dataflow queries.

use core::fmt;

use crate::reg::{FReg, Reg, RegRef};

/// Memory access width in bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Width {
    /// 1 byte.
    B,
    /// 2 bytes.
    H,
    /// 4 bytes.
    W,
    /// 8 bytes.
    D,
}

impl Width {
    /// Access size in bytes.
    pub const fn bytes(self) -> u64 {
        match self {
            Width::B => 1,
            Width::H => 2,
            Width::W => 4,
            Width::D => 8,
        }
    }
}

/// Operation of an [`Inst`].
///
/// Field conventions (see [`Inst`]): `rd` is the destination, `rs1` and
/// `rs2` are sources, `imm` is a 64-bit immediate whose meaning is
/// per-op (arithmetic immediate, address displacement, or absolute
/// branch target instruction index).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    /// No operation.
    Nop,
    /// Stop the machine.
    Halt,

    // ---- integer register-register: rd = rs1 <op> rs2 ----
    /// Wrapping add.
    Add,
    /// Wrapping subtract.
    Sub,
    /// Wrapping multiply (low 64 bits).
    Mul,
    /// Unsigned divide; division by zero yields `u64::MAX` (RISC-V
    /// semantics).
    Divu,
    /// Unsigned remainder; remainder by zero yields the dividend.
    Remu,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left by `rs2 & 63`.
    Sll,
    /// Logical shift right by `rs2 & 63`.
    Srl,
    /// Arithmetic shift right by `rs2 & 63`.
    Sra,
    /// Signed set-less-than.
    Slt,
    /// Unsigned set-less-than.
    Sltu,
    /// Signed minimum (convenience op used by graph kernels).
    Min,
    /// Unsigned minimum.
    Minu,

    // ---- integer register-immediate: rd = rs1 <op> imm ----
    /// Wrapping add immediate.
    Addi,
    /// Bitwise AND immediate.
    Andi,
    /// Bitwise OR immediate.
    Ori,
    /// Bitwise XOR immediate.
    Xori,
    /// Logical shift left by `imm & 63`.
    Slli,
    /// Logical shift right by `imm & 63`.
    Srli,
    /// Arithmetic shift right by `imm & 63`.
    Srai,
    /// Signed set-less-than immediate.
    Slti,
    /// Unsigned set-less-than immediate.
    Sltiu,
    /// Load 64-bit immediate: rd = imm.
    Li,

    // ---- memory ----
    /// Zero-extending load: rd = mem[x\[rs1\] + imm].
    Ld(Width),
    /// Store: mem[x\[rs1\] + imm] = x\[rs2\].
    St(Width),
    /// Floating-point load (8 bytes): fd = mem[x\[rs1\] + imm].
    Fld,
    /// Floating-point store (8 bytes): mem[x\[rs1\] + imm] = f\[fs2\].
    Fst,

    // ---- floating point: fd = fs1 <op> fs2 ----
    /// FP add.
    Fadd,
    /// FP subtract.
    Fsub,
    /// FP multiply.
    Fmul,
    /// FP divide.
    Fdiv,
    /// Convert unsigned integer x\[rs1\] to f64 fd.
    Fcvt,
    /// Truncate f64 f\[fs1\] to unsigned integer rd.
    Fcvti,
    /// Set rd = 1 if f\[fs1\] < f\[fs2\], else 0.
    Flt,
    /// Set rd = 1 if f\[fs1\] == f\[fs2\], else 0.
    Feq,

    // ---- control flow; imm = absolute target instruction index ----
    /// Branch if equal.
    Beq,
    /// Branch if not equal.
    Bne,
    /// Signed less-than branch.
    Blt,
    /// Signed greater-or-equal branch.
    Bge,
    /// Unsigned less-than branch.
    Bltu,
    /// Unsigned greater-or-equal branch.
    Bgeu,
    /// Unconditional jump; rd = pc + 1 (link), pc = imm.
    Jal,
    /// Indirect jump; rd = pc + 1 (link), pc = x\[rs1\] + imm.
    Jalr,
}

/// Functional-unit class an instruction executes on; consumed by the
/// timing model's issue logic.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OpClass {
    /// Simple integer ALU (adds, logic, shifts, compares).
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide.
    IntDiv,
    /// Floating-point add/sub/convert/compare.
    FpAdd,
    /// Floating-point multiply.
    FpMul,
    /// Floating-point divide.
    FpDiv,
    /// Memory load (integer or fp).
    Load,
    /// Memory store (integer or fp).
    Store,
    /// Conditional or unconditional control flow.
    Branch,
    /// No functional unit required (nop, halt).
    None,
}

/// One machine instruction.
///
/// A flat four-field record: the operation plus up to one destination,
/// two register sources, and one immediate. Whether `rd`/`rs1`/`rs2`
/// name the integer or floating-point file is determined by the op
/// (see [`Inst::dst`] and [`Inst::srcs`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Inst {
    /// The operation.
    pub op: Op,
    /// Destination register index.
    pub rd: u8,
    /// First source register index.
    pub rs1: u8,
    /// Second source register index.
    pub rs2: u8,
    /// Immediate operand (op-specific meaning).
    pub imm: i64,
}

impl Inst {
    /// A canonical no-op.
    pub const NOP: Inst = Inst { op: Op::Nop, rd: 0, rs1: 0, rs2: 0, imm: 0 };

    /// Destination register, if the instruction writes one.
    ///
    /// Writes to the hardwired zero register are reported as `None`.
    pub fn dst(&self) -> Option<RegRef> {
        use Op::*;
        let int_dst = |r: u8| {
            let reg = Reg::new(r);
            (!reg.is_zero()).then_some(RegRef::Int(reg))
        };
        match self.op {
            Nop | Halt | St(_) | Fst | Beq | Bne | Blt | Bge | Bltu | Bgeu => None,
            Fld | Fadd | Fsub | Fmul | Fdiv | Fcvt => Some(RegRef::Fp(FReg::new(self.rd))),
            Jal | Jalr => int_dst(self.rd),
            _ => int_dst(self.rd),
        }
    }

    /// Source registers read by the instruction (at most two).
    ///
    /// Reads of the hardwired zero register are still reported (they
    /// rename to a constant-zero physical register in the core model).
    pub fn srcs(&self) -> SrcIter {
        use Op::*;
        let int1 = RegRef::Int(Reg::new(self.rs1));
        let int2 = RegRef::Int(Reg::new(self.rs2));
        let fp1 = RegRef::Fp(FReg::new(self.rs1));
        let fp2 = RegRef::Fp(FReg::new(self.rs2));
        let (a, b) = match self.op {
            Nop | Halt | Li | Jal => (None, None),
            Add | Sub | Mul | Divu | Remu | And | Or | Xor | Sll | Srl | Sra | Slt | Sltu | Min
            | Minu => (Some(int1), Some(int2)),
            Addi | Andi | Ori | Xori | Slli | Srli | Srai | Slti | Sltiu => (Some(int1), None),
            Ld(_) | Fld | Jalr => (Some(int1), None),
            St(_) => (Some(int1), Some(int2)),
            Fst => (Some(int1), Some(fp2)),
            Fadd | Fsub | Fmul | Fdiv => (Some(fp1), Some(fp2)),
            Fcvt => (Some(int1), None),
            Fcvti => (Some(fp1), None),
            Flt | Feq => (Some(fp1), Some(fp2)),
            Beq | Bne | Blt | Bge | Bltu | Bgeu => (Some(int1), Some(int2)),
        };
        SrcIter { items: [a, b], next: 0 }
    }

    /// Whether this instruction reads memory.
    pub fn is_load(&self) -> bool {
        matches!(self.op, Op::Ld(_) | Op::Fld)
    }

    /// Whether this instruction writes memory.
    pub fn is_store(&self) -> bool {
        matches!(self.op, Op::St(_) | Op::Fst)
    }

    /// Whether this instruction is a conditional branch.
    pub fn is_cond_branch(&self) -> bool {
        matches!(self.op, Op::Beq | Op::Bne | Op::Blt | Op::Bge | Op::Bltu | Op::Bgeu)
    }

    /// Memory access width, if this is a load or store.
    pub fn mem_width(&self) -> Option<Width> {
        match self.op {
            Op::Ld(w) | Op::St(w) => Some(w),
            Op::Fld | Op::Fst => Some(Width::D),
            _ => None,
        }
    }

    /// Functional-unit class.
    pub fn class(&self) -> OpClass {
        use Op::*;
        match self.op {
            Nop | Halt => OpClass::None,
            Mul => OpClass::IntMul,
            Divu | Remu => OpClass::IntDiv,
            Fadd | Fsub | Fcvt | Fcvti | Flt | Feq => OpClass::FpAdd,
            Fmul => OpClass::FpMul,
            Fdiv => OpClass::FpDiv,
            Ld(_) | Fld => OpClass::Load,
            St(_) | Fst => OpClass::Store,
            Beq | Bne | Blt | Bge | Bltu | Bgeu | Jal | Jalr => OpClass::Branch,
            _ => OpClass::IntAlu,
        }
    }
}

/// Iterator over an instruction's source registers; produced by
/// [`Inst::srcs`].
#[derive(Clone, Debug)]
pub struct SrcIter {
    items: [Option<RegRef>; 2],
    next: usize,
}

impl Iterator for SrcIter {
    type Item = RegRef;

    fn next(&mut self) -> Option<RegRef> {
        while self.next < 2 {
            let item = self.items[self.next];
            self.next += 1;
            if item.is_some() {
                return item;
            }
        }
        None
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Op::*;
        let (rd, rs1, rs2, imm) = (self.rd, self.rs1, self.rs2, self.imm);
        match self.op {
            Nop => write!(f, "nop"),
            Halt => write!(f, "halt"),
            Li => write!(f, "li x{rd}, {imm}"),
            Ld(w) => write!(f, "ld{} x{rd}, {imm}(x{rs1})", width_suffix(w)),
            St(w) => write!(f, "st{} x{rs2}, {imm}(x{rs1})", width_suffix(w)),
            Fld => write!(f, "fld f{rd}, {imm}(x{rs1})"),
            Fst => write!(f, "fst f{rs2}, {imm}(x{rs1})"),
            Jal => write!(f, "jal x{rd}, @{imm}"),
            Jalr => write!(f, "jalr x{rd}, x{rs1}, {imm}"),
            Beq | Bne | Blt | Bge | Bltu | Bgeu => {
                write!(f, "{:?} x{rs1}, x{rs2}, @{imm}", self.op)
            }
            Addi | Andi | Ori | Xori | Slli | Srli | Srai | Slti | Sltiu => {
                write!(f, "{:?} x{rd}, x{rs1}, {imm}", self.op)
            }
            Fadd | Fsub | Fmul | Fdiv => write!(f, "{:?} f{rd}, f{rs1}, f{rs2}", self.op),
            Fcvt => write!(f, "fcvt f{rd}, x{rs1}"),
            Fcvti => write!(f, "fcvti x{rd}, f{rs1}"),
            Flt | Feq => write!(f, "{:?} x{rd}, f{rs1}, f{rs2}", self.op),
            _ => write!(f, "{:?} x{rd}, x{rs1}, x{rs2}", self.op),
        }
    }
}

fn width_suffix(w: Width) -> &'static str {
    match w {
        Width::B => "b",
        Width::H => "h",
        Width::W => "w",
        Width::D => "d",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(op: Op, rd: u8, rs1: u8, rs2: u8, imm: i64) -> Inst {
        Inst { op, rd, rs1, rs2, imm }
    }

    #[test]
    fn dst_of_zero_register_write_is_none() {
        let i = inst(Op::Add, 0, 1, 2, 0);
        assert_eq!(i.dst(), None);
    }

    #[test]
    fn load_store_dataflow() {
        let ld = inst(Op::Ld(Width::D), 5, 10, 0, 16);
        assert!(ld.is_load());
        assert!(!ld.is_store());
        assert_eq!(ld.dst(), Some(RegRef::Int(Reg::T0)));
        assert_eq!(ld.srcs().collect::<Vec<_>>(), vec![RegRef::Int(Reg::A0)]);
        assert_eq!(ld.mem_width(), Some(Width::D));

        let st = inst(Op::St(Width::W), 0, 10, 11, 8);
        assert!(st.is_store());
        assert_eq!(st.dst(), None);
        assert_eq!(st.srcs().collect::<Vec<_>>(), vec![RegRef::Int(Reg::A0), RegRef::Int(Reg::A1)]);
    }

    #[test]
    fn fp_ops_use_fp_register_file() {
        let fadd = inst(Op::Fadd, 1, 2, 3, 0);
        assert_eq!(fadd.dst(), Some(RegRef::Fp(FReg::F1)));
        assert_eq!(
            fadd.srcs().collect::<Vec<_>>(),
            vec![RegRef::Fp(FReg::F2), RegRef::Fp(FReg::F3)]
        );
        let fst = inst(Op::Fst, 0, 10, 4, 0);
        assert_eq!(
            fst.srcs().collect::<Vec<_>>(),
            vec![RegRef::Int(Reg::A0), RegRef::Fp(FReg::F4)]
        );
    }

    #[test]
    fn branch_classification() {
        let b = inst(Op::Blt, 0, 1, 2, 42);
        assert!(b.is_cond_branch());
        assert_eq!(b.class(), OpClass::Branch);
        let j = inst(Op::Jal, 1, 0, 0, 7);
        assert!(!j.is_cond_branch());
    }

    #[test]
    fn fu_classes() {
        assert_eq!(inst(Op::Mul, 1, 2, 3, 0).class(), OpClass::IntMul);
        assert_eq!(inst(Op::Divu, 1, 2, 3, 0).class(), OpClass::IntDiv);
        assert_eq!(inst(Op::Fdiv, 1, 2, 3, 0).class(), OpClass::FpDiv);
        assert_eq!(inst(Op::Fld, 1, 2, 0, 0).class(), OpClass::Load);
        assert_eq!(inst(Op::Nop, 0, 0, 0, 0).class(), OpClass::None);
    }

    #[test]
    fn width_bytes() {
        assert_eq!(Width::B.bytes(), 1);
        assert_eq!(Width::H.bytes(), 2);
        assert_eq!(Width::W.bytes(), 4);
        assert_eq!(Width::D.bytes(), 8);
    }

    #[test]
    fn display_is_nonempty_for_all_ops() {
        let i = inst(Op::Ld(Width::D), 5, 10, 0, 16);
        assert_eq!(i.to_string(), "ldd x5, 16(x10)");
        assert!(!inst(Op::Halt, 0, 0, 0, 0).to_string().is_empty());
    }
}
