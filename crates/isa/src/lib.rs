#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # vr-isa
//!
//! The instruction-set-architecture layer of the Vector Runahead
//! reproduction: a small 64-bit RISC ISA, a label-resolving program
//! builder ([`Asm`]), a sparse byte-addressed [`Memory`], and a
//! functional (untimed) interpreter ([`Cpu::step`] /
//! [`Cpu::step_spec`]).
//!
//! The ISA is deliberately ISA-agnostic with respect to Vector
//! Runahead's requirements: it exposes register dataflow (so the core
//! can taint-track dependence chains), plain base+displacement
//! loads/stores (so a stride detector sees a clean per-PC address
//! sequence), and explicit conditional branches (so runahead lanes can
//! diverge). There is no exposed vector ISA — Vector Runahead
//! *microarchitecturally* reinterprets scalar instructions as vectors.
//!
//! ## Example
//!
//! ```
//! use vr_isa::{Asm, Cpu, Memory, Reg};
//!
//! // sum = 0; for i in 0..10 { sum += i }
//! let mut a = Asm::new();
//! let (i, sum, n) = (Reg::T0, Reg::T1, Reg::T2);
//! a.li(i, 0);
//! a.li(sum, 0);
//! a.li(n, 10);
//! let top = a.here();
//! a.add(sum, sum, i);
//! a.addi(i, i, 1);
//! a.blt(i, n, top);
//! a.halt();
//! let prog = a.assemble();
//!
//! let mut cpu = Cpu::new();
//! let mut mem = Memory::new();
//! while !cpu.halted() {
//!     cpu.step(&prog, &mut mem).expect("in-bounds pc");
//! }
//! assert_eq!(cpu.x(Reg::T1), 45);
//! ```

mod asm;
mod cpu;
mod inst;
mod mem;
mod overlay;
pub mod prng;
mod program;
mod reg;

pub use asm::{Asm, AsmError, Label};
pub use cpu::{Cpu, MemEffect, RegWrite, Step, StepError};
pub use inst::{Inst, Op, OpClass, SrcIter, Width};
pub use mem::Memory;
pub use overlay::StoreOverlay;
pub use prng::SplitMix64;
pub use program::Program;
pub use reg::{FReg, Reg, RegRef};
