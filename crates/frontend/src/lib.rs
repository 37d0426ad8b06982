#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # vr-frontend
//!
//! Front-end prediction structures for the Vector Runahead
//! reproduction: conditional-branch direction predictors (a TAGE
//! predictor modelled after the 8 KB TAGE-SC-L family the paper
//! configures, and the bimodal predictor whose 2-bit counters form
//! TAGE's base table), a branch target buffer, and a return address
//! stack.
//!
//! The timing model in `vr-core` is functional-first: the true branch
//! outcome is known at fetch, so predictors expose a single
//! [`DirectionPredictor::predict_and_train`] entry point — predict,
//! then immediately train in program order. This sidesteps the
//! speculative-history repair machinery a real TAGE needs without
//! changing its steady-state accuracy, because this simulator never
//! fetches wrong-path branches.
//!
//! ```
//! use vr_frontend::{DirectionPredictor, Tage};
//!
//! let mut p = Tage::default_8kb();
//! // A loop branch: taken 99 times, then not taken — TAGE learns it.
//! let mut mispredicts = 0;
//! for round in 0..50 {
//!     for i in 0..100 {
//!         let taken = i != 99;
//!         let pred = p.predict_and_train(0x40, taken);
//!         if round > 10 && pred != taken {
//!             mispredicts += 1;
//!         }
//!     }
//! }
//! assert!(mispredicts < 39 * 100 / 10, "TAGE should learn the loop");
//! ```

mod bimodal;
mod btb;
mod ras;
mod scl;
mod tage;

pub use bimodal::Bimodal;
pub use btb::{Btb, BtbEntry};
pub use ras::Ras;
pub use scl::{LoopPredictor, StatisticalCorrector, TageScL};
pub use tage::{Tage, TageConfig};

/// A conditional-branch direction predictor.
///
/// `predict_and_train` makes a prediction for the branch at `pc`, then
/// immediately updates the predictor with the true outcome `taken`
/// (in-order train-at-fetch; see the crate docs for why this is sound
/// here). Returns the *prediction*, which the core compares with
/// `taken` to decide whether to charge a misprediction.
pub trait DirectionPredictor {
    /// Predicts the direction of the branch at `pc` and trains with
    /// the actual outcome.
    fn predict_and_train(&mut self, pc: u64, taken: bool) -> bool;
}
