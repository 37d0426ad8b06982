//! Property-style tests for the branch predictors, run as seeded
//! loops over `vr_isa::SplitMix64` (the workspace builds offline, so
//! no `proptest`).

use vr_frontend::{Bimodal, DirectionPredictor, Tage};
use vr_isa::SplitMix64;

fn arb_trace(rng: &mut SplitMix64) -> Vec<(u64, bool)> {
    let len = rng.range(1, 2000);
    (0..len).map(|_| (rng.below(256), rng.flip())).collect()
}

/// Predictors are deterministic state machines: identical traces
/// produce identical prediction sequences.
#[test]
fn tage_is_deterministic() {
    let mut rng = SplitMix64::new(0xF40_0001);
    for case in 0..32 {
        let trace = arb_trace(&mut rng);
        let run = |mut p: Tage| -> Vec<bool> {
            trace.iter().map(|&(pc, t)| p.predict_and_train(pc, t)).collect()
        };
        assert_eq!(run(Tage::default_8kb()), run(Tage::default_8kb()), "case {case}");
    }
}

/// A cloned predictor mid-stream continues identically to the
/// original (no hidden external state).
#[test]
fn tage_clone_equivalence() {
    let mut rng = SplitMix64::new(0xF40_0002);
    for case in 0..32 {
        let trace = arb_trace(&mut rng);
        let split = (rng.below(500) as usize).min(trace.len());
        let mut p = Tage::default_8kb();
        for &(pc, t) in &trace[..split] {
            p.predict_and_train(pc, t);
        }
        let mut q = p.clone();
        for &(pc, t) in &trace[split..] {
            assert_eq!(p.predict_and_train(pc, t), q.predict_and_train(pc, t), "case {case}");
        }
    }
}

/// On a perfectly-biased branch every predictor converges to
/// near-perfect accuracy.
#[test]
fn all_predictors_learn_constant_branches() {
    fn late_accuracy(p: &mut dyn DirectionPredictor, pc: u64, taken: bool) -> f64 {
        let mut correct = 0;
        for i in 0..200 {
            let pred = p.predict_and_train(pc, taken);
            if i >= 100 && pred == taken {
                correct += 1;
            }
        }
        correct as f64 / 100.0
    }
    let mut rng = SplitMix64::new(0xF40_0003);
    for case in 0..32 {
        let pc = rng.below(4096);
        let taken = rng.flip();
        let mut bim = Bimodal::default();
        let mut tage = Tage::default_8kb();
        assert!(late_accuracy(&mut bim, pc, taken) == 1.0, "case {case}");
        assert!(late_accuracy(&mut tage, pc, taken) >= 0.99, "case {case}");
    }
}
