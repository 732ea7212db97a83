//! Property tests for the solver's `push`/`pop` assertion scopes: retracting
//! a scope must restore the solver to a state *bit-identical* to one that
//! never saw the scoped assertions — same verdict, same model values — both
//! for the simple assert → push → assert → pop pattern and for randomized
//! interleavings of asserts, pushes and pops. Scope restoration is what makes
//! warm-started CEGIS rounds equivalent to fresh-per-round ones.

mod testutil;

use cps_linalg::SplitMix64;
use cps_smt::{CheckResult, Formula, SmtSolver, VarId, VarPool};
use testutil::{env_seed, Gen};

const CASES: u64 = 60;

fn fresh_verdict(pool: &VarPool, formulas: &[Formula]) -> CheckResult {
    let mut solver = SmtSolver::new(pool.clone());
    for f in formulas {
        solver.assert(f.clone());
    }
    solver.check().expect("ample budget")
}

/// Generation harness: a pool with ids and a witness point, from which both
/// base and scope formulas are drawn (arbitrary polarity, so verdicts vary).
fn setup(gen: &mut Gen) -> (VarPool, Vec<VarId>, Vec<f64>) {
    let n = 2 + gen.rng.usize_below(3);
    let mut pool = VarPool::new();
    let ids = pool.fresh_block("x", n);
    let point: Vec<f64> = (0..n).map(|_| gen.rng.range(-3.0, 3.0)).collect();
    (pool, ids, point)
}

#[test]
fn pop_restores_the_never_pushed_state() {
    let mut gen = Gen::new(env_seed(0x5C0_9E5));
    for case in 0..CASES {
        let (pool, ids, point) = setup(&mut gen);
        let base: Vec<Formula> = (0..1 + gen.rng.usize_below(3))
            .map(|_| gen.formula(&ids, &point, true, 2))
            .collect();
        let scoped: Vec<Formula> = (0..1 + gen.rng.usize_below(3))
            .map(|_| gen.formula(&ids, &point, false, 2))
            .collect();
        let mut solver = SmtSolver::new(pool.clone());
        for f in &base {
            solver.assert(f.clone());
        }
        solver.push();
        for f in &scoped {
            solver.assert(f.clone());
        }
        let _ = solver.check().expect("ample budget");
        solver.pop();
        let after_pop = solver.check().expect("ample budget");
        let never_pushed = fresh_verdict(&pool, &base);
        assert_eq!(
            after_pop, never_pushed,
            "case {case}: check after pop differs from never-pushed state"
        );
    }
}

#[test]
fn randomized_interleavings_match_flat_assertions() {
    let mut gen = Gen::new(env_seed(0x5C0_1EA7));
    for case in 0..CASES {
        let (pool, ids, point) = setup(&mut gen);
        let mut ops_rng = SplitMix64::new(0xA11CE ^ case);
        // Shadow stack of assertion frames; frame 0 is the base level.
        let mut frames: Vec<Vec<Formula>> = vec![Vec::new()];
        let mut solver = SmtSolver::new(pool.clone());
        for _ in 0..6 + ops_rng.usize_below(8) {
            match ops_rng.usize_below(4) {
                // Assert into the current innermost frame.
                0 | 1 => {
                    let f = gen.formula(&ids, &point, ops_rng.usize_below(2) == 0, 2);
                    solver.assert(f.clone());
                    frames.last_mut().expect("frame 0 always exists").push(f);
                }
                2 => {
                    solver.push();
                    frames.push(Vec::new());
                }
                _ => {
                    if frames.len() > 1 {
                        solver.pop();
                        frames.pop();
                    }
                }
            }
            // Occasionally check mid-sequence: scope bookkeeping must survive
            // checks interleaved with pushes and pops.
            if ops_rng.usize_below(4) == 0 {
                let _ = solver.check().expect("ample budget");
            }
        }
        assert_eq!(solver.scope_depth(), frames.len() - 1);
        let live: Vec<Formula> = frames.iter().flatten().cloned().collect();
        let interleaved = solver.check().expect("ample budget");
        let flat = fresh_verdict(&pool, &live);
        assert_eq!(
            interleaved, flat,
            "case {case}: interleaved push/pop state diverged from flat assertions"
        );
    }
}
