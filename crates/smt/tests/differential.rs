//! Randomized differential suite for the DPLL(T) solver: systems with
//! verdicts known **by construction** are checked against those verdicts.
//!
//! Two generator families pin the verdict in advance:
//! - *witnessed-SAT*: every atom holds at a hidden witness point, so any
//!   `Unsat` is a soundness failure;
//! - *staircase-UNSAT*: a descending chain of difference bounds whose total
//!   drop contradicts the closing demand, so any `Sat` is a completeness
//!   failure — and its model would be a fabricated CEGIS counterexample.
//!
//! A third test mixes both families in one query (the staircase poisons the
//! witnessed system), which forces real conflict-clause learning before the
//! `Unsat` verdict. A fourth test draws systems of arbitrary polarity, whose
//! verdicts are not known in advance, and checks every model returned.
//!
//! The tests' `_on_every_corner` suffix dates from when the solver had a grid
//! of configurations; it is kept so the test names stay stable.

mod testutil;

use cps_smt::{CheckResult, Formula, SmtSolver, VarPool};
use testutil::{env_seed, eval, Gen};

const CASES: u64 = 80;

fn verdict(pool: &VarPool, formulas: &[Formula]) -> CheckResult {
    let mut solver = SmtSolver::new(pool.clone());
    for f in formulas {
        solver.assert(f.clone());
    }
    solver
        .check()
        .expect("budget is ample for generated systems")
}

#[test]
fn witnessed_sat_systems_are_sat_on_every_corner() {
    let mut gen = Gen::new(env_seed(0x5EED_5A7));
    for case in 0..CASES {
        let (pool, formulas) = gen.formula_system(true);
        match verdict(&pool, &formulas) {
            CheckResult::Sat(model) => {
                for f in &formulas {
                    assert!(eval(f, model.values()), "case {case}: model violates {f}");
                }
            }
            CheckResult::Unsat => panic!("case {case}: witness-backed system declared unsat"),
        }
    }
}

#[test]
fn staircase_unsat_systems_are_unsat_on_every_corner() {
    let mut gen = Gen::new(env_seed(0x5EED_0115));
    for case in 0..CASES {
        let (pool, formulas) = gen.staircase_unsat_system();
        assert_eq!(
            verdict(&pool, &formulas),
            CheckResult::Unsat,
            "case {case}: contradictory staircase declared sat"
        );
    }
}

/// Merges a witnessed-SAT system with a staircase-UNSAT system over a shared
/// pool: the conjunction is UNSAT, but the solver has to *search* for the
/// contradiction through the satisfiable clutter.
#[test]
fn poisoned_systems_are_unsat_on_every_corner() {
    let mut gen = Gen::new(env_seed(0x5EED_B0B));
    for case in 0..CASES {
        let (mut pool, mut formulas) = gen.formula_system(true);
        // Append a contradictory staircase over fresh variables of the same
        // pool: the combined conjunction is UNSAT, found only by search.
        formulas.extend(gen.staircase_unsat_into(&mut pool));
        assert_eq!(
            verdict(&pool, &formulas),
            CheckResult::Unsat,
            "case {case}: poisoned system declared sat"
        );
    }
}

/// Systems of arbitrary polarity (no witness): every `Sat` model must
/// satisfy every asserted formula, and the generator must produce both
/// verdicts so the check is not vacuous.
#[test]
fn arbitrary_systems_yield_valid_models_and_both_verdicts() {
    let mut gen = Gen::new(env_seed(0xD1CE));
    let mut sat = 0usize;
    let mut unsat = 0usize;
    for case in 0..120 {
        let (pool, formulas) = gen.formula_system(false);
        match verdict(&pool, &formulas) {
            CheckResult::Sat(model) => {
                for f in &formulas {
                    assert!(eval(f, model.values()), "case {case}: model violates {f}");
                }
                sat += 1;
            }
            CheckResult::Unsat => unsat += 1,
        }
    }
    assert!(sat > 0, "generator never produced a satisfiable system");
    assert!(
        unsat > 0,
        "generator never produced an unsatisfiable system"
    );
}
