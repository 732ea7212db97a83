//! Differential suite for budgeted/interrupted solving: a run interrupted on
//! any budget axis and then *retried on the same solver* with the budget
//! lifted must agree **bit-for-bit** — verdict and model values — with an
//! uninterrupted run on a fresh solver. This pins the central recovery
//! guarantee: an interruption never corrupts solver state, because every
//! check re-derives its search state from the clause database.
//!
//! Runs under the CI seed matrix via `CPS_SMT_SEED` like the other
//! differential suites.

mod testutil;

use std::time::{Duration, Instant};

use cps_smt::{Budget, CheckResult, Formula, InterruptReason, SmtError, SmtSolver, VarPool};
use testutil::{env_seed, Gen};

const CASES: u64 = 20;

/// The four interruption axes, each with a budget that trips *immediately* at
/// the first cooperative checkpoint so every generated case really exercises
/// the interrupt-then-retry path.
fn axes() -> Vec<(&'static str, Budget, InterruptReason)> {
    vec![
        (
            "deadline",
            Budget::unlimited().with_deadline(Instant::now() - Duration::from_secs(1)),
            InterruptReason::Deadline,
        ),
        (
            "conflicts",
            Budget::unlimited().with_conflict_cap(0),
            InterruptReason::ConflictBudget,
        ),
        (
            "pivots",
            Budget::unlimited().with_pivot_cap(0),
            InterruptReason::PivotBudget,
        ),
        // Cancellation is wired separately (the token is cancelled up front
        // and reset before the retry).
        ("cancelled", Budget::unlimited(), InterruptReason::Cancelled),
    ]
}

fn build(pool: &VarPool, formulas: &[Formula]) -> SmtSolver {
    let mut solver = SmtSolver::new(pool.clone());
    for f in formulas {
        solver.assert(f.clone());
    }
    solver
}

fn assert_bit_identical(
    reference: &CheckResult,
    retried: &CheckResult,
    pool: &VarPool,
    context: &str,
) {
    match (reference, retried) {
        (CheckResult::Sat(a), CheckResult::Sat(b)) => {
            for var in pool.iter() {
                let (va, vb) = (a.value(var), b.value(var));
                assert!(
                    va.to_bits() == vb.to_bits(),
                    "{context}: model diverged at {var:?}: {va} vs {vb}"
                );
            }
        }
        (CheckResult::Unsat, CheckResult::Unsat) => {}
        _ => panic!("{context}: verdict diverged: {reference:?} vs {retried:?}"),
    }
}

fn run_axis_suite(seed: u64, witness: bool) {
    let mut gen = Gen::new(seed);
    for case in 0..CASES {
        let (pool, formulas) = if witness {
            gen.formula_system(true)
        } else {
            gen.staircase_unsat_system()
        };
        // Reference: uninterrupted check on a fresh solver.
        let reference = build(&pool, &formulas)
            .check()
            .expect("unbudgeted check completes");

        for (axis, budget, expected) in axes() {
            let mut solver = build(&pool, &formulas);
            if axis == "cancelled" {
                solver.cancel_token().cancel();
            } else {
                solver.set_budget(budget);
            }
            let context = format!("case {case} (axis {axis})");
            match solver.check() {
                Err(SmtError::Interrupted { reason, .. }) => {
                    assert_eq!(reason, expected, "{context}: wrong interrupt reason");
                }
                other => panic!("{context}: expected interruption, got {other:?}"),
            }

            // Retry on the SAME solver with the budget lifted.
            solver.set_budget(Budget::unlimited());
            solver.cancel_token().reset();
            let retried = solver
                .check()
                .unwrap_or_else(|e| panic!("{context}: retry failed: {e:?}"));
            assert_bit_identical(&reference, &retried, &pool, &context);
        }
    }
}

#[test]
fn interrupted_then_retried_matches_fresh_run_on_sat_systems() {
    run_axis_suite(env_seed(0x0B5D_5A7), true);
}

#[test]
fn interrupted_then_retried_matches_fresh_run_on_unsat_systems() {
    run_axis_suite(env_seed(0x0B5D_0115), false);
}
