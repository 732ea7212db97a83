//! Pinned solver work counts on the VSC exact dead-zone queries.
//!
//! The simplex's float arithmetic decides which pivot comes next, so a
//! kernel change that alters one rounding shows up here as a different
//! search: more or fewer pivots, queue pops, rebuilds or derived bounds.
//! A change that is meant to make each step cheaper without touching the
//! search must leave every count below as it is. A change that is meant to
//! move the search (equilibration, a pivot cap, a different Bland switch)
//! updates these numbers on purpose and says why.

use cps_smt::SolverStats;
use secure_cps::{AttackSynthesizer, PartialThreshold, SynthesisConfig, SynthesizedAttack};

fn vsc_config(horizon: Option<usize>) -> SynthesisConfig {
    SynthesisConfig {
        horizon_override: horizon,
        convergence_margin: 0.25,
        ..SynthesisConfig::default()
    }
}

/// The first threshold-constrained CEGIS round: the undefended attack's
/// residue peak, shrunk by the convergence margin (as Algorithm 2 builds it).
fn first_round(synth: &AttackSynthesizer<'_>, attack: &SynthesizedAttack) -> PartialThreshold {
    let (pivot, value) = attack.pivot();
    let mut th: PartialThreshold = vec![None; synth.horizon()];
    th[pivot] = Some((value * (1.0 - synth.config().convergence_margin)).max(1e-6));
    th
}

/// Every work count of `stats`: all fields but the wall-clock
/// `simplex_nanos`.
fn work(stats: SolverStats) -> SolverStats {
    SolverStats {
        simplex_nanos: 0,
        ..stats
    }
}

/// Work counts in the order decisions, conflicts, theory checks, theory
/// conflicts, pivots, rebuilds, implied bounds, propagated literals,
/// explanation literals, queue pops, scopes reused. Restarts and deleted
/// clauses are always 0.
fn counts(c: [u64; 11]) -> SolverStats {
    SolverStats {
        decisions: c[0],
        conflicts: c[1],
        theory_checks: c[2],
        theory_conflicts: c[3],
        pivots: c[4],
        theory_rebuilds: c[5],
        implied_bounds: c[6],
        propagated_literals: c[7],
        explanation_literals: c[8],
        queue_pops: c[9],
        scopes_reused: c[10],
        ..SolverStats::default()
    }
}

/// The `solver_ablation` bench's T=12 threshold round: the exact VSC query
/// with the first round's threshold installed, on the warm synthesizer that
/// answered the undefended query.
#[test]
fn vsc_t12_threshold_round_work_counts_are_pinned() {
    let vsc = cps_models::vsc().expect("model builds");
    let synth = AttackSynthesizer::new(&vsc, vsc_config(Some(12)));
    let attack = synth
        .synthesize(None)
        .expect("query decided")
        .expect("the undefended T=12 VSC is attackable");
    let th = first_round(&synth, &attack);
    synth.synthesize(Some(&th)).expect("query decided");
    assert_eq!(
        work(synth.last_solver_stats()),
        counts([81, 35, 81, 35, 181, 1, 1932, 53, 114, 5078, 1])
    );
}

/// The three queries of one `vsc-t50` benchmark cycle at the paper's full
/// horizon, on one warm synthesizer: undefended (SAT), the first
/// threshold-constrained round (SAT) and a tight 1e-4 staircase (the UNSAT
/// certificate shape). A few seconds in a release build, far longer in a
/// debug build (the simplex audits its tableau after every pivot there), hence
/// release-only and ignored by default:
///
/// ```text
/// cargo test --release --test solver_counts -- --ignored
/// ```
///
/// ROADMAP item 2 (equilibration, a pivot cap) is expected to move these
/// counts deliberately: the pivot *count* is what it sets out to cut.
#[cfg(not(debug_assertions))]
#[test]
#[ignore = "release-only T=50 pin; run with --release -- --ignored"]
fn vsc_t50_cycle_work_counts_are_pinned() {
    let vsc = cps_models::vsc().expect("model builds");
    let synth = AttackSynthesizer::new(&vsc, vsc_config(None));
    assert_eq!(synth.horizon(), 50);
    let attack = synth
        .synthesize(None)
        .expect("query decided")
        .expect("the undefended T=50 VSC is attackable (Fig. 2)");
    assert_eq!(
        work(synth.last_solver_stats()),
        counts([357, 159, 357, 159, 5112, 25, 36636, 179, 2311, 206_966, 0]),
        "undefended"
    );
    let th = first_round(&synth, &attack);
    let round1 = synth.synthesize(Some(&th)).expect("query decided");
    assert!(round1.is_some(), "round 1 is SAT");
    assert_eq!(
        work(synth.last_solver_stats()),
        counts([356, 158, 356, 158, 10_606, 27, 39011, 187, 2363, 784_736, 1]),
        "round1"
    );
    let tight: PartialThreshold = vec![Some(1e-4); synth.horizon()];
    let certificate = synth.synthesize(Some(&tight)).expect("query decided");
    assert!(certificate.is_none(), "the 1e-4 staircase is UNSAT");
    assert_eq!(
        work(synth.last_solver_stats()),
        counts([6, 6, 6, 6, 122, 0, 0, 0, 110, 2729, 1]),
        "certificate"
    );
}
