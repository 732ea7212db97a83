//! Per-layer metrics and exact counts shared by the workloads.

use cps_models::Benchmark;
use cps_smt::SolverStats;
use secure_cps::UnrolledLoop;

use crate::replay::Replay;
use crate::report::Report;
use crate::trace::{median_of, OpProfile};

/// The simplex's pivot tolerance (`PIVOT_EPS` in `cps_smt::simplex`):
/// coefficients below it cannot be pivoted on.
const PIVOT_EPS: f64 = 1e-7;

/// The solver's exact work counts: every statistic except time and
/// `scopes_reused` (which differs between a warm solver's first and later
/// checks). They repeat exactly for a repeated query.
pub fn work_counts(s: &SolverStats) -> [(&'static str, u64); 12] {
    [
        ("smt.pivots", s.pivots),
        ("smt.queue_pops", s.queue_pops),
        ("smt.rebuilds", s.theory_rebuilds),
        ("smt.decisions", s.decisions),
        ("smt.conflicts", s.conflicts),
        ("smt.theory_checks", s.theory_checks),
        ("smt.theory_conflicts", s.theory_conflicts),
        ("smt.implied_bounds", s.implied_bounds),
        ("smt.propagated_literals", s.propagated_literals),
        ("smt.explanation_literals", s.explanation_literals),
        ("smt.restarts", s.restarts),
        ("smt.clauses_deleted", s.clauses_deleted),
    ]
}

/// Exact solver counts for the steadiness check.
pub fn solver_counts(report: &mut Report, s: &SolverStats, suffix: &str) {
    for (name, value) in work_counts(s) {
        report.count(&format!("{name}{suffix}"), value);
    }
    report.count(&format!("smt.scopes_reused{suffix}"), s.scopes_reused);
}

/// The solver's per-layer metrics from one operation's statistics.
pub fn solver_metrics(report: &mut Report, s: &SolverStats) {
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    report.metric("smt.pivots", s.pivots as f64, "count");
    report.metric(
        "smt.pivots_per_check",
        ratio(s.pivots, s.theory_checks),
        "ratio",
    );
    report.metric("smt.queue_pops", s.queue_pops as f64, "count");
    report.metric("smt.rebuilds", s.theory_rebuilds as f64, "count");
    report.metric("smt.decisions", s.decisions as f64, "count");
    report.metric("smt.conflicts", s.conflicts as f64, "count");
    report.metric("smt.theory_checks", s.theory_checks as f64, "count");
    report.metric(
        "smt.theory_conflict_ratio",
        ratio(s.theory_conflicts, s.theory_checks),
        "ratio",
    );
    report.metric("smt.implied_bounds", s.implied_bounds as f64, "count");
    report.metric(
        "smt.propagated_literals",
        s.propagated_literals as f64,
        "count",
    );
    report.metric("smt.explanation_len", s.mean_explanation_len(), "literals");
    report.metric("smt.restarts", s.restarts as f64, "count");
    report.metric("smt.clauses_deleted", s.clauses_deleted as f64, "count");
    report.metric("smt.scopes_reused", s.scopes_reused as f64, "count");
}

/// Scaling of the encoding: the max/min |coefficient| over the unrolled
/// residue rows, and how many coefficients fall below the pivot tolerance.
pub fn encoder_metrics(report: &mut Report, benchmark: &Benchmark) {
    let unrolled = UnrolledLoop::new(benchmark);
    let (mut lo, mut hi, mut tiny) = (f64::INFINITY, 0.0_f64, 0u64);
    for k in 0..unrolled.horizon() {
        for j in 0..unrolled.num_residue_components() {
            for (_, c) in unrolled.residue(k, j).terms() {
                let c = c.abs();
                if c > 0.0 {
                    lo = lo.min(c);
                    hi = hi.max(c);
                    tiny += u64::from(c < PIVOT_EPS);
                }
            }
        }
    }
    let range = if hi > 0.0 { hi / lo } else { 1.0 };
    report.metric("encoder.coeff_range", range, "ratio");
    report.metric("encoder.coeffs_below_pivot_eps", tiny as f64, "count");
    report.count("encoder.coeffs_below_pivot_eps", tiny);
}

/// The rollout / filter / scan metrics of the FAR replay, medians over the
/// replay operations; `r` is one replay's counts (identical across them).
pub fn replay_metrics(report: &mut Report, replays: &[&OpProfile], r: &Replay) {
    let med = |key: &str| median_of(replays, |p| p.total_s(key));
    let rollout = med("control.rollout");
    report.metric("control.rollout_s", rollout, "s");
    report.metric(
        "control.steps_per_s",
        r.steps_simulated as f64 / rollout,
        "1/s",
    );
    report.metric("monitors.filter_s", med("monitors.filter"), "s");
    report.metric(
        "monitors.discard_ratio",
        (r.trials - r.kept) as f64 / r.trials as f64,
        "ratio",
    );
    report.metric("detectors.scan_s", med("detectors.scan"), "s");
    let alarms: usize = r.alarms.iter().sum();
    let scans = (r.kept * r.alarms.len()).max(1);
    report.metric(
        "detectors.alarm_ratio",
        alarms as f64 / scans as f64,
        "ratio",
    );
    report.metric("detectors.steps_scanned", r.steps_scanned as f64, "count");
}
