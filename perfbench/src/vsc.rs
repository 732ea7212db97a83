//! `vsc-t50`: the paper's case study at full scale — the vehicle stability
//! controller at T=50 with exact dead-zone encoding. Each operation is one
//! cycle of the three Algorithm 1 queries a CEGIS run issues, on one warm
//! `AttackSynthesizer`:
//!
//! - `undefended`: no residue detector; must be SAT (the Fig. 2 attack);
//! - `round1`: the first threshold-constrained round, its threshold built
//!   from the undefended attack as `cps_bench::first_round_threshold` does;
//!   must be SAT;
//! - `certificate`: a tight 1e-4 staircase; must be UNSAT.
//!
//! The instance is the paper's fixed one: this workload ignores `--seed`.

use cps_models::Benchmark;
use cps_smt::{SmtError, SolverStats};
use secure_cps::{AttackSynthesizer, PartialThreshold, SynthesisConfig};

use crate::report::{Oracle, Report};
use crate::trace::{median_of, of_kind, Tracer};
use crate::{layers, stats, Args};

/// Height of the certificate query's staircase: far below every residue the
/// attack needs, so the query must come back UNSAT.
const TIGHT: f64 = 1e-4;
const KINDS: [&str; 3] = ["undefended", "round1", "certificate"];

fn config() -> SynthesisConfig {
    SynthesisConfig {
        convergence_margin: 0.25,
        ..SynthesisConfig::default()
    }
}

/// One query's result as the oracle and the metrics see it.
#[derive(Debug, Clone, Copy)]
struct Query {
    stats: SolverStats,
    wall_s: f64,
}

/// Runs one Algorithm 1 query and its oracle. Spans: `attack.synthesize`
/// (labelled with the query kind, with a derived `smt.simplex` child) and,
/// for a counterexample, `attack.verify`.
fn query(
    synth: &AttackSynthesizer<'_>,
    threshold: Option<&[Option<f64>]>,
    kind: &str,
    expect_sat: bool,
    tracer: &mut Tracer,
    oracle: &mut Oracle,
) -> (Query, Option<secure_cps::SynthesizedAttack>) {
    let span = tracer.begin("attack.synthesize", kind);
    let (result, wall_s) = crate::timed(|| synth.synthesize(threshold));
    tracer.end(span);
    let stats = match &result {
        Ok(_) => synth.last_solver_stats(),
        Err(SmtError::Interrupted { stats, .. }) => *stats,
        Err(_) => SolverStats::default(),
    };
    tracer.derived(span, "smt.simplex", stats.simplex_nanos);
    let attack = match result {
        Err(e) => {
            oracle.0.push(format!("{kind}: {e}"));
            None
        }
        Ok(attack) => {
            oracle.check(attack.is_some() == expect_sat, || {
                format!(
                    "{kind}: expected {}",
                    if expect_sat { "SAT" } else { "UNSAT" }
                )
            });
            if let Some(a) = &attack {
                let span = tracer.begin("attack.verify", kind);
                let verified = synth.verify_attack(a, threshold);
                tracer.end(span);
                oracle.check(verified, || {
                    format!("{kind}: counterexample fails verify_attack")
                });
            }
            attack
        }
    };
    (Query { stats, wall_s }, attack)
}

/// The first threshold-constrained round, as `cps_bench::first_round_threshold`
/// builds it: the undefended attack's residue pivot, shrunk by the
/// convergence margin.
fn first_round(
    synth: &AttackSynthesizer<'_>,
    attack: &secure_cps::SynthesizedAttack,
) -> PartialThreshold {
    let (pivot, value) = attack.pivot();
    let mut th: PartialThreshold = vec![None; synth.horizon()];
    th[pivot] = Some((value * (1.0 - synth.config().convergence_margin)).max(1e-6));
    th
}

/// One cycle: undefended → round 1 → certificate.
fn cycle(
    synth: &AttackSynthesizer<'_>,
    round1_th: &mut Option<Vec<Option<u64>>>,
    tracer: &mut Tracer,
    oracle: &mut Oracle,
) -> Option<[Query; 3]> {
    let root = tracer.begin("vsc.cycle", "");
    let result = cycle_queries(synth, round1_th, tracer, oracle);
    tracer.end(root);
    result
}

fn cycle_queries(
    synth: &AttackSynthesizer<'_>,
    round1_th: &mut Option<Vec<Option<u64>>>,
    tracer: &mut Tracer,
    oracle: &mut Oracle,
) -> Option<[Query; 3]> {
    let (undefended, attack) = query(synth, None, KINDS[0], true, tracer, oracle);
    let th = first_round(synth, &attack?);
    let bits = crate::pipeline::bits(&th);
    let expected = round1_th.get_or_insert_with(|| bits.clone());
    oracle.check(*expected == bits, || {
        "round-1 threshold differs between cycles".into()
    });
    let (round1, _) = query(synth, Some(&th), KINDS[1], true, tracer, oracle);
    let tight: PartialThreshold = vec![Some(TIGHT); synth.horizon()];
    let (certificate, _) = query(synth, Some(&tight), KINDS[2], false, tracer, oracle);
    Some([undefended, round1, certificate])
}

/// The set-up: building the plant and a synthesizer, whose construction is
/// the symbolic unrolling. The measured loop uses a synthesizer built the
/// same way.
fn set_up(tracer: &mut Tracer) -> Result<Benchmark, cps_control::ControlError> {
    let span = tracer.begin("models.build", "vehicle-stability-controller");
    let built = cps_models::vsc();
    tracer.end(span);
    if let Ok(b) = &built {
        let span = tracer.begin("encoder.unroll", "attack");
        drop(AttackSynthesizer::new(b, config()));
        tracer.end(span);
    }
    built
}

pub fn run(args: &Args, report: &mut Report) {
    let mut tracer = Tracer::new(args.trace);

    let (benchmark, setup_s) = crate::timed_setup(&mut tracer, set_up);
    let benchmark = match benchmark {
        Ok(b) => b,
        Err(e) => {
            report.operation(vec![format!("VSC failed to build: {e}")]);
            return;
        }
    };
    let synth = AttackSynthesizer::new(&benchmark, config());

    let mut round1_th = None;
    let mut cycles: Vec<[Query; 3]> = Vec::new();
    let mut schedule = crate::Schedule::new(args, setup_s);
    while let Some(traced) = schedule.next(&mut tracer) {
        let mut oracle = Oracle::default();
        let (result, wall) =
            crate::timed(|| cycle(&synth, &mut round1_th, &mut tracer, &mut oracle));
        schedule.record(traced, wall, &mut tracer, set_up);
        if let (Some(now), Some(before)) = (&result, cycles.first()) {
            for (kind, (a, b)) in KINDS.iter().zip(now.iter().zip(before)) {
                oracle.check(
                    layers::work_counts(&a.stats) == layers::work_counts(&b.stats),
                    || format!("{kind}: solver counts differ between cycles"),
                );
            }
        }
        cycles.extend(result);
        report.operation(oracle.0);
    }
    let (untraced, traced) = (&schedule.untraced, &schedule.traced);

    for (i, kind) in KINDS.iter().enumerate() {
        let walls: Vec<f64> = cycles.iter().map(|c| c[i].wall_s).collect();
        if let Some(first) = cycles.first() {
            let s = first[i].stats;
            layers::solver_counts(report, &s, &format!(".{kind}"));
            println!(
                "{kind:<12} median {:.6} s (n={}), pivots {}, queue pops {}, theory checks {}, rebuilds {}",
                stats::median(&walls),
                walls.len(),
                s.pivots,
                s.queue_pops,
                s.theory_checks,
                s.theory_rebuilds
            );
        }
    }
    if args.trace {
        per_layer(args, &benchmark, report, &tracer, &cycles, untraced, traced);
    } else if !untraced.is_empty() {
        crate::end_to_end(report, &schedule);
    }
}

fn per_layer(
    args: &Args,
    benchmark: &Benchmark,
    report: &mut Report,
    tracer: &Tracer,
    cycles: &[[Query; 3]],
    untraced: &[f64],
    traced: &[f64],
) {
    let ops = crate::trace::profiles(tracer.spans());
    let setup = of_kind(&ops, "setup");
    report.metric(
        "models.build_s",
        median_of(&setup, |p| p.total_s("models.build")),
        "s",
    );
    report.metric(
        "encoder.unroll_s",
        median_of(&setup, |p| p.total_s("encoder.unroll")),
        "s",
    );
    let runs = of_kind(&ops, "vsc.cycle");
    if !runs.is_empty() {
        for kind in KINDS {
            let key = format!("attack.synthesize:{kind}");
            report.metric(
                &format!("attack.{kind}_s"),
                median_of(&runs, |p| p.total_s(&key)),
                "s",
            );
        }
        report.metric(
            "attack.verify_s",
            median_of(&runs, |p| p.total_s("attack.verify")),
            "s",
        );
        report.metric(
            "smt.simplex_s",
            median_of(&runs, |p| p.total_s("smt.simplex")),
            "s",
        );
        report.metric(
            "smt.search_s",
            median_of(&runs, |p| p.self_s("attack.synthesize")),
            "s",
        );
    }
    if let Some(first) = cycles.first() {
        let mut total = SolverStats::default();
        for q in first {
            total.absorb(&q.stats);
        }
        layers::solver_metrics(report, &total);
    }
    layers::encoder_metrics(report, benchmark);
    crate::finish_trace(args, report, tracer, untraced, traced);
}
