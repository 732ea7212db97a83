//! `pipeline-trajectory`: back-to-back runs of the paper's whole pipeline on
//! the Fig. 1 trajectory-tracking plant — Algorithm 2, Algorithm 3, the
//! static baseline and the §IV false-alarm table.
//!
//! Each run constructs its synthesizers afresh, as a user asking for a
//! certified detector would. The FAR table's noise is seeded from `--seed`;
//! everything else is deterministic.
//!
//! The FAR table runs on one lane, so the whole operation is single-threaded:
//! on a shared 2-core host, a table split over two lanes waits for whichever
//! core the host slows, and that doubled its run-to-run spread. `far-zoo`
//! measures the multi-lane runtime.

use cps_control::ResidueNorm;
use cps_detectors::{Chi2Detector, CusumDetector, Detector, ThresholdDetector, ThresholdSpec};
use cps_models::Benchmark;
use secure_cps::{
    synthesize_static_threshold, ConvergenceStatus, FarExperiment, FarReport, PivotSynthesizer,
    StepwiseSynthesizer, SynthesisConfig, SynthesisReport,
};

use crate::report::{Oracle, Report};
use crate::trace::{median_of, of_kind, Tracer};
use crate::{golden, layers, replay, Args};

/// Noise rollouts of the FAR table, as in the paper.
const TRIALS: usize = 1000;
const MAX_ROUNDS: usize = 400;
const BISECTION_STEPS: usize = 8;

/// The paper pipeline's configuration: exact dead-zone semantics with a 25 %
/// convergence margin, which keeps CEGIS round counts in the tens.
fn config() -> SynthesisConfig {
    SynthesisConfig {
        convergence_margin: 0.25,
        ..SynthesisConfig::default()
    }
}

/// Everything one pipeline run produces.
#[derive(Debug)]
pub struct Outcome {
    pub alg2: SynthesisReport,
    pub alg3: SynthesisReport,
    pub static_spec: ThresholdSpec,
    pub static_queries: usize,
    pub far: FarReport,
}

/// The five detectors of the §IV table (the bench `far_comparison` set):
/// the two synthesised variable thresholds, the static baseline, and
/// χ² / CUSUM baselines scaled from the static threshold.
pub struct Table {
    pivot: ThresholdDetector,
    stepwise: ThresholdDetector,
    fixed: ThresholdDetector,
    chi2: Chi2Detector,
    cusum: CusumDetector,
}

impl Table {
    fn new(alg2: &SynthesisReport, alg3: &SynthesisReport, static_spec: &ThresholdSpec) -> Self {
        let th = static_spec.value_at(0);
        Self {
            pivot: ThresholdDetector::new(alg2.threshold_spec(), ResidueNorm::Linf),
            stepwise: ThresholdDetector::new(alg3.threshold_spec(), ResidueNorm::Linf),
            fixed: ThresholdDetector::new(static_spec.clone(), ResidueNorm::Linf),
            chi2: Chi2Detector::new(5, th.powi(2) * 2.0, ResidueNorm::Linf),
            cusum: CusumDetector::new(th * 0.5, th * 2.0, ResidueNorm::Linf),
        }
    }

    fn detectors(&self) -> [(&str, &dyn Detector); 5] {
        [
            ("algorithm-2-pivot", &self.pivot),
            ("algorithm-3-stepwise", &self.stepwise),
            ("static-baseline", &self.fixed),
            ("chi-squared", &self.chi2),
            ("cusum", &self.cusum),
        ]
    }
}

/// One pipeline run. Spans: `pipeline` → `encoder.unroll` (synthesizer
/// construction), `cegis.alg2` / `cegis.alg3` (each with a derived
/// `smt.simplex` child), `static.bisect`, `far.run`.
pub fn pipeline(benchmark: &Benchmark, seed: u64, tracer: &mut Tracer) -> Result<Outcome, String> {
    let root = tracer.begin("pipeline", "");
    let result = stages(benchmark, seed, tracer);
    tracer.end(root);
    result
}

fn stages(benchmark: &Benchmark, seed: u64, tracer: &mut Tracer) -> Result<Outcome, String> {
    let span = tracer.begin("encoder.unroll", "alg2");
    let alg2 = PivotSynthesizer::new(benchmark, config()).with_max_rounds(MAX_ROUNDS);
    tracer.end(span);
    let span = tracer.begin("cegis.alg2", "");
    let alg2 = alg2.run();
    tracer.end(span);
    let alg2 = alg2.map_err(|e| format!("algorithm 2: {e}"))?;
    tracer.derived(span, "smt.simplex", alg2.solver_stats.simplex_nanos);

    let span = tracer.begin("encoder.unroll", "alg3");
    let alg3 = StepwiseSynthesizer::new(benchmark, config()).with_max_rounds(MAX_ROUNDS);
    tracer.end(span);
    let span = tracer.begin("cegis.alg3", "");
    let alg3 = alg3.run();
    tracer.end(span);
    let alg3 = alg3.map_err(|e| format!("algorithm 3: {e}"))?;
    tracer.derived(span, "smt.simplex", alg3.solver_stats.simplex_nanos);

    let span = tracer.begin("static.bisect", "");
    let fixed = synthesize_static_threshold(benchmark, config(), BISECTION_STEPS);
    tracer.end(span);
    let (static_spec, static_queries) = fixed.map_err(|e| format!("static baseline: {e}"))?;

    let table = Table::new(&alg2, &alg3, &static_spec);
    let span = tracer.begin("far.run", "");
    let far = FarExperiment::new(benchmark, TRIALS, seed)
        .with_parallelism(1)
        .run(&table.detectors());
    tracer.end(span);
    Ok(Outcome {
        alg2,
        alg3,
        static_spec,
        static_queries,
        far,
    })
}

pub fn bits(partial: &[Option<f64>]) -> Vec<Option<u64>> {
    partial.iter().map(|v| v.map(f64::to_bits)).collect()
}

/// The seed-independent part of the oracle: converged, non-vacuous,
/// monotone thresholds equal bit for bit to the committed ones.
fn check_synthesis(out: &Outcome, oracle: &mut Oracle) {
    for (name, report, expected) in [
        ("algorithm 2", &out.alg2, golden::ALG2),
        ("algorithm 3", &out.alg3, golden::ALG3),
    ] {
        oracle.check(report.status == ConvergenceStatus::Converged, || {
            format!("{name} ended {:?}, not Converged", report.status)
        });
        oracle.check(report.rounds > 0, || {
            format!("{name} converged in 0 rounds: the undefended loop admits no attack (vacuous)")
        });
        oracle.check(report.is_monotone_decreasing(), || {
            format!("{name} thresholds are not monotone")
        });
        oracle.check(bits(&report.partial) == expected, || {
            format!("{name} thresholds differ from the committed ones")
        });
    }
    let th = out.static_spec.value_at(0);
    oracle.check(th.is_finite(), || {
        "static threshold is infinite (vacuous)".into()
    });
    oracle.check(th.to_bits() == golden::STATIC, || {
        format!("static threshold {th:e} differs from the committed one")
    });
    oracle.check(out.far.kept > 0, || {
        "FAR table kept no trial (vacuous)".into()
    });
    oracle.check(
        out.far.rates.iter().all(|(_, r)| (0.0..=1.0).contains(r)),
        || "FAR rate outside [0, 1]".into(),
    );
}

/// The committed reference values, for `--emit-golden`.
pub fn golden_values() -> (Outcome, Vec<u64>) {
    let benchmark = cps_models::trajectory_tracking().expect("trajectory plant builds");
    let out =
        pipeline(&benchmark, crate::DEFAULT_SEED, &mut Tracer::new(false)).expect("pipeline runs");
    let rates = out.far.rates.iter().map(|(_, r)| r.to_bits()).collect();
    (out, rates)
}

fn report_counts(report: &mut Report, out: &Outcome, seed: u64) {
    report.count("cegis.alg2_rounds", out.alg2.rounds as u64);
    report.count("cegis.alg3_rounds", out.alg3.rounds as u64);
    report.count("cegis.queries", queries(out) as u64);
    report.count("static.queries", out.static_queries as u64);
    let mut smt = out.alg2.solver_stats;
    smt.absorb(&out.alg3.solver_stats);
    layers::solver_counts(report, &smt, "");
    report.count(&format!("far.kept@seed={seed}"), out.far.kept as u64);
    for (name, rate) in &out.far.rates {
        let alarms = (rate * out.far.kept as f64).round() as u64;
        report.count(&format!("far.alarms.{name}@seed={seed}"), alarms);
    }
}

fn queries(out: &Outcome) -> usize {
    out.alg2.round_stats.len() + out.alg3.round_stats.len()
}

/// The set-up: building the plant, including its LQR / Kalman design.
fn set_up(tracer: &mut Tracer) -> Result<Benchmark, cps_control::ControlError> {
    let span = tracer.begin("models.build", "trajectory-tracking");
    let built = cps_models::trajectory_tracking();
    tracer.end(span);
    built
}

pub fn run(args: &Args, report: &mut Report) {
    let mut tracer = Tracer::new(args.trace);

    let (benchmark, setup_s) = crate::timed_setup(&mut tracer, set_up);
    let benchmark = match benchmark {
        Ok(b) => b,
        Err(e) => {
            report.operation(vec![format!("trajectory plant failed to build: {e}")]);
            return;
        }
    };

    let mut first: Option<FarReport> = None;
    let mut last: Option<Outcome> = None;
    let mut replays = Vec::new();
    let mut schedule = crate::Schedule::new(args, setup_s);
    while let Some(traced) = schedule.next(&mut tracer) {
        let (result, wall) = crate::timed(|| pipeline(&benchmark, args.seed, &mut tracer));
        schedule.record(traced, wall, &mut tracer, set_up);
        let mut oracle = Oracle::default();
        match result {
            Ok(out) => {
                check_synthesis(&out, &mut oracle);
                let reference = first.get_or_insert_with(|| out.far.clone());
                oracle.check(out.far == *reference, || {
                    "FAR table differs between runs of one seed".into()
                });
                last = Some(out);
            }
            Err(e) => oracle.0.push(e),
        }
        report.operation(oracle.0);
        if let (true, Some(out)) = (traced, &last) {
            // The FAR split: replay the table just produced.
            let table = Table::new(&out.alg2, &out.alg3, &out.static_spec);
            let root = tracer.begin("far.replay", "");
            let replayed = replay::replay(
                &benchmark,
                TRIALS,
                args.seed,
                &table.detectors(),
                "",
                &mut tracer,
            );
            tracer.end(root);
            let mut oracle = Oracle::default();
            oracle.check(replayed.kept == out.far.kept, || {
                "FAR replay kept count differs".into()
            });
            for (i, (name, rate)) in out.far.rates.iter().enumerate() {
                oracle.check(replayed.rate(i).to_bits() == rate.to_bits(), || {
                    format!("FAR replay disagrees with FarExperiment::run on {name}")
                });
            }
            report.operation(oracle.0);
            replays.push(replayed);
        }
    }
    let (untraced, traced) = (&schedule.untraced, &schedule.traced);

    // The oracle's default-seed check: one untimed run compared bit for bit
    // with the committed FAR rates.
    tracer.set_enabled(false);
    let mut oracle = Oracle::default();
    match pipeline(&benchmark, crate::DEFAULT_SEED, &mut tracer) {
        Ok(out) => {
            check_synthesis(&out, &mut oracle);
            let rates: Vec<u64> = out.far.rates.iter().map(|(_, r)| r.to_bits()).collect();
            oracle.check(rates == golden::PIPELINE_FAR, || {
                format!(
                    "default-seed FAR rates differ from the committed ones: {:?}",
                    out.far.rates
                )
            });
        }
        Err(e) => oracle.0.push(e),
    }
    report.operation(oracle.0);
    tracer.set_enabled(args.trace);

    if let Some(out) = &last {
        report_counts(report, out, args.seed);
        println!(
            "pipeline: alg2 {} rounds, alg3 {} rounds, {} CEGIS queries, static {:e} ({} queries), FAR kept {}/{}",
            out.alg2.rounds,
            out.alg3.rounds,
            queries(out),
            out.static_spec.value_at(0),
            out.static_queries,
            out.far.kept,
            out.far.generated
        );
        for (name, rate) in &out.far.rates {
            println!("  far {name:<22} {rate:.4}");
        }
    }
    if args.trace {
        per_layer(
            args,
            &benchmark,
            report,
            &tracer,
            last.as_ref(),
            &replays,
            untraced,
            traced,
        );
    } else if !untraced.is_empty() {
        crate::end_to_end(report, &schedule);
    }
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    args: &Args,
    benchmark: &Benchmark,
    report: &mut Report,
    tracer: &Tracer,
    last: Option<&Outcome>,
    replays: &[replay::Replay],
    untraced: &[f64],
    traced: &[f64],
) {
    let ops = crate::trace::profiles(tracer.spans());
    let setup = of_kind(&ops, "setup");
    let runs = of_kind(&ops, "pipeline");
    let replay_ops = of_kind(&ops, "far.replay");
    report.metric(
        "models.build_s",
        median_of(&setup, |p| p.total_s("models.build")),
        "s",
    );
    if let (false, Some(out)) = (runs.is_empty(), last) {
        // Two spanned synthesizer constructions per run (Algorithms 2 and
        // 3); the static baseline's happens inside `static.bisect`.
        report.metric(
            "encoder.unroll_s",
            median_of(&runs, |p| p.total_s("encoder.unroll")) / 2.0,
            "s",
        );
        report.metric(
            "cegis.alg2_s",
            median_of(&runs, |p| p.total_s("cegis.alg2")),
            "s",
        );
        report.metric(
            "cegis.alg3_s",
            median_of(&runs, |p| p.total_s("cegis.alg3")),
            "s",
        );
        report.metric(
            "smt.simplex_s",
            median_of(&runs, |p| p.total_s("smt.simplex")),
            "s",
        );
        report.metric(
            "smt.search_s",
            median_of(&runs, |p| p.self_s("cegis.alg2") + p.self_s("cegis.alg3")),
            "s",
        );
        let q = queries(out);
        report.metric(
            "cegis.query_mean_s",
            median_of(&runs, |p| p.total_s("cegis.alg2") + p.total_s("cegis.alg3")) / q as f64,
            "s",
        );
        report.metric(
            "static.bisect_s",
            median_of(&runs, |p| p.total_s("static.bisect")),
            "s",
        );
        report.metric("far.run_s", median_of(&runs, |p| p.total_s("far.run")), "s");
        report.metric("cegis.alg2_rounds", out.alg2.rounds as f64, "count");
        report.metric("cegis.alg3_rounds", out.alg3.rounds as f64, "count");
        report.metric("cegis.queries", q as f64, "count");
        report.metric("static.queries", out.static_queries as f64, "count");
        report.metric(
            "far.kept_ratio",
            out.far.kept as f64 / out.far.generated as f64,
            "ratio",
        );
        let mut smt = out.alg2.solver_stats;
        smt.absorb(&out.alg3.solver_stats);
        layers::solver_metrics(report, &smt);
    }
    if let (false, Some(r)) = (replay_ops.is_empty(), replays.last()) {
        layers::replay_metrics(report, &replay_ops, r);
    }
    layers::encoder_metrics(report, benchmark);
    crate::finish_trace(args, report, tracer, untraced, traced);
}
