//! E7 — the FAR table of §IV: false-alarm rates of the Algorithm 2 and
//! Algorithm 3 detectors versus the provably safe static threshold
//! (paper: 61.5 %, 45.6 %, 98.9 %).

use cps_bench::{bench_config, print_row, synthesis_benchmark};
use cps_control::ResidueNorm;
use cps_detectors::{Chi2Detector, CusumDetector, Detector, ThresholdDetector};
use criterion::{criterion_group, criterion_main, Criterion};
use secure_cps::{
    synthesize_static_threshold, FarExperiment, PivotSynthesizer, StepwiseSynthesizer,
};

const TRIALS: usize = 300;

fn regenerate() {
    let benchmark = synthesis_benchmark();
    let config = bench_config();
    let pivot = PivotSynthesizer::new(&benchmark, config)
        .with_max_rounds(400)
        .run()
        .expect("synthesis runs");
    let stepwise = StepwiseSynthesizer::new(&benchmark, config)
        .with_max_rounds(400)
        .run()
        .expect("synthesis runs");
    let (static_spec, _) =
        synthesize_static_threshold(&benchmark, config, 8).expect("bisection runs");
    // A FAR table is only meaningful over detectors that were synthesised:
    // refuse to print one for a vacuous or unfinished run.
    for (name, report) in [("algorithm 2", &pivot), ("algorithm 3", &stepwise)] {
        assert!(
            report.status.is_converged(),
            "{name} did not converge: {:?}",
            report.status
        );
    }
    assert!(
        static_spec.value_at(0).is_finite(),
        "the static baseline must be a finite threshold"
    );

    let pivot_detector = ThresholdDetector::new(pivot.threshold_spec(), ResidueNorm::Linf);
    let stepwise_detector = ThresholdDetector::new(stepwise.threshold_spec(), ResidueNorm::Linf);
    let static_detector = ThresholdDetector::new(static_spec.clone(), ResidueNorm::Linf);
    // Extra baselines beyond the paper.
    let chi2 = Chi2Detector::new(5, static_spec.value_at(0).powi(2) * 2.0, ResidueNorm::Linf);
    let cusum = CusumDetector::new(
        static_spec.value_at(0) * 0.5,
        static_spec.value_at(0) * 2.0,
        ResidueNorm::Linf,
    );

    let experiment = FarExperiment::new(&benchmark, TRIALS, 2026);
    let report = experiment.run(&[
        ("algorithm-2-pivot", &pivot_detector as &dyn Detector),
        ("algorithm-3-stepwise", &stepwise_detector),
        ("static-baseline", &static_detector),
        ("chi-squared", &chi2),
        ("cusum", &cusum),
    ]);
    assert!(report.kept > 0, "every noise rollout was filtered out");
    print_row(
        "far",
        &format!(
            "benchmark={}, generated={}, kept={}",
            benchmark.name, report.generated, report.kept
        ),
    );
    print_row(
        "far",
        "detector, false_alarm_rate (paper: 0.615 / 0.456 / 0.989)",
    );
    for (name, rate) in &report.rates {
        print_row("far", &format!("{name}, {rate:.3}"));
    }
}

fn bench(c: &mut Criterion) {
    regenerate();
    let benchmark = synthesis_benchmark();
    let experiment = FarExperiment::new(&benchmark, 50, 7);
    let detector = ThresholdDetector::new(
        cps_detectors::ThresholdSpec::constant(0.05, benchmark.horizon),
        ResidueNorm::Linf,
    );
    let mut group = c.benchmark_group("far_comparison");
    group.sample_size(10);
    group.bench_function("far_50_noise_rollouts", |b| {
        b.iter(|| experiment.run(&[("static", &detector as &dyn Detector)]))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
