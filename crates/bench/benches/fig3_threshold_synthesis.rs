//! E6 — Fig. 3: the variable threshold vectors produced by Algorithm 2
//! (pivot-based) and Algorithm 3 (step-wise).

use cps_bench::{bench_config, print_row, synthesis_benchmark};
use criterion::{criterion_group, criterion_main, Criterion};
use secure_cps::{PivotSynthesizer, StepwiseSynthesizer};

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
    print_row(
        "fig3",
        &format!(
            "benchmark={}, pivot converged={} rounds={}, stepwise converged={} rounds={}",
            benchmark.name,
            pivot.status.is_converged(),
            pivot.rounds,
            stepwise.status.is_converged(),
            stepwise.rounds
        ),
    );
    print_row("fig3", "k, pivot_threshold, stepwise_threshold");
    for k in 0..benchmark.horizon {
        let fmt = |v: &Option<f64>| match v {
            Some(value) => format!("{value:.4}"),
            None => "inf".to_string(),
        };
        print_row(
            "fig3",
            &format!(
                "{k}, {}, {}",
                fmt(&pivot.partial[k]),
                fmt(&stepwise.partial[k])
            ),
        );
    }
}

fn bench(c: &mut Criterion) {
    regenerate();
    let benchmark = synthesis_benchmark();
    let config = bench_config();
    let mut group = c.benchmark_group("fig3_threshold_synthesis");
    group.sample_size(10);
    group.bench_function("stepwise_synthesis_full", |b| {
        b.iter(|| {
            StepwiseSynthesizer::new(&benchmark, config)
                .with_max_rounds(400)
                .run()
                .expect("synthesis runs")
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
