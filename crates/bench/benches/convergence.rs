//! E8 — convergence comparison: CEGIS rounds needed by Algorithm 2
//! (pivot-based) versus Algorithm 3 (step-wise). The paper reports 56 vs 37
//! rounds on the VSC; the expected *shape* is that the step-wise variant
//! needs no more rounds than the pivot-based one.

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
        "convergence",
        &format!(
            "benchmark={}: pivot rounds={} (converged={}), stepwise rounds={} (converged={}) — paper: 56 vs 37",
            benchmark.name, pivot.rounds, pivot.status.is_converged(), stepwise.rounds, stepwise.status.is_converged()
        ),
    );
}

fn bench(c: &mut Criterion) {
    regenerate();
    let benchmark = synthesis_benchmark();
    let config = bench_config();
    let mut group = c.benchmark_group("convergence");
    group.sample_size(10);
    group.bench_function("pivot_synthesis_full", |b| {
        b.iter(|| {
            PivotSynthesizer::new(&benchmark, config)
                .with_max_rounds(400)
                .run()
                .expect("synthesis runs")
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
