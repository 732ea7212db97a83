//! Ablation — the solver hot path:
//!
//! 1. full DPLL(T) attack synthesis (Algorithm 1) versus the LP-only
//!    under-approximation, on the trajectory-tracking benchmark;
//! 2. the exact VSC dead-zone query at T=12, undefended and with the first
//!    CEGIS round's threshold installed (the UNSAT-leaning query shape where
//!    theory propagation and conflict generalisation do their work);
//! 3. budget checking (`vsc_exact_governed_budget_checks`): the undefended
//!    T=12 query with a [`Budget`] armed on **every** axis — far-future
//!    deadline, ample conflict and pivot caps — so each cooperative
//!    checkpoint runs its full check but never trips. The gap to
//!    `vsc_exact_incremental_simplex` is the whole cost of
//!    deadline/cancellation-safe solving (<1 % target);
//! 4. a 10-round threshold synthesis on one warm solver (round constraints
//!    in `push`/`pop` scopes over the once-asserted base encoding).
//!
//! Solver statistics (theory checks, pivots, queue pops, implied bounds,
//! propagated literals, explanation lengths, simplex time) are printed for
//! each query so timings are attributable to the theory core rather than the
//! SAT search. The row names predate the solver's single configuration and
//! are kept so snapshots stay comparable.

use std::time::{Duration, Instant};

use cps_bench::{bench_config, first_round_threshold, print_row, vsc_exact_config};
use cps_smt::{Budget, SolverStats};
use criterion::{criterion_group, criterion_main, Criterion};
use secure_cps::{AttackSynthesizer, LpAttackSynthesizer, PivotSynthesizer, SynthesisConfig};

const VSC_ABLATION_HORIZON: usize = 12;
const CEGIS_ROUNDS: usize = 10;

fn stats_row(label: &str, stats: SolverStats) {
    print_row(
        "ablation",
        &format!(
            "{label}: theory_checks={}, theory_conflicts={}, pivots={}, queue_pops={}, \
             implied_bounds={}, propagated_literals={}, mean_explanation_len={:.1}, \
             rebuilds={}, simplex_time={:?}, decisions={}, conflicts={}, scopes_reused={}",
            stats.theory_checks,
            stats.theory_conflicts,
            stats.pivots,
            stats.queue_pops,
            stats.implied_bounds,
            stats.propagated_literals,
            stats.mean_explanation_len(),
            stats.theory_rebuilds,
            stats.simplex_time(),
            stats.decisions,
            stats.conflicts,
            stats.scopes_reused,
        ),
    );
}

fn vsc_ablation_config() -> SynthesisConfig {
    SynthesisConfig {
        horizon_override: Some(VSC_ABLATION_HORIZON),
        ..vsc_exact_config()
    }
}

fn run_cegis(vsc: &cps_models::Benchmark) -> secure_cps::SynthesisReport {
    PivotSynthesizer::new(vsc, vsc_ablation_config())
        .with_max_rounds(CEGIS_ROUNDS)
        .run()
        .expect("synthesis runs")
}

fn regenerate() {
    let benchmark = cps_models::trajectory_tracking().expect("model builds");
    let config = bench_config();
    let smt = AttackSynthesizer::new(&benchmark, config);
    let lp = LpAttackSynthesizer::new(&benchmark, config);
    let smt_attack = smt.synthesize(None).expect("query decided");
    let lp_attack = lp.synthesize(None);
    print_row(
        "ablation",
        &format!(
            "undefended loop: smt_attack_found={}, lp_attack_found={}",
            smt_attack.is_some(),
            lp_attack.is_some()
        ),
    );
    stats_row("trajectory smt query", smt.last_solver_stats());
    if let (Some(smt_attack), Some(lp_attack)) = (&smt_attack, &lp_attack) {
        print_row(
            "ablation",
            &format!(
                "peak residue: smt={:.4}, lp={:.4}",
                smt_attack.pivot().1,
                lp_attack.pivot().1
            ),
        );
    }

    // The exact VSC dead-zone query, undefended and with the first round's
    // threshold installed.
    let vsc = cps_models::vsc().expect("model builds");
    let synthesizer = AttackSynthesizer::new(&vsc, vsc_ablation_config());
    let th = first_round_threshold(&synthesizer);
    for (label, threshold) in [("undefended", None), ("threshold round", Some(&th))] {
        let found = synthesizer
            .synthesize(threshold.map(Vec::as_slice))
            .expect("query decided")
            .is_some();
        let label = format!("vsc exact T={VSC_ABLATION_HORIZON} ({label})");
        print_row("ablation", &format!("{label}: attack_found={found}"));
        stats_row(&label, synthesizer.last_solver_stats());
    }

    let started = Instant::now();
    let cegis = run_cegis(&vsc);
    print_row(
        "ablation",
        &format!(
            "vsc cegis {CEGIS_ROUNDS}-round T={VSC_ABLATION_HORIZON}: rounds={}, status={:?}, \
             elapsed={:?}, scopes_reused={}",
            cegis.rounds,
            cegis.status,
            started.elapsed(),
            cegis.solver_stats.scopes_reused,
        ),
    );
    stats_row(
        &format!("vsc cegis {CEGIS_ROUNDS}-round T={VSC_ABLATION_HORIZON}"),
        cegis.solver_stats,
    );
}

fn bench(c: &mut Criterion) {
    regenerate();
    let benchmark = cps_models::trajectory_tracking().expect("model builds");
    let config = bench_config();
    let smt = AttackSynthesizer::new(&benchmark, config);
    let lp = LpAttackSynthesizer::new(&benchmark, config);
    let vsc = cps_models::vsc().expect("model builds");
    let vsc_synth = AttackSynthesizer::new(&vsc, vsc_ablation_config());
    let th = first_round_threshold(&vsc_synth);
    let mut group = c.benchmark_group("solver_ablation");
    group.sample_size(10);
    group.bench_function("smt_attack_synthesis", |b| {
        b.iter(|| smt.synthesize(None).expect("query decided"))
    });
    group.bench_function("lp_attack_synthesis", |b| b.iter(|| lp.synthesize(None)));
    group.bench_function("vsc_exact_incremental_simplex", |b| {
        b.iter(|| vsc_synth.synthesize(None).expect("query decided"))
    });
    // Runs back-to-back with the ungoverned row above so the pair shares
    // cache/thermal state — the honest way to read a sub-1% delta.
    let vsc_governed = AttackSynthesizer::new(&vsc, vsc_ablation_config());
    vsc_governed.set_budget(
        Budget::unlimited()
            .with_timeout(Duration::from_secs(86_400))
            .with_conflict_cap(u64::MAX / 2)
            .with_pivot_cap(u64::MAX / 2),
    );
    group.bench_function("vsc_exact_governed_budget_checks", |b| {
        b.iter(|| vsc_governed.synthesize(None).expect("query decided"))
    });
    group.bench_function("vsc_threshold_round_propagation_on", |b| {
        b.iter(|| vsc_synth.synthesize(Some(&th)).expect("query decided"))
    });
    // Each iteration constructs its own synthesizer: warm starting lives
    // inside one synthesis run, so per-run construction (encoding included)
    // is part of the cost.
    group.bench_function("vsc_cegis_10round_warm", |b| b.iter(|| run_cegis(&vsc)));
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
