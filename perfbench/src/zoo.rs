//! `far-zoo`: the deployed detector's runtime path. Each operation is one
//! pass of `FarExperiment::run` over all five `cps_models::all_benchmarks()`
//! plants with the three detectors of the `streaming_far` bench, at the
//! default lane count. The noise is seeded from `--seed`; the solver is never
//! touched.

use cps_control::ResidueNorm;
use cps_detectors::{Chi2Detector, CusumDetector, Detector, ThresholdDetector, ThresholdSpec};
use cps_models::Benchmark;
use secure_cps::{FarExperiment, FarReport};

use crate::replay::{self, Replay};
use crate::report::{Oracle, Report};
use crate::trace::{median_of, of_kind, OpProfile, Tracer};
use crate::{golden, layers, stats, Args};

/// Noise rollouts per plant and pass.
const TRIALS: usize = 10_000;

/// The `streaming_far` detector set for one plant.
struct Detectors {
    threshold: ThresholdDetector,
    chi2: Chi2Detector,
    cusum: CusumDetector,
}

impl Detectors {
    fn new(benchmark: &Benchmark) -> Self {
        Self {
            threshold: ThresholdDetector::new(
                ThresholdSpec::constant(0.05, benchmark.horizon),
                ResidueNorm::Linf,
            ),
            chi2: Chi2Detector::new(5, 0.01, ResidueNorm::L2),
            cusum: CusumDetector::new(0.02, 0.08, ResidueNorm::Linf),
        }
    }

    fn list(&self) -> [(&str, &dyn Detector); 3] {
        [
            ("static", &self.threshold),
            ("chi2", &self.chi2),
            ("cusum", &self.cusum),
        ]
    }
}

/// One pass over the zoo. Spans: `far.pass` → one `far.run` per plant,
/// labelled with the plant's name.
fn pass(zoo: &[(Benchmark, Detectors)], seed: u64, tracer: &mut Tracer) -> Vec<FarReport> {
    let root = tracer.begin("far.pass", "");
    let reports = zoo
        .iter()
        .map(|(benchmark, detectors)| {
            let span = tracer.begin("far.run", &benchmark.name);
            let report = FarExperiment::new(benchmark, TRIALS, seed).run(&detectors.list());
            tracer.end(span);
            report
        })
        .collect();
    tracer.end(root);
    reports
}

fn check_pass(zoo: &[(Benchmark, Detectors)], reports: &[FarReport], oracle: &mut Oracle) {
    for ((benchmark, _), r) in zoo.iter().zip(reports) {
        oracle.check(r.kept > 0, || {
            format!("{}: no trial kept (vacuous)", benchmark.name)
        });
        oracle.check(r.rates.iter().all(|(_, x)| (0.0..=1.0).contains(x)), || {
            format!("{}: FAR rate outside [0, 1]", benchmark.name)
        });
    }
}

/// The set-up: building the five plants and their detectors.
fn set_up(tracer: &mut Tracer) -> Result<Vec<(Benchmark, Detectors)>, String> {
    let span = tracer.begin("models.build", "zoo");
    let built = build_zoo();
    tracer.end(span);
    built
}

fn build_zoo() -> Result<Vec<(Benchmark, Detectors)>, String> {
    let zoo = cps_models::all_benchmarks().map_err(|e| format!("zoo failed to build: {e}"))?;
    Ok(zoo
        .into_iter()
        .map(|b| {
            let d = Detectors::new(&b);
            (b, d)
        })
        .collect())
}

/// The committed reference values, for `--emit-golden`: per plant, the kept
/// count and the rates' bits at the default seed.
pub fn golden_values() -> Vec<(String, usize, Vec<u64>)> {
    let zoo = build_zoo().expect("zoo builds");
    let reports = pass(&zoo, crate::DEFAULT_SEED, &mut Tracer::new(false));
    zoo.iter()
        .zip(reports)
        .map(|((b, _), r)| {
            (
                b.name.clone(),
                r.kept,
                r.rates.iter().map(|(_, x)| x.to_bits()).collect(),
            )
        })
        .collect()
}

pub fn run(args: &Args, report: &mut Report) {
    let mut tracer = Tracer::new(args.trace);
    let (zoo, setup_s) = crate::timed_setup(&mut tracer, set_up);
    let zoo = match zoo {
        Ok(zoo) => zoo,
        Err(e) => {
            report.operation(vec![e]);
            return;
        }
    };

    let mut first: Option<Vec<FarReport>> = None;
    let mut replays: Vec<Replay> = Vec::new();
    let mut schedule = crate::Schedule::new(args, setup_s);
    while let Some(traced) = schedule.next(&mut tracer) {
        let (reports, wall) = crate::timed(|| pass(&zoo, args.seed, &mut tracer));
        schedule.record(traced, wall, &mut tracer, set_up);
        let mut oracle = Oracle::default();
        check_pass(&zoo, &reports, &mut oracle);
        let reference = first.get_or_insert_with(|| reports.clone());
        oracle.check(reports == *reference, || {
            "FAR reports differ between passes of one seed".into()
        });
        report.operation(oracle.0);
        if !traced {
            continue;
        }
        // The FAR split: replay every plant's trials phase by phase.
        let root = tracer.begin("far.replay", "");
        let replayed: Vec<Replay> = zoo
            .iter()
            .map(|(b, d)| replay::replay(b, TRIALS, args.seed, &d.list(), &b.name, &mut tracer))
            .collect();
        tracer.end(root);
        let mut oracle = Oracle::default();
        for (((b, _), r), far) in zoo.iter().zip(&replayed).zip(&reports) {
            oracle.check(r.kept == far.kept, || {
                format!("{}: FAR replay kept count differs", b.name)
            });
            for (i, (name, rate)) in far.rates.iter().enumerate() {
                oracle.check(r.rate(i).to_bits() == rate.to_bits(), || {
                    format!(
                        "{}: FAR replay disagrees with FarExperiment::run on {name}",
                        b.name
                    )
                });
            }
        }
        report.operation(oracle.0);
        replays.push(sum(&replayed));
    }
    let (untraced, traced) = (&schedule.untraced, &schedule.traced);

    // The oracle's default-seed check against the committed reference.
    tracer.set_enabled(false);
    let reports = pass(&zoo, crate::DEFAULT_SEED, &mut tracer);
    let mut oracle = Oracle::default();
    check_pass(&zoo, &reports, &mut oracle);
    for (((b, _), r), (kept, rates)) in zoo.iter().zip(&reports).zip(golden::ZOO) {
        let bits: Vec<u64> = r.rates.iter().map(|(_, x)| x.to_bits()).collect();
        oracle.check(r.kept == *kept && bits == *rates, || {
            format!(
                "{}: default-seed FAR differs from the committed one: kept {}, {:?}",
                b.name, r.kept, r.rates
            )
        });
    }
    report.operation(oracle.0);
    tracer.set_enabled(args.trace);

    if let Some(reports) = &first {
        for ((b, _), r) in zoo.iter().zip(reports) {
            report.count(
                &format!("far.kept.{}@seed={}", b.name, args.seed),
                r.kept as u64,
            );
            for (name, rate) in &r.rates {
                let alarms = (rate * r.kept as f64).round() as u64;
                report.count(
                    &format!("far.alarms.{}.{name}@seed={}", b.name, args.seed),
                    alarms,
                );
            }
            let rates: Vec<String> = r.rates.iter().map(|(n, x)| format!("{n} {x:.4}")).collect();
            println!(
                "{:<30} kept {:>5}/{}  {}",
                b.name,
                r.kept,
                r.generated,
                rates.join(", ")
            );
        }
    }
    if !untraced.is_empty() {
        let generated = (TRIALS * zoo.len()) as f64;
        println!(
            "traces_per_s {:.1} (median pass {:.6} s, n={})",
            generated / stats::median(untraced),
            stats::median(untraced),
            untraced.len()
        );
    }
    if args.trace {
        per_layer(
            args,
            report,
            &tracer,
            first.as_deref(),
            &replays,
            untraced,
            traced,
        );
    } else if !untraced.is_empty() {
        crate::end_to_end(report, &schedule);
    }
}

/// Sums the per-plant replays of one pass (alarms per detector position).
fn sum(replays: &[Replay]) -> Replay {
    let mut total = Replay::default();
    for r in replays {
        total.trials += r.trials;
        total.kept += r.kept;
        total.steps_simulated += r.steps_simulated;
        total.steps_scanned += r.steps_scanned;
        total
            .alarms
            .resize(r.alarms.len().max(total.alarms.len()), 0);
        for (t, a) in total.alarms.iter_mut().zip(&r.alarms) {
            *t += a;
        }
    }
    total
}

fn per_layer(
    args: &Args,
    report: &mut Report,
    tracer: &Tracer,
    reference: Option<&[FarReport]>,
    replays: &[Replay],
    untraced: &[f64],
    traced: &[f64],
) {
    let ops = crate::trace::profiles(tracer.spans());
    let med = |group: &[&OpProfile], key: &str| median_of(group, |p| p.total_s(key));
    let setup = of_kind(&ops, "setup");
    report.metric("models.build_s", med(&setup, "models.build"), "s");
    let passes = of_kind(&ops, "far.pass");
    if let (false, Some(reference)) = (passes.is_empty(), reference) {
        report.metric("far.run_s", med(&passes, "far.run"), "s");
        let mut generated = 0;
        let mut kept = 0;
        for r in reference {
            generated += r.generated;
            kept += r.kept;
        }
        report.metric("far.kept_ratio", kept as f64 / generated as f64, "ratio");
        for name in ops
            .iter()
            .flat_map(|p| p.total_ns.keys())
            .filter_map(|k| k.strip_prefix("far.run:"))
        {
            report.metric(
                &format!("far.run_s.{name}"),
                med(&passes, &format!("far.run:{name}")),
                "s",
            );
        }
    }
    let replay_ops = of_kind(&ops, "far.replay");
    if let (false, Some(r)) = (replay_ops.is_empty(), replays.last()) {
        layers::replay_metrics(report, &replay_ops, r);
    }
    crate::finish_trace(args, report, tracer, untraced, traced);
}
