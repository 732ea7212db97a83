use std::num::NonZeroUsize;
use std::ops::Range;
use std::thread;

use cps_control::{StepBuffers, Trace};
use cps_detectors::Detector;
use cps_models::Benchmark;

/// The false-alarm-rate experiment of §IV: generate random bounded noise
/// rollouts, keep those that satisfy the performance criterion and pass the
/// plant monitors (`mdc`), then measure how often each residue detector
/// alarms on the kept, attack-free traces.
///
/// [`FarExperiment::run`] streams the trials through parallel lanes, one per
/// core by default (override with [`FarExperiment::with_parallelism`]).
/// Each trial's noise stream is seeded by `seed + trial` and lanes exchange
/// only integer counts, so reports are **bit-identical** regardless of the
/// lane count.
#[derive(Debug)]
pub struct FarExperiment<'a> {
    benchmark: &'a Benchmark,
    num_trials: usize,
    seed: u64,
    parallelism: Option<usize>,
}

/// Result of a [`FarExperiment`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct FarReport {
    /// Number of noise rollouts generated.
    pub generated: usize,
    /// Number of rollouts kept after the pfc / monitor filter.
    pub kept: usize,
    /// Number of rollouts discarded by the filter.
    pub discarded: usize,
    /// `(detector name, false-alarm rate over the kept rollouts)`, in the
    /// order the detectors were passed to [`FarExperiment::run`].
    pub rates: Vec<(String, f64)>,
}

impl FarReport {
    /// The false-alarm rate of a named detector, if present.
    ///
    /// Rates are stored in insertion order (the order the detectors were
    /// passed to [`FarExperiment::run`]); if several detectors share a name,
    /// the first one wins. Iterate [`FarReport::rates`] directly to see every
    /// entry.
    pub fn rate_of(&self, name: &str) -> Option<f64> {
        self.rates
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, rate)| *rate)
    }
}

impl<'a> FarExperiment<'a> {
    /// Creates the experiment. The paper uses 1000 noise rollouts; tests use
    /// fewer to stay fast.
    pub fn new(benchmark: &'a Benchmark, num_trials: usize, seed: u64) -> Self {
        Self {
            benchmark,
            num_trials,
            seed,
            parallelism: None,
        }
    }

    /// Overrides the lane count of [`FarExperiment::run`] (default: all
    /// available cores). `1` runs every trial on the calling thread.
    pub fn with_parallelism(mut self, workers: usize) -> Self {
        self.parallelism = Some(workers.max(1));
        self
    }

    /// Number of lanes [`FarExperiment::run`] will use.
    pub fn parallelism(&self) -> usize {
        self.parallelism.unwrap_or_else(|| {
            thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        })
    }

    /// Generates the filtered population of attack-free noisy traces, in
    /// trial order.
    ///
    /// The paper samples noise "from a suitably small range such that pfc is
    /// maintained" and then discards rollouts flagged by `mdc`. This is the
    /// materialising reference of [`FarExperiment::run`]: one sequential
    /// simulate → pfc → [`MonitorSuite::evaluate`] loop, kept so tests can
    /// check the streaming lanes against [`cps_detectors::false_alarm_rate`]
    /// over its traces.
    ///
    /// [`MonitorSuite::evaluate`]: cps_monitors::MonitorSuite::evaluate
    pub fn noise_traces(&self) -> Vec<Trace> {
        let benchmark = self.benchmark;
        (0..self.num_trials)
            .map(|trial| {
                benchmark.closed_loop.simulate(
                    &benchmark.initial_state,
                    benchmark.horizon,
                    &benchmark.noise,
                    None,
                    self.seed.wrapping_add(trial as u64),
                )
            })
            .filter(|trace| {
                benchmark
                    .performance
                    .satisfied_by(trace.states().last().expect("non-empty trace"))
                    && !benchmark.monitors.evaluate(trace.measurements()).alarmed()
            })
            .collect()
    }

    /// Streams the trials of a contiguous lane through one set of reusable
    /// buffers: one [`StepBuffers`], one monitor scanner and one detector
    /// scanner per detector, all allocated once and reset per trial, so the
    /// steady-state loop performs zero heap allocations and never
    /// materialises a [`Trace`].
    ///
    /// Per trial the rollout observer feeds each measurement to the monitor
    /// scan (a monitor alarm aborts the rollout — the trial is discarded
    /// either way) and each residue to every not-yet-alarmed detector
    /// scanner. After a completed rollout the performance criterion is
    /// checked on the final state; detector alarm flags only count once the
    /// trial is confirmed kept, exactly as when scanning materialised kept
    /// traces.
    fn scan_range(&self, trials: Range<usize>, detectors: &[(&str, &dyn Detector)]) -> LaneOutcome {
        let mut outcome = LaneOutcome {
            kept: 0,
            alarms: vec![0usize; detectors.len()],
        };
        let mut buffers = StepBuffers::new();
        let mut monitor_scan = self.benchmark.monitors.scanner();
        let mut scanners: Vec<_> = detectors.iter().map(|(_, d)| d.scanner()).collect();
        let mut alarmed = vec![false; detectors.len()];
        let horizon = self.benchmark.horizon;
        for trial in trials {
            monitor_scan.reset();
            for scanner in &mut scanners {
                scanner.reset();
            }
            alarmed.fill(false);
            let mut pending = scanners.len();
            let mut monitor_alarm = false;
            self.benchmark.closed_loop.simulate_into(
                &self.benchmark.initial_state,
                horizon,
                &self.benchmark.noise,
                None,
                self.seed.wrapping_add(trial as u64),
                &mut buffers,
                |record| {
                    if monitor_scan.step(record.measurement) {
                        // The trial is discarded regardless of what the
                        // remaining instants hold; stop simulating it.
                        monitor_alarm = true;
                        return false;
                    }
                    if pending > 0 {
                        for (i, scanner) in scanners.iter_mut().enumerate() {
                            if !alarmed[i] && scanner.step(record.k, record.residue) {
                                alarmed[i] = true;
                                pending -= 1;
                            }
                        }
                    }
                    true
                },
            );
            let keep = !monitor_alarm && self.benchmark.performance.satisfied_by(buffers.state());
            if keep {
                outcome.kept += 1;
                for (count, &fired) in outcome.alarms.iter_mut().zip(&alarmed) {
                    *count += usize::from(fired);
                }
            }
        }
        outcome
    }

    /// Runs the experiment against a set of named detectors.
    ///
    /// Trials stream through parallel lanes: lane `w` of `L` scans the
    /// contiguous trial chunk `[w·c, (w+1)·c)` with `c = ⌈N/L⌉`, and each
    /// lane reuses one set of step buffers and scanners across its trials
    /// (`scan_range` above), so no rollout is ever materialised as a
    /// [`Trace`]. Lanes report integer kept/alarm counts that are summed in
    /// lane order, so reports are **bit-identical** for every lane count.
    ///
    /// Detector evaluation is fused per trial: every detector's streaming
    /// scanner ([`Detector::scanner`], allocated once per lane) is fed the
    /// trial's residues instant by instant, and detector stepping stops the
    /// moment every detector in the suite has alarmed. Verdicts — and
    /// therefore the reported rates — are identical to evaluating each
    /// detector independently with [`cps_detectors::false_alarm_rate`] over
    /// [`FarExperiment::noise_traces`].
    pub fn run(&self, detectors: &[(&str, &dyn Detector)]) -> FarReport {
        let lanes = self.parallelism().min(self.num_trials.max(1));
        let outcome = if lanes <= 1 {
            self.scan_range(0..self.num_trials, detectors)
        } else {
            let chunk = self.num_trials.div_ceil(lanes);
            let mut slots: Vec<Option<LaneOutcome>> = Vec::new();
            slots.resize_with(lanes, || None);
            thread::scope(|scope| {
                for (lane, slot) in slots.iter_mut().enumerate() {
                    let lo = (lane * chunk).min(self.num_trials);
                    let hi = ((lane + 1) * chunk).min(self.num_trials);
                    scope.spawn(move || *slot = Some(self.scan_range(lo..hi, detectors)));
                }
            });
            let mut total = LaneOutcome {
                kept: 0,
                alarms: vec![0usize; detectors.len()],
            };
            // Integer counts: summation order cannot change the result.
            for lane in slots.into_iter().flatten() {
                total.kept += lane.kept;
                for (count, add) in total.alarms.iter_mut().zip(&lane.alarms) {
                    *count += add;
                }
            }
            total
        };
        let rates = detectors
            .iter()
            .zip(&outcome.alarms)
            .map(|((name, _), &count)| {
                let rate = if outcome.kept == 0 {
                    0.0
                } else {
                    count as f64 / outcome.kept as f64
                };
                ((*name).to_string(), rate)
            })
            .collect();
        FarReport {
            generated: self.num_trials,
            kept: outcome.kept,
            discarded: self.num_trials - outcome.kept,
            rates,
        }
    }
}

/// Integer tallies produced by one evaluation lane: trials kept after the
/// pfc / monitor filter and per-detector alarm counts over those kept trials.
#[derive(Debug)]
struct LaneOutcome {
    kept: usize,
    alarms: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_control::ResidueNorm;
    use cps_detectors::{ThresholdDetector, ThresholdSpec};

    #[test]
    fn noise_traces_pass_the_filter_by_construction() {
        let benchmark = cps_models::trajectory_tracking().unwrap();
        let experiment = FarExperiment::new(&benchmark, 50, 7);
        let traces = experiment.noise_traces();
        assert!(
            !traces.is_empty(),
            "the nominal noise level should pass the filter"
        );
        for trace in &traces {
            assert!(benchmark
                .performance
                .satisfied_by(trace.states().last().unwrap()));
            assert!(!benchmark.monitors.evaluate(trace.measurements()).alarmed());
        }
    }

    #[test]
    fn far_orders_detectors_by_threshold_tightness() {
        let benchmark = cps_models::trajectory_tracking().unwrap();
        let experiment = FarExperiment::new(&benchmark, 80, 11);
        let horizon = benchmark.horizon;
        let tight =
            ThresholdDetector::new(ThresholdSpec::constant(1e-4, horizon), ResidueNorm::Linf);
        let loose =
            ThresholdDetector::new(ThresholdSpec::constant(1.0, horizon), ResidueNorm::Linf);
        let report = experiment.run(&[("tight", &tight), ("loose", &loose)]);
        assert_eq!(report.generated, 80);
        assert_eq!(report.kept + report.discarded, 80);
        let tight_rate = report.rate_of("tight").unwrap();
        let loose_rate = report.rate_of("loose").unwrap();
        assert!(tight_rate >= loose_rate);
        assert!(tight_rate > 0.9, "a near-zero threshold alarms on noise");
        assert!(loose_rate < 0.1, "a huge threshold rarely alarms on noise");
        assert_eq!(report.rate_of("missing"), None);
    }

    #[test]
    fn parallel_rollouts_are_bit_identical_to_sequential() {
        let benchmark = cps_models::trajectory_tracking().unwrap();
        let horizon = benchmark.horizon;
        let detector =
            ThresholdDetector::new(ThresholdSpec::constant(0.05, horizon), ResidueNorm::Linf);
        let sequential = FarExperiment::new(&benchmark, 64, 42).with_parallelism(1);
        let report_seq = sequential.run(&[("th", &detector as &dyn Detector)]);
        for workers in [2, 3, 8] {
            let parallel = FarExperiment::new(&benchmark, 64, 42).with_parallelism(workers);
            assert_eq!(parallel.parallelism(), workers);
            let report_par = parallel.run(&[("th", &detector as &dyn Detector)]);
            assert_eq!(
                report_seq, report_par,
                "{workers}-worker report differs from sequential"
            );
        }
    }

    #[test]
    fn default_parallelism_uses_available_cores() {
        let benchmark = cps_models::trajectory_tracking().unwrap();
        let experiment = FarExperiment::new(&benchmark, 10, 3);
        assert!(experiment.parallelism() >= 1);
        // More workers than trials must not panic or drop trials.
        let wide = FarExperiment::new(&benchmark, 3, 3).with_parallelism(64);
        assert_eq!(wide.run(&[]).generated, 3);
    }

    #[test]
    fn fused_evaluation_matches_per_detector_rates() {
        use cps_detectors::{false_alarm_rate, Chi2Detector, CusumDetector};

        let benchmark = cps_models::trajectory_tracking().unwrap();
        let horizon = benchmark.horizon;
        let th = ThresholdDetector::new(ThresholdSpec::constant(0.05, horizon), ResidueNorm::Linf);
        let chi2 = Chi2Detector::new(3, 0.004, ResidueNorm::L2);
        let cusum = CusumDetector::new(0.02, 0.06, ResidueNorm::Linf);
        let experiment = FarExperiment::new(&benchmark, 60, 19);
        let report = experiment.run(&[
            ("th", &th as &dyn Detector),
            ("chi2", &chi2),
            ("cusum", &cusum),
        ]);
        // The fused, trial-short-circuiting loop must reproduce the naive
        // one-detector-at-a-time rates exactly.
        let kept = experiment.noise_traces();
        assert_eq!(report.rate_of("th"), Some(false_alarm_rate(&th, &kept)));
        assert_eq!(report.rate_of("chi2"), Some(false_alarm_rate(&chi2, &kept)));
        assert_eq!(
            report.rate_of("cusum"),
            Some(false_alarm_rate(&cusum, &kept))
        );
    }

    #[test]
    fn streaming_run_counts_match_trace_materialisation() {
        let benchmark = cps_models::trajectory_tracking().unwrap();
        for seed in [0u64, 7, 1234] {
            let experiment = FarExperiment::new(&benchmark, 50, seed);
            // The streaming engine never builds a Trace, yet its kept count
            // must equal the number of traces the materialising path keeps.
            let report = experiment.run(&[]);
            assert_eq!(report.kept, experiment.noise_traces().len());
            assert_eq!(report.discarded, 50 - report.kept);
        }
    }

    #[test]
    fn rate_of_returns_first_entry_for_duplicate_names() {
        let benchmark = cps_models::trajectory_tracking().unwrap();
        let horizon = benchmark.horizon;
        let tight =
            ThresholdDetector::new(ThresholdSpec::constant(1e-4, horizon), ResidueNorm::Linf);
        let loose =
            ThresholdDetector::new(ThresholdSpec::constant(1.0, horizon), ResidueNorm::Linf);
        let experiment = FarExperiment::new(&benchmark, 40, 5);
        let report = experiment.run(&[("dup", &tight as &dyn Detector), ("dup", &loose)]);
        assert_eq!(report.rates.len(), 2, "duplicates are all reported");
        // Insertion order: rate_of resolves to the first (tight) detector.
        assert_eq!(report.rate_of("dup"), Some(report.rates[0].1));
        assert!(report.rates[0].1 >= report.rates[1].1);
    }
}
