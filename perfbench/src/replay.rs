//! The FAR split of the traced run: replays a `FarExperiment`'s trials
//! through the same public calls it makes — `ClosedLoop::simulate_into`, the
//! `MonitorSuite::scanner` and each `Detector::scanner` — but as three
//! separately timed phases over chunks of trials, so the rollout, the monitor
//! filter and the detector scan each get their own span.
//!
//! `FarExperiment::run` fuses the three per step and stops a rollout at its
//! monitor alarm; the replay rolls every trial out to the horizon first, so
//! `control.rollout` here is an upper bound on the fused engine's rollout
//! work. Kept and alarm counts do not depend on the split, and the caller
//! checks them against `FarExperiment::run`.

use cps_control::StepBuffers;
use cps_detectors::Detector;
use cps_linalg::Vector;
use cps_models::Benchmark;

use crate::trace::Tracer;

/// Trials rolled out per chunk: bounds the stored measurements and residues
/// to a few MiB while keeping the per-chunk span count small.
const CHUNK: usize = 512;

/// Counts produced by one replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Replay {
    pub trials: usize,
    pub kept: usize,
    /// Per detector, alarms over the kept trials.
    pub alarms: Vec<usize>,
    pub steps_simulated: u64,
    pub steps_scanned: u64,
}

/// Replays trials `0..trials` of the experiment seeded `seed` on `benchmark`.
/// Opens one `control.rollout`, `monitors.filter` and `detectors.scan` span
/// per chunk under the caller's open span.
pub fn replay(
    benchmark: &Benchmark,
    trials: usize,
    seed: u64,
    detectors: &[(&str, &dyn Detector)],
    label: &str,
    tracer: &mut Tracer,
) -> Replay {
    let horizon = benchmark.horizon;
    let mut out = Replay {
        trials,
        alarms: vec![0; detectors.len()],
        ..Replay::default()
    };
    let mut buffers = StepBuffers::new();
    let mut monitor = benchmark.monitors.scanner();
    let mut scanners: Vec<_> = detectors.iter().map(|(_, d)| d.scanner()).collect();
    // Per chunk: measurements and residues, trial-major, plus each trial's
    // final state and whether it survived the filter.
    let mut measurements: Vec<Vector> = Vec::new();
    let mut residues: Vec<Vector> = Vec::new();
    let mut finals: Vec<Vector> = Vec::new();
    let mut kept = Vec::with_capacity(CHUNK);

    let mut lo = 0;
    while lo < trials {
        let hi = (lo + CHUNK).min(trials);
        let n = hi - lo;

        let span = tracer.begin("control.rollout", label);
        measurements.resize_with(n * horizon, Vector::default);
        residues.resize_with(n * horizon, Vector::default);
        finals.resize_with(n, Vector::default);
        for (i, trial) in (lo..hi).enumerate() {
            let base = i * horizon;
            let steps = benchmark.closed_loop.simulate_into(
                &benchmark.initial_state,
                horizon,
                &benchmark.noise,
                None,
                seed.wrapping_add(trial as u64),
                &mut buffers,
                |record| {
                    measurements[base + record.k].copy_from(record.measurement);
                    residues[base + record.k].copy_from(record.residue);
                    true
                },
            );
            out.steps_simulated += steps as u64;
            finals[i].copy_from(buffers.state());
        }
        tracer.end(span);

        let span = tracer.begin("monitors.filter", label);
        kept.clear();
        for i in 0..n {
            monitor.reset();
            let trial = &measurements[i * horizon..(i + 1) * horizon];
            let alarmed = trial.iter().any(|y| monitor.step(y));
            kept.push(!alarmed && benchmark.performance.satisfied_by(&finals[i]));
        }
        tracer.end(span);

        let span = tracer.begin("detectors.scan", label);
        for (i, _) in kept.iter().enumerate().filter(|(_, &k)| k) {
            out.kept += 1;
            let trial = &residues[i * horizon..(i + 1) * horizon];
            for (scanner, alarms) in scanners.iter_mut().zip(out.alarms.iter_mut()) {
                scanner.reset();
                for (k, z) in trial.iter().enumerate() {
                    out.steps_scanned += 1;
                    if scanner.step(k, z) {
                        *alarms += 1;
                        break;
                    }
                }
            }
        }
        tracer.end(span);
        lo = hi;
    }
    out
}

impl Replay {
    /// The false-alarm rate of detector `i`, computed exactly as
    /// `FarReport::rates` is.
    pub fn rate(&self, i: usize) -> f64 {
        if self.kept == 0 {
            0.0
        } else {
            self.alarms[i] as f64 / self.kept as f64
        }
    }
}
