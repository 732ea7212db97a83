//! Differential suite for the streaming detection runtime: the small-vector
//! linalg backend, the allocation-free rollout engine, the monitor scanner
//! and the parallel FAR lanes must all be **bit-identical** to their
//! materialising references (`simulate_reference`, `MonitorSuite::evaluate`,
//! `false_alarm_rate` over `FarExperiment::noise_traces`), on every plant in
//! the zoo, attacked and attack-free, across a seed matrix.
//!
//! `CPS_SMT_SEED` (the same knob the SMT differential suites use) shifts
//! every noise seed in the matrix, so each CI seed lane replays a disjoint
//! set of rollouts while staying exactly reproducible locally.

use cps_control::{ClosedLoop, NoiseModel, ResidueNorm, SensorAttack, StepBuffers, Trace};
use cps_detectors::{
    false_alarm_rate, Chi2Detector, CusumDetector, Detector, ThresholdDetector, ThresholdSpec,
};
use cps_linalg::Vector;
use cps_models::Benchmark;
use secure_cps::FarExperiment;

/// Base noise seeds, shifted by `CPS_SMT_SEED` so CI's seed matrix exercises
/// disjoint rollouts per lane.
fn seed_matrix() -> [u64; 3] {
    let shift: u64 = std::env::var("CPS_SMT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    [0, 7, 1234].map(|s: u64| s.wrapping_add(shift.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// A deterministic non-trivial attack on the benchmark's attacked sensors:
/// a ramp up to the attack bound, zero on untouched sensors.
fn ramp_attack(benchmark: &Benchmark) -> SensorAttack {
    let outputs = benchmark.num_outputs();
    let injections = (0..benchmark.horizon)
        .map(|k| {
            let scale = benchmark.attack_bound * (k + 1) as f64 / benchmark.horizon as f64;
            Vector::from_fn(outputs, |i| {
                if benchmark.attacked_sensors.contains(&i) {
                    scale
                } else {
                    0.0
                }
            })
        })
        .collect();
    SensorAttack::new(injections)
}

fn simulate_streaming(
    loop_: &ClosedLoop,
    initial: &Vector,
    steps: usize,
    noise: &NoiseModel,
    attack: Option<&SensorAttack>,
    seed: u64,
) -> Trace {
    let mut buffers = StepBuffers::new();
    // `simulate` itself is built on `simulate_into`; drive the buffers
    // explicitly too so the final-state invariant below sees them.
    let trace = loop_.simulate(initial, steps, noise, attack, seed);
    let executed = loop_.simulate_into(initial, steps, noise, attack, seed, &mut buffers, |_| true);
    assert_eq!(executed, steps);
    assert_eq!(buffers.state(), trace.states().last().unwrap());
    assert_eq!(buffers.estimate(), trace.estimates().last().unwrap());
    trace
}

fn assert_traces_identical(a: &Trace, b: &Trace, context: &str) {
    assert_eq!(a.states(), b.states(), "{context}: states differ");
    assert_eq!(a.estimates(), b.estimates(), "{context}: estimates differ");
    assert_eq!(
        a.measurements(),
        b.measurements(),
        "{context}: measurements differ"
    );
    assert_eq!(a.controls(), b.controls(), "{context}: controls differ");
    assert_eq!(a.residues(), b.residues(), "{context}: residues differ");
}

/// The streaming rollout engine must reproduce the retired materialising
/// loop (`simulate_reference`) bit-for-bit on every plant, with and without
/// sensor attacks, for every seed in the matrix.
#[test]
fn streaming_rollouts_match_reference_on_every_plant() {
    for benchmark in cps_models::all_benchmarks().expect("models build") {
        let attack = ramp_attack(&benchmark);
        for seed in seed_matrix() {
            for attack in [None, Some(&attack)] {
                let context = format!(
                    "{} seed={seed} attacked={}",
                    benchmark.name,
                    attack.is_some()
                );
                let reference = benchmark.closed_loop.simulate_reference(
                    &benchmark.initial_state,
                    benchmark.horizon,
                    &benchmark.noise,
                    attack,
                    seed,
                );
                let streaming = simulate_streaming(
                    &benchmark.closed_loop,
                    &benchmark.initial_state,
                    benchmark.horizon,
                    &benchmark.noise,
                    attack,
                    seed,
                );
                assert_traces_identical(&streaming, &reference, &context);
            }
        }
    }
}

/// A heap-backed initial state must produce the exact same trace as the
/// (inline) small-vector representation: the storage backend is invisible to
/// the dynamics.
#[test]
fn heap_backed_initial_state_is_indistinguishable() {
    for benchmark in cps_models::all_benchmarks().expect("models build") {
        let heap_initial = Vector::heap_backed(benchmark.initial_state.as_slice().to_vec());
        assert_eq!(heap_initial, benchmark.initial_state);
        for seed in seed_matrix() {
            let inline_trace = benchmark.closed_loop.simulate(
                &benchmark.initial_state,
                benchmark.horizon,
                &benchmark.noise,
                None,
                seed,
            );
            let heap_trace = benchmark.closed_loop.simulate(
                &heap_initial,
                benchmark.horizon,
                &benchmark.noise,
                None,
                seed,
            );
            assert_traces_identical(&heap_trace, &inline_trace, &benchmark.name);
        }
    }
}

fn zoo_detectors(benchmark: &Benchmark) -> (ThresholdDetector, Chi2Detector, CusumDetector) {
    (
        ThresholdDetector::new(
            ThresholdSpec::constant(0.05, benchmark.horizon),
            ResidueNorm::Linf,
        ),
        Chi2Detector::new(5, 0.01, ResidueNorm::L2),
        CusumDetector::new(0.02, 0.08, ResidueNorm::Linf),
    )
}

/// The streaming `FarExperiment::run` must report bit-identical rates for
/// every lane count, and those rates must equal the per-detector rates over
/// the materialised kept population.
#[test]
fn far_lanes_are_bit_identical_across_widths_and_to_materialised_rates() {
    for benchmark in cps_models::all_benchmarks().expect("models build") {
        let (threshold, chi2, cusum) = zoo_detectors(&benchmark);
        let detectors: [(&str, &dyn Detector); 3] =
            [("static", &threshold), ("chi2", &chi2), ("cusum", &cusum)];
        for seed in seed_matrix() {
            let sequential = FarExperiment::new(&benchmark, 48, seed).with_parallelism(1);
            let report_seq = sequential.run(&detectors);
            for lanes in [2, 3, 8] {
                let report_par = FarExperiment::new(&benchmark, 48, seed)
                    .with_parallelism(lanes)
                    .run(&detectors);
                assert_eq!(
                    report_seq, report_par,
                    "{} seed={seed}: {lanes}-lane report differs",
                    benchmark.name
                );
            }
            // Cross-check against the trace-materialising evaluation path.
            let kept = sequential.noise_traces();
            assert_eq!(report_seq.kept, kept.len());
            for (name, detector) in detectors {
                let rate = report_seq.rate_of(name).unwrap();
                let reference = false_alarm_rate(detector, &kept);
                assert_eq!(
                    rate.to_bits(),
                    reference.to_bits(),
                    "{} seed={seed} {name}: streaming rate differs",
                    benchmark.name
                );
            }
        }
    }
}

/// The streaming monitor scanner must agree with the materialising
/// `MonitorSuite::evaluate` on real simulated measurement streams —
/// including attacked ones, which is where monitors actually fire.
#[test]
fn monitor_scanner_matches_first_alarm_on_simulated_streams() {
    for benchmark in cps_models::all_benchmarks().expect("models build") {
        let attack = ramp_attack(&benchmark);
        for seed in seed_matrix() {
            for attack in [None, Some(&attack)] {
                let trace = benchmark.closed_loop.simulate(
                    &benchmark.initial_state,
                    benchmark.horizon,
                    &benchmark.noise,
                    attack,
                    seed,
                );
                let reference = benchmark.monitors.evaluate(trace.measurements()).alarm_at;
                let mut scan = benchmark.monitors.scanner();
                let streamed = trace.measurements().iter().position(|y| scan.step(y));
                assert_eq!(
                    streamed,
                    reference,
                    "{} seed={seed} attacked={}: scanner verdict differs",
                    benchmark.name,
                    attack.is_some()
                );
            }
        }
    }
}
