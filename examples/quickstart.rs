//! Quickstart: synthesize an attack against an undefended tracking loop, then
//! synthesize a variable-threshold detector that provably blocks it.
//!
//! Run with `cargo run --example quickstart --release`.

use cps_control::ResidueNorm;
use cps_detectors::{Detector, ThresholdDetector};
use secure_cps::{AttackSynthesizer, PivotSynthesizer, SynthesisConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Pick a benchmark: a position-tracking loop with a spoofable sensor.
    let benchmark = cps_models::trajectory_tracking()?;
    println!(
        "benchmark: {} (horizon {})",
        benchmark.name, benchmark.horizon
    );

    // 2. Algorithm 1: is the loop attackable without a residue detector?
    let config = SynthesisConfig {
        convergence_margin: 0.25,
        ..SynthesisConfig::default()
    };
    let synthesizer = AttackSynthesizer::new(&benchmark, config);
    let attack = synthesizer
        .synthesize(None)?
        .expect("the undefended loop is attackable");
    let final_state = attack.trace.states().last().expect("non-empty trace");
    println!(
        "stealthy attack found: final position {:.3} (target {:.3}), peak residue {:.4}",
        final_state[0],
        benchmark.performance.target(),
        attack.pivot().1
    );

    // 3. Algorithm 2: synthesize a variable threshold that blocks every
    //    stealthy attack.
    let report = PivotSynthesizer::new(&benchmark, config)
        .with_max_rounds(400)
        .run()?;
    assert!(
        report.status.is_converged(),
        "pivot-based synthesis did not converge: {:?}",
        report.status
    );
    println!(
        "pivot-based synthesis: converged={} after {} rounds",
        report.status.is_converged(),
        report.rounds
    );

    // 4. The synthesized detector catches the attack from step 2.
    let detector = ThresholdDetector::new(report.threshold_spec(), ResidueNorm::Linf);
    println!(
        "detector alarms on the undefended attack at instant {:?}",
        detector.first_alarm(&attack.trace)
    );

    // 5. And Algorithm 1 certifies that no stealthy attack remains.
    let residual = synthesizer.synthesize(Some(&report.partial))?;
    println!(
        "stealthy attack under the new detector: {:?}",
        residual.map(|_| "found")
    );
    Ok(())
}
