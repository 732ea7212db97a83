use cps_detectors::ThresholdSpec;
use cps_models::Benchmark;

use crate::synthesis::guarded;
use crate::{AttackSynthesizer, SynthesisConfig, SynthesisError};

/// Synthesises the *provably safe static* threshold the paper compares its
/// variable thresholds against.
///
/// A static detector uses the same bound at every sampling instant. Larger
/// bounds give the attacker more room, smaller bounds raise more false
/// alarms; the "provably safe" choice is the **largest** constant `th` such
/// that Algorithm 1 can prove no stealthy successful attack exists when every
/// residue must stay below `th`. The value is located by bisection over
/// `[0, upper]`, where `upper` defaults to twice the residue peak of the
/// undefended attack (a bound above which the detector certainly no longer
/// constrains the attacker).
///
/// Returns the threshold specification together with the number of
/// Algorithm 1 queries spent.
///
/// # Errors
///
/// [`SynthesisError::NoAttack`] when the undefended loop admits no stealthy
/// attack (every threshold, `+∞` included, would be "safe", so there is no
/// baseline to report); [`SynthesisError::Solver`] for a failed Algorithm 1
/// query, including one interrupted by [`SynthesisConfig::timeout`] (a
/// bisection cut short has no safe bound to report); and
/// [`SynthesisError::Panicked`] for a panic caught at the same run boundary
/// as the CEGIS loops.
pub fn synthesize_static_threshold(
    benchmark: &Benchmark,
    config: SynthesisConfig,
    bisection_steps: usize,
) -> Result<(ThresholdSpec, usize), SynthesisError> {
    let synthesizer = AttackSynthesizer::new(benchmark, config);
    guarded(&synthesizer, || {
        let horizon = synthesizer.horizon();
        let mut queries = 0;

        // Upper end of the bracket: the undefended attack's residue peak.
        queries += 1;
        let Some(initial) = synthesizer.synthesize(None)? else {
            return Err(SynthesisError::NoAttack);
        };
        let (_, peak) = initial.pivot();
        let mut lo = 0.0_f64; // threshold 0 alarms on everything: trivially safe
        let mut hi = (2.0 * peak).max(1e-6);

        // Check whether the upper end happens to be safe already.
        queries += 1;
        let hi_partial: Vec<Option<f64>> = vec![Some(hi); horizon];
        if synthesizer.synthesize(Some(&hi_partial))?.is_none() {
            return Ok((ThresholdSpec::constant(hi, horizon), queries));
        }

        for _ in 0..bisection_steps {
            let mid = 0.5 * (lo + hi);
            let partial: Vec<Option<f64>> = vec![Some(mid); horizon];
            queries += 1;
            if synthesizer.synthesize(Some(&partial))?.is_none() {
                // mid is safe: try a larger (lower-FAR) threshold.
                lo = mid;
            } else {
                // an attack slips below mid: must tighten.
                hi = mid;
            }
        }

        Ok((ThresholdSpec::constant(lo, horizon), queries))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_threshold_is_safe_and_nontrivial() {
        let benchmark = cps_models::trajectory_tracking().unwrap();
        let config = SynthesisConfig::default();
        let (spec, queries) =
            synthesize_static_threshold(&benchmark, config, 8).expect("bisection runs");
        assert!(queries >= 2);
        assert!(spec.is_static());
        let value = spec.value_at(0);
        assert!(value.is_finite());
        assert!(value >= 0.0);

        // Safety: no stealthy attack exists below the returned threshold.
        let synthesizer = AttackSynthesizer::new(&benchmark, config);
        let partial = synthesizer.spec_to_partial(&spec);
        assert!(synthesizer.synthesize(Some(&partial)).unwrap().is_none());
    }

    #[test]
    fn bisection_converges_towards_the_boundary() {
        let benchmark = cps_models::trajectory_tracking().unwrap();
        let config = SynthesisConfig::default();
        let (coarse, _) = synthesize_static_threshold(&benchmark, config, 3).unwrap();
        let (fine, _) = synthesize_static_threshold(&benchmark, config, 8).unwrap();
        // More bisection steps can only move the safe threshold upwards
        // (towards the true supremum), never below the coarse estimate.
        assert!(fine.value_at(0) + 1e-12 >= coarse.value_at(0));
    }

    #[test]
    fn timeout_interrupts_the_bisection() {
        let benchmark = cps_models::trajectory_tracking().unwrap();
        let config = SynthesisConfig {
            timeout: Some(std::time::Duration::ZERO),
            ..SynthesisConfig::default()
        };
        match synthesize_static_threshold(&benchmark, config, 8) {
            Err(SynthesisError::Solver(err)) => {
                assert_eq!(
                    err.interrupt_reason(),
                    Some(cps_smt::InterruptReason::Deadline)
                );
            }
            other => panic!("a zero timeout must interrupt the first query, got {other:?}"),
        }
    }

    #[test]
    fn unattackable_loop_is_a_typed_error_not_an_infinite_threshold() {
        // Under the conjunctive dead-zone encoding the undefended VSC admits
        // no attack (the CEGIS loops report `ConvergenceStatus::NoAttack`).
        let benchmark = cps_models::vsc().unwrap();
        let config = SynthesisConfig {
            monitor_encoding: crate::MonitorEncoding::ConjunctiveAfter(5),
            ..SynthesisConfig::default()
        };
        assert_eq!(
            synthesize_static_threshold(&benchmark, config, 8),
            Err(SynthesisError::NoAttack)
        );
    }
}
