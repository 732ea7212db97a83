use cps_linalg::Matrix;
use cps_models::Benchmark;
use cps_monitors::MeasurementSymbols;
use cps_smt::{LinExpr, VarId, VarPool};

/// Symbolic unrolling of a benchmark's closed-loop implementation.
///
/// Every quantity of the loop — plant state, estimator state, control input,
/// (attacked) measurement, residue — is an *affine* function of the attacker's
/// per-step injections, because the plant, estimator and controller are all
/// linear and their gains are known numerically. `UnrolledLoop` performs that
/// forward substitution once and exposes the resulting [`LinExpr`]s; the
/// attack and threshold synthesis algorithms then only add constraints over
/// them.
///
/// The unrolling mirrors Algorithm 1 of the paper line by line (initialisation
/// at line 2, the per-step updates at lines 4–8), with process and measurement
/// noise set to zero exactly as in the algorithm.
#[derive(Debug)]
pub struct UnrolledLoop {
    vars: VarPool,
    /// `attack_vars[k][i]` is the injection on `attacked_sensors[i]` at step `k`.
    attack_vars: Vec<Vec<VarId>>,
    /// Which measurement component each attack variable column falsifies.
    attacked_sensors: Vec<usize>,
    /// Residue expressions `z_k[j]`, indexed `[k][j]`.
    residues: Vec<Vec<LinExpr>>,
    /// Attacked measurement expressions `ỹ_k[j]` (what the monitors see).
    measurements: Vec<Vec<LinExpr>>,
    /// Plant state expressions `x_k[i]`, indexed `[k][i]` with `k = 0..=T`.
    states: Vec<Vec<LinExpr>>,
    horizon: usize,
}

impl UnrolledLoop {
    /// Unrolls `benchmark.closed_loop` over `benchmark.horizon` steps.
    pub fn new(benchmark: &Benchmark) -> Self {
        Self::with_horizon(benchmark, benchmark.horizon)
    }

    /// Unrolls the loop over an explicit horizon (used by reduced-size tests
    /// and ablations).
    pub fn with_horizon(benchmark: &Benchmark, horizon: usize) -> Self {
        let plant = benchmark.closed_loop.plant();
        let n = plant.num_states();
        let p = plant.num_outputs();
        let attacked = benchmark.attacked_sensors.clone();

        let mut vars = VarPool::new();
        let mut attack_vars = Vec::with_capacity(horizon);
        for k in 0..horizon {
            attack_vars.push(
                attacked
                    .iter()
                    .map(|s| vars.fresh(format!("a_{k}_{s}")))
                    .collect::<Vec<_>>(),
            );
        }

        // Affine state vectors as vectors of expressions.
        let constant_vec = |values: &[f64]| -> Vec<LinExpr> {
            values.iter().map(|v| LinExpr::constant(*v)).collect()
        };
        let mat_vec = |m: &Matrix, v: &[LinExpr]| -> Vec<LinExpr> {
            (0..m.rows())
                .map(|i| {
                    let mut acc = LinExpr::zero();
                    for (j, expr) in v.iter().enumerate() {
                        let coeff = m[(i, j)];
                        if coeff != 0.0 {
                            acc = acc + expr.clone().scale(coeff);
                        }
                    }
                    acc
                })
                .collect()
        };
        let add = |a: &[LinExpr], b: &[LinExpr]| -> Vec<LinExpr> {
            a.iter()
                .zip(b.iter())
                .map(|(x, y)| x.clone() + y.clone())
                .collect()
        };
        let sub = |a: &[LinExpr], b: &[LinExpr]| -> Vec<LinExpr> {
            a.iter()
                .zip(b.iter())
                .map(|(x, y)| x.clone() - y.clone())
                .collect()
        };

        let k_gain = benchmark.closed_loop.controller_gain();
        let l_gain = benchmark.closed_loop.estimator_gain();
        let x_des = constant_vec(benchmark.closed_loop.reference().x_des().as_slice());
        let u_eq = constant_vec(benchmark.closed_loop.reference().u_eq().as_slice());

        let mut x = constant_vec(benchmark.initial_state.as_slice());
        let mut xhat = constant_vec(&vec![0.0; n]);

        let mut residues = Vec::with_capacity(horizon);
        let mut measurements = Vec::with_capacity(horizon);
        let mut states = Vec::with_capacity(horizon + 1);
        states.push(x.clone());

        for step_vars in attack_vars.iter().take(horizon) {
            // u_k = u_eq − K (x̂_k − x_des)
            let error = sub(&xhat, &x_des);
            let u = sub(&u_eq, &mat_vec(k_gain, &error));

            // ỹ_k = C x_k + D u_k + a_k (attacked sensors only)
            let mut y = add(&mat_vec(plant.c(), &x), &mat_vec(plant.d(), &u));
            for (i, sensor) in attacked.iter().enumerate() {
                y[*sensor] = y[*sensor].clone() + LinExpr::var(step_vars[i]);
            }

            // z_k = ỹ_k − (C x̂_k + D u_k)
            let y_hat = add(&mat_vec(plant.c(), &xhat), &mat_vec(plant.d(), &u));
            let z = sub(&y, &y_hat);

            // Plant and estimator updates.
            let x_next = add(&mat_vec(plant.a(), &x), &mat_vec(plant.b(), &u));
            let xhat_next = add(
                &add(&mat_vec(plant.a(), &xhat), &mat_vec(plant.b(), &u)),
                &mat_vec(l_gain, &z),
            );

            measurements.push(y);
            residues.push(z);
            x = x_next;
            xhat = xhat_next;
            states.push(x.clone());
        }

        let _ = p;
        Self {
            vars,
            attack_vars,
            attacked_sensors: attacked,
            residues,
            measurements,
            states,
            horizon,
        }
    }

    /// The variable pool containing all attack variables.
    pub fn vars(&self) -> &VarPool {
        &self.vars
    }

    /// Consumes the unrolling and returns the variable pool (needed to build a
    /// solver over the same variables).
    pub fn vars_cloned(&self) -> VarPool {
        self.vars.clone()
    }

    /// The analysis horizon `T`.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Attack variable for step `k` and attacked-sensor column `i`.
    pub fn attack_var(&self, k: usize, i: usize) -> VarId {
        self.attack_vars[k][i]
    }

    /// The measurement components the attacker can falsify.
    pub fn attacked_sensors(&self) -> &[usize] {
        &self.attacked_sensors
    }

    /// Residue expressions `z_k[j]`.
    pub fn residue(&self, k: usize, j: usize) -> &LinExpr {
        &self.residues[k][j]
    }

    /// Number of residue components per step.
    pub fn num_residue_components(&self) -> usize {
        self.residues.first().map_or(0, Vec::len)
    }

    /// Attacked measurement expressions wrapped for the monitor encoders.
    pub fn measurement_symbols(&self) -> MeasurementSymbols {
        MeasurementSymbols::new(self.measurements.clone())
    }

    /// Affine expressions of the final plant state `x_T`.
    pub fn final_state(&self) -> &[LinExpr] {
        self.states.last().expect("at least the initial state")
    }

    /// Affine expressions of the plant state at step `k` (0-based, up to `T`).
    pub fn state(&self, k: usize) -> &[LinExpr] {
        &self.states[k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_control::SensorAttack;
    use cps_linalg::{SplitMix64, Vector};

    /// Largest deviation the unrolling may show from the simulator, relative
    /// to `max(1, |simulated|)`. Both evaluate the same affine map in a
    /// different order (the unrolling folds each quantity into one
    /// coefficient per attack variable), so they differ by round-off. The
    /// four small plants agree to ~1e-14. The VSC at T=50 is badly scaled
    /// and its late residues, differences of near-equal terms, deviate by
    /// up to ~9e-10, so it is held to 1e-8 instead of 1e-9.
    fn tolerance(benchmark: &Benchmark) -> f64 {
        if benchmark.name == "vehicle-stability-controller" {
            1e-8
        } else {
            1e-9
        }
    }

    fn assert_close(symbolic: f64, simulated: f64, tolerance: f64, what: &str) {
        assert!(
            (symbolic - simulated).abs() <= tolerance * simulated.abs().max(1.0),
            "{what}: unrolling gives {symbolic}, simulation {simulated}"
        );
    }

    /// The symbolic unrolling evaluated at a concrete attack vector must match
    /// the closed-loop simulator (both are noise-free) on every plant: a ramp
    /// up to the attack bound and random injections within it.
    #[test]
    fn unrolling_matches_simulation_on_concrete_attacks() {
        let mut rng = SplitMix64::new(0x0E4C_0DE5);
        for benchmark in cps_models::all_benchmarks().unwrap() {
            let unrolled = UnrolledLoop::new(&benchmark);
            let horizon = benchmark.horizon;
            let outputs = benchmark.num_outputs();
            let bound = benchmark.attack_bound;
            let tolerance = tolerance(&benchmark);
            for case in 0..4 {
                let mut assignment = vec![0.0; unrolled.vars().len()];
                let injections = (0..horizon)
                    .map(|k| {
                        let mut injection = Vector::zeros(outputs);
                        for (i, &sensor) in benchmark.attacked_sensors.iter().enumerate() {
                            let value = match case {
                                0 => bound * (k + 1) as f64 / horizon as f64,
                                _ => rng.range(-bound, bound),
                            };
                            injection[sensor] = value;
                            assignment[unrolled.attack_var(k, i).index()] = value;
                        }
                        injection
                    })
                    .collect();
                let trace = benchmark.closed_loop.simulate(
                    &benchmark.initial_state,
                    horizon,
                    &cps_control::NoiseModel::none(benchmark.num_states(), outputs),
                    Some(&SensorAttack::new(injections)),
                    0,
                );

                let symbols = unrolled.measurement_symbols();
                for k in 0..horizon {
                    let context = format!("{} case {case} step {k}", benchmark.name);
                    let simulated = &trace.residues()[k];
                    for j in 0..unrolled.num_residue_components() {
                        let symbolic = unrolled.residue(k, j).evaluate(&assignment);
                        assert_close(
                            symbolic,
                            simulated[j],
                            tolerance,
                            &format!("{context} residue {j}"),
                        );
                    }
                    let simulated = &trace.measurements()[k];
                    for j in 0..simulated.len() {
                        let symbolic = symbols.measurement(k, j).evaluate(&assignment);
                        assert_close(
                            symbolic,
                            simulated[j],
                            tolerance,
                            &format!("{context} output {j}"),
                        );
                    }
                }
                let simulated = trace.states().last().unwrap();
                for (i, expr) in unrolled.final_state().iter().enumerate() {
                    let context = format!("{} case {case} final state {i}", benchmark.name);
                    assert_close(
                        expr.evaluate(&assignment),
                        simulated[i],
                        tolerance,
                        &context,
                    );
                }
            }
        }
    }

    #[test]
    fn attack_free_unrolling_has_zero_residues() {
        let benchmark = cps_models::trajectory_tracking().unwrap();
        let unrolled = UnrolledLoop::new(&benchmark);
        let assignment = vec![0.0; unrolled.vars().len()];
        for k in 0..unrolled.horizon() {
            for j in 0..unrolled.num_residue_components() {
                assert!(unrolled.residue(k, j).evaluate(&assignment).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn reduced_horizon_unrolling() {
        let benchmark = cps_models::vsc().unwrap();
        let unrolled = UnrolledLoop::with_horizon(&benchmark, 5);
        assert_eq!(unrolled.horizon(), 5);
        assert_eq!(
            unrolled.vars().len(),
            5 * 2,
            "two attacked sensors per step"
        );
        assert_eq!(unrolled.num_residue_components(), 2);
        assert_eq!(unrolled.measurement_symbols().len(), 5);
        assert_eq!(unrolled.state(0).len(), 2);
    }
}
