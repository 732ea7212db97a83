//! The host-speed probe: a fixed piece of work, independent of the
//! repository's code, timed between operations so that a run can tell how
//! fast the host's cores were while it measured.
//!
//! On a shared host, neighbours' load changes the speed of the benchmark's
//! cores for stretches of seconds to minutes, so whole runs of the same code
//! shift by up to 1.8×. The probes shift with them: each end-to-end time is
//! reported scaled by [`REFERENCE_S`] over the median of the probes run right
//! after it, which takes most of that shift out while leaving every change of
//! the program's own speed in (the probe runs none of the program's code).
//!
//! A probe is dense elimination on a 40×40 matrix (the simplex's row
//! operations: multiply-adds with a data-dependent pivot choice) followed by
//! an index chase over 128 KiB (the solver's scattered reads). Its buffers are
//! allocated once, so the program's heap does not reach it.

use std::hint::black_box;
use std::time::Instant;

/// The probe's median wall time on the host the benchmark was written on (a
/// 2-core 2.1 GHz Xeon VM, quiet): scaled times read as wall times there.
pub const REFERENCE_S: f64 = 0.000_35;

const N: usize = 40;
const CHASE: usize = 1 << 15;
const CHASE_STEPS: usize = 1 << 16;
const SWEEPS: usize = 6;

/// The probe's buffers.
#[derive(Debug)]
pub struct Probe {
    m: Vec<f64>,
    links: Vec<u32>,
}

impl Default for Probe {
    fn default() -> Self {
        Self {
            m: vec![0.0; N * N],
            links: vec![0; CHASE],
        }
    }
}

impl Probe {
    /// Runs one probe; returns its wall time in seconds.
    pub fn run(&mut self) -> f64 {
        let started = Instant::now();
        black_box(self.work(black_box(1)));
        started.elapsed().as_secs_f64()
    }

    fn work(&mut self, seed: u64) -> u64 {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        let (m, mut acc) = (&mut self.m, 0u64);
        for _ in 0..SWEEPS {
            for v in m.iter_mut() {
                *v = (next() % 1000) as f64 / 500.0 - 1.0;
            }
            for col in 0..N {
                let pivot = (col..N)
                    .max_by(|&a, &b| m[a * N + col].abs().total_cmp(&m[b * N + col].abs()))
                    .unwrap_or(col);
                let p = m[pivot * N + col];
                if p.abs() < 1e-12 {
                    continue;
                }
                for row in (0..N).filter(|&r| r != pivot) {
                    let f = m[row * N + col] / p;
                    for k in col..N {
                        m[row * N + k] -= f * m[pivot * N + k];
                    }
                }
                acc = acc.wrapping_add(pivot as u64);
            }
        }
        for link in self.links.iter_mut() {
            *link = (next() % CHASE as u64) as u32;
        }
        let mut at = 0usize;
        for _ in 0..CHASE_STEPS {
            at = self.links[at] as usize ^ (at & 7);
            acc = acc.wrapping_add(at as u64);
        }
        acc
    }
}

/// The factor that scales wall times to the reference host speed:
/// [`REFERENCE_S`] over the median of `probes`, the probes run next to them.
pub fn scale(probes: &[f64]) -> f64 {
    REFERENCE_S / crate::stats::median(probes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_work_is_deterministic() {
        let mut probe = Probe::default();
        let first = probe.work(1);
        assert_eq!(probe.work(1), first);
        assert!(probe.run() > 0.0);
    }

    #[test]
    fn scale_is_one_at_the_reference_speed() {
        assert_eq!(
            scale(&[REFERENCE_S, REFERENCE_S / 2.0, REFERENCE_S * 2.0]),
            1.0
        );
    }
}
