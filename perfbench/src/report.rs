//! What one benchmark run prints: metrics, exact counts, the oracle's
//! verdict per operation, and the final JSON line.

use std::collections::BTreeMap;

/// Accumulates a run's results.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: BTreeMap<String, (f64, &'static str)>,
    counts: BTreeMap<String, u64>,
}

impl Report {
    /// Records one operation; it failed when the oracle found any problem.
    pub fn operation(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.operation(vec![format!("metric {name} is not finite ({value})")]);
            return;
        }
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// An exact count that must repeat between runs of the same seed (the
    /// steadiness tool compares them). Seed-dependent counts carry the seed
    /// in their name.
    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.insert(name.to_string(), value);
    }

    /// Prints the counts, the oracle's problems and, last, the JSON result.
    pub fn print(&self) {
        for (name, value) in &self.counts {
            println!("count {name} {value}");
        }
        println!(
            "fail_ratio {} ({} of {} operations failed)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        for problem in self.problems.iter().take(20) {
            println!("FAILED {problem}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Collects the oracle's problems for one operation.
#[derive(Debug, Default)]
pub struct Oracle(pub Vec<String>);

impl Oracle {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }
}
