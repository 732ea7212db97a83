//! End-to-end benchmark of the secure-cps paper pipeline.
//!
//! One process runs one workload for a fixed wall-clock budget as a closed
//! loop with one client (each operation starts when the previous one
//! returns), checks every output, and prints its counts and a final JSON
//! line. See `perfbench/README.md` for the workloads, the metrics and how to
//! read a span trace; `perfbench/run.py` builds this binary and is the
//! command to run. A traced run writes its spans to
//! `perfbench/out/<workload>-seed<n>.spans.jsonl`.
//!
//! ```text
//! perfbench --workload <pipeline-trajectory|vsc-t50|far-zoo> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --emit-golden
//! ```

mod calib;
mod golden;
mod layers;
mod pipeline;
mod replay;
mod report;
mod stats;
mod trace;
mod vsc;
mod zoo;

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Report;
use trace::Tracer;

/// Seed of the committed reference FAR rates (`golden.rs`). Every run
/// re-derives them once, untimed, whatever `--seed` it measures with.
pub const DEFAULT_SEED: u64 = 2026;

/// Timed set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 100;

/// Share of a run's time spent in host-speed probes (see [`calib`]), taken
/// between operations so that the probes sample the same host states.
const PROBE_SHARE: f64 = 0.03;

/// Largest share of an operation that its root span may spend outside every
/// child span (by the median over the operations of one kind); above it the
/// spans no longer account for the operation and the traced run fails.
const MAX_ROOT_SELF_SHARE: f64 = 0.05;

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--emit-golden" {
            golden::emit();
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    }))
}

/// The closed loop of one client: operations run back to back until
/// `seconds` have passed, and at least once. In a traced run they
/// alternate between traced and untraced, so the difference of the two
/// medians is the tracing overhead.
///
/// The set-up is repeated [`SETUP_REPS`] times per run: once before the first
/// operation, the rest spread evenly over the run between operations. Host
/// load on a shared machine shifts for whole stretches of a second or more,
/// so set-ups timed back to back would all land in one such stretch.
#[derive(Debug)]
pub struct Schedule {
    started: Instant,
    seconds: f64,
    deadline: Instant,
    trace: bool,
    /// Wall times of the set-ups, in seconds.
    pub setup: Vec<f64>,
    /// Wall times of the untraced operations, in seconds.
    pub untraced: Vec<f64>,
    /// Wall times of the traced operations, in seconds.
    pub traced: Vec<f64>,
    /// Wall times of the host-speed probes, in seconds.
    pub probes: Vec<f64>,
    /// `setup` and `untraced`, each scaled by the probes run just before it
    /// (the first set-up by the probes after the first operation).
    setup_scaled: Vec<f64>,
    untraced_scaled: Vec<f64>,
    probe: calib::Probe,
    probe_total: f64,
}

impl Schedule {
    /// Starts the run after the first set-up, which took `setup_s`.
    pub fn new(args: &Args, setup_s: f64) -> Self {
        let started = Instant::now();
        Self {
            started,
            seconds: args.seconds,
            deadline: started + Duration::from_secs_f64(args.seconds),
            trace: args.trace,
            setup: vec![setup_s],
            untraced: Vec::new(),
            traced: Vec::new(),
            probes: Vec::new(),
            setup_scaled: Vec::new(),
            untraced_scaled: Vec::new(),
            probe: calib::Probe::default(),
            probe_total: 0.0,
        }
    }

    /// Whether another operation is due; if so, whether it is traced (the
    /// tracer is switched accordingly).
    pub fn next(&mut self, tracer: &mut Tracer) -> Option<bool> {
        let done = self.untraced.len() + self.traced.len();
        if done > 0 && Instant::now() >= self.deadline {
            tracer.set_enabled(self.trace);
            return None;
        }
        let traced = self.trace && done % 2 == 0;
        tracer.set_enabled(traced);
        Some(traced)
    }

    /// Records an operation's wall time, then runs host-speed probes (at
    /// least one, and until they have taken [`PROBE_SHARE`] of the run so
    /// far), then the set-ups due by now (all that remain once the deadline
    /// has passed, which it has after the last operation). The operation and
    /// those set-ups are scaled by this batch of probes: host speed shifts
    /// within a run too, so each time is scaled by the speed measured next to
    /// it.
    pub fn record<T>(
        &mut self,
        traced: bool,
        wall: f64,
        tracer: &mut Tracer,
        mut build: impl FnMut(&mut Tracer) -> T,
    ) {
        if traced {
            self.traced.push(wall);
        } else {
            self.untraced.push(wall);
        }
        let elapsed = self.started.elapsed().as_secs_f64();
        let batch = self.probes.len();
        loop {
            let secs = self.probe.run();
            self.probe_total += secs;
            self.probes.push(secs);
            if self.probe_total >= PROBE_SHARE * elapsed {
                break;
            }
        }
        let scale = calib::scale(&self.probes[batch..]);
        if !traced {
            self.untraced_scaled.push(wall * scale);
        }
        let progress = (self.started.elapsed().as_secs_f64() / self.seconds).min(1.0);
        let due = (SETUP_REPS as f64 * progress).ceil() as usize;
        while self.setup.len() < due {
            let (built, secs) = timed_setup(tracer, &mut build);
            drop(built);
            self.setup.push(secs);
        }
        let done = self.setup_scaled.len();
        self.setup_scaled
            .extend(self.setup[done..].iter().map(|s| s * scale));
    }
}

/// Runs one set-up under a `setup` root span; returns its result and wall
/// time.
pub fn timed_setup<T>(tracer: &mut Tracer, build: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
    let root = tracer.begin("setup", "");
    let result = timed(|| build(tracer));
    tracer.end(root);
    result
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64())
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("unreadable VmHWM")?;
    Ok(kib / 1024.0)
}

/// Reports the end-to-end metrics shared by every workload and prints the
/// distributions of the set-up, operation and probe wall times. The reported
/// `setup_s` and `op_s` are medians of the times scaled to the reference host
/// speed ([`calib::scale`]).
pub fn end_to_end(report: &mut Report, schedule: &Schedule) {
    let (setup, ops, probes) = (&schedule.setup, &schedule.untraced, &schedule.probes);
    report.metric("setup_s", stats::median(&schedule.setup_scaled), "s");
    report.metric("op_s", stats::median(&schedule.untraced_scaled), "s");
    print_distribution("setup wall", setup);
    print_distribution("op wall", ops);
    print_distribution("probe wall", probes);
    println!(
        "host speed: median probe {:.6} s over n={}, reference {} s; op_s = median scaled op {:.6} s, median op wall {:.6} s",
        stats::median(probes),
        probes.len(),
        calib::REFERENCE_S,
        stats::median(&schedule.untraced_scaled),
        stats::median(ops)
    );
    match stats::tail(ops) {
        Some((p, value)) => println!("op wall p{p} {value:.6} s over n={}", ops.len()),
        None => println!(
            "op wall tail: n={} is too few for a percentile with ten samples above it",
            ops.len()
        ),
    }
    match peak_rss_mib() {
        Ok(mib) => report.metric("peak_rss_mib", mib, "MiB"),
        Err(e) => report.operation(vec![format!("peak RSS: {e}")]),
    }
}

fn print_distribution(name: &str, values: &[f64]) {
    println!(
        "{name} min {:.6} p10 {:.6} p25 {:.6} median {:.6} max {:.6} s over n={}",
        stats::quantile(values, 0.0),
        stats::quantile(values, 0.1),
        stats::quantile(values, 0.25),
        stats::median(values),
        stats::quantile(values, 1.0),
        values.len()
    );
}

/// Writes the span file and reports the trace-wide per-layer metrics.
pub fn finish_trace(
    args: &Args,
    report: &mut Report,
    tracer: &Tracer,
    untraced: &[f64],
    traced: &[f64],
) {
    let ops = trace::profiles(tracer.spans());
    report.operation(check_coverage(&ops));
    report.metric("trace.spans", tracer.spans().len() as f64, "count");
    if !untraced.is_empty() && !traced.is_empty() {
        let overhead = stats::median(traced) - stats::median(untraced);
        report.metric("trace.overhead_s", overhead, "s");
        println!(
            "tracing overhead: traced op median {:.6} s (n={}) - untraced {:.6} s (n={}) = {overhead:+.6} s",
            stats::median(traced),
            traced.len(),
            stats::median(untraced),
            untraced.len()
        );
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => report.operation(vec![format!("writing {}: {e}", path.display())]),
    }
    print_self_times(&ops);
}

/// Prints, per root span kind, the share of the operations spent in the root
/// span's own code, outside every child span, and returns an error for each
/// kind whose median share exceeds [`MAX_ROOT_SELF_SHARE`]: that time is
/// untraced, so the per-layer self times would not account for it.
fn check_coverage(ops: &[trace::OpProfile]) -> Vec<String> {
    let mut errors = Vec::new();
    for root in root_kinds(ops) {
        let shares: Vec<f64> = trace::of_kind(ops, root)
            .iter()
            .map(|p| p.self_s(root) / (p.root_ns.max(1) as f64 * 1e-9))
            .collect();
        let (median, max) = (stats::median(&shares), stats::quantile(&shares, 1.0));
        println!(
            "untraced share of {root}: median {median:.5} max {max:.5} (limit {MAX_ROOT_SELF_SHARE} on the median)"
        );
        if median > MAX_ROOT_SELF_SHARE {
            errors.push(format!(
                "{root}: {median:.3} of the operation lies outside every child span"
            ));
        }
    }
    errors
}

fn root_kinds(ops: &[trace::OpProfile]) -> Vec<&'static str> {
    let mut roots: Vec<&str> = ops.iter().map(|p| p.root).collect();
    roots.sort_unstable();
    roots.dedup();
    roots
}

/// Prints, per root span kind, the median self time of each span name.
fn print_self_times(ops: &[trace::OpProfile]) {
    for root in root_kinds(ops) {
        let group: Vec<&trace::OpProfile> = ops.iter().filter(|p| p.root == root).collect();
        let mut names: Vec<&String> = group.iter().flat_map(|p| p.self_ns.keys()).collect();
        names.sort_unstable();
        names.dedup();
        let root_s: Vec<f64> = group.iter().map(|p| p.root_ns as f64 * 1e-9).collect();
        println!(
            "self time per {root} (median of n={}, root {:.6} s):",
            group.len(),
            stats::median(&root_s)
        );
        for name in names.into_iter().filter(|n| !n.contains(':')) {
            let v: Vec<f64> = group.iter().map(|p| p.self_s(name)).collect();
            println!("  {name:<24} {:.6} s", stats::median(&v));
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    match args.workload.as_str() {
        "pipeline-trajectory" => pipeline::run(&args, &mut report),
        "vsc-t50" => vsc::run(&args, &mut report),
        "far-zoo" => zoo::run(&args, &mut report),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    }
    report.print();
    ExitCode::SUCCESS
}
