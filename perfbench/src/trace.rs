//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each public call
//! into a layer; nothing inside the program is instrumented. A span has a
//! name (`<layer>.<call>`), an optional label (plant or query kind), start
//! and end offsets from the recorder's origin, its parent span and the id of
//! the operation it belongs to. Spans stay in memory and are written out as
//! JSON lines when the run ends.
//!
//! A *derived* span carries a duration the program reports about a call
//! (`SolverStats::simplex_nanos`) rather than one the benchmark timed. It is
//! placed at the start of its parent, so self-time arithmetic can subtract it
//! from the parent like any other child.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub op: usize,
    pub name: &'static str,
    pub label: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub derived: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(Option<usize>);

/// Span recorder. A disabled tracer records nothing and costs one branch per
/// call, so the same operation code serves traced and untraced runs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    ops: usize,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            ops: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span. With no span open it starts a new operation.
    pub fn begin(&mut self, name: &'static str, label: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let parent = self.stack.last().copied();
        let op = match parent {
            Some(p) => self.spans[p].op,
            None => {
                self.ops += 1;
                self.ops - 1
            }
        };
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            label: label.to_string(),
            start_ns,
            end_ns: start_ns,
            derived: false,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes the innermost open span, which must be `open`.
    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        assert_eq!(self.stack.pop(), Some(id), "spans must nest");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Attaches a derived child of `nanos` to the closed span `parent`,
    /// clamped to the parent's duration.
    pub fn derived(&mut self, parent: Open, name: &'static str, nanos: u64) {
        let Some(p) = parent.0 else { return };
        let (op, start_ns, len) = {
            let s = &self.spans[p];
            (s.op, s.start_ns, s.duration_ns())
        };
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: Some(p),
            op,
            name,
            label: String::new(),
            start_ns,
            end_ns: start_ns + nanos.min(len),
            derived: true,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(File::create(path)?);
        let own = self_times(&self.spans);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"label\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"derived\":{}}}",
                s.id,
                parent,
                s.op,
                s.name,
                escape(&s.label),
                s.start_ns,
                s.end_ns,
                own[s.id],
                s.derived,
            )?;
        }
        out.flush()
    }
}

fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Self time of every span, indexed by span id: its duration minus the part
/// of it that its children cover (the union is taken, so a derived child
/// overlapping a timed one cannot count twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for c in spans {
        if let Some(p) = c.parent {
            let parent = &spans[p];
            let (a, b) = (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Per-operation view of a trace: the root span and, per span name, the
/// summed duration and self time of that operation's spans.
#[derive(Debug, Default, Clone)]
pub struct OpProfile {
    pub root: &'static str,
    pub root_ns: u64,
    pub total_ns: BTreeMap<String, u64>,
    pub self_ns: BTreeMap<String, u64>,
}

impl OpProfile {
    /// Summed duration of spans named `name` (optionally `name:label`).
    pub fn total_s(&self, key: &str) -> f64 {
        self.total_ns.get(key).copied().unwrap_or(0) as f64 * 1e-9
    }

    pub fn self_s(&self, key: &str) -> f64 {
        self.self_ns.get(key).copied().unwrap_or(0) as f64 * 1e-9
    }
}

/// Groups the spans by operation. Every span is tallied under its name and,
/// when it has a label, also under `name:label`.
pub fn profiles(spans: &[Span]) -> Vec<OpProfile> {
    let own = self_times(spans);
    let mut ops: Vec<OpProfile> = Vec::new();
    for s in spans {
        if s.parent.is_none() {
            debug_assert_eq!(s.op, ops.len());
            ops.push(OpProfile {
                root: s.name,
                root_ns: s.duration_ns(),
                ..OpProfile::default()
            });
        }
        let own = own[s.id];
        let profile = &mut ops[s.op];
        let mut add = |key: String| {
            *profile.total_ns.entry(key.clone()).or_default() += s.duration_ns();
            *profile.self_ns.entry(key).or_default() += own;
        };
        add(s.name.to_string());
        if !s.label.is_empty() {
            add(format!("{}:{}", s.name, s.label));
        }
    }
    ops
}

/// The operations whose root span is `root`.
pub fn of_kind<'a>(ops: &'a [OpProfile], root: &str) -> Vec<&'a OpProfile> {
    ops.iter().filter(|p| p.root == root).collect()
}

/// Median over `ops` of `f`.
///
/// # Panics
///
/// Panics when `ops` is empty.
pub fn median_of(ops: &[&OpProfile], f: impl Fn(&OpProfile) -> f64) -> f64 {
    crate::stats::median(&ops.iter().map(|p| f(p)).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name,
            label: String::new(),
            start_ns: start,
            end_ns: end,
            derived: false,
        }
    }

    #[test]
    fn self_times_account_for_the_root() {
        let spans = vec![
            span(0, None, "op", 0, 100),
            span(1, Some(0), "a", 10, 40),
            span(2, Some(1), "a.simplex", 10, 30),
            span(3, Some(0), "b", 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 20, 40]);
        let ops = profiles(&spans);
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].self_ns["op"], 30);
        assert_eq!(ops[0].total_ns["a.simplex"], 20);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span(0, None, "op", 0, 100),
            span(1, Some(0), "a", 0, 60),
            span(2, Some(0), "b", 40, 80),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn tracer_nests_and_clamps_derived_spans() {
        let mut tracer = Tracer::new(true);
        let root = tracer.begin("op", "");
        let child = tracer.begin("call", "x");
        tracer.end(child);
        tracer.derived(child, "call.part", u64::MAX);
        tracer.end(root);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].end_ns, spans[1].end_ns);
        assert_eq!(self_times(spans)[1], 0);

        let mut off = Tracer::new(false);
        let open = off.begin("op", "");
        off.end(open);
        assert!(off.spans().is_empty());
    }
}
