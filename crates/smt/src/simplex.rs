//! General simplex theory solver for conjunctions of linear constraints.
//!
//! This module implements the *general simplex* algorithm of Dutertre and
//! de Moura ("A Fast Linear-Arithmetic Solver for DPLL(T)", CAV 2006) in its
//! **incremental** form: a [`Simplex`] instance owns a persistent sparse
//! tableau whose rows are built once per constraint expression
//! ([`Simplex::define`]) and never rebuilt. Asserting a constraint only
//! installs a variable bound ([`Simplex::assert_bound`]); retracting is a
//! constant-time pop of a bound trail ([`Simplex::mark`] /
//! [`Simplex::pop_to`]) that leaves the basis and the current assignment in
//! place — exactly the backtracking discipline the lazy DPLL(T) loop in
//! [`SmtSolver`](crate::SmtSolver) needs to stay in lock-step with the SAT
//! trail.
//!
//! Tableau rows are stored sparsely (sorted index/value pairs with
//! merge-based pivoting) because the unrolled CPS encodings this workspace
//! produces are overwhelmingly sparse; a lazily-compacted column index maps
//! each variable to the rows that mention it so pivots and assignment
//! updates touch only the affected rows.
//!
//! Strict inequalities are handled with symbolic infinitesimals ([`Delta`]),
//! and infeasibility produces an *explanation* — the tags of the asserted
//! constraints participating in the conflicting bound configuration — which
//! becomes a learned clause in the DPLL(T) loop.
//!
//! The non-incremental entry points of the original implementation,
//! [`Simplex::check`] and [`Simplex::check_and_maximize`], are kept as thin
//! wrappers (build + assert + solve) for one-shot feasibility and LP queries.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use crate::budget::Governor;
use crate::{Constraint, LinExpr, RelOp};

/// Comparison tolerance on the real part of a [`Delta`] value.
const REAL_EPS: f64 = 1e-11;

/// Row entries with magnitude at or below this threshold are treated as the
/// cancellation residue of pivot arithmetic and dropped. Trade-off: sitting
/// 10× above [`LinExpr`]'s 1e-12 construction floor filters residue
/// reliably, but a *genuine* merged coefficient landing in (1e-12, 1e-11]
/// is dropped too, perturbing that row by up to ~1e-11·‖x‖ — inside the
/// solver's feasibility tolerances, and the DPLL(T) layer additionally
/// validates models and conflict explanations against the original
/// constraints.
const DROP_EPS: f64 = 1e-11;

/// Minimum magnitude of a pivot element. Pivoting on a smaller coefficient
/// multiplies the row by more than 1e7, amplifying accumulated float error
/// past the feasibility tolerances; such entries are treated as zero when
/// selecting an entering variable.
const PIVOT_EPS: f64 = 1e-7;

/// Minimum real-part improvement a derived bound must make over the
/// installed one before it is worth recording. Without a floor, cascades of
/// marginally-tighter re-derivations (each legal under the 1e-11 comparison
/// tolerance) dominate propagation time while contributing nothing the
/// literal-fixing clearance (1e-9) can use.
const PROP_IMPROVE: f64 = 1e-7;

/// Maximum implication-chain depth per propagation call: bounds derived at
/// this depth still install (and can fix literals) but do not seed further
/// derivations. Depth 0 is an asserted bound; the payoff chain
/// `asserted atom → shared problem vars → implied atoms at other instants`
/// completes at depth 2, and deeper refinement cones grow combinatorially
/// for marginal tightening.
const PROP_MAX_DEPTH: u8 = 3;

/// Outward padding applied to bounds derived by theory propagation
/// ([`Simplex::propagate_bounds`]): a derived upper bound is raised and a
/// derived lower bound lowered by this amount. The interval sums behind a
/// derived bound are computed in `f64`, so without slack a bound could end up
/// infinitesimally tighter than the exact implication and fabricate a
/// conflict; the padding dwarfs the round-off of the short sums involved
/// while staying far below the 1e-6 robustness margins of the CPS encodings.
const PROP_PAD: f64 = 1e-9;

/// Pivots between governor polls in [`Simplex::solve_bounded`]. One poll is
/// two relaxed atomic loads (plus an `Instant::now()` when a deadline is
/// set); batching 64 pivots between polls keeps the measured overhead on the
/// pivot path well under 1% while still bounding the cancellation latency to
/// a few microseconds of pivot work.
const PIVOT_CHECK_BATCH: u64 = 64;

/// A value of the form `real + delta·ε` where `ε` is an arbitrarily small
/// positive infinitesimal, used to represent strict bounds exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delta {
    /// Real part.
    pub real: f64,
    /// Coefficient of the infinitesimal ε.
    pub delta: f64,
}

impl Delta {
    /// A purely real value.
    pub fn real(value: f64) -> Self {
        Self {
            real: value,
            delta: 0.0,
        }
    }

    /// A value with an explicit infinitesimal component.
    pub fn with_delta(real: f64, delta: f64) -> Self {
        Self { real, delta }
    }

    /// Addition.
    pub fn add(self, other: Delta) -> Delta {
        Delta {
            real: self.real + other.real,
            delta: self.delta + other.delta,
        }
    }

    /// Subtraction.
    pub fn sub(self, other: Delta) -> Delta {
        Delta {
            real: self.real - other.real,
            delta: self.delta - other.delta,
        }
    }

    /// Multiplication by a real scalar.
    pub fn scale(self, factor: f64) -> Delta {
        Delta {
            real: self.real * factor,
            delta: self.delta * factor,
        }
    }

    /// Lexicographic comparison (real part first, then infinitesimal part),
    /// with a small tolerance on the real part.
    pub fn cmp_delta(&self, other: &Delta) -> Ordering {
        if (self.real - other.real).abs() <= REAL_EPS {
            if (self.delta - other.delta).abs() <= REAL_EPS {
                Ordering::Equal
            } else if self.delta < other.delta {
                Ordering::Less
            } else {
                Ordering::Greater
            }
        } else if self.real < other.real {
            Ordering::Less
        } else {
            Ordering::Greater
        }
    }

    /// `self < other` in the δ-ordering.
    pub fn lt(&self, other: &Delta) -> bool {
        self.cmp_delta(other) == Ordering::Less
    }

    /// `self > other` in the δ-ordering.
    pub fn gt(&self, other: &Delta) -> bool {
        self.cmp_delta(other) == Ordering::Greater
    }

    /// Concretises the value by substituting `epsilon` for ε.
    pub fn concretize(&self, epsilon: f64) -> f64 {
        self.real + self.delta * epsilon
    }
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.delta == 0.0 {
            write!(f, "{}", self.real)
        } else {
            write!(f, "{} + {}ε", self.real, self.delta)
        }
    }
}

/// Result of a feasibility check.
#[derive(Debug, Clone, PartialEq)]
pub enum SimplexResult {
    /// The conjunction is satisfiable; the payload is a satisfying assignment
    /// for the *original* problem variables (concretised to `f64`).
    Feasible(Vec<f64>),
    /// The conjunction is unsatisfiable; the payload lists the tags of the
    /// constraints forming the conflicting configuration.
    Infeasible(Vec<usize>),
}

impl SimplexResult {
    /// Returns `true` for [`SimplexResult::Feasible`].
    pub fn is_feasible(&self) -> bool {
        matches!(self, SimplexResult::Feasible(_))
    }
}

/// Outcome of an optimisation run on a feasible tableau.
#[derive(Debug, Clone, PartialEq)]
pub enum ObjectiveOutcome {
    /// Optimum attained; payload is `(optimal value, assignment)`.
    Optimal(f64, Vec<f64>),
    /// The objective is unbounded in the direction of optimisation.
    Unbounded,
}

/// Why a bound is installed: asserted by the caller (a single explanation
/// tag) or derived by theory propagation. A derived bound stores the
/// *asserted* tags it was ultimately deduced from — the frontier of its node
/// in the bound implication graph, pre-flattened so that expanding an
/// explanation never walks the graph at conflict time.
#[derive(Debug, Clone)]
enum BoundReason {
    /// Installed by [`Simplex::assert_bound`] with this explanation tag.
    Asserted(usize),
    /// Derived by [`Simplex::propagate_bounds`] from these asserted tags.
    Derived(Rc<[usize]>),
}

impl BoundReason {
    /// Appends the asserted tags behind this reason to `out`.
    fn push_tags(&self, out: &mut Vec<usize>) {
        match self {
            BoundReason::Asserted(tag) => out.push(*tag),
            BoundReason::Derived(tags) => out.extend_from_slice(tags),
        }
    }
}

#[derive(Debug, Clone)]
struct Bound {
    value: Delta,
    /// Provenance of this bound (see [`BoundReason`]).
    reason: BoundReason,
}

/// Reusable set of explanation tags: gathers the asserted tags behind
/// several bound reasons, keeping each tag once, and yields them sorted.
///
/// The reasons of one derived bound overlap heavily (each contributing
/// `Derived` reason repeats the asserted tags its own row drew on), so a
/// membership flag per tag keeps only the unique tags, and only those are
/// stored, sorted and unflagged again. Tags index the flag array: they must
/// be small dense integers, as the literal indices of the DPLL(T) driver
/// are.
#[derive(Debug, Default)]
struct TagSet {
    /// `seen[tag]` iff `tag` is in the current set.
    seen: Vec<bool>,
    /// The current set's tags, in insertion order until [`TagSet::sorted`].
    tags: Vec<usize>,
}

impl TagSet {
    /// Empties the set.
    fn clear(&mut self) {
        for &tag in &self.tags {
            self.seen[tag] = false;
        }
        self.tags.clear();
    }

    /// Adds the asserted tags behind `reason`.
    fn insert_reason(&mut self, reason: &BoundReason) {
        match reason {
            BoundReason::Asserted(tag) => self.insert(*tag),
            BoundReason::Derived(tags) => {
                for &tag in tags.iter() {
                    self.insert(tag);
                }
            }
        }
    }

    fn insert(&mut self, tag: usize) {
        if tag >= self.seen.len() {
            self.seen.resize(tag + 1, false);
        }
        if !self.seen[tag] {
            self.seen[tag] = true;
            self.tags.push(tag);
        }
    }

    /// The set's tags in increasing order — what `sort_unstable` + `dedup`
    /// of every inserted tag gives.
    fn sorted(&mut self) -> &[usize] {
        self.tags.sort_unstable();
        &self.tags
    }
}

/// A variable bound derived by theory-level bound propagation
/// ([`Simplex::propagate_bounds`]).
#[derive(Debug, Clone)]
pub struct ImpliedBound {
    /// Tableau variable the bound applies to.
    pub var: usize,
    /// `true` for an upper bound, `false` for a lower bound.
    pub is_upper: bool,
    /// The derived bound value (already padded outward by the propagation
    /// safety margin, so it is a sound consequence despite float round-off).
    pub value: Delta,
    /// Tags of the asserted bounds this bound was deduced from — the cut
    /// through the bound implication graph that explains it.
    pub explanation: Rc<[usize]>,
}

/// Max-heap entry of the violation priority queue: basic variables outside
/// their bounds, keyed by infeasibility magnitude (largest first; ties break
/// towards the smaller variable index for determinism). Entries are lazily
/// deleted — staleness is detected on pop by re-checking the violation.
#[derive(Debug, PartialEq)]
struct Violation {
    magnitude: f64,
    var: u32,
}

impl Eq for Violation {}

impl PartialOrd for Violation {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Violation {
    fn cmp(&self, other: &Self) -> Ordering {
        self.magnitude
            .total_cmp(&other.magnitude)
            .then_with(|| other.var.cmp(&self.var))
    }
}

/// A tableau row stored as `(variable, coefficient)` pairs sorted by
/// variable index; exact zeros are never stored.
#[derive(Debug, Clone, Default)]
struct SparseRow {
    entries: Vec<(u32, f64)>,
}

impl SparseRow {
    fn coeff(&self, var: usize) -> f64 {
        match self
            .entries
            .binary_search_by_key(&(var as u32), |&(v, _)| v)
        {
            Ok(i) => self.entries[i].1,
            Err(_) => 0.0,
        }
    }

    fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.entries.iter().map(|&(v, c)| (v as usize, c))
    }
}

/// One retractable bound update; popping restores the previous bound slot.
#[derive(Debug, Clone)]
struct TrailEntry {
    var: u32,
    is_upper: bool,
    previous: Option<Bound>,
}

/// Hashable bit-exact key of a constraint expression, used to share one
/// slack variable (and tableau row) between all constraints over the same
/// left-hand side.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ExprKey(Vec<(u32, u64)>);

impl ExprKey {
    fn new(expr: &LinExpr) -> Self {
        ExprKey(
            expr.terms()
                .map(|(v, c)| (v.index() as u32, c.to_bits()))
                .collect(),
        )
    }
}

/// Incremental feasibility and optimisation engine for conjunctions of
/// linear constraints.
///
/// # One-shot example
///
/// ```
/// use cps_smt::simplex::Simplex;
/// use cps_smt::{LinExpr, VarPool};
///
/// let mut pool = VarPool::new();
/// let x = pool.fresh("x");
/// let y = pool.fresh("y");
/// let constraints = vec![
///     ((LinExpr::var(x) + LinExpr::var(y)).le(2.0), 0),
///     (LinExpr::var(x).ge(1.5), 1),
///     (LinExpr::var(y).ge(1.0), 2),
/// ];
/// let result = Simplex::check(pool.len(), &constraints);
/// assert!(!result.is_feasible()); // 1.5 + 1.0 > 2
/// ```
///
/// # Incremental example
///
/// ```
/// use cps_smt::simplex::Simplex;
/// use cps_smt::{LinExpr, VarPool};
///
/// let mut pool = VarPool::new();
/// let x = pool.fresh("x");
/// let mut simplex = Simplex::new(pool.len());
/// simplex.assert_atom(&LinExpr::var(x).ge(1.0), 0).unwrap();
/// assert!(simplex.solve().is_ok());
/// let mark = simplex.mark();
/// simplex.assert_atom(&LinExpr::var(x).le(0.5), 1).unwrap_err();
/// simplex.pop_to(mark); // retract, x >= 1 alone is feasible again
/// assert!(simplex.solve().is_ok());
/// ```
#[derive(Debug)]
pub struct Simplex {
    /// Total number of variables (problem variables first, then slacks).
    num_vars: usize,
    /// Number of original problem variables.
    num_problem_vars: usize,
    /// `rows[r]` is the tableau row of the basic variable `row_owner[r]`,
    /// expressing it as a linear combination of the nonbasic variables.
    rows: Vec<SparseRow>,
    row_owner: Vec<usize>,
    /// `basic_row[v] = Some(r)` iff variable `v` is basic and owns row `r`.
    basic_row: Vec<Option<usize>>,
    /// Candidate rows mentioning each variable: a lazily-compacted superset
    /// (pivoting may leave stale indices, removed on the next compaction).
    cols: Vec<Vec<u32>>,
    lower: Vec<Option<Bound>>,
    upper: Vec<Option<Bound>>,
    assignment: Vec<Delta>,
    /// Retraction trail of bound updates ([`Simplex::mark`] /
    /// [`Simplex::pop_to`]).
    trail: Vec<TrailEntry>,
    /// Shared slack variable per distinct constraint expression.
    expr_slack: HashMap<ExprKey, usize>,
    /// Total pivots performed over the instance's lifetime.
    pivots: u64,
    /// Priority queue of bound-violating basic variables, keyed by violation
    /// magnitude. Every event that can create a violation (bound install,
    /// assignment update, basis change) pushes an entry; stale entries are
    /// discarded lazily on pop, so the solve loop never rescans all rows.
    violations: BinaryHeap<Violation>,
    /// Total violation-queue pops over the instance's lifetime.
    queue_pops: u64,
    /// Variables whose bounds tightened since the last
    /// [`Simplex::propagate_bounds`] call — the propagation worklist.
    /// Propagation drains it in breadth-first waves, so installs made while
    /// processing one wave form the next (deeper) wave.
    dirty: Vec<u32>,
    /// Whether bound installs feed the worklist (see
    /// [`Simplex::enable_bound_tracking`]).
    track_implied: bool,
    /// Budget/cancellation governor installed by the DPLL(T) driver. Polled
    /// every [`PIVOT_CHECK_BATCH`] pivots inside the solve loop; `None` (the
    /// default, and always the case for [`Simplex::check`] and the
    /// [`optimize`](crate::optimize) entry points) costs one branch per
    /// batch boundary.
    governor: Option<Arc<Governor>>,
    /// Scratch row of [`Simplex::pivot_and_update`]: each rewritten row is
    /// built here and swapped with the row it replaces, whose `Vec` becomes
    /// the next scratch, so pivots stop allocating once capacities settle.
    row_buf: Vec<(u32, f64)>,
    /// Scratch set of [`Simplex::install_implied`]'s explanation gathering.
    explain: TagSet,
}

impl Simplex {
    /// Creates an empty engine over `num_problem_vars` problem variables with
    /// no bounds asserted.
    pub fn new(num_problem_vars: usize) -> Self {
        Simplex {
            num_vars: num_problem_vars,
            num_problem_vars,
            rows: Vec::new(),
            row_owner: Vec::new(),
            basic_row: vec![None; num_problem_vars],
            cols: vec![Vec::new(); num_problem_vars],
            lower: vec![None; num_problem_vars],
            upper: vec![None; num_problem_vars],
            assignment: vec![Delta::real(0.0); num_problem_vars],
            trail: Vec::new(),
            expr_slack: HashMap::new(),
            pivots: 0,
            violations: BinaryHeap::new(),
            queue_pops: 0,
            dirty: Vec::new(),
            track_implied: false,
            governor: None,
            row_buf: Vec::new(),
            explain: TagSet::default(),
        }
    }

    /// Installs the budget/cancellation governor polled during the solve
    /// loop. Pivot counts are reported to it in amortised batches.
    pub(crate) fn set_governor(&mut self, governor: Arc<Governor>) {
        self.governor = Some(governor);
    }

    /// Enables the propagation worklist (disabled by default — only callers
    /// that actually drain it via [`Simplex::propagate_bounds`] should enable
    /// it, otherwise every tighter bound install appends a worklist entry
    /// that nothing drains). Explanation tags index a scratch array sized to
    /// the largest tag seen, so keep them small dense integers (the DPLL(T)
    /// driver's literal indices are).
    pub fn enable_bound_tracking(&mut self) {
        self.track_implied = true;
    }

    /// Checks satisfiability of the conjunction of `constraints` over
    /// `num_problem_vars` problem variables. Each constraint carries an opaque
    /// `tag` that is echoed back in infeasibility explanations.
    ///
    /// One-shot convenience wrapper over the incremental engine.
    pub fn check(num_problem_vars: usize, constraints: &[(Constraint, usize)]) -> SimplexResult {
        let mut simplex = Simplex::new(num_problem_vars);
        for (constraint, tag) in constraints {
            if let Err(explanation) = simplex.assert_atom(constraint, *tag) {
                return SimplexResult::Infeasible(explanation);
            }
        }
        match simplex.solve() {
            Err(explanation) => SimplexResult::Infeasible(explanation),
            Ok(()) => SimplexResult::Feasible(simplex.concrete_assignment()),
        }
    }

    /// Checks satisfiability and, if feasible, maximises `objective` over the
    /// constraint set. Minimisation can be obtained by negating the objective.
    pub fn check_and_maximize(
        num_problem_vars: usize,
        constraints: &[(Constraint, usize)],
        objective: &LinExpr,
    ) -> Result<ObjectiveOutcome, Vec<usize>> {
        let mut simplex = Simplex::new(num_problem_vars);
        for (constraint, tag) in constraints {
            simplex.assert_atom(constraint, *tag)?;
        }
        simplex.solve()?;
        Ok(simplex.maximize(objective))
    }

    /// Total pivots performed since construction.
    pub fn pivots(&self) -> u64 {
        self.pivots
    }

    /// Total violation-priority-queue pops performed since construction.
    pub fn queue_pops(&self) -> u64 {
        self.queue_pops
    }

    /// Registers the left-hand side of a constraint and returns the tableau
    /// variable (and the scale to apply to bounds) representing it.
    ///
    /// Single-variable expressions `c·x` map directly to `(x, c)`; every
    /// other expression gets a shared slack variable `s = expr` backed by a
    /// tableau row (one row per *distinct* expression, no matter how many
    /// constraints mention it).
    pub fn define(&mut self, expr: &LinExpr) -> (usize, f64) {
        if let Some((var, coeff)) = Self::single_var(expr) {
            return (var, coeff);
        }
        let key = ExprKey::new(expr);
        if let Some(&slack) = self.expr_slack.get(&key) {
            return (slack, 1.0);
        }
        // Express the new row over *nonbasic* variables: substitute the
        // definition of any variable that has already become basic.
        let row_idx = self.rows.len();
        let mut entries: Vec<(u32, f64)> = Vec::with_capacity(expr.num_terms());
        if expr
            .terms()
            .all(|(v, _)| self.basic_row[v.index()].is_none())
        {
            // Fast path (typical: all rows are defined before any pivoting).
            entries.extend(expr.terms().map(|(v, c)| (v.index() as u32, c)));
        } else {
            let mut dense = vec![0.0; self.num_vars];
            for (v, c) in expr.terms() {
                match self.basic_row[v.index()] {
                    None => dense[v.index()] += c,
                    Some(r) => {
                        for (w, rc) in self.rows[r].iter() {
                            dense[w] += c * rc;
                        }
                    }
                }
            }
            entries.extend(
                dense
                    .iter()
                    .enumerate()
                    .filter(|&(_, c)| *c != 0.0)
                    .map(|(v, c)| (v as u32, *c)),
            );
        }
        let slack = self.num_vars;
        self.num_vars += 1;
        for &(v, _) in &entries {
            self.cols[v as usize].push(row_idx as u32);
        }
        self.rows.push(SparseRow { entries });
        self.row_owner.push(slack);
        self.basic_row.push(Some(row_idx));
        self.cols.push(Vec::new());
        self.lower.push(None);
        self.upper.push(None);
        self.assignment.push(Delta::real(0.0));
        self.assignment[slack] = self.row_value(row_idx);
        self.expr_slack.insert(key, slack);
        (slack, 1.0)
    }

    /// Asserts an atomic constraint: registers its expression (if new) and
    /// installs the corresponding bound. `tag` is echoed back in
    /// infeasibility explanations.
    ///
    /// # Errors
    ///
    /// Returns the conflicting tags when the bound immediately contradicts an
    /// asserted bound of the opposite kind. An `Eq` constraint installs two
    /// bounds; on conflict the first may remain installed — callers that need
    /// atomic retraction should [`Simplex::mark`] first and
    /// [`Simplex::pop_to`] on error.
    pub fn assert_atom(&mut self, constraint: &Constraint, tag: usize) -> Result<(), Vec<usize>> {
        let (var, scale) = self.define(constraint.expr());
        self.assert_bound(var, scale, constraint.op(), constraint.bound(), tag)
    }

    /// Installs the bound `scale · var ⋈ bound` (as produced by
    /// [`Simplex::define`]) with the given explanation tag.
    ///
    /// # Errors
    ///
    /// Returns the pair of conflicting tags when the new bound contradicts the
    /// currently asserted opposite bound of `var`.
    pub fn assert_bound(
        &mut self,
        var: usize,
        scale: f64,
        op: RelOp,
        bound: f64,
        tag: usize,
    ) -> Result<(), Vec<usize>> {
        // `scale · var ⋈ bound` — dividing by a negative coefficient flips
        // the comparison direction.
        let value = bound / scale;
        let flip = scale < 0.0;
        let (is_upper, value) = match (op, flip) {
            (RelOp::Le, false) | (RelOp::Ge, true) => (true, Delta::real(value)),
            (RelOp::Lt, false) | (RelOp::Gt, true) => (true, Delta::with_delta(value, -1.0)),
            (RelOp::Ge, false) | (RelOp::Le, true) => (false, Delta::real(value)),
            (RelOp::Gt, false) | (RelOp::Lt, true) => (false, Delta::with_delta(value, 1.0)),
            (RelOp::Eq, _) => {
                self.assert_upper(var, Delta::real(value), tag)?;
                return self.assert_lower(var, Delta::real(value), tag);
            }
        };
        if is_upper {
            self.assert_upper(var, value, tag)
        } else {
            self.assert_lower(var, value, tag)
        }
    }

    /// Current length of the retraction trail; pass to [`Simplex::pop_to`] to
    /// retract every bound asserted after this point.
    pub fn mark(&self) -> usize {
        self.trail.len()
    }

    /// Retracts all bounds asserted after `mark`, restoring the previous
    /// bound records. The basis and the current assignment are left in place:
    /// retracting only *loosens* bounds, so every nonbasic variable still
    /// satisfies its bounds and the next [`Simplex::solve`] call starts from
    /// a warm, near-feasible state.
    pub fn pop_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let entry = self.trail.pop().expect("trail length checked");
            let var = entry.var as usize;
            if entry.is_upper {
                self.upper[var] = entry.previous;
            } else {
                self.lower[var] = entry.previous;
            }
        }
    }

    /// If the expression is exactly `c · x` for a single variable, returns
    /// `(x, c)`.
    fn single_var(expr: &LinExpr) -> Option<(usize, f64)> {
        if expr.num_terms() == 1 {
            let (var, coeff) = expr.terms().next().expect("one term present");
            Some((var.index(), coeff))
        } else {
            None
        }
    }

    fn row_value(&self, row: usize) -> Delta {
        let mut value = Delta::real(0.0);
        for (v, coeff) in self.rows[row].iter() {
            if self.basic_row[v].is_none() {
                value = value.add(self.assignment[v].scale(coeff));
            }
        }
        value
    }

    /// Drops stale and duplicate entries from the column index of `var` so
    /// that it lists exactly the rows whose sparse row currently mentions
    /// `var`, each once. (Duplicates arise when an entry cancels to zero in a
    /// pivot — leaving a stale column record — and a later pivot re-creates
    /// it, pushing a second record.)
    fn compact_col(&mut self, var: usize) {
        let mut col = std::mem::take(&mut self.cols[var]);
        col.sort_unstable();
        col.dedup();
        col.retain(|&r| self.rows[r as usize].coeff(var) != 0.0);
        self.cols[var] = col;
    }

    fn assert_upper(&mut self, var: usize, value: Delta, reason: usize) -> Result<(), Vec<usize>> {
        self.set_upper(var, value, BoundReason::Asserted(reason))
            .map(|_| ())
    }

    fn assert_lower(&mut self, var: usize, value: Delta, reason: usize) -> Result<(), Vec<usize>> {
        self.set_lower(var, value, BoundReason::Asserted(reason))
            .map(|_| ())
    }

    /// Installs an upper bound with an explicit provenance. Returns whether
    /// the bound was actually tighter than the existing one (and therefore
    /// installed).
    ///
    /// # Errors
    ///
    /// Returns the asserted tags of the conflicting bound pair when the new
    /// bound contradicts the currently installed lower bound.
    fn set_upper(
        &mut self,
        var: usize,
        value: Delta,
        reason: BoundReason,
    ) -> Result<bool, Vec<usize>> {
        if let Some(lower) = &self.lower[var] {
            if value.lt(&lower.value) {
                let mut explanation = Vec::new();
                reason.push_tags(&mut explanation);
                lower.reason.push_tags(&mut explanation);
                explanation.sort_unstable();
                explanation.dedup();
                return Err(explanation);
            }
        }
        let tighter = match &self.upper[var] {
            Some(existing) => value.lt(&existing.value),
            None => true,
        };
        if tighter {
            self.trail.push(TrailEntry {
                var: var as u32,
                is_upper: true,
                previous: self.upper[var].take(),
            });
            self.upper[var] = Some(Bound { value, reason });
            if self.track_implied {
                self.dirty.push(var as u32);
            }
            if self.basic_row[var].is_none() {
                if self.assignment[var].gt(&value) {
                    self.update_nonbasic(var, value);
                }
            } else {
                self.enqueue_if_violating(var);
            }
        }
        Ok(tighter)
    }

    /// Lower-bound counterpart of [`Simplex::set_upper`].
    fn set_lower(
        &mut self,
        var: usize,
        value: Delta,
        reason: BoundReason,
    ) -> Result<bool, Vec<usize>> {
        if let Some(upper) = &self.upper[var] {
            if value.gt(&upper.value) {
                let mut explanation = Vec::new();
                reason.push_tags(&mut explanation);
                upper.reason.push_tags(&mut explanation);
                explanation.sort_unstable();
                explanation.dedup();
                return Err(explanation);
            }
        }
        let tighter = match &self.lower[var] {
            Some(existing) => value.gt(&existing.value),
            None => true,
        };
        if tighter {
            self.trail.push(TrailEntry {
                var: var as u32,
                is_upper: false,
                previous: self.lower[var].take(),
            });
            self.lower[var] = Some(Bound { value, reason });
            if self.track_implied {
                self.dirty.push(var as u32);
            }
            if self.basic_row[var].is_none() {
                if self.assignment[var].lt(&value) {
                    self.update_nonbasic(var, value);
                }
            } else {
                self.enqueue_if_violating(var);
            }
        }
        Ok(tighter)
    }

    /// The bound violation of `var` under the current assignment, if any:
    /// `(needs_increase, magnitude)`.
    fn violation_of(&self, var: usize) -> Option<(bool, f64)> {
        if let Some(lower) = &self.lower[var] {
            if self.assignment[var].lt(&lower.value) {
                return Some((true, lower.value.sub(self.assignment[var]).real.abs()));
            }
        }
        if let Some(upper) = &self.upper[var] {
            if self.assignment[var].gt(&upper.value) {
                return Some((false, self.assignment[var].sub(upper.value).real.abs()));
            }
        }
        None
    }

    /// Pushes a violation-queue entry for `var` when it is basic and
    /// currently outside its bounds.
    fn enqueue_if_violating(&mut self, var: usize) {
        if self.basic_row[var].is_some() {
            if let Some((_, magnitude)) = self.violation_of(var) {
                self.violations.push(Violation {
                    magnitude,
                    var: var as u32,
                });
            }
        }
    }

    /// Sets a nonbasic variable to `value` and propagates the change to the
    /// basic variables (only rows mentioning `var` are touched). Basic
    /// variables pushed outside their bounds by the move are recorded in the
    /// violation queue.
    fn update_nonbasic(&mut self, var: usize, value: Delta) {
        let diff = value.sub(self.assignment[var]);
        self.compact_col(var);
        for i in 0..self.cols[var].len() {
            let r = self.cols[var][i] as usize;
            let coeff = self.rows[r].coeff(var);
            let owner = self.row_owner[r];
            self.assignment[owner] = self.assignment[owner].add(diff.scale(coeff));
            self.enqueue_if_violating(owner);
        }
        self.assignment[var] = value;
    }

    /// Main simplex loop: repair basic variables that violate their bounds.
    ///
    /// Pivot selection pops the violation priority queue (largest
    /// infeasibility first, maintained incrementally by bound installs,
    /// assignment updates and pivots — no per-pivot row rescan) and falls
    /// back to Bland's rule (smallest index, full scan) after a fixed number
    /// of pivots to guarantee termination despite degeneracy.
    ///
    /// Succeeds (possibly after pivoting) or returns an infeasibility
    /// explanation; in both cases the engine remains usable — further bounds
    /// can be asserted or retracted and `solve` called again.
    ///
    /// # Errors
    ///
    /// Returns the tags of a conflicting bound configuration when the
    /// asserted conjunction is infeasible.
    /// # Panics
    ///
    /// Panics if a governor installed via `set_governor` trips mid-solve;
    /// governed callers use `solve_interruptible` instead. Ungoverned callers
    /// ([`Simplex::check`], the [`optimize`](crate::optimize) entry points)
    /// can never hit this.
    pub fn solve(&mut self) -> Result<(), Vec<usize>> {
        self.solve_interruptible()
            .expect("unbounded solve completes unless a governor trips")
    }

    /// [`Simplex::solve`] for governed callers: identical to the unbounded
    /// solve (tiny pivots are permitted, so numerical degradation is never
    /// reported), except that a governor trip — deadline, cancellation or
    /// pivot budget — surfaces as `None` instead of a panic. The engine
    /// remains usable after an interruption: the pending violation stays
    /// queued and a later solve resumes the repair.
    pub(crate) fn solve_interruptible(&mut self) -> Option<Result<(), Vec<usize>>> {
        self.solve_bounded(u64::MAX)
    }

    /// [`Simplex::solve`] with a pivot budget: returns `None` when the budget
    /// is exhausted — or when the only pivots that could make progress are
    /// numerically degenerate (below `PIVOT_EPS`) — before feasibility is
    /// decided.
    ///
    /// A warm re-solve after an incremental bound change normally takes a
    /// handful of pivots; a budget blow-up or a degenerate-pivot dead end
    /// signals numerical degradation of the long-lived tableau (float error
    /// accumulates through pivot arithmetic and there is no
    /// refactorisation), and the caller should rebuild from the original
    /// constraints instead of grinding on. The unbounded [`Simplex::solve`]
    /// never reports divergence: it pivots through degenerate entries as a
    /// last resort, which is the correct behaviour on a freshly built
    /// tableau whose tiny coefficients are genuine constraint data.
    pub fn solve_bounded(&mut self, max_pivots: u64) -> Option<Result<(), Vec<usize>>> {
        let bland_switch = 50 * (self.num_vars + 1);
        let mut local_pivots = 0u64;
        loop {
            if local_pivots >= max_pivots {
                return None;
            }
            // Amortised governor poll: report the completed batch and check
            // deadline/cancellation/pivot-cap once per PIVOT_CHECK_BATCH
            // pivots. Returning here is safe — no violation has been popped
            // yet this iteration, so the queue state is intact for a resume.
            if local_pivots % PIVOT_CHECK_BATCH == 0 {
                if let Some(governor) = &self.governor {
                    let batch = if local_pivots == 0 {
                        0
                    } else {
                        PIVOT_CHECK_BATCH
                    };
                    if governor.note_pivots(batch).is_some() {
                        return None;
                    }
                }
            }
            let use_bland = local_pivots >= bland_switch as u64;
            local_pivots += 1;
            let violating = if use_bland {
                self.scan_violating()
            } else {
                self.pop_violating()
            };
            let Some((basic, needs_increase, magnitude)) = violating else {
                return Some(Ok(()));
            };
            // Queue discipline guarantees the popped variable is basic and
            // its violated bound installed (`pop_violating` skips non-basic
            // entries; `violation_of` compares against an installed bound).
            // On the pivot path a broken invariant is reported as divergence
            // — the caller rebuilds from the original constraints — rather
            // than a panic inside the solve loop.
            let Some(row) = self.basic_row[basic] else {
                debug_assert!(false, "violating variable is not basic");
                return None;
            };
            let violated = if needs_increase {
                self.lower[basic].as_ref()
            } else {
                self.upper[basic].as_ref()
            };
            let Some(target) = violated.map(|bound| bound.value) else {
                debug_assert!(false, "violated bound is not installed");
                return None;
            };

            // Find a nonbasic variable that can absorb the change (Bland's
            // rule: row entries are sorted by variable index). Numerically
            // tiny coefficients are avoided — dividing by them blows the row
            // up past the feasibility tolerances — but a helpful tiny
            // coefficient must not yield an infeasibility certificate either
            // (concluding UNSAT while an unblocked direction exists would be
            // unsound). Resolution: a *bounded* solve reports divergence so
            // the caller rebuilds the tableau — on a long-lived tableau a
            // tiny entry is almost always cancellation residue that survived
            // `DROP_EPS`, and pivoting on it fabricates garbage rows (and,
            // worse, garbage conflict explanations). An *unbounded* solve
            // runs on a fresh or last-resort tableau, where tiny entries are
            // genuine constraint data (e.g. geometrically decayed dynamics);
            // there we pivot on the largest-magnitude helpful one.
            let allow_tiny = max_pivots == u64::MAX;
            let mut pivot: Option<usize> = None;
            let mut tiny_pivot: Option<(usize, f64)> = None;
            let mut degraded = false;
            for (var, coeff) in self.rows[row].iter() {
                if self.basic_row[var].is_some() {
                    continue;
                }
                let can_help = if needs_increase {
                    (coeff > 0.0 && self.can_increase(var))
                        || (coeff < 0.0 && self.can_decrease(var))
                } else {
                    (coeff > 0.0 && self.can_decrease(var))
                        || (coeff < 0.0 && self.can_increase(var))
                };
                if !can_help {
                    continue;
                }
                if use_bland {
                    // Bland's termination theorem requires the *smallest-index*
                    // helpful variable, tiny or not: in unbounded mode take it
                    // (termination beats conditioning on the last-resort
                    // path); in bounded mode a tiny first choice is reported
                    // as degradation instead.
                    if coeff.abs() >= PIVOT_EPS || allow_tiny {
                        pivot = Some(var);
                    } else {
                        degraded = true;
                    }
                    break;
                }
                if coeff.abs() >= PIVOT_EPS {
                    pivot = Some(var);
                    break;
                }
                let better = match tiny_pivot {
                    Some((_, best)) => coeff.abs() > best,
                    None => true,
                };
                if better {
                    tiny_pivot = Some((var, coeff.abs()));
                }
            }
            if pivot.is_none() {
                if let Some((var, _)) = tiny_pivot {
                    if allow_tiny {
                        pivot = Some(var);
                    } else {
                        degraded = true;
                    }
                }
            }
            if degraded && pivot.is_none() {
                // Numerical degradation, not infeasibility: ask the caller to
                // rebuild from the original constraints. The popped violation
                // is still live — restore it so a later solve on this
                // instance does not miss it.
                self.violations.push(Violation {
                    magnitude,
                    var: basic as u32,
                });
                return None;
            }
            let Some(entering) = pivot else {
                // No variable can move: the row is a certificate of infeasibility.
                let mut explanation = Vec::new();
                // Invariant (not merely defensive): the same bound was read
                // successfully into `target` at the top of this iteration and
                // pivot selection does not mutate bounds.
                if needs_increase {
                    self.lower[basic]
                        .as_ref()
                        .expect("bound present")
                        .reason
                        .push_tags(&mut explanation);
                } else {
                    self.upper[basic]
                        .as_ref()
                        .expect("bound present")
                        .reason
                        .push_tags(&mut explanation);
                }
                for (var, coeff) in self.rows[row].iter() {
                    if self.basic_row[var].is_some() {
                        continue;
                    }
                    let blocking = if needs_increase {
                        if coeff > 0.0 {
                            &self.upper[var]
                        } else {
                            &self.lower[var]
                        }
                    } else if coeff > 0.0 {
                        &self.lower[var]
                    } else {
                        &self.upper[var]
                    };
                    if let Some(bound) = blocking {
                        bound.reason.push_tags(&mut explanation);
                    }
                }
                explanation.sort_unstable();
                explanation.dedup();
                // The conflict does not repair the violation; keep it queued
                // for re-solves after the caller retracts bounds.
                self.violations.push(Violation {
                    magnitude,
                    var: basic as u32,
                });
                return Some(Err(explanation));
            };
            self.pivot_and_update(basic, entering, target);
        }
    }

    fn can_increase(&self, var: usize) -> bool {
        match &self.upper[var] {
            Some(bound) => self.assignment[var].lt(&bound.value),
            None => true,
        }
    }

    fn can_decrease(&self, var: usize) -> bool {
        match &self.lower[var] {
            Some(bound) => self.assignment[var].gt(&bound.value),
            None => true,
        }
    }

    /// Pops the violation queue until a live entry surfaces: a basic variable
    /// currently outside its bounds. Returns `(var, needs_increase,
    /// magnitude)`. Entries for repaired or no-longer-basic variables are
    /// discarded, and entries whose priority went stale (the assignment moved
    /// since the push) are re-keyed with the current magnitude when a better
    /// candidate may exist below them — the lazy-deletion equivalent of a
    /// decrease-key, keeping selection equal to the true largest current
    /// violation (the numerically gentlest repair order).
    fn pop_violating(&mut self) -> Option<(usize, bool, f64)> {
        while let Some(entry) = self.violations.pop() {
            self.queue_pops += 1;
            let var = entry.var as usize;
            if self.basic_row[var].is_none() {
                continue;
            }
            if let Some((needs_increase, magnitude)) = self.violation_of(var) {
                if magnitude < entry.magnitude {
                    if let Some(next) = self.violations.peek() {
                        if magnitude < next.magnitude {
                            self.violations.push(Violation {
                                magnitude,
                                var: entry.var,
                            });
                            continue;
                        }
                    }
                }
                return Some((var, needs_increase, magnitude));
            }
        }
        // Queue empty ⇒ feasible. Every violation-creating event pushes an
        // entry, so nothing can be missed; verify that bookkeeping in debug
        // builds with the full scan the queue replaces.
        debug_assert!(
            self.scan_violating().is_none(),
            "violation queue missed a violating basic variable"
        );
        None
    }

    /// Full-scan violation selection by smallest variable index — the
    /// Bland's-rule fallback used after the anti-cycling switch.
    fn scan_violating(&self) -> Option<(usize, bool, f64)> {
        let mut best: Option<(usize, bool, f64)> = None;
        for row in 0..self.rows.len() {
            let var = self.row_owner[row];
            if let Some((needs_increase, magnitude)) = self.violation_of(var) {
                let better = match best {
                    Some((best_var, _, _)) => var < best_var,
                    None => true,
                };
                if better {
                    best = Some((var, needs_increase, magnitude));
                }
            }
        }
        best
    }

    /// Theory-level bound propagation (Dutertre–de Moura bound refinement,
    /// both row directions): derives implied bounds from the asserted ones by
    /// interval-propagating each tableau row `y = Σ aⱼ·xⱼ`, seeded by the
    /// variables whose bounds tightened since the last call and chased to a
    /// fixpoint through a worklist (a bound derived on one variable can
    /// enable derivations in every row sharing it).
    ///
    /// Every derived bound is installed like an asserted bound (trail entry,
    /// assignment repair, violation-queue event) but carries its node of the
    /// bound implication graph: the set of *asserted* tags it follows from. Derived bounds are padded outward
    /// by a small margin so float round-off in the interval sums cannot make
    /// them unsound, and appended to `out` so the DPLL(T) driver can fix the
    /// truth value of theory atoms decided by them.
    ///
    /// At most `limit` bounds are derived per call; the worklist is dropped
    /// when the cap is reached (propagation is a pruning heuristic — dropping
    /// work is always sound).
    ///
    /// # Errors
    ///
    /// Returns a conflict explanation (asserted tags only) when a derived
    /// bound contradicts an installed bound of the opposite kind — a theory
    /// conflict discovered without a single pivot.
    pub fn propagate_bounds(
        &mut self,
        limit: usize,
        out: &mut Vec<ImpliedBound>,
    ) -> Result<(), Vec<usize>> {
        let mut rows: Vec<u32> = Vec::new();
        for _wave in 0..PROP_MAX_DEPTH {
            // One breadth-first wave: every row touched by the bounds
            // tightened in the previous wave (or, at depth 0, since the last
            // call), each scanned once per wave no matter how many of its
            // members went dirty.
            let frontier = std::mem::take(&mut self.dirty);
            if frontier.is_empty() {
                return Ok(());
            }
            rows.clear();
            for var in frontier {
                let v = var as usize;
                match self.basic_row[v] {
                    // A basic variable's bound constrains its own defining row.
                    Some(row) => rows.push(row as u32),
                    // A nonbasic variable's bound feeds every row mentioning it.
                    None => {
                        self.compact_col(v);
                        rows.extend_from_slice(&self.cols[v]);
                    }
                }
            }
            rows.sort_unstable();
            rows.dedup();
            for i in 0..rows.len() {
                if out.len() >= limit {
                    self.dirty.clear();
                    return Ok(());
                }
                if let Err(conflict) = self.propagate_row(rows[i] as usize, out) {
                    self.dirty.clear();
                    return Err(conflict);
                }
            }
        }
        // Bounds installed by the deepest wave stay on the worklist for the
        // next call rather than seeding further work now.
        Ok(())
    }

    /// Maximum of the contribution `coeff · var` under the installed bounds,
    /// with the bound that attains it.
    fn max_contribution(&self, var: usize, coeff: f64) -> Option<&Bound> {
        if coeff > 0.0 {
            self.upper[var].as_ref()
        } else {
            self.lower[var].as_ref()
        }
    }

    /// Minimum counterpart of [`Simplex::max_contribution`].
    fn min_contribution(&self, var: usize, coeff: f64) -> Option<&Bound> {
        if coeff > 0.0 {
            self.lower[var].as_ref()
        } else {
            self.upper[var].as_ref()
        }
    }

    /// Term `i` of row `r` viewed as the relation `0 = Σᵢ cᵢ·vᵢ`: index 0 is
    /// the row owner carrying coefficient −1, the rest are the stored
    /// entries. Both the derivation pass and the explanation gathering read
    /// the row through this single accessor so they can never disagree on
    /// the owner convention.
    fn row_term(&self, r: usize, i: usize) -> (usize, f64) {
        if i == 0 {
            (self.row_owner[r], -1.0)
        } else {
            let (v, c) = self.rows[r].entries[i - 1];
            (v as usize, c)
        }
    }

    /// Interval-propagates one row (see [`Simplex::propagate_bounds`]).
    ///
    /// The row `y = Σ aⱼ·xⱼ` is treated as the relation `0 = Σᵢ cᵢ·vᵢ` with
    /// the owner `y` carrying coefficient −1. From the interval sums
    /// `HI = Σ max(cᵢ·vᵢ)` and `LO = Σ min(cᵢ·vᵢ)`, every term with all
    /// *other* terms bounded on the relevant side gets
    /// `cₜ·vₜ ≥ −(HI − max(cₜ·vₜ))` and `cₜ·vₜ ≤ −(LO − min(cₜ·vₜ))`.
    fn propagate_row(&mut self, r: usize, out: &mut Vec<ImpliedBound>) -> Result<(), Vec<usize>> {
        // Pass 1: interval sums over all terms, tracking how many terms miss
        // the needed bound (two missing on both sides ⇒ nothing derivable).
        let mut hi = Delta::real(0.0);
        let mut hi_missing = 0usize;
        let mut hi_missing_var = usize::MAX;
        let mut lo = Delta::real(0.0);
        let mut lo_missing = 0usize;
        let mut lo_missing_var = usize::MAX;
        let num_terms = self.rows[r].entries.len() + 1;
        for i in 0..num_terms {
            let (v, c) = self.row_term(r, i);
            match self.max_contribution(v, c) {
                Some(bound) => hi = hi.add(bound.value.scale(c)),
                None => {
                    hi_missing += 1;
                    hi_missing_var = v;
                }
            }
            match self.min_contribution(v, c) {
                Some(bound) => lo = lo.add(bound.value.scale(c)),
                None => {
                    lo_missing += 1;
                    lo_missing_var = v;
                }
            }
            if hi_missing > 1 && lo_missing > 1 {
                return Ok(());
            }
        }
        // Pass 2: derive a bound for every term the sums cover.
        for i in 0..num_terms {
            let (v, c) = self.row_term(r, i);
            if hi_missing == 0 || (hi_missing == 1 && hi_missing_var == v) {
                let rest = if hi_missing == 1 {
                    hi
                } else {
                    // Invariant: `hi_missing == 0` means pass 1 saw a
                    // max-contribution for every term, and bounds are only
                    // tightened (never removed) between the passes.
                    let own = self
                        .max_contribution(v, c)
                        .expect("no bound missing on the HI side")
                        .value
                        .scale(c);
                    hi.sub(own)
                };
                // c·v ≥ −rest: a lower bound for c > 0, an upper bound for c < 0.
                let value = rest.scale(-1.0 / c);
                self.install_implied(r, v, c > 0.0, value, false, out)?;
            }
            if lo_missing == 0 || (lo_missing == 1 && lo_missing_var == v) {
                let rest = if lo_missing == 1 {
                    lo
                } else {
                    // Invariant: mirror of the HI-side case above.
                    let own = self
                        .min_contribution(v, c)
                        .expect("no bound missing on the LO side")
                        .value
                        .scale(c);
                    lo.sub(own)
                };
                // c·v ≤ −rest: an upper bound for c > 0, a lower bound for c < 0.
                let value = rest.scale(-1.0 / c);
                self.install_implied(r, v, c <= 0.0, value, true, out)?;
            }
        }
        Ok(())
    }

    /// Installs one derived bound if it improves on the installed one:
    /// gathers the implication-graph explanation from the contributing bounds
    /// of row `r` (the `lo_side` flag selects which bound of each other term
    /// contributed), pads the value outward, and records the result in `out`.
    fn install_implied(
        &mut self,
        r: usize,
        var: usize,
        is_lower: bool,
        value: Delta,
        lo_side: bool,
        out: &mut Vec<ImpliedBound>,
    ) -> Result<(), Vec<usize>> {
        // Pad outward before the improvement test so borderline derivations
        // are dropped rather than installed as zero-information bounds.
        let value = if is_lower {
            Delta::with_delta(value.real - PROP_PAD, value.delta)
        } else {
            Delta::with_delta(value.real + PROP_PAD, value.delta)
        };
        // Worthwhile-improvement test: a fresh bound always is; an existing
        // one must be beaten by at least `PROP_IMPROVE` in the real part
        // (delta-only improvements are below the literal-fixing clearance
        // and only feed re-derivation churn).
        let tighter = if is_lower {
            match &self.lower[var] {
                Some(existing) => value.real > existing.value.real + PROP_IMPROVE,
                None => true,
            }
        } else {
            match &self.upper[var] {
                Some(existing) => value.real < existing.value.real - PROP_IMPROVE,
                None => true,
            }
        };
        if !tighter {
            return Ok(());
        }
        // Explanation: the bound of every *other* term that fed the interval
        // sum, flattened to asserted tags.
        let mut tags = std::mem::take(&mut self.explain);
        tags.clear();
        for i in 0..self.rows[r].entries.len() + 1 {
            let (u, cu) = self.row_term(r, i);
            if u == var {
                continue;
            }
            let contribution = if lo_side {
                self.min_contribution(u, cu)
            } else {
                self.max_contribution(u, cu)
            };
            // Invariant: a derivation for `var` only exists when every other
            // term contributed to the interval sum (the missing-term
            // accounting in `propagate_row`), so its bound is installed.
            tags.insert_reason(&contribution.expect("contributing term is bounded").reason);
        }
        let explanation: Rc<[usize]> = tags.sorted().into();
        self.explain = tags;
        let installed = if is_lower {
            self.set_lower(var, value, BoundReason::Derived(explanation.clone()))?
        } else {
            self.set_upper(var, value, BoundReason::Derived(explanation.clone()))?
        };
        if installed {
            out.push(ImpliedBound {
                var,
                is_upper: !is_lower,
                value,
                explanation,
            });
        }
        Ok(())
    }

    /// Pivots `basic` (leaving) with `entering` (nonbasic) and sets the
    /// leaving variable's assignment to `target` (the bound it violated).
    fn pivot_and_update(&mut self, basic: usize, entering: usize, target: Delta) {
        self.pivots += 1;
        // Invariant: the solve loop resolved `basic`'s row (with a defensive
        // divergence fallback) before selecting `entering` from it.
        let row = self.basic_row[basic].expect("leaving variable is basic");
        let coeff = self.rows[row].coeff(entering);
        // Sub-PIVOT_EPS pivots are legal (the solve loop falls back to them
        // when nothing better can help) — only exact zero is a logic error.
        debug_assert!(coeff != 0.0, "pivot coefficient must be non-zero");

        // Snapshot the (compacted) column of the entering variable: exactly
        // the rows whose assignment and coefficients the pivot touches.
        self.compact_col(entering);
        let col = std::mem::take(&mut self.cols[entering]);

        // Assignment update (using the *old* tableau rows): move the entering
        // variable by θ so that the leaving variable lands exactly on `target`,
        // and propagate the move to every other basic variable.
        let theta = target.sub(self.assignment[basic]).scale(1.0 / coeff);
        self.assignment[basic] = target;
        self.assignment[entering] = self.assignment[entering].add(theta);
        for &r in &col {
            let r = r as usize;
            if r == row {
                continue;
            }
            let c = self.rows[r].coeff(entering);
            let owner = self.row_owner[r];
            self.assignment[owner] = self.assignment[owner].add(theta.scale(c));
        }

        // Rewrite the pivot row to express `entering` in terms of the others:
        // basic = Σ a_j x_j  ⇒  entering = (basic − Σ_{j≠entering} a_j x_j) / a_entering.
        let mut pivot_entries = std::mem::take(&mut self.row_buf);
        pivot_entries.clear();
        let basic_u32 = basic as u32;
        let mut basic_inserted = false;
        for &(v, value) in &self.rows[row].entries {
            if v as usize == entering {
                continue;
            }
            if !basic_inserted && v > basic_u32 {
                pivot_entries.push((basic_u32, 1.0 / coeff));
                basic_inserted = true;
            }
            pivot_entries.push((v, -value / coeff));
        }
        if !basic_inserted {
            pivot_entries.push((basic_u32, 1.0 / coeff));
        }
        // The old pivot row's `Vec` becomes the merge scratch; the new one
        // stays out of `rows[row]` while it is merged into the other rows.
        self.row_buf = std::mem::take(&mut self.rows[row].entries);
        self.row_owner[row] = entering;
        self.basic_row[entering] = Some(row);
        self.basic_row[basic] = None;
        self.cols[basic].push(row as u32);

        // Substitute the new definition of `entering` into the other rows.
        for &r in &col {
            let r = r as usize;
            if r == row {
                continue;
            }
            let factor = self.rows[r].coeff(entering);
            if factor == 0.0 {
                continue;
            }
            merge_row(
                &self.rows[r].entries,
                entering as u32,
                factor,
                &pivot_entries,
                r as u32,
                &mut self.cols,
                &mut self.row_buf,
            );
            std::mem::swap(&mut self.rows[r].entries, &mut self.row_buf);
        }
        self.rows[row].entries = pivot_entries;
        // After substitution no row mentions `entering` any more (it is
        // basic: its own row defines it and was rewritten above).

        // Violation-queue maintenance: the entering variable (now basic) may
        // have been pushed past one of its own bounds by θ, and every row in
        // the touched column had its owner's assignment shifted.
        self.enqueue_if_violating(entering);
        for &r in &col {
            let r = r as usize;
            if r == row {
                continue;
            }
            self.enqueue_if_violating(self.row_owner[r]);
        }
        #[cfg(debug_assertions)]
        self.audit("after pivot");
    }

    /// Maximises `objective` starting from the current feasible assignment.
    ///
    /// The caller must have established feasibility (a successful
    /// [`Simplex::solve`]) first.
    pub fn maximize(&mut self, objective: &LinExpr) -> ObjectiveOutcome {
        // Guard against cycling with a generous pivot budget; Bland's rule is
        // not applied to the optimisation phase, so we stop at the budget and
        // report the best point found (still feasible, possibly sub-optimal).
        let max_pivots = 200 * (self.num_vars + 1);
        let mut gradient: Vec<(u32, f64)> = Vec::new();
        for _ in 0..max_pivots {
            // Express the objective gradient over nonbasic variables. The
            // objective and the tableau rows are sparse, so the gradient is
            // accumulated as sorted `(variable, coefficient)` pairs instead
            // of a dense `num_vars`-sized vector per iteration.
            gradient.clear();
            for (var, coeff) in objective.terms() {
                let v = var.index();
                match self.basic_row[v] {
                    None => gradient.push((v as u32, coeff)),
                    Some(row) => {
                        for (w, row_coeff) in self.rows[row].iter() {
                            debug_assert!(self.basic_row[w].is_none());
                            gradient.push((w as u32, coeff * row_coeff));
                        }
                    }
                }
            }
            gradient.sort_unstable_by_key(|&(v, _)| v);
            // Merge duplicate variables in place (sorted run compaction).
            let mut merged = 0usize;
            for i in 0..gradient.len() {
                if merged > 0 && gradient[merged - 1].0 == gradient[i].0 {
                    gradient[merged - 1].1 += gradient[i].1;
                } else {
                    gradient[merged] = gradient[i];
                    merged += 1;
                }
            }
            gradient.truncate(merged);

            // Find an improving nonbasic direction (Bland's rule on index —
            // the entries are sorted, so the scan order matches the dense
            // implementation's).
            let mut entering: Option<(usize, bool)> = None;
            for &(var, g) in &gradient {
                let var = var as usize;
                if self.basic_row[var].is_some() {
                    continue;
                }
                if g > 1e-12 && self.can_increase(var) {
                    entering = Some((var, true));
                    break;
                }
                if g < -1e-12 && self.can_decrease(var) {
                    entering = Some((var, false));
                    break;
                }
            }
            let Some((entering, increase)) = entering else {
                let assignment = self.concrete_assignment();
                let value = objective.evaluate(&assignment);
                return ObjectiveOutcome::Optimal(value, assignment);
            };

            // Ratio test: how far can the entering variable move before it or
            // a basic variable hits a bound?
            let mut limit: Option<(Delta, Option<usize>)> = None; // (max |step|, blocking basic)
            let own_bound = if increase {
                self.upper[entering]
                    .as_ref()
                    .map(|b| b.value.sub(self.assignment[entering]))
            } else {
                self.lower[entering]
                    .as_ref()
                    .map(|b| self.assignment[entering].sub(b.value))
            };
            if let Some(step) = own_bound {
                limit = Some((step, None));
            }
            self.compact_col(entering);
            for i in 0..self.cols[entering].len() {
                let r = self.cols[entering][i] as usize;
                let coeff = self.rows[r].coeff(entering);
                let owner = self.row_owner[r];
                // The owner's value changes by coeff · step · direction.
                let delta_per_step = if increase { coeff } else { -coeff };
                let bound = if delta_per_step > 0.0 {
                    self.upper[owner]
                        .as_ref()
                        .map(|b| b.value.sub(self.assignment[owner]))
                } else {
                    self.lower[owner]
                        .as_ref()
                        .map(|b| self.assignment[owner].sub(b.value))
                };
                if let Some(room) = bound {
                    let step = room.scale(1.0 / delta_per_step.abs());
                    let tighter = match &limit {
                        Some((best, _)) => step.lt(best),
                        None => true,
                    };
                    if tighter {
                        limit = Some((step, Some(owner)));
                    }
                }
            }

            match limit {
                None => return ObjectiveOutcome::Unbounded,
                Some((step, blocking)) => {
                    let signed_step = if increase { step } else { step.scale(-1.0) };
                    let new_value = self.assignment[entering].add(signed_step);
                    self.update_nonbasic(entering, new_value);
                    if let Some(blocking_var) = blocking {
                        // Pivot so the blocking basic variable leaves the basis;
                        // its assignment is already exactly on the bound.
                        let target = self.assignment[blocking_var];
                        self.pivot_and_update(blocking_var, entering, target);
                    }
                }
            }
        }
        let assignment = self.concrete_assignment();
        let value = objective.evaluate(&assignment);
        ObjectiveOutcome::Optimal(value, assignment)
    }

    /// Debug-build invariant audit: every row references only nonbasic
    /// variables and is listed in their column index, every basic variable's
    /// assignment equals its row value, and every nonbasic variable sits
    /// within its bounds.
    #[cfg(debug_assertions)]
    #[allow(dead_code)]
    fn audit(&self, context: &str) {
        for (r, row) in self.rows.iter().enumerate() {
            let owner = self.row_owner[r];
            assert_eq!(self.basic_row[owner], Some(r), "{context}: owner not basic");
            for (v, c) in row.iter() {
                assert!(
                    self.basic_row[v].is_none(),
                    "{context}: row {r} references basic variable {v}"
                );
                assert!(c != 0.0, "{context}: stored zero coefficient");
                assert!(
                    self.cols[v].contains(&(r as u32)),
                    "{context}: column index of {v} misses row {r}"
                );
            }
            let value = self.row_value(r);
            let drift = (value.real - self.assignment[owner].real).abs()
                + (value.delta - self.assignment[owner].delta).abs();
            // Loose tolerance relative to the row's term magnitudes: pivot
            // arithmetic legitimately accumulates float error at the scale of
            // *historical* intermediate rows (sub-PIVOT_EPS fallback pivots
            // amplify by up to ~1/coeff before later pivots shrink the row
            // back), which the current magnitude cannot bound tightly; the
            // caller's validation + rebuild machinery owns numerical
            // correctness. The audit exists to catch *logic* bugs — e.g.
            // double-counted column updates — which drift by whole terms,
            // orders of magnitude beyond this bound. (Half the magnitude
            // rather than a tenth: the violation-queue pivot order reaches
            // amplified-row states the old largest-violation rescan did not,
            // with relative drift observed up to ~13% on the T=50 VSC
            // queries.)
            let magnitude: f64 = row
                .iter()
                .map(|(v, c)| {
                    c.abs() * (self.assignment[v].real.abs() + self.assignment[v].delta.abs())
                })
                .sum();
            assert!(
                drift <= 0.5 * (1.0 + magnitude),
                "{context}: basic {owner} drifted from its row by {drift} (magnitude {magnitude})"
            );
        }
        for v in 0..self.num_vars {
            if self.basic_row[v].is_some() {
                continue;
            }
            if let Some(b) = &self.lower[v] {
                assert!(
                    !self.assignment[v].lt(&b.value),
                    "{context}: nonbasic {v} below lower bound"
                );
            }
            if let Some(b) = &self.upper[v] {
                assert!(
                    !self.assignment[v].gt(&b.value),
                    "{context}: nonbasic {v} above upper bound"
                );
            }
        }
    }

    /// Concretises the δ-assignment of the problem variables into plain `f64`
    /// values by substituting a positive ε small enough to preserve every
    /// strict bound.
    pub fn concrete_assignment(&self) -> Vec<f64> {
        let mut epsilon: f64 = 1e-6;
        for var in 0..self.num_vars {
            let value = self.assignment[var];
            if let Some(lower) = &self.lower[var] {
                // value ≥ lower in δ-arithmetic; find ε keeping that true in ℝ.
                let dr = value.real - lower.value.real;
                let dd = lower.value.delta - value.delta;
                if dd > 0.0 && dr > 0.0 {
                    epsilon = epsilon.min(dr / dd);
                }
            }
            if let Some(upper) = &self.upper[var] {
                let dr = upper.value.real - value.real;
                let dd = value.delta - upper.value.delta;
                if dd > 0.0 && dr > 0.0 {
                    epsilon = epsilon.min(dr / dd);
                }
            }
        }
        (0..self.num_problem_vars)
            .map(|v| self.assignment[v].concretize(epsilon))
            .collect()
    }
}

/// Writes into `out` the entries of row `r` after eliminating `entering`:
/// `current − (entry for entering) + factor · pivot`, where `pivot` is the
/// pivot row defining `entering` (so it never mentions `entering`). Both
/// lists are sorted by variable, and so is `out`. A fill-in — a variable of
/// `pivot` that `current` lacks — is recorded in its column index `cols`.
fn merge_row(
    current: &[(u32, f64)],
    entering: u32,
    factor: f64,
    pivot: &[(u32, f64)],
    r: u32,
    cols: &mut [Vec<u32>],
    out: &mut Vec<(u32, f64)>,
) {
    out.clear();
    out.reserve(current.len() + pivot.len());
    let (mut i, mut j) = (0, 0);
    while i < current.len() && j < pivot.len() {
        let (va, ca) = current[i];
        let (vb, cb) = pivot[j];
        if va < vb {
            i += 1;
            if va != entering {
                out.push((va, ca));
            }
        } else if va > vb {
            j += 1;
            let c = factor * cb;
            if c != 0.0 {
                out.push((vb, c));
                cols[vb as usize].push(r);
            }
        } else {
            debug_assert!(va != entering, "the pivot row mentions `entering`");
            i += 1;
            j += 1;
            // The only place cancellation happens: drop residue below the
            // noise floor instead of storing a tiny garbage coefficient a
            // later pivot could divide by.
            let c = ca + factor * cb;
            if c.abs() > DROP_EPS {
                out.push((va, c));
            }
        }
    }
    for &(va, ca) in &current[i..] {
        if va != entering {
            out.push((va, ca));
        }
    }
    for &(vb, cb) in &pivot[j..] {
        let c = factor * cb;
        if c != 0.0 {
            out.push((vb, c));
            cols[vb as usize].push(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VarPool;

    fn vars(n: usize) -> (VarPool, Vec<crate::VarId>) {
        let mut pool = VarPool::new();
        let ids = pool.fresh_block("x", n);
        (pool, ids)
    }

    #[test]
    fn delta_arithmetic_and_ordering() {
        let a = Delta::real(1.0);
        let b = Delta::with_delta(1.0, -1.0);
        assert!(b.lt(&a));
        assert!(a.gt(&b));
        assert_eq!(a.add(b), Delta::with_delta(2.0, -1.0));
        assert_eq!(a.sub(b), Delta::with_delta(0.0, 1.0));
        assert_eq!(b.scale(2.0), Delta::with_delta(2.0, -2.0));
        assert!((b.concretize(0.001) - 0.999).abs() < 1e-12);
    }

    #[test]
    fn feasible_single_variable_bounds() {
        let (pool, v) = vars(1);
        let constraints = vec![
            (LinExpr::var(v[0]).ge(1.0), 0),
            (LinExpr::var(v[0]).le(2.0), 1),
        ];
        match Simplex::check(pool.len(), &constraints) {
            SimplexResult::Feasible(model) => {
                assert!(model[0] >= 1.0 - 1e-9 && model[0] <= 2.0 + 1e-9);
            }
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_single_variable_bounds_explained() {
        let (pool, v) = vars(1);
        let constraints = vec![
            (LinExpr::var(v[0]).ge(3.0), 7),
            (LinExpr::var(v[0]).le(2.0), 9),
        ];
        match Simplex::check(pool.len(), &constraints) {
            SimplexResult::Infeasible(mut tags) => {
                tags.sort_unstable();
                assert_eq!(tags, vec![7, 9]);
            }
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn feasible_system_with_rows() {
        let (pool, v) = vars(2);
        let constraints = vec![
            ((LinExpr::var(v[0]) + LinExpr::var(v[1])).le(4.0), 0),
            ((LinExpr::var(v[0]) - LinExpr::var(v[1])).ge(-1.0), 1),
            (LinExpr::var(v[0]).ge(0.5), 2),
            (LinExpr::var(v[1]).ge(1.0), 3),
        ];
        match Simplex::check(pool.len(), &constraints) {
            SimplexResult::Feasible(model) => {
                for (c, _) in &constraints {
                    assert!(c.holds(&model), "violated: {c} by {model:?}");
                }
            }
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_system_with_rows_has_small_explanation() {
        let (pool, v) = vars(2);
        let constraints = vec![
            ((LinExpr::var(v[0]) + LinExpr::var(v[1])).le(2.0), 0),
            (LinExpr::var(v[0]).ge(1.5), 1),
            (LinExpr::var(v[1]).ge(1.0), 2),
            (LinExpr::var(v[0]).le(100.0), 3), // irrelevant
        ];
        match Simplex::check(pool.len(), &constraints) {
            SimplexResult::Infeasible(tags) => {
                assert!(tags.contains(&0));
                assert!(!tags.contains(&3), "irrelevant constraint in explanation");
            }
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn strict_inequalities_are_respected() {
        let (pool, v) = vars(1);
        // x < 1 ∧ x > 0.999999: feasible only strictly between the bounds.
        let constraints = vec![
            (LinExpr::var(v[0]).lt(1.0), 0),
            (LinExpr::var(v[0]).gt(0.999_999), 1),
        ];
        match Simplex::check(pool.len(), &constraints) {
            SimplexResult::Feasible(model) => {
                assert!(model[0] < 1.0);
                assert!(model[0] > 0.999_999);
            }
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn contradictory_strict_inequalities_are_infeasible() {
        let (pool, v) = vars(1);
        let constraints = vec![
            (LinExpr::var(v[0]).lt(1.0), 0),
            (LinExpr::var(v[0]).gt(1.0), 1),
        ];
        assert!(!Simplex::check(pool.len(), &constraints).is_feasible());
        // x <= 1 && x >= 1 is feasible (x = 1).
        let weak = vec![
            (LinExpr::var(v[0]).le(1.0), 0),
            (LinExpr::var(v[0]).ge(1.0), 1),
        ];
        assert!(Simplex::check(pool.len(), &weak).is_feasible());
    }

    #[test]
    fn equality_constraints() {
        let (pool, v) = vars(2);
        let constraints = vec![
            ((LinExpr::var(v[0]) + LinExpr::var(v[1])).eq_to(3.0), 0),
            ((LinExpr::var(v[0]) - LinExpr::var(v[1])).eq_to(1.0), 1),
        ];
        match Simplex::check(pool.len(), &constraints) {
            SimplexResult::Feasible(model) => {
                assert!((model[0] - 2.0).abs() < 1e-6);
                assert!((model[1] - 1.0).abs() < 1e-6);
            }
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn negative_coefficient_single_variable_constraint() {
        let (pool, v) = vars(1);
        // -2x <= -4  ⇔  x >= 2.
        let constraints = vec![
            (LinExpr::term(v[0], -2.0).le(-4.0), 0),
            (LinExpr::var(v[0]).le(5.0), 1),
        ];
        match Simplex::check(pool.len(), &constraints) {
            SimplexResult::Feasible(model) => assert!(model[0] >= 2.0 - 1e-9),
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn maximize_bounded_objective() {
        let (pool, v) = vars(2);
        let constraints = vec![
            ((LinExpr::var(v[0]) + LinExpr::var(v[1])).le(4.0), 0),
            (LinExpr::var(v[0]).ge(0.0), 1),
            (LinExpr::var(v[1]).ge(0.0), 2),
            (LinExpr::var(v[0]).le(3.0), 3),
        ];
        let objective = LinExpr::var(v[0]) * 2.0 + LinExpr::var(v[1]);
        match Simplex::check_and_maximize(pool.len(), &constraints, &objective).unwrap() {
            ObjectiveOutcome::Optimal(value, model) => {
                // Optimum at x0 = 3, x1 = 1 → objective 7.
                assert!((value - 7.0).abs() < 1e-6, "value {value}, model {model:?}");
            }
            ObjectiveOutcome::Unbounded => panic!("objective should be bounded"),
        }
    }

    #[test]
    fn maximize_detects_unbounded_objective() {
        let (pool, v) = vars(1);
        let constraints = vec![(LinExpr::var(v[0]).ge(0.0), 0)];
        let objective = LinExpr::var(v[0]);
        match Simplex::check_and_maximize(pool.len(), &constraints, &objective).unwrap() {
            ObjectiveOutcome::Unbounded => {}
            other => panic!("expected unbounded, got {other:?}"),
        }
    }

    #[test]
    fn maximize_reports_infeasible_constraints() {
        let (pool, v) = vars(1);
        let constraints = vec![
            (LinExpr::var(v[0]).ge(2.0), 0),
            (LinExpr::var(v[0]).le(1.0), 1),
        ];
        let objective = LinExpr::var(v[0]);
        assert!(Simplex::check_and_maximize(pool.len(), &constraints, &objective).is_err());
    }

    #[test]
    fn larger_chain_of_constraints_is_feasible() {
        // x_{k+1} = 0.9 x_k + u_k encoded as equalities, with bounded u and a
        // reachability-style requirement on the final state.
        let mut pool = VarPool::new();
        let xs = pool.fresh_block("x", 6);
        let us = pool.fresh_block("u", 5);
        let mut constraints = Vec::new();
        let mut tag = 0;
        constraints.push((LinExpr::var(xs[0]).eq_to(0.0), tag));
        for k in 0..5 {
            tag += 1;
            let expr = LinExpr::var(xs[k + 1]) - LinExpr::term(xs[k], 0.9) - LinExpr::var(us[k]);
            constraints.push((expr.eq_to(0.0), tag));
            tag += 1;
            constraints.push((LinExpr::var(us[k]).le(1.0), tag));
            tag += 1;
            constraints.push((LinExpr::var(us[k]).ge(-1.0), tag));
        }
        tag += 1;
        constraints.push((LinExpr::var(xs[5]).ge(3.0), tag));
        match Simplex::check(pool.len(), &constraints) {
            SimplexResult::Feasible(model) => {
                for (c, _) in &constraints {
                    assert!(c.holds(&model), "violated {c}");
                }
            }
            other => panic!("expected feasible, got {other:?}"),
        }
        // Requiring the final state to exceed the reachable maximum (≈ 4.1)
        // makes the system infeasible.
        let mut impossible = constraints.clone();
        impossible.push((LinExpr::var(xs[5]).ge(10.0), tag + 1));
        assert!(!Simplex::check(pool.len(), &impossible).is_feasible());
    }

    #[test]
    fn push_pop_retracts_bounds() {
        let (pool, v) = vars(2);
        let mut simplex = Simplex::new(pool.len());
        let sum = LinExpr::var(v[0]) + LinExpr::var(v[1]);
        simplex.assert_atom(&sum.clone().le(2.0), 0).unwrap();
        simplex.assert_atom(&LinExpr::var(v[0]).ge(0.5), 1).unwrap();
        assert!(simplex.solve().is_ok());
        let mark = simplex.mark();
        // Push bounds that make the system infeasible.
        simplex.assert_atom(&LinExpr::var(v[1]).ge(1.9), 2).unwrap();
        assert!(simplex.solve().is_err());
        // Pop back: feasibility is restored without rebuilding anything.
        simplex.pop_to(mark);
        assert!(simplex.solve().is_ok());
        let model = simplex.concrete_assignment();
        assert!(model[0] >= 0.5 - 1e-9);
        assert!(model[0] + model[1] <= 2.0 + 1e-9);
        // The retracted bound no longer constrains the system.
        simplex.assert_atom(&LinExpr::var(v[1]).le(0.0), 3).unwrap();
        assert!(simplex.solve().is_ok());
    }

    #[test]
    fn slack_rows_are_shared_between_constraints_on_the_same_expr() {
        let (pool, v) = vars(2);
        let mut simplex = Simplex::new(pool.len());
        let sum = LinExpr::var(v[0]) + LinExpr::var(v[1]);
        let (s1, _) = simplex.define(sum.clone().le(2.0).expr());
        let (s2, _) = simplex.define(sum.clone().ge(-2.0).expr());
        assert_eq!(s1, s2, "same expression must share one slack row");
        let diff = LinExpr::var(v[0]) - LinExpr::var(v[1]);
        let (s3, _) = simplex.define(diff.le(1.0).expr());
        assert_ne!(s1, s3);
    }

    #[test]
    fn pivot_counter_advances() {
        let (pool, v) = vars(2);
        let mut simplex = Simplex::new(pool.len());
        let sum = LinExpr::var(v[0]) + LinExpr::var(v[1]);
        simplex.assert_atom(&sum.ge(3.0), 0).unwrap();
        simplex.assert_atom(&LinExpr::var(v[0]).le(1.0), 1).unwrap();
        simplex.assert_atom(&LinExpr::var(v[1]).le(4.0), 2).unwrap();
        assert!(simplex.solve().is_ok());
        assert!(simplex.pivots() > 0, "repairing the slack requires a pivot");
    }

    #[test]
    fn define_after_pivoting_substitutes_basic_variables() {
        let (pool, v) = vars(2);
        let mut simplex = Simplex::new(pool.len());
        let sum = LinExpr::var(v[0]) + LinExpr::var(v[1]);
        simplex.assert_atom(&sum.ge(3.0), 0).unwrap();
        simplex.assert_atom(&LinExpr::var(v[0]).le(1.0), 1).unwrap();
        assert!(simplex.solve().is_ok());
        // A new expression mentioning a (possibly now-basic) variable must
        // still evaluate consistently.
        let diff = LinExpr::var(v[0]) - LinExpr::var(v[1]);
        simplex.assert_atom(&diff.le(-1.0), 2).unwrap();
        assert!(simplex.solve().is_ok());
        let model = simplex.concrete_assignment();
        assert!(model[0] + model[1] >= 3.0 - 1e-9);
        assert!(model[0] <= 1.0 + 1e-9);
        assert!(model[0] - model[1] <= -1.0 + 1e-9);
    }

    #[test]
    fn tiny_coefficients_do_not_fabricate_infeasibility() {
        // Coefficients below PIVOT_EPS but above LinExpr's 1e-12 floor are
        // genuine (e.g. geometrically decayed dynamics entries): the only
        // helpful direction being tiny must not yield a bogus UNSAT.
        let (pool, v) = vars(2);
        let expr = LinExpr::term(v[0], 1e-8) + LinExpr::term(v[1], 1e-8);
        let constraints = vec![(expr.ge(1.0), 0)];
        match Simplex::check(pool.len(), &constraints) {
            SimplexResult::Feasible(model) => {
                assert!(1e-8 * (model[0] + model[1]) >= 1.0 - 1e-6);
            }
            other => panic!("feasible system declared {other:?}"),
        }
        // The genuinely blocked variant still explains correctly.
        let expr = LinExpr::term(v[0], 1e-8);
        let blocked = vec![(expr.ge(1.0), 0), (LinExpr::var(v[0]).le(0.0), 1)];
        match Simplex::check(pool.len(), &blocked) {
            SimplexResult::Infeasible(mut tags) => {
                tags.sort_unstable();
                assert_eq!(tags, vec![0, 1]);
            }
            other => panic!("blocked system declared {other:?}"),
        }
    }

    #[test]
    fn constant_expression_constraints_are_decided() {
        // `0 <= -1` (after constant folding) is infeasible on its own.
        let (pool, _) = vars(1);
        let infeasible = vec![(LinExpr::constant(3.0).le(1.0), 5)];
        match Simplex::check(pool.len(), &infeasible) {
            SimplexResult::Infeasible(tags) => assert_eq!(tags, vec![5]),
            other => panic!("expected infeasible, got {other:?}"),
        }
        let feasible = vec![(LinExpr::constant(1.0).le(3.0), 0)];
        assert!(Simplex::check(pool.len(), &feasible).is_feasible());
    }

    /// SplitMix64: a seeded, dependency-free stream for the kernel tests.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A coefficient in ±[0.5, 2).
        fn coeff(&mut self) -> f64 {
            let magnitude = 0.5 + 1.5 * (self.next() >> 11) as f64 / (1u64 << 53) as f64;
            if self.below(2) == 0 {
                magnitude
            } else {
                -magnitude
            }
        }
    }

    /// The merge by definition: a map from variable to coefficient, with
    /// the same float expressions and drop rules as [`merge_row`]. Returns
    /// the merged entries and the fill-in variables.
    fn reference_merge(
        current: &[(u32, f64)],
        entering: u32,
        factor: f64,
        pivot: &[(u32, f64)],
    ) -> (Vec<(u32, f64)>, Vec<u32>) {
        let mut merged: std::collections::BTreeMap<u32, f64> = current
            .iter()
            .copied()
            .filter(|&(v, _)| v != entering)
            .collect();
        let mut fill_in = Vec::new();
        for &(v, cb) in pivot {
            match merged.get(&v).copied() {
                Some(ca) => {
                    let c = ca + factor * cb;
                    if c.abs() > DROP_EPS {
                        merged.insert(v, c);
                    } else {
                        merged.remove(&v);
                    }
                }
                None => {
                    let c = factor * cb;
                    if c != 0.0 {
                        merged.insert(v, c);
                        fill_in.push(v);
                    }
                }
            }
        }
        (merged.into_iter().collect(), fill_in)
    }

    #[test]
    fn merge_row_matches_a_reference_merge_bit_for_bit() {
        const VARS: u32 = 40;
        let mut rng = SplitMix(0x5EED_0015);
        let (mut cancelled, mut kept_residue, mut fill_ins) = (0, 0, 0);
        let mut entering_cases = [0usize; 2];
        let mut out = Vec::new();
        for case in 0..2000 {
            let entering = rng.below(VARS as u64) as u32;
            let factor = rng.coeff();
            let mut current = Vec::new();
            let mut pivot = Vec::new();
            for v in 0..VARS {
                let in_current = rng.below(3) == 0;
                let in_pivot = v != entering && rng.below(3) == 0;
                let cb = rng.coeff();
                if in_pivot {
                    pivot.push((v, cb));
                }
                if in_current {
                    let ca = if in_pivot && rng.below(3) == 0 {
                        // Cancellation: exactly, just under `DROP_EPS`, or
                        // just over it.
                        let residue = [0.0, 0.4 * DROP_EPS, 4.0 * DROP_EPS][rng.below(3) as usize];
                        -(factor * cb) + residue
                    } else {
                        rng.coeff()
                    };
                    current.push((v, ca));
                }
            }
            // `entering` present (the pivot case) or absent.
            let has_entering = case % 2 == 0;
            current.retain(|&(v, _)| v != entering);
            if has_entering {
                let at = current.partition_point(|&(v, _)| v < entering);
                current.insert(at, (entering, rng.coeff()));
            }
            entering_cases[has_entering as usize] += 1;

            let mut cols = vec![Vec::new(); VARS as usize];
            merge_row(&current, entering, factor, &pivot, 7, &mut cols, &mut out);
            let (expected, fill_in) = reference_merge(&current, entering, factor, &pivot);

            let bits = |row: &[(u32, f64)]| -> Vec<(u32, u64)> {
                row.iter().map(|&(v, c)| (v, c.to_bits())).collect()
            };
            assert_eq!(bits(&out), bits(&expected), "case {case}");
            assert!(
                out.windows(2).all(|w| w[0].0 < w[1].0),
                "case {case}: unsorted"
            );
            for v in 0..VARS {
                let pushed = &cols[v as usize];
                if fill_in.contains(&v) {
                    assert_eq!(pushed, &[7], "case {case}: fill-in {v} missing from cols");
                } else {
                    assert!(pushed.is_empty(), "case {case}: {v} is no fill-in");
                }
            }
            fill_ins += fill_in.len();
            for &(v, cb) in &pivot {
                if let Some(&(_, ca)) = current.iter().find(|&&(u, _)| u == v) {
                    let c = ca + factor * cb;
                    if c.abs() <= DROP_EPS {
                        cancelled += 1;
                    } else if c.abs() < 1e-9 {
                        kept_residue += 1;
                    }
                }
            }
        }
        // The seeded cases exercise every branch.
        assert!(cancelled > 100 && kept_residue > 10 && fill_ins > 1000);
        assert_eq!(entering_cases, [1000, 1000]);
    }

    #[test]
    fn tag_set_gathering_matches_sort_and_dedup() {
        let mut rng = SplitMix(0x7A65_0015);
        let mut set = TagSet::default();
        let gather = |set: &mut TagSet, reasons: &[BoundReason]| {
            let mut expected = Vec::new();
            for reason in reasons {
                reason.push_tags(&mut expected);
            }
            expected.sort_unstable();
            expected.dedup();
            set.clear();
            for reason in reasons {
                set.insert_reason(reason);
            }
            assert_eq!(set.sorted(), &expected[..]);
        };
        let random_reasons = |rng: &mut SplitMix| -> Vec<BoundReason> {
            (0..1 + rng.below(12))
                .map(|_| {
                    if rng.below(4) == 0 {
                        BoundReason::Asserted(rng.below(200) as usize)
                    } else {
                        // Overlapping derived reasons: sorted, deduplicated
                        // subsets of one small tag range.
                        let mut tags: Vec<usize> = (0..rng.below(30))
                            .map(|_| rng.below(200) as usize)
                            .collect();
                        tags.sort_unstable();
                        tags.dedup();
                        BoundReason::Derived(tags.into())
                    }
                })
                .collect()
        };
        for _ in 0..500 {
            let reasons = random_reasons(&mut rng);
            gather(&mut set, &reasons);
        }
    }
}
