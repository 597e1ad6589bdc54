//! The solve path: `fixed` and `minimize` operations through the
//! `PebblingSession` front door, their oracle checks, and the traced
//! re-drive of every probe through `PebbleSolver` and `PebbleEncoding`.

use std::time::Instant;

use revpebble_core::bounds::{pebble_lower_bound, step_lower_bound};
use revpebble_core::encoding::{BoundMode, MoveMode, PebbleEncoding};
use revpebble_core::session::{PebblingSession, Report, SessionOutcome};
use revpebble_core::sharing::SharedSearchState;
use revpebble_core::solver::{PebbleSolver, SolverOptions};
use revpebble_core::Strategy;
use revpebble_graph::Dag;
use revpebble_sat::SolveResult;

use crate::gen::{Ask, Instance, MINIMIZE_MAX_STEPS};
use crate::trace::Tracer;
use crate::{Metrics, Ops};

/// The session one operation runs: default flags, the oracle's minimum
/// as the budget (`fixed`) or the capped minimize search (`minimize`).
pub fn session(dag: &Dag, min: usize, ask: Ask) -> PebblingSession<'_> {
    match ask {
        Ask::Fixed => PebblingSession::new(dag).pebbles(min),
        Ask::Minimize => PebblingSession::new(dag)
            .minimize()
            .max_steps(MINIMIZE_MAX_STEPS),
    }
}

/// Why an operation failed its oracle check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// The session was rejected or stopped early.
    Error,
    /// The answer is the oracle's, or above it, but not proven optimal
    /// (`floor < minimum`).
    Unproven,
    /// A certified minimum that disagrees with the oracle.
    Wrong,
    /// The returned strategy fails `Strategy::validate` at the budget.
    Invalid,
}

impl Failure {
    /// `true` when the program returned a wrong answer, as opposed to no
    /// (proven) answer.
    pub fn is_wrong(self) -> bool {
        matches!(self, Failure::Wrong | Failure::Invalid)
    }
}

/// Checks a report against the oracle; on success returns the strategy's
/// step count.
pub fn check(report: &Report, instance: &Instance, ask: Ask) -> Result<usize, Failure> {
    if report.stop_reason.is_some() {
        return Err(Failure::Error);
    }
    let Some(minimum) = report.minimum else {
        return Err(Failure::Error);
    };
    let proven = ask == Ask::Fixed || report.floor == minimum;
    if !proven && minimum >= instance.min {
        return Err(Failure::Unproven);
    }
    if minimum != instance.min {
        return Err(Failure::Wrong);
    }
    let strategy = report.strategy().ok_or(Failure::Error)?;
    strategy
        .validate(&instance.dag, Some(instance.min))
        .map_err(|_| Failure::Invalid)?;
    Ok(strategy.num_steps())
}

/// Solves pool instances one after another, in pool order (wrapping),
/// and stops at the first boundary between two passes over the corpus of
/// `corpus` DAGs after `deadline`. Counting whole passes only gives every
/// corpus DAG the same weight in every run, whatever the seed's visiting
/// order.
///
/// One thread, although `nproc` may be larger: on a 2-vCPU VM, keeping
/// both vCPUs busy left the machine slow to wake threads for tens of
/// seconds afterwards. A `serve` run that followed then had every cache
/// hit lose its race against the connection handler's first poll, and
/// read about 61 requests/s instead of about 88.
pub fn timed(pool: &[Instance], corpus: usize, ask: Ask, deadline: Instant) -> Ops {
    let start = Instant::now();
    let mut ops = Ops::default();
    for op in 0.. {
        if op % corpus == 0 && Instant::now() >= deadline {
            break;
        }
        let instance = &pool[op % pool.len()];
        let begin = Instant::now();
        let result = session(&instance.dag, instance.min, ask).run();
        ops.latencies.push(begin.elapsed().as_secs_f64());
        let checked = match &result {
            Ok(report) => check(report, instance, ask),
            Err(_) => Err(Failure::Error),
        };
        ops.settle(op, checked);
    }
    ops.elapsed = start.elapsed().as_secs_f64();
    ops.wraps = ops.attempted / pool.len();
    ops
}

/// What the solve-path layers did, summed over the traced operations.
#[derive(Debug, Default)]
pub struct SolveLayers {
    ops: usize,
    assumptions: u64,
    max_k: usize,
    vars: u64,
    clauses: u64,
    queries: u64,
    unsat_queries: u64,
    unknown_queries: u64,
    conflicts: u64,
    propagations: u64,
    decisions: u64,
    arena_gcs: u64,
    probes: u64,
    k_walked: u64,
    floor_raises: u64,
    invalid: u64,
    events: u64,
    session_self_s: f64,
    run_s: f64,
    redrive_s: f64,
    mismatches: u64,
}

/// The search options the session's engine used for its probes.
fn probe_options(dag: &Dag, instance_min: usize, ask: Ask) -> SolverOptions {
    let plan = session(dag, instance_min, ask)
        .plan()
        .expect("benchmark sessions are valid");
    let mut base = plan.base;
    if ask == Ask::Minimize {
        base.timeout = Some(plan.per_query);
        base.encoding.bound_mode = BoundMode::Assumed;
    }
    base
}

/// A replica of the linear-deepening probe loop of `PebbleSolver`,
/// written against the public `PebbleEncoding` calls so each layer can
/// be timed: encoding growth, SAT search and strategy extraction.
struct Redrive<'a> {
    dag: &'a Dag,
    options: SolverOptions,
    shared: SharedSearchState,
    encoding: Option<PebbleEncoding<'a>>,
    queries: u64,
    unsat: u64,
    unknown: u64,
    assumptions: u64,
    max_k: usize,
}

impl<'a> Redrive<'a> {
    fn new(dag: &'a Dag, options: SolverOptions) -> Self {
        assert_eq!(options.encoding.move_mode, MoveMode::Sequential);
        Redrive {
            dag,
            options,
            shared: SharedSearchState::new(),
            encoding: None,
            queries: 0,
            unsat: 0,
            unknown: 0,
            assumptions: 0,
            max_k: 0,
        }
    }

    /// One probe at budget `p`; the strategy when it solved.
    fn probe(&mut self, p: usize, tracer: &mut Tracer, op: usize) -> Option<Strategy> {
        let options = self.options;
        let assumed = options.encoding.bound_mode == BoundMode::Assumed;
        if p < pebble_lower_bound(self.dag).max(self.shared.floor()) {
            return None;
        }
        let start = Instant::now();
        let mut k = options
            .initial_steps
            .unwrap_or(step_lower_bound(self.dag))
            .max(1);
        if let Some(refuted) = self.shared.known_refuted_k(p) {
            if refuted >= options.max_steps {
                self.shared.raise_floor(p + 1);
                return None;
            }
            k = k.max(refuted + 1);
        }
        let mut encoding = match self.encoding.take() {
            Some(mut encoding) => {
                encoding.forget_stale_learnts();
                encoding.set_bound(Some(p));
                encoding
            }
            None => {
                let mut encoding_options = options.encoding;
                encoding_options.max_pebbles = Some(p);
                tracer.span("encoding.new", op, || {
                    PebbleEncoding::with_solver_config(self.dag, encoding_options, options.sat)
                })
            }
        };
        let mut step_limit = false;
        let strategy = loop {
            if k > options.max_steps {
                step_limit = true;
                break None;
            }
            if p < self.shared.floor() {
                break None;
            }
            let budget = match options.timeout {
                Some(total) => match total.checked_sub(start.elapsed()) {
                    Some(left) if !left.is_zero() => Some(left),
                    _ => break None,
                },
                None => None,
            };
            let budget = match (budget, options.query_timeout) {
                (Some(b), Some(q)) => Some(b.min(q)),
                (b, q) => b.or(q),
            };
            tracer.span("encoding.extend", op, || encoding.extend_to(k));
            if assumed {
                self.assumptions += encoding.bound_assumptions(p).len() as u64;
            }
            self.assumptions += encoding.final_assumptions(k).len() as u64;
            self.queries += 1;
            self.max_k = self.max_k.max(k);
            let result = tracer.span("sat.solve", op, || {
                encoding.solve_at(k, options.query_conflicts, budget)
            });
            match result {
                SolveResult::Sat => {
                    break Some(tracer.span("strategy.extract", op, || encoding.extract(k)))
                }
                SolveResult::Unsat => {
                    self.unsat += 1;
                    self.shared.record_refuted(p, k);
                    if assumed && encoding.last_refutation_is_budget_free() {
                        self.shared.record_universal_refuted(k);
                    }
                    k += options.step_stride.max(1);
                }
                SolveResult::Unknown => {
                    self.unknown += 1;
                    break None;
                }
            }
        };
        if step_limit
            && self
                .shared
                .known_refuted_k(p)
                .is_some_and(|refuted| refuted >= options.max_steps)
        {
            self.shared.raise_floor(p + 1);
        }
        self.encoding = Some(encoding);
        strategy
    }
}

/// The budgets the session probed, in order, and its (queries,
/// conflicts) totals.
fn probed(report: &Report, fixed_budget: usize) -> (Vec<usize>, u64, u64) {
    let worker = report.workers.first();
    let queries = worker.map_or(0, |w| w.queries as u64);
    let conflicts = worker.map_or(0, |w| w.conflicts);
    let budgets = match &report.outcome {
        SessionOutcome::Minimize(result) => result.probes.iter().map(|&(p, _)| p).collect(),
        _ => vec![fixed_budget],
    };
    (budgets, queries, conflicts)
}

/// The traced solve path: each instance runs once as the untraced
/// operation, then again probe by probe through `PebbleSolver` and
/// through `PebbleEncoding`, with spans around every layer call.
/// Returns the operations' oracle outcomes.
pub fn traced(
    pool: &[Instance],
    ask: Ask,
    deadline: Instant,
    tracer: &mut Tracer,
    layers: &mut SolveLayers,
) -> (Ops, Vec<Instance>) {
    let mut ops = Ops::default();
    let mut done = Vec::new();
    let start = Instant::now();
    while Instant::now() < deadline && ops.attempted < pool.len() {
        let op = ops.attempted;
        let instance = &pool[op];
        let dag = &instance.dag;
        let root = tracer.enter("op", op);
        tracer
            .span("session.plan", op, || {
                session(dag, instance.min, ask).plan()
            })
            .expect("benchmark sessions are valid");
        let run = tracer.enter("session.run", op);
        let report = session(dag, instance.min, ask)
            .run()
            .expect("benchmark sessions are valid");
        let run_s = tracer.exit(run);
        let checked = check(&report, instance, ask);
        ops.latencies.push(run_s);

        let (budgets, queries, conflicts) = probed(&report, instance.min);
        let options = probe_options(dag, instance.min, ask);

        // The search layer: the session's probes through `PebbleSolver`.
        let replay = tracer.enter("search.replay", op);
        let mut solver = PebbleSolver::new(dag, options);
        if ask == Ask::Minimize {
            solver.shared_state().prime_floor(pebble_lower_bound(dag));
        }
        let mut probe_s = 0.0;
        for &p in &budgets {
            let id = tracer.enter("search.probe", op);
            match ask {
                Ask::Fixed => drop(solver.solve()),
                Ask::Minimize => drop(solver.resolve_with_budget(p)),
            }
            probe_s += tracer.exit(id);
        }
        tracer.exit(replay);

        // The encoding, SAT and strategy layers: the same probes through
        // `PebbleEncoding`.
        let redrive_span = tracer.enter("encoding.replay", op);
        let mut redrive = Redrive::new(dag, options);
        if ask == Ask::Minimize {
            redrive.shared.prime_floor(pebble_lower_bound(dag));
        }
        for &p in &budgets {
            let _ = redrive.probe(p, tracer, op);
        }
        let redrive_s = tracer.exit(redrive_span);

        if let Some(strategy) = report.strategy() {
            let valid = tracer.span("strategy.validate", op, || {
                strategy.validate(dag, Some(instance.min)).is_ok()
            });
            layers.invalid += u64::from(!valid);
        }
        tracer.exit(root);

        let encoding = redrive.encoding.as_ref().expect("at least one probe ran");
        let stats = encoding.solver().stats();
        if redrive.unknown == 0 {
            let replica = [
                (solver.stats().queries as u64, solver.sat_stats().conflicts),
                (redrive.queries, stats.conflicts),
            ];
            for (replica_queries, replica_conflicts) in replica {
                if (replica_queries, replica_conflicts) != (queries, conflicts) {
                    layers.mismatches += 1;
                    eprintln!(
                        "replica mismatch on op {op}: session queries={queries} conflicts={conflicts}, \
                         replica queries={replica_queries} conflicts={replica_conflicts}"
                    );
                }
            }
        }
        layers.ops += 1;
        layers.assumptions += redrive.assumptions;
        layers.max_k = layers.max_k.max(redrive.max_k);
        layers.vars += encoding.solver().num_vars() as u64;
        layers.clauses += encoding.solver().num_clauses() as u64;
        layers.queries += redrive.queries;
        layers.unsat_queries += redrive.unsat;
        layers.unknown_queries += redrive.unknown;
        layers.conflicts += stats.conflicts;
        layers.propagations += stats.propagations;
        layers.decisions += stats.decisions;
        layers.arena_gcs += stats.arena_gcs;
        layers.probes += budgets.len() as u64;
        if let SessionOutcome::Minimize(result) = &report.outcome {
            layers.k_walked += result.search.max_k as u64;
            layers.floor_raises += result.floor_raises;
        } else {
            layers.k_walked += redrive.max_k as u64;
        }
        layers.events += report.events_emitted;
        layers.session_self_s += run_s - probe_s;
        layers.run_s += run_s;
        layers.redrive_s += redrive_s;
        ops.settle(op, checked);
        done.push(instance.clone());
    }
    ops.elapsed = start.elapsed().as_secs_f64();
    (ops, done)
}

impl SolveLayers {
    /// The solve-path per-layer metrics: times are mean seconds per
    /// operation, counts are means per operation unless named otherwise.
    pub fn report(&self, tracer: &Tracer, metrics: &mut Metrics) {
        let totals = tracer.totals();
        let n = self.ops.max(1) as f64;
        let per_op = |value: f64| value / n;
        let time = |name: &str| totals.get(name).copied().unwrap_or(0.0);
        let solve_s = time("sat.solve");
        metrics.put(
            "encoding.extend_s",
            per_op(time("encoding.new") + time("encoding.extend")),
            "s",
        );
        metrics.put(
            "encoding.assumptions",
            per_op(self.assumptions as f64),
            "count",
        );
        metrics.put("encoding.max_k", self.max_k as f64, "steps");
        metrics.put("encoding.vars", per_op(self.vars as f64), "count");
        metrics.put("encoding.clauses", per_op(self.clauses as f64), "count");
        metrics.put("sat.solve_s", per_op(solve_s), "s");
        metrics.put("sat.queries", per_op(self.queries as f64), "count");
        metrics.put(
            "sat.unsat_queries",
            per_op(self.unsat_queries as f64),
            "count",
        );
        metrics.put("sat.unknown_queries", self.unknown_queries as f64, "count");
        metrics.put("sat.conflicts", per_op(self.conflicts as f64), "count");
        metrics.put(
            "sat.propagations",
            per_op(self.propagations as f64),
            "count",
        );
        metrics.put("sat.decisions", per_op(self.decisions as f64), "count");
        metrics.put(
            "sat.props_per_s",
            self.propagations as f64 / solve_s.max(1e-9),
            "1/s",
        );
        metrics.put("sat.arena_gcs", per_op(self.arena_gcs as f64), "count");
        metrics.put("search.probes", per_op(self.probes as f64), "count");
        metrics.put("search.probe_s", per_op(time("search.probe")), "s");
        metrics.put("search.k_walked", per_op(self.k_walked as f64), "steps");
        metrics.put(
            "search.floor_raises",
            per_op(self.floor_raises as f64),
            "count",
        );
        metrics.put("strategy.extract_s", per_op(time("strategy.extract")), "s");
        metrics.put(
            "strategy.validate_s",
            per_op(time("strategy.validate")),
            "s",
        );
        metrics.put("strategy.invalid", self.invalid as f64, "count");
        metrics.put("session.plan_s", per_op(time("session.plan")), "s");
        metrics.put("session.self_s", per_op(self.session_self_s), "s");
        metrics.put("session.events", per_op(self.events as f64), "count");
        metrics.put("trace.overhead_s", per_op(self.redrive_s - self.run_s), "s");
        metrics.put("trace.replica_mismatches", self.mismatches as f64, "count");
        eprintln!(
            "trace: {} ops, untraced session wall {:.4} s, traced re-drive wall {:.4} s, overhead {:+.4} s",
            self.ops,
            self.run_s,
            self.redrive_s,
            self.redrive_s - self.run_s
        );
    }
}
