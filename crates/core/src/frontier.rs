//! The space/time trade-off frontier.
//!
//! The paper's central pitch is "empower the designer to exchange memory
//! for time and vice versa" (Section II-A, Fig. 3). This module sweeps the
//! pebble budget and reports, for every feasible budget, the best step
//! count found — the full frontier behind figures like Fig. 5.
//!
//! By default the sweep rides **one** persistent assumption-bounded
//! [`PebbleEncoding`](crate::encoding::PebbleEncoding): every budget probe
//! re-enters the same solver via
//! [`PebbleSolver::resolve_with_budget`](crate::solver::PebbleSolver::resolve_with_budget),
//! so learnt clauses, variable activities, saved phases and the
//! refuted-steps table all carry from budget to budget — the whole
//! frontier costs one encoding instead of one per point.
//!
//! A *fresh* (non-incremental) sweep has no state to carry, so when the
//! session runtime hands it an [`Executor`] the
//! per-budget probes are submitted as independent jobs and race on the
//! shared pool; the resulting points are identical to the sequential
//! sweep's (including early-stop truncation), only the wall-clock
//! differs.
//!
//! Every point is one probe of the same probe loop the minimize and
//! fixed-budget engines run ([`crate::solver`]): the sweep keeps its own
//! descending order only because it keeps every point's strategy.

use std::sync::Arc;
use std::time::{Duration, Instant};

use revpebble_graph::Dag;

use crate::bounds::pebble_lower_bound;
use crate::exec::{scatter, Executor};
use crate::portfolio::{MinimizeConfig, MinimizeWorkerReport};
use crate::solver::{
    BudgetSchedule, MinimizeContext, MinimizeOptions, MinimizeRun, PebbleOutcome, SolverOptions,
};
use crate::strategy::Strategy;

/// One point of the trade-off frontier.
#[derive(Debug, Clone)]
pub struct FrontierPoint {
    /// The pebble budget probed.
    pub pebbles: usize,
    /// The strategy found (step-minimal for this budget if the probe did
    /// not time out), or `None` when the probe failed.
    pub strategy: Option<Strategy>,
    /// Whether the probe hit its time/step budget rather than proving
    /// anything.
    pub timed_out: bool,
}

impl FrontierPoint {
    fn new(pebbles: usize, outcome: PebbleOutcome) -> Self {
        FrontierPoint {
            pebbles,
            timed_out: matches!(outcome, PebbleOutcome::Timeout { .. }),
            strategy: outcome.into_strategy(),
        }
    }
}

/// Options for [`frontier`].
#[derive(Debug, Clone, Copy)]
pub struct FrontierOptions {
    /// Base solver options (the pebble budget field is overridden).
    pub base: SolverOptions,
    /// Per-budget time budget.
    pub per_budget: Duration,
    /// Probe budgets from `min_pebbles` (default: the structural lower
    /// bound) …
    pub min_pebbles: Option<usize>,
    /// … to `max_pebbles` (default: the node count).
    pub max_pebbles: Option<usize>,
    /// Stop after the first infeasible/timed-out budget below the smallest
    /// feasible one (the frontier is monotone, so further probes only
    /// confirm failures).
    pub stop_at_first_failure: bool,
    /// Drive every budget probe through **one** persistent
    /// assumption-bounded encoding/solver instance (the default) instead
    /// of rebuilding per budget. The points are identical; only the work
    /// to reach them differs.
    pub incremental: bool,
}

impl Default for FrontierOptions {
    fn default() -> Self {
        FrontierOptions {
            base: SolverOptions::default(),
            per_budget: Duration::from_secs(10),
            min_pebbles: None,
            max_pebbles: None,
            stop_at_first_failure: true,
            incremental: true,
        }
    }
}

/// Sweeps pebble budgets downward from `max` to `min`, collecting the best
/// strategy per budget. Probing downward lets each successful strategy
/// seed expectations for the next, and the sweep stops early at the first
/// failure when requested. See the [module docs](self) for the persistent
/// incremental engine behind the default configuration.
pub fn frontier(dag: &Dag, options: FrontierOptions) -> Vec<FrontierPoint> {
    frontier_on(dag, options, MinimizeContext::default(), None).0
}

/// The sweep engine under [`frontier`] and the session runtime: `ctx`
/// carries the session's cancel token, event stream, retry policy and
/// heartbeat. The fresh (non-incremental) sweep fans out as per-budget
/// jobs on `executor` when one is given; the incremental sweep stays
/// sequential by construction, its whole point being one persistent
/// solver carrying state from budget to budget. Returns the points,
/// ascending, and one run record per worker that probed them.
pub(crate) fn frontier_on(
    dag: &Dag,
    options: FrontierOptions,
    ctx: MinimizeContext,
    executor: Option<&Executor>,
) -> (Vec<FrontierPoint>, Vec<MinimizeWorkerReport>) {
    let min = options
        .min_pebbles
        .unwrap_or_else(|| pebble_lower_bound(dag));
    let max = options.max_pebbles.unwrap_or_else(|| dag.num_nodes());
    let probes = MinimizeOptions {
        base: options.base,
        per_query: options.per_budget,
        schedule: BudgetSchedule::Descending { stride: 1 },
        incremental: options.incremental,
    };
    if let (false, Some(executor)) = (options.incremental, executor) {
        return frontier_scatter(dag, &options, probes, ctx, executor, (min, max));
    }
    let start = Instant::now();
    let mut run = MinimizeRun::new(dag, &probes, (min, max), ctx);
    let mut points = Vec::new();
    for pebbles in (min..=max).rev() {
        if run.stopped() {
            break;
        }
        let point = FrontierPoint::new(pebbles, run.probe(pebbles).1);
        let failed = point.strategy.is_none();
        points.push(point);
        if failed && options.stop_at_first_failure {
            break;
        }
    }
    points.reverse();
    (points, vec![worker_report(run, &probes, start)])
}

/// The run record of one frontier worker.
fn worker_report(
    run: MinimizeRun<'_>,
    probes: &MinimizeOptions,
    start: Instant,
) -> MinimizeWorkerReport {
    MinimizeWorkerReport {
        config: MinimizeConfig {
            base: probes.base,
            schedule: probes.schedule,
        },
        cancelled: run.stopped(),
        result: run.finish(),
        elapsed: start.elapsed(),
        panicked: None,
    }
}

/// The fresh sweep as independent per-budget jobs on a shared pool: one
/// job (and worker) per budget, descending. With `stop_at_first_failure`
/// the result is truncated at the highest-budget failure afterwards, so
/// the returned points match the sequential sweep's exactly — the probes
/// below the cut are wasted work the parallelism paid for the latency win.
fn frontier_scatter(
    dag: &Dag,
    options: &FrontierOptions,
    probes: MinimizeOptions,
    ctx: MinimizeContext,
    executor: &Executor,
    (min, max): (usize, usize),
) -> (Vec<FrontierPoint>, Vec<MinimizeWorkerReport>) {
    let dag = Arc::new(dag.clone());
    let tasks: Vec<_> = (min..=max)
        .rev()
        .enumerate()
        .map(|(worker, pebbles)| {
            let dag = Arc::clone(&dag);
            let ctx = MinimizeContext {
                worker,
                ..ctx.clone()
            };
            move || {
                let start = Instant::now();
                let mut run = MinimizeRun::new(&dag, &probes, (pebbles, pebbles), ctx);
                let point = FrontierPoint::new(pebbles, run.probe(pebbles).1);
                (point, worker_report(run, &probes, start))
            }
        })
        .collect();
    let (mut descending, runs): (Vec<_>, Vec<_>) = scatter(executor, tasks).into_iter().unzip();
    if options.stop_at_first_failure {
        if let Some(cut) = descending.iter().position(|point| point.strategy.is_none()) {
            descending.truncate(cut + 1);
        }
    }
    descending.reverse();
    (descending, runs)
}

/// Renders a frontier as a compact table (pebbles, steps, gate total).
pub fn render_frontier(points: &[FrontierPoint], dag: &Dag) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{:>7} {:>6} {:>6}", "pebbles", "steps", "moves");
    for point in points {
        match &point.strategy {
            Some(s) => {
                let _ = writeln!(
                    out,
                    "{:>7} {:>6} {:>6}",
                    point.pebbles,
                    s.num_steps(),
                    s.num_moves()
                );
            }
            None => {
                let reason = if point.timed_out { "timeout" } else { "—" };
                let _ = writeln!(out, "{:>7} {reason:>6}", point.pebbles);
            }
        }
    }
    let _ = writeln!(out, "(DAG: {dag})");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{EncodingOptions, MoveMode};
    use revpebble_graph::generators::paper_example;
    use revpebble_sat::CancelToken;

    fn base() -> SolverOptions {
        SolverOptions {
            encoding: EncodingOptions {
                move_mode: MoveMode::Sequential,
                ..EncodingOptions::default()
            },
            max_steps: 60,
            ..SolverOptions::default()
        }
    }

    #[test]
    fn paper_example_frontier_is_monotone() {
        let dag = paper_example();
        let points = frontier(
            &dag,
            FrontierOptions {
                base: base(),
                per_budget: Duration::from_secs(30),
                ..FrontierOptions::default()
            },
        );
        // Budgets 4..=6 are feasible, 3 fails.
        let feasible: Vec<(usize, usize)> = points
            .iter()
            .filter_map(|p| p.strategy.as_ref().map(|s| (p.pebbles, s.num_steps())))
            .collect();
        assert_eq!(feasible, vec![(4, 12), (5, 10), (6, 10)]);
        assert!(points.first().expect("nonempty").strategy.is_none()); // P = 3
                                                                       // Fewer pebbles never means fewer steps.
        for pair in feasible.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
    }

    #[test]
    fn incremental_and_fresh_sweeps_agree_point_for_point() {
        let dag = paper_example();
        let options = |incremental| FrontierOptions {
            base: base(),
            per_budget: Duration::from_secs(30),
            incremental,
            ..FrontierOptions::default()
        };
        let persistent = frontier(&dag, options(true));
        let fresh = frontier(&dag, options(false));
        let feasible = |points: &[FrontierPoint]| -> Vec<(usize, usize)> {
            points
                .iter()
                .filter_map(|p| p.strategy.as_ref().map(|s| (p.pebbles, s.num_steps())))
                .collect()
        };
        assert_eq!(feasible(&persistent), feasible(&fresh));
        assert_eq!(persistent.len(), fresh.len());
    }

    #[test]
    fn scattered_fresh_sweep_matches_the_sequential_points() {
        let dag = paper_example();
        let options = FrontierOptions {
            base: base(),
            per_budget: Duration::from_secs(30),
            incremental: false,
            ..FrontierOptions::default()
        };
        let sequential = frontier(&dag, options);
        let executor = Executor::new(2);
        let scattered = frontier_on(&dag, options, MinimizeContext::default(), Some(&executor)).0;
        let shape = |points: &[FrontierPoint]| -> Vec<(usize, Option<usize>)> {
            points
                .iter()
                .map(|p| (p.pebbles, p.strategy.as_ref().map(Strategy::num_steps)))
                .collect()
        };
        assert_eq!(shape(&sequential), shape(&scattered));
    }

    #[test]
    fn cancelled_sweep_returns_no_points() {
        let dag = paper_example();
        let token = CancelToken::new();
        token.cancel();
        let ctx = MinimizeContext {
            cancel: Some(token),
            ..MinimizeContext::default()
        };
        let options = FrontierOptions {
            base: base(),
            per_budget: Duration::from_secs(30),
            ..FrontierOptions::default()
        };
        let (points, _) = frontier_on(&dag, options, ctx, None);
        assert!(points.is_empty(), "a pre-cancelled sweep probes nothing");
    }

    #[test]
    fn frontier_respects_explicit_range() {
        let dag = paper_example();
        let points = frontier(
            &dag,
            FrontierOptions {
                base: base(),
                per_budget: Duration::from_secs(30),
                min_pebbles: Some(5),
                max_pebbles: Some(6),
                ..FrontierOptions::default()
            },
        );
        assert_eq!(points.len(), 2);
        assert!(points.iter().all(|p| p.strategy.is_some()));
    }

    #[test]
    fn render_contains_all_rows() {
        let dag = paper_example();
        let points = frontier(
            &dag,
            FrontierOptions {
                base: base(),
                per_budget: Duration::from_secs(30),
                min_pebbles: Some(4),
                max_pebbles: Some(6),
                ..FrontierOptions::default()
            },
        );
        let table = render_frontier(&points, &dag);
        assert!(table.contains("pebbles"));
        assert_eq!(table.lines().count(), 2 + points.len());
    }
}
