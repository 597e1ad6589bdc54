//! Races of budget-window searches over N workers.
//!
//! Every session runs one probe loop: solve at budget `p`, deepening the
//! step count `K`, over a window of budgets (see [`crate::solver`]). A
//! portfolio races that loop on several workers at once, ManySAT style
//! (Hamadi et al., JSAT 2009): one job per configuration on a shared
//! [`Executor`], each on its own
//! [`PebbleEncoding`](crate::encoding::PebbleEncoding), and the first
//! worker to finish its whole window with a strategy cancels the rest
//! through a shared race [`CancelToken`] threaded all the way into the
//! CDCL search loop ([`revpebble_sat::Solver::set_cancel_token`]).
//!
//! The configuration space has no single dominant choice: exponential
//! deepening wins on hard instances, linear deepening on easy ones; the
//! totalizer beats the sequential counter on wide cardinality bounds and
//! loses on narrow ones. A fixed budget `p` is the window `[p, p]`, raced
//! over [`default_portfolio`]'s solver configurations. A minimize search
//! races [`default_minimize_portfolio`]'s budget schedules (binary search
//! vs. descending strides) over `[lower bound, every node]`, optionally
//! sharing learnt clauses and certified refutations
//! ([`minimize_portfolio_with_sharing`]).
//!
//! ```
//! use revpebble_core::{Engine, PebblingSession};
//! use revpebble_graph::generators::paper_example;
//!
//! let dag = paper_example();
//! let report = PebblingSession::new(&dag).pebbles(4).portfolio(4).run().expect("valid");
//! assert_eq!(report.engine, Engine::SinglePortfolio);
//! assert_eq!(report.workers.len(), 4);
//! assert_eq!(report.workers.iter().filter(|w| w.winner).count(), 1);
//! let strategy = report.into_strategy().expect("solvable");
//! strategy.validate(&dag, Some(4)).expect("valid");
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::{rngs::StdRng, Rng, SeedableRng};
use revpebble_graph::Dag;
use revpebble_sat::card::CardEncoding;
use revpebble_sat::faults::FaultSite;
use revpebble_sat::{CancelToken, PoolConfig, PoolStats, SharedClausePool};

use crate::encoding::MoveMode;
use crate::exec::{scatter_settle, Executor};
use crate::sharing::SharedSearchState;
use crate::solver::{
    budget_window, run_minimize_with_context, BudgetSchedule, MinimizeContext, MinimizeOptions,
    MinimizeResult, SolverOptions, StepSchedule,
};
use crate::strategy::Strategy;

/// Sentinel for "no worker has claimed the win yet".
const NO_WINNER: usize = usize::MAX;

/// A compact single-line description of one configuration,
/// e.g. `exponential/par/totalizer/stride1`.
pub fn describe_options(options: &SolverOptions) -> String {
    let schedule = match options.schedule {
        StepSchedule::Linear => "linear",
        StepSchedule::ExponentialRefine => "exponential",
    };
    let mode = match options.encoding.move_mode {
        MoveMode::Sequential => "seq",
        MoveMode::Parallel => "par",
    };
    let card = match options.encoding.card_encoding {
        CardEncoding::Pairwise => "pairwise",
        CardEncoding::SequentialCounter => "sequential-counter",
        CardEncoding::Totalizer => "totalizer",
    };
    format!(
        "{schedule}/{mode}/{card}/stride{}",
        options.step_stride.max(1)
    )
}

/// Builds `n` diverse configurations from `base`, cycling through the
/// deepening schedules × cardinality encodings × move semantics the
/// encoding layer supports (`base`'s own combination first). Extra
/// workers beyond the 12 distinct combinations widen the step stride,
/// trading step-optimality for speed exactly like
/// [`SolverOptions::step_stride`] documents.
///
/// `n == 0` means "one worker per available core" (at least one), the
/// same convention the CLI's `--portfolio 0` uses.
pub fn default_portfolio(base: SolverOptions, n: usize) -> Vec<SolverOptions> {
    let n = if n == 0 {
        std::thread::available_parallelism().map_or(1, |cores| cores.get())
    } else {
        n
    };
    let schedules = [StepSchedule::Linear, StepSchedule::ExponentialRefine];
    let cards = [
        CardEncoding::SequentialCounter,
        CardEncoding::Totalizer,
        CardEncoding::Pairwise,
    ];
    let modes = [MoveMode::Sequential, MoveMode::Parallel];

    // Rotate each axis so base's own combination comes first.
    let rotate = |mut list: Vec<usize>, first: usize| {
        list.rotate_left(first);
        list
    };
    let schedule_order = rotate(
        (0..schedules.len()).collect(),
        schedules
            .iter()
            .position(|s| *s == base.schedule)
            .unwrap_or(0),
    );
    let card_order = rotate(
        (0..cards.len()).collect(),
        cards
            .iter()
            .position(|c| *c == base.encoding.card_encoding)
            .unwrap_or(0),
    );
    let mode_order = rotate(
        (0..modes.len()).collect(),
        modes
            .iter()
            .position(|m| *m == base.encoding.move_mode)
            .unwrap_or(0),
    );

    let mut configs = Vec::with_capacity(n);
    let mut stride_round = 0;
    'fill: loop {
        for &mode in &mode_order {
            for &card in &card_order {
                for &schedule in &schedule_order {
                    if configs.len() == n {
                        break 'fill;
                    }
                    let mut options = base;
                    options.schedule = schedules[schedule];
                    options.encoding.card_encoding = cards[card];
                    options.encoding.move_mode = modes[mode];
                    options.step_stride = base.step_stride.max(1) + stride_round;
                    configs.push(options);
                }
            }
        }
        stride_round += 1;
    }
    configs
}

/// One worker's slice of a [`minimize_portfolio_with_sharing`] race: a
/// solver configuration paired with a budget schedule.
#[derive(Debug, Clone, Copy)]
pub struct MinimizeConfig {
    /// Options every probe of this worker shares.
    pub base: SolverOptions,
    /// How this worker walks the budget axis.
    pub schedule: BudgetSchedule,
}

/// A compact single-line description of one minimize configuration,
/// e.g. `binary/linear/seq` or `desc2/exponential/par`.
pub fn describe_minimize_config(config: &MinimizeConfig) -> String {
    let schedule = match config.schedule {
        BudgetSchedule::Binary => "binary".to_string(),
        BudgetSchedule::Descending { stride } => format!("desc{}", stride.max(1)),
    };
    format!("{schedule}/{}", describe_options(&config.base))
}

/// What one [`minimize_portfolio_with_sharing`] worker did.
#[derive(Debug, Clone)]
pub struct MinimizeWorkerReport {
    /// The configuration this worker ran.
    pub config: MinimizeConfig,
    /// The worker's own (possibly cancelled-early) search result.
    pub result: MinimizeResult,
    /// Wall-clock time from spawn to return.
    pub elapsed: Duration,
    /// `true` when the race token fired on this worker — a rival finished
    /// first, or an ambient session token was cancelled.
    pub cancelled: bool,
    /// The panic payload when this worker's job panicked instead of
    /// returning (the entry is then a placeholder in configuration
    /// order; the race certifies from the survivors).
    pub panicked: Option<String>,
}

/// What a [`minimize_portfolio_with_sharing`] race shares between its
/// workers. [`Default`] shares everything; [`ShareOptions::isolated`] is
/// the PR-2 behaviour (workers only share first-winner cancellation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShareOptions {
    /// Exchange short learnt clauses through one [`SharedClausePool`].
    /// When every worker's encoding options equal worker 0's the
    /// exchange is verbatim; as soon as any worker differs in
    /// cardinality encoding (or pebble budget / step cap), *all*
    /// participants confine the exchange to the canonically-renamed
    /// pebble-variable prefix (see
    /// [`PebbleEncoding::enable_prefix_sharing`](crate::encoding::PebbleEncoding::enable_prefix_sharing))
    /// — the pool is one namespace, so verbatim local ids and canonical
    /// ids must never mix. Workers diverging on move semantics or
    /// weighting race without the pool.
    pub clauses: bool,
    /// Share the certified-refutation blackboard
    /// ([`SharedSearchState`]): monotonicity-table entries, universal
    /// (budget-free-core) step refutations and the budget floor. Only
    /// wired to workers agreeing with worker 0 on move semantics, the
    /// weighted flag and the step cap — the facts a refutation certifies
    /// depend on nothing else.
    pub bounds: bool,
    /// Jitter the workers' CDCL heuristics (HordeSat-style
    /// diversification): per-worker RNG seeds drive restart-interval
    /// jitter, VSIDS-decay jitter, polarity inversion and variable-bump
    /// noise (see [`diversify_minimize_portfolio`]). Worker 0 keeps the
    /// stock heuristics, so the portfolio always contains the undiversed
    /// baseline.
    pub diversify: bool,
}

impl Default for ShareOptions {
    fn default() -> Self {
        ShareOptions {
            clauses: true,
            bounds: true,
            diversify: false,
        }
    }
}

impl ShareOptions {
    /// No cooperation beyond first-winner cancellation.
    pub fn isolated() -> Self {
        ShareOptions {
            clauses: false,
            bounds: false,
            diversify: false,
        }
    }

    /// Full sharing plus heuristic diversification — the HordeSat recipe.
    pub fn diversified() -> Self {
        ShareOptions {
            diversify: true,
            ..ShareOptions::default()
        }
    }
}

/// How one worker participates in the shared clause pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClauseShareMode {
    /// Every worker's encoding options and step cap equal worker 0's:
    /// every admitted learnt clause is exchanged verbatim.
    Full,
    /// Same move semantics and weighting as worker 0 but some pool
    /// participant differs in cardinality encoding, budget or step cap:
    /// only clauses confined to the canonically-renamed pebble-variable
    /// prefix are exchanged.
    Prefix,
    /// Different move semantics or weighting: no clause exchange.
    None,
}

/// Assigns every worker its pool participation mode. Clause exchange is
/// sound verbatim between identical encodings, and through the
/// canonically-renamed pebble-variable prefix between encodings that
/// agree on move semantics and weighting (different cardinality encodings
/// share the same projected theory — see
/// [`PebbleEncoding::enable_prefix_sharing`](crate::encoding::PebbleEncoding::enable_prefix_sharing)).
/// Workers diverging on move semantics or weighting keep racing without
/// the pool.
///
/// The pool is one namespace: a verbatim publisher writes its *local*
/// variable numbering, a prefix publisher writes *canonical* ids, and a
/// reader cannot tell the payloads apart. Mixing the two regimes in one
/// race would have a verbatim worker install a prefix rival's canonical
/// ids as local literals (and vice versa) — unsound garbage that can
/// flip probe answers. So verbatim exchange requires *every* pool
/// participant to match worker 0 exactly; one deviating worker switches
/// the whole pool to the prefix contract.
fn clause_share_modes(configs: &[MinimizeConfig]) -> Vec<ClauseShareMode> {
    let reference = configs[0].base;
    let mut modes: Vec<ClauseShareMode> = configs
        .iter()
        .map(|config| {
            if config.base.encoding == reference.encoding
                && config.base.max_steps == reference.max_steps
            {
                ClauseShareMode::Full
            } else if config.base.encoding.move_mode == reference.encoding.move_mode
                && config.base.encoding.weighted == reference.encoding.weighted
            {
                ClauseShareMode::Prefix
            } else {
                ClauseShareMode::None
            }
        })
        .collect();
    if modes.contains(&ClauseShareMode::Prefix) {
        for mode in &mut modes {
            if *mode == ClauseShareMode::Full {
                *mode = ClauseShareMode::Prefix;
            }
        }
    }
    modes
}

/// Jitters the CDCL heuristics of every worker but the first, HordeSat
/// style: deterministic per-worker seeds (so races are reproducible
/// modulo thread timing) drive restart-interval jitter
/// ([`restart_base`](revpebble_sat::SolverConfig::restart_base) in
/// `64..=192`), VSIDS-decay jitter
/// ([`var_decay`](revpebble_sat::SolverConfig::var_decay) in
/// `0.90..0.99`), polarity inversion
/// ([`invert_polarity`](revpebble_sat::SolverConfig::invert_polarity),
/// a fair coin) and variable-bump noise
/// ([`activity_noise`](revpebble_sat::SolverConfig::activity_noise) in
/// `0.0..0.05`). Worker 0 is left untouched so every diversified
/// portfolio still contains the stock configuration.
///
/// [`minimize_portfolio_with_sharing`]-based races apply this
/// automatically when [`ShareOptions::diversify`] is set; it is public so
/// custom portfolios can diversify hand-built configuration lists the
/// same way.
pub fn diversify_minimize_portfolio(configs: &mut [MinimizeConfig]) {
    for (worker, config) in configs.iter_mut().enumerate().skip(1) {
        let mut rng = StdRng::seed_from_u64(0x5EED_0000 ^ worker as u64);
        let sat = &mut config.base.sat;
        sat.restart_base = rng.gen_range(64u64..=192);
        sat.var_decay = 0.90 + 0.09 * rng.gen::<f64>();
        sat.invert_polarity = rng.gen_bool(0.5);
        sat.activity_noise = 0.05 * rng.gen::<f64>();
        sat.seed = rng.gen();
    }
}

/// Aggregate view of what a minimize race shared (see
/// [`MinimizePortfolioOutcome::sharing`]). For an isolated race the
/// bound fields aggregate the workers' private blackboards instead.
#[derive(Debug, Clone, Copy, Default)]
pub struct SharingReport {
    /// The [`ShareOptions`] the race ran with.
    pub options: ShareOptions,
    /// Certified budget floor at the end of the race — step-cap-relative
    /// (see [`crate::sharing`]) and certified with respect to **worker
    /// 0's configuration**, which for the default (homogeneous)
    /// portfolios is every worker's. Never exceeds a budget certified by
    /// a worker of that configuration; a heterogeneous custom portfolio
    /// racing a different encoding or a larger step cap may certify a
    /// [`best`](MinimizePortfolioOutcome::best) *below* this floor, since
    /// the floor says nothing about other caps.
    pub floor: usize,
    /// Universal step refutations recorded from budget-free unsat cores.
    pub step_tightenings: u64,
    /// Times the budget floor was raised by an exhausted probe.
    pub floor_raises: u64,
    /// Total clauses published to / rejected by the shared pool (zeros
    /// without clause sharing).
    pub pool: PoolStats,
}

/// The result of a [`minimize_portfolio_with_sharing`] race.
#[derive(Debug, Clone)]
pub struct MinimizePortfolioOutcome {
    /// The smallest certified budget across *all* workers (a cancelled
    /// descending worker may have certified a smaller budget than the
    /// winner completed with); on a tie, the winner's strategy.
    pub best: Option<(usize, Strategy)>,
    /// Index of the first worker to complete its whole search with a
    /// certified budget, if any.
    pub winner: Option<usize>,
    /// One report per worker, in configuration order.
    pub workers: Vec<MinimizeWorkerReport>,
    /// What the race shared and what the sharing proved.
    pub sharing: SharingReport,
}

/// Builds `n` diverse minimize configurations: budget schedules (binary
/// first, then descending with widening strides) crossed with the
/// deepening schedules. Every worker runs *incrementally* — one
/// assumption-bounded encoding across all of its probes — so the race is
/// between budget schedules, not just option sets.
pub fn default_minimize_portfolio(base: SolverOptions, n: usize) -> Vec<MinimizeConfig> {
    let n = if n == 0 {
        std::thread::available_parallelism().map_or(1, |cores| cores.get())
    } else {
        n
    };
    let step_schedules = [base.schedule, other_schedule(base.schedule)];
    let mut configs = Vec::with_capacity(n);
    let mut stride = 1usize;
    'fill: loop {
        let budget_schedules = [
            BudgetSchedule::Binary,
            BudgetSchedule::Descending { stride },
        ];
        for &schedule in &budget_schedules {
            for &step_schedule in &step_schedules {
                if configs.len() == n {
                    break 'fill;
                }
                // Binary search is schedule-complete after round one; only
                // descending gains new configurations from wider strides.
                if stride > 1 && schedule == BudgetSchedule::Binary {
                    continue;
                }
                let mut options = base;
                options.schedule = step_schedule;
                configs.push(MinimizeConfig {
                    base: options,
                    schedule,
                });
            }
        }
        stride *= 2;
    }
    configs
}

fn other_schedule(schedule: StepSchedule) -> StepSchedule {
    match schedule {
        StepSchedule::Linear => StepSchedule::ExponentialRefine,
        StepSchedule::ExponentialRefine => StepSchedule::Linear,
    }
}

/// Races `configs` minimize searches on one instance,
/// first-to-complete-takes-all: each worker drives its own incremental
/// assumption-bounded encoding through its budget schedule, and the first
/// worker to finish a *complete* search with a certified budget raises the
/// shared stop flag. The returned `best` is the smallest budget certified
/// by anyone — a cancelled rival may have descended further than the
/// winner.
///
/// With [`ShareOptions::clauses`] the workers exchange short learnt
/// clauses through one [`SharedClausePool`] — verbatim when every
/// worker's options equal worker 0's, and through the pebble-variable
/// prefix contract as soon as any worker differs in cardinality
/// encoding, budget or step cap (the pool is one namespace, so verbatim
/// and canonical payloads never mix). With [`ShareOptions::bounds`] they pool
/// certified refutations and the budget floor on one
/// [`SharedSearchState`], wired to every worker agreeing with worker 0
/// on move semantics, weighting and step cap. Workers diverging on move
/// semantics or weighting silently race isolated — sharing across those
/// axes would be unsound. [`ShareOptions::diversify`] additionally
/// jitters every non-reference worker's CDCL heuristics (see
/// [`diversify_minimize_portfolio`]).
///
/// # Panics
///
/// Panics if `configs` is empty or the DAG is unfit for pebbling.
pub fn minimize_portfolio_with_sharing(
    dag: &Dag,
    configs: Vec<MinimizeConfig>,
    per_query: Duration,
    share: ShareOptions,
) -> MinimizePortfolioOutcome {
    let window = budget_window(dag, configs[0].base.encoding.weighted);
    let options = MinimizeOptions::new(configs[0].base, per_query);
    minimize_portfolio_on(
        dag,
        configs,
        window,
        options,
        share,
        MinimizeContext::default(),
        None,
    )
}

/// The one race under [`minimize_portfolio_with_sharing`] and every
/// session: each configuration runs the budget-window probe loop over
/// `window` as one worker. `options` supplies what all workers share —
/// the per-probe timeout and the fresh/incremental choice; each worker's
/// own [`MinimizeConfig`] supplies its solver options and budget
/// schedule. `ctx` carries the session hooks (cancel token — the race
/// token is its child — event stream, retry policy, heartbeat); the race
/// fills in each worker's index, pool and blackboard.
///
/// A lone worker runs inline on the calling thread (a panic unwinds to
/// the caller); several run as jobs on `executor`, or on a private pool
/// of one thread per worker, with panics contained into placeholder rows.
pub(crate) fn minimize_portfolio_on(
    dag: &Dag,
    mut configs: Vec<MinimizeConfig>,
    window: (usize, usize),
    options: MinimizeOptions,
    share: ShareOptions,
    ctx: MinimizeContext,
    executor: Option<&Executor>,
) -> MinimizePortfolioOutcome {
    assert!(
        !configs.is_empty(),
        "a minimize portfolio needs at least one configuration"
    );
    if share.diversify {
        diversify_minimize_portfolio(&mut configs);
    }
    let race = ctx
        .cancel
        .as_ref()
        .map_or_else(CancelToken::new, CancelToken::child);
    let pool = share.clauses.then(|| {
        Arc::new(SharedClausePool::with_config(PoolConfig {
            max_workers: configs.len().max(1),
            ..PoolConfig::default()
        }))
    });
    let shared = share.bounds.then(|| Arc::new(SharedSearchState::new()));
    let reference = configs[0].base;
    // One pool, one namespace — see `clause_share_modes` for why a single
    // prefix-mode worker switches every participant to the prefix
    // contract.
    let clause_mode = clause_share_modes(&configs);
    // The refutation blackboard certifies facts about budgets under a
    // step cap; those depend only on move semantics, weighting and the
    // cap — not the cardinality encoding — so the bounds gate is wider
    // than strict option equality. Incompatible workers keep racing, just
    // without the pooled facts — and their results are excluded from the
    // certified figures in the sharing report below.
    let compatible: Vec<bool> = configs
        .iter()
        .map(|config| {
            config.base.encoding.move_mode == reference.encoding.move_mode
                && config.base.encoding.weighted == reference.encoding.weighted
                && config.base.max_steps == reference.max_steps
        })
        .collect();
    let winner = Arc::new(AtomicUsize::new(NO_WINNER));
    let scattered = configs.len() > 1;
    let worker = |index: usize| {
        let config = configs[index];
        let race = race.clone();
        let winner = Arc::clone(&winner);
        // Containment: a pooled worker runs under its own child of the
        // race token, so a spurious cancellation (injected at `exec.job`,
        // or an external child-holder) degrades this one worker without
        // stopping the race. The winner still cancels the shared parent,
        // which shines through every child. A lone worker has no rival
        // to stop and runs under the session's own token.
        let token = if scattered {
            Some(race.child())
        } else {
            ctx.cancel.clone()
        };
        let ctx = MinimizeContext {
            cancel: token.clone(),
            pool: pool
                .clone()
                .filter(|_| clause_mode[index] != ClauseShareMode::None),
            prefix: clause_mode[index] == ClauseShareMode::Prefix,
            shared: shared.clone().filter(|_| compatible[index]),
            worker: index,
            ..ctx.clone()
        };
        let options = MinimizeOptions {
            base: config.base,
            schedule: config.schedule,
            ..options
        };
        move |dag: &Dag| {
            let start = Instant::now();
            // Fail point `exec.job`: only a worker that is its own pool
            // job visits it.
            if let Some(token) = token.as_ref().filter(|_| scattered) {
                if config.base.sat.faults.trip(FaultSite::ExecJob, Some(token)) {
                    token.cancel();
                }
            }
            let result = run_minimize_with_context(dag, options, window, ctx);
            let stopped = token.as_ref().is_some_and(CancelToken::is_cancelled);
            let finished = result.best.is_some() && !stopped;
            if finished
                && winner
                    .compare_exchange(NO_WINNER, index, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                race.cancel();
            }
            MinimizeWorkerReport {
                config,
                cancelled: !finished && stopped,
                result,
                elapsed: start.elapsed(),
                panicked: None,
            }
        }
    };
    let workers: Vec<MinimizeWorkerReport> = if scattered {
        let owned = Arc::new(dag.clone());
        let tasks: Vec<_> = (0..configs.len())
            .map(|index| {
                let body = worker(index);
                let dag = Arc::clone(&owned);
                move || body(&dag)
            })
            .collect();
        let private;
        let executor = match executor {
            Some(executor) => executor,
            None => {
                private = Executor::new(configs.len());
                &private
            }
        };
        // Panic isolation: a panicked worker becomes a placeholder entry
        // (in configuration order, so winner indices stay valid); its
        // floor of 0 and empty result never contribute to the certified
        // aggregates.
        scatter_settle(executor, tasks)
            .into_iter()
            .enumerate()
            .map(|(index, slot)| {
                slot.unwrap_or_else(|failure| MinimizeWorkerReport {
                    config: configs[index],
                    result: MinimizeResult::default(),
                    elapsed: Duration::ZERO,
                    cancelled: false,
                    panicked: Some(failure.message),
                })
            })
            .collect()
    } else {
        vec![worker(0)(dag)]
    };
    let winner = match winner.load(Ordering::Acquire) {
        NO_WINNER => None,
        index => Some(index),
    };
    // The smallest certified budget; ties go to the winner, whose
    // configuration the caller names alongside the strategy.
    let best = winner
        .into_iter()
        .chain(0..workers.len())
        .filter_map(|index| workers[index].result.best.as_ref())
        .min_by_key(|&&(p, _)| p)
        .cloned();
    // Certified figures only ever aggregate reference-compatible workers:
    // an incompatible worker's floor is certified relative to a *different*
    // encoding or step cap, and mixing them could report a "floor" above a
    // budget some larger-cap worker legitimately certified.
    let compatible_workers = || {
        workers
            .iter()
            .zip(&compatible)
            .filter_map(|(w, &ok)| ok.then_some(w))
    };
    let pool = pool.as_ref().map(|p| p.stats()).unwrap_or_default();
    let sharing = match &shared {
        Some(state) => SharingReport {
            options: share,
            floor: state.floor(),
            step_tightenings: state.step_tightenings(),
            floor_raises: state.floor_raises(),
            pool,
        },
        // Isolated race: aggregate the compatible workers' private
        // blackboards so the report stays meaningful for comparisons.
        None => SharingReport {
            options: share,
            floor: compatible_workers()
                .map(|w| w.result.floor)
                .max()
                .unwrap_or_default(),
            step_tightenings: compatible_workers()
                .map(|w| w.result.step_tightenings)
                .sum(),
            floor_raises: compatible_workers().map(|w| w.result.floor_raises).sum(),
            pool,
        },
    };
    MinimizePortfolioOutcome {
        best,
        winner,
        workers,
        sharing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::EncodingOptions;
    use crate::session::{PebblingSession, SessionOutcome};
    use crate::solver::{PebbleOutcome, PebbleSolver};
    use revpebble_graph::generators::paper_example;

    /// Session-backed equivalents of the retired free-function shims:
    /// the tests still cover the session → engine plumbing end to end.
    fn solve_with_pebbles(dag: &Dag, max_pebbles: usize) -> MinimizeResult {
        let report = PebblingSession::new(dag)
            .pebbles(max_pebbles)
            .run()
            .expect("valid pebbling configuration");
        match report.outcome {
            SessionOutcome::Minimize(result) => result,
            _ => unreachable!("a fixed-budget session runs one worker"),
        }
    }

    fn solve_with_pebbles_portfolio(
        dag: &Dag,
        max_pebbles: usize,
        workers: usize,
    ) -> MinimizePortfolioOutcome {
        session_minimize_portfolio(
            PebblingSession::new(dag)
                .pebbles(max_pebbles)
                .portfolio(workers),
        )
    }

    fn session_minimize_portfolio(session: PebblingSession<'_>) -> MinimizePortfolioOutcome {
        let report = session.run().expect("valid pebbling configuration");
        match report.outcome {
            SessionOutcome::MinimizePortfolio(outcome) => outcome,
            _ => unreachable!("a minimize-portfolio session drives the portfolio engine"),
        }
    }

    fn minimize_portfolio(
        dag: &Dag,
        base: SolverOptions,
        per_query: Duration,
        n: usize,
    ) -> MinimizePortfolioOutcome {
        session_minimize_portfolio(
            PebblingSession::new(dag)
                .solver_options(base)
                .minimize()
                .portfolio(n)
                .per_query_timeout(per_query),
        )
    }

    fn minimize_portfolio_shared(
        dag: &Dag,
        base: SolverOptions,
        per_query: Duration,
        n: usize,
    ) -> MinimizePortfolioOutcome {
        session_minimize_portfolio(
            PebblingSession::new(dag)
                .solver_options(base)
                .minimize()
                .portfolio(n)
                .share_clauses(ShareOptions::default())
                .per_query_timeout(per_query),
        )
    }

    fn minimize_single(dag: &Dag, base: SolverOptions, per_query: Duration) -> MinimizeResult {
        let report = PebblingSession::new(dag)
            .solver_options(base)
            .minimize()
            .per_query_timeout(per_query)
            .run()
            .expect("valid pebbling configuration");
        match report.outcome {
            SessionOutcome::Minimize(result) => result,
            _ => unreachable!("a minimize session drives the minimize engine"),
        }
    }

    fn budgeted(max_pebbles: usize) -> SolverOptions {
        SolverOptions {
            encoding: EncodingOptions {
                max_pebbles: Some(max_pebbles),
                ..EncodingOptions::default()
            },
            ..SolverOptions::default()
        }
    }

    #[test]
    fn default_portfolio_is_diverse_and_sized() {
        let configs = default_portfolio(SolverOptions::default(), 6);
        assert_eq!(configs.len(), 6);
        let descriptions: std::collections::BTreeSet<String> =
            configs.iter().map(describe_options).collect();
        assert_eq!(descriptions.len(), 6, "configurations must be distinct");
        // The base configuration itself always runs as worker 0.
        assert_eq!(configs[0].schedule, SolverOptions::default().schedule);
        assert_eq!(
            configs[0].encoding.card_encoding,
            EncodingOptions::default().card_encoding
        );
    }

    #[test]
    fn zero_workers_means_one_per_core() {
        let configs = default_portfolio(SolverOptions::default(), 0);
        assert!(!configs.is_empty());
        let dag = paper_example();
        let result = solve_with_pebbles_portfolio(&dag, 4, 0);
        assert!(result.best.is_some());
    }

    #[test]
    fn oversized_portfolio_falls_back_to_stride_variants() {
        let configs = default_portfolio(SolverOptions::default(), 15);
        assert_eq!(configs.len(), 15);
        assert!(configs[12..].iter().all(|c| c.step_stride == 2));
    }

    #[test]
    fn portfolio_matches_single_threaded_bound_on_paper_example() {
        let dag = paper_example();
        let (_, single) = solve_with_pebbles(&dag, 4).best.expect("solvable");
        single
            .validate(&dag, Some(4))
            .expect("single-threaded valid");

        let result = solve_with_pebbles_portfolio(&dag, 4, 4);
        let (_, strategy) = result.best.clone().expect("portfolio solves too");
        strategy
            .validate(&dag, Some(4))
            .expect("portfolio strategy fits the same pebble bound");
        let winner = result.winner.expect("someone won");
        assert!(winner < result.workers.len());
        assert_eq!(result.workers.len(), 4);
        assert!(result.workers.iter().all(|w| w.elapsed > Duration::ZERO));
    }

    #[test]
    fn portfolio_with_two_workers_solves_and_reports_both() {
        let dag = paper_example();
        let result = solve_with_pebbles_portfolio(&dag, 6, 2);
        assert!(result.best.is_some());
        assert_eq!(result.workers.len(), 2);
        let report = &result.workers[result.winner.expect("a winner")].result;
        assert!(report.best.is_some());
        assert!(report.search.queries > 0);
    }

    #[test]
    fn infeasible_budget_is_reported_not_raced_forever() {
        let dag = paper_example();
        let result = solve_with_pebbles_portfolio(&dag, 1, 3);
        assert!(result.best.is_none());
        for worker in &result.workers {
            assert_eq!(
                worker.result.failure,
                Some(PebbleOutcome::Infeasible { lower_bound: 3 })
            );
        }
        assert!(result.winner.is_none());
    }

    #[test]
    fn losing_workers_observe_the_stop_flag_and_exit_promptly() {
        // Both workers walk the window [3, 4] and probe budget 3 first.
        // 3 pebbles pass the structural lower bound of the paper example
        // but admit no strategy at any K (the final configuration {E, F}
        // leaves one pebble for C and D). Worker 0 refutes it up to its
        // 20-step cap and wins at 4; worker 1 is doomed: with an
        // effectively unbounded step cap it would refute K = 10, 11, 12,
        // … forever. Only the winner's stop flag can end it — the whole
        // test hanging is the failure mode guarded against.
        let dag = paper_example();
        let capped = SolverOptions {
            max_steps: 20,
            ..SolverOptions::default()
        };
        let doomed = SolverOptions {
            max_steps: usize::MAX / 2,
            ..SolverOptions::default()
        };
        let configs = [capped, doomed]
            .map(|base| MinimizeConfig {
                base,
                schedule: BudgetSchedule::Binary,
            })
            .to_vec();
        let start = Instant::now();
        let result = minimize_portfolio_on(
            &dag,
            configs,
            (3, 4),
            MinimizeOptions::new(capped, Duration::from_secs(600)),
            ShareOptions::isolated(),
            MinimizeContext::default(),
            None,
        );
        let elapsed = start.elapsed();

        assert_eq!(result.winner, Some(0), "only the capped worker can finish");
        let (p, strategy) = result.best.expect("winner's strategy");
        assert_eq!(p, 4);
        strategy.validate(&dag, Some(4)).expect("valid");

        let loser = &result.workers[1];
        assert!(loser.cancelled, "loser must report being cancelled");
        // Cancellation surfaces as a budget outcome — or, when the win
        // landed before the loser's first probe, as no probe at all.
        assert!(loser.result.best.is_none());
        assert!(
            matches!(
                loser.result.failure,
                None | Some(PebbleOutcome::Timeout { .. })
            ),
            "got {:?}",
            loser.result.failure
        );
        // Generous CI bound; the stop flag is polled at every CDCL
        // decision, so real latency is micro- to milliseconds.
        assert!(
            elapsed < Duration::from_secs(30),
            "losing worker took {elapsed:?} to observe the stop flag"
        );
    }

    #[test]
    fn minimize_portfolio_races_budget_schedules() {
        let dag = paper_example();
        let base = SolverOptions {
            max_steps: 60,
            ..SolverOptions::default()
        };
        let configs = default_minimize_portfolio(base, 4);
        assert_eq!(configs.len(), 4);
        let described: std::collections::BTreeSet<String> =
            configs.iter().map(describe_minimize_config).collect();
        assert_eq!(described.len(), 4, "configurations must be distinct");
        assert!(configs.iter().any(|c| c.schedule == BudgetSchedule::Binary));
        assert!(configs
            .iter()
            .any(|c| matches!(c.schedule, BudgetSchedule::Descending { .. })));

        let outcome = minimize_portfolio_with_sharing(
            &dag,
            configs,
            Duration::from_secs(20),
            ShareOptions::isolated(),
        );
        let (p, strategy) = outcome.best.expect("paper example is feasible");
        assert_eq!(p, 4, "all schedules agree on the minimum budget");
        strategy.validate(&dag, Some(4)).expect("valid");
        assert!(outcome.winner.is_some());
        assert_eq!(outcome.workers.len(), 4);
        // Every worker ran incrementally: its probes share one solver.
        for worker in &outcome.workers {
            if !worker.result.probes.is_empty() {
                assert_eq!(
                    worker.result.sat.solves,
                    worker.result.search.queries as u64,
                    "{}",
                    describe_minimize_config(&worker.config)
                );
            }
        }
    }

    #[test]
    fn shared_race_matches_isolated_minimum_on_c17() {
        let dag = revpebble_graph::parse_bench(revpebble_graph::data::C17_BENCH).expect("parses");
        let base = SolverOptions {
            max_steps: 60,
            ..SolverOptions::default()
        };
        let shared = minimize_portfolio_shared(&dag, base, Duration::from_secs(30), 4);
        let (p, strategy) = shared.best.clone().expect("c17 is feasible");
        strategy.validate(&dag, Some(p)).expect("valid");
        // The single-worker incremental engine agrees on the minimum.
        let single = minimize_single(&dag, base, Duration::from_secs(30));
        assert_eq!(Some(p), single.best.map(|(p, _)| p));
        // The cooperative layer was actually on and did something.
        assert!(shared.sharing.options.clauses && shared.sharing.options.bounds);
        let exported: u64 = shared
            .workers
            .iter()
            .map(|w| w.result.sat.exported_clauses)
            .sum();
        assert!(exported > 0, "c17 probes must learn poolable clauses");
        assert!(shared.sharing.pool.published > 0);
        assert!(
            shared.sharing.floor <= p,
            "certified floor {} must not exceed the certified minimum {p}",
            shared.sharing.floor
        );
    }

    #[test]
    fn mixed_encoding_shared_race_matches_single_worker_minimum() {
        // Three workers with *different* cardinality encodings share one
        // pool through the pebble-variable prefix contract; the certified
        // minimum must match the single-worker incremental engine.
        let dag = revpebble_graph::parse_bench(revpebble_graph::data::C17_BENCH).expect("parses");
        let base = SolverOptions {
            max_steps: 60,
            ..SolverOptions::default()
        };
        let mut configs = default_minimize_portfolio(base, 3);
        configs[1].base.encoding.card_encoding = CardEncoding::Totalizer;
        configs[2].base.encoding.card_encoding = CardEncoding::Pairwise;
        let outcome = minimize_portfolio_with_sharing(
            &dag,
            configs,
            Duration::from_secs(30),
            ShareOptions::default(),
        );
        let (p, strategy) = outcome.best.clone().expect("c17 is feasible");
        strategy.validate(&dag, Some(p)).expect("valid");
        let single = minimize_single(&dag, base, Duration::from_secs(30));
        assert_eq!(Some(p), single.best.map(|(p, _)| p));
        // At least one worker registered on the pool (on a 1-core box a
        // decisive race can certify and cancel its rivals before they
        // ever attach), and the mixed-encoding workers still certify a
        // floor no higher than the minimum.
        assert!(
            outcome.sharing.pool.workers >= 1,
            "the winning worker must register on the pool, got {}",
            outcome.sharing.pool.workers
        );
        assert!(outcome.sharing.floor <= p);
    }

    #[test]
    fn one_prefix_worker_switches_the_whole_pool_to_prefix_mode() {
        // Verbatim (local-numbering) and canonical (prefix-renamed)
        // payloads share one pool and are indistinguishable to a reader,
        // so the two regimes must never coexist in a race: a verbatim
        // worker would install a rival's canonical ids as local literals.
        let base = SolverOptions {
            max_steps: 60,
            ..SolverOptions::default()
        };
        let uniform = default_minimize_portfolio(base, 3);
        assert!(
            clause_share_modes(&uniform)
                .iter()
                .all(|&m| m == ClauseShareMode::Full),
            "identical encodings exchange verbatim"
        );
        let mut mixed = default_minimize_portfolio(base, 3);
        mixed[2].base.encoding.card_encoding = CardEncoding::Totalizer;
        let modes = clause_share_modes(&mixed);
        assert!(
            modes.iter().all(|&m| m == ClauseShareMode::Prefix),
            "one deviating worker forces the prefix contract on everyone, got {modes:?}"
        );
        let mut detached = default_minimize_portfolio(base, 3);
        detached[1].base.encoding.card_encoding = CardEncoding::Pairwise;
        detached[2].base.encoding.move_mode = MoveMode::Parallel;
        assert_eq!(
            clause_share_modes(&detached),
            vec![
                ClauseShareMode::Prefix,
                ClauseShareMode::Prefix,
                ClauseShareMode::None
            ],
            "move-mode divergence detaches that worker only"
        );
    }

    #[test]
    fn diversification_jitters_every_worker_but_the_first() {
        let base = SolverOptions {
            max_steps: 60,
            ..SolverOptions::default()
        };
        let mut configs = default_minimize_portfolio(base, 4);
        let before: Vec<_> = configs.clone();
        diversify_minimize_portfolio(&mut configs);
        assert_eq!(
            configs[0].base.sat, before[0].base.sat,
            "worker 0 keeps the stock heuristics"
        );
        for (worker, (jittered, stock)) in configs.iter().zip(&before).enumerate().skip(1) {
            let (j, s) = (&jittered.base.sat, &stock.base.sat);
            assert_ne!(j, s, "worker {worker} must be jittered");
            assert!((64..=192).contains(&j.restart_base), "{}", j.restart_base);
            assert!((0.90..0.99).contains(&j.var_decay), "{}", j.var_decay);
            assert!((0.0..0.05).contains(&j.activity_noise));
            // Everything outside the sat knobs is untouched.
            assert_eq!(jittered.base.encoding, stock.base.encoding);
            assert_eq!(jittered.schedule, stock.schedule);
        }
        // Deterministic: a second pass from the same inputs agrees.
        let mut again = before.clone();
        diversify_minimize_portfolio(&mut again);
        for (a, b) in again.iter().zip(&configs) {
            assert_eq!(a.base.sat, b.base.sat);
        }
        // Distinct workers draw distinct seeds.
        assert_ne!(configs[1].base.sat.seed, configs[2].base.sat.seed);
    }

    #[test]
    fn diversified_shared_race_agrees_on_the_minimum() {
        let dag = paper_example();
        let base = SolverOptions {
            max_steps: 60,
            ..SolverOptions::default()
        };
        let configs = default_minimize_portfolio(base, 3);
        let outcome = minimize_portfolio_with_sharing(
            &dag,
            configs,
            Duration::from_secs(20),
            ShareOptions::diversified(),
        );
        assert_eq!(outcome.best.as_ref().map(|&(p, _)| p), Some(4));
        assert!(outcome.sharing.options.diversify);
    }

    #[test]
    fn sequential_pool_handoff_imports_deterministically() {
        // Two incremental solvers with *equal* encoding options on one
        // pool, run one after the other: whatever the first learns, the
        // second must import at the start of its own queries.
        use crate::encoding::BoundMode;
        let dag = revpebble_graph::parse_bench(revpebble_graph::data::C17_BENCH).expect("parses");
        let pool = Arc::new(revpebble_sat::SharedClausePool::new());
        let options = SolverOptions {
            encoding: EncodingOptions {
                bound_mode: BoundMode::Assumed,
                ..EncodingOptions::default()
            },
            max_steps: 60,
            ..SolverOptions::default()
        };
        let mut a = PebbleSolver::new(&dag, options);
        a.set_clause_pool(Some(Arc::clone(&pool)));
        assert!(matches!(a.resolve_with_budget(4), PebbleOutcome::Solved(_)));
        assert!(
            a.sat_stats().exported_clauses > 0,
            "the budget-4 search must learn short clauses"
        );
        let mut b = PebbleSolver::new(&dag, options);
        b.set_clause_pool(Some(Arc::clone(&pool)));
        assert!(matches!(b.resolve_with_budget(4), PebbleOutcome::Solved(_)));
        assert!(
            b.sat_stats().imported_clauses > 0,
            "b must pick up a's pooled clauses"
        );
    }

    #[test]
    fn isolated_race_reports_aggregated_private_floors() {
        let dag = paper_example();
        let base = SolverOptions {
            max_steps: 60,
            ..SolverOptions::default()
        };
        let outcome = minimize_portfolio(&dag, base, Duration::from_secs(20), 2);
        assert_eq!(outcome.best.as_ref().map(|&(p, _)| p), Some(4));
        assert_eq!(outcome.sharing.options, ShareOptions::isolated());
        assert_eq!(outcome.sharing.pool.published, 0, "no pool exists");
        assert!(outcome.sharing.floor <= 4);
    }

    #[test]
    fn reports_preserve_configuration_order() {
        let dag = paper_example();
        let configs = default_portfolio(budgeted(6), 3);
        let expected: Vec<String> = configs.iter().map(describe_options).collect();
        let report = PebblingSession::new(&dag)
            .pebbles(6)
            .portfolio(3)
            .run()
            .expect("valid pebbling configuration");
        let got: Vec<String> = report.workers.iter().map(|w| w.config.clone()).collect();
        assert_eq!(got, expected);
    }
}
