//! Property tests for the `PebblingSession` front door: on random DAGs,
//! every engine variant that answers the same question must certify
//! identical minima and identical floors — the incremental engine, the
//! paper's fresh-per-probe baseline, the descending schedule and the
//! cooperative portfolio cross-check each other. The session runtime
//! must be invisible to the answers: a session replayed through a
//! `ResultCache` and a session spawned onto a shared `Executor` report
//! exactly what the blocking run reports, and a cache hit for a
//! renumbered copy of a cached DAG replays a strategy that is valid on
//! the copy. Probes run in the decisive
//! regime (generous budgets, adequate step caps) so the answers are
//! theorems, not clock races.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use revpebble::core::{
    BudgetSchedule, EncodingOptions, Executor, MinimizeResult, PebbleSolver, PebblingSession,
    ResultCache, SessionOutcome, SolverOptions,
};
use revpebble::graph::generators::random_dag;
use revpebble::graph::{Dag, NodeId, Source};
use revpebble::prelude::{PebbleOutcome, ShareOptions};

const PER_QUERY: Duration = Duration::from_secs(60);

fn decisive_base(nodes: usize) -> SolverOptions {
    SolverOptions {
        // Step caps above any optimum these little DAGs admit, so every
        // probe ends in SAT or a certified StepLimit, never a timeout.
        max_steps: 4 * nodes + 20,
        ..SolverOptions::default()
    }
}

fn session_minimize(
    dag: &Dag,
    base: SolverOptions,
    schedule: BudgetSchedule,
    incremental: bool,
) -> MinimizeResult {
    let report = PebblingSession::new(dag)
        .solver_options(base)
        .minimize()
        .budget(schedule)
        .incremental(incremental)
        .per_query_timeout(PER_QUERY)
        .run()
        .expect("a valid configuration");
    match report.outcome {
        SessionOutcome::Minimize(result) => result,
        _ => unreachable!("a single-worker minimize session ran"),
    }
}

fn assert_equivalent(dag: &Dag, label: &str, left: &MinimizeResult, right: &MinimizeResult) {
    assert_eq!(
        left.best.as_ref().map(|&(p, _)| p),
        right.best.as_ref().map(|&(p, _)| p),
        "{label}: certified minima diverge"
    );
    // Floors are engine-specific certificates (probe order decides which
    // refutations each engine pays for), so they need not be equal — but
    // each must stay below its own certified minimum.
    for result in [left, right] {
        if let Some(&(minimum, _)) = result.best.as_ref() {
            assert!(
                result.floor <= minimum,
                "{label}: floor {} above certified minimum {minimum}",
                result.floor
            );
        }
    }
    for (p, strategy) in left.best.iter().chain(right.best.iter()) {
        assert!(
            strategy.validate(dag, Some(*p)).is_ok(),
            "{label}: certified strategy invalid at budget {p}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn blocking_spawned_and_cached_runs_agree(
        inputs in 2usize..5,
        nodes in 3usize..12,
        seed in any::<u64>(),
        slack in 0usize..3,
    ) {
        let dag = random_dag(inputs, nodes, seed);
        let budget = (revpebble::core::bounds::pebble_lower_bound(&dag) + slack)
            .min(dag.num_nodes())
            .max(1);
        let report = PebblingSession::new(&dag)
            .pebbles(budget)
            .run()
            .expect("a valid configuration");
        let SessionOutcome::Minimize(blocking) = &report.outcome else {
            panic!("a fixed-budget session runs one worker");
        };
        prop_assert_eq!(blocking.probes.len(), 1, "a fixed budget is one probe");
        if let Some((_, strategy)) = &blocking.best {
            prop_assert!(strategy.validate(&dag, Some(budget)).is_ok());
        }

        // The one-probe window runs what the reference solver runs: the
        // same solvability and the same step count.
        let reference = PebbleSolver::new(
            &dag,
            SolverOptions {
                encoding: EncodingOptions {
                    max_pebbles: Some(budget),
                    ..EncodingOptions::default()
                },
                ..SolverOptions::default()
            },
        )
        .solve();
        let steps = |strategy: Option<&revpebble::core::Strategy>| {
            strategy.map(revpebble::core::Strategy::num_steps)
        };
        prop_assert_eq!(
            steps(blocking.best.as_ref().map(|(_, s)| s)),
            steps(reference.strategy())
        );
        if !matches!(reference, PebbleOutcome::Solved(_)) {
            prop_assert_eq!(blocking.failure.as_ref(), Some(&reference));
        }

        // The same session handed to a shared pool answers identically.
        let executor = Arc::new(Executor::new(2));
        let spawned = PebblingSession::new(&dag)
            .pebbles(budget)
            .spawn_on(&executor)
            .expect("a valid configuration")
            .join();
        prop_assert_eq!(spawned.minimum, report.minimum);
        prop_assert_eq!(spawned.floor, report.floor);
        let SessionOutcome::Minimize(off_thread) = &spawned.outcome else {
            panic!("the spawned session drives the same engine");
        };
        prop_assert_eq!(blocking.best.is_some(), off_thread.best.is_some());

        // A cached replay serves the identical answer without solving.
        let cache = Arc::new(ResultCache::default());
        let first = PebblingSession::new(&dag)
            .pebbles(budget)
            .result_cache(Arc::clone(&cache))
            .run()
            .expect("a valid configuration");
        let replay = PebblingSession::new(&dag)
            .pebbles(budget)
            .result_cache(Arc::clone(&cache))
            .run()
            .expect("a valid configuration");
        prop_assert_eq!((replay.cache_hits, replay.cache_misses), (1, 0));
        prop_assert_eq!(replay.minimum, first.minimum);
        prop_assert_eq!(replay.floor, first.floor);
        prop_assert_eq!(first.minimum, report.minimum);
    }

    #[test]
    fn minimize_engine_variants_certify_the_same_answer(
        inputs in 2usize..5,
        nodes in 3usize..10,
        seed in any::<u64>(),
        stride in 1usize..4,
    ) {
        let dag = random_dag(inputs, nodes, seed);
        let base = decisive_base(dag.num_nodes());

        let incremental = session_minimize(&dag, base, BudgetSchedule::Binary, true);
        let fresh = session_minimize(&dag, base, BudgetSchedule::Binary, false);
        assert_equivalent(&dag, "incremental vs fresh", &incremental, &fresh);

        let descending =
            session_minimize(&dag, base, BudgetSchedule::Descending { stride }, true);
        assert_equivalent(&dag, "incremental vs descending", &incremental, &descending);
    }
}

proptest! {
    // Portfolio runs spawn threads per case; fewer cases keep CI quick.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn portfolio_engines_match_their_single_worker_answers(
        inputs in 2usize..4,
        nodes in 3usize..9,
        seed in any::<u64>(),
    ) {
        let dag = random_dag(inputs, nodes, seed);
        let base = decisive_base(dag.num_nodes());

        // Fixed-budget race: same solvability as the single engine.
        let budget = dag.num_nodes().max(1);
        let single_report = PebblingSession::new(&dag)
            .pebbles(budget)
            .run()
            .expect("a valid configuration");
        let SessionOutcome::Minimize(single_outcome) = &single_report.outcome else {
            panic!("a fixed-budget session runs one worker");
        };
        let report = PebblingSession::new(&dag)
            .pebbles(budget)
            .portfolio(2)
            .run()
            .expect("a valid configuration");
        let SessionOutcome::MinimizePortfolio(race) = &report.outcome else {
            panic!("a fixed-budget portfolio session races its workers");
        };
        prop_assert_eq!(single_outcome.best.is_some(), race.best.is_some());
        prop_assert_eq!(race.workers.len(), 2);

        // Cooperative minimize race: the shared portfolio and the
        // single-worker incremental engine certify the same minimum in
        // the decisive regime — whether the race runs on its private
        // per-worker threads or on a shared two-worker executor.
        let single = session_minimize(&dag, base, BudgetSchedule::Binary, true);
        let minimum = |best: &Option<(usize, revpebble::core::Strategy)>| {
            best.as_ref().map(|&(p, _)| p)
        };
        for shared_pool in [false, true] {
            let mut session = PebblingSession::new(&dag)
                .solver_options(base)
                .minimize()
                .portfolio(2)
                .share_clauses(ShareOptions::default())
                .per_query_timeout(PER_QUERY);
            if shared_pool {
                session = session.executor(Arc::new(Executor::new(2)));
            }
            let shared_report = session.run().expect("a valid configuration");
            let SessionOutcome::MinimizePortfolio(shared) = &shared_report.outcome else {
                panic!("a minimize portfolio ran");
            };
            prop_assert_eq!(minimum(&shared.best), minimum(&single.best));
            prop_assert_eq!(shared_report.minimum, minimum(&single.best));
            if let Some((p, strategy)) = &shared.best {
                prop_assert!(strategy.validate(&dag, Some(*p)).is_ok());
            }
        }
    }
}

/// An isomorphic copy of `dag` with its nodes renumbered along a random
/// topological order drawn from `seed` (weights, output marks and fanins
/// travel with their nodes).
fn relabeled(dag: &Dag, mut seed: u64) -> Dag {
    let mut next = move || {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (seed ^ (seed >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB) >> 1
    };
    let mut placed: Vec<Option<NodeId>> = vec![None; dag.num_nodes()];
    let mut copy = Dag::new();
    for name in dag.input_names() {
        copy.add_input(name.clone());
    }
    for _ in 0..dag.num_nodes() {
        let ready: Vec<NodeId> = dag
            .node_ids()
            .filter(|&v| {
                placed[v.index()].is_none() && dag.children(v).all(|c| placed[c.index()].is_some())
            })
            .collect();
        let pick = ready[(next() % ready.len() as u64) as usize];
        let node = dag.node(pick);
        let fanins: Vec<Source> = node
            .fanins
            .iter()
            .map(|source| match source {
                Source::Node(child) => Source::Node(placed[child.index()].expect("placed")),
                input => *input,
            })
            .collect();
        let id = copy
            .add_node_weighted(format!("r{}", pick.index()), node.op, fanins, node.weight)
            .expect("fanins precede");
        placed[pick.index()] = Some(id);
    }
    for &output in dag.outputs() {
        copy.mark_output(placed[output.index()].expect("placed"));
    }
    copy
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn cache_hits_on_relabeled_dags_replay_valid_strategies(
        inputs in 2usize..5,
        nodes in 3usize..12,
        seed in any::<u64>(),
        relabel_seed in any::<u64>(),
    ) {
        let dag = random_dag(inputs, nodes, seed);
        let budget = dag.num_nodes().max(1);
        let base = decisive_base(dag.num_nodes());
        // A fixed budget, a minimize run and a fixed-budget race: the
        // three outcome shapes a replay renumbers.
        let sessions: [fn(&Dag, usize) -> PebblingSession<'_>; 3] = [
            |dag, budget| PebblingSession::new(dag).pebbles(budget),
            |dag, _| PebblingSession::new(dag).minimize(),
            |dag, budget| PebblingSession::new(dag).pebbles(budget).portfolio(2),
        ];
        for session in sessions {
            let cache = Arc::new(ResultCache::default());
            let first = session(&dag, budget)
                .solver_options(base)
                .per_query_timeout(PER_QUERY)
                .result_cache(Arc::clone(&cache))
                .run()
                .expect("a valid configuration");
            prop_assert!(first.minimum.is_some(), "{budget} pebbles always suffice");
            for copy_seed in 0..4u64 {
                let copy = relabeled(&dag, relabel_seed ^ copy_seed);
                let replay = session(&copy, budget)
                    .solver_options(base)
                    .per_query_timeout(PER_QUERY)
                    .result_cache(Arc::clone(&cache))
                    .run()
                    .expect("a valid configuration");
                // A renumbered copy is the same problem: it must hit, and
                // the replayed strategy must be valid on the copy itself.
                prop_assert_eq!((replay.cache_hits, replay.cache_misses), (1, 0));
                prop_assert_eq!(replay.minimum, first.minimum);
                let strategy = replay.strategy().expect("a hit replays the strategy");
                prop_assert!(strategy.validate(&copy, replay.minimum).is_ok());
            }
        }
    }
}
