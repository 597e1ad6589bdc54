//! Property tests over the whole pipeline: on random DAGs, every strategy
//! the system produces must pass the independent validity checker, every
//! compiled circuit must implement the DAG with clean ancillae, and every
//! minimum the default minimize search proves must match the exhaustive
//! `exact` oracle.

use proptest::prelude::*;
use revpebble::core::bounds::{pebble_lower_bound, step_lower_bound};
use revpebble::core::{exact_min_pebbles, solve_exact};
use revpebble::graph::generators::random_dag;
use revpebble::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn bennett_is_always_valid_and_tight(
        inputs in 1usize..6,
        nodes in 1usize..25,
        seed in any::<u64>(),
    ) {
        let dag = random_dag(inputs, nodes, seed);
        let strategy = bennett(&dag);
        prop_assert!(strategy.validate(&dag, Some(dag.num_nodes())).is_ok());
        prop_assert_eq!(strategy.num_steps(), step_lower_bound(&dag));
        prop_assert_eq!(strategy.max_pebbles(&dag), dag.num_nodes());
    }

    #[test]
    fn cone_wise_is_always_valid(
        inputs in 1usize..6,
        nodes in 1usize..25,
        seed in any::<u64>(),
    ) {
        let dag = random_dag(inputs, nodes, seed);
        let strategy = cone_wise(&dag);
        prop_assert!(strategy.validate(&dag, None).is_ok());
        prop_assert!(strategy.max_pebbles(&dag) <= dag.num_nodes());
    }

    #[test]
    fn sat_strategies_validate_and_compile(
        inputs in 2usize..5,
        nodes in 3usize..12,
        seed in any::<u64>(),
        slack in 0usize..3,
    ) {
        let dag = random_dag(inputs, nodes, seed);
        let budget = (pebble_lower_bound(&dag) + 1 + slack).min(dag.num_nodes());
        let report = PebblingSession::new(&dag)
            .pebbles(budget)
            .run()
            .expect("a valid configuration");
        let SessionOutcome::Minimize(result) = report.outcome else {
            panic!("a fixed-budget session runs one worker");
        };
        let outcome = match result.best {
            Some((_, strategy)) => PebbleOutcome::Solved(strategy),
            None => result.failure.expect("a failed probe names its outcome"),
        };
        match outcome {
            PebbleOutcome::Solved(strategy) => {
                prop_assert!(strategy.validate(&dag, Some(budget)).is_ok());
                let compiled = compile(&dag, &strategy).expect("compiles");
                let correct = matches!(verify(&dag, &compiled), VerifyOutcome::Correct { .. });
                prop_assert!(correct);
                // Width accounting: inputs + peak pebbles.
                prop_assert_eq!(
                    compiled.circuit.width(),
                    dag.num_inputs() + strategy.max_pebbles(&dag)
                );
            }
            PebbleOutcome::Infeasible { lower_bound } => {
                prop_assert!(budget < lower_bound);
            }
            // Tight budgets may need more steps than the default cap; that
            // is a budget outcome, not a correctness failure.
            PebbleOutcome::StepLimit { .. } | PebbleOutcome::Timeout { .. } => {}
        }
    }

    #[test]
    fn sat_never_beats_the_step_lower_bound(
        inputs in 2usize..5,
        nodes in 3usize..10,
        seed in any::<u64>(),
    ) {
        let dag = random_dag(inputs, nodes, seed);
        let report = PebblingSession::new(&dag)
            .pebbles(dag.num_nodes())
            .run()
            .expect("a valid configuration");
        if let Some(strategy) = report.into_strategy() {
            // With unlimited-ish pebbles the optimum equals Bennett's count.
            prop_assert_eq!(strategy.num_moves(), step_lower_bound(&dag));
        }
    }

    #[test]
    fn minimize_agrees_with_the_exact_oracle(
        inputs in 2usize..5,
        nodes in 2usize..10,
        seed in any::<u64>(),
    ) {
        // The floor is relative to the step cap, so the cap is the exact
        // optimum's own step count: the oracle's minimum is reachable
        // within it, and no sound refutation can lift the floor above it.
        let dag = random_dag(inputs, nodes, seed);
        let exact = exact_min_pebbles(&dag);
        let steps = solve_exact(&dag, exact)
            .into_strategy()
            .expect("feasible at the exact minimum")
            .num_steps();
        let report = PebblingSession::new(&dag)
            .minimize()
            .max_steps(steps)
            .run()
            .expect("a valid configuration");
        prop_assert!(report.stop_reason.is_none());
        prop_assert!(
            report.floor <= exact,
            "floor {} above the exact minimum {exact}: an unsound budget-free core",
            report.floor
        );
        let minimum = report.minimum.expect("the exact optimum fits the step cap");
        prop_assert!(minimum >= exact, "minimum {minimum} below the exact minimum {exact}");
        prop_assert_eq!(report.optimal, report.floor == minimum);
        if report.optimal {
            prop_assert_eq!(minimum, exact);
        }
    }
}
