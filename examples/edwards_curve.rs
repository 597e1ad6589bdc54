//! Show-case 1 (the paper's Fig. 5): pebbling an elliptic-curve
//! straight-line program under shrinking qubit budgets.
//!
//! The paper pebbles a point-addition program from fast genus-2
//! cryptography (Bos et al.) with 24, 20, 16, 12 and 10 pebbles, counting
//! how many modular additions, subtractions, squarings and multiplications
//! each budget costs. This example does the same for the projective
//! Edwards point addition (20 operations) — the Kummer ladder step used by
//! the full Fig. 5 reproduction lives in the bench harness (`fig5`).
//!
//! Run with: `cargo run --release --example edwards_curve`

use revpebble::graph::slp::edwards_add_projective;
use revpebble::graph::Op;
use revpebble::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let slp = edwards_add_projective();
    let dag = slp.to_dag()?;
    println!("Edwards point addition: {dag}");

    let naive = bennett(&dag);
    println!(
        "Bennett: {} pebbles, {} operations\n",
        naive.max_pebbles(&dag),
        naive.num_moves()
    );

    println!(
        "{:>7} {:>6} {:>5} {:>5} {:>5} {:>5} {:>6}",
        "pebbles", "steps", "Add", "Sub", "Sqr", "Mul", "total"
    );
    for budget in [16, 12, 10, 8, 7] {
        // Double K on failure, then binary-refine: much faster than the
        // paper's K+1 loop near the feasibility boundary.
        let report = PebblingSession::new(&dag)
            .pebbles(budget)
            .move_mode(MoveMode::Sequential)
            .steps(revpebble::core::StepSchedule::ExponentialRefine)
            .per_query_timeout(std::time::Duration::from_secs(30))
            .run()?;
        // A fixed budget is a one-probe window: its record holds the
        // strategy or the outcome that stopped the probe.
        let revpebble::core::SessionOutcome::Minimize(result) = report.outcome else {
            unreachable!("a fixed-budget session runs one worker");
        };
        let outcome = match result.best {
            Some((_, strategy)) => PebbleOutcome::Solved(strategy),
            None => result.failure.expect("a failed probe names its outcome"),
        };
        match outcome {
            PebbleOutcome::Solved(strategy) => {
                strategy.validate(&dag, Some(budget))?;
                let counts = strategy.op_counts(&dag);
                let get = |op: Op| counts.get(&op).copied().unwrap_or(0);
                println!(
                    "{budget:>7} {:>6} {:>5} {:>5} {:>5} {:>5} {:>6}",
                    strategy.num_steps(),
                    get(Op::Add),
                    get(Op::Sub),
                    get(Op::Sqr),
                    get(Op::Mul),
                    strategy.num_moves()
                );
                // Memory profile, like the curves on top of Fig. 5.
                let profile = strategy.pebble_profile(&dag);
                let spark: String = profile
                    .iter()
                    .map(|&p| char::from_digit(p.min(9) as u32, 10).unwrap_or('+'))
                    .collect();
                println!("        memory: {spark}");
            }
            PebbleOutcome::Infeasible { lower_bound } => {
                println!("{budget:>7} infeasible (lower bound {lower_bound})");
            }
            PebbleOutcome::Timeout { steps_reached } => {
                println!("{budget:>7} timeout while trying {steps_reached} steps");
            }
            PebbleOutcome::StepLimit { steps_checked } => {
                println!("{budget:>7} no solution up to {steps_checked} steps");
            }
        }
    }
    Ok(())
}
