//! Property tests: the CDCL solver must agree with the brute-force DPLL
//! oracle on random formulas, and its models must actually satisfy them.

use proptest::prelude::*;
use revpebble_sat::reference::{brute_force, evaluate};
use revpebble_sat::{card, Cnf, Lit, SolveResult, Solver, SolverConfig, Var};

/// Strategy: a random CNF over `max_vars` variables.
fn arb_cnf(max_vars: usize, max_clauses: usize) -> impl Strategy<Value = Cnf> {
    let clause = prop::collection::vec(
        (0..max_vars, any::<bool>()).prop_map(|(v, pos)| Lit::new(Var::from_index(v), pos)),
        1..=4,
    );
    prop::collection::vec(clause, 0..=max_clauses).prop_map(move |clauses| {
        let mut cnf = Cnf::new(max_vars);
        for c in clauses {
            cnf.add_clause(c);
        }
        cnf
    })
}

fn solve_cdcl(cnf: &Cnf) -> (SolveResult, Option<Vec<bool>>) {
    let mut solver = Solver::new();
    solver.new_vars(cnf.num_vars);
    for clause in &cnf.clauses {
        solver.add_clause(clause.iter().copied());
    }
    let result = solver.solve();
    (result, solver.model())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cdcl_agrees_with_reference(cnf in arb_cnf(10, 40)) {
        let oracle = brute_force(&cnf);
        let (result, model) = solve_cdcl(&cnf);
        match oracle {
            Some(_) => {
                prop_assert_eq!(result, SolveResult::Sat);
                let model = model.expect("model on SAT");
                prop_assert!(evaluate(&cnf, &model), "CDCL model must satisfy formula");
            }
            None => prop_assert_eq!(result, SolveResult::Unsat),
        }
    }

    #[test]
    fn cdcl_agrees_under_assumptions(
        cnf in arb_cnf(8, 25),
        assumed in prop::collection::vec((0..8usize, any::<bool>()), 0..=4),
    ) {
        // Deduplicate assumption variables, keeping the first polarity.
        let mut seen = [false; 8];
        let mut assumptions = Vec::new();
        for (v, pos) in assumed {
            if !seen[v] {
                seen[v] = true;
                assumptions.push(Lit::new(Var::from_index(v), pos));
            }
        }
        // Oracle: conjoin assumptions as unit clauses.
        let mut strengthened = cnf.clone();
        for &lit in &assumptions {
            strengthened.add_clause([lit]);
        }
        let oracle = brute_force(&strengthened);

        let mut solver = Solver::new();
        solver.new_vars(cnf.num_vars);
        for clause in &cnf.clauses {
            solver.add_clause(clause.iter().copied());
        }
        let result = solver.solve_with(&assumptions);
        prop_assert_eq!(result == SolveResult::Sat, oracle.is_some());
        // The solver stays usable afterwards and gives the unconditional answer.
        let unconditional = solver.solve();
        prop_assert_eq!(unconditional == SolveResult::Sat, brute_force(&cnf).is_some());
    }

    #[test]
    fn gc_heavy_solver_agrees_with_reference(cnf in arb_cnf(10, 40)) {
        // A learned-clause cap of (almost) zero forces a database
        // reduction — and with it a mark-compact arena GC relocating
        // watchers and trail reasons — after nearly every conflict. The
        // solver must still agree with the brute-force oracle, and its
        // models must still satisfy the formula.
        let mut solver = Solver::with_config(SolverConfig {
            min_learnts: 1.0,
            learntsize_factor: 0.0,
            ..SolverConfig::default()
        });
        solver.new_vars(cnf.num_vars);
        for clause in &cnf.clauses {
            solver.add_clause(clause.iter().copied());
        }
        let result = solver.solve();
        match brute_force(&cnf) {
            Some(_) => {
                prop_assert_eq!(result, SolveResult::Sat);
                let model = solver.model().expect("model on SAT");
                prop_assert!(evaluate(&cnf, &model), "model must satisfy formula");
            }
            None => prop_assert_eq!(result, SolveResult::Unsat),
        }
    }

    #[test]
    fn incremental_reuse_is_consistent(cnf in arb_cnf(9, 30)) {
        // Solving twice must give the same answer; adding the model back as
        // unit clauses must stay SAT.
        let (first, model) = solve_cdcl(&cnf);
        let (second, _) = solve_cdcl(&cnf);
        prop_assert_eq!(first, second);
        if let (SolveResult::Sat, Some(model)) = (first, model) {
            let mut solver = Solver::new();
            let vars = solver.new_vars(cnf.num_vars);
            for clause in &cnf.clauses {
                solver.add_clause(clause.iter().copied());
            }
            for (i, &value) in model.iter().enumerate() {
                solver.add_clause([Lit::new(vars[i], value)]);
            }
            prop_assert_eq!(solver.solve(), SolveResult::Sat);
        }
    }

    #[test]
    fn cardinality_encodings_agree(
        n in 2usize..9,
        k in 0usize..9,
        pattern in any::<u32>(),
    ) {
        let k = k.min(n);
        let pattern = pattern & ((1 << n) - 1);
        let count = pattern.count_ones() as usize;
        for encoding in [
            card::CardEncoding::Pairwise,
            card::CardEncoding::SequentialCounter,
            card::CardEncoding::Totalizer,
        ] {
            let mut solver = Solver::new();
            let vars = solver.new_vars(n);
            let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
            card::at_most_k(&mut solver, &lits, k, encoding);
            let assumptions: Vec<Lit> = (0..n)
                .map(|i| Lit::new(vars[i], pattern & (1 << i) != 0))
                .collect();
            let sat = solver.solve_with(&assumptions) == SolveResult::Sat;
            prop_assert_eq!(sat, count <= k, "encoding {:?} n={} k={}", encoding, n, k);
        }
    }
}

/// The values unit propagation derives from `assumed` over `cnf`
/// (`None` = unassigned), or `None` when it runs into a conflict.
fn propagated(cnf: &Cnf, assumed: &[Lit]) -> Option<Vec<Option<bool>>> {
    let mut value = vec![None; cnf.num_vars];
    for &a in assumed {
        value[a.var().index()] = Some(a.is_positive());
    }
    loop {
        let mut changed = false;
        for clause in &cnf.clauses {
            let mut free = clause
                .iter()
                .filter(|l| value[l.var().index()] != Some(!l.is_positive()));
            match (free.next(), free.next()) {
                (None, _) => return None,
                (Some(&l), None) if value[l.var().index()].is_none() => {
                    value[l.var().index()] = Some(l.is_positive());
                    changed = true;
                }
                _ => {}
            }
        }
        if !changed {
            return Some(value);
        }
    }
}

/// One step of an incremental session: `kind` picks the operation and
/// `lits` (variable, polarity) its literals, mapped onto the variables
/// that exist at that point.
type Step = (u8, Vec<(usize, bool)>);

/// Replays `steps` on one solver whose queries mostly share their first
/// assumption `first`, so the solver keeps that assumption's decision
/// level between them, and checks every answer against the reference:
/// SAT/UNSAT agree, every model satisfies every clause added so far, and
/// every core is a subset of the assumptions that is UNSAT on its own.
fn replay_against_reference(cnf: &Cnf, first: Lit, steps: &[Step]) {
    const MAX_VARS: usize = 12;
    let mut solver = Solver::new();
    solver.new_vars(cnf.num_vars);
    let mut added = Cnf::new(cnf.num_vars);
    for clause in &cnf.clauses {
        solver.add_clause(clause.iter().copied());
        added.add_clause(clause.iter().copied());
    }
    for (kind, raw) in steps {
        let lit = |&(v, pos): &(usize, bool)| Lit::new(Var::from_index(v % added.num_vars), pos);
        match kind % 6 {
            0 if added.num_vars < MAX_VARS => {
                solver.new_var();
                added.num_vars += 1;
            }
            1 | 2 => {
                // A random clause, half of them over the first
                // assumption's variable: unit, satisfied or conflicting
                // under the kept level as chance has it.
                let mut clause: Vec<Lit> = raw.iter().map(lit).collect();
                if kind % 6 == 2 {
                    clause.push(Lit::new(first.var(), raw.len() % 2 == 0));
                }
                solver.add_clause(clause.iter().copied());
                added.add_clause(clause);
            }
            3 => {
                // A clause over literals the kept level (unit propagation
                // from `first`) makes true: falsified outright, unit, or
                // satisfied only at that level.
                let (Some(root), Some(kept)) =
                    (propagated(&added, &[]), propagated(&added, &[first]))
                else {
                    continue;
                };
                let on_kept: Vec<Lit> = (0..added.num_vars)
                    .filter(|&v| root[v].is_none())
                    .filter_map(|v| kept[v].map(|value| Lit::new(Var::from_index(v), value)))
                    .collect();
                if on_kept.is_empty() {
                    continue;
                }
                let pick = |v: usize| on_kept[v % on_kept.len()];
                let mut clause: Vec<Lit> = raw.iter().map(|&(v, _)| !pick(v)).collect();
                match raw.len() % 3 {
                    0 => {}
                    1 => clause.extend(
                        (0..added.num_vars)
                            .find(|&v| kept[v].is_none())
                            .map(|v| Lit::new(Var::from_index(v), raw[0].1)),
                    ),
                    _ => clause.push(pick(raw[0].0 + 1)),
                }
                solver.add_clause(clause.iter().copied());
                added.add_clause(clause);
            }
            kind => {
                // Queries share `first` (kind 4) or start elsewhere
                // (kind 5), which drops the kept level.
                let mut assumptions = Vec::new();
                if kind == 4 {
                    assumptions.push(first);
                }
                for l in raw.iter().map(lit) {
                    if assumptions.iter().all(|a: &Lit| a.var() != l.var()) {
                        assumptions.push(l);
                    }
                }
                let mut strengthened = added.clone();
                for &a in &assumptions {
                    strengthened.add_clause([a]);
                }
                let oracle = brute_force(&strengthened);
                let result = solver.solve_with(&assumptions);
                assert_eq!(
                    result == SolveResult::Sat,
                    oracle.is_some(),
                    "answer under {assumptions:?}"
                );
                if result == SolveResult::Sat {
                    let model = solver.model().expect("model on SAT");
                    assert!(evaluate(&added, &model), "model violates a clause");
                    assert!(
                        assumptions
                            .iter()
                            .all(|a| model[a.var().index()] == a.is_positive()),
                        "model violates an assumption"
                    );
                } else {
                    let core = solver.unsat_core().to_vec();
                    assert!(
                        core.iter().all(|l| assumptions.contains(l)),
                        "core {core:?} is not within {assumptions:?}"
                    );
                    let mut alone = added.clone();
                    for &l in &core {
                        alone.add_clause([l]);
                    }
                    assert!(
                        brute_force(&alone).is_none(),
                        "core {core:?} is satisfiable"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn kept_first_assumption_level_agrees_with_reference(
        cnf in arb_cnf(8, 20),
        first in (0..8usize, any::<bool>()),
        steps in prop::collection::vec(
            (0u8..6, prop::collection::vec((0..12usize, any::<bool>()), 1..=4)),
            1..=16,
        ),
    ) {
        let first = Lit::new(Var::from_index(first.0), first.1);
        replay_against_reference(&cnf, first, &steps);
    }
}
