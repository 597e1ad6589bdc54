//! Pebbling strategies: sequences of moves, their validation and their
//! cost metrics.
//!
//! A [`Strategy`] is a sequence of [`Step`]s starting from the empty
//! configuration. Each step performs one move (sequential semantics, as in
//! the paper's Definition 3) or several simultaneous moves (parallel
//! semantics, which the SAT encoding of Section III naturally admits).
//! Validity is checked by [`Strategy::validate`] against the game rules:
//!
//! 1. the initial configuration is empty;
//! 2. a node may be pebbled/unpebbled only if all its children are pebbled
//!    both before and after the step;
//! 3. the final configuration is exactly the set of outputs;
//! 4. at no time are more than `P` pebbles (or weight) in use.

use std::collections::BTreeMap;
use std::fmt;

use revpebble_graph::{Dag, NodeId, Op};

use crate::config::PebbleConfig;

/// A single pebbling move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Move {
    /// Place a pebble on the node (compute its value).
    Pebble(NodeId),
    /// Remove the pebble from the node (uncompute its value).
    Unpebble(NodeId),
}

impl Move {
    /// The node the move touches.
    pub fn node(self) -> NodeId {
        match self {
            Move::Pebble(n) | Move::Unpebble(n) => n,
        }
    }

    /// `true` for [`Move::Pebble`].
    pub fn is_pebble(self) -> bool {
        matches!(self, Move::Pebble(_))
    }
}

impl fmt::Display for Move {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Move::Pebble(n) => write!(f, "+{n}"),
            Move::Unpebble(n) => write!(f, "-{n}"),
        }
    }
}

/// One step of a strategy: the moves applied simultaneously.
pub type Step = Vec<Move>;

/// Why a strategy is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvalidStrategy {
    /// A step contains no moves.
    EmptyStep {
        /// Index of the offending step.
        step: usize,
    },
    /// A step touches the same node twice.
    DuplicateNode {
        /// Index of the offending step.
        step: usize,
        /// The node touched twice.
        node: NodeId,
    },
    /// Pebbling a node that is already pebbled (or unpebbling an empty one).
    WrongState {
        /// Index of the offending step.
        step: usize,
        /// The offending move.
        mv: Move,
    },
    /// A move whose node has an unpebbled child.
    ChildNotPebbled {
        /// Index of the offending step.
        step: usize,
        /// The offending move.
        mv: Move,
        /// The unpebbled child.
        child: NodeId,
    },
    /// The pebble (or weight) limit is exceeded after some step.
    TooManyPebbles {
        /// Index of the step after which the limit is exceeded.
        step: usize,
        /// Pebbles (or weight) in use.
        used: u64,
        /// The limit.
        limit: u64,
    },
    /// The final configuration is not exactly the output set.
    WrongFinalConfig,
}

impl fmt::Display for InvalidStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidStrategy::EmptyStep { step } => write!(f, "step {step} performs no move"),
            InvalidStrategy::DuplicateNode { step, node } => {
                write!(f, "step {step} touches {node} twice")
            }
            InvalidStrategy::WrongState { step, mv } => {
                write!(f, "step {step}: move {mv} does not match the pebble state")
            }
            InvalidStrategy::ChildNotPebbled { step, mv, child } => {
                write!(
                    f,
                    "step {step}: move {mv} requires child {child} to be pebbled"
                )
            }
            InvalidStrategy::TooManyPebbles { step, used, limit } => {
                write!(f, "after step {step}: {used} pebbles in use, limit {limit}")
            }
            InvalidStrategy::WrongFinalConfig => {
                write!(f, "final configuration is not exactly the output set")
            }
        }
    }
}

impl std::error::Error for InvalidStrategy {}

/// A pebbling strategy (Definition 3 in the paper).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Strategy {
    steps: Vec<Step>,
}

impl Strategy {
    /// Creates a strategy from explicit steps.
    pub fn from_steps(steps: Vec<Step>) -> Self {
        Strategy { steps }
    }

    /// Creates a strategy with one move per step.
    pub fn from_moves(moves: impl IntoIterator<Item = Move>) -> Self {
        Strategy {
            steps: moves.into_iter().map(|m| vec![m]).collect(),
        }
    }

    /// The steps.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Number of steps (the paper's `K` for sequential strategies).
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Total number of moves (= reversible gates executed; equals
    /// [`num_steps`](Self::num_steps) for sequential strategies).
    pub fn num_moves(&self) -> usize {
        self.steps.iter().map(Vec::len).sum()
    }

    /// `true` if every step performs exactly one move.
    pub fn is_sequential(&self) -> bool {
        self.steps.iter().all(|s| s.len() == 1)
    }

    /// Appends a step.
    pub fn push_step(&mut self, step: Step) {
        self.steps.push(step);
    }

    /// Appends a single-move step.
    pub fn push_move(&mut self, mv: Move) {
        self.steps.push(vec![mv]);
    }

    /// The sequence of configurations `P₀ = {} … P_K`, obtained by
    /// replaying the moves (without validity checking).
    ///
    /// # Panics
    ///
    /// Panics if a move references a node outside the DAG.
    pub fn configs(&self, dag: &Dag) -> Vec<PebbleConfig> {
        let mut configs = Vec::with_capacity(self.steps.len() + 1);
        let mut current = PebbleConfig::empty(dag.num_nodes());
        configs.push(current.clone());
        for step in &self.steps {
            for &mv in step {
                match mv {
                    Move::Pebble(n) => current.pebble(n),
                    Move::Unpebble(n) => current.unpebble(n),
                }
            }
            configs.push(current.clone());
        }
        configs
    }

    /// Maximum number of pebbles in use at any time.
    pub fn max_pebbles(&self, dag: &Dag) -> usize {
        self.configs(dag)
            .iter()
            .map(PebbleConfig::count)
            .max()
            .unwrap_or(0)
    }

    /// Maximum total node weight in use at any time.
    pub fn max_weight(&self, dag: &Dag) -> u64 {
        let weights: Vec<u32> = dag.node_ids().map(|n| dag.node(n).weight).collect();
        self.configs(dag)
            .iter()
            .map(|c| c.weighted_count(&weights))
            .max()
            .unwrap_or(0)
    }

    /// The number of pebbles in use after every step (the "memory dynamic"
    /// curves on top of the paper's Fig. 5 grids).
    pub fn pebble_profile(&self, dag: &Dag) -> Vec<usize> {
        self.configs(dag).iter().map(PebbleConfig::count).collect()
    }

    /// Counts executed operations per kind. Every move — pebbling *or*
    /// unpebbling — executes the node's gate once (uncomputation re-runs
    /// the same gate), so Fig. 5's per-class operation counts are exactly
    /// these numbers.
    pub fn op_counts(&self, dag: &Dag) -> BTreeMap<Op, usize> {
        let mut counts = BTreeMap::new();
        for step in &self.steps {
            for mv in step {
                *counts.entry(dag.node(mv.node()).op).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Checks validity against `dag` under an optional pebble `limit`
    /// (see the [module documentation](self) for the rules).
    ///
    /// # Errors
    ///
    /// Returns the first [`InvalidStrategy`] rule violation.
    pub fn validate(&self, dag: &Dag, limit: Option<usize>) -> Result<(), InvalidStrategy> {
        self.validate_impl(dag, limit.map(|l| l as u64), false)
    }

    /// Checks validity with the *weighted* pebble rule: at every time the
    /// total weight of pebbled nodes must not exceed `limit`.
    ///
    /// # Errors
    ///
    /// Returns the first [`InvalidStrategy`] rule violation.
    pub fn validate_weighted(&self, dag: &Dag, limit: Option<u64>) -> Result<(), InvalidStrategy> {
        self.validate_impl(dag, limit, true)
    }

    fn validate_impl(
        &self,
        dag: &Dag,
        limit: Option<u64>,
        weighted: bool,
    ) -> Result<(), InvalidStrategy> {
        let weights: Vec<u32> = dag.node_ids().map(|n| dag.node(n).weight).collect();
        let mut current = PebbleConfig::empty(dag.num_nodes());
        let check_limit = |config: &PebbleConfig, step: usize| -> Result<(), InvalidStrategy> {
            if let Some(limit) = limit {
                let used = config.cost(weighted.then_some(weights.as_slice()));
                if used > limit {
                    return Err(InvalidStrategy::TooManyPebbles { step, used, limit });
                }
            }
            Ok(())
        };
        for (i, step) in self.steps.iter().enumerate() {
            if step.is_empty() {
                return Err(InvalidStrategy::EmptyStep { step: i });
            }
            let mut touched: Vec<NodeId> = step.iter().map(|m| m.node()).collect();
            touched.sort_unstable();
            for w in touched.windows(2) {
                if w[0] == w[1] {
                    return Err(InvalidStrategy::DuplicateNode {
                        step: i,
                        node: w[0],
                    });
                }
            }
            let before = current.clone();
            for &mv in step {
                match mv {
                    Move::Pebble(n) => {
                        if before.is_pebbled(n) {
                            return Err(InvalidStrategy::WrongState { step: i, mv });
                        }
                        current.pebble(n);
                    }
                    Move::Unpebble(n) => {
                        if !before.is_pebbled(n) {
                            return Err(InvalidStrategy::WrongState { step: i, mv });
                        }
                        current.unpebble(n);
                    }
                }
            }
            // Children must be pebbled both before and after the step.
            for &mv in step {
                for child in dag.children(mv.node()) {
                    if !before.is_pebbled(child) || !current.is_pebbled(child) {
                        return Err(InvalidStrategy::ChildNotPebbled { step: i, mv, child });
                    }
                }
            }
            check_limit(&current, i)?;
        }
        if !current.equals_nodes(dag.outputs()) {
            return Err(InvalidStrategy::WrongFinalConfig);
        }
        Ok(())
    }

    /// Renders the strategy as an ASCII grid in the style of the paper's
    /// Fig. 4: one row per node (in id order), one column per step, `#`
    /// where the node is pebbled. A header row shows the pebble count per
    /// step.
    pub fn render_grid(&self, dag: &Dag) -> String {
        use std::fmt::Write as _;
        let configs = self.configs(dag);
        let name_width = dag
            .node_ids()
            .map(|n| dag.node(n).name.len())
            .max()
            .unwrap_or(1)
            .min(12);
        let mut out = String::new();
        // Memory profile header.
        let _ = write!(out, "{:>name_width$} ", "mem");
        for config in &configs {
            let count = config.count();
            let c = match count {
                0..=9 => char::from_digit(count as u32, 10).expect("single digit"),
                _ => '+',
            };
            out.push(c);
        }
        out.push('\n');
        for node in dag.node_ids() {
            let name = &dag.node(node).name;
            let display: String = name.chars().take(name_width).collect();
            let _ = write!(out, "{display:>name_width$} ");
            for config in &configs {
                out.push(if config.is_pebbled(node) { '#' } else { '.' });
            }
            if dag.is_output(node) {
                out.push_str("  (output)");
            }
            out.push('\n');
        }
        out
    }

    /// Splits parallel steps into single-move steps (a valid parallel
    /// strategy stays valid: performing simultaneous moves one at a time
    /// only requires the same children, which are untouched by the step).
    /// Unpebble moves are emitted first so the pebble peak never increases.
    pub fn sequentialize(&self) -> Strategy {
        let mut result = Strategy::default();
        for step in &self.steps {
            let (unpebbles, pebbles): (Vec<Move>, Vec<Move>) =
                step.iter().copied().partition(|m| !m.is_pebble());
            for mv in unpebbles.into_iter().chain(pebbles) {
                result.push_move(mv);
            }
        }
        result
    }

    /// The same strategy in another node numbering: every move on `v`
    /// becomes the same move on `map[v.index()]` (e.g. a map from
    /// [`Dag::isomorphism_to`]).
    ///
    /// # Panics
    ///
    /// Panics if a move references a node outside `map`.
    pub fn renumbered(&self, map: &[NodeId]) -> Strategy {
        let renumber = |mv: &Move| match *mv {
            Move::Pebble(v) => Move::Pebble(map[v.index()]),
            Move::Unpebble(v) => Move::Unpebble(map[v.index()]),
        };
        Strategy {
            steps: self
                .steps
                .iter()
                .map(|step| step.iter().map(renumber).collect())
                .collect(),
        }
    }
}

impl FromIterator<Move> for Strategy {
    fn from_iter<T: IntoIterator<Item = Move>>(iter: T) -> Self {
        Strategy::from_moves(iter)
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, step) in self.steps.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            if step.len() == 1 {
                write!(f, "{}", step[0])?;
            } else {
                write!(f, "[")?;
                for (j, mv) in step.iter().enumerate() {
                    if j > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{mv}")?;
                }
                write!(f, "]")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revpebble_graph::generators::paper_example;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    /// The Bennett strategy of the paper's Fig. 4 (left): pebble A..F,
    /// unpebble D, C, B, A. Nodes: A=0, B=1, C=2, D=3, E=4, F=5.
    fn fig4_bennett() -> Strategy {
        Strategy::from_moves([
            Move::Pebble(n(0)),
            Move::Pebble(n(1)),
            Move::Pebble(n(2)),
            Move::Pebble(n(3)),
            Move::Pebble(n(4)),
            Move::Pebble(n(5)),
            Move::Unpebble(n(3)),
            Move::Unpebble(n(2)),
            Move::Unpebble(n(1)),
            Move::Unpebble(n(0)),
        ])
    }

    /// The 4-pebble strategy of the paper's Fig. 4 (right), i.e. the
    /// configuration sequence P0..P14 of Section II-B.
    fn fig4_optimized() -> Strategy {
        Strategy::from_moves([
            Move::Pebble(n(0)),   // {A}
            Move::Pebble(n(2)),   // {A,C}
            Move::Unpebble(n(0)), // {C}
            Move::Pebble(n(1)),   // {B,C}
            Move::Pebble(n(3)),   // {B,C,D}
            Move::Unpebble(n(1)), // {C,D}
            Move::Pebble(n(4)),   // {C,D,E}
            Move::Pebble(n(0)),   // {A,C,D,E}
            Move::Unpebble(n(2)), // {A,D,E}
            Move::Pebble(n(5)),   // {A,D,E,F}
            Move::Unpebble(n(0)), // {D,E,F}
            Move::Pebble(n(1)),   // {B,D,E,F}
            Move::Unpebble(n(3)), // {B,E,F}
            Move::Unpebble(n(1)), // {E,F}
        ])
    }

    #[test]
    fn fig4_bennett_is_valid_with_6_pebbles_10_steps() {
        let dag = paper_example();
        let strategy = fig4_bennett();
        strategy.validate(&dag, Some(6)).expect("valid");
        assert_eq!(strategy.num_steps(), 10);
        assert_eq!(strategy.max_pebbles(&dag), 6);
        // 5 pebbles are not enough for this strategy.
        assert!(matches!(
            strategy.validate(&dag, Some(5)),
            Err(InvalidStrategy::TooManyPebbles { .. })
        ));
    }

    #[test]
    fn fig4_optimized_is_valid_with_4_pebbles_14_steps() {
        let dag = paper_example();
        let strategy = fig4_optimized();
        strategy.validate(&dag, Some(4)).expect("valid");
        assert_eq!(strategy.num_steps(), 14);
        assert_eq!(strategy.max_pebbles(&dag), 4);
    }

    #[test]
    fn configs_match_paper_sequence() {
        let dag = paper_example();
        let configs = fig4_optimized().configs(&dag);
        assert_eq!(configs.len(), 15);
        assert!(configs[0].is_empty());
        assert!(configs[3].equals_nodes(&[n(2)])); // P3 = {C}
        assert!(configs[8].equals_nodes(&[n(0), n(2), n(3), n(4)])); // P8 = {A,C,D,E}
        assert!(configs[14].equals_nodes(&[n(4), n(5)])); // P14 = {E,F}
    }

    #[test]
    fn pebbling_without_children_is_rejected() {
        let dag = paper_example();
        // E requires C and D.
        let bad = Strategy::from_moves([Move::Pebble(n(4))]);
        assert!(matches!(
            bad.validate(&dag, None),
            Err(InvalidStrategy::ChildNotPebbled { .. })
        ));
    }

    #[test]
    fn wrong_state_is_rejected() {
        let dag = paper_example();
        let double = Strategy::from_moves([Move::Pebble(n(0)), Move::Pebble(n(0))]);
        assert!(matches!(
            double.validate(&dag, None),
            Err(InvalidStrategy::WrongState { step: 1, .. })
        ));
        let phantom = Strategy::from_moves([Move::Unpebble(n(0))]);
        assert!(matches!(
            phantom.validate(&dag, None),
            Err(InvalidStrategy::WrongState { step: 0, .. })
        ));
    }

    #[test]
    fn incomplete_final_config_is_rejected() {
        let dag = paper_example();
        let partial = Strategy::from_moves([Move::Pebble(n(0))]);
        assert!(matches!(
            partial.validate(&dag, None),
            Err(InvalidStrategy::WrongFinalConfig)
        ));
    }

    #[test]
    fn empty_and_duplicate_steps_are_rejected() {
        let dag = paper_example();
        let empty = Strategy::from_steps(vec![vec![]]);
        assert!(matches!(
            empty.validate(&dag, None),
            Err(InvalidStrategy::EmptyStep { step: 0 })
        ));
        let dup = Strategy::from_steps(vec![vec![Move::Pebble(n(0)), Move::Unpebble(n(0))]]);
        assert!(matches!(
            dup.validate(&dag, None),
            Err(InvalidStrategy::DuplicateNode { .. })
        ));
    }

    #[test]
    fn parallel_step_child_rule() {
        let dag = paper_example();
        // Pebbling A and C simultaneously is illegal: C's child A is not
        // pebbled before the step.
        let bad = Strategy::from_steps(vec![vec![Move::Pebble(n(0)), Move::Pebble(n(2))]]);
        assert!(matches!(
            bad.validate(&dag, None),
            Err(InvalidStrategy::ChildNotPebbled { .. })
        ));
        // Pebbling A and B simultaneously is fine (both have no children).
        let mut good = Strategy::from_steps(vec![vec![Move::Pebble(n(0)), Move::Pebble(n(1))]]);
        good.push_move(Move::Pebble(n(2)));
        good.push_move(Move::Pebble(n(3)));
        good.push_step(vec![Move::Pebble(n(4)), Move::Pebble(n(5))]);
        good.push_step(vec![Move::Unpebble(n(2)), Move::Unpebble(n(3))]);
        good.push_step(vec![Move::Unpebble(n(0)), Move::Unpebble(n(1))]);
        good.validate(&dag, None).expect("valid parallel strategy");
        assert!(!good.is_sequential());
        // Its sequentialization is also valid and has one move per step.
        let seq = good.sequentialize();
        assert!(seq.is_sequential());
        seq.validate(&dag, None).expect("valid sequential strategy");
        assert_eq!(seq.num_moves(), good.num_moves());
        // Unpebble-first sequentialization never increases the peak.
        assert!(seq.max_pebbles(&dag) <= good.max_pebbles(&dag));
    }

    #[test]
    fn op_counts_count_uncomputation() {
        let dag = paper_example();
        let counts = fig4_bennett().op_counts(&dag);
        // 6 pebbles + 4 unpebbles, all opaque ops.
        assert_eq!(counts[&Op::Opaque], 10);
    }

    #[test]
    fn profile_tracks_memory() {
        let dag = paper_example();
        let profile = fig4_optimized().pebble_profile(&dag);
        assert_eq!(profile.len(), 15);
        assert_eq!(profile[0], 0);
        assert_eq!(*profile.iter().max().expect("nonempty"), 4);
        assert_eq!(profile[14], 2);
    }

    #[test]
    fn render_grid_shape() {
        let dag = paper_example();
        let grid = fig4_bennett().render_grid(&dag);
        let lines: Vec<&str> = grid.lines().collect();
        assert_eq!(lines.len(), 7); // mem header + 6 nodes
        assert!(lines[1].contains('#'));
        assert!(grid.contains("(output)"));
    }

    #[test]
    fn weighted_validation() {
        use revpebble_graph::{Dag, Op};
        let mut dag = Dag::new();
        let x = dag.add_input("x");
        let a = dag.add_node_weighted("a", Op::Buf, [x], 3).expect("valid");
        let b = dag
            .add_node_weighted("b", Op::Buf, [a.into()], 2)
            .expect("valid");
        dag.mark_output(b);
        let strategy =
            Strategy::from_moves([Move::Pebble(n(0)), Move::Pebble(n(1)), Move::Unpebble(n(0))]);
        strategy
            .validate_weighted(&dag, Some(5))
            .expect("weight 5 ok");
        assert!(matches!(
            strategy.validate_weighted(&dag, Some(4)),
            Err(InvalidStrategy::TooManyPebbles { used: 5, .. })
        ));
        assert_eq!(strategy.max_weight(&dag), 5);
    }
}
