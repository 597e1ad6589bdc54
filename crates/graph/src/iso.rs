//! Node matching between isomorphic pebbling instances.
//!
//! [`Dag::canonical_fingerprint`] lets a result cache recognize that two
//! DAGs pose the same pebbling problem; [`Dag::isomorphism_to`] then says
//! which node of one plays which node's part in the other, so an answer
//! found in one numbering can be replayed in the other.
//!
//! The match starts from the fingerprint's per-node Merkle hashes, which
//! only see a node's fanin cone, and refines them with the colors of the
//! node's consumers until the partition is stable (color refinement
//! over children and parents). Nodes still tied after that are matched
//! by individualization: one node of a tied class is paired with a
//! candidate, and refinement runs again. There is no deep backtracking,
//! so a tie refinement cannot tell apart may end in `None`; the final
//! map is checked edge by edge, so a `Some` is always a true
//! isomorphism.

use std::collections::HashMap;

use crate::dag::{splitmix64, Dag, NodeId};

/// Salt of the Merkle hashes the match starts from.
const SEED_SALT: u64 = 0x6A09_E667_F3BC_C908;
/// Separates the children block from the parents block in a refined
/// color.
const PARENTS_MARK: u64 = 0xBB67_AE85_84CA_A73B;
/// Recolors an individualized node.
const INDIVIDUAL_MARK: u64 = 0x3C6E_F372_FE94_F82B;

/// One side of the match: a DAG's adjacency by node index, and its
/// current node colors.
struct Side {
    children: Vec<Vec<usize>>,
    parents: Vec<Vec<usize>>,
    colors: Vec<u64>,
}

impl Side {
    fn new(dag: &Dag) -> Side {
        let children: Vec<Vec<usize>> = dag
            .node_ids()
            .map(|id| dag.children(id).map(NodeId::index).collect())
            .collect();
        let mut parents = vec![Vec::new(); children.len()];
        for (node, kids) in children.iter().enumerate() {
            for &child in kids {
                parents[child].push(node);
            }
        }
        Side {
            children,
            parents,
            colors: dag.merkle_hashes(SEED_SALT),
        }
    }

    /// One refinement round: a node's new color hashes its own color
    /// with the sorted colors of its children and of its parents.
    fn refine_round(&mut self) {
        let colors = &self.colors;
        let mix = |h: u64, neighbours: &[usize]| {
            let mut seen: Vec<u64> = neighbours.iter().map(|&n| colors[n]).collect();
            seen.sort_unstable();
            seen.into_iter().fold(h, |h, c| splitmix64(h ^ c))
        };
        self.colors = (0..colors.len())
            .map(|node| {
                let h = mix(colors[node], &self.children[node]);
                mix(splitmix64(h ^ PARENTS_MARK), &self.parents[node])
            })
            .collect();
    }

    fn sorted_colors(&self) -> Vec<u64> {
        let mut sorted = self.colors.clone();
        sorted.sort_unstable();
        sorted
    }
}

fn distinct(sorted: &[u64]) -> usize {
    sorted.windows(2).filter(|pair| pair[0] != pair[1]).count() + usize::from(!sorted.is_empty())
}

/// Refines both sides in lockstep until the partition stops splitting.
/// `false` when the sides' color multisets diverge: under the current
/// individualization they cannot be matched.
fn refine(from: &mut Side, to: &mut Side) -> bool {
    let mut sorted = from.sorted_colors();
    if sorted != to.sorted_colors() {
        return false;
    }
    let mut classes = distinct(&sorted);
    loop {
        from.refine_round();
        to.refine_round();
        sorted = from.sorted_colors();
        if sorted != to.sorted_colors() {
            return false;
        }
        // Refinement only ever splits classes, so an unchanged count
        // means an unchanged partition.
        let now = distinct(&sorted);
        if now == classes {
            return true;
        }
        classes = now;
    }
}

/// The smallest tied color class (ties broken by color), if any.
fn smallest_tie(sorted: &[u64]) -> Option<u64> {
    sorted
        .chunk_by(|a, b| a == b)
        .filter(|class| class.len() > 1)
        .min_by_key(|class| (class.len(), class[0]))
        .map(|class| class[0])
}

impl Dag {
    /// A pebbling isomorphism from `self` onto `other`: `map[v.index()]`
    /// is the node of `other` that plays `v`'s part, with the same
    /// weight, the same output mark, and children that map onto its
    /// children (primary-input fanins are ignored, as in
    /// [`canonical_fingerprint`](Self::canonical_fingerprint)). A
    /// strategy for `self` renumbered through `map` is a strategy for
    /// `other` with the same cost.
    ///
    /// `None` when the DAGs are not isomorphic, and also in the rare
    /// case that color refinement with one-level individualization
    /// cannot find the match; a returned map is always verified.
    pub fn isomorphism_to(&self, other: &Dag) -> Option<Vec<NodeId>> {
        if self.num_nodes() != other.num_nodes() {
            return None;
        }
        let mut from = Side::new(self);
        let mut to = Side::new(other);
        if !refine(&mut from, &mut to) {
            return None;
        }
        // Each individualization settles at least one node; a few
        // rejected candidates per node are allowed on top.
        let mut budget = 4 * self.num_nodes() + 16;
        while let Some(color) = smallest_tie(&from.sorted_colors()) {
            let node = from.colors.iter().position(|&c| c == color)?;
            let marked = splitmix64(color ^ INDIVIDUAL_MARK);
            let candidates: Vec<usize> = (0..to.colors.len())
                .filter(|&v| to.colors[v] == color)
                .collect();
            let (from_before, to_before) = (from.colors.clone(), to.colors.clone());
            let mut matched = false;
            for candidate in candidates {
                if budget == 0 {
                    return None;
                }
                budget -= 1;
                from.colors[node] = marked;
                to.colors[candidate] = marked;
                if refine(&mut from, &mut to) {
                    matched = true;
                    break;
                }
                from.colors.clone_from(&from_before);
                to.colors.clone_from(&to_before);
            }
            if !matched {
                return None;
            }
        }
        let position: HashMap<u64, usize> = to
            .colors
            .iter()
            .enumerate()
            .map(|(node, &color)| (color, node))
            .collect();
        let map: Vec<NodeId> = from
            .colors
            .iter()
            .map(|color| position.get(color).map(|&node| NodeId::from_index(node)))
            .collect::<Option<_>>()?;
        self.is_isomorphism(other, &map).then_some(map)
    }

    /// `true` when `map` is a pebbling isomorphism from `self` onto
    /// `other` (see [`isomorphism_to`](Self::isomorphism_to)).
    fn is_isomorphism(&self, other: &Dag, map: &[NodeId]) -> bool {
        let mut hit = vec![false; other.num_nodes()];
        self.node_ids().all(|id| {
            let image = map[id.index()];
            let mut mapped: Vec<usize> =
                self.children(id).map(|c| map[c.index()].index()).collect();
            let mut expected: Vec<usize> = other.children(image).map(NodeId::index).collect();
            mapped.sort_unstable();
            expected.sort_unstable();
            !std::mem::replace(&mut hit[image.index()], true)
                && self.node(id).weight == other.node(image).weight
                && self.is_output(id) == other.is_output(image)
                && mapped == expected
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::generators::{paper_example, random_dag};
    use crate::{Dag, NodeId, Op, Source};

    /// `dag` with its nodes renumbered along the reverse of `dag`'s
    /// topological order where possible: every node is re-added as soon
    /// as its children are, picking the highest-numbered ready node.
    fn renumbered(dag: &Dag) -> Dag {
        let n = dag.num_nodes();
        let mut new_id: Vec<Option<NodeId>> = vec![None; n];
        let mut out = Dag::new();
        for name in dag.input_names() {
            out.add_input(name.clone());
        }
        while new_id.iter().any(Option::is_none) {
            let next = dag
                .node_ids()
                .rev()
                .find(|&v| {
                    new_id[v.index()].is_none()
                        && dag.children(v).all(|c| new_id[c.index()].is_some())
                })
                .expect("a DAG always has a ready node");
            let node = dag.node(next);
            let fanins: Vec<Source> = node
                .fanins
                .iter()
                .map(|s| match s {
                    Source::Node(c) => Source::Node(new_id[c.index()].expect("ready")),
                    input => *input,
                })
                .collect();
            let id = out
                .add_node_weighted(node.name.clone(), node.op, fanins, node.weight)
                .expect("valid");
            new_id[next.index()] = Some(id);
        }
        for &o in dag.outputs() {
            out.mark_output(new_id[o.index()].expect("mapped"));
        }
        out
    }

    #[test]
    fn renumbered_copies_match_onto_each_other() {
        for seed in 0..40 {
            let dag = random_dag(3, 10, seed);
            let copy = renumbered(&dag);
            let map = dag.isomorphism_to(&copy).expect("isomorphic");
            assert!(dag.is_isomorphism(&copy, &map), "seed {seed}");
        }
        let dag = paper_example();
        let copy = renumbered(&dag);
        assert!(dag.isomorphism_to(&copy).is_some());
    }

    #[test]
    fn symmetric_leaves_are_matched_consistently() {
        // Two AND pairs under one root: every leaf looks alike bottom-up,
        // and only a consistent choice keeps each leaf under its parent.
        let mut dag = Dag::new();
        let x = dag.add_input("x");
        let leaves: Vec<NodeId> = (0..4)
            .map(|i| dag.add_node(format!("l{i}"), Op::Buf, [x]).expect("valid"))
            .collect();
        let left = dag
            .add_node("p0", Op::And, [leaves[0].into(), leaves[2].into()])
            .expect("valid");
        let right = dag
            .add_node("p1", Op::And, [leaves[1].into(), leaves[3].into()])
            .expect("valid");
        let root = dag
            .add_node("r", Op::And, [left.into(), right.into()])
            .expect("valid");
        dag.mark_output(root);
        let copy = renumbered(&dag);
        let map = dag.isomorphism_to(&copy).expect("isomorphic");
        assert!(dag.is_isomorphism(&copy, &map));
    }

    #[test]
    fn non_isomorphic_dags_with_equal_fingerprints_do_not_match() {
        // Both DAGs have two leaves and two one-child outputs; in `a`
        // each output reads its own leaf, in `b` both read the same one.
        // Per-node cone hashes (and so fingerprints) agree, the
        // structures do not.
        let build = |shared: bool| {
            let mut dag = Dag::new();
            let x = dag.add_input("x");
            let l0 = dag.add_node("l0", Op::Buf, [x]).expect("valid");
            let l1 = dag.add_node("l1", Op::Buf, [x]).expect("valid");
            let second = if shared { l0 } else { l1 };
            let o0 = dag.add_node("o0", Op::Buf, [l0.into()]).expect("valid");
            let o1 = dag.add_node("o1", Op::Buf, [second.into()]).expect("valid");
            dag.mark_output(o0);
            dag.mark_output(o1);
            dag
        };
        let (a, b) = (build(false), build(true));
        assert_eq!(a.canonical_fingerprint(), b.canonical_fingerprint());
        assert!(a.isomorphism_to(&b).is_none());
        assert!(b.isomorphism_to(&a).is_none());
    }

    #[test]
    fn size_weight_and_output_differences_do_not_match() {
        let base = paper_example();
        let mut marked = base.clone();
        marked.mark_output(NodeId::from_index(0));
        assert!(base.isomorphism_to(&marked).is_none());
        assert!(base.isomorphism_to(&random_dag(3, 7, 1)).is_none());
    }
}
