//! Seeded input generation: DAG instances with their oracle answers, the
//! isomorphic node-reordered copies the `serve` workload replays, and the
//! request frames sent over the wire. Everything here is a pure function
//! of the workload seed, so the same seed gives byte-identical inputs.

use std::collections::HashSet;

use revpebble_core::bounds::pebble_lower_bound;
use revpebble_core::exact_min_pebbles;
use revpebble_graph::generators::random_dag;
use revpebble_graph::{Dag, NodeId, Source};
use revpebble_serve::Request;

/// Primary inputs of every generated DAG. Inputs are never pebbled, so
/// they only shape which nodes share fanins.
pub const INPUTS: usize = 3;
/// `fixed` instance size: large enough that SAT search is the work,
/// small enough that no single draw dominates a run.
pub const FIXED_NODES: usize = 10;
/// DAGs in the `fixed` corpus.
pub const FIXED_CORPUS: usize = 400;
/// Passes over the `fixed` corpus in one run's input pool.
pub const FIXED_PASSES: usize = 8;
/// `minimize` instance size.
pub const MINIMIZE_NODES: usize = 9;
/// DAGs in the `minimize` corpus.
pub const MINIMIZE_CORPUS: usize = 100;
/// Passes over the `minimize` corpus in one run's input pool.
pub const MINIMIZE_PASSES: usize = 2;
/// Step cap of every `minimize` session (the refutation walk is
/// quadratic in it).
pub const MINIMIZE_MAX_STEPS: usize = 300;
/// DAGs of the `fixed` corpus the `serve` cold requests cycle through:
/// more than the daemon's 256 cached results, so a recurring DAG has
/// been evicted.
pub const SERVE_CORPUS: usize = 300;
/// Passes over the `serve` corpus in one run's scripts.
pub const SERVE_PASSES: usize = 4;
/// Each client repeats one cold request and then this many warm ones.
pub const WARM_PER_COLD: usize = 3;
/// Warm requests copy one of the client's last this-many cold DAGs, so
/// every copy is still cached (the daemon's cache holds 256 results).
pub const WARM_WINDOW: usize = 8;

/// SplitMix64: a tiny, fully specified generator, so inputs do not
/// depend on any library's sampling algorithm.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for sub-stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One generated DAG with its oracle answer.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Position in the generated pool (the operation id prefix).
    pub id: usize,
    /// The DAG as the program receives it.
    pub dag: Dag,
    /// `exact_min_pebbles(dag)`: the exhaustive oracle's minimum.
    pub min: usize,
}

fn instance(id: usize, dag: Dag) -> Instance {
    let min = exact_min_pebbles(&dag);
    Instance { id, dag, min }
}

/// Seed of the DAG corpora every workload draws from. A corpus is the
/// same in every run; the workload seed picks the order a run visits it
/// in and, for `fixed`, a node renumbering of every DAG.
/// Random DAGs differ in difficulty by orders of magnitude, so a corpus
/// drawn afresh per seed would make the slowest few draws, and with them
/// the tail and the throughput, differ between runs by more than any
/// useful regression bound.
const CORPUS_SEED: u64 = 0x5EED_C0DE;

/// `passes` passes over the corpus as seen through the workload seed:
/// one seeded visiting order and, with `renumber`, every DAG renumbered
/// afresh in every pass. A renumbered copy is isomorphic to its corpus
/// DAG, so it shares the corpus DAG's oracle answer. Keeping the order
/// fixed across passes means a corpus DAG recurs only a whole corpus
/// later.
fn presented(corpus: &[Instance], seed: u64, passes: usize, renumber: bool) -> Vec<Instance> {
    let mut rng = Rng::new(seed, 3);
    let mut order: Vec<usize> = (0..corpus.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut pool = Vec::with_capacity(passes * corpus.len());
    for _ in 0..passes {
        for &index in &order {
            let source = &corpus[index];
            pool.push(Instance {
                id: pool.len(),
                dag: renumber
                    .then(|| reorder(&source.dag, &mut rng))
                    .flatten()
                    .unwrap_or_else(|| source.dag.clone()),
                min: source.min,
            });
        }
    }
    pool
}

/// The `fixed` corpus: [`FIXED_CORPUS`] DAGs with distinct
/// `canonical_fingerprint`s, so a `serve` request for one corpus DAG
/// never hits the cache entry of another.
fn fixed_corpus() -> Vec<Instance> {
    let mut rng = Rng::new(CORPUS_SEED, 1);
    let mut seen = HashSet::new();
    let mut corpus = Vec::with_capacity(FIXED_CORPUS);
    while corpus.len() < FIXED_CORPUS {
        let dag = random_dag(INPUTS, FIXED_NODES, rng.next_u64());
        if seen.insert(dag.canonical_fingerprint()) {
            corpus.push(instance(corpus.len(), dag));
        }
    }
    corpus
}

/// [`FIXED_PASSES`] passes over the `fixed` corpus, as seen through
/// `seed`.
pub fn fixed_pool(seed: u64) -> Vec<Instance> {
    presented(&fixed_corpus(), seed, FIXED_PASSES, true)
}

/// [`MINIMIZE_PASSES`] passes over the `minimize` corpus of
/// [`MINIMIZE_CORPUS`] DAGs, as seen through `seed`. A draw enters the
/// corpus only when its structural lower bound is its output count and
/// its oracle minimum is one above that bound. Certifying the minimum
/// then takes exactly one refutation walk over the whole step range, so
/// every operation does the same kind of work. Draws that end at the
/// bound take milliseconds, draws two above it walk twice, and draws
/// bounded by fan-in walk slower; each forms a mode of its own, and the
/// median of a mixed corpus sits between modes. The DAGs keep their
/// numbering: a walk's length changes so much with it that renumbering
/// moved the tail from run to run by 29 %.
pub fn minimize_pool(seed: u64) -> Vec<Instance> {
    let mut rng = Rng::new(CORPUS_SEED, 2);
    let mut corpus = Vec::with_capacity(MINIMIZE_CORPUS);
    while corpus.len() < MINIMIZE_CORPUS {
        let candidate = instance(
            corpus.len(),
            random_dag(INPUTS, MINIMIZE_NODES, rng.next_u64()),
        );
        if one_walk(&candidate) {
            corpus.push(candidate);
        }
    }
    presented(&corpus, seed, MINIMIZE_PASSES, false)
}

/// The `minimize` corpus filter (see [`minimize_pool`]).
fn one_walk(instance: &Instance) -> bool {
    let bound = pebble_lower_bound(&instance.dag);
    bound == instance.dag.num_outputs() && instance.min == bound + 1
}

/// An isomorphic copy of `dag` with its nodes renumbered along a random
/// topological order (names, operations and weights travel with their
/// nodes). `None` when the draw kept every node in place.
pub fn reorder(dag: &Dag, rng: &mut Rng) -> Option<Dag> {
    let n = dag.num_nodes();
    let mut missing: Vec<usize> = dag.node_ids().map(|v| dag.children(v).count()).collect();
    let fanouts = dag.fanouts();
    let mut ready: Vec<NodeId> = dag.node_ids().filter(|v| missing[v.index()] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while !ready.is_empty() {
        let v = ready.swap_remove(rng.below(ready.len()));
        order.push(v);
        for &w in &fanouts[v.index()] {
            missing[w.index()] -= 1;
            if missing[w.index()] == 0 {
                ready.push(w);
            }
        }
    }
    if order.iter().enumerate().all(|(i, v)| v.index() == i) {
        return None;
    }
    let mut copy = Dag::new();
    let inputs: Vec<Source> = dag
        .input_names()
        .iter()
        .map(|name| copy.add_input(name.clone()))
        .collect();
    let mut renamed = vec![None; n];
    for &v in &order {
        let node = dag.node(v);
        let fanins = node.fanins.iter().map(|&source| match source {
            Source::Input(i) => inputs[i.index()],
            Source::Node(c) => Source::Node(renamed[c.index()].expect("topological order")),
        });
        let id = copy
            .add_node_weighted(node.name.clone(), node.op, fanins, node.weight)
            .expect("a copy of a valid node is valid");
        renamed[v.index()] = Some(id);
    }
    for &output in dag.outputs() {
        copy.mark_output(renamed[output.index()].expect("every node is placed"));
    }
    Some(copy)
}

/// One request of a wire script.
#[derive(Debug, Clone)]
pub struct WireRequest {
    /// The frame line sent to the daemon.
    pub frame: String,
    /// The DAG the frame describes, numbered as the daemon will number it.
    pub dag: Dag,
    /// The oracle minimum the answer must match.
    pub min: usize,
    /// `true` for a reordered copy of an earlier cold request.
    pub warm: bool,
    /// The unit a timed run measures whole: the corpus pass (`serve`) or
    /// the instance (traced scripts).
    pub pass: usize,
}

/// What a wire request asks the daemon to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ask {
    /// A clean-up strategy at the oracle's minimum budget.
    Fixed,
    /// The fewest pebbles, under the `minimize` workload's step cap.
    Minimize,
}

/// The request frame for `dag`.
pub fn frame(name: String, dag: &Dag, min: usize, ask: Ask) -> String {
    let mut request = Request::inline(name, dag.clone());
    match ask {
        Ask::Fixed => request.pebbles = Some(min),
        Ask::Minimize => {
            request.minimize = true;
            request.max_steps = Some(MINIMIZE_MAX_STEPS);
        }
    }
    request.to_json()
}

/// The `serve` scripts, one per client. Each client repeats one cold
/// request then [`WARM_PER_COLD`] warm ones.
/// - Cold: the client's next DAG of the first [`SERVE_CORPUS`] DAGs of
///   the `fixed` corpus, in the seed's order (clients take turns), at
///   its oracle minimum. Cold DAGs keep their corpus numbering: a tail
///   set by a handful of slow solves otherwise moved with the
///   renumbering. A corpus DAG recurs only a whole corpus of cache
///   inserts later, after the daemon's 256-entry cache has evicted it,
///   so every cold request misses.
/// - Warm: a renumbered copy of one of the client's last
///   [`WARM_WINDOW`] cold DAGs, still cached.
///
/// DAGs with a single topological order are skipped, so every warm copy
/// really renumbers its nodes. Each request is tagged with the corpus
/// pass its cold DAG came from.
pub fn serve_scripts(seed: u64, clients: usize) -> Vec<Vec<WireRequest>> {
    let pool = presented(&fixed_corpus()[..SERVE_CORPUS], seed, SERVE_PASSES, false);
    (0..clients)
        .map(|client| {
            let mut rng = Rng::new(seed, 100 + client as u64);
            let colds = pool
                .iter()
                .skip(client)
                .step_by(clients)
                .filter(|instance| !single_order(&instance.dag));
            let mut recent: Vec<&Instance> = Vec::new();
            let mut script = Vec::new();
            for source in colds {
                let pass = source.id / SERVE_CORPUS;
                let name = format!("c{client}-{}", script.len());
                script.push(WireRequest {
                    frame: frame(name, &source.dag, source.min, Ask::Fixed),
                    dag: source.dag.clone(),
                    min: source.min,
                    warm: false,
                    pass,
                });
                recent.push(source);
                let window = &recent[recent.len().saturating_sub(WARM_WINDOW)..];
                for _ in 0..WARM_PER_COLD {
                    let source = window[rng.below(window.len())];
                    let copy = loop {
                        if let Some(copy) = reorder(&source.dag, &mut rng) {
                            break copy;
                        }
                    };
                    let name = format!("c{client}-{}", script.len());
                    script.push(WireRequest {
                        frame: frame(name, &copy, source.min, Ask::Fixed),
                        dag: copy,
                        min: source.min,
                        warm: true,
                        pass,
                    });
                }
            }
            script
        })
        .collect()
}

/// Whether `dag` admits exactly one topological order.
fn single_order(dag: &Dag) -> bool {
    let fanouts = dag.fanouts();
    let mut missing: Vec<usize> = dag.node_ids().map(|v| dag.children(v).count()).collect();
    let mut ready: Vec<NodeId> = dag.node_ids().filter(|v| missing[v.index()] == 0).collect();
    while let Some(v) = ready.pop() {
        if !ready.is_empty() {
            return false;
        }
        for &w in &fanouts[v.index()] {
            missing[w.index()] -= 1;
            if missing[w.index()] == 0 {
                ready.push(w);
            }
        }
    }
    true
}

/// A wire script over already generated instances (the traced `fixed`
/// and `minimize` runs): each instance cold, then one reordered copy.
pub fn instance_script(seed: u64, instances: &[Instance], ask: Ask) -> Vec<WireRequest> {
    let mut rng = Rng::new(seed, 200);
    let mut script = Vec::with_capacity(2 * instances.len());
    for source in instances {
        script.push(WireRequest {
            frame: frame(format!("i{}", source.id), &source.dag, source.min, ask),
            dag: source.dag.clone(),
            min: source.min,
            warm: false,
            pass: source.id,
        });
        // Up to a few draws for a renumbering; a DAG with a single
        // topological order is replayed unchanged.
        let copy = (0..8)
            .find_map(|_| reorder(&source.dag, &mut rng))
            .unwrap_or_else(|| source.dag.clone());
        script.push(WireRequest {
            frame: frame(format!("i{}-copy", source.id), &copy, source.min, ask),
            dag: copy,
            min: source.min,
            warm: true,
            pass: source.id,
        });
    }
    script
}

#[cfg(test)]
mod tests {
    use super::*;
    use revpebble_core::exact::solve_exact;

    #[test]
    fn same_seed_gives_identical_inputs_and_frames() {
        let json = |pool: Vec<Instance>| -> Vec<(String, usize)> {
            pool.iter()
                .map(|i| (i.dag.to_adjacency_json(), i.min))
                .collect()
        };
        assert_eq!(json(fixed_pool(7)), json(fixed_pool(7)));
        assert_eq!(json(minimize_pool(7)), json(minimize_pool(7)));
        assert_ne!(json(fixed_pool(7)), json(fixed_pool(8)));
        let frames = |script: Vec<WireRequest>| -> Vec<String> {
            script.into_iter().map(|r| r.frame).collect()
        };
        let scripts = |seed| -> Vec<String> {
            serve_scripts(seed, 2)
                .into_iter()
                .flat_map(frames)
                .collect()
        };
        assert_eq!(scripts(7), scripts(7));
        let pool = &fixed_pool(7)[..3];
        assert_eq!(
            frames(instance_script(7, pool, Ask::Fixed)),
            frames(instance_script(7, pool, Ask::Fixed))
        );
    }

    #[test]
    fn warm_copies_keep_fingerprint_and_minimum_with_a_new_order() {
        for script in serve_scripts(3, 2) {
            let script = &script[..40];
            for (index, request) in script.iter().enumerate() {
                let cold_index = index - index % (WARM_PER_COLD + 1);
                assert_eq!(request.warm, index != cold_index);
                if !request.warm {
                    continue;
                }
                let source = script[..index]
                    .iter()
                    .filter(|r| !r.warm)
                    .find(|r| r.dag.canonical_fingerprint() == request.dag.canonical_fingerprint())
                    .expect("a warm copy matches an earlier cold DAG");
                assert_eq!(exact_min_pebbles(&request.dag), source.min);
                assert_eq!(request.min, source.min);
                assert_ne!(
                    request.dag.to_adjacency_json(),
                    source.dag.to_adjacency_json()
                );
                // The frame round-trips to the reordered numbering.
                let parsed = Request::parse(&request.frame).expect("valid frame");
                assert_eq!(parsed.dag.resolve(), request.dag);
            }
        }
    }

    #[test]
    fn minimize_instances_need_a_refutation_and_fit_the_step_cap() {
        for instance in &minimize_pool(5)[..MINIMIZE_CORPUS] {
            assert!(one_walk(instance));
            assert!(instance.min > pebble_lower_bound(&instance.dag));
            let strategy = solve_exact(&instance.dag, instance.min)
                .into_strategy()
                .expect("the oracle minimum is feasible");
            assert!(strategy.num_steps() <= MINIMIZE_MAX_STEPS);
            assert!(solve_exact(&instance.dag, instance.min - 1)
                .into_strategy()
                .is_none());
        }
    }
}
