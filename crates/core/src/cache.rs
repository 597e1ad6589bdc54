//! A bounded, DAG-keyed cache of finished session results.
//!
//! Serving workloads replay the same netlists: a batch front end probing
//! variants of a circuit, a CI job re-checking known instances, a tuning
//! loop sweeping solver options over one DAG. The SAT work is seconds;
//! the answer is a few words. This module memoizes it.
//!
//! The key pairs [`Dag::canonical_fingerprint`](revpebble_graph::Dag::canonical_fingerprint)
//! — invariant under
//! pebbling isomorphism, so renamed or reordered copies of a netlist hit
//! the same entry — with a hash of the session plan (engine, solver
//! options, budgets), because the *answer* ("minimum = 4, floor = 4")
//! depends on both the instance and how hard the session was allowed to
//! look for it.
//!
//! A fingerprint match says two DAGs pose the same problem, not that
//! they number their nodes alike, and it is not a proof of isomorphism.
//! So a hit is *replayed*, never handed out verbatim: every cached
//! strategy is renumbered through [`Dag::isomorphism_to`] (a verified
//! node match from the cached DAG onto the requesting one) and checked
//! with [`Strategy::validate`] on the requesting DAG under the budget it
//! certifies. A DAG that cannot be matched, or a strategy that fails the
//! check, turns the hit into a miss: the session solves afresh and its
//! result replaces the entry.
//!
//! A cache is only consulted when explicitly installed via
//! [`PebblingSession::result_cache`](crate::session::PebblingSession::result_cache)
//! or a [`BatchSession`](crate::session::BatchSession); sessions without
//! one behave bit-identically to a cache-free build.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use revpebble_graph::Dag;

use crate::session::SessionOutcome;
use crate::strategy::Strategy;

/// A result-cache key: canonical DAG fingerprint × session-plan hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    /// [`Dag::canonical_fingerprint`](revpebble_graph::Dag::canonical_fingerprint).
    pub fingerprint: [u64; 2],
    /// Hash of every plan field that can change the answer.
    pub plan: u64,
}

/// The replayable part of a finished session: everything a
/// [`Report`](crate::session::Report) derives its figures from.
#[derive(Debug, Clone)]
pub(crate) struct CachedReport {
    /// The certified minimum budget, if the engine minimizes.
    pub minimum: Option<usize>,
    /// The certified budget floor.
    pub floor: usize,
    /// The full engine outcome (strategy included), in the node
    /// numbering of [`dag`](Self::dag).
    pub outcome: SessionOutcome,
    /// The DAG the outcome was solved on.
    pub dag: Arc<Dag>,
}

impl CachedReport {
    /// This result in the node numbering of `dag`: every strategy
    /// renumbered through the node match and validated on `dag` under
    /// the budget it certifies (`weighted` picks the pebble rule).
    /// `None` when the DAGs cannot be matched or a strategy fails.
    fn replay_onto(mut self, dag: &Dag, weighted: bool) -> Option<CachedReport> {
        // A resubmitted DAG needs no match, so it never misses for
        // want of one.
        let map = if *self.dag == *dag {
            None
        } else {
            Some(self.dag.isomorphism_to(dag)?)
        };
        for (budget, strategy) in strategies_mut(&mut self.outcome) {
            if let Some(map) = &map {
                *strategy = strategy.renumbered(map);
            }
            let checked = if weighted {
                strategy.validate_weighted(dag, Some(budget as u64))
            } else {
                strategy.validate(dag, Some(budget))
            };
            checked.ok()?;
        }
        Some(self)
    }
}

/// Every strategy `outcome` carries, with the budget it was found under.
fn strategies_mut(outcome: &mut SessionOutcome) -> Vec<(usize, &mut Strategy)> {
    fn best(best: &mut Option<(usize, Strategy)>) -> Option<(usize, &mut Strategy)> {
        best.as_mut().map(|(budget, strategy)| (*budget, strategy))
    }
    match outcome {
        SessionOutcome::Minimize(result) => best(&mut result.best).into_iter().collect(),
        SessionOutcome::MinimizePortfolio(race) => best(&mut race.best)
            .into_iter()
            .chain(
                race.workers
                    .iter_mut()
                    .filter_map(|worker| best(&mut worker.result.best)),
            )
            .collect(),
        SessionOutcome::Frontier(points) => points
            .iter_mut()
            .filter_map(|point| Some((point.pebbles, point.strategy.as_mut()?)))
            .collect(),
        SessionOutcome::Aborted => Vec::new(),
    }
}

/// A bounded FIFO map from `CacheKey` to finished results with
/// hit/miss counters (see the [module docs](self)). Shared across
/// sessions behind an `Arc`; all methods take `&self`.
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<CacheKey, CachedReport>,
    order: VecDeque<CacheKey>,
}

impl ResultCache {
    /// A cache holding at most `capacity` results (at least one); the
    /// oldest entry is evicted first.
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Results served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to run the solver.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of results currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("result cache").map.len()
    }

    /// `true` when no result is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cached result for `key`, replayed onto `dag` (see the
    /// [module docs](self)); a result that does not replay counts as a
    /// miss.
    pub(crate) fn lookup(&self, key: &CacheKey, dag: &Dag, weighted: bool) -> Option<CachedReport> {
        let entry = self
            .inner
            .lock()
            .expect("result cache")
            .map
            .get(key)
            .cloned();
        let found = entry.and_then(|entry| entry.replay_onto(dag, weighted));
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    pub(crate) fn insert(&self, key: CacheKey, value: CachedReport) {
        let mut inner = self.inner.lock().expect("result cache");
        match inner.map.entry(key) {
            Entry::Occupied(mut slot) => {
                // Refresh in place; the FIFO order entry stays put.
                slot.insert(value);
                return;
            }
            Entry::Vacant(slot) => {
                slot.insert(value);
            }
        }
        inner.order.push_back(key);
        while inner.order.len() > self.capacity {
            if let Some(evicted) = inner.order.pop_front() {
                inner.map.remove(&evicted);
            }
        }
    }
}

impl Default for ResultCache {
    /// A 256-entry cache — plenty for batch workloads, small enough that
    /// strategies (a few steps × nodes each) never add up to real memory.
    fn default() -> Self {
        ResultCache::new(256)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::MinimizeResult;
    use revpebble_graph::generators::paper_example;

    fn key(n: u64) -> CacheKey {
        CacheKey {
            fingerprint: [n, n ^ 0xABCD],
            plan: 7,
        }
    }

    fn report(floor: usize) -> CachedReport {
        CachedReport {
            minimum: Some(floor),
            floor,
            outcome: SessionOutcome::Minimize(MinimizeResult {
                floor,
                ..MinimizeResult::default()
            }),
            dag: Arc::new(paper_example()),
        }
    }

    fn lookup(cache: &ResultCache, key: &CacheKey) -> Option<CachedReport> {
        cache.lookup(key, &paper_example(), false)
    }

    #[test]
    fn hit_and_miss_counters_track_lookups() {
        let cache = ResultCache::new(4);
        assert!(lookup(&cache, &key(1)).is_none());
        cache.insert(key(1), report(3));
        let hit = lookup(&cache, &key(1)).expect("cached");
        assert_eq!(hit.floor, 3);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // Same DAG, different plan hash: a distinct entry.
        let other_plan = CacheKey { plan: 8, ..key(1) };
        assert!(lookup(&cache, &other_plan).is_none());
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn a_strategy_that_fails_on_the_requesting_dag_is_a_miss() {
        let cache = ResultCache::new(4);
        // An empty strategy never ends on the output set.
        let mut broken = report(4);
        broken.outcome = SessionOutcome::Minimize(MinimizeResult {
            best: Some((4, Strategy::default())),
            ..MinimizeResult::default()
        });
        cache.insert(key(1), broken);
        assert!(lookup(&cache, &key(1)).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let cache = ResultCache::new(2);
        cache.insert(key(1), report(1));
        cache.insert(key(2), report(2));
        cache.insert(key(3), report(3));
        assert_eq!(cache.len(), 2);
        assert!(lookup(&cache, &key(1)).is_none(), "oldest entry evicted");
        assert!(lookup(&cache, &key(2)).is_some());
        assert!(lookup(&cache, &key(3)).is_some());
    }

    #[test]
    fn reinsert_refreshes_without_growing() {
        let cache = ResultCache::new(2);
        cache.insert(key(1), report(1));
        cache.insert(key(1), report(9));
        assert_eq!(cache.len(), 1);
        assert_eq!(lookup(&cache, &key(1)).expect("cached").floor, 9);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let cache = ResultCache::new(0);
        cache.insert(key(1), report(1));
        assert_eq!(cache.len(), 1);
    }
}
