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
//! look for it. A cache is only consulted when explicitly installed via
//! [`PebblingSession::result_cache`](crate::session::PebblingSession::result_cache)
//! or a [`BatchSession`](crate::session::BatchSession); sessions without
//! one behave bit-identically to a cache-free build.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::session::SessionOutcome;

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
    /// The full engine outcome (strategy included).
    pub outcome: SessionOutcome,
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

    pub(crate) fn lookup(&self, key: &CacheKey) -> Option<CachedReport> {
        let found = self
            .inner
            .lock()
            .expect("result cache")
            .map
            .get(key)
            .cloned();
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
        }
    }

    #[test]
    fn hit_and_miss_counters_track_lookups() {
        let cache = ResultCache::new(4);
        assert!(cache.lookup(&key(1)).is_none());
        cache.insert(key(1), report(3));
        let hit = cache.lookup(&key(1)).expect("cached");
        assert_eq!(hit.floor, 3);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // Same DAG, different plan hash: a distinct entry.
        let other_plan = CacheKey { plan: 8, ..key(1) };
        assert!(cache.lookup(&other_plan).is_none());
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let cache = ResultCache::new(2);
        cache.insert(key(1), report(1));
        cache.insert(key(2), report(2));
        cache.insert(key(3), report(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&key(1)).is_none(), "oldest entry evicted");
        assert!(cache.lookup(&key(2)).is_some());
        assert!(cache.lookup(&key(3)).is_some());
    }

    #[test]
    fn reinsert_refreshes_without_growing() {
        let cache = ResultCache::new(2);
        cache.insert(key(1), report(1));
        cache.insert(key(1), report(9));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(&key(1)).expect("cached").floor, 9);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let cache = ResultCache::new(0);
        cache.insert(key(1), report(1));
        assert_eq!(cache.len(), 1);
    }
}
