//! Cross-request solve-site cache for the layout job API.
//!
//! Every P-ILP phase solves a sequence of small windowed MILPs, and an
//! identical request — the same netlist under the same flow
//! configuration — rebuilds and re-solves the very same models in the
//! very same order. The flow therefore memoizes each **solve site**: the
//! outcome of one [`LayoutIlp`](crate::model::LayoutIlp) build plus its
//! lazy overlap-separation rounds — the layout it produced, or the proof
//! that it has none ([`SiteOutcome`]). Replaying an identical request
//! turns every site into a pure lookup, reproducing the identical layout
//! with near-zero solver work: the failed hard-length attempts of the
//! refinement phase replay as stored infeasibilities instead of
//! re-running their branch-and-bound trees.
//!
//! Memoizing the finished site (rather than seeding its warm basis) is a
//! deliberate choice: the presolve layer's basis projection drops the
//! dual steepest-edge weights and the factorisation, so a basis-seeded
//! replay re-prices its node solves differently, wanders to alternate
//! optimal vertices and — measured on the tiny-circuit flow — ends up
//! *more* expensive than a cold run while drifting the bend count. The
//! memoized layout is exact by construction.
//!
//! Keys combine the [`rfic_netlist::Netlist::fingerprint`] with the flow
//! phase, the full per-solve [`crate::model::IlpConfig`], the flow
//! configuration and the base layout the model was built against, so two
//! solve sites share an entry only when they build byte-identical models
//! and solve them under identical budgets. Only *proven* outcomes are
//! stored: a layout when every round solved to proven optimality, an
//! infeasibility when the branch-and-bound tree closed without hitting
//! any limit and every earlier round was optimal. A time-limit incumbent,
//! a limit-bound failure or a cancelled or deadline-aborted site is
//! timing-dependent and must not be replayed — which is also why a
//! speculative site stopped early is never stored. The cache is bounded
//! (FIFO eviction of the oldest entry) and fully thread-safe — concurrent
//! jobs of one [`crate::JobContext`] share it.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rfic_lp::sync::LockExt;

use crate::layout::Layout;

/// Default number of cached solve sites per [`FlowCache`]. A
/// tiny-circuit flow issues a few dozen distinct solve sites, so the
/// default comfortably holds several distinct circuits at once.
pub const DEFAULT_CACHE_CAPACITY: usize = 512;

/// The memoized outcome of one solve site.
#[derive(Debug, Clone, PartialEq)]
pub enum SiteOutcome {
    /// The layout the site produced, every round proven optimal.
    Solved(Layout),
    /// The site's model was proven infeasible: the tree closed with no
    /// limit hit, after proven-optimal earlier rounds.
    Infeasible,
}

struct CacheState {
    entries: HashMap<u64, SiteOutcome>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<u64>,
}

/// A bounded, thread-safe map from solve-site fingerprints to the
/// outcomes those sites produced.
///
/// See the module docs for the keying and reuse contract.
pub struct FlowCache {
    capacity: usize,
    state: Mutex<CacheState>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl Default for FlowCache {
    fn default() -> Self {
        FlowCache::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

impl FlowCache {
    /// Creates a cache holding at most `capacity` solve sites (at least
    /// one).
    pub fn with_capacity(capacity: usize) -> FlowCache {
        FlowCache {
            capacity: capacity.max(1),
            state: Mutex::new(CacheState {
                entries: HashMap::new(),
                order: VecDeque::new(),
            }),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// Maximum number of cached solve sites.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of solve sites currently cached.
    pub fn len(&self) -> usize {
        self.state.lock_recover().entries.len()
    }

    /// `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Successful lookups since the cache was created.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Failed lookups since the cache was created.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Looks up the memoized outcome for a solve-site key, counting the
    /// hit/miss.
    pub fn lookup(&self, key: u64) -> Option<SiteOutcome> {
        let state = self.state.lock_recover();
        match state.entries.get(&key) {
            Some(outcome) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(outcome.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores (or refreshes) the outcome for a solve-site key, evicting
    /// the oldest entry when full.
    pub fn store(&self, key: u64, outcome: SiteOutcome) {
        let mut state = self.state.lock_recover();
        if state.entries.insert(key, outcome).is_none() {
            state.order.push_back(key);
            while state.entries.len() > self.capacity {
                if let Some(old) = state.order.pop_front() {
                    state.entries.remove(&old);
                } else {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solved() -> SiteOutcome {
        SiteOutcome::Solved(Layout::default())
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let cache = FlowCache::with_capacity(4);
        assert!(cache.lookup(1).is_none());
        cache.store(1, solved());
        assert_eq!(cache.lookup(1), Some(solved()));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn infeasible_outcomes_round_trip() {
        let cache = FlowCache::with_capacity(4);
        cache.store(5, SiteOutcome::Infeasible);
        assert_eq!(cache.lookup(5), Some(SiteOutcome::Infeasible));
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn eviction_is_bounded_and_fifo() {
        let cache = FlowCache::with_capacity(2);
        cache.store(1, solved());
        cache.store(2, solved());
        cache.store(3, solved());
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(1).is_none(), "oldest entry is evicted first");
        assert!(cache.lookup(2).is_some());
        assert!(cache.lookup(3).is_some());
    }

    #[test]
    fn refreshing_a_key_does_not_grow_the_cache() {
        let cache = FlowCache::with_capacity(2);
        cache.store(1, solved());
        cache.store(1, solved());
        cache.store(2, solved());
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(1).is_some());
    }
}
