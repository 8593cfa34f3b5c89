//! The keyed snapshot cache: one finished run's artifact bytes, shared
//! across every request that asks for the same plan.
//!
//! A snapshot is immutable — the full [`MemorySink`](crate::run::MemorySink)
//! artifact set of one `run()` plus its summary — so concurrent readers
//! share it through an `Arc` with no copying. The cache keys snapshots
//! by a hash over the plan bytes and every *byte-affecting* option
//! (seed, size, caps; **not** thread count, **not** which artifact the
//! client wants, **not** the deadline), holds them in an LRU bounded by
//! a byte budget, and coordinates builds so N concurrent requests for
//! the same key pay for exactly one run: the first becomes the builder,
//! the rest block on its slot and wake to the shared `Arc`.

use crate::run::Artifact;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// One immutable finished run: every artifact the plan produced, in
/// [`Artifact`] order, ready to stream to any number of clients.
#[derive(Debug)]
pub struct Snapshot {
    artifacts: Vec<(Artifact, Vec<u8>)>,
    bytes: usize,
}

impl Snapshot {
    /// Wraps a finished run's artifact buffers (the payload cost is the
    /// sum of buffer lengths, which is what the cache budget meters).
    pub fn new(artifacts: Vec<(Artifact, Vec<u8>)>) -> Snapshot {
        let bytes = artifacts.iter().map(|(_, buf)| buf.len()).sum();
        Snapshot { artifacts, bytes }
    }

    /// The bytes of one artifact, if the plan produced it.
    pub fn artifact(&self, artifact: Artifact) -> Option<&[u8]> {
        self.artifacts
            .iter()
            .find(|(a, _)| *a == artifact)
            .map(|(_, buf)| buf.as_slice())
    }

    /// Every artifact the plan produced, in [`Artifact`] order.
    pub fn artifacts(&self) -> impl Iterator<Item = Artifact> + '_ {
        self.artifacts.iter().map(|(a, _)| *a)
    }

    /// Total payload bytes across all artifacts.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

/// The outcome a build slot hands to its waiters.
type BuildResult = Result<Arc<Snapshot>, String>;

/// The rendezvous between one builder and its waiters.
struct BuildSlot {
    state: Mutex<Option<BuildResult>>,
    done: Condvar,
}

enum CacheEntry {
    /// A build is in flight; waiters block on the slot.
    Building(Arc<BuildSlot>),
    /// A finished snapshot, stamped with its last-use tick for LRU.
    Ready(Arc<Snapshot>, u64),
}

/// A point-in-time view of the cache counters, for `GET /v1/stats`.
#[derive(Debug, Clone, Copy)]
pub struct CacheStats {
    /// Requests served from an existing snapshot (including those that
    /// blocked on an in-flight build and woke to its result).
    pub hits: u64,
    /// Snapshot builds actually run (the cache's "misses").
    pub builds: u64,
    /// Ready snapshots evicted to stay inside the byte budget.
    pub evictions: u64,
    /// Ready snapshots currently held.
    pub entries: usize,
    /// Payload bytes currently held.
    pub bytes: usize,
    /// The configured budget in bytes.
    pub budget_bytes: usize,
}

/// The keyed snapshot LRU. All methods are `&self`; one instance is
/// shared across every worker thread.
pub struct SnapshotCache {
    entries: Mutex<HashMap<u64, CacheEntry>>,
    budget_bytes: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    builds: AtomicU64,
    evictions: AtomicU64,
}

impl SnapshotCache {
    /// A cache bounded to `budget_mb` MiB of artifact payload. A budget
    /// of zero disables retention: builds still coalesce while in
    /// flight, but nothing stays resident.
    pub fn new(budget_mb: usize) -> SnapshotCache {
        SnapshotCache {
            entries: Mutex::new(HashMap::new()),
            budget_bytes: budget_mb * 1024 * 1024,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Returns the snapshot for `key`, building it with `build` if no
    /// one has yet. Exactly one caller per key runs `build` at a time;
    /// concurrent callers block and share the builder's result. The
    /// `bool` is true when this call was served without running a build
    /// (a cache hit, for the response's `X-Gmark-Cache` header).
    pub fn get_or_build(
        &self,
        key: u64,
        build: impl FnOnce() -> BuildResult,
    ) -> (BuildResult, bool) {
        // Fast path / enrolment: under the map lock, either take a
        // ready snapshot, join an in-flight build, or claim the slot.
        let slot = {
            let mut entries = self.entries.lock().unwrap();
            match entries.get_mut(&key) {
                Some(CacheEntry::Ready(snapshot, last_used)) => {
                    *last_used = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return (Ok(Arc::clone(snapshot)), true);
                }
                Some(CacheEntry::Building(slot)) => {
                    let slot = Arc::clone(slot);
                    drop(entries);
                    let mut state = slot.state.lock().unwrap();
                    while state.is_none() {
                        state = slot.done.wait(state).unwrap();
                    }
                    let result = state.as_ref().unwrap().clone();
                    let hit = result.is_ok();
                    if hit {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                    }
                    return (result, hit);
                }
                None => {
                    let slot = Arc::new(BuildSlot {
                        state: Mutex::new(None),
                        done: Condvar::new(),
                    });
                    entries.insert(key, CacheEntry::Building(Arc::clone(&slot)));
                    slot
                }
            }
        };

        // We own the build. Run it outside the map lock so other keys
        // proceed, and catch panics so waiters never hang.
        self.builds.fetch_add(1, Ordering::Relaxed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(build))
            .unwrap_or_else(|_| Err("snapshot build panicked".to_owned()));

        {
            let mut entries = self.entries.lock().unwrap();
            match &result {
                Ok(snapshot) => {
                    let now = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
                    entries.insert(key, CacheEntry::Ready(Arc::clone(snapshot), now));
                    self.evict_over_budget(&mut entries, key);
                }
                Err(_) => {
                    // Failed plans don't get negative-cached: the next
                    // request retries (and reports its own error).
                    entries.remove(&key);
                }
            }
        }
        let mut state = slot.state.lock().unwrap();
        *state = Some(result.clone());
        slot.done.notify_all();
        drop(state);
        (result, false)
    }

    /// Evicts least-recently-used ready snapshots until the payload fits
    /// the budget. The just-inserted key goes last: even a snapshot
    /// larger than the whole budget is kept until something else needs
    /// the room, so the request that built it (and any already-waiting
    /// peers) always stream from memory.
    fn evict_over_budget(&self, entries: &mut HashMap<u64, CacheEntry>, just_inserted: u64) {
        loop {
            let total: usize = entries
                .values()
                .map(|e| match e {
                    CacheEntry::Ready(s, _) => s.bytes(),
                    CacheEntry::Building(_) => 0,
                })
                .sum();
            if total <= self.budget_bytes {
                return;
            }
            let victim = entries
                .iter()
                .filter_map(|(k, e)| match e {
                    CacheEntry::Ready(_, last_used) if *k != just_inserted => {
                        Some((*last_used, *k))
                    }
                    _ => None,
                })
                .min()
                .map(|(_, k)| k)
                .or(if self.budget_bytes == 0 {
                    // Zero budget: nothing is retained, not even the
                    // fresh snapshot (waiters already hold the Arc).
                    Some(just_inserted)
                } else {
                    None
                });
            match victim {
                Some(k) => {
                    entries.remove(&k);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => return,
            }
        }
    }

    /// A point-in-time snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let entries = self.entries.lock().unwrap();
        let (count, bytes) = entries
            .values()
            .fold((0usize, 0usize), |(n, b), e| match e {
                CacheEntry::Ready(s, _) => (n + 1, b + s.bytes()),
                CacheEntry::Building(_) => (n, b),
            });
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: count,
            bytes,
            budget_bytes: self.budget_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn snap(bytes: usize) -> BuildResult {
        Ok(Arc::new(Snapshot::new(vec![(
            Artifact::Graph,
            vec![0u8; bytes],
        )])))
    }

    #[test]
    fn builds_each_key_once_and_serves_hits() {
        let cache = SnapshotCache::new(64);
        let built = AtomicUsize::new(0);
        for round in 0..3 {
            let (result, hit) = cache.get_or_build(7, || {
                built.fetch_add(1, Ordering::Relaxed);
                snap(10)
            });
            assert!(result.is_ok());
            assert_eq!(hit, round > 0, "round {round}");
        }
        assert_eq!(built.load(Ordering::Relaxed), 1);
        let stats = cache.stats();
        assert_eq!((stats.builds, stats.hits, stats.entries), (1, 2, 1));
    }

    #[test]
    fn concurrent_requests_for_one_key_share_a_single_build() {
        let cache = Arc::new(SnapshotCache::new(64));
        let built = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let built = Arc::clone(&built);
            handles.push(std::thread::spawn(move || {
                let (result, _) = cache.get_or_build(42, || {
                    built.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    snap(10)
                });
                result.unwrap().bytes()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 10);
        }
        assert_eq!(built.load(Ordering::Relaxed), 1, "one build for 8 callers");
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        // 1 MiB budget; three ~0.4 MiB snapshots can't all stay.
        let cache = SnapshotCache::new(1);
        let kb400 = 400 * 1024;
        cache.get_or_build(1, || snap(kb400)).0.unwrap();
        cache.get_or_build(2, || snap(kb400)).0.unwrap();
        // Touch key 1 so key 2 is the LRU victim.
        assert!(cache.get_or_build(1, || snap(kb400)).1);
        cache.get_or_build(3, || snap(kb400)).0.unwrap();
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        // Key 2 was evicted: asking again rebuilds.
        let (_, hit) = cache.get_or_build(2, || snap(kb400));
        assert!(!hit, "evicted key must rebuild");
        // Keys 1 and 3 survived in some order with key 2 back: budget
        // still holds.
        assert!(cache.stats().bytes <= 1024 * 1024);
    }

    #[test]
    fn failed_builds_propagate_and_are_not_cached() {
        let cache = SnapshotCache::new(64);
        let (result, hit) = cache.get_or_build(9, || Err("boom".to_owned()));
        assert_eq!(result.unwrap_err(), "boom");
        assert!(!hit);
        // The key is free again: the next caller builds successfully.
        let (result, hit) = cache.get_or_build(9, || snap(5));
        assert!(result.is_ok() && !hit);
    }

    #[test]
    fn zero_budget_coalesces_but_retains_nothing() {
        let cache = SnapshotCache::new(0);
        let (result, _) = cache.get_or_build(1, || snap(10));
        assert!(result.is_ok());
        assert_eq!(cache.stats().entries, 0);
        let (_, hit) = cache.get_or_build(1, || snap(10));
        assert!(!hit, "zero budget: every request rebuilds");
    }
}
