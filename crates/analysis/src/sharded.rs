//! Sharded, byte-budgeted, cold-miss-coalescing cache — the resident
//! store behind the `nss-serve` query service.
//!
//! [`crate::tables::KernelCache`] interns kernels forever: correct for a
//! batch sweep that touches a handful of configurations, wrong for a
//! long-running service answering arbitrary (ρ, quad) queries, which
//! needs an *admission-controlled* cache. [`ShardedCache`] adds the three
//! serving-stack behaviors on top of the same `BTreeMap` discipline:
//!
//! * **Sharding** — `shards` independent maps selected by a deterministic
//!   FNV-64 fingerprint of the key ([`Fingerprint`]), each behind its own
//!   [`std::sync::Mutex`], so concurrent queries for different keys never
//!   serialize on one lock.
//! * **Cold-miss coalescing** — the first thread to miss a key installs a
//!   `Slot::Building` placeholder and computes the value *outside* the
//!   shard lock; every concurrent miss for the same key blocks on a
//!   [`std::sync::Condvar`] and receives the same `Arc` when the build
//!   lands. A storm of identical cold queries costs exactly one build.
//! * **LRU / byte-budget eviction** — each shard holds at most
//!   `budget / shards` bytes of `Ready` entries (sized by
//!   [`CacheWeight::cache_bytes`]); admission evicts least-recently-used
//!   entries until the newcomer fits. An entry larger than a whole shard's
//!   budget is built and returned but **not admitted**
//!   ([`Outcome::admitted`] is `false`) — the serve layer surfaces that as
//!   `503` so operators see misconfigured `--cache-bytes` instead of
//!   silent thrash.
//!
//! The cache keeps its own always-on atomic tallies ([`CacheStats`]) so
//! behavior is testable without the `obs` feature; the serve layer mirrors
//! outcomes into `serve.cache.*` metrics.
//!
//! Per-shard state uses `BTreeMap` (not a hash map) for the same reason as
//! `KernelCache`: deterministic traversal order in reports and debug
//! dumps. Coalescing uses `std::sync::{Mutex, Condvar}`; like every lock
//! in the crate, a poisoned one is recovered with `PoisonError::into_inner`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use crate::tables::KernelKey;
use nss_obs::manifest::fnv64;

/// A deterministic 64-bit fingerprint used for shard selection.
pub trait Fingerprint {
    /// The fingerprint; equal keys must produce equal fingerprints.
    fn fingerprint(&self) -> u64;
}

impl Fingerprint for KernelKey {
    fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::with_capacity(40);
        bytes.extend_from_slice(&self.p.to_le_bytes());
        bytes.extend_from_slice(&self.s.to_le_bytes());
        bytes.extend_from_slice(&self.r_bits.to_le_bytes());
        bytes.extend_from_slice(&(self.quad_points as u64).to_le_bytes());
        bytes.push(self.mu_mode as u8);
        match self.cs_bits {
            Some(cs) => {
                bytes.push(1);
                bytes.extend_from_slice(&cs.to_le_bytes());
            }
            None => bytes.push(0),
        }
        fnv64(&bytes)
    }
}

/// Resident size of a cache entry, charged against the byte budget.
pub trait CacheWeight {
    /// Approximate heap bytes this entry keeps resident.
    fn cache_bytes(&self) -> usize;
}

/// How a [`ShardedCache::get_or_build`] call was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeKind {
    /// The key was resident: no build, no wait.
    Hit,
    /// Another thread was already building this key; this call waited and
    /// shares that build's value.
    Coalesced,
    /// This call ran the builder.
    Built,
}

/// Result of a [`ShardedCache::get_or_build`] call.
#[derive(Debug)]
pub struct Outcome<V> {
    /// The cached (or freshly built) value.
    pub value: Arc<V>,
    /// How the value was obtained.
    pub kind: OutcomeKind,
    /// Whether the value is resident in the cache after this call.
    /// `false` means the entry exceeds a whole shard's byte budget and was
    /// returned without admission — the caller should surface capacity
    /// exhaustion (the serve layer maps this to `503`).
    pub admitted: bool,
    /// Entries evicted to admit this value (only nonzero for
    /// [`OutcomeKind::Built`]).
    pub evicted: usize,
}

/// Point-in-time tallies of cache behavior (always-on relaxed atomics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a resident entry.
    pub hits: u64,
    /// Lookups that found no entry (each starts a build).
    pub misses: u64,
    /// Lookups that waited on a concurrent build instead of duplicating it.
    pub coalesced: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Builds whose result exceeded the per-shard budget (not admitted).
    pub rejected: u64,
    /// Bytes currently resident across all shards.
    pub resident_bytes: usize,
    /// Entries currently resident across all shards.
    pub resident_entries: usize,
}

enum BuildState<V> {
    Pending,
    /// Build finished; `bool` is the admission verdict.
    Done(Arc<V>, bool),
    /// Builder died (panicked) — waiters must retry.
    Failed,
}

struct Build<V> {
    state: Mutex<BuildState<V>>,
    cv: Condvar,
}

enum Slot<V> {
    Ready {
        value: Arc<V>,
        bytes: usize,
        last_used: u64,
    },
    Building(Arc<Build<V>>),
}

struct ShardState<K, V> {
    map: BTreeMap<K, Slot<V>>,
    /// Monotone use-clock for LRU ordering (per shard).
    tick: u64,
    /// Resident `Ready` bytes in this shard.
    bytes: usize,
}

struct Shard<K, V> {
    state: Mutex<ShardState<K, V>>,
}

/// A sharded, coalescing, byte-budgeted LRU cache. See the
/// [module docs](self) for the design.
pub struct ShardedCache<K: Ord + Clone + Fingerprint, V: CacheWeight> {
    shards: Vec<Shard<K, V>>,
    per_shard_budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
    rejected: AtomicU64,
    resident_bytes: AtomicUsize,
    resident_entries: AtomicUsize,
}

impl<K: Ord + Clone + Fingerprint, V: CacheWeight> std::fmt::Debug for ShardedCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .field("per_shard_budget", &self.per_shard_budget)
            .field("stats", &self.stats())
            .finish()
    }
}

impl<K: Ord + Clone + Fingerprint, V: CacheWeight> ShardedCache<K, V> {
    /// A cache with `shards` independent shards sharing `budget_bytes`
    /// total (each shard owns `budget_bytes / shards`). `shards` is
    /// clamped to at least 1; a zero budget admits nothing (every build is
    /// returned un-admitted).
    pub fn new(shards: usize, budget_bytes: usize) -> Self {
        let shards = shards.max(1);
        ShardedCache {
            shards: (0..shards)
                .map(|_| Shard {
                    state: Mutex::new(ShardState {
                        map: BTreeMap::new(),
                        tick: 0,
                        bytes: 0,
                    }),
                })
                .collect(),
            per_shard_budget: budget_bytes / shards,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            resident_bytes: AtomicUsize::new(0),
            resident_entries: AtomicUsize::new(0),
        }
    }

    /// The byte budget of one shard (`total / shards`).
    pub fn per_shard_budget(&self) -> usize {
        self.per_shard_budget
    }

    /// Returns the value for `key`, building it with `build` on a cold
    /// miss. Concurrent misses for the same key coalesce onto one build;
    /// admission may evict LRU entries. The builder runs **outside** the
    /// shard lock, so it may itself use the cache (for different keys).
    pub fn get_or_build(&self, key: &K, build: impl FnOnce() -> V) -> Outcome<V> {
        let shard = &self.shards[(key.fingerprint() % self.shards.len() as u64) as usize];
        loop {
            // Fast path + build-slot installation, under the shard lock.
            let build_slot = {
                let mut state = shard.state.lock().unwrap_or_else(PoisonError::into_inner);
                state.tick += 1;
                let tick = state.tick;
                match state.map.get_mut(key) {
                    Some(Slot::Ready {
                        value, last_used, ..
                    }) => {
                        *last_used = tick;
                        let value = Arc::clone(value);
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Outcome {
                            value,
                            kind: OutcomeKind::Hit,
                            admitted: true,
                            evicted: 0,
                        };
                    }
                    Some(Slot::Building(b)) => Some(Arc::clone(b)),
                    None => {
                        let b = Arc::new(Build {
                            state: Mutex::new(BuildState::Pending),
                            cv: Condvar::new(),
                        });
                        state
                            .map
                            .insert(key.clone(), Slot::Building(Arc::clone(&b)));
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        drop(state);
                        return self.run_build(shard, key, b, build);
                    }
                }
            };
            // Coalesced path: wait for the in-flight build, outside the
            // shard lock.
            if let Some(b) = build_slot {
                let mut st = b.state.lock().unwrap_or_else(PoisonError::into_inner);
                loop {
                    match &*st {
                        BuildState::Pending => {
                            st = b.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                        }
                        BuildState::Done(value, admitted) => {
                            self.coalesced.fetch_add(1, Ordering::Relaxed);
                            return Outcome {
                                value: Arc::clone(value),
                                kind: OutcomeKind::Coalesced,
                                admitted: *admitted,
                                evicted: 0,
                            };
                        }
                        BuildState::Failed => break, // retry from the top
                    }
                }
            }
        }
    }

    /// Runs the builder for a freshly installed `Building` slot, then
    /// admits (possibly evicting) or rejects the result and wakes waiters.
    fn run_build(
        &self,
        shard: &Shard<K, V>,
        key: &K,
        build_slot: Arc<Build<V>>,
        build: impl FnOnce() -> V,
    ) -> Outcome<V> {
        // If the builder panics, this guard flips the slot to Failed and
        // removes the placeholder so waiters retry instead of hanging.
        struct Abort<'a, K: Ord + Clone + Fingerprint, V: CacheWeight> {
            shard: &'a Shard<K, V>,
            key: &'a K,
            build: &'a Arc<Build<V>>,
            armed: bool,
        }
        impl<K: Ord + Clone + Fingerprint, V: CacheWeight> Drop for Abort<'_, K, V> {
            fn drop(&mut self) {
                if !self.armed {
                    return;
                }
                let mut state = self
                    .shard
                    .state
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                if matches!(state.map.get(self.key), Some(Slot::Building(_))) {
                    state.map.remove(self.key);
                }
                drop(state);
                *self
                    .build
                    .state
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner) = BuildState::Failed;
                self.build.cv.notify_all();
            }
        }
        let mut abort = Abort {
            shard,
            key,
            build: &build_slot,
            armed: true,
        };

        let value = Arc::new(build());
        abort.armed = false;

        let bytes = value.cache_bytes();
        let admitted = bytes <= self.per_shard_budget;
        let mut evicted = 0usize;
        {
            let mut state = shard.state.lock().unwrap_or_else(PoisonError::into_inner);
            if admitted {
                // Evict LRU Ready entries until the newcomer fits. Building
                // placeholders are never evicted (they hold waiters).
                while state.bytes + bytes > self.per_shard_budget {
                    let victim = state
                        .map
                        .iter()
                        .filter_map(|(k, slot)| match slot {
                            Slot::Ready { last_used, .. } => Some((*last_used, k.clone())),
                            Slot::Building(_) => None,
                        })
                        .min()
                        .map(|(_, k)| k);
                    let Some(victim) = victim else { break };
                    if let Some(Slot::Ready {
                        bytes: freed_bytes, ..
                    }) = state.map.remove(&victim)
                    {
                        state.bytes -= freed_bytes;
                        evicted += 1;
                        self.resident_bytes
                            .fetch_sub(freed_bytes, Ordering::Relaxed);
                        self.resident_entries.fetch_sub(1, Ordering::Relaxed);
                    }
                }
                state.tick += 1;
                let tick = state.tick;
                state.map.insert(
                    key.clone(),
                    Slot::Ready {
                        value: Arc::clone(&value),
                        bytes,
                        last_used: tick,
                    },
                );
                state.bytes += bytes;
                self.resident_bytes.fetch_add(bytes, Ordering::Relaxed);
                self.resident_entries.fetch_add(1, Ordering::Relaxed);
                self.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
            } else {
                // Oversized: drop the placeholder, count the rejection.
                state.map.remove(key);
                self.rejected.fetch_add(1, Ordering::Relaxed);
            }
        }

        *build_slot
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner) =
            BuildState::Done(Arc::clone(&value), admitted);
        build_slot.cv.notify_all();

        Outcome {
            value,
            kind: OutcomeKind::Built,
            admitted,
            evicted,
        }
    }

    /// A point-in-time snapshot of the cache tallies.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            resident_bytes: self.resident_bytes.load(Ordering::Relaxed),
            resident_entries: self.resident_entries.load(Ordering::Relaxed),
        }
    }

    /// Drops every resident entry (in-flight builds are unaffected: their
    /// waiters still receive the built value; it just isn't re-admitted).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut state = shard.state.lock().unwrap_or_else(PoisonError::into_inner);
            let mut freed_bytes = 0usize;
            let mut freed_entries = 0usize;
            state.map.retain(|_, slot| match slot {
                Slot::Ready { bytes, .. } => {
                    freed_bytes += *bytes;
                    freed_entries += 1;
                    false
                }
                Slot::Building(_) => true,
            });
            state.bytes -= freed_bytes;
            self.resident_bytes
                .fetch_sub(freed_bytes, Ordering::Relaxed);
            self.resident_entries
                .fetch_sub(freed_entries, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Key(u64);
    impl Fingerprint for Key {
        fn fingerprint(&self) -> u64 {
            fnv64(&self.0.to_le_bytes())
        }
    }

    #[derive(Debug, PartialEq)]
    struct Val {
        id: u64,
        weight: usize,
    }
    impl CacheWeight for Val {
        fn cache_bytes(&self) -> usize {
            self.weight
        }
    }

    fn build_counter() -> Arc<AtomicU64> {
        Arc::new(AtomicU64::new(0))
    }

    #[test]
    fn hit_after_miss_and_stats() {
        let cache: ShardedCache<Key, Val> = ShardedCache::new(4, 4096);
        let builds = build_counter();
        for round in 0..3 {
            let b = Arc::clone(&builds);
            let out = cache.get_or_build(&Key(7), move || {
                b.fetch_add(1, Ordering::Relaxed);
                Val { id: 7, weight: 100 }
            });
            assert_eq!(out.value.id, 7);
            assert!(out.admitted);
            assert_eq!(
                out.kind,
                if round == 0 {
                    OutcomeKind::Built
                } else {
                    OutcomeKind::Hit
                }
            );
        }
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        assert_eq!(stats.resident_bytes, 100);
        assert_eq!(stats.resident_entries, 1);
    }

    #[test]
    fn lru_eviction_respects_byte_budget_and_recency() {
        // One shard, budget 250 → at most two 100-byte entries.
        let cache: ShardedCache<Key, Val> = ShardedCache::new(1, 250);
        let mk = |id: u64| Val { id, weight: 100 };
        cache.get_or_build(&Key(1), || mk(1));
        cache.get_or_build(&Key(2), || mk(2));
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(cache.get_or_build(&Key(1), || mk(1)).kind, OutcomeKind::Hit);
        let out = cache.get_or_build(&Key(3), || mk(3));
        assert_eq!(out.kind, OutcomeKind::Built);
        assert_eq!(out.evicted, 1);
        // 2 was evicted; 1 survived.
        assert_eq!(cache.get_or_build(&Key(1), || mk(1)).kind, OutcomeKind::Hit);
        assert_eq!(
            cache.get_or_build(&Key(2), || mk(2)).kind,
            OutcomeKind::Built
        );
        let stats = cache.stats();
        assert!(stats.evictions >= 2, "{stats:?}");
        assert!(stats.resident_bytes <= 250, "{stats:?}");
    }

    #[test]
    fn oversized_entry_is_returned_but_not_admitted() {
        let cache: ShardedCache<Key, Val> = ShardedCache::new(2, 100); // 50/shard
        let out = cache.get_or_build(&Key(9), || Val { id: 9, weight: 999 });
        assert_eq!(out.kind, OutcomeKind::Built);
        assert!(!out.admitted);
        assert_eq!(out.value.id, 9);
        let stats = cache.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.resident_entries, 0);
        // The next lookup is a fresh miss, not a hit.
        let out = cache.get_or_build(&Key(9), || Val { id: 9, weight: 999 });
        assert_eq!(out.kind, OutcomeKind::Built);
    }

    #[test]
    fn cold_miss_storm_coalesces_to_one_build() {
        // The ISSUE's acceptance gate: 64 concurrent identical cold
        // queries compute the value exactly once, coalescing ≥ 63.
        let cache: Arc<ShardedCache<Key, Val>> = Arc::new(ShardedCache::new(8, 1 << 20));
        let builds = build_counter();
        let barrier = Arc::new(std::sync::Barrier::new(64));
        let handles: Vec<_> = (0..64)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let builds = Arc::clone(&builds);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let out = cache.get_or_build(&Key(42), || {
                        builds.fetch_add(1, Ordering::Relaxed);
                        // Hold the build open long enough that the other
                        // 63 threads arrive while it is in flight.
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        Val { id: 42, weight: 10 }
                    });
                    assert_eq!(out.value.id, 42);
                    out.kind
                })
            })
            .collect();
        let kinds: Vec<OutcomeKind> = handles
            .into_iter()
            .map(|h| h.join().expect("storm thread"))
            .collect();
        assert_eq!(builds.load(Ordering::Relaxed), 1, "kernel built once");
        let coalesced = kinds
            .iter()
            .filter(|k| **k == OutcomeKind::Coalesced)
            .count();
        let built = kinds.iter().filter(|k| **k == OutcomeKind::Built).count();
        assert_eq!(built, 1);
        assert!(
            coalesced >= 63 - built,
            "coalesced={coalesced} kinds={kinds:?}"
        );
        assert!(cache.stats().coalesced >= 63, "{:?}", cache.stats());
    }

    #[test]
    fn failed_build_unblocks_waiters_for_retry() {
        let cache: Arc<ShardedCache<Key, Val>> = Arc::new(ShardedCache::new(1, 1 << 20));
        let c1 = Arc::clone(&cache);
        let panicker = std::thread::spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                c1.get_or_build(&Key(5), || {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    panic!("builder died");
                })
            }));
            assert!(result.is_err());
        });
        // Give the panicker time to install the Building slot.
        std::thread::sleep(std::time::Duration::from_millis(10));
        let out = cache.get_or_build(&Key(5), || Val { id: 5, weight: 1 });
        assert_eq!(out.value.id, 5);
        panicker.join().expect("panicker joined");
    }

    #[test]
    fn clear_empties_resident_entries() {
        let cache: ShardedCache<Key, Val> = ShardedCache::new(4, 1 << 20);
        for i in 0..10 {
            cache.get_or_build(&Key(i), || Val { id: i, weight: 64 });
        }
        assert_eq!(cache.stats().resident_entries, 10);
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats.resident_entries, 0);
        assert_eq!(stats.resident_bytes, 0);
    }

    #[test]
    fn kernel_key_fingerprint_is_deterministic_and_spreads() {
        use crate::ring_model::RingModelConfig;
        let key = KernelKey::of(&RingModelConfig::paper(20.0, 0.5));
        assert_eq!(key.fingerprint(), key.fingerprint());
        // Different quad resolution lands (almost surely) elsewhere.
        let mut other_cfg = RingModelConfig::paper(20.0, 0.5);
        other_cfg.quad_points += 32;
        let other = KernelKey::of(&other_cfg);
        assert_ne!(key.fingerprint(), other.fingerprint());
    }
}
