//! A lock-striped `u64 → V` map, once the server's connection registry.
//!
//! It replaced a process-global `Mutex<HashMap<u64, ConnHandle>>` on the
//! response path, and was itself replaced by the shards' inboxes: an
//! answer now reaches its connection through the inbox of the shard that
//! owns it (see `DESIGN.md` §14.1). No server path uses it; like
//! [`crate::queue`], it stays for the benchmark's layer walk and probes,
//! which link it.
//!
//! [`StripedMap`] splits the table into N independently-locked stripes
//! selected by the low bits of the key, so two callers touching
//! different keys never contend. The map intentionally exposes no guard:
//! lookups happen inside [`StripedMap::with`], which scopes the stripe
//! lock to the closure. `len` is an atomic maintained on insert/remove,
//! so it stays O(1) instead of summing stripes.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// An N-way lock-striped `u64 → V` map. N is rounded up to a power of two
/// so stripe selection is a mask, and keys map to stripes by their low
/// bits (sequential ids spread perfectly).
pub struct StripedMap<V> {
    stripes: Box<[Mutex<HashMap<u64, V>>]>,
    mask: usize,
    len: AtomicUsize,
}

impl<V> StripedMap<V> {
    /// A map with `stripes` stripes (min 1, rounded up to a power of two).
    pub fn new(stripes: usize) -> Self {
        let n = stripes.max(1).next_power_of_two();
        StripedMap {
            stripes: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            mask: n - 1,
            len: AtomicUsize::new(0),
        }
    }

    fn stripe(&self, key: u64) -> &Mutex<HashMap<u64, V>> {
        &self.stripes[(key as usize) & self.mask]
    }

    /// Insert, returning any displaced value.
    pub fn insert(&self, key: u64, value: V) -> Option<V> {
        let prev = self.stripe(key).lock().insert(key, value);
        if prev.is_none() {
            self.len.fetch_add(1, Ordering::Relaxed);
        }
        prev
    }

    /// Remove and return the value, if present.
    pub fn remove(&self, key: u64) -> Option<V> {
        let prev = self.stripe(key).lock().remove(&key);
        if prev.is_some() {
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
        prev
    }

    /// Run `f` on the entry (or `None`) with the stripe locked for exactly
    /// the closure's duration. Callers must not block inside `f` — clone
    /// what you need and do the work after.
    pub fn with<R>(&self, key: u64, f: impl FnOnce(Option<&V>) -> R) -> R {
        let guard = self.stripe(key).lock();
        f(guard.get(&key))
    }

    /// Entries currently present (O(1): maintained atomically).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drain every stripe, returning all values (drain/shutdown path).
    pub fn drain_all(&self) -> Vec<V> {
        let mut out = Vec::new();
        for stripe in self.stripes.iter() {
            let mut guard = stripe.lock();
            let taken = guard.len();
            out.extend(guard.drain().map(|(_, v)| v));
            self.len.fetch_sub(taken, Ordering::Relaxed);
        }
        out
    }

    /// Number of stripes (post power-of-two rounding).
    pub fn stripe_count(&self) -> usize {
        self.mask + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn rounds_stripes_to_power_of_two() {
        assert_eq!(StripedMap::<u32>::new(0).stripe_count(), 1);
        assert_eq!(StripedMap::<u32>::new(1).stripe_count(), 1);
        assert_eq!(StripedMap::<u32>::new(3).stripe_count(), 4);
        assert_eq!(StripedMap::<u32>::new(64).stripe_count(), 64);
    }

    #[test]
    fn insert_with_remove_roundtrip_across_stripes() {
        let map = StripedMap::new(8);
        for key in 0..100u64 {
            assert!(map.insert(key, key * 10).is_none());
        }
        assert_eq!(map.len(), 100);
        for key in 0..100u64 {
            assert_eq!(map.with(key, |v| v.copied()), Some(key * 10));
        }
        assert_eq!(map.with(1000, |v| v.copied()), None);
        assert_eq!(map.remove(42), Some(420));
        assert_eq!(map.remove(42), None);
        assert_eq!(map.len(), 99);
    }

    #[test]
    fn insert_displaces_and_len_stays_exact() {
        let map = StripedMap::new(4);
        assert!(map.insert(7, "a").is_none());
        assert_eq!(map.insert(7, "b"), Some("a"));
        assert_eq!(map.len(), 1);
        assert_eq!(map.with(7, |v| v.copied()), Some("b"));
    }

    #[test]
    fn drain_all_empties_every_stripe() {
        let map = StripedMap::new(4);
        for key in 0..32u64 {
            map.insert(key, key);
        }
        let mut drained = map.drain_all();
        drained.sort_unstable();
        assert_eq!(drained, (0..32).collect::<Vec<u64>>());
        assert_eq!(map.len(), 0);
        assert!(map.is_empty());
    }

    #[test]
    fn concurrent_insert_remove_keeps_len_consistent() {
        let map: Arc<StripedMap<u64>> = Arc::new(StripedMap::new(16));
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let map = Arc::clone(&map);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        let key = t * 10_000 + i;
                        map.insert(key, i);
                        if i % 2 == 0 {
                            map.remove(key);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(map.len(), 4 * 1_000);
    }
}
