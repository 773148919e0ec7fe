//! A sharded, string-keyed concurrent map — the substrate of
//! [`crate::registry::SessionRegistry`], extracted so the model-check suite
//! can explore shard locking against concurrent access.
//!
//! Keys are spread over a fixed set of shards by a deterministic FNV-1a
//! hash, so requests against *different* keys rarely share a lock and shard
//! assignment is stable across runs. Each shard is an ordered `BTreeMap`,
//! so whole-map enumeration ([`ShardedMap::keys`]) is deterministic without
//! a sort-per-shard.

use std::collections::BTreeMap;

use aqua_telemetry::hash::fnv1a64;
use aqua_telemetry::sync::{Mutex, MutexGuard};

/// A concurrent map of `String → V` with per-shard locking.
pub struct ShardedMap<V> {
    shards: Vec<Mutex<BTreeMap<String, V>>>,
}

impl<V> ShardedMap<V> {
    /// A map with `shards` independent lock domains (minimum 1).
    pub fn new(shards: usize) -> ShardedMap<V> {
        ShardedMap {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(BTreeMap::new()))
                .collect(),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<BTreeMap<String, V>> {
        // Stable across runs so shard assignment is deterministic.
        let h = fnv1a64(key.as_bytes());
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    fn lock(m: &Mutex<BTreeMap<String, V>>) -> MutexGuard<'_, BTreeMap<String, V>> {
        // A worker that panicked mid-request must not take the whole map
        // down with it.
        m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Inserts (or replaces) the value under `key`, returning the previous
    /// value if any.
    pub fn insert(&self, key: impl Into<String>, value: V) -> Option<V> {
        let key = key.into();
        Self::lock(self.shard(&key)).insert(key, value)
    }

    /// Removes the value under `key`.
    pub fn remove(&self, key: &str) -> Option<V> {
        Self::lock(self.shard(key)).remove(key)
    }

    /// Runs `f` with exclusive access to the value under `key`; `None` when
    /// absent. Only the owning shard is locked for the duration.
    pub fn with<R>(&self, key: &str, f: impl FnOnce(&mut V) -> R) -> Option<R> {
        let mut shard = Self::lock(self.shard(key));
        shard.get_mut(key).map(f)
    }

    /// All keys, sorted.
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| Self::lock(s).keys().cloned().collect::<Vec<_>>())
            .collect();
        keys.sort();
        keys
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| Self::lock(s).len()).sum()
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_with_remove_roundtrip() {
        let map: ShardedMap<u32> = ShardedMap::new(4);
        assert!(map.is_empty());
        assert!(map.insert("a", 1).is_none());
        assert_eq!(map.insert("a", 2), Some(1));
        map.insert("b", 3);
        assert_eq!(map.len(), 2);
        assert_eq!(map.keys(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(map.with("a", |v| *v + 10), Some(12));
        assert!(map.with("missing", |_| ()).is_none());
        assert_eq!(map.remove("a"), Some(2));
        assert!(map.remove("a").is_none());
    }

    #[test]
    fn with_mutations_are_visible() {
        let map: ShardedMap<Vec<u32>> = ShardedMap::new(2);
        map.insert("k", vec![]);
        for i in 0..5 {
            map.with("k", |v| v.push(i));
        }
        assert_eq!(map.with("k", |v| v.clone()), Some(vec![0, 1, 2, 3, 4]));
    }
}
