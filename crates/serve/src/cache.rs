//! A content-addressed LRU cache for computed schedule responses.
//!
//! The paper's online setting re-solves the same deployments every working
//! period; the daemon therefore memoises the **full response body** keyed
//! by the exact request item ([`ItemKey`]): the raw scenario text, the
//! `set` overrides in order, the `audit` flag and the algorithm selector.
//! A body is a pure function of exactly those four fields — the lint
//! warnings it embeds depend on the raw text and the audit flag, not only
//! on the canonical scenario — so nothing coarser is a sound key. Keys
//! compare by full content; the stable FNV-1a digest ([`ItemKey::hash`])
//! is only a fast-reject prefix and shard selector, so hash collisions can
//! never alias two different requests to one cached response.
//!
//! [`CacheKey`] is the canonical scenario identity behind the
//! `scenario_hash` every response body carries; the daemon does not cache
//! by it.

use cool_common::hash::{fnv1a_64, StableHasher};

/// The daemon's schedule-cache key: an unambiguous encoding of one exact
/// request item, with its digest for fast rejection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ItemKey {
    /// Stable FNV-1a digest of [`ItemKey::bytes`]; picks the cache shard.
    pub hash: u64,
    /// Length-prefixed fields: scenario text, override count, each
    /// override key and value in request order, the audit flag byte, and
    /// the algorithm selector. Every variable-length field carries its
    /// length, so no two distinct items share an encoding.
    pub bytes: Vec<u8>,
}

impl ItemKey {
    /// Encodes one request item. `selector` is the parameterised
    /// algorithm selector, e.g. `lp-rounding:16`.
    #[must_use]
    pub fn new(
        scenario_text: &str,
        overrides: &[(String, String)],
        audit: bool,
        selector: &str,
    ) -> Self {
        fn field(out: &mut Vec<u8>, bytes: &[u8]) {
            out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            out.extend_from_slice(bytes);
        }
        let mut bytes = Vec::with_capacity(scenario_text.len() + selector.len() + 32);
        field(&mut bytes, scenario_text.as_bytes());
        bytes.extend_from_slice(&(overrides.len() as u64).to_le_bytes());
        for (key, value) in overrides {
            field(&mut bytes, key.as_bytes());
            field(&mut bytes, value.as_bytes());
        }
        bytes.push(u8::from(audit));
        field(&mut bytes, selector.as_bytes());
        ItemKey {
            hash: fnv1a_64(&bytes),
            bytes,
        }
    }
}

/// The canonical scenario identity: digest for fast rejection, full
/// canonical content for equality. Its digest is the `scenario_hash` of
/// every response body; two items that differ only in surface syntax share
/// it while still caching under distinct [`ItemKey`]s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheKey {
    /// Stable FNV-1a digest of (canonical scenario, algorithm); rendered
    /// as the response's `scenario_hash`.
    pub hash: u64,
    /// Canonical scenario normal form ([`cool_scenario::Scenario::canonical`]).
    pub canonical: String,
    /// Algorithm selector including its parameters, e.g. `lp-rounding:16`.
    pub algorithm: String,
}

impl CacheKey {
    /// Builds the key and its digest from the canonical scenario form and
    /// the parameterised algorithm selector.
    #[must_use]
    pub fn new(canonical: String, algorithm: String) -> Self {
        let mut hasher = StableHasher::new();
        hasher.write(canonical.as_bytes());
        hasher.write_sep();
        hasher.write(algorithm.as_bytes());
        CacheKey {
            hash: hasher.finish(),
            canonical,
            algorithm,
        }
    }
}

/// A fixed-capacity least-recently-used map.
///
/// Entries are held most-recent-first; `get` refreshes recency, `insert`
/// evicts the least recently used entry once `capacity` is exceeded. The
/// linear scan is deliberate: service caches hold at most a few hundred
/// entries, where a `Vec` beats pointer-chasing structures.
#[derive(Debug)]
pub struct LruCache<K: Eq, V> {
    capacity: usize,
    /// Most recently used first.
    entries: Vec<(K, V)>,
}

impl<K: Eq, V: Clone> LruCache<K, V> {
    /// A cache retaining at most `capacity` entries (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity: capacity.max(1),
            entries: Vec::new(),
        }
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entry is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks `key` up, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        let idx = self.entries.iter().position(|(k, _)| k == key)?;
        let entry = self.entries.remove(idx);
        let value = entry.1.clone();
        self.entries.insert(0, entry);
        Some(value)
    }

    /// Inserts (or replaces) `key`, returning the entry evicted to make
    /// room, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(idx) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(idx);
        }
        self.entries.insert(0, (key, value));
        if self.entries.len() > self.capacity {
            self.entries.pop()
        } else {
            None
        }
    }

    /// Keys from most to least recently used (for tests/introspection).
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_one_keeps_only_the_latest() {
        let mut cache = LruCache::new(1);
        assert!(cache.insert("a", 1).is_none());
        let evicted = cache.insert("b", 2);
        assert_eq!(evicted, Some(("a", 1)));
        assert_eq!(cache.get(&"a"), None);
        assert_eq!(cache.get(&"b"), Some(2));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn get_refreshes_recency() {
        let mut cache = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        // Touch `a`; inserting `c` must now evict `b`.
        assert_eq!(cache.get(&"a"), Some(1));
        let evicted = cache.insert("c", 3);
        assert_eq!(evicted, Some(("b", 2)));
        assert_eq!(cache.get(&"a"), Some(1));
        assert_eq!(cache.get(&"c"), Some(3));
    }

    #[test]
    fn reinsert_replaces_without_growth() {
        let mut cache = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("a", 10);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&"a"), Some(10));
    }

    #[test]
    fn replace_at_capacity_does_not_evict() {
        // Re-inserting an existing key while the cache is full must
        // replace in place: no eviction, and the other resident survives.
        let mut cache = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        assert_eq!(cache.len(), cache.capacity());
        let evicted = cache.insert("a", 10);
        assert_eq!(evicted, None, "replacement must not evict");
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&"a"), Some(10));
        assert_eq!(cache.get(&"b"), Some(2), "bystander entry survives");
    }

    #[test]
    fn greedy_and_greedy_lazy_selectors_are_distinct_keys() {
        // Same canonical scenario, different algorithm selector → two
        // cache entries that never alias.
        let canonical = "sensors = 10\n".to_string();
        let greedy = CacheKey::new(canonical.clone(), "greedy".into());
        let lazy = CacheKey::new(canonical, "greedy-lazy".into());
        assert_ne!(greedy, lazy);
        assert_ne!(greedy.hash, lazy.hash);
        let mut cache = LruCache::new(4);
        cache.insert(greedy.clone(), "body-greedy");
        cache.insert(lazy.clone(), "body-lazy");
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&greedy), Some("body-greedy"));
        assert_eq!(cache.get(&lazy), Some("body-lazy"));
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut cache = LruCache::new(0);
        assert_eq!(cache.capacity(), 1);
        cache.insert("a", 1);
        assert_eq!(cache.get(&"a"), Some(1));
    }

    #[test]
    fn keys_report_recency_order() {
        let mut cache = LruCache::new(3);
        cache.insert(1, ());
        cache.insert(2, ());
        cache.insert(3, ());
        cache.get(&1);
        let order: Vec<i32> = cache.keys().copied().collect();
        assert_eq!(order, vec![1, 3, 2]);
    }

    #[test]
    fn cache_key_equality_is_content_not_hash() {
        let a = CacheKey::new("sensors=1\n".into(), "greedy".into());
        let b = CacheKey::new("sensors=1\n".into(), "greedy".into());
        let c = CacheKey::new("sensors=1\n".into(), "lp-rounding:16".into());
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Same concatenated bytes, different field split → different keys.
        let d = CacheKey::new("sensors=1\ngr".into(), "eedy".into());
        assert_ne!(a, d);
        assert_ne!(a.hash, d.hash, "separator keeps digests apart too");
    }

    fn pairs(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect()
    }

    #[test]
    fn item_key_field_boundaries_are_unambiguous() {
        let base = ItemKey::new("sensors = 1\n", &pairs(&[("seed", "7")]), false, "greedy");
        assert_eq!(
            base,
            ItemKey::new("sensors = 1\n", &pairs(&[("seed", "7")]), false, "greedy")
        );
        // Moving bytes across a field boundary changes the key.
        let shifted = [
            ItemKey::new("sensors = 1\nseed", &pairs(&[("", "7")]), false, "greedy"),
            ItemKey::new("sensors = 1\n", &pairs(&[("see", "d7")]), false, "greedy"),
            ItemKey::new("sensors = 1\n", &pairs(&[("seed", "7g")]), false, "reedy"),
            ItemKey::new("sensors = 1\n", &[], false, "greedy"),
            ItemKey::new("sensors = 1\n", &pairs(&[("seed", "7")]), true, "greedy"),
        ];
        for other in &shifted {
            assert_ne!(&base, other);
            assert_ne!(base.hash, other.hash);
        }
    }
}
