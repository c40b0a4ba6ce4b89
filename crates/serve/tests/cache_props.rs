//! Cache-soundness properties for the serving layer.
//!
//! The caching contract has two halves: (1) a cache hit must be
//! **byte-identical** to the cold compute it replaced — which holds only
//! because a response body is a pure function of the **exact request
//! item**: its scenario text, its overrides in order, its audit flag and
//! its algorithm selector (the embedded lint warnings depend on the raw
//! text and the audit flag, not only on the canonical scenario); (2) the
//! daemon keys its cache by exactly that item ([`api::item_key`]), so two
//! items that differ in any one field — including two texts with one
//! canonical form — never alias to one cached response, whatever their
//! digests do.

use cool_serve::api::{self, Algorithm, ScheduleItem};
use cool_serve::cache::LruCache;
use proptest::prelude::*;

/// A request whose parameters arrive entirely through `--set` overrides,
/// mirroring `{"scenario": "...", "set": {...}}` bodies.
fn item_with(sensors: usize, targets: usize, seed: u64, algorithm: Algorithm) -> ScheduleItem {
    ScheduleItem {
        scenario_text: "region = 150\nradius = 60\n".to_string(),
        overrides: vec![
            ("sensors".to_string(), sensors.to_string()),
            ("targets".to_string(), targets.to_string()),
            ("seed".to_string(), seed.to_string()),
        ],
        algorithm,
        audit: false,
    }
}

/// One single-field edit of an item. `0` leaves it identical; every other
/// choice changes exactly one field of the item key.
fn mutate(item: &ScheduleItem, choice: usize) -> ScheduleItem {
    let mut out = item.clone();
    match choice {
        0 => {}
        // Text bytes that keep the canonical form: a comment, a reordering.
        1 => out.scenario_text = format!("# same deployment\n{}", item.scenario_text),
        2 => out.scenario_text = "radius = 60\nregion = 150\n".to_string(),
        // Text bytes that change the canonical form.
        3 => out.scenario_text = "region = 151\nradius = 60\n".to_string(),
        // An override key, value, and order.
        4 => out.overrides[1].0 = " targets".to_string(),
        5 => out.overrides[2].1.push('0'),
        6 => out.overrides.swap(0, 1),
        // The algorithm selector and the audit flag.
        7 => out.algorithm = Algorithm::GreedyLazy,
        _ => out.audit = !item.audit,
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Serving from cache returns exactly the bytes a cold compute would
    /// have produced, for every algorithm and any override values.
    #[test]
    fn cache_hits_are_byte_identical_to_cold_computes(
        sensors in 2usize..16,
        targets in 1usize..4,
        seed in any::<u64>(),
        algo in prop::sample::select(vec![0usize, 1, 2]),
    ) {
        let algorithm = match algo {
            0 => Algorithm::Greedy,
            1 => Algorithm::LpRounding { trials: 3 },
            _ => Algorithm::Horizon,
        };
        let item = item_with(sensors, targets, seed, algorithm);
        let (scenario, warnings) = api::resolve_and_lint(&item).unwrap();
        let cold = api::compute_response(&scenario, &item.algorithm, &warnings).unwrap();
        let again = api::compute_response(&scenario, &item.algorithm, &warnings).unwrap();
        prop_assert_eq!(&cold, &again, "cold computes must be deterministic");

        let mut cache = LruCache::new(4);
        cache.insert(api::item_key(&item), cold.clone());
        let hit = cache
            .get(&api::item_key(&item))
            .expect("key round-trips");
        prop_assert_eq!(hit, cold);
    }

    /// Item keying: identical items share a key; items differing in any
    /// one field — text bytes (even with an equal canonical form), an
    /// override key, value or order, the algorithm, or the audit flag —
    /// never do, and a cache holding both answers each with its own body.
    #[test]
    fn items_differing_in_any_field_never_alias(
        sensors in 1usize..40,
        seed in 0u64..1000,
        audit in any::<bool>(),
    ) {
        let mut a = item_with(sensors, 2, seed, Algorithm::Greedy);
        a.audit = audit;
        let ka = api::item_key(&a);
        for choice in 0..9 {
            let b = mutate(&a, choice);
            let kb = api::item_key(&b);
            if choice == 0 {
                prop_assert_eq!(&ka, &kb);
                prop_assert_eq!(ka.hash, kb.hash);
                continue;
            }
            prop_assert_ne!(&ka, &kb, "edit {} aliased", choice);
            let mut cache = LruCache::new(8);
            cache.insert(ka.clone(), "body-a");
            cache.insert(kb.clone(), "body-b");
            prop_assert_eq!(cache.get(&ka), Some("body-a"));
            prop_assert_eq!(cache.get(&kb), Some("body-b"));
            if matches!(choice, 1 | 2) {
                // The canonical identity cannot tell these apart; the
                // item key can.
                let (sa, _) = api::resolve_and_lint(&a).unwrap();
                let (sb, _) = api::resolve_and_lint(&b).unwrap();
                prop_assert_eq!(
                    api::cache_key(&sa, &a.algorithm),
                    api::cache_key(&sb, &b.algorithm)
                );
            }
        }
    }

    /// A capacity-1 cache always holds exactly the most recent insert.
    #[test]
    fn capacity_one_holds_only_the_latest_insert(
        keys in proptest::collection::vec(0u8..8, 1..20),
    ) {
        let mut cache = LruCache::new(1);
        for &k in &keys {
            cache.insert(k, u16::from(k) * 3);
        }
        prop_assert_eq!(cache.len(), 1);
        let last = *keys.last().unwrap();
        prop_assert_eq!(cache.get(&last), Some(u16::from(last) * 3));
        for k in 0u8..8 {
            if k != last {
                prop_assert_eq!(cache.get(&k), None);
            }
        }
    }
}
