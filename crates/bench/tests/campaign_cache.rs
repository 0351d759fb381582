//! Cache-correctness properties of the placement-keyed [`ScheduleCache`]
//! the traffic layer builds through (`mha_bench::traffic::cached_builder`).
//!
//! Two bars: distinct build configurations must **never** share a cache
//! entry (the [`ConfigKey`] is structural — a digest collision can at
//! worst co-locate two keys in one shard, never alias them), and repeated
//! lookups must reuse the first build's `Arc` bit-exactly, with exact
//! hit/miss accounting.

use std::sync::Arc;

use mha_bench::campaign::{ConfigKey, ScheduleCache};
use mha_bench::pt2pt_rails_schedule;
use mha_collectives::mha::{InterAlgo, Offload};
use mha_collectives::{AlgoConfig, Family, Library};
use mha_sched::{FrozenSchedule, ProcGrid};
use mha_simnet::ClusterSpec;
use mha_traffic::placement_digest;
use proptest::prelude::*;

/// Width of the shared cluster placements are drawn from.
const CLUSTER_NODES: u32 = 16;

/// A random point of the [`AlgoConfig`] design space — every field the
/// digest (and hence [`ConfigKey::for_algo`]'s salt) must separate.
fn arb_algo_config() -> impl Strategy<Value = AlgoConfig> {
    let family = prop_oneof![
        Just(Family::Ring),
        Just(Family::RecursiveDoubling),
        Just(Family::Bruck),
        Just(Family::DirectSpread),
        Just(Family::SingleLeader),
        (1u32..=4).prop_map(|groups| Family::MultiLeader { groups }),
        Just(Family::MhaIntra),
        Just(Family::MhaInter),
        Just(Family::Library(Library::HpcX)),
        Just(Family::Library(Library::Mvapich2X)),
    ]
    .boxed();
    let offload = prop_oneof![
        Just(Offload::None),
        Just(Offload::Auto),
        (1u32..=8).prop_map(Offload::Fixed),
    ]
    .boxed();
    let chunk = prop_oneof![Just(None), (1u32..=8).prop_map(Some)].boxed();
    let stripe = prop_oneof![Just(None), (1usize..=(1 << 18)).prop_map(Some)].boxed();
    (
        family,
        any::<bool>(),
        any::<bool>(),
        offload,
        chunk,
        stripe,
        proptest::collection::vec(0u8..4, 0..3),
    )
        .prop_map(
            |(family, rd_inter, overlap, offload, chunk, stripe_threshold, down_rails)| {
                AlgoConfig {
                    family,
                    inter: if rd_inter {
                        InterAlgo::RecursiveDoubling
                    } else {
                        InterAlgo::Ring
                    },
                    overlap,
                    offload,
                    chunk,
                    stripe_threshold,
                    down_rails,
                }
            },
        )
}

/// A random job grid (1–4 nodes × 1–8 ppn) with a whole-node placement of
/// matching width on the shared cluster.
fn arb_placed_grid() -> impl Strategy<Value = (ProcGrid, Vec<u32>)> {
    (1u32..5, 1u32..9).prop_flat_map(|(nodes, ppn)| {
        let w = nodes as usize;
        proptest::collection::btree_set(0u32..CLUSTER_NODES, w..=w)
            .prop_map(move |s| (ProcGrid::new(nodes, ppn), s.into_iter().collect::<Vec<_>>()))
    })
}

/// A random traffic-layer key: [`ConfigKey::for_algo`] of a random config,
/// grid, message size and spec, extended with the placement digest of the
/// grid's node subset — every field the key covers can vary.
fn arb_key() -> impl Strategy<Value = ConfigKey> {
    (
        arb_algo_config(),
        arb_placed_grid(),
        1usize..=(1 << 16),
        any::<bool>(),
    )
        .prop_map(|(cfg, (grid, nodes), msg, single_rail)| {
            let spec = if single_rail {
                ClusterSpec::thor_single_rail()
            } else {
                ClusterSpec::thor()
            };
            let cluster = ProcGrid::new(CLUSTER_NODES, grid.ppn());
            ConfigKey::for_algo(&cfg, grid, msg, &spec)
                .with_placement(placement_digest(cluster, &nodes))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Structurally distinct keys get distinct entries (no aliasing, one
    /// build each); repeated lookups of the same key share the original
    /// `Arc` without re-running the build. Counters stay exact throughout.
    #[test]
    fn distinct_configs_never_share_an_entry(
        keys in proptest::collection::vec(arb_key(), 1..12),
    ) {
        let mut distinct: Vec<ConfigKey> = Vec::new();
        for k in keys {
            if !distinct.contains(&k) {
                distinct.push(k);
            }
        }
        let cache = ScheduleCache::new(true);
        let mut built: Vec<Arc<FrozenSchedule>> = Vec::new();
        for k in &distinct {
            built.push(cache.get_or_build(k, || Ok(pt2pt_rails_schedule(k.msg))).unwrap());
        }
        prop_assert_eq!(cache.len(), distinct.len());
        prop_assert_eq!(cache.misses(), distinct.len() as u64);
        prop_assert_eq!(cache.hits(), 0);
        for i in 0..distinct.len() {
            for j in 0..i {
                prop_assert!(
                    !Arc::ptr_eq(&built[i], &built[j]),
                    "keys {:?} and {:?} aliased one schedule",
                    distinct[i],
                    distinct[j]
                );
            }
        }
        // Second lookups: all hits, same Arcs, and the build closure must
        // not run again (it would fail the test by erroring).
        for (k, first) in distinct.iter().zip(&built) {
            let again = cache
                .get_or_build(k, || Err("cache re-ran a memoized build".into()))
                .unwrap();
            prop_assert!(Arc::ptr_eq(first, &again));
        }
        prop_assert_eq!(cache.hits(), distinct.len() as u64);
        prop_assert_eq!(cache.misses(), distinct.len() as u64);
    }

    /// Flipping any single field of a key — family, nodes, ppn, msg, spec
    /// digest, salt or placement — yields a different entry.
    #[test]
    fn every_key_field_separates_entries(base in arb_key()) {
        let mut variants = vec![base.clone()];
        let mut v = base.clone();
        v.family.push('!');
        variants.push(v);
        let mut v = base.clone();
        v.nodes += 1;
        variants.push(v);
        let mut v = base.clone();
        v.ppn += 1;
        variants.push(v);
        let mut v = base.clone();
        v.msg += 1;
        variants.push(v);
        let mut v = base.clone();
        v.spec_digest ^= 1;
        variants.push(v);
        let mut v = base.clone();
        v.salt ^= 1;
        variants.push(v);
        variants.push(base.clone().with_placement(base.placement ^ 1));

        let cache = ScheduleCache::new(true);
        for k in &variants {
            cache.get_or_build(k, || Ok(pt2pt_rails_schedule(64))).unwrap();
        }
        prop_assert_eq!(cache.len(), variants.len());
        prop_assert_eq!(cache.misses(), variants.len() as u64);
        prop_assert_eq!(cache.hits(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Two distinct [`AlgoConfig`]s must never alias a cache entry (their
    /// digest is the key's salt, so a collision would silently serve the
    /// wrong schedule), and equal configs must share one entry. Also pins
    /// the derivation: `ConfigKey::for_algo` == kv-round-tripped config's
    /// key, so the serialized `.mtab` form and the in-memory form hash
    /// alike.
    #[test]
    fn distinct_algo_configs_never_alias_a_cache_entry(
        a in arb_algo_config(),
        b in arb_algo_config(),
        msg in 1usize..=(1 << 14),
    ) {
        let spec = ClusterSpec::thor();
        let grid = ProcGrid::new(4, 4);
        let ka = ConfigKey::for_algo(&a, grid, msg, &spec);
        let kb = ConfigKey::for_algo(&b, grid, msg, &spec);
        prop_assert_eq!(a == b, ka == kb, "key equality must mirror config equality\n a={:?}\n b={:?}", a, b);

        // The text round trip preserves the key (one hash path from the
        // .mtab entry payload to the schedule cache).
        let back = AlgoConfig::parse_kv(&a.to_kv()).unwrap();
        prop_assert_eq!(&ka, &ConfigKey::for_algo(&back, grid, msg, &spec));

        let cache = ScheduleCache::new(true);
        let sa = cache.get_or_build(&ka, || Ok(pt2pt_rails_schedule(8))).unwrap();
        let sb = cache.get_or_build(&kb, || Ok(pt2pt_rails_schedule(16))).unwrap();
        if a == b {
            prop_assert!(Arc::ptr_eq(&sa, &sb), "equal configs must share the entry");
            prop_assert_eq!(cache.misses(), 1);
            prop_assert_eq!(cache.hits(), 1);
        } else {
            prop_assert!(!Arc::ptr_eq(&sa, &sb), "distinct configs must not alias");
            prop_assert_eq!(cache.misses(), 2);
            prop_assert_eq!(cache.len(), 2);
        }
    }
}
