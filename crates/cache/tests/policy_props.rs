//! Property-based tests (moca-testkit) of LRU replacement through the
//! public cache API: it must preserve the cache's structural invariants
//! under arbitrary access interleavings and mask shapes.

use moca_testkit::{check, check_shrink, shrink_vec, Config, TestRng};
use moca_testkit::{require, require_eq, require_ne};

use moca_cache::{CacheGeometry, SetAssocCache, WayMask};
use moca_trace::Mode;

/// A non-empty mask over 8 ways.
fn arb_mask(rng: &mut TestRng) -> WayMask {
    WayMask::from_bits(rng.range_u64(1, 256))
}

/// Under any mask, an immediate re-access of the line just accessed is a
/// hit (replacement may not evict the block it just touched for an
/// access to the same line).
#[test]
fn reaccess_is_always_hit() {
    check(
        Config::cases(48),
        |rng| (arb_mask(rng), rng.vec(1, 200, |r| r.range_u64(0, 10_000))),
        |(mask, lines)| {
            let geom = CacheGeometry::new(32 * 8 * 64, 8, 64).expect("valid");
            let mut cache = SetAssocCache::new(geom);
            for (i, line) in lines.iter().enumerate() {
                cache.access(*line, false, Mode::User, i as u64, *mask);
                let again = cache.access(*line, false, Mode::User, i as u64 + 1, *mask);
                require!(again.hit, "immediate re-access must hit");
            }
            Ok(())
        },
    );
}

/// A victim is never the line being inserted, is always previously
/// valid, and vacating it leaves the set within capacity.
#[test]
fn victims_are_sane() {
    check(
        Config::cases(48),
        |rng| rng.vec(32, 300, |r| r.range_u64(0, 64)), // few sets → evictions
        |lines| {
            let geom = CacheGeometry::new(4 * 4 * 64, 4, 64).expect("valid"); // 4 sets
            let mut cache = SetAssocCache::new(geom);
            let mask = WayMask::first(4);
            for (i, line) in lines.iter().enumerate() {
                let res = cache.access(*line, i % 3 == 0, Mode::User, i as u64, mask);
                if let Some(v) = res.victim {
                    require_ne!(v.line, *line);
                    require!(v.access_count >= 1);
                    require!(v.last_touch >= v.inserted_at);
                    require!(v.last_write >= v.inserted_at);
                }
            }
            require!(cache.occupancy(mask) <= 16);
            Ok(())
        },
    );
}

/// Statistics are conserved: every miss either filled an empty way or
/// produced exactly one eviction.
#[test]
fn eviction_conservation() {
    check(
        Config::cases(48),
        |rng| rng.vec(1, 400, |r| r.range_u64(0, 128)),
        |lines| {
            let geom = CacheGeometry::new(8 * 4 * 64, 4, 64).expect("valid"); // 8 sets
            let mut cache = SetAssocCache::new(geom);
            let mask = WayMask::first(4);
            let mut evictions = 0u64;
            for (i, line) in lines.iter().enumerate() {
                if cache
                    .access(*line, false, Mode::User, i as u64, mask)
                    .victim
                    .is_some()
                {
                    evictions += 1;
                }
            }
            let stats = cache.stats();
            require_eq!(stats.evictions(), evictions);
            require_eq!(
                stats.misses(),
                evictions + cache.occupancy(mask),
                "misses = evictions + resident blocks (fills into empty ways)"
            );
            Ok(())
        },
    );
}

/// Drain + re-access: draining a way invalidates exactly its blocks and
/// the drained lines subsequently miss.
#[test]
fn drain_way_consistency() {
    check_shrink(
        Config::cases(48),
        |rng| {
            (
                rng.vec(16, 200, |r| r.range_u64(0, 256)),
                rng.range_u32(0, 4),
            )
        },
        |(lines, way)| {
            // Shrink only the access sequence; keep the way fixed.
            shrink_vec(lines).into_iter().map(|c| (c, *way)).collect()
        },
        |(lines, way)| {
            let geom = CacheGeometry::new(8 * 4 * 64, 4, 64).expect("valid");
            let mut cache = SetAssocCache::new(geom);
            let mask = WayMask::first(4);
            for (i, line) in lines.iter().enumerate() {
                cache.access(*line, false, Mode::User, i as u64, mask);
            }
            let before = cache.occupancy(mask);
            let drained = cache.drain_way(*way);
            require_eq!(cache.occupancy(mask), before - drained.len() as u64);
            for ev in &drained {
                let resident = cache
                    .lookup(ev.line, mask)
                    .and_then(|w| cache.block_at(ev.line % 8, w));
                require!(resident.is_none(), "drained line still resident");
            }
            Ok(())
        },
    );
}
