//! Differential suite: the single-pass MRC profiler against full LRU
//! cache simulation.
//!
//! The profiler's claim is *exactness*, not approximation: for any set
//! count, any way count `w` it covers, and any request stream, the
//! per-mode hit/miss counts it reports for `w` ways must equal the
//! [`CacheStats`] of a [`SetAssocCache`] running the same stream with
//! LRU replacement — including when the `w` ways are an arbitrary
//! (non-contiguous) [`WayMask`] carved out of a wider physical cache,
//! which is exactly how the partitioned designs use the engine. This
//! suite pins that field by field over randomized geometries, masks,
//! and traces.

use moca_cache::mrc::MrcProfiler;
use moca_cache::{CacheGeometry, L2Cause, L2Request, SetAssocCache, WayMask};
use moca_testkit::{check, require_eq, Config, TestRng};
use moca_trace::{AccessKind, Mode};

/// One generated request: line, write flag, requester mode.
type Req = (u64, bool, bool);

fn to_request(&(line, write, kernel): &Req) -> L2Request {
    L2Request {
        line,
        write,
        mode: if kernel { Mode::Kernel } else { Mode::User },
        cause: if write {
            L2Cause::Writeback
        } else {
            L2Cause::Demand(AccessKind::Load)
        },
    }
}

/// A random mask of exactly `count` member ways out of `phys` physical
/// ways — LRU inside such a mask must behave as a `count`-way cache.
fn arb_mask_with_count(rng: &mut TestRng, phys: u32, count: u32) -> WayMask {
    let mut m = WayMask::EMPTY;
    while m.count() < count {
        m = m.with(rng.range_u32(0, phys));
    }
    m
}

#[derive(Debug, Clone)]
struct Case {
    sets: u32,
    max_ways: u32,
    phys_ways: u32,
    /// `masks[w-1]` has exactly `w` member ways of the physical cache.
    masks: Vec<WayMask>,
    trace: Vec<Req>,
}

fn arb_case(rng: &mut TestRng) -> Case {
    let sets = 1u32 << rng.range_u32(0, 5); // 1..16 sets
    let max_ways = rng.range_u32(1, 9); // 1..8 tracked ways
    let phys_ways = rng.range_u32(max_ways, 13); // up to 12 physical ways
    let masks = (1..=max_ways)
        .map(|w| arb_mask_with_count(rng, phys_ways, w))
        .collect();
    // A line universe a few times the largest capacity keeps reuse
    // frequent without making every access a cold miss.
    let universe = u64::from(sets) * u64::from(max_ways) * 3;
    let trace = rng.vec(100, 600, |r| (r.range_u64(0, universe), r.bool(), r.bool()));
    Case {
        sets,
        max_ways,
        phys_ways,
        masks,
        trace,
    }
}

#[test]
fn mrc_matches_simulated_lru_for_every_way_count_and_mask() {
    check(Config::cases(64), arb_case, |case| {
        let mut prof =
            MrcProfiler::new(&[case.sets], case.max_ways).expect("generated lane is valid");
        for req in &case.trace {
            prof.observe(&to_request(req));
        }
        let curve = prof.curve(case.sets).expect("lane exists");

        for w in 1..=case.max_ways {
            let mask = case.masks[w as usize - 1];
            let geom = CacheGeometry::from_sets(u64::from(case.sets), case.phys_ways, 64)
                .expect("generated geometry is valid");
            let mut sim = SetAssocCache::new(geom);
            // Write hits are not a CacheStats field; tally them from the
            // per-access results instead.
            let mut write_hits = [0u64; 2];
            for (i, req) in case.trace.iter().enumerate() {
                let r = to_request(req);
                let res = sim.access(r.line, r.write, r.mode, i as u64, mask);
                if res.hit && r.write {
                    write_hits[r.mode.index()] += 1;
                }
            }
            for mode in [Mode::User, Mode::Kernel] {
                let sim_counts = sim.stats().mode(mode);
                require_eq!(
                    curve.hits(w, mode),
                    sim_counts.hits,
                    "hits diverged at w={w} mask={mask} mode={mode:?}"
                );
                require_eq!(
                    curve.misses(w, mode),
                    sim_counts.misses,
                    "misses diverged at w={w} mask={mask} mode={mode:?}"
                );
                require_eq!(
                    curve.accesses(mode),
                    sim_counts.accesses(),
                    "access totals diverged at w={w} mode={mode:?}"
                );
                require_eq!(
                    curve.writes(mode),
                    sim_counts.writes,
                    "write totals diverged at w={w} mode={mode:?}"
                );
                require_eq!(
                    curve.write_hits(w, mode),
                    write_hits[mode.index()],
                    "write hits diverged at w={w} mask={mask} mode={mode:?}"
                );
                // Write-allocate LRU fills on every miss, so the curve's
                // miss count is also its fill count.
                require_eq!(curve.misses(w, mode), sim_counts.fills);
            }
        }
        Ok(())
    });
}

#[test]
fn one_profiler_scores_a_whole_grid_of_set_counts() {
    check(
        Config::cases(32),
        |rng| {
            let max_ways = rng.range_u32(1, 7);
            let universe = 96u64;
            let trace: Vec<Req> =
                rng.vec(150, 500, |r| (r.range_u64(0, universe), r.bool(), r.bool()));
            (max_ways, trace)
        },
        |&(max_ways, ref trace)| {
            let set_grid = [1u32, 2, 4, 8, 16];
            let mut prof = MrcProfiler::new(&set_grid, max_ways).expect("grid lanes are valid");
            for req in trace {
                prof.observe(&to_request(req));
            }
            for &sets in &set_grid {
                let curve = prof.curve(sets).expect("lane exists");
                for w in 1..=max_ways {
                    let geom = CacheGeometry::from_sets(u64::from(sets), w, 64)
                        .expect("generated geometry is valid");
                    let mut sim = SetAssocCache::new(geom);
                    let mask = WayMask::first(w);
                    for (i, req) in trace.iter().enumerate() {
                        let r = to_request(req);
                        sim.access(r.line, r.write, r.mode, i as u64, mask);
                    }
                    require_eq!(
                        curve.total_hits(w),
                        sim.stats().hits(),
                        "grid point sets={sets} w={w} diverged"
                    );
                    require_eq!(curve.total_misses(w), sim.stats().misses());
                }
            }
            Ok(())
        },
    );
}
