//! Differential suite: the LRU-stack L1 pair against the general cache
//! engine.
//!
//! [`L1Pair`] keeps each set as an MRU-ordered tag stack with one byte
//! of dirty/owner state per entry. Its claim is that this is exactly a
//! write-back, write-allocate LRU cache: every access must produce the
//! same hit, demand and writeback that a pair of (LRU)
//! [`SetAssocCache`]s with the full way mask produces,
//! and the two caches' [`CacheStats`] must agree field by field. This
//! suite pins that over random geometries, app streams, seeds, lengths
//! and adversarial small-universe streams.

use moca_cache::{
    CacheGeometry, CacheStats, L1Outcome, L1Pair, L2Cause, L2Request, SetAssocCache, WayMask,
};
use moca_testkit::{check, require_eq, Config, TestRng};
use moca_trace::{AccessKind, AppProfile, MemoryAccess, Mode, TraceGenerator};

/// The oracle: two general caches filtering like the L1 pair.
struct Oracle {
    icache: SetAssocCache,
    dcache: SetAssocCache,
    line_bytes: u64,
}

impl Oracle {
    fn new(igeom: CacheGeometry, dgeom: CacheGeometry) -> Self {
        Oracle {
            icache: SetAssocCache::new(igeom),
            dcache: SetAssocCache::new(dgeom),
            line_bytes: igeom.line_bytes(),
        }
    }

    fn access(&mut self, access: &MemoryAccess, now: u64) -> L1Outcome {
        let line = access.line(self.line_bytes);
        let cache = if access.kind.is_ifetch() {
            &mut self.icache
        } else {
            &mut self.dcache
        };
        let mask = WayMask::first(cache.geometry().ways());
        let res = cache.access(line, access.kind.is_write(), access.mode, now, mask);
        if res.hit {
            return L1Outcome {
                hit: true,
                demand: None,
                writeback: None,
            };
        }
        L1Outcome {
            hit: false,
            demand: Some(L2Request {
                line,
                write: false,
                mode: access.mode,
                cause: L2Cause::Demand(access.kind),
            }),
            writeback: res.victim.filter(|v| v.dirty).map(|v| L2Request {
                line: v.line,
                write: true,
                mode: v.owner,
                cause: L2Cause::Writeback,
            }),
        }
    }

    fn stats(&self) -> (CacheStats, CacheStats) {
        (*self.icache.stats(), *self.dcache.stats())
    }
}

/// A random power-of-two-set geometry: 16–512 sets, 1–8 ways.
fn arb_geometry(rng: &mut TestRng, line_bytes: u64) -> CacheGeometry {
    let sets = 16u64 << rng.range_u32(0, 6);
    let ways = rng.range_u32(1, 9);
    CacheGeometry::from_sets(sets, ways, line_bytes).expect("generated geometry is valid")
}

/// Both geometries (sharing a line size) plus a stream description.
#[derive(Debug, Clone)]
struct Case {
    igeom: CacheGeometry,
    dgeom: CacheGeometry,
    stream: Stream,
}

#[derive(Debug, Clone)]
enum Stream {
    /// `refs` references of an app's generated stream.
    App {
        app: &'static str,
        seed: u64,
        refs: usize,
    },
    /// Random references over a few times the caches' capacity, so
    /// evictions (cross-mode ones included) are frequent.
    Random { seed: u64, refs: usize },
}

impl Stream {
    fn accesses(&self, igeom: CacheGeometry, dgeom: CacheGeometry) -> Vec<MemoryAccess> {
        match *self {
            Stream::App { app, seed, refs } => {
                let profile = AppProfile::by_name(app).expect("suite app");
                TraceGenerator::new(&profile, seed).take(refs).collect()
            }
            Stream::Random { seed, refs } => {
                let mut rng = TestRng::new(seed);
                let lines = 3
                    * (igeom.sets() * u64::from(igeom.ways()))
                        .max(dgeom.sets() * u64::from(dgeom.ways()));
                let kinds = [AccessKind::InstrFetch, AccessKind::Load, AccessKind::Store];
                (0..refs)
                    .map(|_| {
                        let addr = rng.range_u64(0, lines) * igeom.line_bytes();
                        let kind = *rng.pick(&kinds);
                        let mode = if rng.bool() { Mode::Kernel } else { Mode::User };
                        MemoryAccess::new(addr, addr, kind, mode)
                    })
                    .collect()
            }
        }
    }
}

fn arb_case(rng: &mut TestRng) -> Case {
    let line_bytes = 32u64 << rng.range_u32(0, 3);
    let igeom = arb_geometry(rng, line_bytes);
    let dgeom = arb_geometry(rng, line_bytes);
    let seed = rng.next_u64();
    let stream = if rng.below(4) == 0 {
        Stream::Random {
            seed,
            refs: rng.range_usize(1, 20_000),
        }
    } else {
        Stream::App {
            app: rng.pick(&AppProfile::suite()).name,
            seed,
            refs: rng.range_usize(1, 60_000),
        }
    };
    Case {
        igeom,
        dgeom,
        stream,
    }
}

#[test]
fn lru_stack_pair_matches_the_general_engine_access_by_access() {
    check(Config::cases(48), arb_case, |case| {
        let mut l1 = L1Pair::from_geometries(case.igeom, case.dgeom);
        let mut oracle = Oracle::new(case.igeom, case.dgeom);
        for (i, access) in case
            .stream
            .accesses(case.igeom, case.dgeom)
            .iter()
            .enumerate()
        {
            require_eq!(
                l1.access(access),
                oracle.access(access, i as u64),
                "outcome diverged at reference {i} ({access:?})"
            );
        }
        let (istats, dstats) = oracle.stats();
        require_eq!(*l1.icache(), istats, "L1I statistics diverged");
        require_eq!(*l1.dcache(), dstats, "L1D statistics diverged");
        Ok(())
    });
}

#[test]
fn default_pair_matches_the_general_engine_on_every_suite_app() {
    let geom = CacheGeometry::new(32 << 10, 2, 64).expect("default L1 geometry");
    for profile in AppProfile::suite() {
        let mut l1 = L1Pair::from_geometries(geom, geom);
        let mut oracle = Oracle::new(geom, geom);
        for (i, access) in TraceGenerator::new(&profile, 0x5eed_2015)
            .take(200_000)
            .enumerate()
        {
            assert_eq!(
                l1.access(&access),
                oracle.access(&access, i as u64),
                "{}: reference {i}",
                profile.name
            );
        }
        assert_eq!(
            (*l1.icache(), *l1.dcache()),
            oracle.stats(),
            "{}",
            profile.name
        );
    }
}
