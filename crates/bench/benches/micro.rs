//! Microbenchmarks of the substrates: trace generation throughput, the
//! cache access path, L1 filtering, the utility monitor, the sweep
//! executor, and the filtered-run memo.

use moca_bench::{bench_app, Runner, BENCH_SEED};
use moca_cache::{CacheGeometry, L1Pair, SetAssocCache, UtilityMonitor, WayMask};
use moca_core::{L2Design, RefreshPolicy};
use moca_energy::RetentionClass;
use moca_search::{run_search, SearchConfig};
use moca_sim::config::{L1D_GEOMETRY, L1I_GEOMETRY};
use moca_sim::lockstep::{execute, Plan, Point};
use moca_sim::memo::{RunMemo, MEMO_CAP_BYTES};
use moca_sim::parallel::Jobs;
use moca_sim::stream::TraceStream;
use moca_sim::sweep::sweep_pruned;
use moca_sim::{profile_lru_grid, FileTraceSource, SweepPointError};
use moca_trace::binfmt::{self, TraceReader, CHUNK_REFS};
use moca_trace::{AppProfile, MemoryAccess, Mode, TraceGenerator};
use std::hint::black_box;
use std::io::Cursor;
use std::sync::Arc;

fn trace_generation(r: &mut Runner) {
    r.throughput_elems(100_000);
    r.bench("trace-generation/browser-100k-refs", || {
        let gen = TraceGenerator::new(&AppProfile::browser(), 1);
        black_box(gen.take(100_000).map(|a| a.addr).sum::<u64>())
    });
    // Same stream through the chunked fill API (reused buffer) instead of
    // the per-access iterator.
    r.throughput_elems(100_000);
    r.bench("trace-generation/browser-100k-fill", || {
        let mut gen = TraceGenerator::new(&AppProfile::browser(), 1);
        let mut chunk = Vec::with_capacity(TraceGenerator::DEFAULT_CHUNK);
        let mut sum = 0u64;
        let mut left = 100_000usize;
        while left > 0 {
            let n = gen.fill(&mut chunk).min(left);
            sum += chunk[..n].iter().map(|a| a.addr).sum::<u64>();
            left -= n;
        }
        black_box(sum)
    });
}

fn cache_access_path(r: &mut Runner) {
    let geom = CacheGeometry::new(2 << 20, 16, 64).expect("valid");
    r.throughput_elems(100_000);
    r.bench("cache-access/lru", || {
        let mut cache = SetAssocCache::new(geom);
        let mask = WayMask::first(16);
        let mut hits = 0u64;
        for i in 0..100_000u64 {
            let line = (i * 2654435761) % 100_000;
            if cache.access(line, i % 7 == 0, Mode::User, i, mask).hit {
                hits += 1;
            }
        }
        black_box(hits)
    });
}

fn l1_filter(r: &mut Runner) {
    let trace: Vec<_> = TraceGenerator::new(&AppProfile::game(), 2)
        .take(100_000)
        .collect();
    r.throughput_elems(trace.len() as u64);
    r.bench("l1-filter/filter-100k", || {
        let mut l1 = L1Pair::from_geometries(L1I_GEOMETRY, L1D_GEOMETRY);
        let mut reqs = 0u64;
        for a in &trace {
            let o = l1.access(a);
            reqs += u64::from(o.demand.is_some()) + u64::from(o.writeback.is_some());
        }
        black_box(reqs)
    });
}

fn utility_monitor(r: &mut Runner) {
    let geom = CacheGeometry::new(2 << 20, 16, 64).expect("valid");
    r.throughput_elems(100_000);
    r.bench("utility-monitor/observe-100k", || {
        let mut m = UtilityMonitor::new(geom, 4);
        for i in 0..100_000u64 {
            m.observe(i % 40_000);
        }
        black_box(m.hits_with_ways(16))
    });
}

/// Eight designs spanning the sweep-shaped experiments: shared/partitioned
/// SRAM, the STT retention family, and both dynamic variants.
fn sweep_designs() -> [L2Design; 8] {
    [
        L2Design::baseline(),
        L2Design::static_default(),
        L2Design::dynamic_default(),
        L2Design::SharedSram { ways: 4 },
        L2Design::StaticSram {
            user_ways: 8,
            kernel_ways: 4,
        },
        L2Design::SharedStt {
            ways: 16,
            retention: RetentionClass::TenYears,
            refresh: RefreshPolicy::InvalidateOnExpiry,
        },
        L2Design::StaticMultiRetention {
            user_ways: 6,
            kernel_ways: 4,
            user_retention: RetentionClass::OneSecond,
            kernel_retention: RetentionClass::TenMillis,
            refresh: RefreshPolicy::Refresh,
        },
        L2Design::DynamicSram {
            max_ways: 16,
            min_ways: 1,
            epoch_cycles: 500_000,
        },
    ]
}

fn sweep_lockstep(r: &mut Runner) {
    let app = bench_app();
    let designs = sweep_designs();
    const REFS: usize = 100_000;
    // The executor behind every production sweep: the eight design lanes
    // replay only the L2-visible events of the stream's filtered run,
    // skipping pure-hit runs in O(1), each lane isolated against panics.
    // The warmup iteration leaves the run in the global memo, as any
    // sweep after the first one over a stream in a process would find it.
    let cycles = |plan: &Plan<'_>| {
        execute(plan, Jobs::SERIAL)
            .iter()
            .map(|p| p.as_ref().expect("valid design").report.cycles)
            .sum::<u64>()
    };
    r.throughput_elems((designs.len() * REFS) as u64);
    r.bench("sweep-lockstep/8-designs-100k", || {
        black_box(cycles(&Plan::new(&app, BENCH_SEED, REFS, &designs)))
    });
}

/// MRC-based grid pruning: one exact Mattson pass scores a 24-point LRU
/// way grid, and the pruned sweep simulates only the (energy, cycles)
/// Pareto survivors — `sweep-pruned/24-designs-100k` vs
/// `sweep-lockstep/24-designs-100k` is the ratio `bench_guard` pins at
/// the 4x acceptance bar.
fn mrc_pruning(r: &mut Runner) {
    let app = bench_app();
    const REFS: usize = 100_000;
    const GRID: u32 = 24;
    let designs: Vec<L2Design> = (1..=GRID)
        .map(|ways| L2Design::SharedSram { ways })
        .collect();
    let cycles = |points: &[Result<Point, SweepPointError>]| {
        points
            .iter()
            .map(|p| p.as_ref().expect("valid design").report.cycles)
            .sum::<u64>()
    };
    // The profiling pass alone: every way count of the grid scored in
    // one front-end-filtered trace traversal.
    r.throughput_elems(REFS as u64);
    r.bench("mrc/profile-100k", || {
        let curve = profile_lru_grid(&app, REFS, BENCH_SEED, GRID);
        black_box(curve.total_hits(GRID))
    });
    // Simulating all 24 points (the pre-MRC sweep shape)...
    r.throughput_elems((GRID as usize * REFS) as u64);
    r.bench("sweep-lockstep/24-designs-100k", || {
        let points = execute(&Plan::new(&app, BENCH_SEED, REFS, &designs), Jobs::SERIAL);
        black_box(cycles(&points))
    });
    // ...vs profiling the grid and simulating only the survivors. Same
    // nominal throughput denominator, so the JSON ratio is the speedup.
    r.throughput_elems((GRID as usize * REFS) as u64);
    r.bench("sweep-pruned/24-designs-100k", || {
        let pruned = sweep_pruned(&designs, &app, REFS, BENCH_SEED, Jobs::SERIAL);
        let simulated: Vec<_> = pruned.points.into_iter().flatten().collect();
        black_box(cycles(&simulated) + pruned.pruned_points as u64)
    });
}

/// One full generation of the seeded NSGA-II search: seed genomes, one
/// deduplicated pruned/simulated evaluation batch, non-dominated
/// ranking, and survivor selection. `generations: 1` isolates the
/// per-generation cost the resident service pays between checkpoints.
fn search_generation(r: &mut Runner) {
    let cfg = SearchConfig {
        app: "browser".to_string(),
        seed: BENCH_SEED,
        refs: 20_000,
        population: 8,
        generations: 1,
    };
    r.throughput_elems(cfg.population as u64);
    r.bench("search-generation/8-pop-20k", || {
        let outcome = run_search(&cfg, Jobs::SERIAL, None).expect("search runs");
        black_box(outcome.front.len() + outcome.archive.len())
    });
}

/// Compile-once replay: decoding a compiled container must beat
/// regenerating the same stream by a wide margin — that gap is the
/// entire point of the on-disk format (`trace-decode` vs `trace-gen` is
/// the ratio `bench_guard` pins).
fn trace_replay(r: &mut Runner) {
    let app = AppProfile::browser();
    const SEED: u64 = 1;
    // 100k refs round up to 13 full chunks; generation and decode both
    // process exactly this many references so the ratio is honest.
    const CHUNKS: usize = 100_000usize.div_ceil(CHUNK_REFS);
    let refs = (CHUNKS * CHUNK_REFS) as u64;

    r.throughput_elems(refs);
    r.bench("trace-gen/100k-refs", || {
        let mut gen = TraceGenerator::new(&app, SEED);
        let mut chunk: Vec<MemoryAccess> = Vec::with_capacity(CHUNK_REFS);
        let mut sum = 0u64;
        for _ in 0..CHUNKS {
            gen.fill(&mut chunk);
            sum += chunk.iter().map(|a| a.addr).sum::<u64>();
        }
        black_box(sum)
    });

    // Compile once, decode per iteration from memory: the steady-state
    // cost of serving a sweep from a warm corpus file.
    let bytes = {
        let mut w = Cursor::new(Vec::new());
        binfmt::compile(&mut w, &app, SEED, CHUNKS * CHUNK_REFS).expect("in-memory compile");
        w.into_inner()
    };
    r.throughput_elems(refs);
    r.bench("trace-decode/100k-refs", || {
        let mut reader = TraceReader::new(Cursor::new(&bytes[..])).expect("parse");
        let mut chunk: Vec<MemoryAccess> = Vec::with_capacity(CHUNK_REFS);
        let mut sum = 0u64;
        for i in 0..reader.header().chunk_count() {
            reader.read_chunk(i, &mut chunk).expect("decode");
            sum += chunk.iter().map(|a| a.addr).sum::<u64>();
        }
        black_box(sum)
    });

    // The full file-backed stream path: TraceStream over a registered
    // source, every chunk through the (buffered) disk decode path.
    let path = std::env::temp_dir().join(format!("moca-bench-replay-{}.mtrc", std::process::id()));
    std::fs::write(&path, &bytes).expect("write bench trace");
    let source = Arc::new(FileTraceSource::open(&path).expect("open bench trace"));
    r.throughput_elems(refs);
    r.bench("trace-file/replay-100k", || {
        let mut stream = TraceStream::with_source(&app, SEED, Arc::clone(&source));
        let mut sum = 0u64;
        for _ in 0..CHUNKS {
            sum += stream.next_chunk().iter().map(|a| a.addr).sum::<u64>();
        }
        black_box(sum)
    });
    std::fs::remove_file(&path).ok();
}

/// Replaying a memoized filtered run: the path every design lane, MRC
/// profile and custom runner of a stream takes once one consumer has
/// built the run.
fn filtered_run(r: &mut Runner) {
    let app = AppProfile::browser();
    let memo = RunMemo::with_capacity(MEMO_CAP_BYTES);
    const REFS: usize = 100_000;
    let replay = || {
        let mut lines = 0u64;
        memo.replay(TraceStream::new(&app, 1), REFS, |chunk| {
            lines += chunk.events().map(|e| e.demand.line).sum::<u64>();
        });
        lines
    };
    replay(); // build: every later pass is a hit
    assert_eq!(memo.stats().runs, 1);
    r.throughput_elems(REFS as u64);
    r.bench("filtered-run/warm-replay", || black_box(replay()));
}

fn main() {
    let mut r = Runner::new("micro");
    trace_generation(&mut r);
    cache_access_path(&mut r);
    l1_filter(&mut r);
    utility_monitor(&mut r);
    sweep_lockstep(&mut r);
    mrc_pruning(&mut r);
    search_generation(&mut r);
    trace_replay(&mut r);
    filtered_run(&mut r);
    r.finish();
}
