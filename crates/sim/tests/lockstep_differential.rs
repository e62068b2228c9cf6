//! Cross-engine differential suite for the lock-step kernel.
//!
//! The lock-step engine rewrote the hottest loop in the codebase (one
//! shared L1 front end per stream, O(1) retires over hit gaps), so its
//! correctness contract is pinned exhaustively here: for every
//! associativity × pool size cell of a small grid,
//! and for a ragged mixed-family pool split unevenly over workers, the
//! [`SimReport`] of every design must match the scalar `run_app`-style
//! oracle **field by field** — the oracle owns a private generator and
//! its own per-design L1, sharing no code with the front end under test.
//!
//! Where a plan's filtered run comes from — built into the memo,
//! replayed from it, built past a full memo's cap, or kept private to
//! an unmemoized plan — is one more input of the grid, and so is the
//! stream's source: one app, or a co-scheduled mix checked against a
//! scalar run over its `MultiProgrammed` stream.
//!
//! The randomized scalar ≡ lock-step properties (and the
//! fault-isolation cases) live in `lockstep_props.rs`; byte-identity of
//! rendered experiment output stays in `determinism.rs`.

use moca_core::{L2Design, RefreshPolicy};
use moca_energy::RetentionClass;
use moca_sim::lockstep::{execute, Plan};
use moca_sim::memo::{RunMemo, MEMO_CAP_BYTES};
use moca_sim::parallel::Jobs;
use moca_sim::{Mix, SimReport, System, SystemConfig};
use moca_trace::{AppProfile, MultiProgrammed, TraceGenerator};

/// The reports of a plan every design of which is valid.
fn run(plan: Plan<'_>) -> Vec<SimReport> {
    run_with(plan, Jobs::SERIAL)
}

/// [`run`] on `jobs` workers.
fn run_with(plan: Plan<'_>, jobs: Jobs) -> Vec<SimReport> {
    execute(&plan, jobs)
        .into_iter()
        .map(|p| p.expect("valid design").report)
        .collect()
}

/// The scalar oracle: a private [`TraceGenerator`], a per-design L1,
/// the plain [`System::step`] loop — no memo, no front end, no replay.
fn scalar_oracle(
    app: &AppProfile,
    design: L2Design,
    cfg: SystemConfig,
    refs: usize,
    seed: u64,
) -> SimReport {
    let mut sys = System::new(app.name, design, cfg).expect("oracle design must be valid");
    let mut gen = TraceGenerator::new(app, seed);
    sys.run_generated(&mut gen, refs);
    sys.finish()
}

/// Field-by-field comparison: every [`SimReport`] field is asserted
/// separately (through its `Debug` rendering, the workspace's canonical
/// comparable form) so a divergence names the exact field, not just a
/// byte offset in a 2 kB line.
fn assert_reports_match_fieldwise(want: &SimReport, got: &SimReport, ctx: &str) {
    macro_rules! field {
        ($name:ident) => {
            assert_eq!(
                format!("{:?}", want.$name),
                format!("{:?}", got.$name),
                "field `{}` diverges [{ctx}]",
                stringify!($name)
            );
        };
    }
    field!(design);
    field!(app);
    field!(refs);
    field!(cycles);
    field!(clock_ghz);
    field!(l1_stats);
    field!(l2_stats);
    field!(l2_energy);
    field!(dram_energy);
    field!(traffic);
    field!(expiry);
    field!(prefetches);
    field!(final_active_ways);
    assert_eq!(
        want.mean_active_ways.to_bits(),
        got.mean_active_ways.to_bits(),
        "field `mean_active_ways` diverges bitwise [{ctx}]"
    );
    field!(timeline);
    field!(behavior);
    field!(hybrid);
    // Belt and braces: the whole rendering, in case a field is added to
    // the report without extending the list above.
    assert_eq!(
        format!("{want:?}"),
        format!("{got:?}"),
        "full report rendering diverges [{ctx}]"
    );
}

/// A K-lane pool of shared-SRAM designs: the grid's associativity first,
/// then heterogeneous power-of-two lane mates.
fn grid_pool(ways: u32, k: usize) -> Vec<L2Design> {
    const LANE_MATES: [u32; 7] = [16, 2, 8, 4, 1, 16, 2];
    std::iter::once(ways)
        .chain(LANE_MATES)
        .take(k)
        .map(|ways| L2Design::SharedSram { ways })
        .collect()
}

/// The exhaustive small grid: 4 associativities × 4 pool sizes under
/// the default configuration, every lane checked field-by-field against
/// the scalar oracle.
#[test]
fn ways_pool_grid_matches_scalar_oracle_fieldwise() {
    let app = AppProfile::browser();
    let refs = 3_003; // off chunk alignment
    let seed = 0x010C_57E9;
    let cfg = SystemConfig::default();
    for ways in [1u32, 2, 4, 8] {
        for k in [1usize, 2, 3, 8] {
            let pool = grid_pool(ways, k);
            let reports = run(Plan::new(&app, seed, refs, &pool).with_config(cfg));
            assert_eq!(reports.len(), k);
            for (lane, (design, got)) in pool.iter().zip(&reports).enumerate() {
                let want = scalar_oracle(&app, *design, cfg, refs, seed);
                let ctx = format!("ways={ways} k={k} lane={lane} design={design:?}");
                assert_reports_match_fieldwise(&want, got, &ctx);
            }
        }
    }
}

/// Ragged mixed-family pool: 13 designs spanning shared/partitioned
/// SRAM, STT retention mixes, both dynamic variants and the
/// set-partitioned and hybrid engines — checked at several job counts,
/// including counts that split the pool unevenly.
#[test]
fn ragged_mixed_family_pool_matches_scalar_oracle_at_every_job_count() {
    let app = AppProfile::game();
    let refs = 12_345;
    let seed = 2015;
    let pool = vec![
        L2Design::baseline(),
        L2Design::static_default(),
        L2Design::dynamic_default(),
        L2Design::SharedSram { ways: 4 },
        L2Design::StaticSram {
            user_ways: 6,
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
        L2Design::DynamicStt {
            max_ways: 16,
            min_ways: 1,
            user_retention: RetentionClass::HundredMillis,
            kernel_retention: RetentionClass::TenMillis,
            refresh: RefreshPolicy::InvalidateOnExpiry,
            epoch_cycles: 100_000,
        },
        L2Design::DynamicSram {
            max_ways: 16,
            min_ways: 1,
            epoch_cycles: 500_000,
        },
        L2Design::SharedSram { ways: 16 },
        L2Design::StaticSram {
            user_ways: 8,
            kernel_ways: 4,
        },
        L2Design::SetPartitionedSram {
            user_sets: 1024,
            kernel_sets: 512,
            ways: 16,
        },
        L2Design::HybridStt {
            sram_ways: 2,
            stt_ways: 14,
            retention: RetentionClass::TenYears,
        },
    ];
    let cfg = SystemConfig::default();
    let oracle: Vec<SimReport> = pool
        .iter()
        .map(|&design| scalar_oracle(&app, design, cfg, refs, seed))
        .collect();
    for jobs in [1usize, 2, 3, 5, 8] {
        let reports = run_with(Plan::new(&app, seed, refs, &pool), Jobs::new(jobs));
        assert_eq!(reports.len(), pool.len());
        for (lane, (want, got)) in oracle.iter().zip(&reports).enumerate() {
            let ctx = format!("ragged pool jobs={jobs} lane={lane}");
            assert_reports_match_fieldwise(want, got, &ctx);
        }
    }
}

/// The non-default knob that changes the replay path itself — the
/// next-line prefetcher — stays byte-identical through the front end
/// too, segment behaviour included.
#[test]
fn prefetch_config_matches_scalar_oracle() {
    let app = AppProfile::video();
    let refs = 9_001;
    let seed = 77;
    let cfg = SystemConfig {
        l2_next_line_prefetch: true,
    };
    let pool = [
        L2Design::baseline(),
        L2Design::static_default(),
        L2Design::SharedSram { ways: 2 },
    ];
    let reports = run(Plan::new(&app, seed, refs, &pool).with_config(cfg));
    for (lane, (design, got)) in pool.iter().zip(&reports).enumerate() {
        let want = scalar_oracle(&app, *design, cfg, refs, seed);
        let ctx = format!("cfg={cfg:?} lane={lane}");
        assert_reports_match_fieldwise(&want, got, &ctx);
        // Every lane records behaviour, so the match above compares
        // filled histograms, not empty ones.
        assert!(got.behavior.iter().all(|b| b.reuse.total() > 0), "{ctx}");
    }
}

/// Memo hit, memo miss, rejected run and unmemoized filtering all feed
/// the lanes the same chunks: every report matches the scalar oracle
/// at one and three jobs, over a run that ends mid-chunk, and the memo
/// counters count plans, whatever the job count.
#[test]
fn memo_hit_miss_rejected_and_unmemoized_runs_match_scalar_oracle() {
    let app = AppProfile::email();
    let refs = 2 * 8192 + 777; // off chunk alignment
    let seed = 0x3E30_2015;
    let pool = [
        L2Design::baseline(),
        L2Design::static_default(),
        L2Design::dynamic_default(),
        L2Design::SharedSram { ways: 4 },
        L2Design::SharedStt {
            ways: 16,
            retention: RetentionClass::TenYears,
            refresh: RefreshPolicy::InvalidateOnExpiry,
        },
    ];
    let cfg = SystemConfig::default();
    let oracle: Vec<SimReport> = pool
        .iter()
        .map(|&design| scalar_oracle(&app, design, cfg, refs, seed))
        .collect();
    let stats_at = |jobs: Jobs| {
        let memo = RunMemo::with_capacity(MEMO_CAP_BYTES);
        let lockstep = Plan::new(&app, seed, refs, &pool);
        let miss = run_with(lockstep.clone().with_memo(&memo), jobs);
        // Room for half the run: the build outgrows the cap mid-run, is
        // finished anyway and handed back uncached.
        let partial = RunMemo::with_capacity(memo.stats().used_bytes / 2);
        let empty = RunMemo::with_capacity(0);
        let runs = [
            ("miss", miss),
            ("hit", run_with(lockstep.clone().with_memo(&memo), jobs)),
            (
                "partial",
                run_with(lockstep.clone().with_memo(&partial), jobs),
            ),
            ("empty", run_with(lockstep.clone().with_memo(&empty), jobs)),
            ("unmemoized", run_with(lockstep.clone().unmemoized(), jobs)),
        ];
        let stats = memo.stats();
        assert_eq!((stats.runs, stats.misses, stats.hits), (1, 1, 1));
        for rejecting in [&partial, &empty] {
            let stats = rejecting.stats();
            assert_eq!((stats.runs, stats.used_bytes, stats.rejected), (0, 0, 1));
            assert_eq!((stats.misses, stats.hits), (1, 0));
        }
        for (source, reports) in &runs {
            assert_eq!(reports.len(), pool.len());
            for (lane, (want, got)) in oracle.iter().zip(reports).enumerate() {
                let ctx = format!("{source} run {jobs:?} lane={lane}");
                assert_reports_match_fieldwise(want, got, &ctx);
            }
        }
        [memo.stats(), partial.stats(), empty.stats()]
    };
    assert_eq!(stats_at(Jobs::SERIAL), stats_at(Jobs::new(3)));
}

/// A co-scheduled mix is one more stream source: every lane of a mix
/// plan matches a scalar [`System::run`] over the mix's
/// [`MultiProgrammed`] stream, at two seeds and two quanta (3 001 does
/// not divide the chunk, so quanta straddle chunk boundaries), over a
/// run that ends mid-chunk — memoized (built, then replayed),
/// unmemoized, and live in a one-design plan, at one and two jobs.
#[test]
fn mix_plans_match_scalar_multiprogrammed_oracle() {
    let apps = vec![AppProfile::browser(), AppProfile::music()];
    let refs = 2 * 8192 + 555; // off chunk alignment
    let pool = [
        L2Design::baseline(),
        L2Design::static_default(),
        L2Design::dynamic_default(),
        L2Design::SharedStt {
            ways: 16,
            retention: RetentionClass::TenMillis,
            refresh: RefreshPolicy::InvalidateOnExpiry,
        },
    ];
    let cfg = SystemConfig::default();
    // One memo for every (quantum, seed): a mix key that ignored either
    // would replay another stream's run and diverge from the oracle.
    let memo = RunMemo::with_capacity(MEMO_CAP_BYTES);
    for quantum in [2_048u64, 3_001] {
        let mix = Mix::new(apps.clone(), quantum).expect("valid mix");
        for seed in [0x5EED_2015u64, 7] {
            let oracle: Vec<SimReport> = pool
                .iter()
                .map(|&design| {
                    let mut sys = System::new(mix.name(), design, cfg).expect("valid design");
                    sys.run(MultiProgrammed::new(&apps, quantum, seed).take(refs));
                    sys.finish()
                })
                .collect();
            assert_eq!(oracle[0].app, "browser+music");
            let plan = Plan::mix(&mix, seed, refs, &pool);
            for jobs in [Jobs::SERIAL, Jobs::new(2)] {
                for (shape, plan) in [
                    ("memoized", plan.clone().with_memo(&memo)),
                    ("unmemoized", plan.clone().unmemoized()),
                ] {
                    let reports = run_with(plan, jobs);
                    assert_eq!(reports.len(), pool.len());
                    for (lane, (want, got)) in oracle.iter().zip(&reports).enumerate() {
                        let ctx =
                            format!("quantum={quantum} seed={seed} {shape} {jobs:?} lane={lane}");
                        assert_reports_match_fieldwise(want, got, &ctx);
                    }
                }
            }
            let live = run(Plan::mix(&mix, seed, refs, &pool[3..]).unmemoized());
            let ctx = format!("quantum={quantum} seed={seed} live");
            assert_reports_match_fieldwise(&oracle[3], &live[0], &ctx);
        }
    }
    // Each (quantum, seed) built once, replayed once (at Jobs 2).
    let stats = memo.stats();
    assert_eq!((stats.runs, stats.misses, stats.hits), (4, 4, 4));
}
