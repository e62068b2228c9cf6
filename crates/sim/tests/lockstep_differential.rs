//! Cross-engine differential suite for the lock-step kernel.
//!
//! The lock-step engine rewrote the hottest loop in the codebase (one
//! shared L1 front end per lane group, O(1) retires over hit gaps), so
//! its correctness contract is pinned exhaustively here: for every
//! replacement policy × associativity × pool size cell of a small grid,
//! and for ragged mixed-family pools that do not fill a lane group, the
//! [`SimReport`] of every design must match the scalar `run_app`-style
//! oracle **field by field** — the oracle owns a private generator and
//! its own per-design L1, sharing no code with the front end under test.
//!
//! Where a lane group's filtered run comes from — built into the memo,
//! replayed from it, rejected by a full memo, or filtered unmemoized —
//! is one more input of the grid.
//!
//! The randomized scalar ≡ broadcast ≡ lock-step properties (and the
//! fault-isolation cases) live in `lockstep_props.rs`; byte-identity of
//! rendered experiment output stays in `determinism.rs`.

use moca_cache::L1Pair;
use moca_cache::ReplacementPolicy;
use moca_core::{L2Design, RefreshPolicy};
use moca_energy::RetentionClass;
use moca_sim::lockstep::{execute, Plan};
use moca_sim::memo::{RunMemo, MEMO_CAP_BYTES};
use moca_sim::parallel::Jobs;
use moca_sim::{SimReport, System, SystemConfig};
use moca_trace::{AppProfile, TraceGenerator};

/// The reports of a plan every design of which is valid.
fn run(plan: Plan<'_>) -> Vec<SimReport> {
    execute(&plan, Jobs::SERIAL, None)
        .expect("no cancel token")
        .into_iter()
        .map(|p| p.expect("valid design").report)
        .collect()
}

/// All six replacement policies, labelled for failure messages.
const POLICIES: [(&str, ReplacementPolicy); 6] = [
    ("lru", ReplacementPolicy::Lru),
    ("fifo", ReplacementPolicy::Fifo),
    ("random", ReplacementPolicy::Random { seed: 0xD1FF_2015 }),
    ("nru", ReplacementPolicy::Nru),
    ("plru", ReplacementPolicy::TreePlru),
    ("srrip", ReplacementPolicy::Srrip),
];

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
    // Belt and braces: the whole rendering, in case a field is added to
    // the report without extending the list above.
    assert_eq!(
        format!("{want:?}"),
        format!("{got:?}"),
        "full report rendering diverges [{ctx}]"
    );
}

/// A K-lane pool of shared-SRAM designs: the grid's associativity first,
/// then heterogeneous power-of-two lane mates (TreePlru requires
/// power-of-two associativity).
fn grid_pool(ways: u32, k: usize) -> Vec<L2Design> {
    const LANE_MATES: [u32; 7] = [16, 2, 8, 4, 1, 16, 2];
    std::iter::once(ways)
        .chain(LANE_MATES)
        .take(k)
        .map(|ways| L2Design::SharedSram { ways })
        .collect()
}

/// The exhaustive small grid: 6 policies × 4 associativities × 4 pool
/// sizes, every lane checked field-by-field against the scalar oracle.
#[test]
fn policy_ways_pool_grid_matches_scalar_oracle_fieldwise() {
    let app = AppProfile::browser();
    let refs = 3_003; // off chunk alignment
    let seed = 0x010C_57E9;
    for (policy_name, policy) in POLICIES {
        let cfg = SystemConfig {
            l2_policy: policy,
            ..SystemConfig::default()
        };
        for ways in [1u32, 2, 4, 8] {
            for k in [1usize, 2, 3, 8] {
                let pool = grid_pool(ways, k);
                let reports = run(Plan::new(&app, seed, refs, &pool).with_config(cfg));
                assert_eq!(reports.len(), k);
                for (lane, (design, got)) in pool.iter().zip(&reports).enumerate() {
                    let want = scalar_oracle(&app, *design, cfg, refs, seed);
                    let ctx = format!(
                        "policy={policy_name} ways={ways} k={k} lane={lane} design={design:?}"
                    );
                    assert_reports_match_fieldwise(&want, got, &ctx);
                }
            }
        }
    }
}

/// Ragged mixed-family pool: 11 designs spanning shared/partitioned
/// SRAM, STT retention mixes, and both dynamic variants — one full lane
/// group of 8 plus a ragged tail of 3 — checked at several lane-group
/// widths, including widths that split the pool unevenly.
#[test]
fn ragged_mixed_family_pool_matches_scalar_oracle_at_every_width() {
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
    ];
    let cfg = SystemConfig::default();
    let oracle: Vec<SimReport> = pool
        .iter()
        .map(|&design| scalar_oracle(&app, design, cfg, refs, seed))
        .collect();
    for width in [1usize, 2, 3, 5, 8] {
        let reports = run(Plan::new(&app, seed, refs, &pool).with_lane_group(width));
        assert_eq!(reports.len(), pool.len());
        for (lane, (want, got)) in oracle.iter().zip(&reports).enumerate() {
            let ctx = format!("ragged pool width={width} lane={lane}");
            assert_reports_match_fieldwise(want, got, &ctx);
        }
    }
}

/// The non-default knobs that change the replay path itself — row-buffer
/// DRAM (stateful per-demand timing) and the next-line prefetcher — stay
/// byte-identical through the front end too.
#[test]
fn row_buffer_dram_and_prefetch_configs_match_scalar_oracle() {
    let app = AppProfile::video();
    let refs = 9_001;
    let seed = 77;
    for cfg in [
        SystemConfig {
            dram_model: moca_sim::DramModel::RowBuffer,
            ..SystemConfig::default()
        },
        SystemConfig {
            l2_next_line_prefetch: true,
            ..SystemConfig::default()
        },
    ] {
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
        }
    }
}

/// Memo hit, memo miss, rejected run and unmemoized filtering all feed
/// the lanes the same chunks: every report matches the scalar oracle at
/// lane widths 1, 2 and 8, over a run that ends mid-chunk.
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
    // Room for the L1 pair and a sliver of events: the build is
    // rejected mid-run and its consumers replay the recorded prefix
    // before filtering the rest live.
    let l1_bytes = L1Pair::mobile_default().heap_bytes();
    for width in [1usize, 2, 8] {
        let groups = pool.len().div_ceil(width) as u64;
        let memo = RunMemo::with_capacity(MEMO_CAP_BYTES);
        let partial = RunMemo::with_capacity(l1_bytes + 1024);
        let empty = RunMemo::with_capacity(0);
        let lockstep = Plan::new(&app, seed, refs, &pool).with_lane_group(width);
        let runs = [
            ("miss", run(lockstep.clone().with_memo(&memo))),
            ("hit", run(lockstep.clone().with_memo(&memo))),
            ("partial", run(lockstep.clone().with_memo(&partial))),
            ("empty", run(lockstep.clone().with_memo(&empty))),
            ("unmemoized", run(lockstep.clone().unmemoized())),
        ];
        let stats = memo.stats();
        assert_eq!(
            (stats.runs, stats.misses, stats.hits),
            (1, 1, 2 * groups - 1)
        );
        for rejecting in [&partial, &empty] {
            let stats = rejecting.stats();
            assert_eq!((stats.runs, stats.used_bytes, stats.rejected), (0, 0, 1));
            assert_eq!((stats.misses, stats.hits), (groups, 0));
        }
        for (source, reports) in &runs {
            assert_eq!(reports.len(), pool.len());
            for (lane, (want, got)) in oracle.iter().zip(reports).enumerate() {
                let ctx = format!("{source} run width={width} lane={lane}");
                assert_reports_match_fieldwise(want, got, &ctx);
            }
        }
    }
}
