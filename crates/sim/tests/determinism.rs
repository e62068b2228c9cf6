//! Determinism of the parallel sweep engine.
//!
//! The contract of `moca_sim::parallel` is that sharding an experiment's
//! independent simulations over worker threads changes *nothing* about
//! the output: results are merged in input order and every simulation
//! owns its seeded trace generator, so the rendered experiment — table,
//! summary, claim checks — must be **byte-identical** for every job
//! count. These tests pin that contract for each figure/table experiment
//! at `Scale::Smoke` (claim checks may fail at that scale; only equality
//! of the rendered output matters here).

use moca_sim::experiments::{by_id, ExperimentResult};
use moca_sim::parallel::Jobs;
use moca_sim::workloads::Scale;

/// Flattens an experiment result into one comparable string.
fn render_full(r: &ExperimentResult) -> String {
    let mut out = r.render();
    for c in &r.claims {
        out.push_str(&format!(
            "{} {} {} {}\n",
            c.claim, c.target, c.measured, c.pass
        ));
    }
    out
}

/// Runs `id` serially and with 2 and 8 worker threads, asserting the
/// rendered output is byte-identical across all job counts.
fn assert_deterministic(id: &str) {
    let serial = by_id(id, Scale::Smoke, Jobs::SERIAL)
        .unwrap_or_else(|| panic!("unknown experiment id {id}"));
    let reference = render_full(&serial);
    assert!(!reference.is_empty());
    for jobs in [1usize, 2, 8] {
        let parallel = by_id(id, Scale::Smoke, Jobs::new(jobs)).expect("known id");
        assert_eq!(
            reference,
            render_full(&parallel),
            "experiment {id} output differs between serial and jobs={jobs}"
        );
    }
}

macro_rules! determinism_tests {
    ($($test_name:ident => $id:literal),* $(,)?) => {
        $(
            #[test]
            fn $test_name() {
                assert_deterministic($id);
            }
        )*
    };
}

determinism_tests! {
    f1_kernel_share_is_deterministic => "F1",
    f2_interference_is_deterministic => "F2",
    f3_static_sweep_is_deterministic => "F3",
    f4_behavior_is_deterministic => "F4",
    f5_retention_sweep_is_deterministic => "F5",
    f6_performance_is_deterministic => "F6",
    f7_adaptation_is_deterministic => "F7",
    f8_sensitivity_is_deterministic => "F8",
    t2_energy_table_is_deterministic => "T2",
    a1_area_is_deterministic => "A1",
    a2_partition_style_is_deterministic => "A2",
    a3_hybrid_study_is_deterministic => "A3",
    a4_duty_cycle_is_deterministic => "A4",
    a5_prefetch_study_is_deterministic => "A5",
    a6_temperature_is_deterministic => "A6",
    a7_multitask_is_deterministic => "A7",
}

/// Fan-out-vs-sequential equivalence.
///
/// The sweep executor (`moca_sim::lockstep::execute`) promises that
/// running N designs over one trace stream — through any memo state
/// and any job count — produces reports **byte-identical** to running
/// each design alone through `run_app`, which owns a private generator
/// and never touches the memo. These tests pin that promise for the
/// design families the sweep-shaped experiments use, and for randomized
/// (designs, refs, seed) triples.
mod fanout_equivalence {
    use moca_core::{L2Design, RefreshPolicy};
    use moca_energy::RetentionClass;
    use moca_sim::lockstep::{execute, Plan};
    use moca_sim::parallel::Jobs;
    use moca_sim::workloads::run_app;
    use moca_sim::SimReport;
    use moca_testkit::{check, require, Config, TestRng};
    use moca_trace::AppProfile;

    /// A design pool spanning every sweep-shaped experiment: shared and
    /// partitioned SRAM (F3, A2), the retention grid (F5), dynamic
    /// variants (F8), and the suite defaults (T2/A4/A6).
    fn design_pool() -> Vec<L2Design> {
        vec![
            L2Design::baseline(),
            L2Design::static_default(),
            L2Design::dynamic_default(),
            L2Design::SharedSram { ways: 4 },
            L2Design::SharedSram { ways: 16 },
            L2Design::StaticSram {
                user_ways: 6,
                kernel_ways: 4,
            },
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
        ]
    }

    /// The executor's reports for `designs`, every one of which is valid.
    fn executor_reports(
        app: &AppProfile,
        designs: &[L2Design],
        refs: usize,
        seed: u64,
        jobs: Jobs,
    ) -> Vec<SimReport> {
        execute(&Plan::new(app, seed, refs, designs), jobs)
            .into_iter()
            .map(|p| p.expect("valid design").report)
            .collect()
    }

    /// Asserts `run_app` loop == fan-out(jobs=1) == fan-out(jobs=2) ==
    /// fan-out(jobs=8) for the given sweep, by `Debug` rendering.
    fn assert_fanout_equivalent(app: &AppProfile, designs: &[L2Design], refs: usize, seed: u64) {
        let sequential: Vec<String> = designs
            .iter()
            .map(|&d| format!("{:?}", run_app(app, d, refs, seed)))
            .collect();
        for jobs in [1usize, 2, 8] {
            let fanned = executor_reports(app, designs, refs, seed, Jobs::new(jobs));
            assert_eq!(fanned.len(), sequential.len());
            for (i, (seq, fan)) in sequential.iter().zip(&fanned).enumerate() {
                assert_eq!(
                    seq,
                    &format!("{fan:?}"),
                    "design {i} differs from sequential run_app at jobs={jobs}"
                );
            }
        }
    }

    #[test]
    fn full_design_pool_fans_out_identically() {
        // Refs chosen off chunk alignment on purpose.
        assert_fanout_equivalent(&AppProfile::browser(), &design_pool(), 30_123, 2015);
    }

    #[test]
    fn retention_grid_fans_out_identically() {
        let designs: Vec<L2Design> = RetentionClass::SWEEP
            .into_iter()
            .map(|rc| L2Design::StaticMultiRetention {
                user_ways: 6,
                kernel_ways: 4,
                user_retention: rc,
                kernel_retention: rc,
                refresh: RefreshPolicy::InvalidateOnExpiry,
            })
            .collect();
        assert_fanout_equivalent(&AppProfile::video(), &designs, 25_000, 0x5EED_2015);
    }

    #[test]
    fn single_design_fan_out_is_run_app() {
        let app = AppProfile::music();
        let solo = run_app(&app, L2Design::static_default(), 20_000, 7);
        let fanned = executor_reports(&app, &[L2Design::static_default()], 20_000, 7, Jobs::SERIAL);
        assert_eq!(format!("{:?}", fanned[0]), format!("{solo:?}"));
    }

    /// The rendered CSV — the artifact sweeps actually ship — is
    /// byte-identical across job counts through the lock-step engine,
    /// with the wall-time column masked (it is measurement noise).
    #[test]
    fn sweep_csv_is_byte_identical_across_jobs_through_lockstep() {
        use moca_sim::sweep::write_csv;

        let designs: Vec<L2Design> = [1u32, 2, 4, 8, 16, 2, 4, 8, 16, 1, 2]
            .map(|ways| L2Design::SharedSram { ways })
            .to_vec();
        let app = AppProfile::browser();
        let rows = |jobs: Jobs| {
            let mut csv = Vec::new();
            let reports = executor_reports(&app, &designs, 12_000, 42, jobs);
            write_csv(&mut csv, reports.iter().map(|r| (r, 0u64))).expect("csv renders");
            csv
        };
        let reference = rows(Jobs::SERIAL);
        for jobs in [1usize, 2, 8] {
            let got = rows(Jobs::new(jobs));
            assert_eq!(
                String::from_utf8(reference.clone()).expect("utf8"),
                String::from_utf8(got).expect("utf8"),
                "sweep CSV differs between serial and jobs={jobs}"
            );
        }
    }

    #[test]
    fn random_triples_fan_out_identically() {
        // moca-testkit property: for randomized (designs, refs, seed)
        // triples, fan-out at a random job count reproduces the
        // sequential per-design reports byte-for-byte.
        let pool = design_pool();
        let apps = AppProfile::suite();
        check(
            Config::cases(12),
            |rng: &mut TestRng| {
                let app = rng.pick(&apps).clone();
                let designs = rng.vec(1, 6, |rng| *rng.pick(&pool));
                let refs = rng.range_usize(1_000, 30_000);
                let seed = rng.next_u64();
                let jobs = rng.range_usize(1, 9);
                (app, designs, refs, seed, jobs)
            },
            |(app, designs, refs, seed, jobs)| {
                let fanned = executor_reports(app, designs, *refs, *seed, Jobs::new(*jobs));
                for (i, (design, fan)) in designs.iter().zip(&fanned).enumerate() {
                    let solo = run_app(app, *design, *refs, *seed);
                    require!(
                        format!("{solo:?}") == format!("{fan:?}"),
                        "design {i} ({design:?}) differs at jobs={jobs}, refs={refs}, seed={seed:#x}"
                    );
                }
                Ok(())
            },
        );
    }
}
