//! Randomized cross-engine properties of the lock-step kernel, built on
//! the `moca-testkit` differential harness.
//!
//! Two contracts are pinned here:
//!
//! 1. **Three-engine agreement**: for randomized (app, design pool,
//!    refs, seed, jobs) inputs, the scalar sequential oracle, the
//!    retained PR 3 chunk-broadcast engine, and the lock-step kernel
//!    (serial *and* sharded over worker threads) produce byte-identical
//!    [`moca_sim::SimReport`]s.
//! 2. **Lane poisoning**: a design that panics mid-run fails alone — its
//!    lane is poisoned, every other lane of the shared front end runs to
//!    completion byte-identically to a fault-free run — and the failed
//!    point set (indices, labels, rendered causes) is identical across
//!    jobs 1/2/8.

use moca_core::{L2Design, RefreshPolicy};
use moca_energy::RetentionClass;
use moca_sim::lockstep::{execute, run_broadcast, Plan, Point};
use moca_sim::parallel::Jobs;
use moca_sim::workloads::run_app;
use moca_sim::{SimReport, SweepPointError};
use moca_testkit::differential::{engines_agree, EngineRun};
use moca_testkit::{check, require, require_eq, Config, FaultPlan, TestRng};
use moca_trace::AppProfile;

/// Design pool spanning every family a sweep-shaped experiment touches.
fn design_pool() -> Vec<L2Design> {
    vec![
        L2Design::baseline(),
        L2Design::static_default(),
        L2Design::dynamic_default(),
        L2Design::SharedSram { ways: 2 },
        L2Design::SharedSram { ways: 16 },
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
            user_ways: 8,
            kernel_ways: 4,
            user_retention: RetentionClass::HundredMillis,
            kernel_retention: RetentionClass::TenMillis,
            refresh: RefreshPolicy::Refresh,
        },
        L2Design::DynamicStt {
            max_ways: 16,
            min_ways: 1,
            user_retention: RetentionClass::OneSecond,
            kernel_retention: RetentionClass::TenMillis,
            refresh: RefreshPolicy::InvalidateOnExpiry,
            epoch_cycles: 100_000,
        },
        L2Design::DynamicSram {
            max_ways: 16,
            min_ways: 2,
            epoch_cycles: 250_000,
        },
    ]
}

/// Executes `plan` and returns every outcome.
fn run(plan: &Plan<'_>, jobs: Jobs) -> Vec<Result<Point, SweepPointError>> {
    execute(plan, jobs, None).expect("no cancel token")
}

/// The reports of a plan every design of which is valid.
fn reports(plan: &Plan<'_>, jobs: Jobs) -> Vec<SimReport> {
    run(plan, jobs)
        .into_iter()
        .map(|p| p.expect("valid design").report)
        .collect()
}

#[test]
fn random_inputs_agree_across_scalar_broadcast_and_lockstep() {
    let pool = design_pool();
    let apps = AppProfile::suite();
    check(
        Config::cases(10),
        |rng: &mut TestRng| {
            let app = rng.pick(&apps).clone();
            let designs = rng.vec(1, 7, |rng| *rng.pick(&pool));
            let refs = rng.range_usize(1_000, 25_000);
            let seed = rng.next_u64();
            let jobs = rng.range_usize(1, 9);
            let width = rng.range_usize(1, 9);
            (app, designs, refs, seed, jobs, width)
        },
        |(app, designs, refs, seed, jobs, width)| {
            let sequential: Vec<_> = designs
                .iter()
                .map(|&d| run_app(app, d, *refs, *seed))
                .collect();
            let runs = [
                EngineRun::render("scalar run_app", &sequential),
                EngineRun::render("broadcast", &run_broadcast(app, *seed, designs, *refs)),
                EngineRun::render(
                    "lockstep serial",
                    &reports(
                        &Plan::new(app, *seed, *refs, designs).with_lane_group(*width),
                        Jobs::SERIAL,
                    ),
                ),
                EngineRun::render(
                    "lockstep parallel",
                    &reports(&Plan::new(app, *seed, *refs, designs), Jobs::new(*jobs)),
                ),
            ];
            engines_agree(
                &format!(
                    "app={} designs={} refs={refs} seed={seed:#x} jobs={jobs} width={width}",
                    app.name,
                    designs.len()
                ),
                &runs,
            )
        },
    );
}

/// Renders isolated outcomes into deterministic comparable text (wall
/// time excluded — it is measurement noise).
fn outcome_fingerprint(outcomes: &[Result<Point, SweepPointError>]) -> Vec<String> {
    outcomes
        .iter()
        .map(|o| match o {
            Ok(point) => format!("ok {:?}", point.report),
            Err(e) => format!("err {e}"),
        })
        .collect()
}

#[test]
fn panicking_design_poisons_only_its_own_lane_identically_across_jobs() {
    let app = AppProfile::camera();
    let pool = design_pool();
    let refs = 8_000;
    let seed = 0xFA_117;
    // Deterministic fault plan over the 10-design pool: roughly a third
    // of the lanes panic mid-run.
    let faults = FaultPlan::new(0xBAD_5EED).with_rate(1, 3).faulty_indices(pool.len());
    assert!(
        !faults.is_empty() && faults.len() < pool.len(),
        "the plan must fault some but not all lanes: {faults:?}"
    );
    let plan = Plan::new(&app, seed, refs, &pool).with_injected_faults(&faults);

    let reference = outcome_fingerprint(&run(&plan, Jobs::SERIAL));

    // Failed lanes carry the deterministic injected payload; surviving
    // lanes are byte-identical to a fault-free run of the same pool.
    let clean = reports(&Plan::new(&app, seed, refs, &pool), Jobs::SERIAL);
    for (i, line) in reference.iter().enumerate() {
        if faults.contains(&i) {
            assert!(
                line.starts_with("err") && line.contains(&format!("injected fault at index {i}")),
                "lane {i}: {line}"
            );
        } else {
            assert_eq!(
                line,
                &format!("ok {:?}", clean[i]),
                "surviving lane {i} must match the fault-free run"
            );
        }
    }

    // The failed-point set — and every surviving report — is identical
    // for every job count.
    for jobs in [1usize, 2, 8] {
        let sharded = outcome_fingerprint(&run(&plan, Jobs::new(jobs)));
        assert_eq!(reference, sharded, "jobs={jobs} diverged from serial");
    }
}

#[test]
fn randomized_fault_sets_are_job_count_invariant() {
    let pool = design_pool();
    let apps = AppProfile::suite();
    check(
        Config::cases(6),
        |rng: &mut TestRng| {
            let app = rng.pick(&apps).clone();
            let n = rng.range_usize(2, 9);
            let designs = rng.vec(n, n + 1, |rng| *rng.pick(&pool));
            let faults = FaultPlan::new(rng.next_u64())
                .with_rate(1, 3)
                .faulty_indices(n);
            let refs = rng.range_usize(1_000, 9_000);
            let seed = rng.next_u64();
            let jobs = rng.range_usize(2, 9);
            (app, designs, faults, refs, seed, jobs)
        },
        |(app, designs, faults, refs, seed, jobs)| {
            let plan = Plan::new(app, *seed, *refs, designs).with_injected_faults(faults);
            let serial = outcome_fingerprint(&run(&plan, Jobs::SERIAL));
            let sharded = outcome_fingerprint(&run(&plan, Jobs::new(*jobs)));
            require_eq!(serial, sharded, "jobs={jobs}");
            for (i, line) in serial.iter().enumerate() {
                require!(
                    line.starts_with("err") == faults.contains(&i),
                    "lane {i} fault membership mismatch: {line}"
                );
            }
            Ok(())
        },
    );
}
