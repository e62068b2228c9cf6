//! Fault-tolerance suite: panic isolation, deterministic failed sets,
//! and isolation under telemetry and a poisoned memo.
//!
//! The contracts under test (see `DESIGN.md`, "Failure model"):
//!
//! 1. a faulting sweep point never takes down its neighbours;
//! 2. the failed-point set — indices, labels, rendered causes — is a
//!    pure function of the inputs, identical for every `--jobs N`;
//! 3. surviving reports are byte-identical to a fault-free run of the
//!    same designs;
//! 4. isolation composes with telemetry: surviving lanes emit their
//!    `point` events.

use moca_core::L2Design;
use moca_sim::lockstep::{execute, Plan, Point};
use moca_sim::memo::{RunMemo, MEMO_CAP_BYTES};
use moca_sim::parallel::{catch_panic, parallel_map, Jobs};
use moca_sim::telemetry::{self, JsonValue};
use moca_sim::{PointCause, SimReport, SweepPointError};
use moca_testkit::{check, Config, FaultPlan, TestRng};
use moca_trace::AppProfile;

/// Maps a swept way count to a design; `ways == 0` is an *invalid*
/// design (rejected by validation), the injected fault of this suite.
fn to_design(&ways: &u32) -> L2Design {
    L2Design::SharedSram { ways }
}

/// Runs the design of every way count through one plan.
fn run_ways(
    ways: &[u32],
    app: &AppProfile,
    refs: usize,
    seed: u64,
    jobs: Jobs,
) -> Vec<Result<Point, SweepPointError>> {
    let designs: Vec<L2Design> = ways.iter().map(to_design).collect();
    execute(&Plan::new(app, seed, refs, &designs), jobs)
}

/// Renders an isolated sweep outcome into comparable, deterministic
/// text (wall time excluded — it is measurement noise).
fn outcome_fingerprint(outcomes: &[Result<Point, SweepPointError>]) -> Vec<String> {
    outcomes
        .iter()
        .map(|o| match o {
            Ok(p) => format!("ok {:?}", p.report),
            Err(e) => format!("err {e}"),
        })
        .collect()
}

#[test]
fn faulty_points_are_isolated_from_their_neighbours() {
    let app = AppProfile::music();
    let params = [4u32, 0, 8, 0, 2];
    let outcomes = run_ways(&params, &app, 6_000, 1, Jobs::SERIAL);

    assert_eq!(outcomes.len(), params.len());
    for (i, outcome) in outcomes.iter().enumerate() {
        if params[i] == 0 {
            let e = outcome.as_ref().expect_err("invalid design must fail");
            assert_eq!(e.index, i);
            assert!(matches!(e.cause, PointCause::Build(_)), "{e}");
            assert!(e.to_string().contains("build failed"), "{e}");
        } else {
            let p = outcome.as_ref().expect("valid design must survive");
            assert_eq!(p.report.design, to_design(&params[i]).label());
            assert!(p.report.cycles > 0);
        }
    }

    // Surviving points are byte-identical to a fault-free sweep of the
    // same valid designs (the shared trace stream is unaffected by the
    // failed slots).
    let valid: Vec<u32> = params.iter().copied().filter(|&w| w != 0).collect();
    let clean: Vec<_> = run_ways(&valid, &app, 6_000, 1, Jobs::SERIAL)
        .into_iter()
        .map(|p| p.expect("valid design"))
        .collect();
    let survived: Vec<_> = outcomes.iter().filter_map(|o| o.as_ref().ok()).collect();
    assert_eq!(survived.len(), clean.len());
    for (s, c) in survived.iter().zip(&clean) {
        assert_eq!(format!("{:?}", s.report), format!("{:?}", c.report));
    }
}

/// The set-partitioned and hybrid engines are lanes like any other: an
/// invalid design of either fails its own slot at build time, and its
/// neighbours — valid designs of both engines among them — complete.
#[test]
fn invalid_set_partitioned_and_hybrid_lanes_fail_only_their_slots() {
    use moca_core::DesignError;
    use moca_energy::RetentionClass;
    let app = AppProfile::music();
    let designs = [
        L2Design::baseline(),
        L2Design::HybridStt {
            sram_ways: 2,
            stt_ways: 14,
            retention: RetentionClass::TenMillis,
        },
        L2Design::HybridStt {
            sram_ways: 2,
            stt_ways: 14,
            retention: RetentionClass::TenYears,
        },
        L2Design::SetPartitionedSram {
            user_sets: 3,
            kernel_sets: 512,
            ways: 16,
        },
        L2Design::SetPartitionedSram {
            user_sets: 1024,
            kernel_sets: 512,
            ways: 16,
        },
    ];
    let outcomes = execute(&Plan::new(&app, 1, 6_000, &designs), Jobs::SERIAL);
    assert_eq!(outcomes.len(), designs.len());
    let failed: Vec<usize> = outcomes
        .iter()
        .enumerate()
        .filter_map(|(i, o)| o.is_err().then_some(i))
        .collect();
    assert_eq!(failed, [1, 3]);
    for (i, (outcome, design)) in outcomes.iter().zip(&designs).enumerate() {
        match design.validate() {
            Err(want) => {
                let e = outcome.as_ref().expect_err("invalid design must fail");
                assert_eq!(e.index, i);
                assert!(
                    matches!(&e.cause, PointCause::Build(got) if *got == want),
                    "{e}"
                );
                assert!(matches!(
                    want,
                    DesignError::VolatileHybrid | DesignError::BadSetCount("user array", 3)
                ));
            }
            Ok(()) => {
                let p = outcome.as_ref().expect("valid design must survive");
                assert_eq!(p.report.design, design.label());
                assert!(p.report.cycles > 0);
            }
        }
    }
}

#[test]
fn failed_set_is_identical_for_every_job_count() {
    let app = AppProfile::game();
    // Faults at fixed positions across group boundaries for jobs ∈ {2, 8}.
    let params = [2u32, 0, 4, 6, 0, 8, 10, 0, 12, 16, 0, 1];
    let reference = outcome_fingerprint(&run_ways(&params, &app, 5_000, 9, Jobs::SERIAL));
    for jobs in [2, 3, 8] {
        let sharded = outcome_fingerprint(&run_ways(&params, &app, 5_000, 9, Jobs::new(jobs)));
        assert_eq!(reference, sharded, "jobs={jobs} diverged from serial");
    }
}

#[test]
fn fault_plan_panics_yield_exact_deterministic_failed_set() {
    let plan = FaultPlan::new(0xDEAD_BEEF).with_rate(1, 3);
    let items: Vec<usize> = (0..60).collect();
    let expected = plan.faulty_indices(items.len());
    assert!(!expected.is_empty() && expected.len() < items.len());

    let mut renderings = Vec::new();
    for jobs in [1, 2, 8] {
        let outcomes = parallel_map(Jobs::new(jobs), items.clone(), |i| {
            catch_panic(|| {
                plan.trip(i); // panics on planned indices
                i * 10
            })
        });
        let failed: Vec<usize> = outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.is_err().then_some(i))
            .collect();
        assert_eq!(failed, expected, "jobs={jobs}");
        for (i, o) in outcomes.iter().enumerate() {
            match o {
                Ok(v) => assert_eq!(*v, i * 10),
                Err(msg) => assert_eq!(msg, &format!("injected fault at index {i}")),
            }
        }
        renderings.push(format!("{outcomes:?}"));
    }
    assert!(renderings.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn randomized_fault_injection_is_deterministic_across_jobs() {
    let apps = [
        AppProfile::music(),
        AppProfile::game(),
        AppProfile::browser(),
        AppProfile::video(),
        AppProfile::camera(),
    ];
    check(
        Config::cases(8),
        |rng: &mut TestRng| {
            let app_idx = rng.range_usize(0, apps.len());
            let n = rng.range_usize(3, 9);
            let plan = FaultPlan::new(rng.next_u64()).with_rate(1, 3);
            // Valid way counts, then zero out the plan's fault indices.
            let mut params: Vec<u32> = (0..n).map(|_| rng.range_u32(1, 17)).collect();
            for i in plan.faulty_indices(n) {
                params[i] = 0;
            }
            let seed = rng.next_u64();
            let jobs = rng.range_usize(2, 7);
            (app_idx, params, seed, jobs)
        },
        |(app_idx, params, seed, jobs)| {
            let app = &apps[*app_idx];
            let serial = outcome_fingerprint(&run_ways(params, app, 3_000, *seed, Jobs::SERIAL));
            let sharded =
                outcome_fingerprint(&run_ways(params, app, 3_000, *seed, Jobs::new(*jobs)));
            moca_testkit::require_eq!(serial, sharded, "jobs={jobs}");
            for (i, line) in serial.iter().enumerate() {
                let expect_err = params[i] == 0;
                moca_testkit::require_eq!(line.starts_with("err"), expect_err, "point {i}: {line}");
            }
            Ok(())
        },
    );
}

#[test]
fn poisoned_memo_recovers_and_replays_correctly() {
    let app = AppProfile::browser();
    let memo = RunMemo::with_capacity(MEMO_CAP_BYTES);
    let designs = [L2Design::baseline(), L2Design::static_default()];
    let refs = 20_000;

    let run = || -> Vec<SimReport> {
        let plan = Plan::new(&app, 5, refs, &designs).with_memo(&memo);
        execute(&plan, Jobs::SERIAL)
            .into_iter()
            .map(|p| p.expect("valid design").report)
            .collect()
    };

    // Prime, then poison the memo's lock the way a crashed worker would.
    let warm = run();
    memo.poison();

    // Every accessor recovers: stats are readable and a fresh replay
    // still produces the reference reports (served from the cached run).
    let stats = memo.stats();
    assert_eq!(stats.runs, 1);
    let replay = run();
    assert_eq!(memo.stats().hits, stats.hits + 1);
    for ((warm, replay), design) in warm.iter().zip(&replay).zip(&designs) {
        assert_eq!(format!("{warm:?}"), format!("{replay:?}"));
        let direct = moca_sim::run_app(&app, *design, refs, 5);
        assert_eq!(format!("{replay:?}"), format!("{direct:?}"));
    }
}

/// Isolation and telemetry compose: a plan with one invalid design
/// emits a `point` event for every surviving lane, under the same sweep
/// indices at every job count.
#[test]
fn surviving_lanes_emit_point_events_at_job_invariant_indices() {
    let recorder = telemetry::install();
    // No other test of this suite runs `email`, so its point events are
    // this test's alone.
    let app = AppProfile::email();
    let params = [4u32, 8, 0, 2, 16, 1, 12];
    for jobs in [1usize, 2, 8] {
        telemetry::set_scope(&format!("isolated-jobs-{jobs}"));
        let outcomes = run_ways(&params, &app, 4_000, 3, Jobs::new(jobs));
        assert!(outcomes[2].is_err(), "ways=0 must fail at jobs={jobs}");
    }

    let mut jsonl = Vec::new();
    recorder.write_jsonl(&mut jsonl).expect("jsonl to a Vec");
    let mut indices: Vec<(String, u64)> = Vec::new();
    for line in String::from_utf8(jsonl).expect("utf8").lines() {
        let fields = telemetry::parse_line(line).expect("every line parses");
        let field = |key: &str| {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
        };
        let str_field = |key: &str| match field(key) {
            Some(JsonValue::Str(s)) => s,
            other => panic!("{key}: {other:?} in {line}"),
        };
        if str_field("kind") != "point" || str_field("app") != "email" {
            continue;
        }
        assert_eq!(
            field("total"),
            Some(JsonValue::Num(params.len() as u64)),
            "{line}"
        );
        match field("index") {
            Some(JsonValue::Num(index)) => indices.push((str_field("scope"), index)),
            other => panic!("index: {other:?} in {line}"),
        }
    }
    for jobs in [1usize, 2, 8] {
        let scope = format!("isolated-jobs-{jobs}");
        let mut got: Vec<u64> = indices
            .iter()
            .filter(|(s, _)| *s == scope)
            .map(|&(_, i)| i)
            .collect();
        got.sort_unstable();
        assert_eq!(
            got,
            [0, 1, 3, 4, 5, 6],
            "surviving point events at jobs={jobs}"
        );
    }
}
