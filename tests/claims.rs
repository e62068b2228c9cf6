//! Golden-claim regression tests.
//!
//! Each test pins one abstract-level claim of the reproduced paper
//! (C1–C4 in `DESIGN.md`) directly against the simulation — not against
//! the experiment modules' own claim checks — so a regression in the
//! trace generator, the cache substrate, or the system model that would
//! silently change the reproduction's conclusions fails CI loudly.
//!
//! The tests run at `Scale::Quick`; the claims hold with margin there
//! (the full-scale numbers live in `EXPERIMENTS.md`).

use moca::core::{find_min_partition, recommend_retention, L2Design};
use moca::sim::experiments::matrix::run_matrix;
use moca::sim::lockstep::{execute, Plan};
use moca::sim::parallel::{parallel_map, Jobs};
use moca::sim::workloads::{run_app, Scale, EXPERIMENT_SEED};
use moca::trace::{AppProfile, Mode};

/// C1 — in interactive mobile apps, the OS kernel contributes more than
/// 40 % of all L2 cache accesses (suite mean, shared baseline).
#[test]
fn c1_kernel_share_of_l2_accesses_exceeds_40_percent() {
    let m = run_matrix(&[L2Design::baseline()], Scale::Quick, Jobs::available());
    let shares: Vec<f64> = m
        .reports(L2Design::baseline())
        .map(|r| r.l2_kernel_share())
        .collect();
    let mean = shares.iter().sum::<f64>() / shares.len() as f64;
    assert!(
        mean > 0.40,
        "C1 regressed: suite-mean kernel share of L2 accesses = {mean:.3} (claim: > 0.40; \
         per-app {shares:?})"
    );
}

/// C2 — user and kernel blocks interfere in a shared L2: giving each
/// mode its own full-size segment lowers the miss rate (positive gap).
#[test]
fn c2_shared_vs_isolated_miss_rate_gap_is_positive() {
    let isolated = L2Design::StaticSram {
        user_ways: 16,
        kernel_ways: 16,
    };
    let deltas = parallel_map(Jobs::available(), AppProfile::suite(), |app| {
        let shared = run_app(
            &app,
            L2Design::baseline(),
            Scale::Quick.refs(),
            EXPERIMENT_SEED,
        );
        let iso = run_app(&app, isolated, Scale::Quick.refs(), EXPERIMENT_SEED);
        shared.l2_miss_rate() - iso.l2_miss_rate()
    });
    let mean = deltas.iter().sum::<f64>() / deltas.len() as f64;
    assert!(
        mean > 0.0,
        "C2 regressed: removing user/kernel interference no longer helps \
         (mean miss-rate delta = {mean:+.4}, per-app {deltas:?})"
    );
}

/// C3 — after partitioning, the L2 can be shrunk: a static partition of
/// at most 12 of 16 ways stays within 2 % absolute miss rate of the
/// full-size shared baseline.
#[test]
fn c3_shrunk_static_partition_stays_within_two_percent_miss_of_shared() {
    let refs = Scale::Quick.sweep_refs();
    let apps = ["browser", "music"];
    let choices = parallel_map(Jobs::available(), apps.to_vec(), |name| {
        let app = AppProfile::by_name(name).expect("known app");
        let baseline = run_app(&app, L2Design::baseline(), refs, EXPERIMENT_SEED);
        find_min_partition(12, 8, baseline.l2_miss_rate(), 0.02, |u, k| {
            run_app(
                &app,
                L2Design::StaticSram {
                    user_ways: u,
                    kernel_ways: k,
                },
                refs,
                EXPERIMENT_SEED,
            )
            .l2_miss_rate()
        })
    });
    for (name, choice) in apps.iter().zip(&choices) {
        assert!(
            choice.total_ways() <= 12,
            "C3 regressed for {name}: no in-budget partition at <= 12 ways \
             (search settled on {} ways)",
            choice.total_ways()
        );
        let gap = choice.miss_rate - choice.baseline_miss_rate;
        assert!(
            gap <= 0.02 + 1e-12,
            "C3 regressed for {name}: chosen partition misses {gap:+.4} above the shared \
             baseline (budget 0.02)"
        );
    }
}

/// S1 — the evolved Pareto front dominates-or-ties the paper's
/// hand-picked designs: for each of C7 (static multi-retention
/// partition) and C8 (dynamic STT-RAM reconfiguration), some front
/// member is no worse on *both* measured energy and cycles. Pinned
/// directly against the search engine (not its experiment wrapper):
/// both references are seeded into generation 0, so this guards the
/// selection machinery — losing either from the archive's non-dominated
/// closure means ranking or crowding regressed, not the simulator.
#[test]
fn s1_evolved_front_dominates_or_ties_the_handpicked_designs() {
    let cfg = moca::search::SearchConfig::for_scale(Scale::Quick);
    let outcome = moca::search::run_search(&cfg, Jobs::available(), None).expect("search runs");
    for (claim, label) in [
        ("S1-C7", L2Design::static_default().label()),
        ("S1-C8", L2Design::dynamic_default().label()),
    ] {
        let reference = outcome
            .record_for(&label)
            .unwrap_or_else(|| panic!("{claim} regressed: {label} missing from the archive"));
        let witness = outcome.front.iter().find(|&&i| {
            moca::search::nsga::dominates_or_ties_2d(
                &outcome.archive[i].fitness,
                &reference.fitness,
            )
        });
        assert!(
            witness.is_some(),
            "{claim} regressed: no front member dominates-or-ties {label} \
             (reference fitness {:?}; front {:?})",
            reference.fitness,
            outcome
                .front
                .iter()
                .map(|&i| (&outcome.archive[i].label, outcome.archive[i].fitness))
                .collect::<Vec<_>>()
        );
    }
}

/// Total variation distance between two bucketed distributions
/// (0 = identical, 1 = disjoint support).
fn tv_distance(a: &[u64], b: &[u64]) -> f64 {
    let (ta, tb) = (a.iter().sum::<u64>() as f64, b.iter().sum::<u64>() as f64);
    if ta == 0.0 || tb == 0.0 {
        return 1.0;
    }
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x as f64 / ta - y as f64 / tb).abs())
        .sum::<f64>()
        / 2.0
}

/// C4 — once partitioned, the user and kernel segments show distinct
/// access behaviour: their reuse/lifetime distributions differ
/// materially, and the retention class recommended for the kernel
/// segment is never longer than the user segment's in a majority of
/// apps (the basis for per-segment retention classes).
#[test]
fn c4_kernel_and_user_reuse_lifetime_distributions_are_distinct() {
    let design = [L2Design::StaticSram {
        user_ways: 6,
        kernel_ways: 4,
    }];
    let stats = parallel_map(Jobs::available(), AppProfile::suite(), |app| {
        let plan = Plan::new(&app, EXPERIMENT_SEED, Scale::Quick.refs(), &design).unmemoized();
        let r = execute(&plan, Jobs::SERIAL)
            .remove(0)
            .expect("the static partition is valid")
            .report;
        let user = r.behavior(Mode::User);
        let kernel = r.behavior(Mode::Kernel);
        let reuse_tv = tv_distance(user.reuse.buckets(), kernel.reuse.buckets());
        let lifetime_tv = tv_distance(user.lifetime.buckets(), kernel.lifetime.buckets());
        let user_rec = recommend_retention(&user.lifetime, r.clock_ghz, 0.95);
        let kernel_rec = recommend_retention(&kernel.lifetime, r.clock_ghz, 0.95);
        (app.name, reuse_tv, lifetime_tv, user_rec, kernel_rec)
    });
    let distinct = stats
        .iter()
        .filter(|(_, reuse_tv, lifetime_tv, _, _)| reuse_tv.max(*lifetime_tv) > 0.10)
        .count();
    let kernel_no_longer = stats
        .iter()
        .filter(|(_, _, _, u, k)| k.duration().secs() <= u.duration().secs())
        .count();
    assert!(
        distinct >= 8,
        "C4 regressed: user/kernel reuse/lifetime distributions are materially distinct \
         (TV distance > 0.10) in only {distinct}/10 apps: {stats:?}"
    );
    assert!(
        kernel_no_longer >= 6,
        "C4 regressed: the kernel segment's recommended retention exceeds the user's in \
         {}/10 apps: {stats:?}",
        10 - kernel_no_longer
    );
}
