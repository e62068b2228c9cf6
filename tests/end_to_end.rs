//! End-to-end integration: trace generation → L1 filtering → each L2
//! design → reports, across the public facade crate.

use moca::core::{L2Design, RefreshPolicy};
use moca::energy::RetentionClass;
use moca::sim::{System, SystemConfig};
use moca::trace::{AppProfile, Mode, TraceGenerator};

fn run(app: &AppProfile, design: L2Design, refs: usize, seed: u64) -> moca::sim::SimReport {
    let mut sys = System::new(app.name, design, SystemConfig::default()).expect("valid design");
    sys.run(TraceGenerator::new(app, seed).take(refs));
    sys.finish()
}

#[test]
fn every_app_runs_on_every_design() {
    let designs = [
        L2Design::baseline(),
        L2Design::StaticSram {
            user_ways: 6,
            kernel_ways: 4,
        },
        L2Design::static_default(),
        L2Design::dynamic_default(),
    ];
    for app in AppProfile::suite() {
        for design in designs {
            let r = run(&app, design, 60_000, 3);
            assert_eq!(r.refs, 60_000, "{}/{}", app.name, r.design);
            assert!(r.cycles > r.refs, "{}/{}", app.name, r.design);
            assert!(r.l2_miss_rate() > 0.0 && r.l2_miss_rate() < 1.0);
            assert!(r.l2_energy.total().nj() > 0.0);
        }
    }
}

#[test]
fn whole_pipeline_is_deterministic() {
    let app = AppProfile::social();
    let a = run(&app, L2Design::dynamic_default(), 150_000, 11);
    let b = run(&app, L2Design::dynamic_default(), 150_000, 11);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.l2_stats, b.l2_stats);
    assert_eq!(a.timeline, b.timeline);
    assert_eq!(a.expiry, b.expiry);
    assert!((a.l2_energy.total().pj() - b.l2_energy.total().pj()).abs() < 1e-6);
}

#[test]
fn kernel_share_claim_holds_at_small_scale() {
    // C1 at reduced scale: mean L2 kernel share must already be large.
    let mut shares = Vec::new();
    for app in AppProfile::suite() {
        let r = run(&app, L2Design::baseline(), 150_000, 9);
        shares.push(r.l2_kernel_share());
    }
    let mean = shares.iter().sum::<f64>() / shares.len() as f64;
    assert!(mean > 0.35, "mean kernel L2 share {mean:.3}");
}

#[test]
fn partitioning_removes_cross_mode_evictions() {
    let app = AppProfile::email();
    let shared = run(&app, L2Design::baseline(), 200_000, 5);
    let partitioned = run(
        &app,
        L2Design::StaticSram {
            user_ways: 6,
            kernel_ways: 4,
        },
        200_000,
        5,
    );
    assert!(shared.l2_stats.cross_eviction_share() > 0.05);
    assert_eq!(partitioned.l2_stats.cross_eviction_share(), 0.0);
}

#[test]
fn sttram_designs_save_most_of_the_energy() {
    let app = AppProfile::office();
    let base = run(&app, L2Design::baseline(), 400_000, 2);
    let stt = run(&app, L2Design::static_default(), 400_000, 2);
    let ratio = stt.energy_ratio_vs(&base);
    assert!(ratio < 0.35, "static MR-STT norm energy {ratio:.3}");
    // And the performance cost stays bounded.
    let slow = stt.slowdown_vs(&base);
    assert!(slow < 1.15, "slowdown {slow:.3}");
}

#[test]
fn refresh_policy_eliminates_expiry_losses() {
    let app = AppProfile::music();
    let mk = |refresh| L2Design::StaticMultiRetention {
        user_ways: 6,
        kernel_ways: 4,
        user_retention: RetentionClass::TenMillis,
        kernel_retention: RetentionClass::TenMillis,
        refresh,
    };
    // Long enough that 10 ms (10 M cycles) retention expires repeatedly.
    let refs = 3_000_000;
    let invalidate = run(&app, mk(RefreshPolicy::InvalidateOnExpiry), refs, 4);
    let refresh = run(&app, mk(RefreshPolicy::Refresh), refs, 4);
    assert!(invalidate.expiry.expired > 0, "expiry must occur");
    assert_eq!(refresh.expiry.expired, 0, "refresh must prevent expiry");
    assert!(refresh.expiry.refreshes > 0);
    assert!(refresh.l2_energy.refresh.nj() > 0.0);
}

#[test]
fn dynamic_design_gates_ways_on_long_runs() {
    let app = AppProfile::music();
    let r = run(&app, L2Design::dynamic_default(), 2_000_000, 8);
    assert!(
        r.mean_active_ways < 15.0,
        "expected gating, mean ways {:.1}",
        r.mean_active_ways
    );
    assert!(r.timeline.len() > 2, "controller must repartition");
}

#[test]
fn isolation_is_strict_between_segments() {
    // A kernel line never hits in the user segment and vice versa, by
    // construction of the generated addresses and mode routing.
    let app = AppProfile::game();
    let r = run(
        &app,
        L2Design::StaticSram {
            user_ways: 2,
            kernel_ways: 2,
        },
        100_000,
        6,
    );
    // Per-mode accesses add up and the two modes were actually exercised.
    let u = r.l2_stats.mode(Mode::User).accesses();
    let k = r.l2_stats.mode(Mode::Kernel).accesses();
    assert_eq!(u + k, r.l2_stats.accesses());
    assert!(u > 0 && k > 0);
}
