//! Integration tests for composed workloads (custom profiles, app
//! switches, co-scheduling) driven through the full system.

use moca::core::L2Design;
use moca::sim::{System, SystemConfig};
use moca::trace::{AppProfile, Mode, MultiProgrammed, Service, TraceGenerator};

fn system(design: L2Design) -> System {
    System::new("composed", design, SystemConfig::default()).expect("valid design")
}

#[test]
fn custom_profile_runs_through_the_system() {
    let profile = AppProfile {
        name: "io-stress",
        heap_lines: 131_072,
        heap_hot_lines: 2_048,
        heap_theta: 0.95,
        heap_p_seq: 0.5,
        heap_seq_len: 32.0,
        syscall_mix: vec![(Service::FileRead, 3.0), (Service::FileWrite, 1.0)],
        mean_user_run: 400.0,
        ..AppProfile::music()
    };
    profile.validate();
    let mut sys = system(L2Design::baseline());
    sys.run(TraceGenerator::new(&profile, 7).take(200_000));
    let r = sys.finish();
    assert_eq!(r.refs, 200_000);
    // An IO-stress profile with frequent kernel entries is kernel-heavy.
    assert!(
        r.l2_kernel_share() > 0.45,
        "kernel share {:.3}",
        r.l2_kernel_share()
    );
}

#[test]
fn phased_session_changes_dynamic_allocation() {
    // music (small) then maps (large): the dynamic controller must move.
    let session = TraceGenerator::new(&AppProfile::music(), 3)
        .take(600_000)
        .chain(TraceGenerator::new(&AppProfile::maps(), 4).take(600_000));
    let mut sys = system(L2Design::dynamic_default());
    sys.run(session);
    let r = sys.finish();
    assert!(
        r.timeline.len() > 3,
        "controller must react to the phase change"
    );
    let totals: Vec<u32> = r
        .timeline
        .iter()
        .map(|s| s.user_ways + s.kernel_ways)
        .collect();
    let min = *totals.iter().min().expect("non-empty");
    let max = *totals.iter().max().expect("non-empty");
    assert!(max > min, "allocation must vary across phases ({totals:?})");
    // music shrinks the allocation; maps' larger footprint grows it back.
    assert!(
        totals.windows(2).any(|w| w[1] > w[0]),
        "allocation must grow again after the switch ({totals:?})"
    );
}

#[test]
fn coscheduled_pair_exercises_both_windows() {
    let apps = vec![AppProfile::music(), AppProfile::office()];
    let mut sys = system(L2Design::baseline());
    sys.run(MultiProgrammed::new(&apps, 10_000, 3).take(300_000));
    let r = sys.finish();
    // Both modes active, interference measurable.
    assert!(r.l2_stats.mode(Mode::User).accesses() > 0);
    assert!(r.l2_stats.mode(Mode::Kernel).accesses() > 0);
    assert!(r.l2_stats.cross_eviction_share() > 0.0);
}

#[test]
fn coscheduling_is_harder_on_the_cache_than_solo() {
    let refs = 300_000;
    let solo = {
        let mut sys = system(L2Design::baseline());
        sys.run(TraceGenerator::new(&AppProfile::music(), 5).take(refs));
        sys.finish()
    };
    let multi = {
        let apps = vec![AppProfile::music(), AppProfile::game()];
        let mut sys = system(L2Design::baseline());
        sys.run(MultiProgrammed::new(&apps, 10_000, 5).take(refs));
        sys.finish()
    };
    assert!(
        multi.l2_miss_rate() > solo.l2_miss_rate() - 0.02,
        "two footprints should not make the L2's life easier ({:.3} vs {:.3})",
        multi.l2_miss_rate(),
        solo.l2_miss_rate()
    );
}

#[test]
fn mixed_session_runs_on_every_headline_design() {
    for design in [
        L2Design::baseline(),
        L2Design::static_default(),
        L2Design::dynamic_default(),
    ] {
        let mut sys = system(design);
        // A "mixed usage" session: the whole ten-app suite in turn.
        let suite = AppProfile::suite();
        sys.run(
            suite
                .iter()
                .zip(9..)
                .flat_map(|(p, seed)| TraceGenerator::new(p, seed).take(20_000)),
        );
        let r = sys.finish();
        assert_eq!(r.refs, 200_000);
        assert!(r.l2_energy.total().nj() > 0.0);
    }
}
