//! Cross-crate accounting consistency: the same events must add up the
//! same way wherever they are counted.

use moca::cache::{L1Pair, L2Request};
use moca::core::{L2BaseParams, L2Design, MobileL2};
use moca::sim::config::{L1D_GEOMETRY, L1I_GEOMETRY};
use moca::sim::{System, SystemConfig};
use moca::trace::{AppProfile, Mode, TraceGenerator};

fn report(design: L2Design, refs: usize) -> moca::sim::SimReport {
    let app = AppProfile::pdf();
    let mut sys = System::new(app.name, design, SystemConfig::default()).expect("valid");
    sys.run(TraceGenerator::new(&app, 13).take(refs));
    sys.finish()
}

#[test]
fn l2_misses_equal_dram_reads() {
    let r = report(L2Design::baseline(), 200_000);
    assert_eq!(r.l2_stats.misses(), r.traffic.dram_reads);
}

#[test]
fn dram_writes_cover_writebacks_and_expiry() {
    let r = report(L2Design::static_default(), 1_000_000);
    // Every dirty eviction writeback plus expiry writeback reaches DRAM;
    // the traffic counter must be at least the L2-observed writebacks.
    assert!(
        r.traffic.dram_writes >= r.l2_stats.writebacks(),
        "dram writes {} < writebacks {}",
        r.traffic.dram_writes,
        r.l2_stats.writebacks()
    );
    assert!(
        r.traffic.dram_writes
            <= r.l2_stats.writebacks() + r.expiry.expiry_writebacks + r.l2_stats.invalidations,
        "dram writes overcounted"
    );
}

#[test]
fn l1_misses_bound_l2_accesses() {
    let r = report(L2Design::baseline(), 200_000);
    let l1_misses = r.l1_stats.misses();
    // L2 demand accesses = L1 misses; writebacks add more, at most one
    // per L1 miss (a fill can evict at most one dirty block).
    assert!(r.l2_stats.accesses() >= l1_misses);
    assert!(r.l2_stats.accesses() <= 2 * l1_misses);
}

#[test]
fn segment_energies_sum_to_total() {
    let params = L2BaseParams::default();
    let mut l2 = MobileL2::new(L2Design::static_default(), params).expect("valid");
    let app = AppProfile::video();
    let mut l1 = L1Pair::from_geometries(L1I_GEOMETRY, L1D_GEOMETRY);
    let mut now = 0u64;
    for a in TraceGenerator::new(&app, 3).take(150_000) {
        now += 2;
        let o = l1.access(&a);
        for req in [o.demand, o.writeback].into_iter().flatten() {
            l2.request(&req, now);
        }
    }
    l2.finalize(now);
    let total = l2.energy().total().pj();
    let parts =
        l2.segment_energy(Mode::User).total().pj() + l2.segment_energy(Mode::Kernel).total().pj();
    assert!(
        (total - parts).abs() < 1e-6,
        "total {total} != parts {parts}"
    );
}

#[test]
fn leakage_grows_linearly_with_idle_time() {
    let params = L2BaseParams::default();
    let mk = |end: u64| {
        let mut l2 = MobileL2::new(L2Design::baseline(), params).expect("valid");
        let req = L2Request {
            line: 1,
            write: false,
            mode: Mode::User,
            cause: moca::cache::L2Cause::Demand(moca::trace::AccessKind::Load),
        };
        l2.request(&req, 0);
        l2.finalize(end);
        l2.energy().leakage.pj()
    };
    let one = mk(1_000_000);
    let two = mk(2_000_000);
    assert!(
        (two / one - 2.0).abs() < 0.01,
        "leakage ratio {}",
        two / one
    );
}

#[test]
fn mean_active_ways_matches_timeline_bounds() {
    let r = report(L2Design::dynamic_default(), 1_500_000);
    let min = r
        .timeline
        .iter()
        .map(|s| s.user_ways + s.kernel_ways)
        .min()
        .expect("non-empty") as f64;
    let max = r
        .timeline
        .iter()
        .map(|s| s.user_ways + s.kernel_ways)
        .max()
        .expect("non-empty") as f64;
    assert!(
        r.mean_active_ways >= min - 1e-9 && r.mean_active_ways <= max + 1e-9,
        "mean {} outside [{min}, {max}]",
        r.mean_active_ways
    );
}

#[test]
fn expiry_only_on_volatile_designs() {
    let sram = report(L2Design::baseline(), 400_000);
    assert_eq!(sram.expiry.expired, 0);
    assert_eq!(sram.expiry.refreshes, 0);
    assert_eq!(sram.l2_energy.refresh.pj(), 0.0);
}

#[test]
fn cycle_accounting_matches_stall_model() {
    // Cycles = base (1.5/ref) + stalls; with zero L1 misses impossible,
    // but cycles must stay within [1.5x, 1.5x + worst-stall x refs].
    let r = report(L2Design::baseline(), 100_000);
    let base = (r.refs as f64 * 1.5) as u64;
    assert!(r.cycles >= base);
    let worst = r.refs * (12 + 120) + base; // L2 latency + DRAM per ref
    assert!(r.cycles < worst);
}
