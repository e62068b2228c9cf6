//! An unmemoized plan of several designs filters its stream once.
//!
//! This binary holds one test, so nothing else moves the process-wide
//! front-end counter or the global memo while it measures them.

use moca_core::L2Design;
use moca_sim::lockstep::{execute, front_end_refs, Plan};
use moca_sim::memo::RunMemo;
use moca_sim::parallel::Jobs;
use moca_sim::workloads::run_app;
use moca_trace::AppProfile;

#[test]
fn five_unmemoized_designs_share_one_filter_pass() {
    let app = AppProfile::pdf();
    let designs = [
        L2Design::baseline(),
        L2Design::StaticSram {
            user_ways: 6,
            kernel_ways: 4,
        },
        L2Design::static_default(),
        L2Design::dynamic_default(),
        L2Design::StaticSram {
            user_ways: 16,
            kernel_ways: 16,
        },
    ];
    let refs = 30_011; // not chunk-aligned
    let seed = 8;
    let plan = Plan::new(&app, seed, refs, &designs).unmemoized();
    let memo_before = RunMemo::global().stats();
    let refs_before = front_end_refs();
    let points = execute(&plan, Jobs::SERIAL);
    // Five lanes, one pass over the stream.
    assert_eq!(front_end_refs() - refs_before, refs as u64);
    assert_eq!(RunMemo::global().stats(), memo_before);

    for (design, point) in designs.iter().zip(&points) {
        let got = &point.as_ref().expect("valid design").report;
        let want = run_app(&app, *design, refs, seed);
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }
}
