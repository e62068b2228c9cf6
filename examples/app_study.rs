//! App study: characterize one smartphone workload end-to-end — raw trace
//! statistics, L2-level kernel share, per-segment behaviour, and the
//! STT-RAM retention class the analyzer recommends for each segment.
//!
//! ```text
//! cargo run --release --example app_study [app-name]
//! ```
//!
//! `app-name` is one of the ten suite apps (default `maps`); run with an
//! unknown name to get the list.

use moca::core::{recommend_retention, L2Design};
use moca::sim::{System, SystemConfig};
use moca::trace::{AppProfile, Mode, TraceGenerator, TraceStats};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "maps".to_string());
    let Some(app) = AppProfile::by_name(&name) else {
        eprintln!("unknown app '{name}'; available:");
        for p in AppProfile::suite() {
            eprintln!("  {}", p.name);
        }
        std::process::exit(2);
    };
    let refs = 2_000_000;

    // Trace-level statistics (no cache involved).
    let stats = TraceStats::collect(TraceGenerator::new(&app, 7).take(refs), 64);
    println!("== {} — trace level ==", app.name);
    println!(
        "kernel share of references: {:.1}%",
        stats.kernel_share() * 100.0
    );
    for mode in Mode::ALL {
        let m = stats.mode(mode);
        println!(
            "  {mode:6} footprint {:6.1} KiB, median reuse interval {:?} refs",
            m.footprint_bytes(64) as f64 / 1024.0,
            m.median_reuse_interval()
        );
    }

    // System-level run on the static partition; every run records
    // segment behaviour.
    let design = L2Design::StaticSram {
        user_ways: 6,
        kernel_ways: 4,
    };
    let mut sys = System::new(app.name, design, SystemConfig::default())?;
    sys.run(TraceGenerator::new(&app, 7).take(refs));
    let report = sys.finish();

    println!();
    println!("== {} — partitioned L2 ({}) ==", app.name, report.design);
    println!(
        "kernel share of L2 accesses: {:.1}%",
        report.l2_kernel_share() * 100.0
    );
    println!("L2 miss rate: {:.3}", report.l2_miss_rate());
    for mode in Mode::ALL {
        let b = report.behavior(mode);
        let rec = recommend_retention(&b.lifetime, report.clock_ghz, 0.95);
        println!(
            "  {mode:6} segment: p95 lifetime {:8.2} ms, dead blocks {:4.1}%, recommended retention {}",
            b.lifetime.quantile(0.95).unwrap_or(0) as f64 / 1e6,
            b.dead_fraction() * 100.0,
            rec
        );
    }
    Ok(())
}
