//! Dynamic partitioning in action: run the adaptive short-retention
//! STT-RAM L2 and print the allocation timeline as an ASCII strip chart,
//! plus the resulting energy/performance versus the baseline.
//!
//! ```text
//! cargo run --release --example dynamic_partition [app-name]
//! ```

use moca::core::L2Design;
use moca::sim::{System, SystemConfig};
use moca::trace::{AppProfile, TraceGenerator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "camera".to_string());
    let app = AppProfile::by_name(&name).ok_or("unknown app (try: camera, browser, music)")?;
    let refs = 4_000_000;

    let mut base = System::new(app.name, L2Design::baseline(), SystemConfig::default())?;
    base.run(TraceGenerator::new(&app, 99).take(refs));
    let base = base.finish();

    let mut dynamic = System::new(
        app.name,
        L2Design::dynamic_default(),
        SystemConfig::default(),
    )?;
    dynamic.run(TraceGenerator::new(&app, 99).take(refs));
    let report = dynamic.finish();

    println!("{} on {}", app.name, report.design);
    println!();
    println!("time(ms)  user ways        kernel ways      total");
    for s in &report.timeline {
        let t = s.cycle as f64 / (report.clock_ghz * 1e6);
        println!(
            "{t:7.2}   {:16} {:16} {:2}",
            "#".repeat(s.user_ways as usize),
            "#".repeat(s.kernel_ways as usize),
            s.user_ways + s.kernel_ways,
        );
    }
    println!();
    println!(
        "time-weighted mean: {:.1} of 16 ways powered ({:.0}% gated)",
        report.mean_active_ways,
        (1.0 - report.mean_active_ways / 16.0) * 100.0
    );
    println!(
        "energy: {:.1}% of baseline; slowdown {:.1}%; expiries {}, expiry writebacks {}",
        report.energy_ratio_vs(&base) * 100.0,
        (report.slowdown_vs(&base) - 1.0) * 100.0,
        report.expiry.expired,
        report.expiry.expiry_writebacks,
    );
    Ok(())
}
