//! Quickstart: simulate one app on the baseline L2 and on the paper's
//! dynamic design, and compare energy and performance.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use moca::core::L2Design;
use moca::sim::{System, SystemConfig};
use moca::trace::{AppProfile, TraceGenerator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = AppProfile::browser();
    let refs = 2_000_000;

    // 1. Baseline: 2 MiB 16-way shared SRAM L2.
    let mut baseline = System::new(app.name, L2Design::baseline(), SystemConfig::default())?;
    baseline.run(TraceGenerator::new(&app, 42).take(refs));
    let baseline = baseline.finish();

    // 2. The paper's dynamic short-retention STT-RAM design.
    let mut dynamic = System::new(
        app.name,
        L2Design::dynamic_default(),
        SystemConfig::default(),
    )?;
    dynamic.run(TraceGenerator::new(&app, 42).take(refs));
    let dynamic = dynamic.finish();

    println!("app: {} ({} references)", app.name, refs);
    println!();
    for r in [&baseline, &dynamic] {
        println!("{}", r.design);
        println!("  L2 miss rate      {:.3}", r.l2_miss_rate());
        println!("  kernel L2 share   {:.1}%", r.l2_kernel_share() * 100.0);
        println!("  L2 energy         {}", r.l2_energy.total());
        println!("  mean active ways  {:.1}", r.mean_active_ways);
        println!("  cycles/reference  {:.3}", r.cpr());
        println!();
    }
    println!(
        "dynamic design: {:.1}% of baseline L2 energy at {:.1}% slowdown",
        dynamic.energy_ratio_vs(&baseline) * 100.0,
        (dynamic.slowdown_vs(&baseline) - 1.0) * 100.0
    );
    Ok(())
}
