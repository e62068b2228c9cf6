//! Retention design-space exploration: sweep the STT-RAM retention class
//! of the static partition's segments and print the energy/performance
//! trade-off — the analysis behind the paper's multi-retention choice.
//!
//! ```text
//! cargo run --release --example retention_sweep
//! ```

use moca::core::{L2Design, RefreshPolicy};
use moca::energy::RetentionClass;
use moca::sim::{System, SystemConfig};
use moca::trace::{AppProfile, TraceGenerator};

fn run(app: &AppProfile, design: L2Design, refs: usize) -> moca::sim::SimReport {
    let mut sys = System::new(app.name, design, SystemConfig::default())
        .expect("designs in this sweep are valid");
    sys.run(TraceGenerator::new(app, 5).take(refs));
    sys.finish()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = AppProfile::video();
    let refs = 2_000_000;
    let base = run(&app, L2Design::baseline(), refs);

    println!(
        "{}: sweeping retention of a 6u+4k STT-RAM partition",
        app.name
    );
    println!();
    println!("retention  policy                 normE   slowdown  expired  refreshes");
    for rc in RetentionClass::SWEEP {
        for policy in [RefreshPolicy::InvalidateOnExpiry, RefreshPolicy::Refresh] {
            if !rc.is_volatile() && policy == RefreshPolicy::Refresh {
                continue;
            }
            let design = L2Design::StaticMultiRetention {
                user_ways: 6,
                kernel_ways: 4,
                user_retention: rc,
                kernel_retention: rc,
                refresh: policy,
            };
            let r = run(&app, design, refs);
            println!(
                "{:9}  {:21}  {:.3}   {:.3}     {:7}  {:8}",
                rc.label(),
                policy.to_string(),
                r.energy_ratio_vs(&base),
                r.slowdown_vs(&base),
                r.expiry.expired,
                r.expiry.refreshes,
            );
        }
    }
    println!();
    println!(
        "Lower retention = cheaper writes but more expiry handling; the paper picks \
         per-segment classes from the lifetime analysis (see example `app_study`)."
    );
    Ok(())
}
