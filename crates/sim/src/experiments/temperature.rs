//! A6 (extension) — energy savings versus die temperature.
//!
//! Phones are passively cooled and routinely run hot. Sub-threshold SRAM
//! leakage roughly doubles every 25 °C, while STT-RAM's MTJ cells do not
//! leak at all — so the paper's designs save *more* on a hot die. This
//! study sweeps the die temperature and reports the static design's
//! saving at each point.

use moca_core::{L2BaseParams, L2Design, MobileL2};
use moca_energy::Temperature;
use moca_trace::AppProfile;

use crate::config::SystemConfig;
use crate::experiments::{ClaimCheck, ExperimentResult};
use crate::memo::RunMemo;
use crate::parallel::{parallel_map, Jobs};
use crate::table::{pct, Table};
use crate::workloads::{Scale, EXPERIMENT_SEED};

/// App used for the temperature sweep.
pub const APP: &str = "office";

/// Die temperatures swept (°C).
pub const SWEEP_C: [f64; 4] = [35.0, 60.0, 85.0, 110.0];

/// Runs one design at one temperature (a small in-module runner so we can
/// set `L2BaseParams::temperature`, which `SystemConfig` does not expose).
fn run_at(design: L2Design, temp_c: f64, refs: usize) -> (f64, f64) {
    let params = L2BaseParams {
        temperature: Temperature::from_celsius(temp_c),
        ..L2BaseParams::default()
    };
    let app = AppProfile::by_name(APP).expect("known app");
    let mut l2 = MobileL2::new(design, params).expect("valid design");
    let mut now = 0u64;
    // Every (temperature, design) cell replays the same memoized
    // filtered run; each reference advances time by 2 cycles, so a hit
    // gap of `g` references advances it by `2 * g`.
    RunMemo::global()
        .replay(
            &app,
            EXPERIMENT_SEED,
            &SystemConfig::default(),
            refs,
            None,
            |chunk| {
                for ev in chunk.events() {
                    now += 2 * u64::from(ev.gap) + 2;
                    for req in std::iter::once(&ev.demand).chain(&ev.writeback) {
                        let resp = l2.request(req, now);
                        if resp.dram_read {
                            now += 120;
                        }
                    }
                }
                now += 2 * chunk.tail_gap() as u64;
            },
        )
        .expect("uncancellable run cannot be cancelled");
    l2.finalize(now);
    let e = l2.energy();
    (e.total().joules(), e.leakage_fraction())
}

/// Runs the experiment, sharding the temperature × design grid over
/// `jobs` threads.
pub fn run(scale: Scale, jobs: Jobs) -> ExperimentResult {
    let refs = scale.sweep_refs();
    let mut table = Table::new(vec![
        "die temperature",
        "baseline leak share",
        "static MR saving",
    ]);
    let mut savings = Vec::new();
    let cells: Vec<(f64, L2Design)> = SWEEP_C
        .iter()
        .flat_map(|&c| {
            [L2Design::baseline(), L2Design::static_default()]
                .into_iter()
                .map(move |d| (c, d))
        })
        .collect();
    let results = parallel_map(jobs, cells, |(c, design)| run_at(design, c, refs));
    for (&c, row) in SWEEP_C.iter().zip(results.chunks(2)) {
        let (base_j, base_leak) = row[0];
        let (stat_j, _) = row[1];
        let saving = 1.0 - stat_j / base_j;
        savings.push(saving);
        table.row(vec![format!("{c:.0} C"), pct(base_leak), pct(saving)]);
    }

    let monotone = savings.windows(2).all(|w| w[1] >= w[0] - 1e-9);
    let cold = savings[0];
    let hot = *savings.last().expect("non-empty");
    let claims = vec![ClaimCheck {
        claim: "A6",
        target: "the static design's saving grows monotonically with die temperature".into(),
        measured: format!("{} at 35 C -> {} at 110 C", pct(cold), pct(hot)),
        pass: monotone && hot > cold,
    }];
    ExperimentResult {
        id: "A6",
        title: "Energy savings vs die temperature (extension)",
        table: table.render(),
        summary: format!(
            "SRAM leakage doubles every ~25 C while MTJ cells never leak, so the \
             static multi-retention design's saving climbs from {} on a cool die to \
             {} on a hot one — thermal headroom is another axis on which the paper's \
             designs win.",
            pct(cold),
            pct(hot)
        ),
        claims,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn savings_grow_with_temperature() {
        let r = run(Scale::Quick, Jobs::available());
        assert!(r.passed(), "claims failed:\n{}", r.render());
        assert!(r.table.contains("110 C"));
    }
}
