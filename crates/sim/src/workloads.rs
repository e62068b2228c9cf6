//! Standard workload execution helpers shared by all experiments.

use std::time::Instant;

use moca_core::L2Design;
use moca_trace::{AppProfile, TraceGenerator};

use crate::config::SystemConfig;
use crate::metrics::SimReport;
use crate::system::System;
use crate::telemetry::{self, Event};

/// How long experiments run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Very short traces for determinism / smoke tests (~100 k
    /// references per app). Too short for the claim bands — use it when
    /// only structural properties (shape, determinism) are under test.
    Smoke,
    /// Short traces for CI / unit tests (~1 M references per app).
    Quick,
    /// The scale used for `EXPERIMENTS.md` (~12 M references per app).
    Full,
}

impl Scale {
    /// References simulated per app at this scale.
    pub fn refs(self) -> usize {
        match self {
            Scale::Smoke => 100_000,
            Scale::Quick => 1_000_000,
            Scale::Full => 12_000_000,
        }
    }

    /// A reduced reference count for quadratic experiments (sweeps).
    pub fn sweep_refs(self) -> usize {
        match self {
            Scale::Smoke => 40_000,
            Scale::Quick => 300_000,
            Scale::Full => 3_000_000,
        }
    }
}

/// The seed all experiments share: results in `EXPERIMENTS.md` are
/// reproducible because every generator derives from this value.
pub const EXPERIMENT_SEED: u64 = 0x5EED_2015;

/// Runs one app on one design.
///
/// This is the scalar *reference path*: one [`System`] stepping every
/// reference of a private [`TraceGenerator`], off the filtered-run
/// memo and off the lock-step kernel. That independence is what makes
/// it the oracle the differential suites compare the sweep executor
/// against. Experiments run their designs through that executor
/// ([`crate::lockstep::execute`], directly or through
/// [`crate::sweep::sweep`] and the shared
/// [`crate::experiments::matrix::run_matrix`]), which pays trace
/// generation and L1 filtering once per lane group instead of once per
/// design.
///
/// # Panics
///
/// Panics if `design` is invalid (experiments construct designs from
/// validated enums, so this indicates a bug, not bad user input).
pub fn run_app(app: &AppProfile, design: L2Design, refs: usize, seed: u64) -> SimReport {
    let sys = System::new(app.name, design, SystemConfig::default())
        .expect("experiment design must be valid");
    finish_run(sys, app, refs, seed)
}

/// Runs one app with segment-behaviour probing enabled.
///
/// # Panics
///
/// Panics if `design` is invalid.
pub fn run_app_with_behavior(
    app: &AppProfile,
    design: L2Design,
    refs: usize,
    seed: u64,
) -> SimReport {
    let sys = System::new(app.name, design, SystemConfig::default())
        .expect("experiment design must be valid")
        .with_behavior_probe();
    finish_run(sys, app, refs, seed)
}

/// Drives `sys` over the first `refs` references of `(app, seed)`.
///
/// With telemetry disabled this is exactly [`System::run_generated`];
/// with it enabled, the same chunked loop runs with per-stage timing
/// and emits one `point` event (`index` 0, `total` 1 — a standalone
/// run is a one-point sweep). Both paths feed identical batches to the
/// system, so the report stays byte-identical either way.
fn finish_run(mut sys: System, app: &AppProfile, refs: usize, seed: u64) -> SimReport {
    let mut gen = TraceGenerator::new(app, seed);
    if !telemetry::enabled() {
        sys.run_generated(&mut gen, refs);
        return sys.finish();
    }
    let mut chunk = Vec::with_capacity(TraceGenerator::DEFAULT_CHUNK.min(refs.max(1)));
    let mut gen_ns = 0u64;
    let mut sim_ns = 0u64;
    let mut left = refs;
    while left > 0 {
        let start = Instant::now();
        let n = gen.fill(&mut chunk).min(left);
        gen_ns += start.elapsed().as_nanos() as u64;
        let start = Instant::now();
        sys.run_batch(&chunk[..n]);
        sim_ns += start.elapsed().as_nanos() as u64;
        left -= n;
    }
    let start = Instant::now();
    let report = sys.finish();
    let energy_ns = start.elapsed().as_nanos() as u64;
    telemetry::record(Event::point(
        &report.app,
        &report.design,
        0,
        1,
        gen_ns,
        sim_ns,
        energy_ns,
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Quick.refs() < Scale::Full.refs());
        assert!(Scale::Quick.sweep_refs() < Scale::Quick.refs());
    }

    #[test]
    fn run_app_is_deterministic() {
        let app = AppProfile::music();
        let a = run_app(&app, L2Design::baseline(), 50_000, 1);
        let b = run_app(&app, L2Design::baseline(), 50_000, 1);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.l2_stats, b.l2_stats);
    }
}
