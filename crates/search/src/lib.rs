//! # moca-search — seeded NSGA-II design-space search
//!
//! Evolves the full L2 design space — technology family, way count,
//! user/kernel partition split, per-partition retention class, refresh
//! policy, adaptation epoch — against three minimized objectives:
//! total (L2 + DRAM) energy, execution cycles, and silicon area.
//!
//! The search is an elitist NSGA-II loop ([`engine::run_search`]):
//!
//! * **Genome** ([`genome::Genome`]) — a fixed-width encoding whose
//!   `repair` step funnels every variation product through the real
//!   constructors (`L2Design::validate`, `CacheGeometry::try_new`,
//!   `PartitionSpec::split`), so invalid genomes are repaired, never
//!   panic.
//! * **Evaluation** — each generation fans into
//!   [`moca_sim::sweep::sweep_pruned`]: MRC-scorable
//!   candidates ride the analytic fast path, everything else runs full
//!   lock-step simulation, and repeat proposals hit a cross-generation
//!   archive.
//! * **Selection** ([`nsga`]) — fast non-dominated sorting plus
//!   crowding distance, every tie broken by design label, so any
//!   `(seed, jobs)` pair reproduces the identical front byte for byte.
//! * **Resume** — each generation checkpoints its complete state into
//!   the run journal under `search:<fingerprint>:gen:<g>`; a killed
//!   search resumes mid-run and renders the same bytes.
//!
//! The `pareto` experiment ([`experiment::run`], id `S1`) wraps the
//! standard search and pins the headline claim: the evolved front
//! dominates-or-ties the hand-picked C7/C8 reference designs on
//! (energy, cycles) under the identical harness.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod engine;
pub mod experiment;
pub mod genome;
pub mod nsga;

pub use engine::{
    design_area_mm2, generation_key, result_key, run_search, EvalRecord, GenStats, SearchConfig,
    SearchOutcome,
};
pub use genome::{Family, Genome};
pub use nsga::{
    crowding_distance, dominates, dominates_or_ties_2d, non_dominated_sort, rank_population,
    Fitness, Ranked,
};
