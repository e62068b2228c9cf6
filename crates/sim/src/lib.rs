//! # moca-sim — system model and experiment harness
//!
//! Assembles the full simulated platform (in-order core with idle-period
//! support, L1 pair, one of the paper's L2 designs, flat-latency DRAM) and hosts the experiment suite that regenerates every figure and
//! table of the reproduced evaluation (see `DESIGN.md` for the experiment
//! index and `EXPERIMENTS.md` for results), plus sweep/CSV utilities, a
//! deterministic thread pool ([`parallel`]), one sweep executor
//! ([`lockstep::execute`]) that runs every set of designs on the
//! lock-step multi-design kernel over one trace stream — one app's or a
//! co-scheduled mix's ([`stream`]) — a
//! process-wide memo of L1-filtered runs ([`memo`]), a file-backed
//! trace replay layer over compiled corpora ([`replay`]), the
//! crash-tolerant journal that checkpoints `repro` experiments and
//! search generations ([`checkpoint`]), a zero-dependency
//! observability layer ([`telemetry`]), and the `trace_corpus`
//! binary.
//!
//! ```
//! use moca_core::L2Design;
//! use moca_sim::{System, SystemConfig};
//! use moca_trace::{AppProfile, TraceGenerator};
//!
//! let mut sys = System::new("quick", L2Design::baseline(), SystemConfig::default())?;
//! sys.run(TraceGenerator::new(&AppProfile::game(), 7).take(10_000));
//! let report = sys.finish();
//! assert!(report.l2_miss_rate() <= 1.0);
//! # Ok::<(), moca_core::DesignError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod config;
pub mod cpu;
pub mod error;
pub mod experiments;
pub mod lockstep;
pub mod memo;
pub mod metrics;
pub mod parallel;
pub mod replay;
pub mod signals;
pub mod stream;
pub mod sweep;
pub mod system;
pub mod table;
pub mod telemetry;
pub mod workloads;

pub use checkpoint::Journal;
pub use config::SystemConfig;
pub use cpu::InOrderCore;
pub use error::{PointCause, SweepPointError};
pub use lockstep::{execute, front_end_refs, FilteredChunk, FrontEnd, LaneEvent, Plan, Point};
pub use memo::{MemoStats, RunMemo, MEMO_CAP_BYTES};
pub use metrics::{geometric_mean, mean, SimReport};
pub use parallel::{catch_panic, parallel_map, Jobs};
pub use replay::{FileTraceSource, TraceIoStats, TraceRegistry};
pub use stream::{Mix, MixError, Source, TraceStream};
pub use sweep::{
    csv_row, profile_lru_grid, score_lru_grid, sweep_pruned, write_csv, MrcScore, PrunedSweep,
};
pub use system::System;
pub use telemetry::{Event, JsonlRecorder};
pub use workloads::{run_app, Scale, EXPERIMENT_SEED};
