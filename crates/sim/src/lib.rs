//! # moca-sim — system model and experiment harness
//!
//! Assembles the full simulated platform (in-order core with idle-period
//! support, L1 pair, one of the paper's L2 designs, flat or row-buffer
//! DRAM) and hosts the experiment suite that regenerates every figure and
//! table of the reproduced evaluation (see `DESIGN.md` for the experiment
//! index and `EXPERIMENTS.md` for results), plus sweep/CSV utilities, a
//! deterministic multi-threaded sweep engine ([`parallel`]), a
//! shared-trace fan-out runner with a memoized chunk arena ([`fanout`])
//! whose entry points execute on the lock-step multi-design kernel
//! ([`lockstep`]), a file-backed trace replay layer over compiled
//! corpora ([`replay`]), a zero-dependency observability layer
//! ([`telemetry`]), and the `repro` / `tracegen` / `trace_corpus`
//! binaries.
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
//! # Ok::<(), moca_sim::BuildSystemError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cancel;
pub mod checkpoint;
pub mod config;
pub mod cpu;
pub mod dram;
pub mod error;
pub mod experiments;
pub mod fanout;
pub mod lockstep;
pub mod metrics;
pub mod parallel;
pub mod replay;
pub mod signals;
pub mod sweep;
pub mod system;
pub mod table;
pub mod telemetry;
pub mod workloads;

pub use cancel::{CancelToken, Cancelled};
pub use checkpoint::{sweep_checkpointed, try_sweep_checkpointed, CheckpointedPoint, Journal};
pub use config::SystemConfig;
pub use cpu::InOrderCore;
pub use dram::{DramModel, RowBufferDram, RowBufferParams};
pub use error::{PointCause, SweepPointError};
pub use fanout::{fan_out, fan_out_parallel, ArenaStats, ChunkArena, FanOut, TraceStream};
pub use lockstep::{FilteredChunk, FrontEnd, LaneEvent, LockStep, LANE_GROUP};
pub use metrics::{geometric_mean, mean, SimReport};
pub use parallel::{catch_panic, parallel_map, parallel_map_isolated, parallel_map_ref, Jobs};
pub use replay::{FileTraceSource, TraceIoStats, TraceRegistry};
pub use sweep::{
    comparison_table, csv_row, profile_lru_grid, score_lru_grid, sweep, sweep_isolated,
    sweep_parallel, sweep_parallel_isolated, sweep_pruned, sweep_pruned_parallel, write_csv,
    MrcScore, PrunedSweep, SweepPoint,
};
pub use system::{BuildSystemError, System};
pub use telemetry::{Event, JsonlRecorder, NullRecorder, Recorder};
pub use workloads::{run_app, run_app_with_behavior, Scale, EXPERIMENT_SEED};
