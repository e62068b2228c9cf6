//! # moca-trace — smartphone workload and memory-trace synthesis
//!
//! This crate is the workload substrate of the `moca` project, a
//! reproduction of *"Energy-efficient cache design in emerging mobile
//! platforms"* (DATE'15) / *"Exploring Energy-Efficient Cache Design in
//! Emerging Mobile Platforms"* (TODAES'17). It generates deterministic,
//! user/kernel-tagged memory reference traces that stand in for the
//! paper's gem5 full-system Android captures (see `DESIGN.md` for the
//! substitution argument).
//!
//! ## Quick start
//!
//! ```
//! use moca_trace::{AppProfile, TraceGenerator, TraceStats, Mode};
//!
//! // Build the browser workload and look at 100k references.
//! let gen = TraceGenerator::new(&AppProfile::browser(), 42);
//! let stats = TraceStats::collect(gen.take(100_000), 64);
//!
//! // Interactive apps spend a lot of time in the kernel.
//! assert!(stats.kernel_share() > 0.10);
//! assert!(stats.mode(Mode::Kernel).unique_lines > 0);
//! ```
//!
//! ## Module map
//!
//! * [`access`] — the [`MemoryAccess`] record, [`Mode`], [`AccessKind`].
//! * [`rng`] — in-tree deterministic PRNG (xoshiro256\*\*) + samplers.
//! * [`locality`] — region streams with Zipf reuse and sequential bursts.
//! * [`kernel`] — OS service model (syscalls, interrupts, scheduler).
//! * [`apps`] — the ten-app interactive smartphone suite.
//! * [`generator`] — [`TraceGenerator`], the top-level stream.
//! * [`multiprog`] — time-sliced co-scheduling ([`multiprog::MultiProgrammed`]).
//! * [`io`] — trace decoding errors ([`io::ReadTraceError`]).
//! * [`binfmt`] — chunked, checksummed trace container (compile/replay).
//! * [`stats`] — [`TraceStats`] trace summaries.
//! * [`fxhash`] — fixed-seed hashing for deterministic analysis maps.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod access;
pub mod apps;
pub mod binfmt;
pub mod fxhash;
pub mod generator;
pub mod io;
pub mod kernel;
pub mod locality;
pub mod multiprog;
pub mod rng;
pub mod stats;

pub use access::{AccessKind, MemoryAccess, Mode};
pub use apps::AppProfile;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use generator::TraceGenerator;
pub use kernel::Service;
pub use multiprog::MultiProgrammed;
pub use stats::TraceStats;
