//! Shared-trace fan-out: evaluate many L2 designs against one trace
//! stream in a single pass.
//!
//! Every figure in the reproduced evaluation is a *sweep*: N cache
//! designs judged against the byte-identical workload trace. Running the
//! sweep as N independent [`run_app`](crate::workloads::run_app) calls
//! pays the trace-generation cost N times — and after the SoA cache
//! engine, generation is the dominant cost of a sweep point. This module
//! removes that multiplier:
//!
//! * **Fan-out** ([`FanOut`]): one `(app, seed)` stream feeds N design
//!   lanes. Every entry point routes through
//!   [`crate::lockstep::LockStep`] (shared L1 front end per lane group,
//!   O(1) hit-gap retires), whose filtered runs come from the
//!   process-wide [`RunMemo`](crate::memo::RunMemo); the original
//!   chunk-broadcast engine is retained as [`FanOut::run_broadcast`],
//!   the middle reference of the cross-engine differential harness, and
//!   reads a plain [`TraceStream`].
//! * **Trace stream** ([`TraceStream`]): one forward cursor over the
//!   `(app, seed)` stream that decodes chunks from a registered compiled
//!   trace or generates them, into one reused buffer.
//!
//! # Determinism
//!
//! The trace stream an individual [`System`] observes is *exactly* the
//! stream `TraceGenerator::new(app, seed)` produces: chunks are cut at
//! fixed [`STREAM_CHUNK`] boundaries, decoded chunks are the bytes such a
//! generator produced, and generation happens in a local generator owned
//! by the calling worker — so RNG draw order per design is unchanged and
//! every [`SimReport`] is **byte-identical** to a sequential `run_app`
//! for any job count and any memo state. The fan-out equivalence suite
//! in `crates/sim/tests/determinism.rs` asserts this, and the
//! sweep-shaped experiments double as oracles.

use std::sync::Arc;
use std::time::Instant;

use moca_core::L2Design;
use moca_trace::{AppProfile, MemoryAccess, TraceGenerator};

use crate::cancel::{CancelToken, Cancelled};
use crate::config::SystemConfig;
use crate::error::SweepPointError;
use crate::lockstep::LockStep;
use crate::metrics::SimReport;
use crate::parallel::{parallel_map, Jobs};
use crate::replay::{FileTraceSource, TraceRegistry};
use crate::system::System;
use crate::telemetry::{self, Event};

use moca_trace::binfmt::TraceReader;
use std::fs::File;
use std::io::BufReader;

/// Length of every stream chunk in accesses.
///
/// Fixed (rather than caller-chosen) so chunk boundaries are identical
/// for every consumer of a stream: compiled trace files are cut at the
/// same size, and a filtered run's chunks cover the same references
/// for every consumer.
pub const STREAM_CHUNK: usize = TraceGenerator::DEFAULT_CHUNK;

/// A [`FileTraceSource`] a stream replays from, with its lazily opened
/// per-stream reader.
#[derive(Debug)]
struct FileBackend {
    source: Arc<FileTraceSource>,
    /// Opened on the first chunk the stream reads.
    reader: Option<TraceReader<BufReader<File>>>,
    /// Chunks the file can serve at [`STREAM_CHUNK`] granularity.
    full_chunks: u32,
}

/// A forward cursor over the `(app, seed)` trace stream, in
/// [`STREAM_CHUNK`]-long chunks.
///
/// The stream is identical to `TraceGenerator::new(app, seed)`; the
/// difference is purely operational: a compiled trace file registered in
/// the [`TraceRegistry`] serves chunks by decode instead of generation,
/// and a local generator (created lazily, only on the first chunk the
/// file cannot serve) fills the rest. Every chunk lands in one buffer
/// reused for the whole stream. Consumption is strictly forward from
/// chunk 0 — exactly the access pattern of a simulation run.
///
/// File-backed streams report the file's
/// [`source fingerprint`](FileTraceSource::source_fingerprint) rather
/// than the plain profile fingerprint, so filtered runs (and checkpoint
/// keys) of decoded streams live in their own namespace; a chunk that
/// fails to decode drops the stream back to generation for the
/// remainder — the decoded prefix and generated tail are the same bytes
/// by construction, and the error is counted in the registry's
/// [`stats`](TraceRegistry::stats).
///
/// # Examples
///
/// ```
/// use moca_sim::fanout::TraceStream;
/// use moca_trace::{AppProfile, TraceGenerator};
///
/// let app = AppProfile::music();
/// let mut stream = TraceStream::new(&app, 7);
/// let chunk = stream.next_chunk();
/// let direct: Vec<_> = TraceGenerator::new(&app, 7).take(chunk.len()).collect();
/// assert_eq!(chunk, &direct[..]);
/// ```
#[derive(Debug)]
pub struct TraceStream<'a> {
    profile: &'a AppProfile,
    seed: u64,
    fingerprint: u64,
    /// Registered compiled-trace backend, if one covers this stream.
    file: Option<FileBackend>,
    /// Local generator; only built when the file cannot serve a chunk.
    gen: Option<TraceGenerator>,
    /// Chunks the local generator has produced (its stream position).
    generated: u32,
    /// Index of the next chunk to hand out.
    next: u32,
    /// The chunk [`TraceStream::next_chunk`] last returned.
    buf: Vec<MemoryAccess>,
}

impl<'a> TraceStream<'a> {
    /// A stream over `(profile, seed)`, backed by the global
    /// [`TraceRegistry`]'s source for this identity when one is
    /// registered.
    pub fn new(profile: &'a AppProfile, seed: u64) -> Self {
        let source = TraceRegistry::global().lookup(profile.fingerprint(), seed);
        Self::build(profile, seed, source)
    }

    /// A stream replaying an explicit [`FileTraceSource`] (tests,
    /// benchmarks — production streams find theirs in the registry).
    ///
    /// The source must record the same `(fingerprint, seed)` identity
    /// as the stream; a mismatched source is ignored, because serving
    /// another stream's chunks would break the byte-identity contract.
    pub fn with_source(profile: &'a AppProfile, seed: u64, source: Arc<FileTraceSource>) -> Self {
        debug_assert_eq!(source.fingerprint(), profile.fingerprint());
        debug_assert_eq!(source.seed(), seed);
        Self::build(profile, seed, Some(source))
    }

    fn build(profile: &'a AppProfile, seed: u64, source: Option<Arc<FileTraceSource>>) -> Self {
        let file = source
            .filter(|s| s.fingerprint() == profile.fingerprint() && s.seed() == seed)
            .map(|source| FileBackend {
                full_chunks: source.full_chunks(),
                reader: None,
                source,
            });
        TraceStream {
            profile,
            seed,
            // File-backed streams get their own namespace.
            fingerprint: match &file {
                Some(f) => f.source.source_fingerprint(),
                None => profile.fingerprint(),
            },
            file,
            gen: None,
            generated: 0,
            next: 0,
            buf: Vec::new(),
        }
    }

    /// Index of the next chunk [`TraceStream::next_chunk`] will return.
    pub fn position(&self) -> u32 {
        self.next
    }

    /// The identity of this stream's source: the profile fingerprint,
    /// or the file's source fingerprint when replaying a registered
    /// compiled trace.
    pub fn source_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// `true` when a compiled trace file currently backs this stream.
    pub fn is_file_backed(&self) -> bool {
        self.file.is_some()
    }

    /// Decodes chunk `self.next` from the file backend into `out`.
    /// Returns `false` when no backend remains, the file doesn't reach
    /// the cursor, or the decode fails (which permanently drops the
    /// backend — generation produces the same bytes, so the contract
    /// holds; the failure is counted in the registry stats).
    fn decode_next(&mut self, out: &mut Vec<MemoryAccess>) -> bool {
        let Some(backend) = self.file.as_mut() else {
            return false;
        };
        if self.next >= backend.full_chunks {
            return false;
        }
        let start = Instant::now();
        let result = (|| {
            if backend.reader.is_none() {
                backend.reader = Some(backend.source.open_reader()?);
            }
            let reader = backend.reader.as_mut().expect("reader just installed");
            reader.read_chunk(self.next, out)
        })();
        match result {
            Ok(bytes) => {
                TraceRegistry::global().note_decode(bytes, start.elapsed().as_nanos() as u64);
                true
            }
            Err(_) => {
                TraceRegistry::global().note_decode_error();
                self.file = None;
                false
            }
        }
    }

    /// Generates chunk `self.next` into `out`. The local generator
    /// catches up to the cursor first: chunks the file served before it
    /// existed are regenerated and discarded to advance the RNG (they
    /// count only generation time, never change content).
    fn generate_next(&mut self, out: &mut Vec<MemoryAccess>) {
        // `fill` cuts chunks at the buffer's capacity, so a buffer grown
        // by anything else would shift every later chunk boundary.
        if out.capacity() != STREAM_CHUNK {
            *out = Vec::with_capacity(STREAM_CHUNK);
        }
        let gen = self
            .gen
            .get_or_insert_with(|| TraceGenerator::new(self.profile, self.seed));
        while self.generated < self.next {
            gen.fill(out);
            self.generated += 1;
        }
        gen.fill(out);
        self.generated += 1;
    }

    /// Advances the stream by one [`STREAM_CHUNK`]-long chunk and
    /// borrows it: decoded from the file backend when it covers the
    /// cursor, generated otherwise.
    pub fn next_chunk(&mut self) -> &[MemoryAccess] {
        let mut buf = std::mem::take(&mut self.buf);
        if !self.decode_next(&mut buf) {
            self.generate_next(&mut buf);
        }
        self.next += 1;
        self.buf = buf;
        &self.buf
    }
}

/// The shared-trace fan-out runner: one `(app, seed)` stream broadcast
/// to any number of [`L2Design`]s.
///
/// # Examples
///
/// ```
/// use moca_core::L2Design;
/// use moca_sim::fanout::FanOut;
/// use moca_trace::AppProfile;
///
/// let app = AppProfile::music();
/// let designs = [L2Design::baseline(), L2Design::static_default()];
/// let reports = FanOut::new(&app, 1).run(&designs, 30_000);
/// assert_eq!(reports.len(), 2);
/// // Byte-identical to running each design on its own:
/// let solo = moca_sim::run_app(&app, designs[1], 30_000, 1);
/// assert_eq!(reports[1].cycles, solo.cycles);
/// ```
#[derive(Debug, Clone)]
pub struct FanOut<'a> {
    app: &'a AppProfile,
    seed: u64,
    cfg: SystemConfig,
    /// Absolute sweep indices forced to panic mid-run (fault-injection
    /// hook, forwarded to the lock-step engine's isolated paths).
    injected_faults: Vec<usize>,
}

impl<'a> FanOut<'a> {
    /// A fan-out over the `(app, seed)` stream with the default
    /// [`SystemConfig`].
    pub fn new(app: &'a AppProfile, seed: u64) -> Self {
        FanOut {
            app,
            seed,
            cfg: SystemConfig::default(),
            injected_faults: Vec::new(),
        }
    }

    /// Replaces the system configuration used for every design.
    pub fn with_config(mut self, cfg: SystemConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Injects deterministic mid-run faults into the isolated paths:
    /// each listed absolute sweep index panics at the start of its
    /// replay (see [`LockStep::with_injected_faults`]). Used by the
    /// fault-isolation suites; production callers never set this.
    pub fn with_injected_faults(mut self, faults: &[usize]) -> Self {
        self.injected_faults = faults.to_vec();
        self
    }

    /// The lock-step engine every entry point routes through.
    fn lockstep(&self) -> LockStep<'a> {
        LockStep::new(self.app, self.seed)
            .with_config(self.cfg)
            .with_injected_faults(&self.injected_faults)
    }

    /// Runs `refs` references of the shared stream through one
    /// [`System`] per design, single-threaded, and returns the reports
    /// in design order.
    ///
    /// # Panics
    ///
    /// Panics if any design is invalid (callers construct designs from
    /// validated enums, matching [`crate::workloads::run_app`]).
    pub fn run(&self, designs: &[L2Design], refs: usize) -> Vec<SimReport> {
        self.run_timed(designs, refs)
            .into_iter()
            .map(|(report, _)| report)
            .collect()
    }

    /// [`FanOut::run`] returning `(report, wall_ns)` pairs, where
    /// `wall_ns` is the wall-clock time spent simulating that design
    /// (shared trace-generation time excluded — it is no longer
    /// attributable to a single design).
    pub fn run_timed(&self, designs: &[L2Design], refs: usize) -> Vec<(SimReport, u64)> {
        self.run_timed_span(designs, refs, 0, designs.len())
    }

    /// [`FanOut::run_timed`] over one contiguous slice of a larger
    /// sweep: `offset` is the slice's position in sweep order and
    /// `total` the full sweep size, so the telemetry `point` events
    /// carry stable indices for any partitioning of the designs over
    /// workers.
    fn run_timed_span(
        &self,
        designs: &[L2Design],
        refs: usize,
        offset: usize,
        total: usize,
    ) -> Vec<(SimReport, u64)> {
        self.lockstep().run_timed_span(designs, refs, offset, total)
    }

    /// The retained PR 3 chunk-broadcast engine: one shared stream, each
    /// design re-filtering every chunk through its own scalar
    /// [`System::run_batch`] loop.
    ///
    /// Production callers route through the lock-step engine
    /// ([`FanOut::run`]); this path is kept as the *middle* reference of
    /// the cross-engine differential harness (scalar `run_app` ≡
    /// broadcast ≡ lock-step) and for the engine-comparison benchmarks.
    pub fn run_broadcast(&self, designs: &[L2Design], refs: usize) -> Vec<SimReport> {
        self.run_timed_broadcast(designs, refs)
            .into_iter()
            .map(|(report, _)| report)
            .collect()
    }

    /// [`FanOut::run_broadcast`] returning `(report, wall_ns)` pairs.
    pub fn run_timed_broadcast(&self, designs: &[L2Design], refs: usize) -> Vec<(SimReport, u64)> {
        let total = designs.len();
        let offset = 0;
        let mut systems: Vec<System> = designs
            .iter()
            .map(|design| {
                System::new(self.app.name, *design, self.cfg).expect("fan-out design must be valid")
            })
            .collect();
        let mut walls = vec![0u64; systems.len()];
        // Shared stream time for this call (decode or generation).
        // Attributed to every point of the group — it is wait time each
        // of them experienced.
        let mut gen_ns = 0u64;
        if !systems.is_empty() {
            let mut stream = TraceStream::new(self.app, self.seed);
            let mut left = refs;
            while left > 0 {
                let start = Instant::now();
                let chunk = stream.next_chunk();
                gen_ns += start.elapsed().as_nanos() as u64;
                let n = chunk.len().min(left);
                for (sys, wall) in systems.iter_mut().zip(&mut walls) {
                    let start = Instant::now();
                    sys.run_batch(&chunk[..n]);
                    *wall += start.elapsed().as_nanos() as u64;
                }
                left -= n;
            }
        }
        systems
            .into_iter()
            .zip(walls)
            .enumerate()
            .map(|(i, (sys, wall))| {
                let start = Instant::now();
                let report = sys.finish();
                let energy_ns = start.elapsed().as_nanos() as u64;
                if telemetry::enabled() {
                    telemetry::record(Event::point(
                        &report.app,
                        &report.design,
                        offset + i,
                        total,
                        gen_ns,
                        wall,
                        energy_ns,
                    ));
                }
                (report, wall + energy_ns)
            })
            .collect()
    }

    /// [`FanOut::run`] with the designs partitioned over `jobs` worker
    /// threads.
    ///
    /// Each worker owns its slice of the designs and reads the shared
    /// filtered run of the stream, so RNG draw order per design is
    /// unchanged and the reports are byte-identical to
    /// [`FanOut::run`] — and to per-design `run_app` — for every job
    /// count.
    pub fn run_parallel(&self, designs: &[L2Design], refs: usize, jobs: Jobs) -> Vec<SimReport> {
        self.run_timed_parallel(designs, refs, jobs)
            .into_iter()
            .map(|(report, _)| report)
            .collect()
    }

    /// [`FanOut::run_timed`] with the designs partitioned over `jobs`
    /// worker threads.
    pub fn run_timed_parallel(
        &self,
        designs: &[L2Design],
        refs: usize,
        jobs: Jobs,
    ) -> Vec<(SimReport, u64)> {
        let workers = jobs.get().min(designs.len());
        if workers <= 1 {
            return self.run_timed(designs, refs);
        }
        // Contiguous groups, one per worker: each group shares one
        // stream, and the input-order merge of `parallel_map` restores
        // design order. Each group knows its sweep-order offset so
        // telemetry point indices stay stable across job counts.
        let per_group = designs.len().div_ceil(workers);
        let groups: Vec<(usize, &[L2Design])> = designs
            .chunks(per_group)
            .enumerate()
            .map(|(g, chunk)| (g * per_group, chunk))
            .collect();
        parallel_map(jobs, groups, |(offset, group)| {
            self.run_timed_span(group, refs, offset, designs.len())
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// [`FanOut::run_timed`] with cooperative cancellation: `cancel` is
    /// polled at every front-end chunk boundary (see
    /// [`LockStep::try_run_timed_span`]).
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] if the token tripped before the run
    /// completed; nothing partial is observable.
    pub fn try_run_timed(
        &self,
        designs: &[L2Design],
        refs: usize,
        cancel: &CancelToken,
    ) -> Result<Vec<(SimReport, u64)>, Cancelled> {
        self.lockstep()
            .try_run_timed_span(designs, refs, 0, designs.len(), cancel)
    }

    /// [`FanOut::run_timed_parallel`] with cooperative cancellation.
    ///
    /// Every worker polls the shared token at its own chunk boundaries,
    /// so a trip aborts all groups within one chunk of replay each. A
    /// run that completes is byte-identical to the uncancellable path
    /// for every job count.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] if the token tripped before every group
    /// finished (workers that completed their groups first contribute
    /// nothing — the whole call reports cancellation).
    pub fn try_run_timed_parallel(
        &self,
        designs: &[L2Design],
        refs: usize,
        jobs: Jobs,
        cancel: &CancelToken,
    ) -> Result<Vec<(SimReport, u64)>, Cancelled> {
        let workers = jobs.get().min(designs.len());
        if workers <= 1 {
            return self.try_run_timed(designs, refs, cancel);
        }
        let per_group = designs.len().div_ceil(workers);
        let groups: Vec<(usize, &[L2Design])> = designs
            .chunks(per_group)
            .enumerate()
            .map(|(g, chunk)| (g * per_group, chunk))
            .collect();
        let mut out = Vec::with_capacity(designs.len());
        for group_result in parallel_map(jobs, groups, |(offset, group)| {
            self.lockstep()
                .try_run_timed_span(group, refs, offset, designs.len(), cancel)
        }) {
            out.extend(group_result?);
        }
        Ok(out)
    }
}

impl<'a> FanOut<'a> {
    /// [`FanOut::run_timed`] with per-design failure isolation: a design
    /// that fails to build, or panics at any point of its simulation,
    /// yields `Err(SweepPointError)` in its slot while every other
    /// design runs to completion on the shared stream (per-design lane
    /// poisoning, see [`LockStep::run_timed_isolated_span`]).
    ///
    /// Failure values are deterministic (build errors are pure functions
    /// of the design; panics in a deterministic simulation carry a
    /// deterministic payload), so the failed-point set is identical for
    /// any grouping of the designs — the property
    /// [`FanOut::run_parallel_isolated`] relies on.
    pub fn run_timed_isolated(
        &self,
        designs: &[L2Design],
        refs: usize,
    ) -> Vec<Result<(SimReport, u64), SweepPointError>> {
        self.lockstep().run_timed_isolated_span(designs, refs, 0)
    }

    /// [`FanOut::run_timed_isolated`] with the designs partitioned over
    /// `jobs` worker threads (contiguous groups, one shared stream per
    /// group, input-order merge).
    ///
    /// Both the successful reports *and* the failed-point set — indices,
    /// labels, and rendered causes — are byte-identical to the serial
    /// [`FanOut::run_timed_isolated`] for every job count: each group
    /// passes its sweep-order offset down, so the lock-step engine
    /// reports absolute indices directly.
    pub fn run_timed_parallel_isolated(
        &self,
        designs: &[L2Design],
        refs: usize,
        jobs: Jobs,
    ) -> Vec<Result<(SimReport, u64), SweepPointError>> {
        let workers = jobs.get().min(designs.len());
        if workers <= 1 {
            return self.run_timed_isolated(designs, refs);
        }
        let per_group = designs.len().div_ceil(workers);
        let groups: Vec<(usize, &[L2Design])> = designs
            .chunks(per_group)
            .enumerate()
            .map(|(g, chunk)| (g * per_group, chunk))
            .collect();
        parallel_map(jobs, groups, |(offset, group)| {
            self.lockstep().run_timed_isolated_span(group, refs, offset)
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// [`FanOut::run`] with per-design failure isolation (reports only,
    /// `jobs` worker threads).
    pub fn run_parallel_isolated(
        &self,
        designs: &[L2Design],
        refs: usize,
        jobs: Jobs,
    ) -> Vec<Result<SimReport, SweepPointError>> {
        self.run_timed_parallel_isolated(designs, refs, jobs)
            .into_iter()
            .map(|r| r.map(|(report, _)| report))
            .collect()
    }
}

/// One-shot helper: [`FanOut::run`] with the default config.
pub fn fan_out(
    app: &AppProfile,
    designs: &[L2Design],
    refs: usize,
    seed: u64,
) -> Vec<SimReport> {
    FanOut::new(app, seed).run(designs, refs)
}

/// One-shot helper: [`FanOut::run_parallel`] with the default config.
pub fn fan_out_parallel(
    app: &AppProfile,
    designs: &[L2Design],
    refs: usize,
    seed: u64,
    jobs: Jobs,
) -> Vec<SimReport> {
    FanOut::new(app, seed).run_parallel(designs, refs, jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use moca_trace::TraceGenerator;

    fn reference_stream(app: &AppProfile, seed: u64, n: usize) -> Vec<MemoryAccess> {
        TraceGenerator::new(app, seed).take(n).collect()
    }

    #[test]
    fn stream_matches_generator_chunk_for_chunk() {
        let app = AppProfile::browser();
        let expected = reference_stream(&app, 5, 3 * STREAM_CHUNK);
        let mut stream = TraceStream::new(&app, 5);
        let mut got = Vec::new();
        for i in 0..3 {
            assert_eq!(stream.position(), i);
            got.extend_from_slice(stream.next_chunk());
        }
        assert_eq!(got, expected);
        assert!(!stream.is_file_backed());
        assert_eq!(stream.source_fingerprint(), app.fingerprint());
    }

    #[test]
    fn streams_separate_apps_and_seeds() {
        let browser = AppProfile::browser();
        let email = AppProfile::email();
        let a = TraceStream::new(&browser, 1).next_chunk().to_vec();
        let b = TraceStream::new(&email, 1).next_chunk().to_vec();
        let c = TraceStream::new(&browser, 2).next_chunk().to_vec();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, TraceStream::new(&browser, 1).next_chunk());
    }

    #[test]
    fn fan_out_matches_individual_runs() {
        let app = AppProfile::game();
        let designs = [
            L2Design::baseline(),
            L2Design::static_default(),
            L2Design::dynamic_default(),
        ];
        let refs = 2 * STREAM_CHUNK + 123; // deliberately not chunk-aligned
        let fanned = fan_out(&app, &designs, refs, 3);
        for (design, fanned) in designs.iter().zip(&fanned) {
            let solo = crate::workloads::run_app(&app, *design, refs, 3);
            assert_eq!(format!("{fanned:?}"), format!("{solo:?}"));
        }
        let broadcast = FanOut::new(&app, 3).run_broadcast(&designs, refs);
        for (b, f) in broadcast.iter().zip(&fanned) {
            assert_eq!(format!("{b:?}"), format!("{f:?}"));
        }
    }

    #[test]
    fn parallel_fan_out_matches_serial_for_all_job_counts() {
        let app = AppProfile::video();
        let designs: Vec<L2Design> = (1..=5u32)
            .map(|ways| L2Design::SharedSram { ways: ways * 2 })
            .collect();
        let serial = fan_out(&app, &designs, 20_000, 11);
        for jobs in [1usize, 2, 3, 8] {
            let parallel = fan_out_parallel(&app, &designs, 20_000, 11, Jobs::new(jobs));
            assert_eq!(serial.len(), parallel.len());
            for (s, p) in serial.iter().zip(&parallel) {
                assert_eq!(format!("{s:?}"), format!("{p:?}"), "jobs = {jobs}");
            }
        }
    }

    #[test]
    fn empty_designs_produce_no_reports_and_pull_no_chunks() {
        let app = AppProfile::music();
        let reports = fan_out(&app, &[], 50_000, 1);
        assert!(reports.is_empty());
    }

    #[test]
    fn timed_runs_attribute_wall_time_per_design() {
        let app = AppProfile::music();
        let designs = [L2Design::baseline(), L2Design::static_default()];
        let timed = FanOut::new(&app, 2).run_timed(&designs, 20_000);
        assert_eq!(timed.len(), 2);
        for (report, wall_ns) in &timed {
            assert_eq!(report.refs, 20_000);
            assert!(*wall_ns > 0, "simulation time must be accounted");
        }
    }
}
