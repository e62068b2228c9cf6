//! The trace streams every simulation reads: one app's `(app, seed)`
//! stream, or a co-scheduled mix's.
//!
//! A [`TraceStream`] is one forward cursor over the stream of a
//! [`Source`] at a seed, cut into fixed [`STREAM_CHUNK`]-long chunks.
//! An app stream is the one `TraceGenerator::new(app, seed)` produces:
//! it decodes chunks from a registered compiled trace when one covers
//! the stream and generates them otherwise. A [`Mix`] stream is the one
//! `MultiProgrammed::new(apps, quantum, seed)` produces: it has no
//! compiled form and is always generated. Either way every chunk lands
//! in one reused buffer.
//!
//! # Determinism
//!
//! Chunks are cut at fixed [`STREAM_CHUNK`] boundaries, decoded chunks
//! are the bytes such a generator produced, and generation happens in a
//! local generator owned by the calling worker, so every consumer sees
//! exactly the generator's stream for any job count and any memo state.

use std::fmt;
use std::fs::File;
use std::hash::Hasher;
use std::io::BufReader;
use std::sync::Arc;
use std::time::Instant;

use moca_trace::binfmt::TraceReader;
use moca_trace::fxhash::FxHasher;
use moca_trace::{AppProfile, MemoryAccess, MultiProgrammed, TraceGenerator};

use crate::replay::{FileTraceSource, TraceRegistry};

/// Length of every stream chunk in accesses.
///
/// Fixed (rather than caller-chosen) so chunk boundaries are identical
/// for every consumer of a stream: compiled trace files are cut at the
/// same size, and a filtered run's chunks cover the same references
/// for every consumer.
pub const STREAM_CHUNK: usize = TraceGenerator::DEFAULT_CHUNK;

/// Why a [`Mix`] could not be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixError {
    /// The mix schedules no app.
    NoApps,
    /// The scheduler quantum is zero references.
    ZeroQuantum,
}

impl fmt::Display for MixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MixError::NoApps => write!(f, "a co-scheduled mix needs at least one app"),
            MixError::ZeroQuantum => write!(f, "a co-scheduled mix needs a non-zero quantum"),
        }
    }
}

impl std::error::Error for MixError {}

/// A co-scheduled mix: apps time-sliced round-robin on one core, each
/// running `quantum` references at a time (see [`MultiProgrammed`]).
///
/// Building the mix is the only fallible step: a valid mix always
/// yields a stream, so a plan over it cannot fail for its source.
///
/// # Examples
///
/// ```
/// use moca_sim::stream::{Mix, MixError};
/// use moca_trace::AppProfile;
///
/// let mix = Mix::new(vec![AppProfile::browser(), AppProfile::music()], 20_000)?;
/// assert_eq!(mix.name(), "browser+music");
/// assert_eq!(Mix::new(Vec::new(), 20_000).unwrap_err(), MixError::NoApps);
/// # Ok::<(), MixError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Mix {
    apps: Vec<AppProfile>,
    quantum: u64,
    name: String,
    /// The identity of the mix's streams: its apps' fingerprints, in
    /// order, and its quantum.
    fingerprint: u64,
}

impl Mix {
    /// A mix of `apps` in schedule order, switching every `quantum`
    /// references.
    ///
    /// # Errors
    ///
    /// Returns [`MixError`] if `apps` is empty or `quantum` is zero.
    pub fn new(apps: Vec<AppProfile>, quantum: u64) -> Result<Self, MixError> {
        if apps.is_empty() {
            return Err(MixError::NoApps);
        }
        if quantum == 0 {
            return Err(MixError::ZeroQuantum);
        }
        let name = apps
            .iter()
            .map(|app| app.name)
            .collect::<Vec<_>>()
            .join("+");
        // Tagged, so a mix and the profile stream of one of its apps
        // hash different inputs and key different memo runs.
        let mut h = FxHasher::default();
        h.write(b"mix");
        h.write_usize(apps.len());
        for app in &apps {
            h.write_u64(app.fingerprint());
        }
        h.write_u64(quantum);
        Ok(Mix {
            fingerprint: h.finish(),
            apps,
            quantum,
            name,
        })
    }

    /// The apps' names joined by `+`, in schedule order.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// What a [`TraceStream`] reads.
#[derive(Debug, Clone, Copy)]
pub enum Source<'a> {
    /// One app on its own.
    App(&'a AppProfile),
    /// A co-scheduled mix.
    Mix(&'a Mix),
}

impl<'a> Source<'a> {
    /// The name a system running this source reports: the app's name,
    /// or the mix's.
    pub(crate) fn name(self) -> &'a str {
        match self {
            Source::App(app) => app.name,
            Source::Mix(mix) => mix.name(),
        }
    }
}

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

/// A stream's local generator.
#[derive(Debug)]
enum Generator {
    App(Box<TraceGenerator>),
    Mix(MultiProgrammed),
}

impl Generator {
    fn new(source: Source<'_>, seed: u64) -> Self {
        match source {
            Source::App(app) => Generator::App(Box::new(TraceGenerator::new(app, seed))),
            // `Mix::new` rejected what `MultiProgrammed::new` asserts.
            Source::Mix(mix) => Generator::Mix(MultiProgrammed::new(&mix.apps, mix.quantum, seed)),
        }
    }

    /// Replaces `out`'s contents with the next [`STREAM_CHUNK`]
    /// accesses; `out` holds exactly that capacity.
    fn fill(&mut self, out: &mut Vec<MemoryAccess>) {
        match self {
            Generator::App(gen) => {
                gen.fill(out);
            }
            Generator::Mix(mix) => {
                out.clear();
                mix.append_to(out, STREAM_CHUNK);
            }
        }
    }
}

/// A forward cursor over the stream of a [`Source`] at a seed, in
/// [`STREAM_CHUNK`]-long chunks.
///
/// An app stream is identical to `TraceGenerator::new(app, seed)`; the
/// difference is purely operational: a compiled trace file registered in
/// the [`TraceRegistry`] serves chunks by decode instead of generation,
/// and a local generator (created lazily, only on the first chunk the
/// file cannot serve) fills the rest. A mix stream is identical to
/// `MultiProgrammed::new(apps, quantum, seed)` and always generated.
/// Every chunk lands in one buffer reused for the whole stream.
/// Consumption is strictly forward from chunk 0 — exactly the access
/// pattern of a simulation run.
///
/// File-backed streams report the file's
/// [`source fingerprint`](FileTraceSource::source_fingerprint) rather
/// than the plain profile fingerprint, and mix streams one derived from
/// the mix's apps and quantum, so filtered runs of decoded streams and
/// of mixes live in namespaces of their own; a chunk that
/// fails to decode drops the stream back to generation for the
/// remainder — the decoded prefix and generated tail are the same bytes
/// by construction, and the error is counted in the registry's
/// [`stats`](TraceRegistry::stats).
///
/// # Examples
///
/// ```
/// use moca_sim::stream::TraceStream;
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
    source: Source<'a>,
    seed: u64,
    fingerprint: u64,
    /// Registered compiled-trace backend, if one covers this stream.
    file: Option<FileBackend>,
    /// Local generator; only built when the file cannot serve a chunk.
    gen: Option<Generator>,
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
        let file = TraceRegistry::global().lookup(profile.fingerprint(), seed);
        Self::build(Source::App(profile), seed, file)
    }

    /// A stream over `source` at `seed`: [`TraceStream::new`] for an
    /// app, the generated mix stream for a mix.
    pub fn of(source: Source<'a>, seed: u64) -> Self {
        match source {
            Source::App(profile) => Self::new(profile, seed),
            Source::Mix(_) => Self::build(source, seed, None),
        }
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
        Self::build(Source::App(profile), seed, Some(source))
    }

    fn build(source: Source<'a>, seed: u64, file: Option<Arc<FileTraceSource>>) -> Self {
        let (file, fingerprint) = match source {
            Source::App(profile) => {
                let file = file
                    .filter(|s| s.fingerprint() == profile.fingerprint() && s.seed() == seed)
                    .map(|source| FileBackend {
                        full_chunks: source.full_chunks(),
                        reader: None,
                        source,
                    });
                let fingerprint =
                    TraceRegistry::stream_fingerprint(profile, file.as_ref().map(|f| &*f.source));
                (file, fingerprint)
            }
            Source::Mix(mix) => (None, mix.fingerprint),
        };
        TraceStream {
            source,
            seed,
            fingerprint,
            file,
            gen: None,
            generated: 0,
            next: 0,
            buf: Vec::new(),
        }
    }

    /// The seed the stream was built at.
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// Index of the next chunk [`TraceStream::next_chunk`] will return.
    pub fn position(&self) -> u32 {
        self.next
    }

    /// The identity of this stream's source: the profile fingerprint,
    /// the file's source fingerprint when replaying a registered
    /// compiled trace, or the mix's fingerprint.
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
            .get_or_insert_with(|| Generator::new(self.source, self.seed));
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

    fn pair(quantum: u64) -> Mix {
        Mix::new(vec![AppProfile::browser(), AppProfile::music()], quantum).expect("valid mix")
    }

    #[test]
    fn mix_stream_matches_multiprogrammed_chunk_for_chunk() {
        // 3_001 does not divide the chunk, so quanta straddle chunks.
        let mix = pair(3_001);
        let expected: Vec<_> = MultiProgrammed::new(&mix.apps, 3_001, 5)
            .take(3 * STREAM_CHUNK)
            .collect();
        let mut stream = TraceStream::of(Source::Mix(&mix), 5);
        let mut got = Vec::new();
        for _ in 0..3 {
            got.extend_from_slice(stream.next_chunk());
        }
        assert_eq!(got, expected);
        assert!(!stream.is_file_backed());
        assert_eq!(stream.seed(), 5);
    }

    #[test]
    fn mix_fingerprint_separates_apps_order_and_quantum() {
        let mix = pair(3_001);
        let fp = TraceStream::of(Source::Mix(&mix), 5).source_fingerprint();
        assert_eq!(fp, mix.fingerprint);
        for app in &mix.apps {
            assert_ne!(fp, app.fingerprint());
        }
        let swapped = Mix::new(vec![AppProfile::music(), AppProfile::browser()], 3_001);
        let solo = Mix::new(vec![AppProfile::browser()], 3_001);
        for other in [pair(3_000), swapped.expect("valid"), solo.expect("valid")] {
            assert_ne!(fp, other.fingerprint, "{}", other.name());
        }
        assert_eq!(fp, pair(3_001).fingerprint);
    }

    #[test]
    fn invalid_mixes_are_rejected_at_construction() {
        let empty = Mix::new(Vec::new(), 20_000).unwrap_err();
        assert_eq!(empty, MixError::NoApps);
        assert!(empty.to_string().contains("at least one app"));
        let still = Mix::new(vec![AppProfile::game()], 0).unwrap_err();
        assert_eq!(still, MixError::ZeroQuantum);
        assert!(still.to_string().contains("non-zero quantum"));
    }
}
