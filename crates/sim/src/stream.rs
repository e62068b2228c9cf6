//! The `(app, seed)` trace stream every simulation reads.
//!
//! A [`TraceStream`] is one forward cursor over the stream
//! `TraceGenerator::new(app, seed)` produces, cut into fixed
//! [`STREAM_CHUNK`]-long chunks. It decodes chunks from a registered
//! compiled trace when one covers the stream and generates them
//! otherwise, into one reused buffer.
//!
//! # Determinism
//!
//! Chunks are cut at fixed [`STREAM_CHUNK`] boundaries, decoded chunks
//! are the bytes such a generator produced, and generation happens in a
//! local generator owned by the calling worker, so every consumer sees
//! exactly the generator's stream for any job count and any memo state.

use std::fs::File;
use std::io::BufReader;
use std::sync::Arc;
use std::time::Instant;

use moca_trace::binfmt::TraceReader;
use moca_trace::{AppProfile, MemoryAccess, TraceGenerator};

use crate::replay::{FileTraceSource, TraceRegistry};

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
            fingerprint: TraceRegistry::stream_fingerprint(
                profile,
                file.as_ref().map(|f| &*f.source),
            ),
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
}
