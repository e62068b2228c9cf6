//! File-backed trace replay: compiled-trace sources, the process-wide
//! source registry, and decode accounting.
//!
//! The chunked container in [`moca_trace::binfmt`] stores a workload's
//! reference stream pre-encoded at the stream's chunk granularity. This
//! module is the bridge into the sweep kernel: a [`FileTraceSource`]
//! wraps one validated file, and the [`TraceRegistry`] maps
//! `(profile fingerprint, seed)` identities to registered sources so
//! every [`TraceStream`](crate::stream::TraceStream) in the process —
//! and therefore the sweep executor, every sweep entry point, and the
//! checkpointed experiment driver — transparently replays from file
//! instead of generating, with byte-identical output.
//!
//! # Identity and fallback
//!
//! A registered source only ever serves the stream its header claims:
//! lookups key on the `(fingerprint, seed)` recorded at compile time,
//! and file-backed streams re-key the filtered-run memo (and checkpoint
//! journals) by [`TraceHeader::source_fingerprint`] so file-decoded
//! runs can never alias generated ones. If a chunk fails to decode
//! mid-replay (truncation, bit rot), the stream silently falls back to
//! in-process generation — the output contract is owed to the caller —
//! and the failure is surfaced in [`TraceIoStats::decode_errors`].
//!
//! Decode work (chunks, bytes, nanoseconds, checksum verifies) is
//! accounted on the global registry and exported as the `trace_io`
//! telemetry event.

use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use moca_trace::binfmt::{TraceHeader, TraceReader};
use moca_trace::fxhash::FxHashMap;
use moca_trace::io::ReadTraceError;
use moca_trace::AppProfile;

use crate::telemetry::Event;

/// One compiled trace file, opened, header-validated, and ready to
/// hand out cheap per-stream readers.
#[derive(Debug)]
pub struct FileTraceSource {
    path: PathBuf,
    header: TraceHeader,
    source_fingerprint: u64,
}

impl FileTraceSource {
    /// Opens `path` and validates its header and chunk directory
    /// (chunk payloads are verified lazily, per read).
    ///
    /// # Errors
    ///
    /// Returns [`ReadTraceError`] on I/O failure or a malformed file.
    pub fn open(path: &Path) -> Result<Self, ReadTraceError> {
        let reader = TraceReader::open(path)?;
        let header = reader.header().clone();
        Ok(FileTraceSource {
            path: path.to_path_buf(),
            source_fingerprint: header.source_fingerprint(),
            header,
        })
    }

    /// The file this source reads from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The parsed file identity and chunk directory.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// The generating profile's fingerprint (the registry lookup key,
    /// together with [`FileTraceSource::seed`]).
    pub fn fingerprint(&self) -> u64 {
        self.header.fingerprint
    }

    /// The generator seed the file was compiled from.
    pub fn seed(&self) -> u64 {
        self.header.seed
    }

    /// The memo/checkpoint keying fingerprint for streams replaying
    /// this file (see [`TraceHeader::source_fingerprint`]).
    pub fn source_fingerprint(&self) -> u64 {
        self.source_fingerprint
    }

    /// Chunks servable at stream-chunk granularity (a partial tail chunk is
    /// never served — generation covers anything past it).
    pub fn full_chunks(&self) -> u32 {
        self.header.full_chunks()
    }

    /// A fresh buffered reader over the file, reusing the validated
    /// header (no re-parse).
    ///
    /// # Errors
    ///
    /// Returns [`ReadTraceError::Io`] when the file can no longer be
    /// opened.
    pub fn open_reader(&self) -> Result<TraceReader<BufReader<File>>, ReadTraceError> {
        let file = File::open(&self.path)?;
        Ok(TraceReader::from_parts(
            self.header.clone(),
            BufReader::new(file),
        ))
    }
}

/// Aggregate file-replay counters (see [`TraceRegistry::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceIoStats {
    /// Sources currently registered.
    pub files: u64,
    /// Chunks decoded from files.
    pub chunks_decoded: u64,
    /// Bytes read from trace files (payload + chunk checksums).
    pub bytes_read: u64,
    /// Wall time spent reading + decoding, in nanoseconds.
    pub decode_ns: u64,
    /// Chunk checksums verified successfully.
    pub checksum_verifies: u64,
    /// Chunk decodes that failed (stream fell back to generation).
    pub decode_errors: u64,
}

impl TraceIoStats {
    /// The counters as a `trace_io` telemetry event.
    pub fn to_event(self) -> Event {
        Event::TraceIo {
            files: self.files,
            chunks_decoded: self.chunks_decoded,
            bytes_read: self.bytes_read,
            decode_ns: self.decode_ns,
            checksum_verifies: self.checksum_verifies,
            decode_errors: self.decode_errors,
        }
    }
}

/// The process-wide map from `(profile fingerprint, seed)` to
/// registered [`FileTraceSource`]s, plus replay accounting.
///
/// `repro --trace` and `trace_corpus` register sources here; every
/// `TraceStream` consults [`TraceRegistry::global`] at construction.
/// An empty registry costs streams one mutex lookup at construction
/// time and nothing per chunk.
#[derive(Debug, Default)]
pub struct TraceRegistry {
    sources: Mutex<FxHashMap<(u64, u64), Arc<FileTraceSource>>>,
    chunks_decoded: AtomicU64,
    bytes_read: AtomicU64,
    decode_ns: AtomicU64,
    checksum_verifies: AtomicU64,
    decode_errors: AtomicU64,
}

impl TraceRegistry {
    /// The registry every default-constructed stream consults.
    pub fn global() -> &'static TraceRegistry {
        static GLOBAL: OnceLock<TraceRegistry> = OnceLock::new();
        GLOBAL.get_or_init(TraceRegistry::default)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FxHashMap<(u64, u64), Arc<FileTraceSource>>> {
        // Mirrors the filtered-run memo: critical sections leave the map
        // consistent, so a poisoned lock is safe to re-enter.
        self.sources.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers `source` under its header identity, replacing any
    /// earlier registration for the same `(fingerprint, seed)`.
    pub fn register(&self, source: FileTraceSource) -> Arc<FileTraceSource> {
        let source = Arc::new(source);
        self.lock()
            .insert((source.fingerprint(), source.seed()), Arc::clone(&source));
        source
    }

    /// The registered source for `(fingerprint, seed)`, if any.
    pub fn lookup(&self, fingerprint: u64, seed: u64) -> Option<Arc<FileTraceSource>> {
        self.lock().get(&(fingerprint, seed)).map(Arc::clone)
    }

    /// The fingerprint naming the `(profile, seed)` stream when `source`
    /// backs it: the file's
    /// [`source fingerprint`](FileTraceSource::source_fingerprint),
    /// otherwise the profile fingerprint. Filtered runs and journal keys
    /// of decoded streams live in their own namespace through it.
    pub fn stream_fingerprint(profile: &AppProfile, source: Option<&FileTraceSource>) -> u64 {
        source.map_or_else(
            || profile.fingerprint(),
            FileTraceSource::source_fingerprint,
        )
    }

    /// [`TraceRegistry::stream_fingerprint`] of the `(profile, seed)`
    /// stream as this registry backs it.
    pub fn fingerprint_for(&self, profile: &AppProfile, seed: u64) -> u64 {
        Self::stream_fingerprint(profile, self.lookup(profile.fingerprint(), seed).as_deref())
    }

    /// Number of registered sources.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when no sources are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records one successful chunk decode of `bytes` file bytes
    /// taking `ns` nanoseconds (checksum verified along the way).
    pub(crate) fn note_decode(&self, bytes: u64, ns: u64) {
        self.chunks_decoded.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        self.decode_ns.fetch_add(ns, Ordering::Relaxed);
        self.checksum_verifies.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one failed chunk decode (the stream fell back to
    /// generation).
    pub(crate) fn note_decode_error(&self) {
        self.decode_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// A snapshot of the replay counters.
    pub fn stats(&self) -> TraceIoStats {
        TraceIoStats {
            files: self.len() as u64,
            chunks_decoded: self.chunks_decoded.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            decode_ns: self.decode_ns.load(Ordering::Relaxed),
            checksum_verifies: self.checksum_verifies.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moca_trace::binfmt::{self, CHUNK_REFS};
    use moca_trace::AppProfile;
    use std::fs;
    use std::io::BufWriter;

    fn compile_to_temp(app: &AppProfile, seed: u64, refs: usize, tag: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "moca-replay-test-{}-{tag}.mtrc",
            std::process::id()
        ));
        let file = File::create(&path).expect("create temp trace");
        binfmt::compile(BufWriter::new(file), app, seed, refs).expect("compile");
        path
    }

    #[test]
    fn source_reflects_header_identity() {
        let app = AppProfile::browser();
        let path = compile_to_temp(&app, 17, CHUNK_REFS + 1, "identity");
        let source = FileTraceSource::open(&path).expect("open");
        assert_eq!(source.fingerprint(), app.fingerprint());
        assert_eq!(source.seed(), 17);
        assert_eq!(source.full_chunks(), 2);
        assert_ne!(source.source_fingerprint(), app.fingerprint());
        fs::remove_file(path).ok();
    }

    #[test]
    fn registry_registers_and_looks_up_by_identity() {
        let app = AppProfile::email();
        let path = compile_to_temp(&app, 99, 10, "registry");
        let registry = TraceRegistry::default();
        assert!(registry.is_empty());
        assert!(registry.lookup(app.fingerprint(), 99).is_none());
        let source = registry.register(FileTraceSource::open(&path).expect("open"));
        assert_eq!(registry.len(), 1);
        let found = registry
            .lookup(app.fingerprint(), 99)
            .expect("registered source");
        assert!(Arc::ptr_eq(&source, &found));
        assert!(registry.lookup(app.fingerprint(), 100).is_none());
        fs::remove_file(path).ok();
    }

    #[test]
    fn stats_snapshot_counts_decodes_and_errors() {
        let registry = TraceRegistry::default();
        registry.note_decode(1000, 50);
        registry.note_decode(2000, 70);
        registry.note_decode_error();
        let stats = registry.stats();
        assert_eq!(stats.chunks_decoded, 2);
        assert_eq!(stats.bytes_read, 3000);
        assert_eq!(stats.decode_ns, 120);
        assert_eq!(stats.checksum_verifies, 2);
        assert_eq!(stats.decode_errors, 1);
    }
}
