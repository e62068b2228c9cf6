//! Chunked binary trace container: compile a workload once, replay it
//! into every subsequent sweep at decode speed.
//!
//! The legacy stream format in [`crate::io`] is a flat record stream:
//! fine for archiving, useless for random access, and unprotected
//! against corruption. This module defines the on-disk format behind
//! `tracegen --emit`, `repro --trace`, and the `trace_corpus` tool:
//!
//! ```text
//! ┌──────────────────────── fixed header (52 bytes) ───────────────────────┐
//! │ magic "MOCATRC0" │ version u16 │ reserved u16 │ chunk_refs u32         │
//! │ fingerprint u64  │ seed u64    │ total_refs u64 │ chunk_count u32      │
//! │ fxhash of bytes 0..44  u64                                             │
//! ├──────────────────────────── payload ───────────────────────────────────┤
//! │ chunk 0: delta/varint records ..  │ fxhash u64 │                       │
//! │ chunk 1: ..                       │ fxhash u64 │ …                     │
//! ├─────────────────────────── directory ──────────────────────────────────┤
//! │ chunk_count × { payload bytes u32 │ refs u32 } │ fxhash u64            │
//! └────────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! * **Chunked at the stream granularity.** Payload is cut at
//!   [`CHUNK_REFS`] = 8192 references — the same boundary as
//!   `moca_sim`'s trace stream — so one decoded chunk drops straight
//!   into the stream's chunk buffer: one buffered read + one decode
//!   pass per chunk, no per-reference allocation.
//! * **Per-chunk delta coding.** Each chunk restarts its address/PC
//!   predictors at zero, so chunks decode independently (random access
//!   through the directory). A record is two LEB128 varints: the
//!   zigzagged address delta widened to `u128` with the 3 tag bits
//!   (access kind + user/kernel mode) packed below it, then the
//!   zigzagged PC delta.
//! * **Checksummed everywhere.** Header, directory, and every chunk
//!   payload carry a fixed-seed [`crate::fxhash`] checksum; any flipped
//!   byte surfaces as a structured [`ReadTraceError`] naming the
//!   failing chunk — never a panic, never silent garbage.
//! * **Fingerprinted.** The header records the generating
//!   [`AppProfile::fingerprint`] and seed. Consumers key caches and
//!   checkpoint journals by [`TraceHeader::source_fingerprint`], which
//!   also folds in the format identity, so a file-backed stream can
//!   never alias an in-process generated one.
//!
//! The directory sits at the *end* of the file so
//! [`compile`]/[`TraceWriter`] stream chunks out without knowing their
//! sizes up front; [`TraceReader::new`] reads it back with two seeks.
//!
//! # Examples
//!
//! ```
//! use std::io::Cursor;
//! use moca_trace::binfmt::{self, TraceReader};
//! use moca_trace::{AppProfile, TraceGenerator};
//!
//! let app = AppProfile::music();
//! let mut file = Cursor::new(Vec::new());
//! let summary = binfmt::compile(&mut file, &app, 7, 10_000).unwrap();
//! assert_eq!(summary.chunks, 2); // 10_000 refs round up to 2×8192
//!
//! let mut reader = TraceReader::new(Cursor::new(file.into_inner())).unwrap();
//! let mut chunk = Vec::new();
//! reader.read_chunk(0, &mut chunk).unwrap();
//! let direct: Vec<_> = TraceGenerator::new(&app, 7).take(chunk.len()).collect();
//! assert_eq!(chunk, direct);
//! ```

use std::fs::File;
use std::hash::Hasher;
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::access::{AccessKind, MemoryAccess, Mode};
use crate::apps::AppProfile;
use crate::fxhash::FxHasher;
use crate::generator::TraceGenerator;
use crate::io::{tag, unzigzag, zigzag, ReadTraceError};

/// Magic bytes opening every chunked trace file.
pub const MAGIC: [u8; 8] = *b"MOCATRC0";

/// Version of the chunked container format.
pub const VERSION: u16 = 1;

/// References per chunk — fixed to the simulator's stream granularity
/// so a decoded chunk is exactly the chunk a generator would have
/// produced at the same stream position.
pub const CHUNK_REFS: usize = TraceGenerator::DEFAULT_CHUNK;

/// Byte length of the fixed header.
pub const HEADER_LEN: usize = 52;

/// Byte offset of the header's trailing checksum (it covers `0..44`).
const HEADER_HASHED: usize = HEADER_LEN - 8;

fn fxhash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

// ---------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------

/// Appends `v` as an LEB128 varint.
fn push_varint(out: &mut Vec<u8>, mut v: u128) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint of at most `max_bits` payload bits from
/// `buf[*pos..]`, advancing `pos`. `None` on truncation or overflow.
fn read_varint(buf: &[u8], pos: &mut usize, max_bits: u32) -> Option<u128> {
    let mut v = 0u128;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        if shift >= max_bits {
            return None;
        }
        v |= u128::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return if v >> max_bits == 0 { Some(v) } else { None };
        }
        shift += 7;
    }
}

/// Encodes one chunk of accesses into `out` (cleared first).
///
/// Address/PC predictors restart at zero so every chunk decodes on its
/// own; the 3 tag bits ride below the zigzagged address delta in one
/// widened varint (≤10 bytes for the 67-bit worst case).
fn encode_chunk(chunk: &[MemoryAccess], out: &mut Vec<u8>) {
    out.clear();
    let mut prev_addr = 0u64;
    let mut prev_pc = 0u64;
    for a in chunk {
        let addr_delta = zigzag(a.addr.wrapping_sub(prev_addr) as i64);
        let packed = (u128::from(addr_delta) << 3) | u128::from(tag(a.kind, a.mode));
        push_varint(out, packed);
        push_varint(out, u128::from(zigzag(a.pc.wrapping_sub(prev_pc) as i64)));
        prev_addr = a.addr;
        prev_pc = a.pc;
    }
}

fn untag3(bits: u8) -> Option<(AccessKind, Mode)> {
    let kind = match bits & 0x3 {
        0 => AccessKind::InstrFetch,
        1 => AccessKind::Load,
        2 => AccessKind::Store,
        _ => return None,
    };
    let mode = if bits & 0x4 == 0 { Mode::User } else { Mode::Kernel };
    Some((kind, mode))
}

/// Decodes a checksum-verified chunk payload into `out` (cleared
/// first). `refs` comes from the directory; `chunk` only labels errors.
fn decode_chunk(
    payload: &[u8],
    refs: usize,
    chunk: u32,
    out: &mut Vec<MemoryAccess>,
) -> Result<(), ReadTraceError> {
    let corrupt = |what| ReadTraceError::ChunkCorrupt { chunk, what };
    out.clear();
    out.reserve(refs);
    let mut pos = 0usize;
    let mut prev_addr = 0u64;
    let mut prev_pc = 0u64;
    for _ in 0..refs {
        // 64-bit zigzag delta + 3 tag bits = 67 payload bits.
        let packed = read_varint(payload, &mut pos, 67)
            .ok_or_else(|| corrupt("record address varint truncated or oversized"))?;
        let (kind, mode) =
            untag3((packed & 0x7) as u8).ok_or_else(|| corrupt("unknown access kind tag"))?;
        let addr = prev_addr.wrapping_add(unzigzag((packed >> 3) as u64) as u64);
        let pc_delta = read_varint(payload, &mut pos, 64)
            .ok_or_else(|| corrupt("record pc varint truncated or oversized"))?;
        let pc = prev_pc.wrapping_add(unzigzag(pc_delta as u64) as u64);
        prev_addr = addr;
        prev_pc = pc;
        out.push(MemoryAccess::new(addr, pc, kind, mode));
    }
    if pos != payload.len() {
        return Err(corrupt("trailing bytes after the last record"));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

fn render_header(fingerprint: u64, seed: u64, total_refs: u64, chunk_count: u32) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..8].copy_from_slice(&MAGIC);
    h[8..10].copy_from_slice(&VERSION.to_le_bytes());
    // h[10..12] reserved, zero.
    h[12..16].copy_from_slice(&(CHUNK_REFS as u32).to_le_bytes());
    h[16..24].copy_from_slice(&fingerprint.to_le_bytes());
    h[24..32].copy_from_slice(&seed.to_le_bytes());
    h[32..40].copy_from_slice(&total_refs.to_le_bytes());
    h[40..44].copy_from_slice(&chunk_count.to_le_bytes());
    let sum = fxhash_bytes(&h[..HEADER_HASHED]);
    h[HEADER_HASHED..].copy_from_slice(&sum.to_le_bytes());
    h
}

/// Streams chunks into a chunked trace file.
///
/// `create` reserves the header slot, `write_chunk` appends encoded
/// chunks in order, and `finish` appends the directory and back-patches
/// the real header — so a trace of unknown length can be compiled in
/// one forward pass (plus one seek).
#[derive(Debug)]
pub struct TraceWriter<W: Write + Seek> {
    w: W,
    fingerprint: u64,
    seed: u64,
    total_refs: u64,
    payload_bytes: u64,
    /// `(payload bytes, refs)` per chunk, in file order.
    entries: Vec<(u32, u32)>,
    scratch: Vec<u8>,
    sealed: bool,
}

impl<W: Write + Seek> TraceWriter<W> {
    /// Starts a trace file for the `(fingerprint, seed)` stream,
    /// writing the (zeroed, to-be-patched) header slot immediately.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn create(mut w: W, fingerprint: u64, seed: u64) -> io::Result<Self> {
        w.write_all(&[0u8; HEADER_LEN])?;
        Ok(TraceWriter {
            w,
            fingerprint,
            seed,
            total_refs: 0,
            payload_bytes: 0,
            entries: Vec::new(),
            scratch: Vec::new(),
            sealed: false,
        })
    }

    /// Encodes and appends one chunk.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is empty, longer than [`CHUNK_REFS`], or
    /// follows a partial chunk — only the *final* chunk may hold fewer
    /// than [`CHUNK_REFS`] references. These are caller bugs, not data
    /// corruption.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn write_chunk(&mut self, chunk: &[MemoryAccess]) -> io::Result<()> {
        assert!(!chunk.is_empty(), "empty trace chunk");
        assert!(chunk.len() <= CHUNK_REFS, "chunk exceeds CHUNK_REFS");
        assert!(
            !self.sealed,
            "only the final chunk may hold fewer than CHUNK_REFS references"
        );
        self.sealed = chunk.len() < CHUNK_REFS;
        encode_chunk(chunk, &mut self.scratch);
        self.w.write_all(&self.scratch)?;
        self.w
            .write_all(&fxhash_bytes(&self.scratch).to_le_bytes())?;
        self.entries
            .push((self.scratch.len() as u32, chunk.len() as u32));
        self.total_refs += chunk.len() as u64;
        self.payload_bytes += self.scratch.len() as u64;
        Ok(())
    }

    /// Appends the chunk directory, back-patches the header, flushes,
    /// and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn finish(mut self) -> io::Result<W> {
        let mut dir = Vec::with_capacity(self.entries.len() * 8);
        for &(bytes, refs) in &self.entries {
            dir.extend_from_slice(&bytes.to_le_bytes());
            dir.extend_from_slice(&refs.to_le_bytes());
        }
        self.w.write_all(&dir)?;
        self.w.write_all(&fxhash_bytes(&dir).to_le_bytes())?;
        let header = render_header(
            self.fingerprint,
            self.seed,
            self.total_refs,
            self.entries.len() as u32,
        );
        self.w.seek(SeekFrom::Start(0))?;
        self.w.write_all(&header)?;
        self.w.flush()?;
        Ok(self.w)
    }

    /// References written so far.
    pub fn total_refs(&self) -> u64 {
        self.total_refs
    }

    /// Encoded payload bytes written so far (checksums excluded).
    pub fn payload_bytes(&self) -> u64 {
        self.payload_bytes
    }
}

/// What [`compile`] produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileSummary {
    /// Chunks written.
    pub chunks: u32,
    /// Total references written (`min_refs` rounded up to full chunks).
    pub refs: u64,
    /// Encoded payload bytes (header, checksums, directory excluded).
    pub payload_bytes: u64,
}

/// Generates the `(profile, seed)` stream and compiles at least
/// `min_refs` references into `w` as a chunked trace file.
///
/// The count rounds *up* to whole [`CHUNK_REFS`]-sized chunks (at least
/// one): replay streams only memoize full chunks, so a partial tail
/// would be dead weight, and extra references beyond `min_refs` are
/// simply never requested by shorter runs.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn compile<W: Write + Seek>(
    w: W,
    profile: &AppProfile,
    seed: u64,
    min_refs: usize,
) -> io::Result<CompileSummary> {
    let chunks = min_refs.div_ceil(CHUNK_REFS).max(1);
    let mut writer = TraceWriter::create(w, profile.fingerprint(), seed)?;
    let mut gen = TraceGenerator::new(profile, seed);
    let mut buf: Vec<MemoryAccess> = Vec::with_capacity(CHUNK_REFS);
    for _ in 0..chunks {
        gen.fill(&mut buf);
        writer.write_chunk(&buf)?;
    }
    let summary = CompileSummary {
        chunks: chunks as u32,
        refs: writer.total_refs(),
        payload_bytes: writer.payload_bytes(),
    };
    writer.finish()?;
    Ok(summary)
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// One directory entry, resolved to an absolute file position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Absolute byte offset of the chunk's payload.
    pub offset: u64,
    /// Payload length in bytes (trailing checksum excluded).
    pub bytes: u32,
    /// References encoded in the chunk.
    pub refs: u32,
}

/// The parsed, validated identity of a chunked trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// [`AppProfile::fingerprint`] of the generating profile.
    pub fingerprint: u64,
    /// Generator seed the trace was compiled from.
    pub seed: u64,
    /// Total references stored.
    pub total_refs: u64,
    /// Chunk granularity (always [`CHUNK_REFS`] in version 1).
    pub chunk_refs: u32,
    /// Chunk directory with resolved offsets, in stream order.
    pub chunks: Vec<ChunkEntry>,
}

impl TraceHeader {
    /// Number of chunks in the file.
    pub fn chunk_count(&self) -> u32 {
        self.chunks.len() as u32
    }

    /// Chunks holding exactly [`CHUNK_REFS`] references — the prefix a
    /// replay stream may serve at stream-chunk granularity.
    pub fn full_chunks(&self) -> u32 {
        self.chunks
            .iter()
            .take_while(|e| e.refs == self.chunk_refs)
            .count() as u32
    }

    /// A stable fingerprint for *this trace as a replay source*.
    ///
    /// Distinct from the plain profile fingerprint: it folds in the
    /// container identity (magic, version, chunk granularity, length)
    /// so memo keys and checkpoint-journal keys for file-backed
    /// streams can never collide with in-process generated ones, and a
    /// re-recorded file of different length re-keys cleanly.
    pub fn source_fingerprint(&self) -> u64 {
        let mut h = FxHasher::default();
        h.write(&MAGIC);
        h.write(&VERSION.to_le_bytes());
        h.write(&self.chunk_refs.to_le_bytes());
        h.write(&self.fingerprint.to_le_bytes());
        h.write(&self.seed.to_le_bytes());
        h.write(&self.total_refs.to_le_bytes());
        h.finish()
    }
}

/// What a full-file [`TraceReader::validate`] pass verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidateSummary {
    /// Chunks read and checksum-verified.
    pub chunks: u32,
    /// References decoded.
    pub refs: u64,
    /// Payload bytes read (checksums excluded).
    pub payload_bytes: u64,
}

/// Random-access reader over a chunked trace file.
///
/// Construction parses and validates the header and directory; each
/// [`TraceReader::read_chunk`] is then one seek, one buffered read, a
/// checksum verify, and a single decode pass into the caller's buffer.
#[derive(Debug)]
pub struct TraceReader<R: Read + Seek> {
    header: TraceHeader,
    src: R,
    scratch: Vec<u8>,
}

impl TraceReader<BufReader<File>> {
    /// Opens and validates the trace file at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`ReadTraceError`] on I/O failure or a malformed
    /// header/directory.
    pub fn open(path: &Path) -> Result<Self, ReadTraceError> {
        TraceReader::new(BufReader::new(File::open(path)?))
    }
}

impl<R: Read + Seek> TraceReader<R> {
    /// Parses and validates the header and chunk directory of `src`.
    ///
    /// # Errors
    ///
    /// Returns [`ReadTraceError`] on I/O failure, wrong magic/version,
    /// or an inconsistent header/directory. Chunk payloads are *not*
    /// touched here — use [`TraceReader::validate`] for a full audit.
    pub fn new(mut src: R) -> Result<Self, ReadTraceError> {
        let bad = ReadTraceError::HeaderCorrupt;
        let mut h = [0u8; HEADER_LEN];
        src.seek(SeekFrom::Start(0))?;
        read_exact_or(&mut src, &mut h, bad("file shorter than the fixed header"))?;
        if h[0..8] != MAGIC {
            let mut m = [0u8; 8];
            m.copy_from_slice(&h[0..8]);
            return Err(ReadTraceError::BadFileMagic(m));
        }
        let version = u16::from_le_bytes([h[8], h[9]]);
        if version != VERSION {
            return Err(ReadTraceError::BadFileVersion(version));
        }
        let sum = u64::from_le_bytes(h[HEADER_HASHED..].try_into().expect("8 bytes"));
        if sum != fxhash_bytes(&h[..HEADER_HASHED]) {
            return Err(bad("header checksum mismatch"));
        }
        if h[10] != 0 || h[11] != 0 {
            return Err(bad("reserved header bits set"));
        }
        let chunk_refs = u32::from_le_bytes(h[12..16].try_into().expect("4 bytes"));
        if chunk_refs as usize != CHUNK_REFS {
            return Err(bad("unsupported chunk granularity"));
        }
        let fingerprint = u64::from_le_bytes(h[16..24].try_into().expect("8 bytes"));
        let seed = u64::from_le_bytes(h[24..32].try_into().expect("8 bytes"));
        let total_refs = u64::from_le_bytes(h[32..40].try_into().expect("8 bytes"));
        let chunk_count = u32::from_le_bytes(h[40..44].try_into().expect("4 bytes"));

        // The directory closes the file: chunk_count × 8 bytes + hash.
        let dir_len = u64::from(chunk_count) * 8 + 8;
        let file_len = src.seek(SeekFrom::End(0))?;
        if file_len < HEADER_LEN as u64 + dir_len {
            return Err(bad("file shorter than its chunk directory"));
        }
        src.seek(SeekFrom::End(-(dir_len as i64)))?;
        let mut dir = vec![0u8; dir_len as usize];
        read_exact_or(&mut src, &mut dir, bad("file shorter than its chunk directory"))?;
        let (dir_body, dir_sum) = dir.split_at(dir.len() - 8);
        if u64::from_le_bytes(dir_sum.try_into().expect("8 bytes")) != fxhash_bytes(dir_body) {
            return Err(bad("chunk directory checksum mismatch"));
        }

        let mut chunks = Vec::with_capacity(chunk_count as usize);
        let mut offset = HEADER_LEN as u64;
        let mut refs_sum = 0u64;
        for (i, entry) in dir_body.chunks_exact(8).enumerate() {
            let bytes = u32::from_le_bytes(entry[0..4].try_into().expect("4 bytes"));
            let refs = u32::from_le_bytes(entry[4..8].try_into().expect("4 bytes"));
            if refs == 0 || refs > chunk_refs {
                return Err(bad("chunk reference count out of range"));
            }
            if refs < chunk_refs && i + 1 != chunk_count as usize {
                return Err(bad("non-final chunk is partial"));
            }
            if bytes == 0 {
                return Err(bad("empty chunk payload"));
            }
            chunks.push(ChunkEntry { offset, bytes, refs });
            offset = offset
                .checked_add(u64::from(bytes) + 8)
                .ok_or(ReadTraceError::HeaderCorrupt("chunk offsets overflow"))?;
            refs_sum += u64::from(refs);
        }
        if refs_sum != total_refs {
            return Err(bad("total reference count does not match the directory"));
        }
        Ok(TraceReader {
            header: TraceHeader {
                fingerprint,
                seed,
                total_refs,
                chunk_refs,
                chunks,
            },
            src,
            scratch: Vec::new(),
        })
    }

    /// Builds a reader from an already-parsed header (e.g. cached by a
    /// replay registry) over a fresh byte source of the same file —
    /// skipping the header/directory re-parse of [`TraceReader::new`].
    ///
    /// If the source has changed since the header was parsed (say the
    /// file was truncated underneath the cache), the per-chunk
    /// checksums and EOF checks in [`TraceReader::read_chunk`] still
    /// catch every divergence as a structured error.
    pub fn from_parts(header: TraceHeader, src: R) -> Self {
        TraceReader {
            header,
            src,
            scratch: Vec::new(),
        }
    }

    /// The file's parsed identity and chunk directory.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Reads, verifies, and decodes chunk `index` into `out` (cleared
    /// first), returning the bytes read from the file.
    ///
    /// # Errors
    ///
    /// [`ReadTraceError::ChunkTruncated`] when the file ends early,
    /// [`ReadTraceError::ChunkChecksum`] on a payload checksum
    /// mismatch, [`ReadTraceError::ChunkCorrupt`] when a verified
    /// payload decodes malformed, plus underlying I/O errors.
    pub fn read_chunk(
        &mut self,
        index: u32,
        out: &mut Vec<MemoryAccess>,
    ) -> Result<u64, ReadTraceError> {
        let entry =
            *self
                .header
                .chunks
                .get(index as usize)
                .ok_or(ReadTraceError::ChunkCorrupt {
                    chunk: index,
                    what: "chunk index out of range",
                })?;
        let slot = entry.bytes as usize + 8;
        self.scratch.resize(slot, 0);
        self.src.seek(SeekFrom::Start(entry.offset))?;
        read_exact_or(
            &mut self.src,
            &mut self.scratch,
            ReadTraceError::ChunkTruncated { chunk: index },
        )?;
        let (payload, sum) = self.scratch.split_at(entry.bytes as usize);
        if u64::from_le_bytes(sum.try_into().expect("8 bytes")) != fxhash_bytes(payload) {
            return Err(ReadTraceError::ChunkChecksum { chunk: index });
        }
        decode_chunk(payload, entry.refs as usize, index, out)?;
        Ok(slot as u64)
    }

    /// Reads and decodes every chunk, verifying all checksums.
    ///
    /// # Errors
    ///
    /// The first [`ReadTraceError`] encountered, naming the failing
    /// chunk.
    pub fn validate(&mut self) -> Result<ValidateSummary, ReadTraceError> {
        let mut buf = Vec::with_capacity(CHUNK_REFS);
        let mut refs = 0u64;
        let mut payload_bytes = 0u64;
        let count = self.header.chunk_count();
        for i in 0..count {
            let slot = self.read_chunk(i, &mut buf)?;
            refs += buf.len() as u64;
            payload_bytes += slot - 8;
        }
        Ok(ValidateSummary {
            chunks: count,
            refs,
            payload_bytes,
        })
    }

    /// A flat iterator over every stored reference, decoding chunk by
    /// chunk. Decode errors end the iteration early; call
    /// [`Accesses::finish`] afterwards to surface them — this shape
    /// lets `TraceStats::collect` (which takes any `IntoIterator`)
    /// consume a file directly.
    pub fn accesses(&mut self) -> Accesses<'_, R> {
        Accesses {
            reader: self,
            buf: Vec::new(),
            pos: 0,
            next_chunk: 0,
            error: None,
        }
    }
}

fn read_exact_or<R: Read>(
    src: &mut R,
    buf: &mut [u8],
    on_eof: ReadTraceError,
) -> Result<(), ReadTraceError> {
    src.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            on_eof
        } else {
            ReadTraceError::Io(e)
        }
    })
}

/// Iterator adapter over a [`TraceReader`]'s stored references.
#[derive(Debug)]
pub struct Accesses<'r, R: Read + Seek> {
    reader: &'r mut TraceReader<R>,
    buf: Vec<MemoryAccess>,
    pos: usize,
    next_chunk: u32,
    error: Option<ReadTraceError>,
}

impl<R: Read + Seek> Accesses<'_, R> {
    /// Surfaces the decode error (if any) that ended the iteration.
    ///
    /// # Errors
    ///
    /// The deferred [`ReadTraceError`], when one occurred.
    pub fn finish(self) -> Result<(), ReadTraceError> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl<R: Read + Seek> Iterator for Accesses<'_, R> {
    type Item = MemoryAccess;

    fn next(&mut self) -> Option<MemoryAccess> {
        loop {
            if self.pos < self.buf.len() {
                let a = self.buf[self.pos];
                self.pos += 1;
                return Some(a);
            }
            if self.error.is_some() || self.next_chunk >= self.reader.header.chunk_count() {
                return None;
            }
            let index = self.next_chunk;
            self.next_chunk += 1;
            self.pos = 0;
            if let Err(e) = self.reader.read_chunk(index, &mut self.buf) {
                self.buf.clear();
                self.error = Some(e);
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn compile_mem(app: &AppProfile, seed: u64, refs: usize) -> Vec<u8> {
        let mut cur = Cursor::new(Vec::new());
        compile(&mut cur, app, seed, refs).expect("compile");
        cur.into_inner()
    }

    #[test]
    fn roundtrip_matches_generator() {
        let app = AppProfile::browser();
        let bytes = compile_mem(&app, 42, 2 * CHUNK_REFS + 17);
        let mut reader = TraceReader::new(Cursor::new(&bytes)).expect("open");
        assert_eq!(reader.header().chunk_count(), 3);
        assert_eq!(reader.header().total_refs, 3 * CHUNK_REFS as u64);
        assert_eq!(reader.header().fingerprint, app.fingerprint());
        assert_eq!(reader.header().seed, 42);
        let mut got = Vec::new();
        let mut chunk = Vec::new();
        for i in 0..3 {
            reader.read_chunk(i, &mut chunk).expect("chunk");
            assert_eq!(chunk.len(), CHUNK_REFS);
            got.extend_from_slice(&chunk);
        }
        let want: Vec<_> = TraceGenerator::new(&app, 42).take(got.len()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn chunks_decode_independently() {
        // Reading chunk 2 without 0/1 must produce the same bytes the
        // sequential pass does — the per-chunk predictor reset.
        let app = AppProfile::game();
        let bytes = compile_mem(&app, 9, 3 * CHUNK_REFS);
        let want: Vec<_> = TraceGenerator::new(&app, 9)
            .take(3 * CHUNK_REFS)
            .collect();
        let mut reader = TraceReader::new(Cursor::new(&bytes)).expect("open");
        let mut chunk = Vec::new();
        reader.read_chunk(2, &mut chunk).expect("chunk 2");
        assert_eq!(&chunk[..], &want[2 * CHUNK_REFS..]);
    }

    #[test]
    fn validate_audits_every_chunk() {
        let app = AppProfile::music();
        let bytes = compile_mem(&app, 5, CHUNK_REFS + 1);
        let mut reader = TraceReader::new(Cursor::new(&bytes)).expect("open");
        let summary = reader.validate().expect("validate");
        assert_eq!(summary.chunks, 2);
        assert_eq!(summary.refs, 2 * CHUNK_REFS as u64);
        assert!(summary.payload_bytes > 0);
    }

    #[test]
    fn partial_final_chunk_is_representable() {
        // compile() always pads, but the container itself allows a
        // short tail (future external traces); full_chunks excludes it.
        let app = AppProfile::email();
        let trace: Vec<_> = TraceGenerator::new(&app, 3).take(CHUNK_REFS + 100).collect();
        let mut writer =
            TraceWriter::create(Cursor::new(Vec::new()), app.fingerprint(), 3).expect("create");
        writer.write_chunk(&trace[..CHUNK_REFS]).expect("full");
        writer.write_chunk(&trace[CHUNK_REFS..]).expect("tail");
        let bytes = writer.finish().expect("finish").into_inner();
        let mut reader = TraceReader::new(Cursor::new(&bytes)).expect("open");
        assert_eq!(reader.header().chunk_count(), 2);
        assert_eq!(reader.header().full_chunks(), 1);
        assert_eq!(reader.header().total_refs, CHUNK_REFS as u64 + 100);
        let mut chunk = Vec::new();
        reader.read_chunk(1, &mut chunk).expect("tail chunk");
        assert_eq!(&chunk[..], &trace[CHUNK_REFS..]);
    }

    #[test]
    fn source_fingerprint_differs_from_profile_fingerprint() {
        let app = AppProfile::browser();
        let bytes = compile_mem(&app, 1, 100);
        let reader = TraceReader::new(Cursor::new(&bytes)).expect("open");
        let h = reader.header();
        assert_ne!(h.source_fingerprint(), h.fingerprint);
        // And it is sensitive to length: a longer recording re-keys.
        let longer = compile_mem(&app, 1, 2 * CHUNK_REFS);
        let r2 = TraceReader::new(Cursor::new(&longer)).expect("open");
        assert_ne!(h.source_fingerprint(), r2.header().source_fingerprint());
    }

    #[test]
    fn accesses_iterator_streams_the_whole_file() {
        let app = AppProfile::video();
        let bytes = compile_mem(&app, 8, CHUNK_REFS + 5);
        let mut reader = TraceReader::new(Cursor::new(&bytes)).expect("open");
        let total = reader.header().total_refs as usize;
        let mut it = reader.accesses();
        let got: Vec<_> = it.by_ref().collect();
        it.finish().expect("no decode error");
        let want: Vec<_> = TraceGenerator::new(&app, 8).take(total).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn varint_rejects_oversized_encodings() {
        // 11 continuation bytes overflow the 67-bit budget.
        let buf = [0xffu8; 12];
        let mut pos = 0;
        assert!(read_varint(&buf, &mut pos, 67).is_none());
        // A valid maximal value round-trips.
        let mut enc = Vec::new();
        let max = (u128::from(u64::MAX) << 3) | 0x7;
        push_varint(&mut enc, max);
        let mut pos = 0;
        assert_eq!(read_varint(&enc, &mut pos, 67), Some(max));
        assert_eq!(pos, enc.len());
    }
}
