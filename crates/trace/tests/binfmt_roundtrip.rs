//! Round-trip and corruption-robustness suite for the chunked replay
//! container (`moca_trace::binfmt`).
//!
//! * randomized `(app, seed, refs)` compile → decode ≡ generator output,
//!   ref for ref;
//! * codec edge cases driven through `TraceWriter` directly: maximal
//!   forward/backward address deltas, alternating extremes, every
//!   kind/mode tag combination;
//! * a corruption matrix — truncations, flipped bytes, bad versions,
//!   checksum mismatches, crafted undecodable payloads, and short
//!   writes — proving every failure surfaces as a structured
//!   [`ReadTraceError`] naming the failing chunk, never a panic.

use std::hash::Hasher;
use std::io::Cursor;

use moca_testkit::{check, Config, ShortSeekWriter};
use moca_trace::binfmt::{self, TraceReader, TraceWriter, CHUNK_REFS, HEADER_LEN, MAGIC, VERSION};
use moca_trace::io::ReadTraceError;
use moca_trace::{AccessKind, AppProfile, FxHasher, MemoryAccess, Mode, TraceGenerator};

fn fxhash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// Compiles `(profile, seed, min_refs)` into an in-memory file.
fn compile_bytes(profile: &AppProfile, seed: u64, min_refs: usize) -> Vec<u8> {
    let cursor = Cursor::new(Vec::new());
    let cursor = {
        let mut w = cursor;
        binfmt::compile(&mut w, profile, seed, min_refs).expect("in-memory compile");
        w
    };
    cursor.into_inner()
}

/// Decodes every chunk of `bytes` into one flat access vector.
fn decode_all(bytes: &[u8]) -> Vec<MemoryAccess> {
    let mut reader = TraceReader::new(Cursor::new(bytes)).expect("parse header");
    let mut all = Vec::new();
    let mut buf = Vec::new();
    for i in 0..reader.header().chunk_count() {
        reader.read_chunk(i, &mut buf).expect("decode chunk");
        all.extend_from_slice(&buf);
    }
    all
}

#[test]
fn randomized_roundtrip_matches_generator() {
    let suite = AppProfile::suite();
    check(
        Config::cases(24).with_seed(0xB1F0_0001),
        |rng| {
            let app = rng.pick(&suite).clone();
            let seed = rng.next_u64();
            let refs = rng.range_usize(1, 3 * CHUNK_REFS);
            (app, seed, refs)
        },
        |(app, seed, refs)| {
            let bytes = compile_bytes(app, *seed, *refs);
            let decoded = decode_all(&bytes);
            if decoded.len() < *refs || !decoded.len().is_multiple_of(CHUNK_REFS) {
                return Err(format!(
                    "compile of {refs} refs produced {} (not full chunks)",
                    decoded.len()
                ));
            }
            let expected: Vec<MemoryAccess> = TraceGenerator::new(app, *seed)
                .take(decoded.len())
                .collect();
            for (i, (d, e)) in decoded.iter().zip(&expected).enumerate() {
                if d != e {
                    return Err(format!("ref {i} diverged: decoded {d:?}, generated {e:?}"));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn codec_survives_extreme_deltas_and_every_tag() {
    let kinds = [AccessKind::InstrFetch, AccessKind::Load, AccessKind::Store];
    let modes = [Mode::User, Mode::Kernel];
    let mut chunk = Vec::new();
    // Every kind/mode tag combination.
    for (i, (&kind, &mode)) in kinds
        .iter()
        .flat_map(|k| modes.iter().map(move |m| (k, m)))
        .enumerate()
    {
        chunk.push(MemoryAccess::new(i as u64 * 64, i as u64 * 4, kind, mode));
    }
    // Maximal forward and backward jumps: 0 ↔ u64::MAX, alternating, for
    // both the address and pc predictors (deltas wrap through i64).
    for i in 0..16u64 {
        let (addr, pc) = if i % 2 == 0 {
            (u64::MAX, 0)
        } else {
            (0, u64::MAX)
        };
        chunk.push(MemoryAccess::new(addr, pc, AccessKind::Load, Mode::User));
    }
    // Largest magnitudes around the zigzag boundary.
    for addr in [i64::MAX as u64, i64::MAX as u64 + 1, u64::MAX, 0, 1] {
        chunk.push(MemoryAccess::new(
            addr,
            addr ^ 0xDEAD,
            AccessKind::Store,
            Mode::Kernel,
        ));
    }

    let mut w = TraceWriter::create(Cursor::new(Vec::new()), 0xF00D, 7).expect("create");
    w.write_chunk(&chunk).expect("write");
    let bytes = w.finish().expect("finish").into_inner();
    assert_eq!(decode_all(&bytes), chunk);
}

#[test]
fn partial_and_multi_chunk_writer_roundtrip() {
    let profile = AppProfile::browser();
    let refs: Vec<MemoryAccess> = TraceGenerator::new(&profile, 11)
        .take(CHUNK_REFS + CHUNK_REFS / 2)
        .collect();
    let mut w =
        TraceWriter::create(Cursor::new(Vec::new()), profile.fingerprint(), 11).expect("create");
    w.write_chunk(&refs[..CHUNK_REFS]).expect("full chunk");
    w.write_chunk(&refs[CHUNK_REFS..])
        .expect("partial final chunk");
    let bytes = w.finish().expect("finish").into_inner();

    let mut reader = TraceReader::new(Cursor::new(&bytes[..])).expect("parse");
    assert_eq!(reader.header().total_refs, refs.len() as u64);
    assert_eq!(reader.header().chunk_count(), 2);
    assert_eq!(reader.header().full_chunks(), 1);
    let mut it = reader.accesses();
    let decoded: Vec<MemoryAccess> = it.by_ref().collect();
    it.finish().expect("clean stream");
    assert_eq!(decoded, refs);
}

// -----------------------------------------------------------------
// Corruption matrix
// -----------------------------------------------------------------

/// A small two-chunk file shared by the corruption tests.
fn sample_file() -> Vec<u8> {
    compile_bytes(&AppProfile::game(), 5, CHUNK_REFS + 1)
}

#[test]
fn bad_magic_is_structured() {
    let mut bytes = sample_file();
    bytes[0] = b'X';
    match TraceReader::new(Cursor::new(&bytes[..])) {
        Err(ReadTraceError::BadFileMagic(seen)) => assert_ne!(seen, MAGIC),
        other => panic!("expected BadFileMagic, got {other:?}"),
    }
}

#[test]
fn bad_version_is_structured() {
    let mut bytes = sample_file();
    // Bump the on-disk version and recompute the header checksum so the
    // version check (not the checksum check) rejects the file: a future
    // format revision looks exactly like this.
    bytes[8..10].copy_from_slice(&(VERSION + 1).to_le_bytes());
    let sum = fxhash_bytes(&bytes[..HEADER_LEN - 8]);
    bytes[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
    match TraceReader::new(Cursor::new(&bytes[..])) {
        Err(ReadTraceError::BadFileVersion(v)) => assert_eq!(v, VERSION + 1),
        other => panic!("expected BadFileVersion, got {other:?}"),
    }
}

#[test]
fn flipped_header_byte_fails_the_header_checksum() {
    let mut bytes = sample_file();
    bytes[24] ^= 0x40; // a seed byte
    match TraceReader::new(Cursor::new(&bytes[..])) {
        Err(ReadTraceError::HeaderCorrupt(what)) => {
            assert!(what.contains("checksum"), "unexpected cause: {what}");
        }
        other => panic!("expected HeaderCorrupt, got {other:?}"),
    }
}

#[test]
fn truncated_file_fails_at_open_with_a_structured_error() {
    let bytes = sample_file();
    // Shorter than the fixed header.
    match TraceReader::new(Cursor::new(&bytes[..HEADER_LEN / 2])) {
        Err(ReadTraceError::HeaderCorrupt(what)) => {
            assert!(what.contains("header"), "unexpected cause: {what}");
        }
        other => panic!("expected HeaderCorrupt, got {other:?}"),
    }
    // Header intact but the directory is gone.
    match TraceReader::new(Cursor::new(&bytes[..HEADER_LEN + 16])) {
        Err(ReadTraceError::HeaderCorrupt(what)) => {
            assert!(what.contains("directory"), "unexpected cause: {what}");
        }
        other => panic!("expected HeaderCorrupt, got {other:?}"),
    }
}

#[test]
fn truncation_under_a_cached_header_names_the_chunk() {
    let bytes = sample_file();
    let header = TraceReader::new(Cursor::new(&bytes[..]))
        .expect("parse")
        .header()
        .clone();
    // The registry caches headers; the file shrinks underneath it (the
    // second chunk's bytes vanish). The read must name chunk 1.
    let cut = header.chunks[1].offset as usize + 4;
    let mut reader = TraceReader::from_parts(header, Cursor::new(&bytes[..cut]));
    let mut buf = Vec::new();
    reader.read_chunk(0, &mut buf).expect("chunk 0 is intact");
    match reader.read_chunk(1, &mut buf) {
        Err(ReadTraceError::ChunkTruncated { chunk }) => assert_eq!(chunk, 1),
        other => panic!("expected ChunkTruncated, got {other:?}"),
    }
}

#[test]
fn flipped_payload_byte_names_the_chunk() {
    let mut bytes = sample_file();
    let header = TraceReader::new(Cursor::new(&bytes[..]))
        .expect("parse")
        .header()
        .clone();
    let victim = header.chunks[1].offset as usize + 3;
    bytes[victim] ^= 0x10;
    let mut reader = TraceReader::new(Cursor::new(&bytes[..])).expect("header still parses");
    let mut buf = Vec::new();
    reader.read_chunk(0, &mut buf).expect("chunk 0 is intact");
    match reader.read_chunk(1, &mut buf) {
        Err(ReadTraceError::ChunkChecksum { chunk }) => assert_eq!(chunk, 1),
        other => panic!("expected ChunkChecksum, got {other:?}"),
    }
    match reader.validate() {
        Err(ReadTraceError::ChunkChecksum { chunk }) => assert_eq!(chunk, 1),
        other => panic!("validate must surface the same error, got {other:?}"),
    }
}

/// Replaces chunk 0's payload with `payload` (same length required) and
/// recomputes its trailing checksum, simulating a corrupted-but-
/// checksum-consistent chunk (e.g. written by a buggy tool).
fn patch_chunk0(bytes: &mut [u8], payload: &[u8]) {
    let header = TraceReader::new(Cursor::new(&bytes[..]))
        .expect("parse")
        .header()
        .clone();
    let entry = header.chunks[0];
    assert!(
        payload.len() <= entry.bytes as usize,
        "patch longer than chunk"
    );
    let start = entry.offset as usize;
    let end = start + entry.bytes as usize;
    bytes[start..start + payload.len()].copy_from_slice(payload);
    let sum = fxhash_bytes(&bytes[start..end]);
    bytes[end..end + 8].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn undecodable_payload_with_a_valid_checksum_is_chunk_corrupt() {
    let mut buf = Vec::new();

    // Reserved tag bits (kind = 3) in the first record.
    let mut bytes = sample_file();
    patch_chunk0(&mut bytes, &[0x03]);
    let mut reader = TraceReader::new(Cursor::new(&bytes[..])).expect("parse");
    match reader.read_chunk(0, &mut buf) {
        Err(ReadTraceError::ChunkCorrupt { chunk: 0, what }) => {
            assert!(what.contains("tag"), "unexpected cause: {what}");
        }
        other => panic!("expected ChunkCorrupt, got {other:?}"),
    }

    // An oversized varint (11 continuation bytes > 67 payload bits).
    let mut bytes = sample_file();
    patch_chunk0(&mut bytes, &[0xFF; 11]);
    let mut reader = TraceReader::new(Cursor::new(&bytes[..])).expect("parse");
    match reader.read_chunk(0, &mut buf) {
        Err(ReadTraceError::ChunkCorrupt { chunk: 0, what }) => {
            assert!(what.contains("varint"), "unexpected cause: {what}");
        }
        other => panic!("expected ChunkCorrupt, got {other:?}"),
    }
}

#[test]
fn corruption_errors_render_the_failing_chunk_index() {
    let e = ReadTraceError::ChunkChecksum { chunk: 17 };
    assert!(e.to_string().contains("17"));
    let e = ReadTraceError::ChunkTruncated { chunk: 3 };
    assert!(e.to_string().contains("3"));
    let e = ReadTraceError::ChunkCorrupt {
        chunk: 9,
        what: "x",
    };
    assert!(e.to_string().contains("9"));
}

#[test]
fn short_writes_surface_as_io_errors_not_panics() {
    let profile = AppProfile::video();
    let full = compile_bytes(&profile, 9, CHUNK_REFS);
    // Every prefix length that cuts the file short must produce a real
    // I/O error from compile (WriteZero via write_all), never a panic.
    for limit in [
        0,
        HEADER_LEN - 1,
        HEADER_LEN,
        full.len() / 2,
        full.len() - 1,
    ] {
        let err = binfmt::compile(ShortSeekWriter::new(limit), &profile, 9, CHUNK_REFS)
            .expect_err("short writer must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::WriteZero, "limit {limit}");
    }
    // At the exact full length the compile succeeds and round-trips.
    let mut w = ShortSeekWriter::new(full.len());
    binfmt::compile(&mut w, &profile, 9, CHUNK_REFS).expect("exact fit");
    assert_eq!(w.written(), &full[..]);
}

#[test]
fn stats_from_file_match_stats_from_generator() {
    let profile = AppProfile::music();
    let bytes = compile_bytes(&profile, 3, 2 * CHUNK_REFS);
    let mut reader = TraceReader::new(Cursor::new(&bytes[..])).expect("parse");
    let total = reader.header().total_refs as usize;

    let mut it = reader.accesses();
    let from_file = moca_trace::TraceStats::collect(&mut it, 64);
    it.finish().expect("clean stream");

    let from_gen =
        moca_trace::TraceStats::collect(TraceGenerator::new(&profile, 3).take(total), 64);
    assert_eq!(from_file, from_gen);
}
