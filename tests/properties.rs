//! Property-based tests (moca-testkit) on the core data structures and
//! cross-crate invariants.

use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};

use moca_testkit::{check, check_shrink, shrink_vec, Config, TestRng};
use moca_testkit::{require, require_eq, require_ne};

use moca::cache::{CacheGeometry, SetAssocCache, WayMask};
use moca::trace::binfmt::{self, TraceReader, TraceWriter, CHUNK_REFS};
use moca::trace::{AccessKind, AppProfile, MemoryAccess, Mode};

fn arb_mode(rng: &mut TestRng) -> Mode {
    *rng.pick(&[Mode::User, Mode::Kernel])
}

fn arb_kind(rng: &mut TestRng) -> AccessKind {
    *rng.pick(&[AccessKind::InstrFetch, AccessKind::Load, AccessKind::Store])
}

fn arb_access(rng: &mut TestRng) -> MemoryAccess {
    let (addr, pc) = (rng.next_u64(), rng.next_u64());
    let (kind, mode) = (arb_kind(rng), arb_mode(rng));
    MemoryAccess::new(addr, pc, kind, mode)
}

/// The chunked trace container round-trips arbitrary records exactly.
#[test]
fn binary_trace_roundtrip() {
    check_shrink(
        Config::cases(64),
        |rng| rng.vec(0, 300, arb_access),
        |v| shrink_vec(v),
        |trace| {
            let mut w = TraceWriter::create(Cursor::new(Vec::new()), 0, 0).expect("create");
            if !trace.is_empty() {
                w.write_chunk(trace).expect("write");
            }
            let bytes = w.finish().expect("finish").into_inner();
            let mut reader = TraceReader::new(Cursor::new(bytes)).expect("open");
            let mut accesses = reader.accesses();
            let back: Vec<MemoryAccess> = accesses.by_ref().collect();
            accesses.finish().expect("decode");
            require_eq!(&back, trace);
            Ok(())
        },
    );
}

/// WayMask set algebra: union/intersection/difference behave like sets
/// over 0..64.
#[test]
fn waymask_set_algebra() {
    check(
        Config::cases(64),
        |rng| (rng.next_u64(), rng.next_u64()),
        |&(a, b)| {
            let (ma, mb) = (WayMask::from_bits(a), WayMask::from_bits(b));
            require_eq!(ma.union(mb).bits(), a | b);
            require_eq!(ma.intersection(mb).bits(), a & b);
            require_eq!(ma.difference(mb).bits(), a & !b);
            require_eq!(ma.union(mb).count(), (a | b).count_ones());
            require_eq!(ma.is_disjoint(mb), a & b == 0);
            // Iteration visits exactly the set bits, in order.
            let ways: Vec<u32> = ma.iter().collect();
            require_eq!(ways.len() as u32, ma.count());
            for w in &ways {
                require!(ma.contains(*w));
            }
            require!(ways.windows(2).all(|w| w[0] < w[1]));
            Ok(())
        },
    );
}

/// Cache bookkeeping invariants hold for arbitrary access sequences
/// under LRU replacement: accesses = hits + misses, occupancy never
/// exceeds the mask capacity, and a line that just hit or filled is
/// resident.
#[test]
fn cache_bookkeeping_invariants() {
    check(
        Config::cases(64),
        |rng| {
            let lines = rng.vec(1, 500, |r| (r.range_u64(0, 4096), r.bool(), arb_mode(r)));
            (lines, rng.range_u32(1, 9))
        },
        |(lines, mask_ways)| {
            let geom = CacheGeometry::new(16 * 8 * 64, 8, 64).expect("valid"); // 16 sets, 8 ways
            let mut cache = SetAssocCache::new(geom);
            let mask = WayMask::first(*mask_ways);
            for (i, (line, write, mode)) in lines.iter().enumerate() {
                let res = cache.access(*line, *write, *mode, i as u64, mask);
                let view = cache
                    .lookup(*line, mask)
                    .and_then(|way| cache.block_at(line % geom.sets(), way))
                    .expect("line resident after access");
                require_eq!(view.line, *line);
                require!(mask.contains(res.way));
                if let Some(v) = res.victim {
                    require!(!res.hit, "victims only on misses");
                    require_ne!(v.line, *line);
                }
            }
            let stats = cache.stats();
            require_eq!(stats.accesses(), lines.len() as u64);
            require_eq!(stats.hits() + stats.misses(), lines.len() as u64);
            let capacity = geom.sets() * u64::from(*mask_ways);
            require!(cache.occupancy(mask) <= capacity);
            require_eq!(cache.occupancy(WayMask::first(8).difference(mask)), 0);
            // Fills = misses (write-allocate, every miss fills).
            let fills: u64 = Mode::ALL.iter().map(|m| stats.mode(*m).fills).sum();
            require_eq!(fills, stats.misses());
            Ok(())
        },
    );
}

/// Strict partition isolation: two disjoint masks never share lines, and
/// per-mask stats are independent of the other mask's traffic.
#[test]
fn partition_isolation() {
    check_shrink(
        Config::cases(64),
        |rng| rng.vec(1, 400, |r| (r.range_u64(0, 2048), r.bool(), r.bool())),
        |v| {
            shrink_vec(v)
                .into_iter()
                .filter(|c| !c.is_empty())
                .collect()
        },
        |ops| {
            let geom = CacheGeometry::new(16 * 8 * 64, 8, 64).expect("valid");
            let mut cache = SetAssocCache::new(geom);
            let left = WayMask::range(0, 4);
            let right = WayMask::range(4, 8);
            for (i, (line, write, use_left)) in ops.iter().enumerate() {
                let (mask, mode) = if *use_left {
                    (left, Mode::User)
                } else {
                    (right, Mode::Kernel)
                };
                let res = cache.access(*line, *write, mode, i as u64, mask);
                require!(mask.contains(res.way), "fill escaped its mask");
            }
            // No block in the left mask is owned by Kernel and vice versa.
            for (_set, way, view) in cache.iter_valid() {
                if left.contains(way) {
                    require_eq!(view.owner, Mode::User);
                } else {
                    require_eq!(view.owner, Mode::Kernel);
                }
            }
            // Cross-mode evictions are impossible under disjoint masks.
            require_eq!(cache.stats().cross_evictions, [0, 0]);
            Ok(())
        },
    );
}

/// A trace file cut short anywhere never panics the reader and never
/// yields a reference that was not written: whatever drains is a prefix
/// of the original trace. Opening the cut file fails or drains that
/// prefix; reading it through the directory parsed from the whole file
/// (a source truncated under a cached header) drains whole chunks and
/// errors exactly when the cut reaches into the chunk payloads.
#[test]
fn truncated_streams_are_safe() {
    check(
        Config::cases(64),
        |rng| {
            let full = rng.range_usize(0, 3) * CHUNK_REFS;
            let tail = rng.range_usize(1, 50);
            let len = full + tail;
            (rng.vec(len, len + 1, arb_access), rng.next_u64() as usize)
        },
        |(trace, cut)| {
            let mut w = TraceWriter::create(Cursor::new(Vec::new()), 0, 0).expect("create");
            for chunk in trace.chunks(CHUNK_REFS) {
                w.write_chunk(chunk).expect("write");
            }
            let bytes = w.finish().expect("finish").into_inner();
            let header = TraceReader::new(Cursor::new(&bytes[..]))
                .expect("open")
                .header()
                .clone();
            let payload_end = bytes.len() - (header.chunk_count() as usize * 8 + 8);
            let cut = cut % (bytes.len() + 1);
            let drain = |mut reader: TraceReader<Cursor<&[u8]>>| {
                let mut accesses = reader.accesses();
                let back: Vec<MemoryAccess> = accesses.by_ref().collect();
                (back, accesses.finish())
            };
            let truncated = catch_unwind(AssertUnwindSafe(|| {
                let opened = TraceReader::new(Cursor::new(&bytes[..cut])).ok().map(drain);
                let cached = drain(TraceReader::from_parts(
                    header.clone(),
                    Cursor::new(&bytes[..cut]),
                ));
                (opened, cached)
            }));
            let (opened, (back, finished)) =
                truncated.map_err(|_| "the decoder panicked".to_string())?;
            if let Some((back, finished)) = opened {
                require!(back.len() <= trace.len());
                require_eq!(&back[..], &trace[..back.len()]);
                require!(finished.is_err() || back.len() == trace.len());
            }
            require!(back.len() <= trace.len());
            require_eq!(&back[..], &trace[..back.len()]);
            require_eq!(finished.is_ok(), cut >= payload_end);
            require_eq!(back.len() == trace.len(), cut >= payload_end);
            Ok(())
        },
    );
}

/// One byte-level mutation of a valid trace file. Positions wrap
/// modulo the current length, so every mutation applies to any file.
#[derive(Debug, Clone)]
enum Mutation {
    /// XOR one byte with a non-zero mask.
    Flip { at: usize, mask: u8 },
    /// Cut the file to `len % (current length + 1)` bytes.
    Truncate { len: usize },
    /// Copy `len` bytes from `from` and insert them at `at`.
    Splice { from: usize, len: usize, at: usize },
    /// Append arbitrary bytes.
    Append(Vec<u8>),
}

fn arb_mutation(rng: &mut TestRng) -> Mutation {
    let at = rng.next_u64() as usize;
    match rng.range_u32(0, 4) {
        0 => Mutation::Flip {
            at,
            mask: rng.range_u32(1, 256) as u8,
        },
        1 => Mutation::Truncate { len: at },
        2 => Mutation::Splice {
            from: rng.next_u64() as usize,
            len: rng.range_usize(1, 128),
            at,
        },
        _ => Mutation::Append(rng.vec(1, 64, |r| r.next_u64() as u8)),
    }
}

fn mutate(mut bytes: Vec<u8>, mutations: &[Mutation]) -> Vec<u8> {
    for m in mutations {
        match m {
            Mutation::Flip { at, mask } => {
                if !bytes.is_empty() {
                    let i = at % bytes.len();
                    bytes[i] ^= mask;
                }
            }
            Mutation::Truncate { len } => bytes.truncate(len % (bytes.len() + 1)),
            Mutation::Splice { from, len, at } => {
                if !bytes.is_empty() {
                    let from = from % bytes.len();
                    let piece = bytes[from..(from + len).min(bytes.len())].to_vec();
                    let at = at % (bytes.len() + 1);
                    bytes.splice(at..at, piece);
                }
            }
            Mutation::Append(garbage) => bytes.extend_from_slice(garbage),
        }
    }
    bytes
}

/// The trace file decoder never panics on a mutated file: opening,
/// validating and draining a small compiled `.mtrc` after byte flips,
/// truncation, splices and appended garbage yields values or
/// `ReadTraceError`s. A file that validates also drains completely,
/// to the reference count the validation reported.
#[test]
fn binary_decoder_is_panic_free() {
    let mut file = Cursor::new(Vec::new());
    binfmt::compile(&mut file, &AppProfile::music(), 3, 2 * CHUNK_REFS).expect("compile");
    let file = file.into_inner();
    check_shrink(
        Config::cases(256),
        |rng| rng.vec(1, 4, arb_mutation),
        |v| {
            shrink_vec(v)
                .into_iter()
                .filter(|m| !m.is_empty())
                .collect()
        },
        |mutations| {
            let bytes = mutate(file.clone(), mutations);
            let decoded = catch_unwind(AssertUnwindSafe(|| {
                let Ok(mut reader) = TraceReader::new(Cursor::new(bytes)) else {
                    return Ok(());
                };
                let validated = reader.validate();
                let mut accesses = reader.accesses();
                let drained = accesses.by_ref().count() as u64;
                match (validated, accesses.finish()) {
                    (Ok(summary), Ok(())) if summary.refs == drained => Ok(()),
                    (Ok(summary), finished) => Err(format!(
                        "validated {} refs, drained {drained} ({finished:?})",
                        summary.refs
                    )),
                    (Err(_), _) => Ok(()),
                }
            }));
            decoded.map_err(|_| "the decoder panicked".to_string())?
        },
    );
}
