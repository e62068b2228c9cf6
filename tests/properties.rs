//! Property-based tests (moca-testkit) on the core data structures and
//! cross-crate invariants.

use moca_testkit::{check, check_shrink, shrink_vec, Config, TestRng};
use moca_testkit::{require, require_eq, require_ne};

use moca::cache::{CacheGeometry, ReplacementPolicy, SetAssocCache, WayMask};
use moca::trace::io::{read_binary, read_text, write_binary, write_text};
use moca::trace::{AccessKind, MemoryAccess, Mode};

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

/// Binary trace serialization round-trips arbitrary records exactly.
#[test]
fn binary_trace_roundtrip() {
    check_shrink(
        Config::cases(64),
        |rng| rng.vec(0, 300, arb_access),
        |v| shrink_vec(v),
        |trace| {
            let mut buf = Vec::new();
            write_binary(&mut buf, trace.iter().copied()).expect("write");
            let back = read_binary(buf.as_slice()).expect("read");
            require_eq!(&back, trace);
            Ok(())
        },
    );
}

/// Text trace serialization round-trips arbitrary records exactly.
#[test]
fn text_trace_roundtrip() {
    check_shrink(
        Config::cases(64),
        |rng| rng.vec(0, 200, arb_access),
        |v| shrink_vec(v),
        |trace| {
            let mut buf = Vec::new();
            write_text(&mut buf, trace.iter().copied()).expect("write");
            let back = read_text(buf.as_slice()).expect("read");
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
/// under every replacement policy: accesses = hits + misses, occupancy
/// never exceeds the mask capacity, and a line that just hit or filled
/// is resident.
#[test]
fn cache_bookkeeping_invariants() {
    let policies = [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Random { seed: 1 },
        ReplacementPolicy::Nru,
        ReplacementPolicy::TreePlru,
        ReplacementPolicy::Srrip,
    ];
    check(
        Config::cases(64),
        |rng| {
            let lines = rng.vec(1, 500, |r| (r.range_u64(0, 4096), r.bool(), arb_mode(r)));
            (lines, rng.range_usize(0, 6), rng.range_u32(1, 9))
        },
        |(lines, policy_idx, mask_ways)| {
            let policy = policies[*policy_idx];
            let geom = CacheGeometry::new(16 * 8 * 64, 8, 64).expect("valid"); // 16 sets, 8 ways
            let mut cache = SetAssocCache::new(geom, policy);
            let mask = WayMask::first(*mask_ways);
            for (i, (line, write, mode)) in lines.iter().enumerate() {
                let res = cache.access(*line, *write, *mode, i as u64, mask);
                let view = cache
                    .probe(*line, mask)
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
            let mut cache = SetAssocCache::new(geom, ReplacementPolicy::Lru);
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

/// The binary trace decoder never panics on arbitrary input: it either
/// parses records or returns a structured error.
#[test]
fn binary_decoder_is_panic_free() {
    check_shrink(
        Config::cases(128),
        |rng| rng.vec(0, 600, |r| r.next_u64() as u8),
        |v| shrink_vec(v),
        |bytes| {
            let _ = read_binary(bytes.as_slice());
            Ok(())
        },
    );
}

/// Same for the text decoder on arbitrary (possibly non-UTF-8-clean)
/// line input.
#[test]
fn text_decoder_is_panic_free() {
    check(
        Config::cases(128),
        |rng| {
            // Arbitrary unicode scalar values, newlines included.
            rng.vec(0, 300, |r| loop {
                if let Some(c) = char::from_u32(r.next_u64() as u32 % 0x11_0000) {
                    return c;
                }
            })
            .into_iter()
            .collect::<String>()
        },
        |s| {
            let _ = read_text(s.as_bytes());
            Ok(())
        },
    );
}

/// A valid header followed by garbage still never panics, and a
/// truncated valid stream yields a prefix or an error, never junk
/// records beyond the written count.
#[test]
fn truncated_streams_are_safe() {
    check(
        Config::cases(128),
        |rng| (rng.vec(1, 50, arb_access), rng.range_usize(0, 400)),
        |(trace, cut)| {
            let mut buf = Vec::new();
            write_binary(&mut buf, trace.iter().copied()).expect("write");
            let cut = (*cut).min(buf.len());
            if let Ok(records) = read_binary(&buf[..cut]) {
                require!(records.len() <= trace.len());
                require_eq!(&records[..], &trace[..records.len()]);
            }
            Ok(())
        },
    );
}
