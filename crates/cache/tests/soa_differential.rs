//! Differential property suite: the structure-of-arrays cache engine
//! against a retained array-of-structs reference model.
//!
//! The production [`SetAssocCache`] stores block state split into hot
//! (tags, signatures, valid/dirty bitmasks) and cold (metadata records)
//! arrays with SWAR scans and a fused LRU victim scan. This suite keeps a
//! deliberately naive one-struct-per-block model with straightforward
//! per-way loops and checks — over randomized geometries, way masks, and
//! operation sequences — that the two produce the identical
//! [`AccessResult`] / [`BlockView`] stream, the identical lookup
//! answers and resident-block views, and the identical final
//! [`CacheStats`] and occupancy.
//! Accesses are driven both whole (`access`) and split into the lookup,
//! hit and fill primitives the L2 engines call, including fills steered
//! into a narrower mask than the lookup's.
//!
//! Way counts span 1..=64, so both lookup scans are covered: the direct
//! tag compare (at most 8 ways) and the signature scan of wider sets,
//! whose rows end in padding when the count is not a multiple of eight.
//! Part of each line universe is built from distinct tags that share a
//! signature, so the scan's false positives reach the full-tag check.

use moca_cache::{AccessResult, BlockView, CacheGeometry, CacheStats, SetAssocCache, WayMask};
use moca_testkit::{check, require, require_eq, Config, TestRng};
use moca_trace::Mode;

// ---------------------------------------------------------------------------
// Reference LRU: per-block stamps, plain loops.
// ---------------------------------------------------------------------------

/// LRU as per-block stamps drawn from one clock that ticks on every hit
/// and fill; the victim is the allowed way with the smallest stamp
/// (`min_by_key` keeps the lowest way on a tie).
#[derive(Debug, Clone)]
struct RefPolicy {
    stamps: Vec<u64>,
    clock: u64,
}

impl RefPolicy {
    fn new(sets: u64, ways: u32) -> Self {
        RefPolicy {
            stamps: vec![0; sets as usize * ways as usize],
            clock: 0,
        }
    }

    /// Records a hit on, or a fill into, `(set, way)`.
    fn touch(&mut self, set: u64, ways: u32, way: u32) {
        self.clock += 1;
        self.stamps[set as usize * ways as usize + way as usize] = self.clock;
    }

    fn victim(&self, set: u64, ways: u32, allowed: WayMask) -> u32 {
        let base = set as usize * ways as usize;
        allowed
            .iter()
            .min_by_key(|&w| self.stamps[base + w as usize])
            .expect("non-empty mask")
    }
}

// ---------------------------------------------------------------------------
// Reference cache: one struct per block.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, Default)]
struct RefBlock {
    valid: bool,
    dirty: bool,
    tag: u64,
    owner_kernel: bool,
    inserted_at: u64,
    last_touch: u64,
    last_write: u64,
    access_count: u64,
}

#[derive(Debug, Clone)]
struct RefCache {
    sets: u64,
    ways: u32,
    set_mask: u64,
    tag_shift: u32,
    blocks: Vec<RefBlock>,
    policy: RefPolicy,
    stats: CacheStats,
}

impl RefCache {
    fn new(sets: u64, ways: u32) -> Self {
        RefCache {
            sets,
            ways,
            set_mask: sets - 1,
            tag_shift: sets.trailing_zeros(),
            blocks: vec![RefBlock::default(); sets as usize * ways as usize],
            policy: RefPolicy::new(sets, ways),
            stats: CacheStats::new(),
        }
    }

    fn idx(&self, set: u64, way: u32) -> usize {
        set as usize * self.ways as usize + way as usize
    }

    fn owner(b: &RefBlock) -> Mode {
        if b.owner_kernel {
            Mode::Kernel
        } else {
            Mode::User
        }
    }

    fn view(&self, set: u64, way: u32) -> BlockView {
        let b = &self.blocks[self.idx(set, way)];
        BlockView {
            line: (b.tag << self.tag_shift) | set,
            dirty: b.dirty,
            owner: Self::owner(b),
            inserted_at: b.inserted_at,
            last_touch: b.last_touch,
            last_write: b.last_write,
            access_count: b.access_count,
        }
    }

    fn access(
        &mut self,
        line: u64,
        write: bool,
        mode: Mode,
        now: u64,
        mask: WayMask,
    ) -> AccessResult {
        let set = line & self.set_mask;
        let tag = line >> self.tag_shift;
        for way in mask.iter() {
            let i = self.idx(set, way);
            if self.blocks[i].valid && self.blocks[i].tag == tag {
                let b = &mut self.blocks[i];
                let (prev_touch, prev_write) = (b.last_touch, b.last_write);
                if write {
                    b.dirty = true;
                    b.last_write = now;
                }
                b.last_touch = now;
                b.access_count += 1;
                self.policy.touch(set, self.ways, way);
                self.stats.by_mode[mode.index()].hits += 1;
                self.stats.by_mode[mode.index()].writes += u64::from(write);
                return AccessResult {
                    hit: true,
                    way,
                    victim: None,
                    prev_touch,
                    prev_write,
                };
            }
        }
        self.fill(line, write, mode, now, mask)
    }

    /// The miss half of `access`: fills `line`, absent from `mask`, into
    /// the first invalid way of `mask`, else its LRU way.
    fn fill(
        &mut self,
        line: u64,
        write: bool,
        mode: Mode,
        now: u64,
        mask: WayMask,
    ) -> AccessResult {
        let set = line & self.set_mask;
        let tag = line >> self.tag_shift;
        let empty = mask.iter().find(|&w| !self.blocks[self.idx(set, w)].valid);
        let (way, victim) = match empty {
            Some(w) => (w, None),
            None => {
                let w = self.policy.victim(set, self.ways, mask);
                let ev = self.view(set, w);
                if ev.owner == mode {
                    self.stats.same_evictions[ev.owner.index()] += 1;
                } else {
                    self.stats.cross_evictions[ev.owner.index()] += 1;
                }
                (w, Some(ev))
            }
        };
        self.policy.touch(set, self.ways, way);
        let i = self.idx(set, way);
        self.blocks[i] = RefBlock {
            valid: true,
            dirty: write,
            tag,
            owner_kernel: mode == Mode::Kernel,
            inserted_at: now,
            last_touch: now,
            last_write: now,
            access_count: 1,
        };
        let c = &mut self.stats.by_mode[mode.index()];
        c.misses += 1;
        c.fills += 1;
        c.writes += u64::from(write);
        c.writebacks += u64::from(victim.is_some_and(|v| v.dirty));
        AccessResult {
            hit: false,
            way,
            victim,
            prev_touch: 0,
            prev_write: 0,
        }
    }

    fn lookup(&self, line: u64, mask: WayMask) -> Option<u32> {
        let set = line & self.set_mask;
        let tag = line >> self.tag_shift;
        mask.iter().find(|&way| {
            let b = &self.blocks[self.idx(set, way)];
            b.valid && b.tag == tag
        })
    }

    fn probe(&self, line: u64, mask: WayMask) -> Option<BlockView> {
        self.lookup(line, mask)
            .map(|way| self.view(line & self.set_mask, way))
    }

    fn invalidate_line(&mut self, line: u64, mask: WayMask) -> Option<BlockView> {
        let set = line & self.set_mask;
        let tag = line >> self.tag_shift;
        for way in mask.iter() {
            let i = self.idx(set, way);
            if self.blocks[i].valid && self.blocks[i].tag == tag {
                let ev = self.view(set, way);
                self.blocks[i].valid = false;
                self.stats.invalidations += 1;
                return Some(ev);
            }
        }
        None
    }

    fn occupancy(&self, mask: WayMask) -> u64 {
        (0..self.sets)
            .flat_map(|set| mask.iter().map(move |w| (set, w)))
            .filter(|&(set, w)| w < self.ways && self.blocks[self.idx(set, w)].valid)
            .count() as u64
    }
}

// ---------------------------------------------------------------------------
// Case generation.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Op {
    Access {
        line: u64,
        write: bool,
        kernel: bool,
        mask_pick: u8,
    },
    /// `lookup`, then `hit_at` the way it found or `fill` on a miss: the
    /// L2 request path's one-scan split of `access`.
    Split {
        line: u64,
        write: bool,
        kernel: bool,
        mask_pick: u8,
    },
    /// `lookup` over every way, and on a miss a `fill` into one mask: the
    /// hybrid L2's steered fill.
    SteeredFill {
        line: u64,
        write: bool,
        kernel: bool,
        mask_pick: u8,
    },
    /// `lookup`, then `block_at` the way it found: a resident block's
    /// view.
    Probe { line: u64, mask_pick: u8 },
    /// `lookup`, then `invalidate_at` the way it found: lazy expiry.
    Invalidate { line: u64, mask_pick: u8 },
}

#[derive(Debug, Clone)]
struct Case {
    sets: u64,
    ways: u32,
    /// Three reusable non-empty masks the ops pick from; mixing masks in
    /// one run exercises partition-style overlapping footprints.
    masks: [WayMask; 3],
    ops: Vec<Op>,
}

fn arb_mask(rng: &mut TestRng, ways: u32) -> WayMask {
    let full = WayMask::first(ways);
    if ways == 1 || rng.range_usize(0, 3) == 0 {
        return full;
    }
    // A random non-empty subset of the legal ways.
    let m = WayMask::from_bits(rng.next_u64()).intersection(full);
    if m.is_empty() {
        full
    } else {
        m
    }
}

/// Way counts either side of the scans' 8-way boundary and of whole
/// signature words; half of the cases draw from these, half uniformly
/// from 1..=64.
const EDGE_WAYS: [u32; 11] = [1, 2, 4, 8, 9, 10, 12, 16, 17, 30, 64];

/// The signature `SetAssocCache` files a tag under (`tag ^ tag >> 8`,
/// low byte).
fn signature(tag: u64) -> u8 {
    (tag ^ (tag >> 8)) as u8
}

/// A line of the case's universe: a plain line of a universe a few times
/// the capacity (conflicts and evictions without every access a cold
/// miss), or one whose tag differs from such a line's but shares its
/// signature.
fn arb_line(r: &mut TestRng, sets: u64, ways: u32) -> u64 {
    let universe = sets * u64::from(ways) * 3;
    let line = r.range_u64(0, universe);
    if r.bool() {
        return line;
    }
    let (set, tag) = (line % sets, line / sets);
    // XOR-ing one byte value into both low bytes, or flipping a bit above
    // them, keeps the signature.
    let alias = match r.range_u32(0, 3) {
        0 => tag ^ 0x0101,
        1 => tag ^ (0x0101 * r.range_u64(2, 256)),
        _ => tag ^ (1 << r.range_u32(16, 40)),
    };
    assert!(alias != tag && signature(alias) == signature(tag));
    alias * sets + set
}

fn arb_case(rng: &mut TestRng) -> Case {
    let sets = 1u64 << rng.range_u32(1, 5); // 2..16 sets
    let ways = if rng.bool() {
        *rng.pick(&EDGE_WAYS)
    } else {
        rng.range_u32(1, 65)
    };
    let masks = [
        arb_mask(rng, ways),
        arb_mask(rng, ways),
        arb_mask(rng, ways),
    ];
    // Enough operations per set to fill the widest sets and evict.
    let max_ops = 400.max(sets as usize * ways as usize * 6);
    let ops = rng.vec(50, max_ops, |r| {
        let line = arb_line(r, sets, ways);
        let mask_pick = r.range_u64(0, 3) as u8;
        let (write, kernel) = (r.bool(), r.bool());
        match r.range_usize(0, 10) {
            0 => Op::Probe { line, mask_pick },
            1 => Op::Invalidate { line, mask_pick },
            2..=3 => Op::Split {
                line,
                write,
                kernel,
                mask_pick,
            },
            4 => Op::SteeredFill {
                line,
                write,
                kernel,
                mask_pick,
            },
            _ => Op::Access {
                line,
                write,
                kernel,
                mask_pick,
            },
        }
    });
    Case {
        sets,
        ways,
        masks,
        ops,
    }
}

// ---------------------------------------------------------------------------
// The differential property.
// ---------------------------------------------------------------------------

#[test]
fn soa_engine_matches_reference_model() {
    check(Config::cases(96), arb_case, |case| {
        let geom = CacheGeometry::new(case.sets * u64::from(case.ways) * 64, case.ways, 64)
            .expect("generated geometry is valid");
        let mut soa = SetAssocCache::new(geom);
        let mut reference = RefCache::new(case.sets, case.ways);

        for (i, op) in case.ops.iter().enumerate() {
            let now = i as u64;
            match *op {
                Op::Access {
                    line,
                    write,
                    kernel,
                    mask_pick,
                } => {
                    let mode = if kernel { Mode::Kernel } else { Mode::User };
                    let mask = case.masks[mask_pick as usize];
                    let got = soa.access(line, write, mode, now, mask);
                    let want = reference.access(line, write, mode, now, mask);
                    require_eq!(got, want, "access #{i} diverged");
                }
                Op::Probe { line, mask_pick } => {
                    let mask = case.masks[mask_pick as usize];
                    let set = line & reference.set_mask;
                    require_eq!(
                        soa.lookup(line, mask)
                            .and_then(|way| soa.block_at(set, way)),
                        reference.probe(line, mask),
                        "probe #{i} diverged"
                    );
                }
                Op::Split {
                    line,
                    write,
                    kernel,
                    mask_pick,
                } => {
                    let mode = if kernel { Mode::Kernel } else { Mode::User };
                    let mask = case.masks[mask_pick as usize];
                    let found = soa.lookup(line, mask);
                    require_eq!(found, reference.lookup(line, mask), "lookup #{i} diverged");
                    let set = line & reference.set_mask;
                    let got = match found {
                        Some(way) => {
                            let b = &reference.blocks[reference.idx(set, way)];
                            require_eq!(soa.last_write_at(set, way), b.last_write);
                            soa.hit_at(set, way, write, mode, now)
                        }
                        None => soa.fill(line, write, mode, now, mask),
                    };
                    let want = reference.access(line, write, mode, now, mask);
                    require_eq!(got, want, "split access #{i} diverged");
                }
                Op::SteeredFill {
                    line,
                    write,
                    kernel,
                    mask_pick,
                } => {
                    let mode = if kernel { Mode::Kernel } else { Mode::User };
                    let all = WayMask::first(case.ways);
                    let found = soa.lookup(line, all);
                    require_eq!(found, reference.lookup(line, all), "lookup #{i} diverged");
                    if found.is_none() {
                        let mask = case.masks[mask_pick as usize];
                        let got = soa.fill(line, write, mode, now, mask);
                        let want = reference.fill(line, write, mode, now, mask);
                        require_eq!(got, want, "steered fill #{i} diverged");
                    }
                }
                Op::Invalidate { line, mask_pick } => {
                    let mask = case.masks[mask_pick as usize];
                    let set = line & reference.set_mask;
                    require_eq!(
                        soa.lookup(line, mask)
                            .and_then(|way| soa.invalidate_at(set, way)),
                        reference.invalidate_line(line, mask),
                        "invalidate #{i} diverged"
                    );
                }
            }
        }

        require_eq!(*soa.stats(), reference.stats, "final stats diverged");
        for mask in case.masks {
            require_eq!(soa.occupancy(mask), reference.occupancy(mask));
        }
        // Every resident block agrees in both directions: the SoA view of
        // each valid slot matches the reference's, and the counts match,
        // so neither holds blocks the other lacks.
        let mut soa_valid = 0u64;
        for (set, way, view) in soa.iter_valid() {
            soa_valid += 1;
            require!(
                reference.blocks[reference.idx(set, way)].valid,
                "slot ({set},{way}) valid only in the SoA engine"
            );
            require_eq!(
                view,
                reference.view(set, way),
                "slot ({set},{way}) metadata diverged"
            );
        }
        require_eq!(soa_valid, reference.occupancy(WayMask::first(case.ways)));
        Ok(())
    });
}

/// The same differential run driven with a single fixed mask per case,
/// shaped like the paper's partitioned workloads: two disjoint segment
/// masks with each mode confined to its own segment.
#[test]
fn soa_engine_matches_reference_under_partitioning() {
    check(
        Config::cases(48),
        |rng| {
            let sets = 1u64 << rng.range_u32(1, 4);
            let ways = *rng.pick(&[4, 8, 12, 16, 30]);
            let split = rng.range_u32(1, ways);
            let accesses = rng.vec(100, 400, |r| (arb_line(r, sets, ways), r.bool(), r.bool()));
            (sets, ways, split, accesses)
        },
        |&(sets, ways, split, ref accesses)| {
            let geom = CacheGeometry::new(sets * u64::from(ways) * 64, ways, 64)
                .expect("generated geometry is valid");
            let user = WayMask::range(0, split);
            let kernel = WayMask::range(split, ways);
            let mut soa = SetAssocCache::new(geom);
            let mut reference = RefCache::new(sets, ways);
            for (i, &(line, write, is_kernel)) in accesses.iter().enumerate() {
                let (mode, mask) = if is_kernel {
                    (Mode::Kernel, kernel)
                } else {
                    (Mode::User, user)
                };
                let got = soa.access(line, write, mode, i as u64, mask);
                let want = reference.access(line, write, mode, i as u64, mask);
                require_eq!(got, want, "access #{i} diverged");
            }
            require_eq!(*soa.stats(), reference.stats);
            // Partitioned segments never cross-evict.
            require_eq!(soa.stats().cross_evictions, [0, 0]);
            Ok(())
        },
    );
}
