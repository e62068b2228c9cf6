//! Replacement policies.
//!
//! All policies operate under a [`WayMask`]: the victim is always chosen
//! among *allowed* ways only, which is what makes way-partitioning and
//! way power-gating composable with any policy.

use crate::config::WayMask;

/// Replacement policy selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplacementPolicy {
    /// True least-recently-used (per-way timestamps).
    #[default]
    Lru,
    /// First-in first-out (fill-time timestamps).
    Fifo,
    /// Pseudo-random (xorshift), deterministic per seed.
    Random {
        /// Seed of the internal xorshift generator.
        seed: u64,
    },
    /// Not-recently-used (single reference bit per way).
    Nru,
    /// Tree pseudo-LRU. Requires power-of-two associativity.
    TreePlru,
    /// Static re-reference interval prediction (2-bit RRPV).
    Srrip,
}

/// Runtime replacement state for a whole cache.
#[derive(Debug, Clone)]
pub(crate) enum ReplacementState {
    Lru {
        stamps: Vec<u64>,
        clock: u64,
    },
    Fifo {
        stamps: Vec<u64>,
        clock: u64,
    },
    Random {
        state: u64,
    },
    Nru {
        referenced: Vec<bool>,
    },
    TreePlru {
        /// One word per set holding the `ways - 1` tree-node bits (node
        /// `i` is bit `i`), so a whole tree walk runs on a register with
        /// a single load and store.
        words: Vec<u64>,
        ways: u32,
    },
    Srrip {
        rrpv: Vec<u8>,
    },
}

/// Maximum RRPV value for the 2-bit SRRIP implementation.
const RRPV_MAX: u8 = 3;
/// Insertion RRPV ("long re-reference" prediction).
const RRPV_INSERT: u8 = 2;

impl ReplacementState {
    /// Builds state for a cache of `sets * ways` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `TreePlru` is requested with non-power-of-two `ways`.
    pub(crate) fn new(policy: ReplacementPolicy, sets: u64, ways: u32) -> Self {
        let n = (sets as usize) * (ways as usize);
        match policy {
            ReplacementPolicy::Lru => ReplacementState::Lru {
                stamps: vec![0; n],
                clock: 0,
            },
            ReplacementPolicy::Fifo => ReplacementState::Fifo {
                stamps: vec![0; n],
                clock: 0,
            },
            ReplacementPolicy::Random { seed } => ReplacementState::Random {
                state: seed | 1, // xorshift must not start at zero
            },
            ReplacementPolicy::Nru => ReplacementState::Nru {
                referenced: vec![false; n],
            },
            ReplacementPolicy::TreePlru => {
                assert!(
                    ways.is_power_of_two(),
                    "tree PLRU requires power-of-two associativity, got {ways}"
                );
                ReplacementState::TreePlru {
                    words: vec![0; sets as usize],
                    ways,
                }
            }
            ReplacementPolicy::Srrip => ReplacementState::Srrip {
                rrpv: vec![RRPV_MAX; n],
            },
        }
    }

    /// Heap bytes held by the per-block (or per-set) state.
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            ReplacementState::Lru { stamps, .. } | ReplacementState::Fifo { stamps, .. } => {
                stamps.capacity() * std::mem::size_of::<u64>()
            }
            ReplacementState::Random { .. } => 0,
            ReplacementState::Nru { referenced } => referenced.capacity(),
            ReplacementState::TreePlru { words, .. } => {
                words.capacity() * std::mem::size_of::<u64>()
            }
            ReplacementState::Srrip { rrpv } => rrpv.capacity(),
        }
    }

    #[inline]
    fn idx(set: u64, ways: u32, way: u32) -> usize {
        set as usize * ways as usize + way as usize
    }

    /// Records a hit on `(set, way)`.
    #[inline]
    pub(crate) fn on_hit(&mut self, set: u64, ways: u32, way: u32) {
        match self {
            ReplacementState::Lru { stamps, clock } => {
                *clock += 1;
                stamps[Self::idx(set, ways, way)] = *clock;
            }
            ReplacementState::Fifo { .. } | ReplacementState::Random { .. } => {}
            ReplacementState::Nru { referenced } => {
                referenced[Self::idx(set, ways, way)] = true;
            }
            ReplacementState::TreePlru {
                words,
                ways: tree_ways,
            } => {
                plru_touch(&mut words[set as usize], *tree_ways, way);
            }
            ReplacementState::Srrip { rrpv } => {
                rrpv[Self::idx(set, ways, way)] = 0;
            }
        }
    }

    /// Records a fill into `(set, way)`.
    #[inline]
    pub(crate) fn on_fill(&mut self, set: u64, ways: u32, way: u32) {
        match self {
            ReplacementState::Lru { stamps, clock } | ReplacementState::Fifo { stamps, clock } => {
                *clock += 1;
                stamps[Self::idx(set, ways, way)] = *clock;
            }
            ReplacementState::Random { .. } => {}
            ReplacementState::Nru { referenced } => {
                referenced[Self::idx(set, ways, way)] = true;
            }
            ReplacementState::TreePlru {
                words,
                ways: tree_ways,
            } => {
                plru_touch(&mut words[set as usize], *tree_ways, way);
            }
            ReplacementState::Srrip { rrpv } => {
                rrpv[Self::idx(set, ways, way)] = RRPV_INSERT;
            }
        }
    }

    /// Chooses a victim among `allowed` ways of `set`, all of which are
    /// assumed valid.
    ///
    /// The hot path uses [`ReplacementState::evict_and_fill`] instead;
    /// this split form is kept as the reference the fused version is
    /// tested against.
    ///
    /// # Panics
    ///
    /// Panics if `allowed` is empty.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn victim(&mut self, set: u64, ways: u32, allowed: WayMask) -> u32 {
        assert!(!allowed.is_empty(), "cannot choose a victim from no ways");
        match self {
            ReplacementState::Lru { stamps, .. } | ReplacementState::Fifo { stamps, .. } => allowed
                .iter()
                .min_by_key(|&w| stamps[Self::idx(set, ways, w)])
                .expect("allowed is non-empty"),
            ReplacementState::Random { state } => {
                // xorshift64
                let mut x = *state;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *state = x;
                let nth = (x % u64::from(allowed.count())) as u32;
                allowed.iter().nth(nth as usize).expect("nth < count")
            }
            ReplacementState::Nru { referenced } => {
                if let Some(w) = allowed
                    .iter()
                    .find(|&w| !referenced[Self::idx(set, ways, w)])
                {
                    return w;
                }
                // All referenced: clear and take the lowest.
                for w in allowed.iter() {
                    referenced[Self::idx(set, ways, w)] = false;
                }
                allowed.lowest().expect("non-empty")
            }
            ReplacementState::TreePlru {
                words,
                ways: tree_ways,
            } => plru_victim(words[set as usize], *tree_ways, allowed),
            ReplacementState::Srrip { rrpv } => loop {
                if let Some(w) = allowed
                    .iter()
                    .find(|&w| rrpv[Self::idx(set, ways, w)] >= RRPV_MAX)
                {
                    return w;
                }
                for w in allowed.iter() {
                    rrpv[Self::idx(set, ways, w)] += 1;
                }
            },
        }
    }

    /// Chooses a victim and records the replacing fill in one dispatch —
    /// the eviction path of [`SetAssocCache::access`] resolves the policy
    /// `match` once instead of twice per miss.
    ///
    /// Behaviourally identical to `victim` followed by `on_fill` on the
    /// returned way.
    ///
    /// # Panics
    ///
    /// Panics if `allowed` is empty.
    ///
    /// [`SetAssocCache::access`]: crate::SetAssocCache::access
    #[inline]
    pub(crate) fn evict_and_fill(&mut self, set: u64, ways: u32, allowed: WayMask) -> u32 {
        assert!(!allowed.is_empty(), "cannot choose a victim from no ways");
        let base = set as usize * ways as usize;
        match self {
            ReplacementState::Lru { stamps, clock } | ReplacementState::Fifo { stamps, clock } => {
                let stamps = &mut stamps[base..base + ways as usize];
                let mut best = u64::MAX;
                let mut w = 0u32;
                // Strict `<` keeps the lowest way on stamp ties in both
                // loops, matching `min_by_key` in the reference `victim`.
                let abits = allowed.bits();
                let full = if ways >= 64 {
                    u64::MAX
                } else {
                    (1 << ways) - 1
                };
                if abits & full == full {
                    // Unrestricted mask: a linear min-reduction the
                    // compiler can vectorize.
                    for (i, &s) in stamps.iter().enumerate() {
                        if s < best {
                            best = s;
                            w = i as u32;
                        }
                    }
                } else {
                    let mut bits = abits;
                    while bits != 0 {
                        let i = bits.trailing_zeros();
                        let s = stamps[i as usize];
                        if s < best {
                            best = s;
                            w = i;
                        }
                        bits &= bits - 1;
                    }
                }
                *clock += 1;
                stamps[w as usize] = *clock;
                w
            }
            ReplacementState::Random { state } => {
                let mut x = *state;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *state = x;
                let nth = (x % u64::from(allowed.count())) as u32;
                allowed.iter().nth(nth as usize).expect("nth < count")
            }
            ReplacementState::Nru { referenced } => {
                let referenced = &mut referenced[base..base + ways as usize];
                let mut bits = allowed.bits();
                let w = loop {
                    if bits == 0 {
                        // All referenced: clear and take the lowest.
                        for w in allowed.iter() {
                            referenced[w as usize] = false;
                        }
                        break allowed.lowest().expect("non-empty");
                    }
                    let i = bits.trailing_zeros();
                    if !referenced[i as usize] {
                        break i;
                    }
                    bits &= bits - 1;
                };
                referenced[w as usize] = true;
                w
            }
            ReplacementState::TreePlru {
                words,
                ways: tree_ways,
            } => {
                let ways = *tree_ways;
                let full = if ways >= 64 {
                    u64::MAX
                } else {
                    (1 << ways) - 1
                };
                let word = &mut words[set as usize];
                if ways >= 2 && allowed.bits() & full == full {
                    // Unrestricted mask: the touch path is the victim
                    // path, so one combined register walk flips each node
                    // as it descends instead of walking the tree twice.
                    let mut x = *word;
                    let mut node = 0u32;
                    let mut lo = 0u32;
                    let mut size = ways;
                    while size > 1 {
                        let half = size / 2;
                        let go_right = x & (1 << node) == 0;
                        if go_right {
                            x |= 1 << node;
                            lo += half;
                            node = 2 * node + 2;
                        } else {
                            x &= !(1 << node);
                            node = 2 * node + 1;
                        }
                        size = half;
                    }
                    *word = x;
                    lo
                } else {
                    let w = plru_victim(*word, ways, allowed);
                    plru_touch(word, ways, w);
                    w
                }
            }
            ReplacementState::Srrip { rrpv } => {
                let rrpv = &mut rrpv[base..base + ways as usize];
                let abits = allowed.bits();
                let full = if ways >= 64 {
                    u64::MAX
                } else {
                    (1 << ways) - 1
                };
                let w = if abits & full == full {
                    srrip_victim_full(rrpv)
                } else {
                    'found: loop {
                        let mut bits = abits;
                        while bits != 0 {
                            let i = bits.trailing_zeros();
                            if rrpv[i as usize] >= RRPV_MAX {
                                break 'found i;
                            }
                            bits &= bits - 1;
                        }
                        let mut bits = abits;
                        while bits != 0 {
                            let i = bits.trailing_zeros();
                            rrpv[i as usize] += 1;
                            bits &= bits - 1;
                        }
                    }
                };
                rrpv[w as usize] = RRPV_INSERT;
                w
            }
        }
    }
}

/// SRRIP victim search over a whole set's RRPV lanes (unrestricted way
/// mask): returns the lowest way whose RRPV is `RRPV_MAX`, ageing every
/// lane until one reaches it.
///
/// Lanes are always in `0..=RRPV_MAX` (ageing only runs while no lane is
/// at the maximum), so "≥ max" is "== 3" and a SWAR scan over 8-byte
/// chunks — both low bits of a byte set — finds the victim without a
/// per-way branch.
fn srrip_victim_full(rrpv: &mut [u8]) -> u32 {
    loop {
        let mut found = None;
        for (ci, chunk) in rrpv.chunks(8).enumerate() {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            let x = u64::from_le_bytes(word);
            // Byte == 3 exactly when bits 0 and 1 of the byte are set;
            // padding bytes in a short tail are 0 and never match.
            let three = x & (x >> 1) & 0x0101_0101_0101_0101;
            if three != 0 {
                found = Some(ci as u32 * 8 + three.trailing_zeros() / 8);
                break;
            }
        }
        if let Some(w) = found {
            return w;
        }
        for v in rrpv.iter_mut() {
            *v += 1;
        }
    }
}

/// Updates one set's PLRU tree word so the path to `way` points *away*
/// from it.
fn plru_touch(word: &mut u64, ways: u32, way: u32) {
    if ways < 2 {
        return;
    }
    // Implicit binary tree: node 0 is the root; the subtree of node i at
    // depth d covers a contiguous way range of size ways >> d.
    let mut x = *word;
    let mut node = 0u32;
    let mut lo = 0u32;
    let mut size = ways;
    while size > 1 {
        let half = size / 2;
        // Bit semantics: set means "the LRU side is the left". Touching
        // the right subtree makes the left side LRU, and vice versa.
        let go_right = way >= lo + half;
        if go_right {
            x |= 1 << node;
            lo += half;
            node = 2 * node + 2;
        } else {
            x &= !(1 << node);
            node = 2 * node + 1;
        }
        size = half;
    }
    *word = x;
}

/// Walks one set's PLRU tree word towards the LRU side, constrained to
/// `allowed`.
fn plru_victim(word: u64, ways: u32, allowed: WayMask) -> u32 {
    if ways < 2 {
        return 0;
    }
    let mut node = 0u32;
    let mut lo = 0u32;
    let mut size = ways;
    while size > 1 {
        let half = size / 2;
        let left = WayMask::range(lo, lo + half).intersection(allowed);
        let right = WayMask::range(lo + half, lo + size).intersection(allowed);
        // Prefer the tree's indicated LRU side, but only descend into a
        // subtree that still contains an allowed way.
        let prefer_left = word & (1 << node) != 0;
        let go_right = if prefer_left {
            left.is_empty()
        } else {
            !right.is_empty()
        };
        node = 2 * node + if go_right { 2 } else { 1 };
        if go_right {
            lo += half;
        }
        size = half;
    }
    debug_assert!(allowed.contains(lo), "PLRU walk left the allowed mask");
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    const WAYS: u32 = 8;

    fn full() -> WayMask {
        WayMask::first(WAYS)
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut st = ReplacementState::new(ReplacementPolicy::Lru, 4, WAYS);
        for w in 0..WAYS {
            st.on_fill(1, WAYS, w);
        }
        st.on_hit(1, WAYS, 0); // way 0 becomes MRU; way 1 is now LRU
        assert_eq!(st.victim(1, WAYS, full()), 1);
    }

    #[test]
    fn lru_respects_mask() {
        let mut st = ReplacementState::new(ReplacementPolicy::Lru, 4, WAYS);
        for w in 0..WAYS {
            st.on_fill(0, WAYS, w);
        }
        // Way 0 is globally LRU but excluded by the mask.
        let allowed = WayMask::range(4, 8);
        assert_eq!(st.victim(0, WAYS, allowed), 4);
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut st = ReplacementState::new(ReplacementPolicy::Fifo, 4, WAYS);
        for w in 0..WAYS {
            st.on_fill(0, WAYS, w);
        }
        st.on_hit(0, WAYS, 0);
        // Way 0 was filled first; hits must not rescue it.
        assert_eq!(st.victim(0, WAYS, full()), 0);
    }

    #[test]
    fn random_is_deterministic_and_in_mask() {
        let run = |seed| {
            let mut st = ReplacementState::new(ReplacementPolicy::Random { seed }, 4, WAYS);
            (0..100)
                .map(|_| st.victim(0, WAYS, WayMask::range(2, 6)))
                .collect::<Vec<_>>()
        };
        let a = run(9);
        assert_eq!(a, run(9));
        assert!(a.iter().all(|&w| (2..6).contains(&w)));
        // Should hit more than one way over 100 draws.
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert!(uniq.len() > 1);
    }

    #[test]
    fn nru_prefers_unreferenced() {
        let mut st = ReplacementState::new(ReplacementPolicy::Nru, 1, WAYS);
        for w in 0..WAYS {
            st.on_fill(0, WAYS, w);
        }
        // All referenced: first victim clears bits and evicts way 0.
        assert_eq!(st.victim(0, WAYS, full()), 0);
        // Now touch way 1; ways 2.. are unreferenced.
        st.on_hit(0, WAYS, 1);
        assert_eq!(st.victim(0, WAYS, full()), 0);
    }

    #[test]
    fn plru_cycles_through_ways() {
        let mut st = ReplacementState::new(ReplacementPolicy::TreePlru, 1, 4);
        let mask = WayMask::first(4);
        let mut seen = [false; 4];
        for _ in 0..4 {
            let v = st.victim(0, 4, mask);
            seen[v as usize] = true;
            st.on_fill(0, 4, v);
        }
        assert!(
            seen.iter().all(|&s| s),
            "PLRU should rotate victims: {seen:?}"
        );
    }

    #[test]
    fn plru_respects_mask() {
        let mut st = ReplacementState::new(ReplacementPolicy::TreePlru, 1, 8);
        let allowed = WayMask::range(5, 8);
        for _ in 0..32 {
            let v = st.victim(0, 8, allowed);
            assert!(allowed.contains(v));
            st.on_fill(0, 8, v);
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn plru_rejects_odd_ways() {
        ReplacementState::new(ReplacementPolicy::TreePlru, 1, 6);
    }

    #[test]
    fn srrip_evicts_distant_first() {
        let mut st = ReplacementState::new(ReplacementPolicy::Srrip, 1, 4);
        let mask = WayMask::first(4);
        for w in 0..4 {
            st.on_fill(0, 4, w);
        }
        st.on_hit(0, 4, 2); // way 2 becomes near-immediate
        let v = st.victim(0, 4, mask);
        assert_ne!(v, 2, "recently hit way must not be the victim");
    }

    #[test]
    fn srrip_terminates_when_all_near() {
        let mut st = ReplacementState::new(ReplacementPolicy::Srrip, 1, 4);
        let mask = WayMask::first(4);
        for w in 0..4 {
            st.on_fill(0, 4, w);
            st.on_hit(0, 4, w);
        }
        // All rrpv == 0: victim search must age and terminate.
        let v = st.victim(0, 4, mask);
        assert!(v < 4);
    }

    #[test]
    #[should_panic(expected = "no ways")]
    fn victim_from_empty_mask_panics() {
        let mut st = ReplacementState::new(ReplacementPolicy::Lru, 1, 4);
        st.victim(0, 4, WayMask::EMPTY);
    }

    #[test]
    fn evict_and_fill_matches_victim_then_on_fill() {
        let policies = [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random { seed: 77 },
            ReplacementPolicy::Nru,
            ReplacementPolicy::TreePlru,
            ReplacementPolicy::Srrip,
        ];
        for policy in policies {
            let mut split = ReplacementState::new(policy, 2, WAYS);
            for set in 0..2u64 {
                for w in 0..WAYS {
                    split.on_fill(set, WAYS, w);
                }
            }
            split.on_hit(0, WAYS, 3);
            split.on_hit(1, WAYS, 6);
            let mut fused = split.clone();
            for round in 0..64u64 {
                let set = round % 2;
                let allowed = if round % 3 == 0 {
                    WayMask::range(2, 7)
                } else {
                    full()
                };
                let vs = split.victim(set, WAYS, allowed);
                split.on_fill(set, WAYS, vs);
                let vf = fused.evict_and_fill(set, WAYS, allowed);
                assert_eq!(vs, vf, "{policy:?} diverged at round {round}");
            }
        }
    }

    #[test]
    fn policies_independent_across_sets() {
        let mut st = ReplacementState::new(ReplacementPolicy::Lru, 2, 2);
        st.on_fill(0, 2, 0);
        st.on_fill(0, 2, 1);
        st.on_fill(1, 2, 1);
        st.on_fill(1, 2, 0);
        assert_eq!(st.victim(0, 2, WayMask::first(2)), 0);
        assert_eq!(st.victim(1, 2, WayMask::first(2)), 1);
    }
}
