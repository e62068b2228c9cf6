//! Genome encoding of the L2 design space.
//!
//! A [`Genome`] is a fixed-width integer vector spanning every axis the
//! paper's design points vary: policy family, total associativity (the
//! L2 size knob — set count and line size are fixed by
//! [`L2BaseParams`]), the static user/kernel partition split, the
//! per-partition retention-class assignment, the expiry-handling
//! policy, and the dynamic repartition epoch. Fields a family does not
//! use are still carried (and inherited/mutated), the standard
//! mixed-variant GA encoding: they become active the moment a mutation
//! flips the family.
//!
//! Validity is enforced by *repair*, never rejection: [`Genome::repair`]
//! clamps every field into range and then proves the result through the
//! same fallible constructors the simulator builds from —
//! [`CacheGeometry::new`] for the geometry and
//! [`PartitionSpec::split`] for the way split — falling back to the
//! baseline genome if those constructors still refuse (which no clamped
//! genome reaches, but the fallback keeps the contract panic-free by
//! construction).

use moca_cache::{CacheGeometry, PartitionSpec};
use moca_core::{L2BaseParams, L2Design, RefreshPolicy, LINE_BYTES};
use moca_energy::RetentionClass;
use moca_trace::rng::Xoshiro256;

/// Largest total associativity the search explores (the baseline's
/// physical 16 ways; way count doubles as the L2-size knob because the
/// substrate fixes 128 KiB per way).
pub const MAX_WAYS: u32 = 16;

/// Dynamic repartition epoch lengths the search can pick, in cycles.
pub const EPOCHS: [u64; 3] = [200_000, 500_000, 1_000_000];

/// Number of retention classes addressable by a genome
/// ([`RetentionClass::SWEEP`]).
pub const RETENTIONS: u32 = RetentionClass::SWEEP.len() as u32;

/// The design-policy family a genome decodes into (one per
/// [`L2Design`] variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Shared SRAM (the baseline family).
    SharedSram,
    /// Shared homogeneous STT-RAM.
    SharedStt,
    /// Statically partitioned SRAM.
    StaticSram,
    /// Statically partitioned multi-retention STT-RAM (C7's family).
    StaticMultiRetention,
    /// Dynamically partitioned SRAM.
    DynamicSram,
    /// Dynamically partitioned short-retention STT-RAM (C8's family).
    DynamicStt,
}

impl Family {
    /// All families, in genome-index order.
    pub const ALL: [Family; 6] = [
        Family::SharedSram,
        Family::SharedStt,
        Family::StaticSram,
        Family::StaticMultiRetention,
        Family::DynamicSram,
        Family::DynamicStt,
    ];

    /// Genome index of this family.
    pub fn index(self) -> u32 {
        Family::ALL.iter().position(|f| *f == self).expect("in ALL") as u32
    }

    /// `true` for the statically way-partitioned families (the ones
    /// whose split must satisfy [`PartitionSpec::split`]).
    pub fn is_static_partitioned(self) -> bool {
        matches!(self, Family::StaticSram | Family::StaticMultiRetention)
    }

    /// `true` for the dynamically partitioned families.
    pub fn is_dynamic(self) -> bool {
        matches!(self, Family::DynamicSram | Family::DynamicStt)
    }
}

/// One point of the design space, as evolved by the search.
///
/// Every field is kept in-range by [`Genome::repair`]; [`Genome::decode`]
/// then maps it onto a validated [`L2Design`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Genome {
    /// Policy family.
    pub family: Family,
    /// Total (shared) or physical maximum (dynamic) associativity,
    /// `1..=MAX_WAYS`.
    pub ways: u32,
    /// User-segment ways of the static families.
    pub user_ways: u32,
    /// Kernel-segment ways of the static families.
    pub kernel_ways: u32,
    /// Index into [`RetentionClass::SWEEP`] for the user segment (and
    /// for the whole array of `SharedStt`).
    pub user_retention: u32,
    /// Index into [`RetentionClass::SWEEP`] for the kernel segment.
    pub kernel_retention: u32,
    /// Expiry handling of volatile segments.
    pub refresh: RefreshPolicy,
    /// Index into [`EPOCHS`] for the dynamic families.
    pub epoch: u32,
}

impl Genome {
    /// The baseline design (shared 16-way SRAM) as a genome.
    pub fn baseline() -> Genome {
        Genome {
            family: Family::SharedSram,
            ways: 16,
            user_ways: 6,
            kernel_ways: 4,
            user_retention: 2,   // 1s
            kernel_retention: 4, // 10ms
            refresh: RefreshPolicy::InvalidateOnExpiry,
            epoch: 1, // 500k cycles
        }
    }

    /// The paper's hand-picked designs seeded into generation 0: the
    /// baseline, the C7 static multi-retention point, and the C8
    /// dynamic STT point. Seeding them makes the final front
    /// dominate-or-tie both by construction.
    pub fn seeds() -> Vec<Genome> {
        let c7 = Genome {
            family: Family::StaticMultiRetention,
            ..Genome::baseline()
        };
        let c8 = Genome {
            family: Family::DynamicStt,
            ways: 16,
            user_retention: 3, // 100ms
            ..Genome::baseline()
        };
        vec![Genome::baseline(), c7, c8]
    }

    /// A uniformly random (then repaired) genome.
    pub fn random(rng: &mut Xoshiro256) -> Genome {
        Genome {
            family: Family::ALL[rng.below(Family::ALL.len() as u64) as usize],
            ways: rng.range(1, u64::from(MAX_WAYS) + 1) as u32,
            user_ways: rng.range(1, u64::from(MAX_WAYS)) as u32,
            kernel_ways: rng.range(1, u64::from(MAX_WAYS)) as u32,
            user_retention: rng.below(u64::from(RETENTIONS)) as u32,
            kernel_retention: rng.below(u64::from(RETENTIONS)) as u32,
            refresh: if rng.chance(0.5) {
                RefreshPolicy::Refresh
            } else {
                RefreshPolicy::InvalidateOnExpiry
            },
            epoch: rng.below(EPOCHS.len() as u64) as u32,
        }
        .repair()
    }

    /// Uniform crossover: each field is inherited from one parent,
    /// chosen by a fair coin.
    pub fn crossover(a: &Genome, b: &Genome, rng: &mut Xoshiro256) -> Genome {
        let pick = |rng: &mut Xoshiro256| rng.chance(0.5);
        Genome {
            family: if pick(rng) { a.family } else { b.family },
            ways: if pick(rng) { a.ways } else { b.ways },
            user_ways: if pick(rng) { a.user_ways } else { b.user_ways },
            kernel_ways: if pick(rng) {
                a.kernel_ways
            } else {
                b.kernel_ways
            },
            user_retention: if pick(rng) {
                a.user_retention
            } else {
                b.user_retention
            },
            kernel_retention: if pick(rng) {
                a.kernel_retention
            } else {
                b.kernel_retention
            },
            refresh: if pick(rng) { a.refresh } else { b.refresh },
            epoch: if pick(rng) { a.epoch } else { b.epoch },
        }
        .repair()
    }

    /// Per-field mutation at `rate`, followed by repair.
    pub fn mutate(mut self, rate: f64, rng: &mut Xoshiro256) -> Genome {
        if rng.chance(rate) {
            self.family = Family::ALL[rng.below(Family::ALL.len() as u64) as usize];
        }
        if rng.chance(rate) {
            self.ways = rng.range(1, u64::from(MAX_WAYS) + 1) as u32;
        }
        if rng.chance(rate) {
            self.user_ways = rng.range(1, u64::from(MAX_WAYS)) as u32;
        }
        if rng.chance(rate) {
            self.kernel_ways = rng.range(1, u64::from(MAX_WAYS)) as u32;
        }
        if rng.chance(rate) {
            self.user_retention = rng.below(u64::from(RETENTIONS)) as u32;
        }
        if rng.chance(rate) {
            self.kernel_retention = rng.below(u64::from(RETENTIONS)) as u32;
        }
        if rng.chance(rate) {
            self.refresh = if rng.chance(0.5) {
                RefreshPolicy::Refresh
            } else {
                RefreshPolicy::InvalidateOnExpiry
            };
        }
        if rng.chance(rate) {
            self.epoch = rng.below(EPOCHS.len() as u64) as u32;
        }
        self.repair()
    }

    /// Clamps every field into range, then proves the result through
    /// the substrate's fallible constructors. Never panics; an
    /// (unreachable) constructor refusal decays to the baseline genome.
    pub fn repair(mut self) -> Genome {
        self.ways = self.ways.clamp(1, MAX_WAYS);
        if self.family.is_dynamic() {
            // `min_ways` is fixed at 1; validate() needs min*2 <= max.
            self.ways = self.ways.max(2);
        }
        self.user_ways = self.user_ways.clamp(1, MAX_WAYS - 1);
        self.kernel_ways = self.kernel_ways.clamp(1, MAX_WAYS - self.user_ways);
        self.user_retention = self.user_retention.min(RETENTIONS - 1);
        self.kernel_retention = self.kernel_retention.min(RETENTIONS - 1);
        self.epoch = self.epoch.min(EPOCHS.len() as u32 - 1);
        if self.is_constructible() {
            self
        } else {
            Genome::baseline()
        }
    }

    /// The authoritative validity check: the design validates, its
    /// geometry builds through [`CacheGeometry::new`], and (for the
    /// static families) its split builds through
    /// [`PartitionSpec::split`].
    fn is_constructible(&self) -> bool {
        let design = self.decode_unchecked();
        if design.validate().is_err() {
            return false;
        }
        let params = L2BaseParams::default();
        let ways = design.physical_ways();
        let capacity = match params.way_bytes().checked_mul(u64::from(ways)) {
            Some(c) => c,
            None => return false,
        };
        if CacheGeometry::new(capacity, ways, LINE_BYTES).is_err() {
            return false;
        }
        if self.family.is_static_partitioned()
            && PartitionSpec::split(self.user_ways, self.kernel_ways, ways).is_err()
        {
            return false;
        }
        true
    }

    /// The design this genome encodes. Always valid after
    /// [`Genome::repair`] (asserted in debug builds).
    pub fn decode(&self) -> L2Design {
        let design = self.decode_unchecked();
        debug_assert!(design.validate().is_ok(), "repair() precedes decode()");
        design
    }

    fn decode_unchecked(&self) -> L2Design {
        let user_retention = RetentionClass::SWEEP[self.user_retention as usize];
        let kernel_retention = RetentionClass::SWEEP[self.kernel_retention as usize];
        match self.family {
            Family::SharedSram => L2Design::SharedSram { ways: self.ways },
            Family::SharedStt => L2Design::SharedStt {
                ways: self.ways,
                retention: user_retention,
                refresh: self.refresh,
            },
            Family::StaticSram => L2Design::StaticSram {
                user_ways: self.user_ways,
                kernel_ways: self.kernel_ways,
            },
            Family::StaticMultiRetention => L2Design::StaticMultiRetention {
                user_ways: self.user_ways,
                kernel_ways: self.kernel_ways,
                user_retention,
                kernel_retention,
                refresh: self.refresh,
            },
            Family::DynamicSram => L2Design::DynamicSram {
                max_ways: self.ways,
                min_ways: 1,
                epoch_cycles: EPOCHS[self.epoch as usize],
            },
            Family::DynamicStt => L2Design::DynamicStt {
                max_ways: self.ways,
                min_ways: 1,
                user_retention,
                kernel_retention,
                refresh: self.refresh,
                epoch_cycles: EPOCHS[self.epoch as usize],
            },
        }
    }

    /// Compact checkpoint form: `g:<fam>:<ways>:<u>:<k>:<ur>:<kr>:<rf>:<ep>`.
    pub fn serialize(&self) -> String {
        format!(
            "g:{}:{}:{}:{}:{}:{}:{}:{}",
            self.family.index(),
            self.ways,
            self.user_ways,
            self.kernel_ways,
            self.user_retention,
            self.kernel_retention,
            matches!(self.refresh, RefreshPolicy::Refresh) as u32,
            self.epoch
        )
    }

    /// Parses [`Genome::serialize`]'s form. Returns `None` on any
    /// malformed field (corrupt checkpoint payloads surface as a resume
    /// error, not a panic).
    pub fn parse(s: &str) -> Option<Genome> {
        let mut it = s.split(':');
        if it.next()? != "g" {
            return None;
        }
        let mut next = || -> Option<u32> { it.next()?.parse().ok() };
        let family = *Family::ALL.get(next()? as usize)?;
        let genome = Genome {
            family,
            ways: next()?,
            user_ways: next()?,
            kernel_ways: next()?,
            user_retention: next()?,
            kernel_retention: next()?,
            refresh: match next()? {
                0 => RefreshPolicy::InvalidateOnExpiry,
                1 => RefreshPolicy::Refresh,
                _ => return None,
            },
            epoch: next()?,
        };
        if it.next().is_some() {
            return None;
        }
        // A checkpointed genome was repaired before serialization; a
        // payload that fails that invariant is corrupt.
        (genome.repair() == genome).then_some(genome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_decode_to_the_paper_designs() {
        let seeds = Genome::seeds();
        assert_eq!(seeds[0].decode(), L2Design::baseline());
        assert_eq!(seeds[1].decode(), L2Design::static_default());
        assert_eq!(seeds[2].decode(), L2Design::dynamic_default());
        for s in &seeds {
            assert_eq!(s.repair(), *s, "seeds are already repaired");
        }
    }

    #[test]
    fn random_genomes_always_decode_valid() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        for _ in 0..2000 {
            let g = Genome::random(&mut rng);
            assert!(g.decode().validate().is_ok(), "{g:?}");
        }
    }

    #[test]
    fn crossover_and_mutation_stay_valid() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        let mut a = Genome::random(&mut rng);
        let mut b = Genome::random(&mut rng);
        for _ in 0..2000 {
            let child = Genome::crossover(&a, &b, &mut rng).mutate(0.5, &mut rng);
            assert!(child.decode().validate().is_ok(), "{child:?}");
            a = b;
            b = child;
        }
    }

    #[test]
    fn repair_clamps_out_of_range_fields() {
        let g = Genome {
            family: Family::StaticMultiRetention,
            ways: 99,
            user_ways: 40,
            kernel_ways: 40,
            user_retention: 77,
            kernel_retention: 77,
            refresh: RefreshPolicy::Refresh,
            epoch: 9,
        }
        .repair();
        assert!(g.decode().validate().is_ok());
        assert!(g.user_ways + g.kernel_ways <= MAX_WAYS);
        assert!(g.user_retention < RETENTIONS && g.kernel_retention < RETENTIONS);
        assert!((g.epoch as usize) < EPOCHS.len());
    }

    #[test]
    fn dynamic_families_repair_to_at_least_two_ways() {
        let g = Genome {
            family: Family::DynamicStt,
            ways: 1,
            ..Genome::baseline()
        }
        .repair();
        assert_eq!(g.ways, 2);
        assert!(g.decode().validate().is_ok());
    }

    #[test]
    fn serialization_round_trips() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        for _ in 0..500 {
            let g = Genome::random(&mut rng);
            let s = g.serialize();
            assert_eq!(Genome::parse(&s), Some(g), "round trip of {s}");
        }
        assert_eq!(Genome::parse("g:0:16"), None);
        assert_eq!(Genome::parse("x:0:16:6:4:2:4:0:1"), None);
        assert_eq!(Genome::parse("g:0:99:6:4:2:4:0:1"), None, "unrepaired");
        assert_eq!(Genome::parse("g:0:16:6:4:2:4:0:1:9"), None, "trailing");
    }
}
