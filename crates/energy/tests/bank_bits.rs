//! Bit-exact bank operating points.
//!
//! Every report's energy and cycle figures start from these numbers, so
//! a change to the bank models that moves any of them by one ulp moves
//! the reports. The table pins read/write energy (pJ), leakage (mW) and
//! read/write latency (ns) as `f64::to_bits` for an SRAM bank and an
//! STT-RAM bank of every sweep retention class, at the way counts of
//! the default L2 designs: the 16-way baseline and the 6 user + 4
//! kernel way static split, 128 KiB per way.

use moca_energy::{MemoryTechnology, RetentionClass, SramBank, SttRamBank};

/// Bytes of one way of the default L2 (2048 sets × 64 B lines).
const WAY_BYTES: u64 = 2048 * 64;

/// `[read pJ, write pJ, leakage mW, read ns, write ns]` bit patterns.
type Bits = [u64; 5];

fn bits(bank: &impl MemoryTechnology) -> Bits {
    [
        bank.read_energy().pj().to_bits(),
        bank.write_energy().pj().to_bits(),
        bank.leakage_power().mw().to_bits(),
        bank.read_latency().ns().to_bits(),
        bank.write_latency().ns().to_bits(),
    ]
}

/// SRAM banks, by way count.
const SRAM: [(u32, Bits); 3] = [
    (
        4,
        [
            0x407cb7ab62840817,
            0x407e832618ac4898,
            0x4044000000000000,
            0x40203ebb7600f407,
            0x40203ebb7600f407,
        ],
    ),
    (
        6,
        [
            0x4082b044089c2c2b,
            0x4083db484925eeee,
            0x404e000000000000,
            0x402258a6cb928c2e,
            0x402258a6cb928c2e,
        ],
    ),
    (
        16,
        [
            0x4091ad7bc01366b9,
            0x4092c8537c149d24,
            0x4064000000000000,
            0x40289f759aff63f3,
            0x40289f759aff63f3,
        ],
    ),
];

/// STT-RAM banks, by way count, then in [`RetentionClass::SWEEP`] order.
/// Read energy, leakage and read latency do not depend on retention.
const STT: [(u32, [Bits; 5]); 3] = [
    (
        4,
        [
            [
                0x407aec30ac5bc796,
                0x40ad8a778aafc9ee,
                0x400999999999999a,
                0x4021de9b01cdd93b,
                0x402ee8b27a0bfe1e,
            ],
            [
                0x407aec30ac5bc796,
                0x4095b61e998fce51,
                0x400999999999999a,
                0x4021de9b01cdd93b,
                0x40252580875e17ac,
            ],
            [
                0x407aec30ac5bc796,
                0x409244add0f6fa80,
                0x400999999999999a,
                0x4021de9b01cdd93b,
                0x40240fa47b6e8c15,
            ],
            [
                0x407aec30ac5bc796,
                0x408e600b128ba269,
                0x400999999999999a,
                0x4021de9b01cdd93b,
                0x402308d23d42f70c,
            ],
            [
                0x407aec30ac5bc796,
                0x4088f04b84f8a4d1,
                0x400999999999999a,
                0x4021de9b01cdd93b,
                0x402211f42c522f84,
            ],
        ],
    ),
    (
        6,
        [
            [
                0x4081853fc8126969,
                0x40ae1505559b0ef2,
                0x4013333333333333,
                0x40242e51132133cd,
                0x403025dca89f00a2,
            ],
            [
                0x4081853fc8126969,
                0x4096cb3a2f665859,
                0x4013333333333333,
                0x40242e51132133cd,
                0x402688875e901ad0,
            ],
            [
                0x4081853fc8126969,
                0x409359c966cd8488,
                0x4013333333333333,
                0x40242e51132133cd,
                0x402572ab52a08f3a,
            ],
            [
                0x4081853fc8126969,
                0x409045211f1c5b3c,
                0x4013333333333333,
                0x40242e51132133cd,
                0x40246bd91474fa31,
            ],
            [
                0x4081853fc8126969,
                0x408b1a82b0a5b8e0,
                0x4013333333333333,
                0x40242e51132133cd,
                0x402374fb038432a8,
            ],
        ],
    ),
    (
        16,
        [
            [
                0x409092a40412304d,
                0x40b0152de246318d,
                0x402999999999999a,
                0x402b15ce2a7f5458,
                0x4032381bc93b3d98,
            ],
            [
                0x409092a40412304d,
                0x409af5e70d4900aa,
                0x402999999999999a,
                0x402b15ce2a7f5458,
                0x402aad059fc894be,
            ],
            [
                0x409092a40412304d,
                0x4097847644b02cd9,
                0x402999999999999a,
                0x402b15ce2a7f5458,
                0x4029972993d90926,
            ],
            [
                0x409092a40412304d,
                0x40946fcdfcff038e,
                0x402999999999999a,
                0x402b15ce2a7f5458,
                0x4028905755ad741e,
            ],
            [
                0x409092a40412304d,
                0x4091b7ee363584c2,
                0x402999999999999a,
                0x402b15ce2a7f5458,
                0x4027997944bcac95,
            ],
        ],
    ),
];

#[test]
fn sram_banks_are_bit_exact() {
    for (ways, want) in SRAM {
        let bank = SramBank::new(WAY_BYTES * u64::from(ways), ways);
        assert_eq!(bits(&bank), want, "SRAM {ways} ways");
    }
}

#[test]
fn sttram_banks_are_bit_exact() {
    for (ways, by_class) in STT {
        for (rc, want) in RetentionClass::SWEEP.into_iter().zip(by_class) {
            let bank = SttRamBank::new(WAY_BYTES * u64::from(ways), ways, rc);
            assert_eq!(bits(&bank), want, "STT-RAM {ways} ways, {rc:?}");
        }
    }
}
