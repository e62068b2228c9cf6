//! Golden-hash regression fixtures for trace determinism.
//!
//! `EXPERIMENTS.md` numbers are only reproducible if the generator emits
//! *bit-identical* streams for a given `(profile, seed)`. These tests
//! hash a prefix of every suite app's stream; any accidental change to
//! the PRNG, the locality engine, the kernel model, or the profiles will
//! flip a hash and fail loudly.
//!
//! If a change is *intentional* (a recalibration), regenerate the table
//! with:
//!
//! ```text
//! cargo test -p moca-trace --test golden -- --nocapture print_golden_table
//! ```
//!
//! and paste the output over `GOLDEN`, noting the recalibration in
//! `CHANGELOG.md`.

use moca_trace::{AppProfile, TraceGenerator};

/// FNV-1a over the packed fields of each access.
fn trace_hash(app: &AppProfile, seed: u64, n: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for a in TraceGenerator::new(app, seed).take(n) {
        mix(a.addr);
        mix(a.pc);
        mix(a.kind.index() as u64 | ((a.mode.index() as u64) << 8));
    }
    h
}

const SEED: u64 = 0x5EED_2015;
const PREFIX: usize = 50_000;

/// `(app, hash)` pairs pinned at the calibration of 2026-07-07.
const GOLDEN: [(&str, u64); 10] = [
    ("browser", 0xefa3aa23b6d13829),
    ("email", 0xeca94991fed168ef),
    ("maps", 0xcf8fb0764f5aebee),
    ("game", 0xcb5e4329892dd25b),
    ("video", 0x5fd41be82f9b4c04),
    ("music", 0x3cb23e6fb39b1687),
    ("social", 0x3c8e1c0f26995da6),
    ("office", 0x17813a86bbc9023b),
    ("pdf", 0x48d35b62f193bab0),
    ("camera", 0x30a8f5703d3f3c3f),
];

#[test]
fn suite_traces_match_golden_hashes() {
    let mut failures = Vec::new();
    for (name, expected) in GOLDEN {
        let app = AppProfile::by_name(name).expect("known app");
        let got = trace_hash(&app, SEED, PREFIX);
        if got != expected {
            failures.push(format!(
                "{name}: expected {expected:#018x}, got {got:#018x}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "trace streams changed — if intentional, regenerate GOLDEN:\n{}",
        failures.join("\n")
    );
}

/// Prints the current golden table (run with `--nocapture` and the test
/// name to regenerate after an intentional recalibration).
#[test]
fn print_golden_table() {
    for app in AppProfile::suite() {
        println!(
            "    (\"{}\", {:#018x}),",
            app.name,
            trace_hash(&app, SEED, PREFIX)
        );
    }
}
