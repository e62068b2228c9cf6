//! `tracegen` — generate workload traces to files.
//!
//! Writes the deterministic memory-reference stream of one suite app (or
//! a mixed session) in the binary or text format of
//! [`moca_trace::io`], so traces can be archived, diffed, or fed to other
//! tools — or, with `--emit`, compiles it into the chunked, checksummed
//! replay container of [`moca_trace::binfmt`] that `repro --trace` and
//! the sweep engine replay at decode speed.
//!
//! ```text
//! tracegen <app|mixed> <refs> <out-file> [--text | --emit] [--seed N]
//! ```

use std::fs::File;
use std::io::BufWriter;
use std::process::ExitCode;

use moca_trace::binfmt;
use moca_trace::io::{write_binary, write_text};
use moca_trace::{AppProfile, MemoryAccess, PhasedWorkload, TraceGenerator};

fn usage() -> ExitCode {
    eprintln!("usage: tracegen <app|mixed> <refs> <out-file> [--text | --emit] [--seed N]");
    eprintln!("  --text  line-oriented text format instead of the binary stream");
    eprintln!("  --emit  chunked replay container (apps only; refs round up to full chunks)");
    eprintln!("apps: {}", AppProfile::suite().iter().map(|p| p.name).collect::<Vec<_>>().join(", "));
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional: Vec<&String> = Vec::new();
    let mut skip_next = false;
    for a in &args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a == "--seed" {
            skip_next = true; // the seed value is consumed below
        } else if a.starts_with("--") {
            if a != "--text" && a != "--emit" {
                eprintln!("unknown flag: {a}");
                return usage();
            }
        } else {
            positional.push(a);
        }
    }
    if positional.len() != 3 {
        return usage();
    }
    let text = args.iter().any(|a| a == "--text");
    let emit = args.iter().any(|a| a == "--emit");
    if text && emit {
        eprintln!("--text and --emit are mutually exclusive");
        return usage();
    }
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(42u64);

    let name = positional[0];
    let Ok(refs) = positional[1].parse::<usize>() else {
        return usage();
    };
    let path = positional[2];

    if emit {
        // The replay container records one (profile fingerprint, seed)
        // identity in its header; a mixed session has no single
        // generating profile to fingerprint, so it cannot be compiled.
        if name == "mixed" {
            eprintln!("--emit needs a named app: a mixed session has no single profile fingerprint");
            return usage();
        }
        let Some(profile) = AppProfile::by_name(name) else {
            eprintln!("unknown app '{name}'");
            return usage();
        };
        let file = match File::create(path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cannot create {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        // compile() flushes through TraceWriter::finish, so BufWriter's
        // error-swallowing Drop never sees unflushed bytes.
        return match binfmt::compile(BufWriter::new(file), &profile, seed, refs) {
            Ok(summary) => {
                eprintln!(
                    "compiled {} chunk(s), {} references of '{name}' (seed {seed}) to {path} \
                     ({} payload bytes)",
                    summary.chunks, summary.refs, summary.payload_bytes
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("compile failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let trace: Box<dyn Iterator<Item = MemoryAccess>> = if name == "mixed" {
        let per_app = (refs / 10).max(1) as u64;
        Box::new(PhasedWorkload::mixed_session(per_app, seed).cycle().take(refs))
    } else {
        let Some(profile) = AppProfile::by_name(name) else {
            eprintln!("unknown app '{name}'");
            return usage();
        };
        Box::new(TraceGenerator::new(&profile, seed).take(refs))
    };

    let file = match File::create(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot create {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut writer = BufWriter::new(file);
    let result = if text {
        write_text(&mut writer, trace)
    } else {
        write_binary(&mut writer, trace)
    };
    // Flush explicitly: BufWriter's Drop swallows flush errors, and a
    // full disk at the final flush must still fail the run.
    let result = result.and_then(|()| std::io::Write::flush(&mut writer));
    match result {
        Ok(()) => {
            eprintln!("wrote {refs} references of '{name}' (seed {seed}) to {path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("write failed: {e}");
            ExitCode::FAILURE
        }
    }
}
