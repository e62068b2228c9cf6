//! `trace_corpus` — manage compiled trace corpora.
//!
//! A corpus is a directory of `.mtrc` replay containers (see
//! [`moca_trace::binfmt`] and `DESIGN.md` § On-disk trace format), one
//! per `(app, seed)` identity, that `repro --trace DIR` and the sweep
//! engine replay instead of regenerating traces in-process.
//!
//! ```text
//! trace_corpus record <dir> [--apps a,b,... | --all] [--refs N] [--seed N]
//! trace_corpus validate <file|dir>
//! trace_corpus stat <file> [--line-bytes N]
//! ```
//!
//! * `record` compiles the named apps (default: the four sweep apps of
//!   the search experiments) at `--refs` references (default: 300000,
//!   the quick-scale sweep length) into `<dir>/<app>-<seed:016x>.mtrc`.
//! * `validate` re-reads every chunk of a file (or every file of a
//!   directory) and verifies its checksum; any corruption is reported
//!   with the failing chunk index, and the exit code names the first
//!   failure's corruption class so corpus admission can be scripted
//!   without parsing output: `0` all valid, `3` bad magic, `4`
//!   unsupported version, `5` checksum mismatch, `6` truncated payload,
//!   `1` any other failure (`2` stays the usage-error code). See
//!   [`moca_trace::io::CorruptionClass`].
//! * `stat` decodes a file and prints the same trace-level summary
//!   [`moca_trace::TraceStats`] computes for live generators: per-mode
//!   access mix, footprint, median reuse interval, and mode switches.
//!   With `--mrc` it additionally replays the trace through the default
//!   L1 pair and the exact Mattson profiler, printing L2 hit rates per
//!   way count (user/kernel split) — the top of the file's miss-rate
//!   curve, without running a single simulation.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use moca_cache::mrc::MrcProfiler;
use moca_cache::L1Pair;
use moca_core::L2BaseParams;
use moca_sim::config::{L1D_GEOMETRY, L1I_GEOMETRY};
use moca_trace::binfmt::{self, TraceReader};
use moca_trace::{AccessKind, AppProfile, Mode, TraceStats};

/// The sweep apps of the search experiments (`F3`/static sweep): the
/// corpus `repro --quick F3 --trace DIR` replays from.
const DEFAULT_APPS: [&str; 4] = ["browser", "game", "video", "music"];

/// Default `record` trace length: the quick-scale sweep length.
const DEFAULT_REFS: usize = 300_000;

const USAGE: &str = "usage: trace_corpus <record|validate|stat> ...
  record <dir> [--apps a,b,...|--all] [--refs N] [--seed N]
                        compile app traces into <dir>/<app>-<seed>.mtrc
                        (default apps: browser,game,video,music;
                         default refs: 300000; default seed: 0x5eed2015)
  validate <file|dir>   re-read every chunk and verify its checksum;
                        the exit code names the first corruption class:
                        0 all valid, 3 bad magic, 4 unsupported version,
                        5 checksum mismatch, 6 truncated payload,
                        1 other failure (2 stays a usage error)
  stat <file> [--line-bytes N] [--mrc]
                        print the trace-level summary of a compiled file;
                        --mrc adds exact L2 hit rates per way count
                        (single Mattson pass, user/kernel split)";

fn fail(msg: &str) -> ExitCode {
    eprintln!("trace_corpus: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// Positionals and `--flag value` pairs split out of an argument list.
type ParsedFlags<'a> = (Vec<&'a str>, Vec<(&'static str, String)>);

/// Splits `args` into positionals and `--flag value` / `--flag=value`
/// pairs, rejecting unknown flags.
fn parse_flags<'a>(args: &'a [String], known: &[&'static str]) -> Result<ParsedFlags<'a>, String> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if let Some(rest) = arg.strip_prefix("--") {
            let (name, inline) = match rest.split_once('=') {
                Some((n, v)) => (n, Some(v.to_string())),
                None => (rest, None),
            };
            let Some(&known_name) = known.iter().find(|k| **k == name) else {
                return Err(format!("unknown flag: --{name}"));
            };
            let value = if matches!(known_name, "all" | "mrc") {
                if inline.is_some() {
                    return Err(format!("--{known_name} takes no value"));
                }
                String::new()
            } else {
                match inline {
                    Some(v) => v,
                    None => {
                        i += 1;
                        args.get(i)
                            .cloned()
                            .ok_or_else(|| format!("--{name} requires a value"))?
                    }
                }
            };
            flags.push((known_name, value));
        } else {
            positional.push(arg);
        }
        i += 1;
    }
    Ok((positional, flags))
}

fn record(args: &[String]) -> ExitCode {
    let (positional, flags) = match parse_flags(args, &["apps", "all", "refs", "seed"]) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let [dir] = positional[..] else {
        return fail("record takes exactly one directory argument");
    };
    let mut apps: Vec<String> = DEFAULT_APPS.iter().map(|s| s.to_string()).collect();
    let mut refs = DEFAULT_REFS;
    let mut seed = moca_sim::EXPERIMENT_SEED;
    for (flag, value) in flags {
        match flag {
            "apps" => apps = value.split(',').map(|s| s.trim().to_string()).collect(),
            "all" => {
                apps = AppProfile::suite()
                    .iter()
                    .map(|p| p.name.to_string())
                    .collect()
            }
            "refs" => match value.parse() {
                Ok(n) if n > 0 => refs = n,
                _ => return fail(&format!("invalid --refs value {value:?}")),
            },
            "seed" => match parse_seed(&value) {
                Some(s) => seed = s,
                None => return fail(&format!("invalid --seed value {value:?}")),
            },
            _ => unreachable!("parse_flags only returns known flags"),
        }
    }
    let profiles: Vec<AppProfile> = {
        let mut v = Vec::with_capacity(apps.len());
        for name in &apps {
            match AppProfile::by_name(name) {
                Some(p) => v.push(p),
                None => return fail(&format!("unknown app '{name}'")),
            }
        }
        v
    };
    let dir = Path::new(dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("trace_corpus: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    for profile in &profiles {
        let path = dir.join(format!("{}-{seed:016x}.mtrc", profile.name));
        let file = match std::fs::File::create(&path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("trace_corpus: cannot create {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        match binfmt::compile(std::io::BufWriter::new(file), profile, seed, refs) {
            Ok(summary) => println!(
                "recorded {}: {} chunk(s), {} refs, {} payload bytes",
                path.display(),
                summary.chunks,
                summary.refs,
                summary.payload_bytes
            ),
            Err(e) => {
                eprintln!("trace_corpus: compile of {} failed: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Accepts decimal or `0x`-prefixed hex seeds.
fn parse_seed(value: &str) -> Option<u64> {
    match value
        .strip_prefix("0x")
        .or_else(|| value.strip_prefix("0X"))
    {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => value.parse().ok(),
    }
}

fn validate(args: &[String]) -> ExitCode {
    let (positional, _) = match parse_flags(args, &[]) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let [target] = positional[..] else {
        return fail("validate takes exactly one file or directory argument");
    };
    let target = Path::new(target);
    let mut files: Vec<PathBuf> = Vec::new();
    if target.is_dir() {
        let entries = match std::fs::read_dir(target) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("trace_corpus: cannot read {}: {e}", target.display());
                return ExitCode::FAILURE;
            }
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_file() {
                files.push(p);
            }
        }
        files.sort();
        if files.is_empty() {
            eprintln!("trace_corpus: {} contains no files", target.display());
            return ExitCode::FAILURE;
        }
    } else {
        files.push(target.to_path_buf());
    }
    let mut failures = 0usize;
    // The exit code reports the *first* failure's corruption class, so
    // scripted admission of a whole corpus sees a deterministic code
    // (files are visited in sorted order).
    let mut first_class: Option<moca_trace::io::CorruptionClass> = None;
    for file in &files {
        match TraceReader::open(file).and_then(|mut r| r.validate()) {
            Ok(summary) => println!(
                "OK   {}: {} chunk(s), {} refs, {} payload bytes",
                file.display(),
                summary.chunks,
                summary.refs,
                summary.payload_bytes
            ),
            Err(e) => {
                let class = e.corruption_class();
                println!("FAIL {}: [{class}] {e}", file.display());
                first_class.get_or_insert(class);
                failures += 1;
            }
        }
    }
    match first_class {
        None => ExitCode::SUCCESS,
        Some(class) => {
            eprintln!(
                "trace_corpus: {failures} of {} file(s) failed validation (first class: {class})",
                files.len()
            );
            ExitCode::from(class.exit_code())
        }
    }
}

fn stat(args: &[String]) -> ExitCode {
    let (positional, flags) = match parse_flags(args, &["line-bytes", "mrc"]) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let [file] = positional[..] else {
        return fail("stat takes exactly one file argument");
    };
    let mut line_bytes = 64u64;
    let mut mrc = false;
    for (flag, value) in flags {
        match flag {
            "line-bytes" => match value.parse() {
                Ok(n) if u64::is_power_of_two(n) => line_bytes = n,
                _ => return fail(&format!("invalid --line-bytes value {value:?} (need 2^k)")),
            },
            "mrc" => mrc = true,
            _ => unreachable!("parse_flags only returns known flags"),
        }
    }
    let mut reader = match TraceReader::open(Path::new(file)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("trace_corpus: cannot open {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let header = reader.header().clone();
    // The decoded file stream feeds the same collector live generators
    // do; `finish` surfaces any mid-stream decode error afterwards.
    let mut it = reader.accesses();
    let stats = TraceStats::collect(&mut it, line_bytes);
    if let Err(e) = it.finish() {
        eprintln!("trace_corpus: decode of {file} failed: {e}");
        return ExitCode::FAILURE;
    }
    println!("{file}:");
    println!(
        "  header: fingerprint {:016x}, seed {:016x}, {} refs in {} chunk(s) of {}",
        header.fingerprint,
        header.seed,
        header.total_refs,
        header.chunk_count(),
        header.chunk_refs
    );
    for mode in [Mode::User, Mode::Kernel] {
        let m = stats.mode(mode);
        let label = match mode {
            Mode::User => "user  ",
            Mode::Kernel => "kernel",
        };
        println!(
            "  {label}: {} accesses (fetch {}, load {}, store {}), \
             footprint {} KiB, median reuse {}",
            m.accesses,
            m.by_kind[AccessKind::InstrFetch.index()],
            m.by_kind[AccessKind::Load.index()],
            m.by_kind[AccessKind::Store.index()],
            m.footprint_bytes(line_bytes) / 1024,
            match m.median_reuse_interval() {
                Some(v) => v.to_string(),
                None => "n/a".to_string(),
            }
        );
    }
    println!(
        "  mode switches: {}, kernel share: {:.1}%",
        stats.mode_switches,
        stats.kernel_share() * 100.0
    );
    if mrc {
        return stat_mrc(file);
    }
    ExitCode::SUCCESS
}

/// Way counts the `--mrc` summary reports (the top of the curve).
const MRC_STAT_WAYS: [u32; 5] = [1, 2, 4, 8, 16];

/// Second decode pass for `stat --mrc`: replays the file through the
/// default L1 pair and prints the exact L2 miss-rate curve of the
/// default 2048-set geometry at [`MRC_STAT_WAYS`] way counts.
fn stat_mrc(file: &str) -> ExitCode {
    let mut l1 = L1Pair::from_geometries(L1I_GEOMETRY, L1D_GEOMETRY);
    let sets = u32::try_from(L2BaseParams::default().sets).expect("default set count fits u32");
    let max_ways = *MRC_STAT_WAYS.iter().max().expect("non-empty");
    let mut prof = MrcProfiler::new(&[sets], max_ways).expect("default L2 geometry is valid");

    let mut reader = match TraceReader::open(Path::new(file)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("trace_corpus: cannot open {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut it = reader.accesses();
    for access in &mut it {
        let outcome = l1.access(&access);
        if let Some(demand) = outcome.demand {
            prof.observe(&demand);
        }
        if let Some(wb) = outcome.writeback {
            prof.observe(&wb);
        }
    }
    if let Err(e) = it.finish() {
        eprintln!("trace_corpus: decode of {file} failed: {e}");
        return ExitCode::FAILURE;
    }
    let curve = prof.curve(sets).expect("profiled lane exists");
    println!(
        "  mrc ({sets} sets, L1-filtered): {} L2 accesses (user {}, kernel {})",
        curve.total_accesses(),
        curve.accesses(Mode::User),
        curve.accesses(Mode::Kernel)
    );
    for &w in &MRC_STAT_WAYS {
        println!(
            "    {w:>2} way(s): hit rate {:5.1}% (user {:5.1}%, kernel {:5.1}%)",
            curve.hit_rate(w) * 100.0,
            curve.mode_hit_rate(w, Mode::User) * 100.0,
            curve.mode_hit_rate(w, Mode::Kernel) * 100.0
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("record") => record(&args[1..]),
        Some("validate") => validate(&args[1..]),
        Some("stat") => stat(&args[1..]),
        Some(other) => fail(&format!("unknown subcommand: {other}")),
        None => fail("missing subcommand"),
    }
}
