//! `repro` — regenerates every figure and table of the reproduced
//! evaluation.
//!
//! Usage:
//!
//! ```text
//! repro [--quick] [--jobs N] [--checkpoint DIR | --resume DIR]
//!       [--trace PATH] [--telemetry PATH] [--progress] [--mrc]
//!       [F1|F2|F3|F4|F5|T2|F6|F7|F8|A1..A7|M1|S1 ...]
//! ```
//!
//! With no experiment ids, runs the whole suite (this is how
//! `EXPERIMENTS.md` is produced). `--quick` uses short traces (CI scale);
//! the default is the full scale used in `EXPERIMENTS.md`. `--jobs N`
//! shards the independent simulations of each experiment over `N`
//! threads (default: all available cores); the output is bit-identical
//! for every `N`.
//!
//! The binary lives in the facade crate (not `moca-sim`) because it
//! also drives the S1 design-space search, and `moca-search` itself
//! depends on `moca-sim`.
//!
//! # Fault tolerance
//!
//! * Unknown `--flags` are rejected with a usage message (exit 2), not
//!   silently dropped.
//! * Each experiment runs panic-isolated: one failing experiment is
//!   reported and the rest still run (exit is non-zero).
//! * `--checkpoint DIR` journals every finished experiment to
//!   `DIR/journal.csv` as it completes; `--resume DIR` replays finished
//!   experiments byte-identically from the journal and only runs what is
//!   missing — a killed multi-minute run restarts in seconds.
//! * All report output is written through `io::Result`-checked writers:
//!   a full disk or closed pipe produces a real error message and a
//!   non-zero exit instead of a panic.
//! * SIGTERM/SIGINT drain gracefully: the in-flight experiment finishes
//!   (including its checkpoint append), the footer renders, the
//!   telemetry stream is flushed, and the process exits 0 — only a
//!   second-to-none SIGKILL loses work, and even then `--resume`
//!   replays everything already journaled.
//!
//! # MRC pruning
//!
//! * `--mrc` makes the M1 grid experiment prune: one exact Mattson
//!   stack-distance pass scores every shared-SRAM LRU grid point, and
//!   only the (projected energy, projected cycles) Pareto survivors run
//!   full simulation. Surviving points are byte-identical to the
//!   unpruned run; the footer reports the grid/pruned/simulated split.
//!   Pruned and unpruned M1 runs journal under distinct checkpoint keys,
//!   so a `--resume` never replays one mode's output as the other's.
//!
//! # Design-space search
//!
//! * The S1 `pareto` experiment — the seeded NSGA-II loop over the full
//!   design space — is part of the default suite, and the id `S1` runs
//!   it alone or after other ids.
//!   Under `--checkpoint`/`--resume` the search journals every finished
//!   *generation* (key `search:<fingerprint>:gen:<g>`) in addition to
//!   its rendered block, so a killed search resumes mid-run and still
//!   renders byte-identical output. The evolved front is byte-identical
//!   for every `--jobs` value.
//!
//! # Trace replay
//!
//! * `--trace PATH` registers a compiled trace corpus (one `.mtrc` file
//!   or a directory of them, see `trace_corpus record`)
//!   with the global [`moca_sim::replay::TraceRegistry`]. Sweeps whose
//!   (app, seed) identity matches a registered file decode their
//!   reference stream from disk instead of regenerating it; the report
//!   stays byte-identical either way.
//!
//! # Observability
//!
//! * `--telemetry PATH` installs the global [`telemetry`] recorder and
//!   drains the buffered JSONL event stream to `PATH` when the run
//!   finishes (see `DESIGN.md` § Telemetry & profiling for the schema;
//!   `telemetry_report` in `moca-bench` aggregates it). The S1 search
//!   emits one `search` event per generation.
//! * `--progress` prints one heartbeat line per experiment to stderr
//!   (`[progress] <id> (<i>/<N>) elapsed <s>`), so a multi-minute run
//!   is never silent. Heartbeats go to stderr on purpose: stdout stays
//!   byte-identical with and without the flag.

use std::io::{self, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use moca_core::{L2BaseParams, L2Design, LINE_BYTES};
use moca_sim::checkpoint::{experiment_key, Journal};
use moca_sim::experiments::{self, ExperimentResult, Runner};
use moca_sim::memo::mib;
use moca_sim::parallel::{catch_panic, Jobs};
use moca_sim::telemetry::{self, Event, Kind};
use moca_sim::workloads::Scale;
use moca_sim::{front_end_refs, FileTraceSource, RunMemo, SystemConfig, TraceRegistry};

/// Suite order of the experiment ids (`experiments::all` plus S1).
const SUITE_IDS: [&str; 18] = [
    "F1", "F2", "F3", "F4", "F5", "T2", "F6", "F7", "F8", "A1", "A2", "A3", "A4", "A5", "A6", "A7",
    "M1", "S1",
];

const USAGE: &str = "usage: repro [--quick] [--jobs N] [--checkpoint DIR | --resume DIR]
             [--trace PATH] [--telemetry PATH] [--progress] [--mrc] [IDS...]
  --quick           CI scale (short traces) instead of full scale
  --jobs N          worker threads per experiment (default: all cores)
  --checkpoint DIR  journal finished experiments to DIR (created if needed)
  --resume DIR      replay finished experiments from DIR, run the rest
  --trace PATH      replay from a compiled trace corpus (.mtrc file or dir)
  --telemetry PATH  write the JSONL telemetry event stream to PATH
  --progress        print per-experiment heartbeat lines to stderr
  --mrc             prune the M1 grid: simulate only Pareto survivors
  IDS               experiment ids (F1..F8, T2, A1..A7, M1, S1); default: all";

/// Parsed command line.
struct Options {
    scale: Scale,
    jobs: Jobs,
    /// Journal directory; `resume` controls whether it must pre-exist.
    checkpoint: Option<PathBuf>,
    resume: bool,
    /// Compiled trace corpus (`.mtrc` file or directory of them).
    trace: Option<PathBuf>,
    /// JSONL telemetry sink; `None` leaves the recorder uninstalled.
    telemetry: Option<PathBuf>,
    progress: bool,
    /// Prune the M1 grid experiment via the MRC engine.
    mrc: bool,
    ids: Vec<String>,
}

/// Parses the command line, rejecting unknown flags and malformed
/// values with a message for stderr.
fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        scale: Scale::Full,
        jobs: Jobs::available(),
        checkpoint: None,
        resume: false,
        trace: None,
        telemetry: None,
        progress: false,
        mrc: false,
        ids: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        // `--flag value` and `--flag=value` are both accepted.
        let (flag, mut inline_value) = match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f, Some(v.to_string())),
            _ => (arg.as_str(), None),
        };
        let mut take_value = |name: &str| -> Result<String, String> {
            if let Some(v) = inline_value.take() {
                return Ok(v);
            }
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag {
            "--quick" => opts.scale = Scale::Quick,
            "--jobs" => {
                let v = take_value("--jobs")?;
                opts.jobs = v
                    .parse()
                    .map_err(|e| format!("invalid --jobs value {v:?}: {e}"))?;
            }
            "--checkpoint" => {
                opts.checkpoint = Some(PathBuf::from(take_value("--checkpoint")?));
                opts.resume = false;
            }
            "--resume" => {
                opts.checkpoint = Some(PathBuf::from(take_value("--resume")?));
                opts.resume = true;
            }
            "--trace" => {
                opts.trace = Some(PathBuf::from(take_value("--trace")?));
            }
            "--telemetry" => {
                opts.telemetry = Some(PathBuf::from(take_value("--telemetry")?));
            }
            "--progress" => opts.progress = true,
            "--mrc" => opts.mrc = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown flag: {other}\n{USAGE}"));
            }
            id => {
                let id = id.to_ascii_uppercase();
                if !SUITE_IDS.contains(&id.as_str()) {
                    return Err(format!("unknown experiment id: {id}\n{USAGE}"));
                }
                opts.ids.push(id);
            }
        }
        if matches!(flag, "--quick" | "--progress" | "--mrc") && inline_value.is_some() {
            return Err(format!("{flag} takes no value\n{USAGE}"));
        }
        i += 1;
    }
    Ok(opts)
}

fn print_header<W: Write>(out: &mut W, scale: Scale, jobs: Jobs) -> io::Result<()> {
    writeln!(out, "# moca reproduction run")?;
    writeln!(out)?;
    writeln!(
        out,
        "scale: {:?} ({} refs/app; sweeps {} refs/app), seed {:#x}, jobs {}",
        scale,
        scale.refs(),
        scale.sweep_refs(),
        moca_sim::EXPERIMENT_SEED,
        jobs
    )?;
    writeln!(out)?;
    writeln!(out, "## T1 — system configuration")?;
    writeln!(out)?;
    writeln!(out, "{}", SystemConfig::default().describe())?;
    let ways = L2Design::baseline().physical_ways();
    writeln!(
        out,
        "L2 baseline: {} MiB, {ways}-way, {LINE_BYTES} B lines, SRAM, LRU, write-back\n\
         static design: 6 user + 4 kernel ways, STT-RAM 1s (user) / 10ms (kernel)\n\
         dynamic design: 16 ways max, STT-RAM 100ms/10ms, 500k-cycle epochs",
        (L2BaseParams::default().way_bytes() * u64::from(ways)) >> 20
    )?;
    writeln!(out)
}

/// Outcome of one experiment slot in the run.
enum Block {
    /// Run (or replayed) successfully; rendered block + claim pass flag.
    Done { rendered: String, passed: bool },
    /// The experiment panicked; it is reported but does not abort the run.
    Aborted { id: String, message: String },
}

/// Runs one experiment; the matrix experiments (F1, F2, T2, F6, F7) share
/// the runner's design matrix.
///
/// S1 receives the run journal so the search can checkpoint each
/// finished generation (and replay them on `--resume`); journal I/O
/// errors inside the search surface as an aborted block.
fn run_experiment(
    id: &str,
    opts: &Options,
    runner: &mut Runner,
    journal: Option<&mut Journal>,
) -> Result<ExperimentResult, String> {
    catch_panic(|| match id {
        // M1 is the only experiment `--mrc` changes: with it, dominated
        // grid points are pruned instead of simulated.
        "M1" => experiments::mrc_sweep::run_with(opts.scale, opts.jobs, opts.mrc),
        // S1 checkpoints per generation through the run journal.
        "S1" => moca_search::experiment::run_with(opts.scale, opts.jobs, journal),
        _ => runner.run(id).expect("id validated at parse time"),
    })
}

/// The journal key of experiment `id` in this run.
fn journal_key(id: &str, opts: &Options) -> String {
    // Pruned and unpruned M1 render different simulated-point sets;
    // distinct keys keep a --resume from replaying the wrong mode.
    let journal_id = if id == "M1" && opts.mrc { "M1:mrc" } else { id };
    experiment_key(
        journal_id,
        &format!("{:?}", opts.scale),
        moca_sim::EXPERIMENT_SEED,
    )
}

/// Registers a compiled trace corpus (one `.mtrc` file or a directory of
/// them, sorted by file name for deterministic registration order) with
/// the global [`TraceRegistry`]. Returns the number of files registered.
fn load_corpus(path: &std::path::Path) -> Result<usize, String> {
    let mut files: Vec<PathBuf> = Vec::new();
    if path.is_dir() {
        let entries = std::fs::read_dir(path)
            .map_err(|e| format!("cannot read trace corpus dir {}: {e}", path.display()))?;
        for entry in entries {
            let entry = entry
                .map_err(|e| format!("cannot read trace corpus dir {}: {e}", path.display()))?;
            let p = entry.path();
            if p.is_file() {
                files.push(p);
            }
        }
        files.sort();
        if files.is_empty() {
            return Err(format!(
                "trace corpus dir {} contains no files",
                path.display()
            ));
        }
    } else {
        files.push(path.to_path_buf());
    }
    let registry = TraceRegistry::global();
    for file in &files {
        let source = FileTraceSource::open(file)
            .map_err(|e| format!("cannot load trace {}: {e}", file.display()))?;
        registry.register(source);
    }
    Ok(files.len())
}

fn run(opts: &Options) -> io::Result<ExitCode> {
    let stdout = io::stdout();
    let mut out = stdout.lock();

    let mut journal = match &opts.checkpoint {
        Some(dir) if opts.resume => Some(Journal::resume(dir)?),
        Some(dir) => Some(Journal::open(dir)?),
        None => None,
    };

    let corpus_files = match &opts.trace {
        Some(path) => match load_corpus(path) {
            Ok(n) => Some(n),
            Err(e) => {
                eprintln!("repro: {e}");
                return Ok(ExitCode::FAILURE);
            }
        },
        None => None,
    };

    if opts.telemetry.is_some() {
        telemetry::install();
    }

    // Graceful drain: the first SIGTERM/SIGINT sets a flag that is
    // polled between experiments, so the in-flight experiment (and its
    // checkpoint append) always completes, the footer renders, and the
    // telemetry stream is flushed before a clean exit.
    moca_sim::signals::install_shutdown_handlers();

    print_header(&mut out, opts.scale, opts.jobs)?;

    let ids: Vec<&str> = if opts.ids.is_empty() {
        SUITE_IDS.to_vec()
    } else {
        opts.ids.iter().map(String::as_str).collect()
    };

    let start = Instant::now();
    // The shared matrix covers only the experiments that will run:
    // blocks replayed from the journal need no simulations.
    let mut runner = Runner::new(
        opts.scale,
        opts.jobs,
        ids.iter().copied().filter(|id| {
            journal
                .as_ref()
                .and_then(|j| j.get(&journal_key(id, opts)))
                .is_none()
        }),
    );
    let mut blocks_failed = 0usize;
    let mut aborted = 0usize;
    let mut replayed = 0usize;
    let mut recorded = 0usize;

    let mut drained_after: Option<usize> = None;
    for (idx, id) in ids.iter().enumerate() {
        if moca_sim::signals::shutdown_requested() {
            drained_after = Some(idx);
            eprintln!(
                "repro: shutdown requested, draining after {idx}/{} experiment(s)",
                ids.len()
            );
            break;
        }
        if opts.progress {
            eprintln!(
                "[progress] {id} ({}/{}) elapsed {:.1}s",
                idx + 1,
                ids.len(),
                start.elapsed().as_secs_f64()
            );
        }
        telemetry::set_scope(id);
        let key = journal_key(id, opts);
        let block = match journal.as_ref().and_then(|j| j.get(&key)) {
            Some(rendered) => {
                replayed += 1;
                if let Some(j) = journal.as_ref() {
                    j.note_replay(&key);
                }
                Block::Done {
                    passed: !rendered.contains("[FAIL]"),
                    rendered: rendered.to_string(),
                }
            }
            None => match run_experiment(id, opts, &mut runner, journal.as_mut()) {
                Ok(result) => {
                    let rendered = result.render();
                    if let Some(j) = journal.as_mut() {
                        j.record(&key, &rendered)?;
                        recorded += 1;
                    }
                    Block::Done {
                        passed: result.passed(),
                        rendered,
                    }
                }
                Err(message) => Block::Aborted {
                    id: (*id).to_string(),
                    message,
                },
            },
        };
        match block {
            Block::Done { rendered, passed } => {
                write!(out, "{rendered}")?;
                if !passed {
                    blocks_failed += 1;
                }
            }
            Block::Aborted { id, message } => {
                writeln!(out, "## {id} — ABORTED\n")?;
                writeln!(out, "experiment panicked: {message}")?;
                writeln!(
                    out,
                    "(remaining experiments continue; exit will be non-zero)\n"
                )?;
                aborted += 1;
            }
        }
        // Keep completed blocks visible even if the process dies later.
        out.flush()?;
    }

    writeln!(out, "---")?;
    let memo = RunMemo::global().stats();
    let filtered_refs = front_end_refs();
    writeln!(
        out,
        "{} experiments, {} failed claim set(s), {} aborted, wall time {:.1}s",
        drained_after.unwrap_or(ids.len()),
        blocks_failed,
        aborted,
        start.elapsed().as_secs_f64()
    )?;
    if let Some(done) = drained_after {
        // Run-local footer line (after ---), so interrupted output stays
        // byte-comparable with uninterrupted output above the separator.
        writeln!(
            out,
            "interrupted: drained cleanly after {done}/{} experiment(s)",
            ids.len()
        )?;
    }
    writeln!(
        out,
        "filtered-run memo: {} run(s) cached, {:.1} of {:.1} MiB, {} hit(s) / {} miss(es), \
         {} rejected, {} front-end ref(s)",
        memo.runs,
        mib(memo.used_bytes),
        mib(memo.cap_bytes),
        memo.hits,
        memo.misses,
        memo.rejected,
        filtered_refs
    )?;
    if let Some(warning) = memo.rejection_warning() {
        writeln!(out, "{warning}")?;
    }
    if let Some((grid, pruned, simulated)) = experiments::mrc_sweep::last_prune_counts() {
        writeln!(
            out,
            "mrc pruning: {grid} grid point(s), {pruned} pruned, {simulated} simulated"
        )?;
    }
    if let (Some(j), Some(dir)) = (&journal, &opts.checkpoint) {
        writeln!(
            out,
            "checkpoint: {replayed} replayed, {recorded} recorded, journal {} ({} entries)",
            dir.join(Journal::FILE_NAME).display(),
            j.len()
        )?;
    }
    if let Some(files) = corpus_files {
        let io = TraceRegistry::global().stats();
        writeln!(
            out,
            "trace corpus: {} file(s), {} chunk(s) decoded ({} KiB read), \
             {} checksum(s) verified, {} decode error(s)",
            files,
            io.chunks_decoded,
            io.bytes_read / 1024,
            io.checksum_verifies,
            io.decode_errors
        )?;
    }
    out.flush()?;

    if let Some(path) = &opts.telemetry {
        // End-of-run memo snapshot, then drain the buffered stream.
        telemetry::set_scope("suite");
        telemetry::record(
            Event::new(Kind::Memo)
                .num("runs", memo.runs as u64)
                .num("used_bytes", memo.used_bytes as u64)
                .num("cap_bytes", memo.cap_bytes as u64)
                .num("hits", memo.hits)
                .num("misses", memo.misses)
                // Built runs not cached because the memo was full.
                .num("rejected", memo.rejected)
                // Refs generated or decoded and L1-filtered, all front ends.
                .num("front_end_refs", filtered_refs),
        );
        if corpus_files.is_some() {
            telemetry::record(TraceRegistry::global().stats().to_event());
        }
        let rec = telemetry::global().expect("recorder installed above");
        let file = std::fs::File::create(path)?;
        let events = rec.write_jsonl(io::BufWriter::new(file))?;
        eprintln!(
            "telemetry: {} event(s) written to {}",
            events,
            path.display()
        );
    }
    Ok(if blocks_failed == 0 && aborted == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("repro: i/o error: {e}");
            ExitCode::FAILURE
        }
    }
}
