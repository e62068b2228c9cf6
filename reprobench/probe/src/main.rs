//! `reprobench-probe` — times each simulator layer through its public
//! entry point, on the streams and designs of one benchmark workload.
//!
//! ```text
//! reprobench-probe <matrix|sweep|search> [--corpus DIR] [--journal DIR]
//!                  [--front FILE]
//! ```
//!
//! * `--corpus DIR`  time `binfmt::TraceReader` over every `.mtrc` file
//! * `--journal DIR` time a cold `Journal::resume` of `DIR`, then
//!   re-append its records into a fresh journal beside it
//! * `--front FILE`  time `nsga::rank_population` over the S1 final
//!   front printed in a `repro` report
//!
//! Prints one flat JSON object of per-unit costs (nanoseconds unless
//! the key says otherwise) and the counts they were measured over. The
//! benchmark (`run.py`) multiplies these costs by the work counts of a
//! traced `repro` run, so layer time comes from these timers only and
//! never from the program's own telemetry clocks.
//!
//! Every probe is single-threaded and calls only entry points that
//! survive a rewrite of the sweep executors: `TraceGenerator`,
//! `TraceReader`, `L1Pair`, `profile_lru_grid`/`score_lru_grid`,
//! `run_app`, `project_energy`, `rank_population` and `Journal`.

use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use moca_cache::{L1Pair, L2Request, MrcProfiler, ReplacementPolicy};
use moca_core::{L2BaseParams, L2Design};
use moca_energy::{project_energy, AccessCounts, Technology};
use moca_search::nsga::{rank_population, Fitness};
use moca_sim::experiments::{matrix::headline_designs, mrc_sweep};
use moca_sim::workloads::{run_app, Scale, EXPERIMENT_SEED};
use moca_sim::{profile_lru_grid, score_lru_grid, Journal, SimReport, SystemConfig};
use moca_trace::binfmt::TraceReader;
use moca_trace::{AppProfile, TraceGenerator};

/// Repetitions for the sub-microsecond probes (energy, score, rank), so
/// the timer's own cost and resolution vanish in the mean.
const REPS: u32 = 200;

/// Interleaved repetitions of the stream probes; the fastest counts.
const ROUNDS: usize = 3;

/// The (app, design) cells one workload simulates, at its stream length.
///
/// Every app the workload streams is covered; each app gets one design
/// the workload actually runs on it, which keeps a probe to seconds.
struct Spec {
    cells: Vec<(AppProfile, L2Design)>,
    refs: usize,
    /// Whether the workload runs the M1 grid (MRC profile + score).
    mrc: bool,
}

fn spec(workload: &str) -> Option<Spec> {
    let app = |name: &str| AppProfile::by_name(name).expect("suite app");
    let static_sram_8u4k = L2Design::StaticSram {
        user_ways: 8,
        kernel_ways: 4,
    };
    match workload {
        // F1, F2, T2 and F6 at quick scale: all ten apps, the four
        // headline designs.
        "matrix" => {
            let designs = headline_designs();
            let cells = AppProfile::suite()
                .into_iter()
                .enumerate()
                .map(|(i, a)| (a, designs[i % designs.len()]))
                .collect();
            Some(Spec {
                cells,
                refs: Scale::Quick.refs(),
                mrc: false,
            })
        }
        // F5 (browser, video, music), F8 (browser), A2 (+ office),
        // A3 (+ camera) and M1 (game) at full sweep length.
        "sweep" => Some(Spec {
            cells: vec![
                (app("browser"), L2Design::dynamic_default()),
                (app("video"), L2Design::static_default()),
                (app("music"), static_sram_8u4k),
                (app("office"), static_sram_8u4k),
                (app("camera"), L2Design::static_default()),
                (app(mrc_sweep::APP), L2Design::SharedSram { ways: 9 }),
            ],
            refs: Scale::Full.sweep_refs(),
            mrc: true,
        }),
        // M1 and S1 both stream `game` at full sweep length.
        "search" => Some(Spec {
            cells: vec![
                (app(mrc_sweep::APP), L2Design::SharedSram { ways: 9 }),
                (app(mrc_sweep::APP), L2Design::static_default()),
            ],
            refs: Scale::Full.sweep_refs(),
            mrc: true,
        }),
        _ => None,
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Generation and L1 filtering cost of one `(app, seed)` stream.
struct StreamCost {
    gen_ns: u64,
    filter_ns: u64,
    /// Demand requests plus dirty-victim writebacks the L1 pair sends on.
    l2_requests: u64,
}

/// Generates `refs` references of `app` chunk by chunk and filters each
/// chunk through the default L1 pair, timing the two steps apart.
fn front_end(app: &AppProfile, refs: usize) -> StreamCost {
    let cfg = SystemConfig::default();
    let mut l1 = L1Pair::new(
        cfg.l1i_geometry().expect("default L1I geometry is valid"),
        cfg.l1d_geometry().expect("default L1D geometry is valid"),
        ReplacementPolicy::Lru,
    );
    let mut gen = TraceGenerator::new(app, EXPERIMENT_SEED);
    let mut chunk = Vec::with_capacity(TraceGenerator::DEFAULT_CHUNK);
    let mut cost = StreamCost {
        gen_ns: 0,
        filter_ns: 0,
        l2_requests: 0,
    };
    let mut now = 0u64;
    let mut left = refs;
    while left > 0 {
        let start = Instant::now();
        let n = gen.fill(&mut chunk).min(left);
        cost.gen_ns += elapsed_ns(start);
        if n == 0 {
            break;
        }
        let start = Instant::now();
        for access in &chunk[..n] {
            let out = l1.filter(access, now);
            now += 1;
            cost.l2_requests +=
                u64::from(out.demand.is_some()) + u64::from(out.writeback.is_some());
        }
        cost.filter_ns += elapsed_ns(start);
        left -= n;
    }
    cost
}

/// Stack-distance update cost alone: the L2 requests of `app`'s stream
/// are staged first, then fed to the profiler under the timer, so the
/// front end that `profile_lru_grid` also pays is not counted twice.
fn mrc_self_ns(app: &AppProfile, refs: usize) -> u64 {
    let cfg = SystemConfig::default();
    let mut l1 = L1Pair::new(
        cfg.l1i_geometry().expect("default L1I geometry is valid"),
        cfg.l1d_geometry().expect("default L1D geometry is valid"),
        ReplacementPolicy::Lru,
    );
    let mut gen = TraceGenerator::new(app, EXPERIMENT_SEED);
    let mut chunk = Vec::with_capacity(TraceGenerator::DEFAULT_CHUNK);
    let mut requests: Vec<L2Request> = Vec::new();
    let mut left = refs;
    while left > 0 {
        let n = gen.fill(&mut chunk).min(left);
        if n == 0 {
            break;
        }
        for (i, access) in chunk[..n].iter().enumerate() {
            let out = l1.filter(access, (refs - left + i) as u64);
            requests.extend(out.demand);
            requests.extend(out.writeback);
        }
        left -= n;
    }
    let sets = u32::try_from(L2BaseParams::default().sets).expect("default set count fits u32");
    let mut prof =
        MrcProfiler::new(&[sets], mrc_sweep::GRID_WAYS).expect("default L2 geometry is valid");
    let start = Instant::now();
    for request in &requests {
        prof.observe(request);
    }
    let ns = elapsed_ns(start);
    black_box(prof.curve(sets));
    ns
}

/// Mean cost of the energy accounting that closes one report.
fn energy_finish_ns(report: &SimReport) -> u64 {
    let bank = Technology::sram(2 << 20, 16);
    let counts = AccessCounts::write_allocate(report.l2_stats.hits(), 0, report.l2_stats.misses());
    let start = Instant::now();
    for _ in 0..REPS {
        black_box(project_energy(
            black_box(bank),
            black_box(&counts),
            report.duration(),
            1.0,
        ));
    }
    elapsed_ns(start) / u64::from(REPS)
}

/// Decodes every chunk of every `.mtrc` file under `dir`.
fn decode(dir: &Path, out: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("cannot read corpus {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "mtrc"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("corpus {} holds no .mtrc file", dir.display()));
    }
    let (mut ns, mut refs, mut chunks) = (0u64, 0u64, 0u64);
    let mut buf = Vec::new();
    for file in &files {
        let mut reader =
            TraceReader::open(file).map_err(|e| format!("cannot open {}: {e}", file.display()))?;
        let count = reader.header().chunk_count();
        let start = Instant::now();
        for index in 0..count {
            reader
                .read_chunk(index, &mut buf)
                .map_err(|e| format!("{}: {e}", file.display()))?;
            refs += buf.len() as u64;
        }
        ns += elapsed_ns(start);
        chunks += u64::from(count);
    }
    out.insert("decode.ns_per_ref", ratio(ns as f64, refs as f64));
    out.insert("decode.refs_per_chunk", ratio(refs as f64, chunks as f64));
    Ok(())
}

/// Cold resume of the journal in `dir`, then a re-append of each of its
/// records into a fresh journal beside `dir`.
fn journal(dir: &Path, out: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let start = Instant::now();
    let resumed = Journal::resume(dir).map_err(|e| format!("resume {}: {e}", dir.display()))?;
    out.insert("journal.resume_s", start.elapsed().as_secs_f64());

    let text = fs::read_to_string(dir.join(Journal::FILE_NAME)).map_err(|e| e.to_string())?;
    out.insert("journal.bytes", text.len() as f64);
    let mut keys: Vec<&str> = Vec::new();
    for line in text.lines() {
        let key = line.split(',').next().unwrap_or_default();
        if resumed.contains(key) && !keys.contains(&key) {
            keys.push(key);
        }
    }
    if keys.is_empty() {
        return Err(format!("journal {} holds no record", dir.display()));
    }
    let fresh = dir.with_file_name("journal-append");
    if fresh.exists() {
        fs::remove_dir_all(&fresh).map_err(|e| e.to_string())?;
    }
    let mut sink = Journal::open(&fresh).map_err(|e| e.to_string())?;
    let start = Instant::now();
    for key in &keys {
        let payload = resumed.get(key).expect("key listed from this journal");
        sink.record(key, payload).map_err(|e| e.to_string())?;
    }
    out.insert(
        "journal.append_ns_per_record",
        elapsed_ns(start) as f64 / keys.len() as f64,
    );
    Ok(())
}

/// Ranks the S1 final front (energy, cycles, area, mode, label rows
/// under the `final front:` line of a `repro` report).
fn rank(report: &Path, out: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let text = fs::read_to_string(report).map_err(|e| format!("{}: {e}", report.display()))?;
    let rows = text
        .lines()
        .skip_while(|l| !l.starts_with("final front:"))
        .skip(2)
        .take_while(|l| !l.trim().is_empty());
    let mut fitness = Vec::new();
    let mut labels = Vec::new();
    for row in rows {
        let cols: Vec<&str> = row.split_whitespace().collect();
        let [energy, cycles, area, mode, label] = cols[..] else {
            return Err(format!("malformed front row: {row:?}"));
        };
        let bad = |what: &str| format!("bad {what} in front row {row:?}");
        fitness.push(Fitness {
            energy_nj: energy.parse().map_err(|_| bad("energy"))?,
            cycles: cycles.parse().map_err(|_| bad("cycles"))?,
            area_mm2: area.parse().map_err(|_| bad("area"))?,
            projected: mode != "measured",
        });
        labels.push(label);
    }
    if fitness.len() < 2 {
        return Err(format!("no S1 final front in {}", report.display()));
    }
    let start = Instant::now();
    for _ in 0..REPS {
        black_box(rank_population(black_box(&fitness), &labels));
    }
    out.insert("rank.ns", elapsed_ns(start) as f64 / f64::from(REPS));
    Ok(())
}

struct Args {
    workload: String,
    corpus: Option<PathBuf>,
    journal: Option<PathBuf>,
    front: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        corpus: None,
        journal: None,
        front: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .map(PathBuf::from)
                .ok_or_else(|| format!("{arg} requires a value"))
        };
        match arg.as_str() {
            "--corpus" => parsed.corpus = Some(value()?),
            "--journal" => parsed.journal = Some(value()?),
            "--front" => parsed.front = Some(value()?),
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            workload if parsed.workload.is_empty() => parsed.workload = workload.to_string(),
            extra => return Err(format!("unexpected argument {extra}")),
        }
    }
    Ok(parsed)
}

fn run(args: &Args) -> Result<BTreeMap<&'static str, f64>, String> {
    let spec =
        spec(&args.workload).ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let mut out = BTreeMap::new();
    // The journal resume goes first, while the process is cold.
    if let Some(dir) = &args.journal {
        journal(dir, &mut out)?;
    }

    // Each timing is the fastest of ROUNDS interleaved repetitions, so a
    // burst of interference from outside the process does not land in
    // the subtraction that yields the L2 replay self time.
    let mut fronts: BTreeMap<&'static str, StreamCost> = BTreeMap::new();
    let mut run_ns = vec![u64::MAX; spec.cells.len()];
    let mut energy_ns = vec![u64::MAX; spec.cells.len()];
    for _ in 0..ROUNDS {
        for (app, _) in &spec.cells {
            let cost = front_end(app, spec.refs);
            let best = fronts.entry(app.name).or_insert(StreamCost {
                gen_ns: u64::MAX,
                filter_ns: u64::MAX,
                l2_requests: cost.l2_requests,
            });
            best.gen_ns = best.gen_ns.min(cost.gen_ns);
            best.filter_ns = best.filter_ns.min(cost.filter_ns);
        }
        for (i, (app, design)) in spec.cells.iter().enumerate() {
            let start = Instant::now();
            let report = black_box(run_app(app, *design, spec.refs, EXPERIMENT_SEED));
            run_ns[i] = run_ns[i].min(elapsed_ns(start));
            energy_ns[i] = energy_ns[i].min(energy_finish_ns(&report));
        }
    }
    let refs = (spec.refs * fronts.len()) as f64;
    let gen_ns: u64 = fronts.values().map(|f| f.gen_ns).sum();
    let filter_ns: u64 = fronts.values().map(|f| f.filter_ns).sum();
    let l2_requests: u64 = fronts.values().map(|f| f.l2_requests).sum();
    out.insert("gen.ns_per_ref", ratio(gen_ns as f64, refs));
    out.insert("filter.ns_per_ref", ratio(filter_ns as f64, refs));
    out.insert("filter.l2_visible_frac", ratio(l2_requests as f64, refs));
    out.insert("chunk_refs", TraceGenerator::DEFAULT_CHUNK as f64);
    out.insert("refs", spec.refs as f64);

    // L2 replay self time: the whole scalar run minus the front end and
    // energy finish measured on the same stream.
    let mut self_ns = 0.0f64;
    let mut events = 0u64;
    for (i, (app, _)) in spec.cells.iter().enumerate() {
        let front = &fronts[app.name];
        self_ns += run_ns[i].saturating_sub(front.gen_ns + front.filter_ns + energy_ns[i]) as f64;
        events += front.l2_requests;
    }
    out.insert("replay.ns_per_event", ratio(self_ns, events as f64));
    let energy_total: u64 = energy_ns.iter().sum();
    out.insert(
        "energy.ns_per_report",
        ratio(energy_total as f64, spec.cells.len() as f64),
    );

    if spec.mrc {
        let app = AppProfile::by_name(mrc_sweep::APP).expect("suite app");
        let start = Instant::now();
        let curve = profile_lru_grid(&app, spec.refs, EXPERIMENT_SEED, mrc_sweep::GRID_WAYS);
        let profile_ns = elapsed_ns(start) as f64;
        out.insert("mrc.profile_ns_per_ref", profile_ns / spec.refs as f64);
        out.insert(
            "mrc.profile_self_ns_per_ref",
            mrc_self_ns(&app, spec.refs) as f64 / spec.refs as f64,
        );
        let start = Instant::now();
        for _ in 0..REPS {
            black_box(score_lru_grid(black_box(&curve), spec.refs));
        }
        out.insert(
            "mrc.score_ns_per_grid",
            elapsed_ns(start) as f64 / f64::from(REPS),
        );
    }
    if let Some(dir) = &args.corpus {
        decode(dir, &mut out)?;
    }
    if let Some(report) = &args.front {
        rank(report, &mut out)?;
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|a| run(&a));
    match result {
        Ok(metrics) => {
            let fields: Vec<String> = metrics
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            println!("{{{}}}", fields.join(", "));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("reprobench-probe: {e}");
            ExitCode::from(2)
        }
    }
}
