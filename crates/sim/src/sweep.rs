//! Parameter-sweep utilities and report export.
//!
//! The experiment modules cover the paper's figures; this module gives
//! downstream users the same machinery for *their own* studies: run a
//! family of design points over an app, collect [`SimReport`]s, and
//! export them as CSV or a comparison table.
//!
//! Every sweep is a thin layer over the one executor,
//! [`crate::lockstep::execute`]: [`sweep`] maps parameters to designs
//! and designs to [`SweepPoint`]s, and [`sweep_pruned`] (below) and
//! [`crate::checkpoint::sweep_checkpointed`] pre-filter the designs and
//! execute a smaller plan. The workload stream is filtered once per
//! `(app, seed)` and replayed by every design lane, so an N-point sweep
//! pays the front-end cost once instead of N times; a failing design
//! point fails in its own slot.
//!
//! # MRC-based pruning
//!
//! For grids of shared-SRAM LRU points, even one simulation per point
//! is more than necessary: a single pass of the L2-visible stream
//! through the exact Mattson profiler ([`moca_cache::MrcProfiler`])
//! yields the hit/miss counts of **every** way count at once, and
//! [`moca_energy::project_energy`] turns those counts into the energy a
//! simulation would integrate. [`sweep_pruned`] uses that to score the
//! whole LRU grid analytically, keep only the Pareto frontier of
//! (projected energy, projected cycles), and run full lock-step
//! simulation for the survivors only — non-LRU designs (partitioned,
//! STT-RAM, dynamic, non-LRU policies, prefetch-enabled configs) bypass
//! the profiler and always simulate. Every simulated report is byte-identical to the
//! same point of an unpruned sweep (`crates/sim/tests/mrc_prune.rs`).

use std::io::{self, Write};
use std::time::Instant;

use moca_cache::mrc::MAX_DEPTH;
use moca_cache::{MissRateCurve, MrcProfiler, ReplacementPolicy};
use moca_core::{L2BaseParams, L2Design};
use moca_energy::{project_energy, AccessCounts, MemoryTechnology, SramBank, Technology, Time};
use moca_trace::AppProfile;

use crate::cancel::{CancelToken, Cancelled};
use crate::config::SystemConfig;
use crate::error::SweepPointError;
use crate::lockstep::{execute, Plan, Point};
use crate::memo::RunMemo;
use crate::metrics::SimReport;
use crate::parallel::Jobs;
use crate::table::Table;
use crate::telemetry::{self, Event};

/// One point of a sweep: the parameter value, its simulation report,
/// and the wall-clock time spent simulating it.
#[derive(Debug, Clone)]
pub struct SweepPoint<P> {
    /// The swept parameter value.
    pub param: P,
    /// The resulting report.
    pub report: SimReport,
    /// Wall-clock nanoseconds spent simulating this design point
    /// (trace generation is shared across the sweep and excluded).
    pub wall_ns: u64,
}

impl<P> SweepPoint<P> {
    pub(crate) fn new(param: P, point: Point) -> Self {
        SweepPoint {
            param,
            report: point.report,
            wall_ns: point.wall_ns,
        }
    }
}

/// Runs `app` on the design produced for every parameter value, with
/// the design points sharded over `jobs` threads.
///
/// One outcome per parameter, in parameter order: the point, or the
/// [`SweepPointError`] of a design that failed to build or panicked —
/// every other point still completes. The reports (and their CSV
/// rendering minus the measured `wall_ns` column) and the failed-point
/// set are **byte-identical** for every job count, and each report is
/// byte-identical to running that design alone via
/// [`crate::workloads::run_app`].
///
/// # Examples
///
/// ```
/// use moca_sim::parallel::Jobs;
/// use moca_sim::sweep::sweep;
/// use moca_core::L2Design;
/// use moca_trace::AppProfile;
///
/// // Sweep the shared-cache associativity; ways = 0 is rejected at
/// // build time while the other points complete.
/// let points = sweep(
///     &[4u32, 0, 16],
///     |&ways| L2Design::SharedSram { ways },
///     &AppProfile::music(),
///     30_000,
///     1,
///     Jobs::new(2),
/// );
/// assert_eq!(points[1].as_ref().unwrap_err().index, 1);
/// let (four, sixteen) = (points[0].as_ref().unwrap(), points[2].as_ref().unwrap());
/// // More ways → miss rate cannot get worse by much.
/// assert!(sixteen.report.l2_miss_rate() <= four.report.l2_miss_rate() + 0.01);
/// ```
pub fn sweep<P, F>(
    params: &[P],
    to_design: F,
    app: &AppProfile,
    refs: usize,
    seed: u64,
    jobs: Jobs,
) -> Vec<Result<SweepPoint<P>, SweepPointError>>
where
    P: Clone,
    F: FnMut(&P) -> L2Design,
{
    let designs: Vec<L2Design> = params.iter().map(to_design).collect();
    let outcomes = execute(&Plan::new(app, seed, refs, &designs), jobs, None)
        .expect("uncancellable sweep cannot be cancelled");
    params
        .iter()
        .zip(outcomes)
        .map(|(p, outcome)| outcome.map(|point| SweepPoint::new(p.clone(), point)))
        .collect()
}

/// Executes the designs at `indices` (ascending) of `designs` as one
/// smaller plan; each outcome's failure carries its index into
/// `designs`. The shared tail of the pre-filtering sweeps
/// ([`sweep_pruned`] and [`crate::checkpoint::sweep_checkpointed`]).
pub(crate) fn execute_subset(
    app: &AppProfile,
    seed: u64,
    refs: usize,
    designs: &[L2Design],
    indices: &[usize],
    jobs: Jobs,
    cancel: Option<&CancelToken>,
) -> Result<Vec<Result<Point, SweepPointError>>, Cancelled> {
    let subset: Vec<L2Design> = indices.iter().map(|&i| designs[i]).collect();
    let outcomes = execute(&Plan::new(app, seed, refs, &subset), jobs, cancel)?;
    Ok(outcomes
        .into_iter()
        .zip(indices)
        .map(|(outcome, &index)| outcome.map_err(|e| SweepPointError { index, ..e }))
        .collect())
}

/// The CSV header matching [`csv_row`].
pub const CSV_HEADER: &str = "app,design,refs,cycles,cpr,l2_accesses,l2_miss_rate,\
l2_kernel_share,l2_energy_nj,leakage_nj,dynamic_nj,refresh_nj,dram_energy_nj,\
dram_reads,dram_writes,expired,refreshes,mean_active_ways,wall_ns";

/// RFC-4180 quoting for one CSV string field: a field containing a
/// comma, double quote, or line break is wrapped in double quotes with
/// embedded quotes doubled; anything else passes through unchanged (so
/// the well-behaved labels every built-in app and design uses render
/// byte-identically to before).
fn csv_field(field: &str) -> std::borrow::Cow<'_, str> {
    if !field.contains([',', '"', '\n', '\r']) {
        return std::borrow::Cow::Borrowed(field);
    }
    let mut out = String::with_capacity(field.len() + 2);
    out.push('"');
    for c in field.chars() {
        if c == '"' {
            out.push('"');
        }
        out.push(c);
    }
    out.push('"');
    std::borrow::Cow::Owned(out)
}

/// Renders one report as a CSV row (fields per [`CSV_HEADER`]).
///
/// `wall_ns` is the measured simulation time of the point (use
/// [`SweepPoint::wall_ns`], or `0` when timing was not collected).
/// The `app` and `design` string fields are RFC-4180-quoted when they
/// contain CSV metacharacters; numeric fields are never quoted.
pub fn csv_row(r: &SimReport, wall_ns: u64) -> String {
    format!(
        "{},{},{},{},{:.4},{},{:.5},{:.5},{:.3},{:.3},{:.3},{:.3},{:.3},{},{},{},{},{:.2},{}",
        csv_field(&r.app),
        csv_field(&r.design),
        r.refs,
        r.cycles,
        r.cpr(),
        r.l2_stats.accesses(),
        r.l2_miss_rate(),
        r.l2_kernel_share(),
        r.l2_energy.total().nj(),
        r.l2_energy.leakage.nj(),
        r.l2_energy.dynamic().nj(),
        r.l2_energy.refresh.nj(),
        r.dram_energy.nj(),
        r.traffic.dram_reads,
        r.traffic.dram_writes,
        r.expiry.expired,
        r.expiry.refreshes,
        r.mean_active_ways,
        wall_ns,
    )
}

/// Writes `(report, wall_ns)` pairs as CSV (header + one row per pair).
///
/// A mutable reference to any [`Write`] can be passed. Sweep results
/// adapt via `points.iter().map(|p| (&p.report, p.wall_ns))`; pass `0`
/// as `wall_ns` for reports without timing.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_csv<'a, W, I>(mut writer: W, rows: I) -> io::Result<()>
where
    W: Write,
    I: IntoIterator<Item = (&'a SimReport, u64)>,
{
    writeln!(writer, "{CSV_HEADER}")?;
    for (r, wall_ns) in rows {
        writeln!(writer, "{}", csv_row(r, wall_ns))?;
    }
    Ok(())
}

/// Builds a side-by-side comparison table of reports, normalized to the
/// first one.
///
/// # Panics
///
/// Panics if `reports` is empty.
pub fn comparison_table(reports: &[SimReport]) -> Table {
    assert!(!reports.is_empty(), "nothing to compare");
    let base = &reports[0];
    let mut t = Table::new(vec![
        "design",
        "miss rate",
        "norm energy",
        "slowdown",
        "mean ways",
    ]);
    for r in reports {
        t.row(vec![
            r.design.clone(),
            format!("{:.3}", r.l2_miss_rate()),
            format!("{:.3}", r.energy_ratio_vs(base)),
            format!("{:.3}", r.slowdown_vs(base)),
            format!("{:.1}", r.mean_active_ways),
        ]);
    }
    t
}

/// Analytic score of one LRU grid point, produced by the single
/// profiling pass behind [`sweep_pruned`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MrcScore {
    /// Way count of the scored [`L2Design::SharedSram`] point.
    pub ways: u32,
    /// Exact LRU hit count at this way count (demand + writeback
    /// stream, both modes) — equal to the simulated point's
    /// `l2_stats.hits()`.
    pub hits: u64,
    /// Exact LRU miss count at this way count.
    pub misses: u64,
    /// Projected total energy in nJ: L2 array + leakage plus the DRAM
    /// read energy of the misses.
    pub energy_nj: f64,
    /// Projected execution cycles.
    pub est_cycles: u64,
    /// `true` if the point sits on the (projected energy, projected
    /// cycles) Pareto frontier and therefore runs full simulation.
    pub survives: bool,
}

impl MrcScore {
    /// Projected energy-delay product (nJ · cycles).
    pub fn edp(&self) -> f64 {
        self.energy_nj * self.est_cycles as f64
    }
}

/// Runs the exact Mattson profiler over the L2-visible stream of
/// `(app, seed)` for `refs` references, scoring way counts
/// `1..=max_ways` of the default 2048-set shared L2 in one pass.
///
/// The profiler consumes the *same* filtered run every lock-step lane
/// replays (one [`RunMemo`] entry) — the demand request first, then the
/// dirty-victim writeback it may carry, per L1 miss — so the returned
/// curve's counts at `w` ways exactly equal the `l2_stats` of a
/// simulated [`L2Design::SharedSram`]` { ways: w }` run under the
/// default [`SystemConfig`] (LRU, no prefetch). The differential proof
/// lives in `crates/sim/tests/mrc_prune.rs` (sweep level) and
/// `crates/cache/tests/mrc_differential.rs` (cache level).
///
/// # Panics
///
/// Panics if `max_ways` is zero or exceeds [`MAX_DEPTH`].
pub fn profile_lru_grid(app: &AppProfile, refs: usize, seed: u64, max_ways: u32) -> MissRateCurve {
    let cfg = SystemConfig::default();
    let sets = u32::try_from(L2BaseParams::default().sets).expect("default set count fits u32");
    let mut prof = MrcProfiler::new(&[sets], max_ways).expect("default L2 geometry is valid");
    RunMemo::global()
        .replay(app, seed, &cfg, refs, None, |chunk| {
            for ev in chunk.events() {
                prof.observe(&ev.demand);
                if let Some(wb) = &ev.writeback {
                    prof.observe(wb);
                }
            }
        })
        .expect("uncancellable run cannot be cancelled");
    prof.curve(sets).expect("profiled lane exists")
}

/// `true` if `a` Pareto-dominates `b` in (projected energy, projected
/// cycles): no worse in both dimensions, strictly better in at least
/// one. Exact ties survive on both sides.
fn dominates(a: &MrcScore, b: &MrcScore) -> bool {
    a.energy_nj <= b.energy_nj
        && a.est_cycles <= b.est_cycles
        && (a.energy_nj < b.energy_nj || a.est_cycles < b.est_cycles)
}

/// Scores every way count of `curve` analytically and marks the
/// (projected energy, projected cycles) Pareto frontier.
///
/// The cycle projection mirrors the simulator's timing model — base
/// pipeline cost per reference, L2 read latency per L2 access, DRAM
/// latency per miss — and the energy runs through the very
/// [`project_energy`] arithmetic the simulator integrates with. Two
/// deliberate approximations keep it closed-form: every L2 access is
/// charged the bank's read latency (the simulator stalls only on
/// demands, and charges write hits the write latency), and dirty-victim
/// DRAM writes are omitted from the energy. Both shift all LRU points
/// of one workload together, so they only affect how aggressively the
/// frontier prunes — never the byte-identity of the simulated
/// survivors, which always run the full engine.
pub fn score_lru_grid(curve: &MissRateCurve, refs: usize) -> Vec<MrcScore> {
    let cfg = SystemConfig::default();
    let params = L2BaseParams::default();
    let base_cycles = (refs as f64 * cfg.base_cycles_per_ref) as u64;
    let mut scores: Vec<MrcScore> = (1..=curve.max_ways())
        .map(|w| {
            let hits = curve.total_hits(w);
            let write_hits = curve.total_write_hits(w);
            let misses = curve.total_misses(w);
            let bank = Technology::Sram(
                SramBank::new(params.way_bytes() * u64::from(w), w, params.tech)
                    .at_temperature(params.temperature),
            );
            let lat = bank.read_latency().cycles(params.clock_ghz).max(1);
            let est_cycles = base_cycles + hits * lat + misses * (lat + cfg.dram_latency_cycles);
            let counts = AccessCounts::write_allocate(hits - write_hits, write_hits, misses);
            let l2 = project_energy(
                bank,
                &counts,
                Time::from_cycles(est_cycles, params.clock_ghz),
                1.0,
            );
            MrcScore {
                ways: w,
                hits,
                misses,
                energy_nj: l2.total().nj() + (cfg.dram_read_energy * misses).nj(),
                est_cycles,
                survives: false,
            }
        })
        .collect();
    let frontier: Vec<bool> = scores
        .iter()
        .map(|s| !scores.iter().any(|other| dominates(other, s)))
        .collect();
    for (s, survives) in scores.iter_mut().zip(frontier) {
        s.survives = survives;
    }
    scores
}

/// The way count of `design` if the MRC engine can score it exactly: a
/// [`L2Design::SharedSram`] point with `1..=MAX_DEPTH` ways under an
/// LRU, prefetch-free configuration. Everything else — partitioned,
/// STT-RAM, dynamic, hybrid, a non-LRU policy, prefetch enabled — must
/// simulate.
fn scorable_ways(design: &L2Design, cfg: &SystemConfig) -> Option<u32> {
    if cfg.l2_policy != ReplacementPolicy::Lru || cfg.l2_next_line_prefetch {
        return None;
    }
    match design {
        L2Design::SharedSram { ways } if (1..=MAX_DEPTH).contains(ways) => Some(*ways),
        _ => None,
    }
}

/// Result of a pruned sweep: the simulated survivors plus the analytic
/// scores that justified skipping the rest.
#[derive(Debug, Clone)]
pub struct PrunedSweep<P> {
    /// Simulated points — the Pareto survivors plus every non-scorable
    /// design — in the original parameter order, each failure carrying
    /// its original parameter index. Each report is byte-identical to
    /// the same point of an unpruned [`sweep`].
    pub points: Vec<Result<SweepPoint<P>, SweepPointError>>,
    /// Analytic scores of way counts `1..=max_ways`, or empty when the
    /// input had fewer than two scorable grid points (a profiling pass
    /// could not have saved a simulation, so none runs).
    pub scores: Vec<MrcScore>,
    /// Scorable LRU grid points among the input designs.
    pub grid_points: usize,
    /// Grid points skipped: scored, found dominated, never simulated.
    pub pruned_points: usize,
}

impl<P> PrunedSweep<P> {
    /// Number of design points that ran full simulation.
    pub fn simulated_points(&self) -> usize {
        self.points.len()
    }
}

/// [`sweep`] with MRC-based pruning: one exact stack-distance pass
/// scores every shared-SRAM LRU point analytically, and only the
/// (projected energy, projected cycles) Pareto survivors — plus every
/// design the profiler cannot score — run full lock-step simulation,
/// sharded over `jobs` threads.
///
/// The profiling pass, the scores, and the survivor set are computed
/// before any simulation and do not depend on `jobs`, so the pruned
/// sweep inherits [`sweep`]'s determinism contract: the simulated
/// reports are byte-identical for every job count, and byte-identical
/// to the same points of an unpruned [`sweep`]
/// (`crates/sim/tests/mrc_prune.rs`).
///
/// When telemetry is enabled the profiling pass emits one `mrc` event
/// carrying the grid/pruned/simulated split and the profile wall time.
///
/// # Examples
///
/// ```
/// use moca_sim::parallel::Jobs;
/// use moca_sim::sweep::sweep_pruned;
/// use moca_core::L2Design;
/// use moca_trace::AppProfile;
///
/// let ways: Vec<u32> = (1..=12).collect();
/// let pruned = sweep_pruned(
///     &ways,
///     |&ways| L2Design::SharedSram { ways },
///     &AppProfile::game(),
///     20_000,
///     1,
///     Jobs::SERIAL,
/// );
/// assert_eq!(pruned.grid_points, 12);
/// assert_eq!(pruned.simulated_points() + pruned.pruned_points, 12);
/// // Every simulated point's hit count matches its analytic score.
/// for p in &pruned.points {
///     let p = p.as_ref().expect("valid design");
///     let score = pruned.scores[p.param as usize - 1];
///     assert_eq!(p.report.l2_stats.hits(), score.hits);
/// }
/// ```
pub fn sweep_pruned<P, F>(
    params: &[P],
    to_design: F,
    app: &AppProfile,
    refs: usize,
    seed: u64,
    jobs: Jobs,
) -> PrunedSweep<P>
where
    P: Clone,
    F: FnMut(&P) -> L2Design,
{
    let designs: Vec<L2Design> = params.iter().map(to_design).collect();
    let cfg = SystemConfig::default();
    let scorable: Vec<Option<u32>> = designs.iter().map(|d| scorable_ways(d, &cfg)).collect();
    let grid_points = scorable.iter().filter(|w| w.is_some()).count();

    let scores = if grid_points >= 2 {
        let max_ways = scorable
            .iter()
            .flatten()
            .copied()
            .max()
            .expect("grid has at least two points");
        let started = Instant::now();
        let curve = profile_lru_grid(app, refs, seed, max_ways);
        let scores = score_lru_grid(&curve, refs);
        if telemetry::enabled() {
            let simulated = scorable
                .iter()
                .flatten()
                .filter(|&&w| scores[w as usize - 1].survives)
                .count();
            telemetry::record(Event::Mrc {
                app: app.name.to_string(),
                grid: grid_points as u32,
                max_ways,
                pruned: (grid_points - simulated) as u32,
                simulated: simulated as u32,
                profile_ns: started.elapsed().as_nanos() as u64,
            });
        }
        scores
    } else {
        Vec::new()
    };

    let kept: Vec<usize> = (0..designs.len())
        .filter(|&i| match scorable[i] {
            Some(w) if !scores.is_empty() => scores[w as usize - 1].survives,
            _ => true,
        })
        .collect();
    let outcomes = execute_subset(app, seed, refs, &designs, &kept, jobs, None)
        .expect("uncancellable sweep cannot be cancelled");
    let points = kept
        .iter()
        .zip(outcomes)
        .map(|(&i, outcome)| outcome.map(|point| SweepPoint::new(params[i].clone(), point)))
        .collect();
    PrunedSweep {
        points,
        scores,
        grid_points,
        pruned_points: designs.len() - kept.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::run_app;

    fn reports() -> Vec<SimReport> {
        let app = AppProfile::music();
        vec![
            run_app(&app, L2Design::baseline(), 30_000, 1),
            run_app(&app, L2Design::static_default(), 30_000, 1),
        ]
    }

    /// The points of a sweep whose every design is valid.
    fn ok<P>(outcomes: Vec<Result<SweepPoint<P>, SweepPointError>>) -> Vec<SweepPoint<P>> {
        outcomes
            .into_iter()
            .map(|p| p.expect("valid design"))
            .collect()
    }

    /// CSV with the measured `wall_ns` column blanked, for byte-identity
    /// comparisons across job counts.
    fn csv_sans_wall<P>(points: &[SweepPoint<P>]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_csv(&mut buf, points.iter().map(|p| (&p.report, 0))).expect("write");
        buf
    }

    #[test]
    fn sweep_runs_every_point() {
        let app = AppProfile::game();
        let pts = ok(sweep(
            &[2u32, 4],
            |&w| L2Design::SharedSram { ways: w },
            &app,
            20_000,
            3,
            Jobs::SERIAL,
        ));
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].param, 2);
        assert!(pts[0].report.l2_stats.accesses() > 0);
        assert!(pts[0].wall_ns > 0, "sweep points carry simulation time");
    }

    #[test]
    fn sweep_matches_per_design_run_app() {
        let app = AppProfile::game();
        let params = [2u32, 8];
        let pts = ok(sweep(
            &params,
            |&w| L2Design::SharedSram { ways: w },
            &app,
            20_000,
            3,
            Jobs::SERIAL,
        ));
        for (p, pt) in params.iter().zip(&pts) {
            let solo = run_app(&app, L2Design::SharedSram { ways: *p }, 20_000, 3);
            assert_eq!(format!("{:?}", pt.report), format!("{solo:?}"));
        }
    }

    #[test]
    fn parallel_sweep_csv_is_byte_identical_to_serial() {
        let app = AppProfile::game();
        let to_design = |&w: &u32| L2Design::SharedSram { ways: w };
        let params = [2u32, 4, 8, 16];
        let serial = ok(sweep(&params, to_design, &app, 20_000, 3, Jobs::SERIAL));
        let serial_csv = csv_sans_wall(&serial);
        for jobs in [1, 2, 8] {
            let par = ok(sweep(&params, to_design, &app, 20_000, 3, Jobs::new(jobs)));
            assert_eq!(serial_csv, csv_sans_wall(&par), "jobs = {jobs}");
        }
    }

    #[test]
    fn csv_roundtrip_structure() {
        let rs = reports();
        let mut buf = Vec::new();
        write_csv(&mut buf, rs.iter().map(|r| (r, 42))).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let cols = CSV_HEADER.split(',').count();
        for line in &lines {
            assert_eq!(line.split(',').count(), cols, "bad row: {line}");
        }
        assert!(lines[1].starts_with("music,"));
        assert!(lines[1].ends_with(",42"), "wall_ns is the final column");
        assert!(CSV_HEADER.ends_with(",wall_ns"));
    }

    /// RFC-4180 parser for one record (which may span what looks like
    /// multiple lines when a quoted field embeds a newline).
    fn parse_csv_record(record: &str) -> Vec<String> {
        let mut fields = vec![String::new()];
        let mut chars = record.chars().peekable();
        let mut in_quotes = false;
        while let Some(c) = chars.next() {
            let cur = fields.last_mut().expect("at least one field");
            if in_quotes {
                if c == '"' {
                    if chars.peek() == Some(&'"') {
                        cur.push('"');
                        chars.next();
                    } else {
                        in_quotes = false;
                    }
                } else {
                    cur.push(c);
                }
            } else {
                match c {
                    '"' => in_quotes = true,
                    ',' => fields.push(String::new()),
                    c => cur.push(c),
                }
            }
        }
        fields
    }

    #[test]
    fn csv_field_quotes_only_when_needed() {
        assert_eq!(csv_field("music"), "music");
        assert_eq!(csv_field("shared-sram-16"), "shared-sram-16");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_field("two\nlines"), "\"two\nlines\"");
        assert_eq!(csv_field("cr\rhere"), "\"cr\rhere\"");
    }

    #[test]
    fn csv_row_round_trips_a_hostile_label() {
        use crate::config::SystemConfig;
        use crate::system::System;
        use moca_trace::TraceGenerator;

        let hostile = "evil \"app\", with,commas\nand a newline";
        let mut sys = System::new(hostile, L2Design::baseline(), SystemConfig::default())
            .expect("valid design");
        sys.run(TraceGenerator::new(&AppProfile::music(), 1).take(5_000));
        let report = sys.finish();

        let row = csv_row(&report, 7);
        let fields = parse_csv_record(&row);
        assert_eq!(fields.len(), CSV_HEADER.split(',').count());
        assert_eq!(fields[0], hostile, "the label must survive a round trip");
        assert_eq!(fields.last().map(String::as_str), Some("7"));

        // Well-behaved labels render exactly as before (no quoting).
        let plain = csv_row(&reports()[0], 0);
        assert!(!plain.contains('"'), "plain labels must stay unquoted: {plain}");
    }

    #[test]
    fn comparison_table_normalizes_to_first() {
        let rs = reports();
        let t = comparison_table(&rs);
        let rendered = t.render();
        // First data row is the baseline: norm energy 1.000, slowdown 1.000.
        let first = rendered.lines().nth(2).expect("row");
        assert!(first.contains("1.000"));
    }

    #[test]
    #[should_panic(expected = "nothing to compare")]
    fn empty_comparison_panics() {
        comparison_table(&[]);
    }

    #[test]
    fn scorable_designs_are_lru_shared_sram_only() {
        let cfg = SystemConfig::default();
        assert_eq!(
            scorable_ways(&L2Design::SharedSram { ways: 8 }, &cfg),
            Some(8)
        );
        assert_eq!(scorable_ways(&L2Design::SharedSram { ways: 0 }, &cfg), None);
        assert_eq!(
            scorable_ways(&L2Design::SharedSram { ways: MAX_DEPTH + 1 }, &cfg),
            None
        );
        assert_eq!(scorable_ways(&L2Design::static_default(), &cfg), None);
        assert_eq!(scorable_ways(&L2Design::dynamic_default(), &cfg), None);

        let mut prefetch = cfg;
        prefetch.l2_next_line_prefetch = true;
        assert_eq!(
            scorable_ways(&L2Design::SharedSram { ways: 8 }, &prefetch),
            None
        );
        let fifo = SystemConfig {
            l2_policy: ReplacementPolicy::Fifo,
            ..SystemConfig::default()
        };
        assert_eq!(scorable_ways(&L2Design::SharedSram { ways: 8 }, &fifo), None);
    }

    #[test]
    fn scores_are_exact_against_simulated_lru_points() {
        let app = AppProfile::game();
        let refs = 20_000;
        let curve = profile_lru_grid(&app, refs, 3, 16);
        let scores = score_lru_grid(&curve, refs);
        assert_eq!(scores.len(), 16);
        for &w in &[2u32, 8, 16] {
            let solo = run_app(&app, L2Design::SharedSram { ways: w }, refs, 3);
            let s = scores[w as usize - 1];
            assert_eq!(s.hits, solo.l2_stats.hits(), "hits diverged at w={w}");
            assert_eq!(s.misses, solo.l2_stats.misses(), "misses diverged at w={w}");
        }
    }

    #[test]
    fn pareto_frontier_keeps_ties_and_drops_dominated() {
        let mk = |ways, energy_nj, est_cycles| MrcScore {
            ways,
            hits: 0,
            misses: 0,
            energy_nj,
            est_cycles,
            survives: false,
        };
        // Once hits saturate, extra ways add energy at equal cycles:
        // the smaller point dominates every larger one.
        let mut scores = [
            mk(1, 10.0, 900), // frontier (cheapest)
            mk(2, 20.0, 500), // frontier (fastest at its cost)
            mk(3, 30.0, 500), // dominated by ways=2
            mk(4, 20.0, 500), // exact tie with ways=2: both survive
        ];
        let frontier: Vec<bool> = scores
            .iter()
            .map(|s| !scores.iter().any(|o| dominates(o, s)))
            .collect();
        for (s, keep) in scores.iter_mut().zip(frontier) {
            s.survives = keep;
        }
        let kept: Vec<u32> = scores.iter().filter(|s| s.survives).map(|s| s.ways).collect();
        assert_eq!(kept, vec![1, 2, 4]);
    }

    #[test]
    fn pruned_sweep_reports_match_unpruned_points() {
        let app = AppProfile::game();
        let to_design = |&w: &u32| L2Design::SharedSram { ways: w };
        let params: Vec<u32> = (1..=10).collect();
        let full = ok(sweep(&params, to_design, &app, 20_000, 3, Jobs::SERIAL));
        let pruned = sweep_pruned(&params, to_design, &app, 20_000, 3, Jobs::SERIAL);
        assert_eq!(pruned.grid_points, 10);
        assert_eq!(pruned.scores.len(), 10);
        assert!(
            pruned.pruned_points > 0,
            "a 10-point LRU grid must have dominated points"
        );
        assert_eq!(pruned.simulated_points() + pruned.pruned_points, 10);
        for p in pruned.points {
            let p = p.expect("valid design");
            let twin = &full[p.param as usize - 1];
            assert_eq!(twin.param, p.param);
            assert_eq!(csv_row(&p.report, 0), csv_row(&twin.report, 0));
        }
    }

    #[test]
    fn non_scorable_designs_always_simulate() {
        let app = AppProfile::music();
        let designs = [L2Design::static_default(), L2Design::dynamic_default()];
        let pruned = sweep_pruned(&designs, |d| *d, &app, 10_000, 1, Jobs::SERIAL);
        assert_eq!(pruned.grid_points, 0);
        assert_eq!(pruned.pruned_points, 0);
        assert!(pruned.scores.is_empty(), "nothing scorable, no profiling pass");
        assert_eq!(pruned.simulated_points(), 2);
    }

    #[test]
    fn pruned_failures_carry_their_parameter_index() {
        let app = AppProfile::music();
        let mut params: Vec<u32> = (1..=10).collect();
        params.push(0);
        let pruned = sweep_pruned(
            &params,
            |&w| L2Design::SharedSram { ways: w },
            &app,
            10_000,
            1,
            Jobs::new(2),
        );
        assert!(pruned.pruned_points > 0, "the grid must prune");
        // ways = 0 is not scorable, so it always simulates — and fails
        // in its own slot under its parameter index, not its index in
        // the smaller plan of survivors.
        let (last, rest) = pruned.points.split_last().expect("points");
        let e = last.as_ref().expect_err("ways=0 is invalid");
        assert_eq!(e.index, 10);
        assert!(rest.iter().all(Result::is_ok));
    }

    #[test]
    fn single_grid_point_skips_profiling() {
        let app = AppProfile::music();
        let pruned = sweep_pruned(
            &[4u32],
            |&w| L2Design::SharedSram { ways: w },
            &app,
            10_000,
            1,
            Jobs::SERIAL,
        );
        assert_eq!(pruned.grid_points, 1);
        assert!(pruned.scores.is_empty(), "one point cannot be pruned");
        assert_eq!(pruned.simulated_points(), 1);
    }
}
