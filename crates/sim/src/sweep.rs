//! MRC-pruned sweeps and report export.
//!
//! A family of design points over an app runs through the one executor,
//! [`crate::lockstep::execute`]: build the design list, hand it to a
//! [`Plan`], and export the [`SimReport`]s as CSV or a comparison table.
//! The workload stream is filtered once per `(app, seed)` and replayed
//! by every design lane, so an N-point sweep pays the front-end cost
//! once instead of N times; a failing design point fails in its own
//! slot. [`sweep_pruned`] (below) pre-filters the designs and executes a
//! smaller plan.
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
//! simulation for the survivors only — every other design (partitioned,
//! STT-RAM, dynamic, hybrid) bypasses the profiler and always simulates.
//! Every simulated report is byte-identical to the same point of an
//! unpruned sweep (`crates/sim/tests/mrc_prune.rs`).

use std::io::{self, Write};
use std::time::Instant;

use moca_cache::mrc::MAX_DEPTH;
use moca_cache::{MissRateCurve, MrcProfiler};
use moca_core::{L2BaseParams, L2Design, CLOCK_GHZ};
use moca_energy::{project_energy, AccessCounts, MemoryTechnology, SramBank, Technology, Time};
use moca_trace::AppProfile;

use crate::config::{BASE_CYCLES_PER_REF, DRAM_LATENCY_CYCLES, DRAM_READ_ENERGY};
use crate::error::SweepPointError;
use crate::lockstep::{execute, Plan, Point};
use crate::memo::RunMemo;
use crate::metrics::SimReport;
use crate::parallel::Jobs;
use crate::stream::TraceStream;
use crate::telemetry::{self, Event, Kind};

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
/// [`Point::wall_ns`], or `0` when timing was not collected).
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
/// A mutable reference to any [`Write`] can be passed. Executed points
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
/// default [`SystemConfig`](crate::config::SystemConfig) (LRU, no
/// prefetch). The differential proof lives in
/// `crates/sim/tests/mrc_prune.rs` (sweep level) and
/// `crates/cache/tests/mrc_differential.rs` (cache level).
///
/// # Panics
///
/// Panics if `max_ways` is zero or exceeds [`MAX_DEPTH`].
pub fn profile_lru_grid(app: &AppProfile, refs: usize, seed: u64, max_ways: u32) -> MissRateCurve {
    let sets = u32::try_from(L2BaseParams::default().sets).expect("default set count fits u32");
    let mut prof = MrcProfiler::new(&[sets], max_ways).expect("default L2 geometry is valid");
    RunMemo::global().replay(TraceStream::new(app, seed), refs, |chunk| {
        for ev in chunk.events() {
            prof.observe(&ev.demand);
            if let Some(wb) = &ev.writeback {
                prof.observe(wb);
            }
        }
    });
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
    let params = L2BaseParams::default();
    let base_cycles = (refs as f64 * BASE_CYCLES_PER_REF) as u64;
    let mut scores: Vec<MrcScore> = (1..=curve.max_ways())
        .map(|w| {
            let hits = curve.total_hits(w);
            let write_hits = curve.total_write_hits(w);
            let misses = curve.total_misses(w);
            let bank = Technology::Sram(SramBank::new(params.way_bytes() * u64::from(w), w));
            let lat = bank.read_latency().cycles(CLOCK_GHZ).max(1);
            let est_cycles = base_cycles + hits * lat + misses * (lat + DRAM_LATENCY_CYCLES);
            let counts = AccessCounts::write_allocate(hits - write_hits, write_hits, misses);
            let l2 = project_energy(bank, &counts, Time::from_cycles(est_cycles, CLOCK_GHZ), 1.0);
            MrcScore {
                ways: w,
                hits,
                misses,
                energy_nj: l2.total().nj() + (DRAM_READ_ENERGY * misses).nj(),
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
/// [`L2Design::SharedSram`] point with `1..=MAX_DEPTH` ways (the L2 is
/// always LRU, and a pruned sweep runs the prefetch-free default
/// configuration). Everything else — partitioned, STT-RAM, dynamic,
/// hybrid — must simulate.
fn scorable_ways(design: &L2Design) -> Option<u32> {
    match design {
        L2Design::SharedSram { ways } if (1..=MAX_DEPTH).contains(ways) => Some(*ways),
        _ => None,
    }
}

/// Result of a pruned sweep: one slot per input design plus the
/// analytic scores that justified skipping the pruned ones.
#[derive(Debug, Clone)]
pub struct PrunedSweep {
    /// One slot per input design, in input order: `None` for a pruned
    /// design, otherwise its lane's outcome — a failure carries its
    /// input index. Each report is byte-identical to the same design of
    /// an unpruned [`execute`].
    pub points: Vec<Option<Result<Point, SweepPointError>>>,
    /// Analytic scores of way counts `1..=max_ways`, or empty when the
    /// input had fewer than two scorable grid points (a profiling pass
    /// could not have saved a simulation, so none runs).
    pub scores: Vec<MrcScore>,
    /// Scorable LRU grid points among the input designs.
    pub grid_points: usize,
    /// Grid points skipped: scored, found dominated, never simulated.
    pub pruned_points: usize,
}

impl PrunedSweep {
    /// Number of design points that ran full simulation.
    pub fn simulated_points(&self) -> usize {
        self.points.iter().filter(|p| p.is_some()).count()
    }
}

/// Runs `designs` over `app` with MRC-based pruning: one exact
/// stack-distance pass scores every shared-SRAM LRU point analytically,
/// and only the (projected energy, projected cycles) Pareto survivors —
/// plus every design the profiler cannot score — run full lock-step
/// simulation, sharded over `jobs` threads.
///
/// The profiling pass, the scores, and the survivor set are computed
/// before any simulation and do not depend on `jobs`, so the pruned
/// sweep inherits [`execute`]'s determinism contract: the simulated
/// reports are byte-identical for every job count, and byte-identical
/// to the same designs of an unpruned [`execute`]
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
/// let designs: Vec<L2Design> = (1..=12).map(|ways| L2Design::SharedSram { ways }).collect();
/// let pruned = sweep_pruned(&designs, &AppProfile::game(), 20_000, 1, Jobs::SERIAL);
/// assert_eq!(pruned.grid_points, 12);
/// assert_eq!(pruned.simulated_points() + pruned.pruned_points, 12);
/// // Every simulated point's hit count matches its analytic score.
/// for (score, slot) in pruned.scores.iter().zip(&pruned.points) {
///     if let Some(point) = slot {
///         let point = point.as_ref().expect("valid design");
///         assert_eq!(point.report.l2_stats.hits(), score.hits);
///     }
/// }
/// ```
pub fn sweep_pruned(
    designs: &[L2Design],
    app: &AppProfile,
    refs: usize,
    seed: u64,
    jobs: Jobs,
) -> PrunedSweep {
    let scorable: Vec<Option<u32>> = designs.iter().map(scorable_ways).collect();
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
            telemetry::record(
                Event::new(Kind::Mrc)
                    .str("app", app.name)
                    // LRU grid points scored, and the largest way count.
                    .num("grid", grid_points as u64)
                    .num("max_ways", u64::from(max_ways))
                    // Skipped without simulation / run in full.
                    .num("pruned", (grid_points - simulated) as u64)
                    .num("simulated", simulated as u64)
                    // The profiling pass (stream + stack updates).
                    .num("profile_ns", started.elapsed().as_nanos() as u64),
            );
        }
        scores
    } else {
        Vec::new()
    };

    let kept: Vec<bool> = scorable
        .iter()
        .map(|ways| match ways {
            Some(w) if !scores.is_empty() => scores[*w as usize - 1].survives,
            _ => true,
        })
        .collect();
    // The survivors run as one smaller plan; each failure is re-indexed
    // from the plan to the input list.
    let survivors: Vec<L2Design> = designs
        .iter()
        .zip(&kept)
        .filter(|(_, &keep)| keep)
        .map(|(d, _)| *d)
        .collect();
    let mut outcomes = execute(&Plan::new(app, seed, refs, &survivors), jobs).into_iter();
    let points = kept
        .iter()
        .enumerate()
        .map(|(index, &keep)| {
            let outcome = if keep { outcomes.next() } else { None };
            outcome.map(|o| o.map_err(|e| SweepPointError { index, ..e }))
        })
        .collect();
    PrunedSweep {
        points,
        scores,
        grid_points,
        pruned_points: designs.len() - survivors.len(),
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

    #[test]
    fn executed_points_carry_reports_and_time() {
        let app = AppProfile::game();
        let designs = [
            L2Design::SharedSram { ways: 2 },
            L2Design::SharedSram { ways: 4 },
        ];
        let pts = execute(&Plan::new(&app, 3, 20_000, &designs), Jobs::SERIAL);
        assert_eq!(pts.len(), 2);
        let first = pts[0].as_ref().expect("valid design");
        assert_eq!(first.report.design, designs[0].label());
        assert!(first.report.l2_stats.accesses() > 0);
        assert!(first.wall_ns > 0, "executed points carry simulation time");
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
        assert!(
            !plain.contains('"'),
            "plain labels must stay unquoted: {plain}"
        );
    }

    #[test]
    fn scorable_designs_are_lru_shared_sram_only() {
        assert_eq!(scorable_ways(&L2Design::SharedSram { ways: 8 }), Some(8));
        assert_eq!(scorable_ways(&L2Design::SharedSram { ways: 0 }), None);
        assert_eq!(
            scorable_ways(&L2Design::SharedSram {
                ways: MAX_DEPTH + 1
            }),
            None
        );
        assert_eq!(scorable_ways(&L2Design::static_default()), None);
        assert_eq!(scorable_ways(&L2Design::dynamic_default()), None);
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
        let kept: Vec<u32> = scores
            .iter()
            .filter(|s| s.survives)
            .map(|s| s.ways)
            .collect();
        assert_eq!(kept, vec![1, 2, 4]);
    }

    /// `ways`-way shared-SRAM designs, one per entry.
    fn grid(ways: impl IntoIterator<Item = u32>) -> Vec<L2Design> {
        ways.into_iter()
            .map(|ways| L2Design::SharedSram { ways })
            .collect()
    }

    #[test]
    fn pruned_sweep_reports_match_unpruned_points() {
        let app = AppProfile::game();
        let designs = grid(1..=10);
        let full = execute(&Plan::new(&app, 3, 20_000, &designs), Jobs::SERIAL);
        let pruned = sweep_pruned(&designs, &app, 20_000, 3, Jobs::SERIAL);
        assert_eq!(pruned.grid_points, 10);
        assert_eq!(pruned.scores.len(), 10);
        assert!(
            pruned.pruned_points > 0,
            "a 10-point LRU grid must have dominated points"
        );
        assert_eq!(pruned.points.len(), 10, "one slot per input design");
        assert_eq!(pruned.simulated_points() + pruned.pruned_points, 10);
        assert_eq!(
            pruned.points.iter().flatten().count(),
            pruned.simulated_points()
        );
        for ((slot, twin), score) in pruned.points.iter().zip(&full).zip(&pruned.scores) {
            assert_eq!(slot.is_some(), score.survives, "ways = {}", score.ways);
            if let Some(p) = slot {
                let p = p.as_ref().expect("valid design");
                let twin = twin.as_ref().expect("valid design");
                assert_eq!(csv_row(&p.report, 0), csv_row(&twin.report, 0));
            }
        }
    }

    #[test]
    fn non_scorable_designs_always_simulate() {
        let app = AppProfile::music();
        let designs = [L2Design::static_default(), L2Design::dynamic_default()];
        let pruned = sweep_pruned(&designs, &app, 10_000, 1, Jobs::SERIAL);
        assert_eq!(pruned.grid_points, 0);
        assert_eq!(pruned.pruned_points, 0);
        assert!(
            pruned.scores.is_empty(),
            "nothing scorable, no profiling pass"
        );
        assert_eq!(pruned.simulated_points(), 2);
        assert!(pruned.points.iter().all(Option::is_some));
    }

    #[test]
    fn pruned_failures_carry_their_input_index() {
        let app = AppProfile::music();
        let designs = grid((1..=10).chain([0]));
        let pruned = sweep_pruned(&designs, &app, 10_000, 1, Jobs::new(2));
        assert!(pruned.pruned_points > 0, "the grid must prune");
        // ways = 0 is not scorable, so it always simulates — and fails
        // in its own slot under its input index, not its index in the
        // smaller plan of survivors.
        let (last, rest) = pruned.points.split_last().expect("points");
        let e = last
            .as_ref()
            .expect("ways=0 simulates")
            .as_ref()
            .expect_err("ways=0 is invalid");
        assert_eq!(e.index, 10);
        assert!(rest.iter().flatten().all(Result::is_ok));
    }

    #[test]
    fn single_grid_point_skips_profiling() {
        let app = AppProfile::music();
        let pruned = sweep_pruned(&grid([4]), &app, 10_000, 1, Jobs::SERIAL);
        assert_eq!(pruned.grid_points, 1);
        assert!(pruned.scores.is_empty(), "one point cannot be pruned");
        assert_eq!(pruned.simulated_points(), 1);
    }
}
