//! The seeded NSGA-II search loop.
//!
//! # Determinism contract
//!
//! For a fixed [`SearchConfig`], the final front — and every rendered
//! byte of [`SearchOutcome::render`] — is identical across any
//! `--jobs` value and across a kill/`--resume` cycle:
//!
//! * Variation is driven by a **stateless per-generation RNG**,
//!   re-seeded from `(fingerprint, generation)`; there is no RNG state
//!   to checkpoint or to desynchronize.
//! * Candidate evaluation fans into
//!   [`moca_sim::sweep::sweep_pruned`], whose outputs are
//!   byte-identical for every worker count.
//! * Every ordered collection is a `Vec`; hash maps are index-only
//!   lookaside (label → archive slot) and are never iterated.
//! * All tie-breaks (crowding sorts, selection, front ordering) end on
//!   the design label, making each order total.
//!
//! # Checkpointing
//!
//! After each generation the engine journals its *entire* state —
//! population, per-generation statistics, and the full evaluation
//! archive (genome + bit-exact fitness) — under
//! `search:<fingerprint>:gen:<g>`. The archive must be replayed rather
//! than re-derived because a candidate's prune-vs-simulate fate depends
//! on its evaluation *batch* (the MRC profiler scores a batch-wide LRU
//! grid): re-evaluating an old genome inside a different batch could
//! legally flip it between projected and measured fitness. Replaying
//! the recorded triple sidesteps the question and keeps resumed output
//! byte-identical.

use std::io;
use std::time::Instant;

use moca_core::L2BaseParams;
use moca_energy::{bank_area_mm2, try_capacity_bytes, ArithmeticOverflow, Technology};
use moca_sim::cancel::CancelToken;
use moca_sim::checkpoint::Journal;
use moca_sim::parallel::Jobs;
use moca_sim::sweep::sweep_pruned;
use moca_sim::telemetry::{self, Event};
use moca_sim::workloads::Scale;
use moca_trace::fxhash::{FxHashMap, FxHasher};
use moca_trace::rng::Xoshiro256;
use moca_trace::AppProfile;

use crate::genome::Genome;
use crate::nsga::{self, Fitness, Ranked};

/// Per-field mutation probability of the variation operator.
const MUTATION_RATE: f64 = 0.30;

/// Identity of one search: every field enters the fingerprint, so two
/// searches share journal keys iff they would produce identical output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchConfig {
    /// Workload (app profile) name.
    pub app: String,
    /// Trace seed shared by every candidate evaluation.
    pub seed: u64,
    /// References per candidate evaluation.
    pub refs: usize,
    /// Population size.
    pub population: usize,
    /// Number of generations (generation 0 is the seeded initial
    /// population; each later generation adds one offspring round).
    pub generations: u32,
}

impl SearchConfig {
    /// The standard search at a given scale: the `game` workload over
    /// the scale's sweep-length traces, seeded with
    /// [`moca_sim::EXPERIMENT_SEED`].
    pub fn for_scale(scale: Scale) -> SearchConfig {
        let (population, generations) = match scale {
            Scale::Smoke => (8, 2),
            Scale::Quick => (12, 4),
            Scale::Full => (24, 10),
        };
        SearchConfig {
            app: "game".to_string(),
            seed: moca_sim::EXPERIMENT_SEED,
            refs: scale.sweep_refs(),
            population,
            generations,
        }
    }

    /// The search fingerprint: an fxhash of the canonical identity
    /// string, used to key journal entries and seed the per-generation
    /// RNG streams.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::Hasher;
        let canonical = format!(
            "search:{}:{:#018x}:{}:{}:{}",
            self.app, self.seed, self.refs, self.population, self.generations
        );
        let mut h = FxHasher::default();
        h.write(canonical.as_bytes());
        h.finish()
    }
}

/// One evaluated design in the archive.
#[derive(Debug, Clone)]
pub struct EvalRecord {
    /// The evolved genome.
    pub genome: Genome,
    /// The decoded design's label (the archive's unique key).
    pub label: String,
    /// Its objective triple.
    pub fitness: Fitness,
}

/// Deterministic per-generation statistics (rendered and journaled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenStats {
    /// Generation index.
    pub generation: u32,
    /// Candidates proposed this generation (population size).
    pub evaluated: u32,
    /// Fresh candidates served by the analytic MRC fast path.
    pub pruned: u32,
    /// Fresh candidates that ran a full timing simulation.
    pub simulated: u32,
    /// Candidates served from the cross-generation archive.
    pub cached: u32,
    /// Non-dominated members of the selected population.
    pub front_size: u32,
    /// Normalized (energy, cycles) hypervolume of that front, in
    /// parts per thousand.
    pub hv_permille: u64,
}

/// The completed search: archive, final population, and final front.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The search identity.
    pub config: SearchConfig,
    /// [`SearchConfig::fingerprint`] of `config`.
    pub fingerprint: u64,
    /// Per-generation statistics, generation order.
    pub stats: Vec<GenStats>,
    /// Every design evaluated, in evaluation order.
    pub archive: Vec<EvalRecord>,
    /// Archive indices of the final population.
    pub population: Vec<usize>,
    /// Archive indices of the final front: the non-dominated set over
    /// the whole archive, sorted by (energy, cycles, label).
    pub front: Vec<usize>,
}

impl SearchOutcome {
    /// Renders the deterministic search report (config header,
    /// per-generation table, final front table). Contains no timing and
    /// is byte-identical across worker counts and kill/resume cycles.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let c = &self.config;
        let _ = writeln!(
            s,
            "design-space search: app={} seed={:#x} refs={} pop={} gens={} fingerprint={:#018x}",
            c.app, c.seed, c.refs, c.population, c.generations, self.fingerprint
        );
        let _ = writeln!(s);
        let _ = writeln!(
            s,
            "gen  evaluated  pruned  simulated  cached  front  hv-permille"
        );
        for g in &self.stats {
            let _ = writeln!(
                s,
                "{:>3}  {:>9}  {:>6}  {:>9}  {:>6}  {:>5}  {:>11}",
                g.generation, g.evaluated, g.pruned, g.simulated, g.cached, g.front_size,
                g.hv_permille
            );
        }
        let _ = writeln!(s);
        let _ = writeln!(
            s,
            "final front: {} design(s), non-dominated over {} evaluated",
            self.front.len(),
            self.archive.len()
        );
        let _ = writeln!(s, "  energy-nJ      cycles  area-mm2  mode       design");
        for &i in &self.front {
            let r = &self.archive[i];
            let _ = writeln!(
                s,
                "  {:>9.3}  {:>10}  {:>8.3}  {:<9}  {}",
                r.fitness.energy_nj,
                r.fitness.cycles,
                r.fitness.area_mm2,
                if r.fitness.projected { "projected" } else { "measured" },
                r.label
            );
        }
        s
    }

    /// The archive record of `label`, if that design was evaluated.
    pub fn record_for(&self, label: &str) -> Option<&EvalRecord> {
        self.archive.iter().find(|r| r.label == label)
    }
}

/// Journal key of generation `g` of the search with fingerprint `fp`.
pub fn generation_key(fp: u64, generation: u32) -> String {
    format!("search:{fp:016x}:gen:{generation}")
}

/// Journal key of a served search's final rendered report.
pub fn result_key(fp: u64) -> String {
    format!("search:{fp:016x}:result")
}

/// Area objective of one design: the checked capacity product feeds the
/// same bank area model as the A1 experiment (STT banks use the user
/// segment's cell, matching `physical_bank` there).
pub fn design_area_mm2(genome: &Genome) -> Result<f64, ArithmeticOverflow> {
    use moca_core::L2Design;
    let design = genome.decode();
    let ways = design.physical_ways();
    let capacity = try_capacity_bytes(L2BaseParams::default().way_bytes(), ways)?;
    let bank = match design {
        L2Design::SharedSram { .. }
        | L2Design::StaticSram { .. }
        | L2Design::DynamicSram { .. } => Technology::sram(capacity, ways),
        L2Design::SharedStt { retention, .. } => Technology::sttram(capacity, ways, retention),
        L2Design::StaticMultiRetention { user_retention, .. }
        | L2Design::DynamicStt { user_retention, .. } => {
            Technology::sttram(capacity, ways, user_retention)
        }
    };
    Ok(bank_area_mm2(&bank))
}

/// Mutable search state (archive + population), shared by the live and
/// replay paths.
struct State {
    archive: Vec<EvalRecord>,
    /// Label → archive index. Lookaside only: never iterated, so its
    /// hash order cannot leak into any output.
    index: FxHashMap<String, usize>,
    population: Vec<usize>,
    stats: Vec<GenStats>,
}

impl State {
    fn new() -> State {
        State {
            archive: Vec::new(),
            index: FxHashMap::default(),
            population: Vec::new(),
            stats: Vec::new(),
        }
    }

    fn insert(&mut self, genome: Genome, fitness: Fitness) -> usize {
        let label = genome.decode().label();
        debug_assert!(!self.index.contains_key(&label));
        let slot = self.archive.len();
        self.index.insert(label.clone(), slot);
        self.archive.push(EvalRecord {
            genome,
            label,
            fitness,
        });
        slot
    }

    /// `pop=…` / `stats=…` / `archive=…` checkpoint payload after one
    /// generation. The archive section carries the *full* cache: see
    /// the module docs for why it cannot be re-derived.
    fn serialize(&self) -> String {
        let pop: Vec<String> = self.population.iter().map(|i| i.to_string()).collect();
        let g = self.stats.last().expect("serialized after a generation");
        let recs: Vec<String> = self
            .archive
            .iter()
            .map(|r| format!("{}|{}", r.genome.serialize(), r.fitness.serialize()))
            .collect();
        format!(
            "v1 pop={} stats={},{},{},{},{},{},{} archive={}",
            pop.join(","),
            g.generation,
            g.evaluated,
            g.pruned,
            g.simulated,
            g.cached,
            g.front_size,
            g.hv_permille,
            recs.join(";")
        )
    }

    /// Restores a generation checkpoint produced by [`State::serialize`],
    /// replacing the archive and population wholesale.
    fn restore(&mut self, payload: &str) -> Option<()> {
        let rest = payload.strip_prefix("v1 pop=")?;
        let (pop, rest) = rest.split_once(" stats=")?;
        let (stats, archive) = rest.split_once(" archive=")?;
        let mut new_archive: Vec<(Genome, Fitness)> = Vec::new();
        if !archive.is_empty() {
            for rec in archive.split(';') {
                let (genome, fitness) = rec.split_once('|')?;
                new_archive.push((Genome::parse(genome)?, Fitness::parse(fitness)?));
            }
        }
        let population: Vec<usize> = if pop.is_empty() {
            Vec::new()
        } else {
            pop.split(',')
                .map(|i| i.parse().ok())
                .collect::<Option<Vec<usize>>>()?
        };
        if population.iter().any(|&i| i >= new_archive.len()) {
            return None;
        }
        let f: Vec<u64> = stats
            .split(',')
            .map(|v| v.parse().ok())
            .collect::<Option<Vec<u64>>>()?;
        let [generation, evaluated, pruned, simulated, cached, front_size, hv_permille] =
            f.as_slice()
        else {
            return None;
        };
        self.archive.clear();
        self.index.clear();
        for (genome, fitness) in new_archive {
            self.insert(genome, fitness);
        }
        self.population = population;
        self.stats.push(GenStats {
            generation: u32::try_from(*generation).ok()?,
            evaluated: u32::try_from(*evaluated).ok()?,
            pruned: u32::try_from(*pruned).ok()?,
            simulated: u32::try_from(*simulated).ok()?,
            cached: u32::try_from(*cached).ok()?,
            front_size: u32::try_from(*front_size).ok()?,
            hv_permille: *hv_permille,
        });
        Some(())
    }

}

/// Counts produced by one generation's evaluation fan-out.
#[derive(Debug, Default, Clone, Copy)]
struct EvalCounts {
    pruned: u32,
    simulated: u32,
    cached: u32,
}

/// Evaluates `candidates`, filling fresh designs through one
/// [`sweep_pruned`] batch, and returns each candidate's
/// archive slot (in candidate order).
fn evaluate(
    state: &mut State,
    candidates: &[Genome],
    app: &AppProfile,
    cfg: &SearchConfig,
    jobs: Jobs,
) -> io::Result<(Vec<usize>, EvalCounts)> {
    let mut counts = EvalCounts::default();
    // Fresh designs, batch-deduplicated, in first-occurrence order.
    let mut fresh: Vec<Genome> = Vec::new();
    let mut fresh_labels: Vec<String> = Vec::new();
    for g in candidates {
        let label = g.decode().label();
        if state.index.contains_key(&label) {
            counts.cached += 1;
        } else if !fresh_labels.contains(&label) {
            fresh.push(*g);
            fresh_labels.push(label);
        }
    }
    if !fresh.is_empty() {
        let designs: Vec<moca_core::L2Design> = fresh.iter().map(|g| g.decode()).collect();
        let result = sweep_pruned(&designs, |d| *d, app, cfg.refs, cfg.seed, jobs);
        // Genomes decode through the validating constructors, so a
        // failed point is an engine fault, not a bad candidate.
        let points = result
            .points
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(io::Error::other)?;
        let mut simulated: FxHashMap<String, usize> = FxHashMap::default();
        for (k, point) in points.iter().enumerate() {
            simulated.insert(point.param.label(), k);
        }
        for (g, label) in fresh.iter().zip(&fresh_labels) {
            let area_mm2 = design_area_mm2(g).map_err(io::Error::other)?;
            let fitness = match simulated.get(label) {
                Some(&k) => {
                    counts.simulated += 1;
                    let r = &points[k].report;
                    Fitness {
                        energy_nj: r.l2_energy.total().nj() + r.dram_energy.nj(),
                        cycles: r.cycles,
                        area_mm2,
                        projected: false,
                    }
                }
                None => {
                    // Pruned: only MRC-scorable (shared-SRAM LRU) points
                    // are ever pruned, and the score grid covers every
                    // scorable way count in the batch.
                    counts.pruned += 1;
                    let ways = g.decode().physical_ways() as usize;
                    let score = result
                        .scores
                        .get(ways - 1)
                        .ok_or_else(|| io::Error::other("pruned point missing its MRC score"))?;
                    Fitness {
                        energy_nj: score.energy_nj,
                        cycles: score.est_cycles,
                        area_mm2,
                        projected: true,
                    }
                }
            };
            state.insert(*g, fitness);
        }
    }
    let slots: Vec<usize> = candidates
        .iter()
        .map(|g| state.index[&g.decode().label()])
        .collect();
    Ok((slots, counts))
}

/// The per-generation RNG: stateless, derived from the fingerprint and
/// the generation index alone.
fn generation_rng(fp: u64, generation: u32) -> Xoshiro256 {
    Xoshiro256::seed_from_u64(
        fp.wrapping_add(u64::from(generation).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    )
}

/// Binary tournament over ranked parents.
fn tournament<'a>(ranked: &'a [Ranked], labels: &[&str], rng: &mut Xoshiro256) -> &'a Ranked {
    let a = &ranked[rng.below(ranked.len() as u64) as usize];
    let b = &ranked[rng.below(ranked.len() as u64) as usize];
    if nsga::compare(a, b, labels).is_le() {
        a
    } else {
        b
    }
}

/// NSGA-II survivor selection: rank the combined pool, keep the best
/// `population` members (ties broken deterministically by label).
fn select(state: &State, pool: &[usize], population: usize) -> (Vec<usize>, u32) {
    let fitness: Vec<Fitness> = pool.iter().map(|&i| state.archive[i].fitness).collect();
    let labels: Vec<&str> = pool.iter().map(|&i| state.archive[i].label.as_str()).collect();
    let ranked = nsga::rank_population(&fitness, &labels);
    let selected: Vec<usize> = ranked
        .iter()
        .take(population)
        .map(|r| pool[r.position])
        .collect();
    let front_size = ranked
        .iter()
        .take(population)
        .filter(|r| r.rank == 0)
        .count() as u32;
    (selected, front_size)
}

/// Normalized 2D (energy, cycles) hypervolume of the population's
/// non-dominated set, against bounds from the whole archive, in parts
/// per thousand.
fn front_hypervolume_permille(state: &State, selected: &[usize]) -> u64 {
    let all: Vec<Fitness> = state.archive.iter().map(|r| r.fitness).collect();
    if all.is_empty() {
        return 0;
    }
    let (mut e_lo, mut e_hi) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut c_lo, mut c_hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for f in &all {
        e_lo = e_lo.min(f.energy_nj);
        e_hi = e_hi.max(f.energy_nj);
        c_lo = c_lo.min(f.cycles as f64);
        c_hi = c_hi.max(f.cycles as f64);
    }
    let norm = |v: f64, lo: f64, hi: f64| if hi > lo { (v - lo) / (hi - lo) } else { 0.0 };
    // 2D front of the selected population.
    let mut pts: Vec<(f64, f64)> = Vec::new();
    for &i in selected {
        let f = &state.archive[i].fitness;
        let p = (
            norm(f.energy_nj, e_lo, e_hi),
            norm(f.cycles as f64, c_lo, c_hi),
        );
        if !selected.iter().any(|&j| {
            j != i && nsga::dominates_or_ties_2d(&state.archive[j].fitness, f)
                && state.archive[j].fitness != state.archive[i].fitness
        }) {
            pts.push(p);
        }
    }
    pts.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    pts.dedup();
    // Union of boxes [x_i, 1] × [y_i, 1] against reference point (1, 1):
    // scanning x ascending, the active height is the lowest y so far.
    let mut hv = 0.0_f64;
    let mut best_y = f64::INFINITY;
    for k in 0..pts.len() {
        let (x, y) = pts[k];
        best_y = best_y.min(y);
        let next_x = pts.get(k + 1).map_or(1.0, |p| p.0);
        hv += (next_x - x).max(0.0) * (1.0 - best_y).max(0.0);
    }
    (hv.clamp(0.0, 1.0) * 1000.0).round() as u64
}

/// Runs the search.
///
/// With a `journal`, every finished generation is checkpointed and
/// already-journaled generations are replayed byte-identically. With a
/// `cancel` token, the loop stops at the next generation boundary and
/// returns `Ok(None)` (nothing partial is journaled).
///
/// # Errors
///
/// I/O errors from journal appends; `InvalidData` for corrupt
/// checkpoint payloads; `InvalidInput` for an unknown app profile.
pub fn run_search(
    cfg: &SearchConfig,
    jobs: Jobs,
    mut journal: Option<&mut Journal>,
    cancel: Option<&CancelToken>,
) -> io::Result<Option<SearchOutcome>> {
    let app = AppProfile::by_name(&cfg.app).ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, format!("unknown app {:?}", cfg.app))
    })?;
    if cfg.population < 2 || cfg.generations == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "search needs population >= 2 and generations >= 1",
        ));
    }
    let fp = cfg.fingerprint();
    let mut state = State::new();

    for generation in 0..cfg.generations {
        if cancel.is_some_and(|c| c.is_cancelled()) {
            return Ok(None);
        }
        let key = generation_key(fp, generation);
        if let Some(payload) = journal.as_ref().and_then(|j| j.get(&key)) {
            let payload = payload.to_string();
            state.restore(&payload).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("corrupt search checkpoint {key}"),
                )
            })?;
            if let Some(j) = journal.as_ref() {
                j.note_replay(&key);
            }
            continue;
        }

        let mut rng = generation_rng(fp, generation);
        let candidates: Vec<Genome> = if generation == 0 {
            let mut init = Genome::seeds();
            init.truncate(cfg.population);
            while init.len() < cfg.population {
                init.push(Genome::random(&mut rng));
            }
            init
        } else {
            let parent_fitness: Vec<Fitness> = state
                .population
                .iter()
                .map(|&i| state.archive[i].fitness)
                .collect();
            let parent_labels: Vec<&str> = state
                .population
                .iter()
                .map(|&i| state.archive[i].label.as_str())
                .collect();
            let ranked = nsga::rank_population(&parent_fitness, &parent_labels);
            (0..cfg.population)
                .map(|_| {
                    let a = tournament(&ranked, &parent_labels, &mut rng).position;
                    let b = tournament(&ranked, &parent_labels, &mut rng).position;
                    let ga = state.archive[state.population[a]].genome;
                    let gb = state.archive[state.population[b]].genome;
                    Genome::crossover(&ga, &gb, &mut rng).mutate(MUTATION_RATE, &mut rng)
                })
                .collect()
        };

        let eval_start = Instant::now();
        let (slots, counts) = evaluate(&mut state, &candidates, &app, cfg, jobs)?;
        let eval_ns = eval_start.elapsed().as_nanos() as u64;

        // Survivor pool: parents ∪ offspring, first occurrence wins.
        let mut pool: Vec<usize> = Vec::new();
        for &i in state.population.iter().chain(&slots) {
            if !pool.contains(&i) {
                pool.push(i);
            }
        }
        let (selected, front_size) = select(&state, &pool, cfg.population);
        state.population = selected;

        let hv_permille = front_hypervolume_permille(&state, &state.population);
        state.stats.push(GenStats {
            generation,
            evaluated: candidates.len() as u32,
            pruned: counts.pruned,
            simulated: counts.simulated,
            cached: counts.cached,
            front_size,
            hv_permille,
        });

        if telemetry::enabled() {
            telemetry::record(Event::Search {
                generation,
                population: candidates.len() as u32,
                front_size,
                hv_permille,
                evals_pruned: counts.pruned,
                evals_simulated: counts.simulated,
                evals_cached: counts.cached,
                eval_ns,
            });
        }
        if let Some(j) = journal.as_mut() {
            j.record(&key, &state.serialize())?;
        }
    }

    // Final front: the non-dominated set over the whole archive.
    let fitness: Vec<Fitness> = state.archive.iter().map(|r| r.fitness).collect();
    let mut front: Vec<usize> = (0..state.archive.len())
        .filter(|&i| !fitness.iter().any(|other| nsga::dominates(other, &fitness[i])))
        .collect();
    front.sort_by(|&a, &b| {
        fitness[a]
            .energy_nj
            .total_cmp(&fitness[b].energy_nj)
            .then(fitness[a].cycles.cmp(&fitness[b].cycles))
            .then_with(|| state.archive[a].label.cmp(&state.archive[b].label))
    });
    Ok(Some(SearchOutcome {
        config: cfg.clone(),
        fingerprint: fp,
        stats: state.stats,
        population: state.population,
        front,
        archive: state.archive,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SearchConfig {
        SearchConfig {
            app: "game".to_string(),
            seed: 0x5EED,
            refs: 6_000,
            population: 6,
            generations: 2,
        }
    }

    #[test]
    fn fingerprint_covers_every_field() {
        let base = tiny();
        let fp = base.fingerprint();
        for alt in [
            SearchConfig { app: "browser".into(), ..tiny() },
            SearchConfig { seed: 1, ..tiny() },
            SearchConfig { refs: 7_000, ..tiny() },
            SearchConfig { population: 7, ..tiny() },
            SearchConfig { generations: 3, ..tiny() },
        ] {
            assert_ne!(alt.fingerprint(), fp, "{alt:?}");
        }
    }

    #[test]
    fn search_seeds_the_handpicked_designs_into_the_archive() {
        let out = run_search(&tiny(), Jobs::SERIAL, None, None)
            .expect("io")
            .expect("not cancelled");
        for label in [
            moca_core::L2Design::baseline().label(),
            moca_core::L2Design::static_default().label(),
            moca_core::L2Design::dynamic_default().label(),
        ] {
            assert!(out.record_for(&label).is_some(), "{label} missing");
        }
        assert_eq!(out.stats.len(), 2);
        assert!(!out.front.is_empty());
        assert_eq!(out.population.len(), 6);
    }

    #[test]
    fn unknown_app_is_invalid_input() {
        let cfg = SearchConfig { app: "nope".into(), ..tiny() };
        let err = run_search(&cfg, Jobs::SERIAL, None, None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn cancelled_search_returns_none() {
        let token = CancelToken::new();
        token.cancel();
        let out = run_search(&tiny(), Jobs::SERIAL, None, Some(&token)).expect("io");
        assert!(out.is_none());
    }

    #[test]
    fn state_round_trips_through_its_checkpoint_payload() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let mut state = State::new();
        for _ in 0..5 {
            let g = Genome::random(&mut rng);
            let label = g.decode().label();
            if state.index.contains_key(&label) {
                continue;
            }
            let f = Fitness {
                energy_nj: rng.next_f64() * 1e5,
                cycles: rng.next_u64() % 1_000_000,
                area_mm2: rng.next_f64() * 10.0,
                projected: rng.chance(0.5),
            };
            state.insert(g, f);
        }
        state.population = (0..state.archive.len().min(3)).collect();
        state.stats.push(GenStats {
            generation: 0,
            evaluated: 5,
            pruned: 1,
            simulated: 3,
            cached: 1,
            front_size: 2,
            hv_permille: 417,
        });
        let payload = state.serialize();
        let mut restored = State::new();
        restored.restore(&payload).expect("payload parses");
        assert_eq!(restored.archive.len(), state.archive.len());
        for (a, b) in restored.archive.iter().zip(&state.archive) {
            assert_eq!(a.genome, b.genome);
            assert_eq!(a.label, b.label);
            assert_eq!(a.fitness.energy_nj.to_bits(), b.fitness.energy_nj.to_bits());
            assert_eq!(a.fitness.cycles, b.fitness.cycles);
        }
        assert_eq!(restored.population, state.population);
        assert_eq!(restored.stats, state.stats);
        // Corruption is refused, not panicked on.
        assert!(restored.restore("v1 pop=0 stats=nope archive=").is_none());
        assert!(restored.restore("garbage").is_none());
    }
}
