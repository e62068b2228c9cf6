//! NSGA-II selection machinery: Pareto dominance, fast non-dominated
//! sorting, crowding distance, and the deterministic comparator that
//! orders individuals for tournaments and elitist truncation.
//!
//! Everything here is a pure function of `(fitness, label)` pairs. The
//! label enters every tie-break, so two runs that evaluate the same
//! designs order them identically regardless of worker count — the
//! foundation of the byte-identical-front contract.

use std::cmp::Ordering;

/// The measured (or projected) objective triple of one design.
///
/// All three objectives are minimized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fitness {
    /// Total L2 + DRAM energy, in nJ.
    pub energy_nj: f64,
    /// Execution cycles.
    pub cycles: u64,
    /// L2 silicon area, in mm².
    pub area_mm2: f64,
    /// `true` when the triple came from the analytic MRC fast path
    /// rather than a full timing simulation.
    pub projected: bool,
}

impl Fitness {
    /// Checkpoint form: bit-exact hex for the floats so a resumed run
    /// reproduces the uninterrupted run's bytes.
    pub fn serialize(&self) -> String {
        format!(
            "{:016x},{},{:016x},{}",
            self.energy_nj.to_bits(),
            self.cycles,
            self.area_mm2.to_bits(),
            self.projected as u8
        )
    }

    /// Parses [`Fitness::serialize`]'s form.
    pub fn parse(s: &str) -> Option<Fitness> {
        let mut it = s.split(',');
        let energy_nj = f64::from_bits(u64::from_str_radix(it.next()?, 16).ok()?);
        let cycles = it.next()?.parse().ok()?;
        let area_mm2 = f64::from_bits(u64::from_str_radix(it.next()?, 16).ok()?);
        let projected = match it.next()? {
            "0" => false,
            "1" => true,
            _ => return None,
        };
        if it.next().is_some() {
            return None;
        }
        Some(Fitness {
            energy_nj,
            cycles,
            area_mm2,
            projected,
        })
    }
}

/// `true` if `a` Pareto-dominates `b`: no objective worse, at least one
/// strictly better.
pub fn dominates(a: &Fitness, b: &Fitness) -> bool {
    let no_worse = a.energy_nj <= b.energy_nj && a.cycles <= b.cycles && a.area_mm2 <= b.area_mm2;
    let better = a.energy_nj < b.energy_nj || a.cycles < b.cycles || a.area_mm2 < b.area_mm2;
    no_worse && better
}

/// `true` if `a` dominates-or-ties `b` on the (energy, cycles) plane —
/// the relation the `pareto` experiment's claims are stated in.
pub fn dominates_or_ties_2d(a: &Fitness, b: &Fitness) -> bool {
    a.energy_nj <= b.energy_nj && a.cycles <= b.cycles
}

/// Fast non-dominated sort: partitions `0..fitness.len()` into Pareto
/// fronts (front 0 first). Within each front, positions keep their
/// input order.
pub fn non_dominated_sort(fitness: &[Fitness]) -> Vec<Vec<usize>> {
    let n = fitness.len();
    let mut dominated_by: Vec<u32> = vec![0; n]; // how many dominate i
    let mut dominates_list: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        for j in (i + 1)..n {
            if dominates(&fitness[i], &fitness[j]) {
                dominates_list[i].push(j);
                dominated_by[j] += 1;
            } else if dominates(&fitness[j], &fitness[i]) {
                dominates_list[j].push(i);
                dominated_by[i] += 1;
            }
        }
    }
    let mut fronts: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = (0..n).filter(|&i| dominated_by[i] == 0).collect();
    while !current.is_empty() {
        let mut next: Vec<usize> = Vec::new();
        for &i in &current {
            for &j in &dominates_list[i] {
                dominated_by[j] -= 1;
                if dominated_by[j] == 0 {
                    next.push(j);
                }
            }
        }
        // Restore input order: the inner loops append in front order.
        next.sort_unstable();
        fronts.push(std::mem::replace(&mut current, next));
    }
    fronts
}

/// Crowding distance of each member of one front (`front` holds indices
/// into `fitness`). Boundary points get `f64::INFINITY`; ties on an
/// objective are broken by `labels` so the assignment is independent of
/// input order.
pub fn crowding_distance(front: &[usize], fitness: &[Fitness], labels: &[&str]) -> Vec<f64> {
    let m = front.len();
    let mut dist = vec![0.0_f64; m];
    if m <= 2 {
        return vec![f64::INFINITY; m];
    }
    let objectives: [fn(&Fitness) -> f64; 3] =
        [|f| f.energy_nj, |f| f.cycles as f64, |f| f.area_mm2];
    for obj in objectives {
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by(|&a, &b| {
            obj(&fitness[front[a]])
                .total_cmp(&obj(&fitness[front[b]]))
                .then_with(|| labels[front[a]].cmp(labels[front[b]]))
        });
        let lo = obj(&fitness[front[order[0]]]);
        let hi = obj(&fitness[front[order[m - 1]]]);
        dist[order[0]] = f64::INFINITY;
        dist[order[m - 1]] = f64::INFINITY;
        if hi > lo {
            for w in 1..m - 1 {
                let prev = obj(&fitness[front[order[w - 1]]]);
                let next = obj(&fitness[front[order[w + 1]]]);
                dist[order[w]] += (next - prev) / (hi - lo);
            }
        }
    }
    dist
}

/// One individual's selection key: Pareto rank, crowding distance, and
/// the label tie-break that makes the order total and deterministic.
#[derive(Debug, Clone)]
pub struct Ranked {
    /// Index into the caller's population.
    pub position: usize,
    /// Front number (0 = non-dominated).
    pub rank: u32,
    /// Crowding distance within the front.
    pub crowding: f64,
}

/// Ranks a population: non-dominated sort + per-front crowding, output
/// sorted best-first by `(rank asc, crowding desc, label asc)`.
pub fn rank_population(fitness: &[Fitness], labels: &[&str]) -> Vec<Ranked> {
    let fronts = non_dominated_sort(fitness);
    let mut ranked: Vec<Ranked> = Vec::with_capacity(fitness.len());
    for (rank, front) in fronts.iter().enumerate() {
        let dist = crowding_distance(front, fitness, labels);
        for (k, &position) in front.iter().enumerate() {
            ranked.push(Ranked {
                position,
                rank: rank as u32,
                crowding: dist[k],
            });
        }
    }
    ranked.sort_by(|a, b| compare(a, b, labels));
    ranked
}

/// The NSGA-II total order: lower rank wins, then larger crowding, then
/// lexicographically smaller label.
pub fn compare(a: &Ranked, b: &Ranked, labels: &[&str]) -> Ordering {
    a.rank
        .cmp(&b.rank)
        .then_with(|| b.crowding.total_cmp(&a.crowding))
        .then_with(|| labels[a.position].cmp(labels[b.position]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fit(e: f64, c: u64, a: f64) -> Fitness {
        Fitness {
            energy_nj: e,
            cycles: c,
            area_mm2: a,
            projected: false,
        }
    }

    #[test]
    fn dominance_requires_strict_improvement_somewhere() {
        let a = fit(1.0, 10, 1.0);
        assert!(!dominates(&a, &a), "a point never dominates itself");
        assert!(dominates(&fit(0.9, 10, 1.0), &a));
        assert!(
            !dominates(&fit(0.9, 11, 1.0), &a),
            "trade-off, no dominance"
        );
        assert!(dominates_or_ties_2d(&a, &a));
        assert!(
            dominates_or_ties_2d(&fit(1.0, 9, 99.0), &a),
            "area ignored in 2d"
        );
    }

    #[test]
    fn sort_layers_fronts_correctly() {
        let f = vec![
            fit(1.0, 100, 1.0), // 0: front 0
            fit(2.0, 50, 1.0),  // 1: front 0 (trade-off with 0)
            fit(2.0, 100, 1.0), // 2: dominated by 0 and 1
            fit(3.0, 200, 2.0), // 3: dominated by everything
        ];
        let fronts = non_dominated_sort(&f);
        assert_eq!(fronts, vec![vec![0, 1], vec![2], vec![3]]);
    }

    #[test]
    fn crowding_rewards_isolation_and_infinite_boundaries() {
        let f = vec![
            fit(0.0, 100, 1.0),
            fit(1.0, 90, 1.0), // crowded: neighbors at 0 and 2
            fit(2.0, 80, 1.0),
            fit(10.0, 10, 1.0), // boundary
        ];
        let front: Vec<usize> = (0..4).collect();
        let labels = ["a", "b", "c", "d"];
        let d = crowding_distance(&front, &f, &labels);
        assert_eq!(d[0], f64::INFINITY);
        assert_eq!(d[3], f64::INFINITY);
        assert!(d[1].is_finite() && d[2].is_finite());
        assert!(d[2] > d[1], "the isolated interior point is less crowded");
    }

    #[test]
    fn ranking_is_independent_of_input_order() {
        let f = vec![
            fit(1.0, 100, 1.0),
            fit(2.0, 50, 1.5),
            fit(2.5, 60, 1.2),
            fit(0.5, 120, 0.9),
        ];
        let labels = ["p", "q", "r", "s"];
        let base: Vec<&str> = rank_population(&f, &labels)
            .iter()
            .map(|r| labels[r.position])
            .collect();
        // Reverse the population; the best-first label order must hold.
        let f2: Vec<Fitness> = f.iter().rev().copied().collect();
        let labels2 = ["s", "r", "q", "p"];
        let rev: Vec<&str> = rank_population(&f2, &labels2)
            .iter()
            .map(|r| labels2[r.position])
            .collect();
        assert_eq!(base, rev);
    }

    #[test]
    fn fitness_serialization_is_bit_exact() {
        let f = Fitness {
            energy_nj: 0.1 + 0.2, // a value with no short decimal form
            cycles: 123_456_789,
            area_mm2: f64::MIN_POSITIVE,
            projected: true,
        };
        let parsed = Fitness::parse(&f.serialize()).expect("round trip");
        assert_eq!(parsed.energy_nj.to_bits(), f.energy_nj.to_bits());
        assert_eq!(parsed.area_mm2.to_bits(), f.area_mm2.to_bits());
        assert_eq!(parsed.cycles, f.cycles);
        assert!(parsed.projected);
        assert_eq!(Fitness::parse("zz,1,00,0"), None);
        assert_eq!(Fitness::parse(&format!("{}x", f.serialize())), None);
    }
}
