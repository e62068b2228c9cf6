//! Static partition sizing: find the smallest (user, kernel) way pair
//! whose miss rate stays within a budget of the full shared baseline.
//!
//! This is the search behind the paper's first technique (claim C3): the
//! partition removes user/kernel interference, so a *smaller* total cache
//! can match the big shared cache's miss rate — and the saved capacity is
//! the static design's energy win.

/// Outcome of a partition search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionChoice {
    /// Ways chosen for the user segment.
    pub user_ways: u32,
    /// Ways chosen for the kernel segment.
    pub kernel_ways: u32,
    /// Miss rate the chosen configuration achieved.
    pub miss_rate: f64,
    /// Miss rate of the reference (shared baseline) configuration.
    pub baseline_miss_rate: f64,
    /// Number of candidate configurations evaluated.
    pub evaluated: usize,
}

impl PartitionChoice {
    /// Total ways of the chosen partition.
    pub fn total_ways(&self) -> u32 {
        self.user_ways + self.kernel_ways
    }
}

/// Searches for the smallest partition within a miss-rate budget.
///
/// `eval(user_ways, kernel_ways)` must return the miss rate of that
/// configuration on the workload under study (typically by running the
/// trace-driven simulator; the experiment harness in `moca-sim` provides
/// exactly that closure). Configurations are explored in increasing order
/// of total size; within equal size, user-heavy splits are tried first
/// (user working sets are usually larger). The first configuration whose
/// miss rate is within `tolerance` (absolute) of `baseline_miss_rate` is
/// returned.
///
/// Returns the *best-effort* configuration (minimum miss rate seen) if no
/// candidate meets the budget.
///
/// # Panics
///
/// Panics if `max_user_ways` or `max_kernel_ways` is zero, or `tolerance`
/// is negative.
///
/// # Examples
///
/// ```
/// use moca_core::static_design::find_min_partition;
///
/// // A synthetic workload where 3 user + 2 kernel ways suffice.
/// let eval = |u: u32, k: u32| {
///     let base: f64 = 0.10;
///     base + if u < 3 { 0.05 } else { 0.0 } + if k < 2 { 0.04 } else { 0.0 }
/// };
/// let choice = find_min_partition(12, 8, 0.10, 0.005, eval);
/// assert_eq!((choice.user_ways, choice.kernel_ways), (3, 2));
/// ```
pub fn find_min_partition<F>(
    max_user_ways: u32,
    max_kernel_ways: u32,
    baseline_miss_rate: f64,
    tolerance: f64,
    mut eval: F,
) -> PartitionChoice
where
    F: FnMut(u32, u32) -> f64,
{
    assert!(
        max_user_ways > 0 && max_kernel_ways > 0,
        "need at least one way each"
    );
    assert!(tolerance >= 0.0, "tolerance must be non-negative");

    let budget = baseline_miss_rate + tolerance;
    let mut best: Option<PartitionChoice> = None;
    let mut evaluated = 0usize;

    for total in 2..=(max_user_ways + max_kernel_ways) {
        // user-heavy first: larger user allocations are the common case.
        let mut candidates: Vec<(u32, u32)> = Vec::new();
        for user in (1..total).rev() {
            let kernel = total - user;
            if user <= max_user_ways && kernel >= 1 && kernel <= max_kernel_ways {
                candidates.push((user, kernel));
            }
        }
        for (user, kernel) in candidates {
            let miss = eval(user, kernel);
            evaluated += 1;
            let better = match &best {
                None => true,
                Some(b) => miss < b.miss_rate,
            };
            if better {
                best = Some(PartitionChoice {
                    user_ways: user,
                    kernel_ways: kernel,
                    miss_rate: miss,
                    baseline_miss_rate,
                    evaluated,
                });
            }
            if miss <= budget {
                return PartitionChoice {
                    user_ways: user,
                    kernel_ways: kernel,
                    miss_rate: miss,
                    baseline_miss_rate,
                    evaluated,
                };
            }
        }
    }

    let mut fallback = best.expect("at least one candidate evaluated");
    fallback.evaluated = evaluated;
    fallback
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_smallest_satisfying_config() {
        // miss rate improves with ways, saturating at (4, 2).
        let eval = |u: u32, k: u32| {
            0.08 + 0.03 * (4u32.saturating_sub(u) as f64) + 0.05 * (2u32.saturating_sub(k) as f64)
        };
        let c = find_min_partition(12, 4, 0.08, 1e-9, eval);
        assert_eq!((c.user_ways, c.kernel_ways), (4, 2));
        assert_eq!(c.total_ways(), 6);
        assert!(c.miss_rate <= 0.08 + 1e-9);
    }

    #[test]
    fn prefers_smaller_total_over_marginal_gain() {
        // Anything with total >= 4 is within budget.
        let eval = |u: u32, k: u32| if u + k >= 4 { 0.1 } else { 0.5 };
        let c = find_min_partition(8, 8, 0.1, 0.01, eval);
        assert_eq!(c.total_ways(), 4);
    }

    #[test]
    fn tolerance_relaxes_the_budget() {
        // Exact baseline requires 8 ways; +2% tolerance admits 4.
        let eval = |u: u32, k: u32| match u + k {
            t if t >= 8 => 0.10,
            t if t >= 4 => 0.115,
            _ => 0.3,
        };
        let strict = find_min_partition(8, 8, 0.10, 0.001, eval);
        assert_eq!(strict.total_ways(), 8);
        let relaxed = find_min_partition(8, 8, 0.10, 0.02, eval);
        assert_eq!(relaxed.total_ways(), 4);
    }

    #[test]
    fn falls_back_to_best_effort() {
        // Nothing meets an impossible budget; must return min-miss config.
        let eval = |u: u32, k: u32| 0.5 - 0.01 * f64::from(u + k);
        let c = find_min_partition(3, 3, 0.0, 0.0, eval);
        assert_eq!((c.user_ways, c.kernel_ways), (3, 3));
        // All 3x3 candidates must have been tried.
        assert_eq!(c.evaluated, 9);
    }

    #[test]
    fn user_heavy_tie_break() {
        // Every config of total 5 passes; user-heavy must win.
        let eval = |u: u32, k: u32| if u + k == 5 { 0.0 } else { 1.0 };
        let c = find_min_partition(8, 8, 0.0, 0.0, eval);
        assert_eq!(c.total_ways(), 5);
        assert!(c.user_ways > c.kernel_ways);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_panics() {
        find_min_partition(0, 4, 0.1, 0.0, |_, _| 0.0);
    }
}
