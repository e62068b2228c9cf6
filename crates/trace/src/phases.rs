//! Phased workloads: app switching and usage sessions.
//!
//! Real phone usage is not one app forever — users bounce between apps,
//! and each switch drags a new working set through the caches while the
//! kernel footprint persists. [`PhasedWorkload`] chains per-app
//! [`TraceGenerator`]s into one stream with deterministic switch points,
//! which is what gives the dynamic design (F7) real phase changes to
//! adapt to.
//!
//! # Examples
//!
//! ```
//! use moca_trace::phases::PhasedWorkload;
//! use moca_trace::{AppProfile, Mode};
//!
//! let w = PhasedWorkload::new(
//!     vec![(AppProfile::music(), 10_000), (AppProfile::game(), 10_000)],
//!     7,
//! );
//! let trace: Vec<_> = w.collect();
//! assert_eq!(trace.len(), 20_000);
//! assert!(trace.iter().any(|a| a.mode == Mode::Kernel));
//! ```

use crate::access::MemoryAccess;
use crate::apps::AppProfile;
use crate::generator::TraceGenerator;

/// A sequence of app phases, each running for a fixed reference count.
///
/// Implements [`Iterator`]; the stream ends after the last phase (wrap it
/// in [`PhasedWorkload::cycle`] for an endless session).
#[derive(Debug, Clone)]
pub struct PhasedWorkload {
    phases: Vec<(AppProfile, u64)>,
    seed: u64,
    current: Option<TraceGenerator>,
    phase_idx: usize,
    emitted_in_phase: u64,
    cycle: bool,
    lap: u64,
}

impl PhasedWorkload {
    /// Builds a workload from `(profile, refs)` phases.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or any phase has zero references.
    pub fn new(phases: Vec<(AppProfile, u64)>, seed: u64) -> Self {
        assert!(!phases.is_empty(), "a workload needs at least one phase");
        for (p, refs) in &phases {
            p.validate();
            assert!(*refs > 0, "phase '{}' has zero references", p.name);
        }
        Self {
            phases,
            seed,
            current: None,
            phase_idx: 0,
            emitted_in_phase: 0,
            cycle: false,
            lap: 0,
        }
    }

    /// Makes the workload repeat forever (each lap re-seeds the apps so
    /// laps differ but the whole stream stays deterministic).
    pub fn cycle(mut self) -> Self {
        self.cycle = true;
        self
    }

    /// Total references of one lap.
    pub fn lap_refs(&self) -> u64 {
        self.phases.iter().map(|(_, r)| r).sum()
    }

    /// Name of the app currently (or next to be) emitted.
    pub fn current_app(&self) -> &str {
        self.phases[self.phase_idx.min(self.phases.len() - 1)]
            .0
            .name
    }

    fn start_phase(&mut self) {
        let (profile, _) = &self.phases[self.phase_idx];
        // Each phase (and lap) gets an independent deterministic stream.
        let phase_seed = self
            .seed
            .wrapping_add((self.phase_idx as u64 + 1).wrapping_mul(0x9E37_79B9))
            .wrapping_add(self.lap.wrapping_mul(0x85EB_CA6B));
        self.current = Some(TraceGenerator::new(profile, phase_seed));
        self.emitted_in_phase = 0;
    }
}

impl Iterator for PhasedWorkload {
    type Item = MemoryAccess;

    fn next(&mut self) -> Option<MemoryAccess> {
        loop {
            if self.phase_idx >= self.phases.len() {
                if !self.cycle {
                    return None;
                }
                self.phase_idx = 0;
                self.lap += 1;
                self.current = None;
            }
            if self.current.is_none() {
                self.start_phase();
            }
            let limit = self.phases[self.phase_idx].1;
            if self.emitted_in_phase >= limit {
                self.phase_idx += 1;
                self.current = None;
                continue;
            }
            self.emitted_in_phase += 1;
            // TraceGenerator is infinite, so next() is always Some.
            return self.current.as_mut().expect("phase started").next();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::layout;
    use crate::kernel::layout::is_kernel_addr;

    #[test]
    fn phases_emit_exact_counts() {
        let w = PhasedWorkload::new(
            vec![(AppProfile::music(), 5000), (AppProfile::game(), 3000)],
            1,
        );
        assert_eq!(w.lap_refs(), 8000);
        assert_eq!(w.count(), 8000);
    }

    #[test]
    fn deterministic() {
        let mk = || {
            PhasedWorkload::new(
                vec![(AppProfile::music(), 4000), (AppProfile::email(), 4000)],
                9,
            )
            .collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn phase_switch_changes_user_footprint() {
        // music's heap is smaller than maps'; after the switch, user
        // addresses beyond music's heap must appear.
        let music = AppProfile::music();
        let maps = AppProfile::maps();
        let music_heap_end = layout::HEAP_BASE + music.heap_lines * layout::LINE;
        let w = PhasedWorkload::new(vec![(music, 20_000), (maps, 20_000)], 3);
        let trace: Vec<_> = w.collect();
        let first_half_beyond = trace[..20_000]
            .iter()
            .filter(|a| !is_kernel_addr(a.addr))
            .filter(|a| a.addr >= music_heap_end && a.addr < layout::STACK_BASE)
            .count();
        let second_half_beyond = trace[20_000..]
            .iter()
            .filter(|a| !is_kernel_addr(a.addr))
            .filter(|a| a.addr >= music_heap_end && a.addr < layout::STACK_BASE)
            .count();
        assert_eq!(first_half_beyond, 0, "music stays within its heap");
        assert!(second_half_beyond > 0, "maps reaches beyond music's heap");
    }

    #[test]
    fn cycle_repeats_with_different_laps() {
        let base: Vec<_> = PhasedWorkload::new(vec![(AppProfile::music(), 2000)], 4)
            .cycle()
            .take(6000)
            .collect();
        assert_eq!(base.len(), 6000);
        // Laps are re-seeded, so lap 2 differs from lap 1.
        assert_ne!(&base[..2000], &base[2000..4000]);
    }

    #[test]
    fn current_app_tracks_phase() {
        let mut w =
            PhasedWorkload::new(vec![(AppProfile::music(), 10), (AppProfile::game(), 10)], 2);
        assert_eq!(w.current_app(), "music");
        for _ in 0..11 {
            w.next();
        }
        assert_eq!(w.current_app(), "game");
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_workload_panics() {
        PhasedWorkload::new(vec![], 1);
    }

    #[test]
    #[should_panic(expected = "zero references")]
    fn zero_refs_phase_panics() {
        PhasedWorkload::new(vec![(AppProfile::music(), 0)], 1);
    }
}
