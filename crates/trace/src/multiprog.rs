//! Multi-programmed workloads: several apps time-sliced on one core.
//!
//! Unlike one app's [`TraceGenerator`] (caches observe one footprint), a
//! [`MultiProgrammed`] stream interleaves apps at scheduler-quantum
//! granularity, the way Android really runs a foreground app plus
//! background services:
//!
//! * each app's **user** addresses are relocated into a private window
//!   (distinct physical frames per process), so apps contend for cache
//!   space rather than aliasing;
//! * **kernel** addresses are left shared — the kernel is the same for
//!   everyone, which *raises* its reuse and its share of L2 traffic;
//! * every context switch runs a scheduler burst, as on real hardware.
//!
//! The net effect: multi-tasking amplifies exactly the phenomena the
//! paper builds on (kernel share, user/kernel interference).

use crate::access::MemoryAccess;
use crate::apps::AppProfile;
use crate::generator::TraceGenerator;
use crate::kernel::layout::KERNEL_BASE;

/// Size of each process's private user-address window.
///
/// Large enough to contain any profile's regions (code/heap/stack all lie
/// below [`KERNEL_BASE`] = 3 GiB).
pub const PROCESS_WINDOW: u64 = 0x1_0000_0000;

/// A time-sliced interleaving of several app traces.
#[derive(Debug, Clone)]
pub struct MultiProgrammed {
    generators: Vec<TraceGenerator>,
    quantum_refs: u64,
    current: usize,
    left_in_quantum: u64,
}

impl MultiProgrammed {
    /// Builds a round-robin schedule of `apps` with the given quantum (in
    /// references).
    ///
    /// # Panics
    ///
    /// Panics if `apps` is empty or `quantum_refs` is zero.
    pub fn new(apps: &[AppProfile], quantum_refs: u64, seed: u64) -> Self {
        assert!(!apps.is_empty(), "need at least one app");
        assert!(quantum_refs > 0, "quantum must be non-zero");
        let generators = apps
            .iter()
            .enumerate()
            .map(|(i, p)| TraceGenerator::new(p, seed.wrapping_add(i as u64 * 0x9E37_79B9)))
            .collect();
        Self {
            generators,
            quantum_refs,
            current: 0,
            left_in_quantum: quantum_refs,
        }
    }

    /// Number of co-scheduled apps.
    pub fn len(&self) -> usize {
        self.generators.len()
    }

    /// `true` when no apps are scheduled (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.generators.is_empty()
    }

    /// Index of the app currently running.
    pub fn running(&self) -> usize {
        self.current
    }

    /// Relocates a user address into process `i`'s window; kernel
    /// addresses are shared and pass through unchanged.
    fn relocate(addr: u64, i: usize) -> u64 {
        if addr >= KERNEL_BASE {
            addr
        } else {
            addr + PROCESS_WINDOW * (i as u64 + 1)
        }
    }

    /// Relocates both addresses of an access of app `i`.
    fn relocate_access(a: &mut MemoryAccess, i: usize) {
        a.addr = Self::relocate(a.addr, i);
        a.pc = Self::relocate(a.pc, i);
    }

    /// Starts the next quantum when the current one is used up.
    fn switch_if_done(&mut self) {
        if self.left_in_quantum == 0 {
            self.current = (self.current + 1) % self.generators.len();
            self.left_in_quantum = self.quantum_refs;
            // A context switch is kernel work: the underlying generators
            // already emit scheduler-tick bursts on their own cadence, so
            // no extra injection is needed here; the switch boundary just
            // changes whose stream is live.
        }
    }

    /// Appends the next `n` accesses of the schedule to `out`, the
    /// stream the [`Iterator`] yields: each quantum slice is one bounded
    /// copy out of its app's generate-ahead buffer, relocated in place.
    pub fn append_to(&mut self, out: &mut Vec<MemoryAccess>, n: usize) {
        let mut left = n;
        while left > 0 {
            self.switch_if_done();
            let take = self.left_in_quantum.min(left as u64) as usize;
            let i = self.current;
            let start = out.len();
            self.generators[i].append_to(out, take);
            for a in &mut out[start..] {
                Self::relocate_access(a, i);
            }
            self.left_in_quantum -= take as u64;
            left -= take;
        }
    }
}

impl Iterator for MultiProgrammed {
    type Item = MemoryAccess;

    fn next(&mut self) -> Option<MemoryAccess> {
        self.switch_if_done();
        self.left_in_quantum -= 1;
        let i = self.current;
        let mut a = self.generators[i].next_access();
        Self::relocate_access(&mut a, i);
        Some(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::Mode;
    use crate::kernel::layout::is_kernel_addr;
    use crate::stats::TraceStats;

    fn pair() -> Vec<AppProfile> {
        vec![AppProfile::music(), AppProfile::game()]
    }

    #[test]
    fn round_robin_quantum() {
        let mut mp = MultiProgrammed::new(&pair(), 100, 1);
        assert_eq!(mp.len(), 2);
        assert!(!mp.is_empty());
        for _ in 0..100 {
            mp.next();
        }
        assert_eq!(mp.running(), 0, "still in the first quantum");
        mp.next();
        assert_eq!(mp.running(), 1, "switched after the quantum");
    }

    #[test]
    fn user_windows_are_disjoint_kernel_is_shared() {
        let trace: Vec<_> = MultiProgrammed::new(&pair(), 500, 3).take(50_000).collect();
        let mut win1 = false;
        let mut win2 = false;
        let mut kernel = false;
        for a in &trace {
            match a.mode {
                Mode::Kernel => {
                    assert!(is_kernel_addr(a.addr), "kernel addresses pass through");
                    kernel = true;
                }
                Mode::User => {
                    assert!(!is_kernel_addr(a.addr) || a.addr >= PROCESS_WINDOW);
                    if (PROCESS_WINDOW..2 * PROCESS_WINDOW).contains(&a.addr) {
                        win1 = true;
                    }
                    if (2 * PROCESS_WINDOW..3 * PROCESS_WINDOW).contains(&a.addr) {
                        win2 = true;
                    }
                }
            }
        }
        assert!(win1 && win2, "both process windows must appear");
        assert!(kernel, "kernel activity must appear");
    }

    #[test]
    fn deterministic() {
        let run = || {
            MultiProgrammed::new(&pair(), 250, 9)
                .take(10_000)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn multitasking_kernel_share_is_the_mix_of_its_apps() {
        let solo_share = |p: &AppProfile| {
            TraceStats::collect(TraceGenerator::new(p, 5).take(100_000), 64).kernel_share()
        };
        let apps = pair();
        let mean_solo = (solo_share(&apps[0]) + solo_share(&apps[1])) / 2.0;
        let multi = TraceStats::collect(MultiProgrammed::new(&apps, 2000, 5).take(200_000), 64)
            .kernel_share();
        assert!(
            (multi - mean_solo).abs() < 0.06,
            "co-scheduled kernel share ({multi:.3}) should track the mean of the              solo shares ({mean_solo:.3})"
        );
    }

    #[test]
    fn append_matches_iterator_across_quantum_boundaries() {
        // 333 does not divide the slice lengths, so slices straddle quanta.
        let expected: Vec<_> = MultiProgrammed::new(&pair(), 333, 4).take(5_000).collect();
        let mut mp = MultiProgrammed::new(&pair(), 333, 4);
        let mut got = Vec::new();
        for n in [1, 332, 2, 1000, 0, 3665] {
            mp.append_to(&mut got, n);
        }
        assert_eq!(got, expected);
        // The two interfaces interleave over one schedule.
        let mut mixed: Vec<_> = mp.by_ref().take(7).collect();
        mp.append_to(&mut mixed, 700);
        let tail: Vec<_> = MultiProgrammed::new(&pair(), 333, 4)
            .skip(5_000)
            .take(707)
            .collect();
        assert_eq!(mixed, tail);
    }

    #[test]
    #[should_panic(expected = "at least one app")]
    fn empty_schedule_panics() {
        MultiProgrammed::new(&[], 100, 1);
    }

    #[test]
    #[should_panic(expected = "quantum")]
    fn zero_quantum_panics() {
        MultiProgrammed::new(&pair(), 0, 1);
    }
}
