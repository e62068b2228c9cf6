//! Builder for custom application profiles.
//!
//! The ten built-in profiles cover the evaluation suite; this builder
//! lets downstream users assemble their own workloads without spelling
//! out every [`AppProfile`] field.
//!
//! # Examples
//!
//! ```
//! use moca_trace::builder::AppProfileBuilder;
//! use moca_trace::{Service, TraceGenerator};
//!
//! let profile = AppProfileBuilder::new("my-benchmark")
//!     .heap(32_768, 2_048, 0.9)
//!     .code(1_024, 1.3)
//!     .syscalls(vec![(Service::FileRead, 2.0), (Service::Futex, 1.0)])
//!     .kernel_entry_every(500.0)
//!     .build();
//! let trace: Vec<_> = TraceGenerator::new(&profile, 1).take(1000).collect();
//! assert_eq!(trace.len(), 1000);
//! ```

use crate::apps::AppProfile;
use crate::kernel::Service;

/// Builds an [`AppProfile`] from a baseline of sensible defaults.
#[derive(Debug, Clone)]
pub struct AppProfileBuilder {
    profile: AppProfile,
}

impl AppProfileBuilder {
    /// Starts from the default profile shape with the given name.
    ///
    /// The name must outlive the profile (use a string literal or leaked
    /// string); profiles carry `&'static str` names so they stay `Copy`-
    /// friendly in reports.
    pub fn new(name: &'static str) -> Self {
        let mut profile = AppProfile::by_name("music").expect("built-in profile exists");
        profile.name = name;
        Self { profile }
    }

    /// Sets the heap size (in lines), hot-core size, and hot-core Zipf
    /// skew.
    pub fn heap(mut self, lines: u64, hot_lines: u64, theta: f64) -> Self {
        self.profile.heap_lines = lines;
        self.profile.heap_hot_lines = hot_lines;
        self.profile.heap_theta = theta;
        self
    }

    /// Sets the fraction of heap reuse served by the hot core.
    pub fn heap_hot_frac(mut self, frac: f64) -> Self {
        self.profile.heap_hot_frac = frac;
        self
    }

    /// Sets the streaming behaviour of the heap: burst probability and
    /// mean burst length in lines.
    pub fn streaming(mut self, p_seq: f64, seq_len: f64) -> Self {
        self.profile.heap_p_seq = p_seq;
        self.profile.heap_seq_len = seq_len;
        self
    }

    /// Sets the code footprint (lines) and its Zipf skew.
    pub fn code(mut self, lines: u64, theta: f64) -> Self {
        self.profile.code_lines = lines;
        self.profile.code_theta = theta;
        self
    }

    /// Sets the store fraction of user data references.
    pub fn store_frac(mut self, frac: f64) -> Self {
        self.profile.store_frac = frac;
        self
    }

    /// Sets the kernel service mix (replaces the default).
    pub fn syscalls(mut self, mix: Vec<(Service, f64)>) -> Self {
        self.profile.syscall_mix = mix;
        self
    }

    /// Sets the interrupt rate and mix.
    pub fn interrupts(mut self, frac: f64, mix: Vec<(Service, f64)>) -> Self {
        self.profile.irq_frac = frac;
        self.profile.irq_mix = mix;
        self
    }

    /// Sets the mean user references between kernel entries (lower means
    /// a more kernel-heavy workload).
    pub fn kernel_entry_every(mut self, mean_refs: f64) -> Self {
        self.profile.mean_user_run = mean_refs;
        self
    }

    /// Finishes the build.
    ///
    /// # Panics
    ///
    /// Panics if the assembled profile fails [`AppProfile::validate`]
    /// (e.g. a hot core larger than the heap).
    pub fn build(self) -> AppProfile {
        self.profile.validate();
        self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TraceGenerator;
    use crate::stats::TraceStats;

    #[test]
    fn builder_produces_valid_profiles() {
        let p = AppProfileBuilder::new("custom")
            .heap(65_536, 4_096, 1.0)
            .heap_hot_frac(0.9)
            .streaming(0.4, 16.0)
            .code(2_048, 1.2)
            .store_frac(0.35)
            .kernel_entry_every(600.0)
            .build();
        assert_eq!(p.name, "custom");
        assert_eq!(p.heap_lines, 65_536);
        p.validate();
    }

    #[test]
    fn kernel_heavy_builder_raises_kernel_share() {
        let light = AppProfileBuilder::new("light")
            .kernel_entry_every(5_000.0)
            .build();
        let heavy = AppProfileBuilder::new("heavy")
            .kernel_entry_every(300.0)
            .build();
        let share = |p: &AppProfile| {
            TraceStats::collect(TraceGenerator::new(p, 3).take(100_000), 64).kernel_share()
        };
        assert!(
            share(&heavy) > share(&light) + 0.1,
            "kernel entry rate must drive the kernel share"
        );
    }

    #[test]
    fn syscall_mix_replaces_default() {
        let p = AppProfileBuilder::new("io-bound")
            .syscalls(vec![(Service::FileRead, 1.0)])
            .build();
        assert_eq!(p.syscall_mix.len(), 1);
    }

    #[test]
    #[should_panic(expected = "hot core")]
    fn invalid_build_panics() {
        AppProfileBuilder::new("broken").heap(100, 200, 0.9).build();
    }
}
