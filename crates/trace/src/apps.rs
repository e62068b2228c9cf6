//! Interactive smartphone application profiles.
//!
//! The paper evaluates interactive apps (browser, email, maps, games,
//! media, …) running on Android. We model each app as a parameter set
//! describing its user-space memory behaviour plus its kernel-entry
//! pattern: how often it performs syscalls, which kernel
//! [`Service`]s it uses, and how much interrupt
//! traffic it attracts. The suite-average kernel share of L2 accesses is
//! calibrated to the paper's ">40 %" observation (verified by an
//! integration test in `moca-sim`).

use crate::kernel::Service;

/// User-space address layout: apps own everything below the kernel base.
pub mod layout {
    /// Base of the application code region.
    pub const CODE_BASE: u64 = 0x0040_0000;
    /// Base of the application heap region.
    pub const HEAP_BASE: u64 = 0x1000_0000;
    /// Base of the application stack region.
    pub const STACK_BASE: u64 = 0x7000_0000;
    /// Cache-line size used for region sizing.
    pub const LINE: u64 = 64;
}

/// Workload parameters of one interactive application.
///
/// Construct via the named constructors ([`AppProfile::browser`] etc.) or
/// [`AppProfile::by_name`]; tweak fields afterwards for what-if studies.
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    /// Short identifier (stable; used in reports and seeds).
    pub name: &'static str,
    /// Lines of application code.
    pub code_lines: u64,
    /// Zipf skew of code-line popularity.
    pub code_theta: f64,
    /// Lines of heap / data working set.
    pub heap_lines: u64,
    /// Zipf skew of heap-line popularity (within the hot core).
    pub heap_theta: f64,
    /// Size of the heap's hot core in lines (the working-set knee).
    pub heap_hot_lines: u64,
    /// Fraction of heap reuse served by the hot core.
    pub heap_hot_frac: f64,
    /// Probability of sequential heap bursts.
    pub heap_p_seq: f64,
    /// Mean heap sequential burst length in lines.
    pub heap_seq_len: f64,
    /// Lines of stack (always hot).
    pub stack_lines: u64,
    /// Fraction of user references that are instruction fetches.
    pub ifetch_frac: f64,
    /// Fraction of user data references that are stores.
    pub store_frac: f64,
    /// Of user data references, fraction going to the stack.
    pub stack_frac: f64,
    /// Mean user references executed between consecutive kernel entries.
    pub mean_user_run: f64,
    /// Relative weights of the kernel services this app invokes.
    pub syscall_mix: Vec<(Service, f64)>,
    /// Probability that a kernel entry is an interrupt rather than a
    /// syscall chosen from `syscall_mix`.
    pub irq_frac: f64,
    /// Relative weights of interrupt services.
    pub irq_mix: Vec<(Service, f64)>,
    /// User+kernel references between scheduler ticks (10 ms at ~1 GHz,
    /// scaled to reference counts).
    pub tick_period_refs: u64,
}

impl AppProfile {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message if any field is out of range.
    pub fn validate(&self) {
        assert!(self.code_lines > 0 && self.heap_lines > 0 && self.stack_lines > 0);
        assert!(self.code_theta >= 0.0 && self.heap_theta >= 0.0);
        assert!(
            self.heap_hot_lines > 0 && self.heap_hot_lines <= self.heap_lines,
            "heap hot core must fit in the heap"
        );
        assert!((0.0..=1.0).contains(&self.heap_hot_frac));
        assert!((0.0..=1.0).contains(&self.heap_p_seq));
        assert!(self.heap_seq_len >= 1.0);
        assert!((0.0..=1.0).contains(&self.ifetch_frac));
        assert!((0.0..=1.0).contains(&self.store_frac));
        assert!((0.0..=1.0).contains(&self.stack_frac));
        assert!(self.mean_user_run >= 1.0);
        assert!(!self.syscall_mix.is_empty(), "app must invoke syscalls");
        assert!((0.0..=1.0).contains(&self.irq_frac));
        assert!(self.tick_period_refs > 0);
        if self.irq_frac > 0.0 {
            assert!(!self.irq_mix.is_empty(), "irq_frac > 0 requires irq_mix");
        }
    }

    /// The ten-app evaluation suite plus lookups by name.
    ///
    /// # Examples
    ///
    /// ```
    /// use moca_trace::AppProfile;
    /// assert_eq!(AppProfile::suite().len(), 10);
    /// ```
    pub fn suite() -> Vec<AppProfile> {
        vec![
            Self::browser(),
            Self::email(),
            Self::maps(),
            Self::game(),
            Self::video(),
            Self::music(),
            Self::social(),
            Self::office(),
            Self::pdf(),
            Self::camera(),
        ]
    }

    /// Looks an app profile up by its stable name.
    pub fn by_name(name: &str) -> Option<AppProfile> {
        Self::suite().into_iter().find(|p| p.name == name)
    }

    /// A stable 64-bit fingerprint over *every* profile parameter.
    ///
    /// Two profiles fingerprint equal exactly when every field (name,
    /// region geometry, locality knobs, service mixes) is bit-equal — so
    /// a profile tweaked for a what-if study gets a different fingerprint
    /// than the suite profile it started from. Together with a trace
    /// seed, the fingerprint identifies a generated reference stream;
    /// `moca-sim`'s filtered-run memo uses it as a memoization key. Hashing is the fixed-seed [`crate::fxhash::FxHasher`], so the
    /// value is identical across runs and processes.
    ///
    /// # Examples
    ///
    /// ```
    /// use moca_trace::AppProfile;
    ///
    /// assert_eq!(AppProfile::music().fingerprint(), AppProfile::music().fingerprint());
    /// let mut tweaked = AppProfile::music();
    /// tweaked.heap_lines += 1;
    /// assert_ne!(AppProfile::music().fingerprint(), tweaked.fingerprint());
    /// ```
    pub fn fingerprint(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = crate::fxhash::FxHasher::default();
        h.write_usize(self.name.len());
        h.write(self.name.as_bytes());
        for v in [
            self.code_lines,
            self.heap_lines,
            self.heap_hot_lines,
            self.stack_lines,
            self.tick_period_refs,
        ] {
            h.write_u64(v);
        }
        for v in [
            self.code_theta,
            self.heap_theta,
            self.heap_hot_frac,
            self.heap_p_seq,
            self.heap_seq_len,
            self.ifetch_frac,
            self.store_frac,
            self.stack_frac,
            self.mean_user_run,
            self.irq_frac,
        ] {
            h.write_u64(v.to_bits());
        }
        h.write_usize(self.syscall_mix.len());
        for (service, weight) in self.syscall_mix.iter().chain(&self.irq_mix) {
            h.write_u8(*service as u8);
            h.write_u64(weight.to_bits());
        }
        h.finish()
    }

    fn base(name: &'static str) -> AppProfile {
        AppProfile {
            name,
            code_lines: 2048,
            code_theta: 1.45,
            heap_lines: 196_608,
            heap_theta: 0.9,
            heap_hot_lines: 2304,
            heap_hot_frac: 0.88,
            heap_p_seq: 0.15,
            heap_seq_len: 8.0,
            stack_lines: 64,
            ifetch_frac: 0.50,
            store_frac: 0.30,
            stack_frac: 0.30,
            mean_user_run: 900.0,
            syscall_mix: vec![(Service::FileRead, 1.0)],
            irq_frac: 0.10,
            irq_mix: vec![(Service::IrqTouch, 1.0)],
            tick_period_refs: 120_000,
        }
    }

    /// Web browser: large code and heap, network + file heavy, busy UI.
    pub fn browser() -> AppProfile {
        AppProfile {
            code_lines: 4096,
            code_theta: 1.55,
            heap_lines: 327_680,
            heap_theta: 0.9,
            heap_hot_lines: 3584,
            heap_hot_frac: 0.86,
            heap_p_seq: 0.20,
            mean_user_run: 700.0,
            syscall_mix: vec![
                (Service::FileRead, 2.0),
                (Service::Mmap, 1.0),
                (Service::Poll, 2.5),
                (Service::NetRecv, 2.5),
                (Service::NetSend, 1.5),
                (Service::Binder, 1.5),
                (Service::Futex, 1.5),
                (Service::PageFault, 1.0),
            ],
            irq_frac: 0.18,
            irq_mix: vec![(Service::IrqTouch, 2.0), (Service::IrqNet, 3.0)],
            ..Self::base("browser")
        }
    }

    /// Email client: VFS + network metadata traffic.
    pub fn email() -> AppProfile {
        AppProfile {
            heap_lines: 163_840,
            heap_hot_lines: 2048,
            mean_user_run: 900.0,
            syscall_mix: vec![
                (Service::FileRead, 2.0),
                (Service::FileWrite, 1.0),
                (Service::VfsMeta, 2.5),
                (Service::NetRecv, 2.0),
                (Service::NetSend, 1.0),
                (Service::Poll, 1.5),
                (Service::Binder, 1.0),
            ],
            irq_frac: 0.12,
            irq_mix: vec![(Service::IrqTouch, 1.0), (Service::IrqNet, 2.0)],
            ..Self::base("email")
        }
    }

    /// Navigation/maps: large streaming heap (tiles), network + sensors.
    pub fn maps() -> AppProfile {
        AppProfile {
            heap_lines: 393_216,
            heap_theta: 0.85,
            heap_hot_lines: 4096,
            heap_hot_frac: 0.82,
            heap_p_seq: 0.35,
            heap_seq_len: 24.0,
            mean_user_run: 800.0,
            syscall_mix: vec![
                (Service::NetRecv, 3.0),
                (Service::FileRead, 1.5),
                (Service::Ioctl, 2.5),
                (Service::Binder, 1.5),
                (Service::Poll, 1.5),
                (Service::Mmap, 0.5),
            ],
            irq_frac: 0.15,
            irq_mix: vec![(Service::IrqNet, 2.0), (Service::IrqTouch, 1.0)],
            ..Self::base("maps")
        }
    }

    /// Casual game: hot code loop, GPU ioctls, futex-heavy engine threads.
    pub fn game() -> AppProfile {
        AppProfile {
            code_lines: 2048,
            code_theta: 1.55,
            heap_lines: 262_144,
            heap_theta: 1.0,
            heap_hot_lines: 3072,
            heap_hot_frac: 0.90,
            heap_p_seq: 0.25,
            mean_user_run: 1500.0,
            ifetch_frac: 0.52,
            syscall_mix: vec![
                (Service::Ioctl, 4.0),
                (Service::Futex, 2.5),
                (Service::Binder, 1.0),
                (Service::Poll, 1.0),
                (Service::FileRead, 0.5),
            ],
            irq_frac: 0.20,
            irq_mix: vec![(Service::IrqTouch, 3.0)],
            ..Self::base("game")
        }
    }

    /// Video playback: streaming reads and codec buffers.
    pub fn video() -> AppProfile {
        AppProfile {
            heap_lines: 262_144,
            heap_theta: 0.8,
            heap_hot_lines: 3072,
            heap_hot_frac: 0.80,
            heap_p_seq: 0.55,
            heap_seq_len: 32.0,
            mean_user_run: 1000.0,
            store_frac: 0.38,
            syscall_mix: vec![
                (Service::FileRead, 3.5),
                (Service::Ioctl, 3.0),
                (Service::Poll, 1.0),
                (Service::Binder, 0.8),
                (Service::Futex, 0.7),
            ],
            irq_frac: 0.12,
            irq_mix: vec![(Service::IrqDisk, 2.0), (Service::IrqTouch, 0.5)],
            ..Self::base("video")
        }
    }

    /// Music playback: small working set, frequent small reads.
    pub fn music() -> AppProfile {
        AppProfile {
            code_lines: 1024,
            heap_lines: 98_304,
            heap_theta: 1.0,
            heap_hot_lines: 1280,
            heap_hot_frac: 0.92,
            mean_user_run: 1200.0,
            syscall_mix: vec![
                (Service::FileRead, 3.0),
                (Service::Ioctl, 2.0),
                (Service::Poll, 1.0),
                (Service::Binder, 0.8),
            ],
            irq_frac: 0.10,
            irq_mix: vec![(Service::IrqDisk, 1.0), (Service::IrqTouch, 0.5)],
            ..Self::base("music")
        }
    }

    /// Social feed: mix of network, binder and UI activity.
    pub fn social() -> AppProfile {
        AppProfile {
            heap_lines: 229_376,
            heap_hot_lines: 2560,
            mean_user_run: 750.0,
            syscall_mix: vec![
                (Service::NetRecv, 2.5),
                (Service::NetSend, 1.2),
                (Service::Binder, 2.0),
                (Service::Poll, 1.8),
                (Service::FileRead, 1.2),
                (Service::Futex, 1.0),
                (Service::PageFault, 0.8),
            ],
            irq_frac: 0.16,
            irq_mix: vec![(Service::IrqNet, 2.0), (Service::IrqTouch, 2.0)],
            ..Self::base("social")
        }
    }

    /// Office suite: document parsing, VFS-heavy.
    pub fn office() -> AppProfile {
        AppProfile {
            code_lines: 3072,
            heap_lines: 196_608,
            heap_hot_lines: 2304,
            mean_user_run: 1000.0,
            syscall_mix: vec![
                (Service::FileRead, 2.5),
                (Service::FileWrite, 1.5),
                (Service::VfsMeta, 2.0),
                (Service::Mmap, 1.0),
                (Service::Binder, 0.8),
                (Service::PageFault, 1.0),
            ],
            irq_frac: 0.08,
            irq_mix: vec![(Service::IrqTouch, 1.0), (Service::IrqDisk, 1.0)],
            ..Self::base("office")
        }
    }

    /// PDF reader: page rendering loops over mmapped documents.
    pub fn pdf() -> AppProfile {
        AppProfile {
            heap_lines: 294_912,
            heap_theta: 0.9,
            heap_hot_lines: 3072,
            heap_hot_frac: 0.85,
            heap_p_seq: 0.30,
            heap_seq_len: 16.0,
            mean_user_run: 1300.0,
            syscall_mix: vec![
                (Service::FileRead, 2.0),
                (Service::Mmap, 1.5),
                (Service::PageFault, 2.5),
                (Service::VfsMeta, 0.8),
                (Service::Binder, 0.6),
            ],
            irq_frac: 0.10,
            irq_mix: vec![(Service::IrqTouch, 2.0)],
            ..Self::base("pdf")
        }
    }

    /// Camera: huge streaming buffers moved through driver ioctls.
    pub fn camera() -> AppProfile {
        AppProfile {
            heap_lines: 327_680,
            heap_theta: 0.75,
            heap_hot_lines: 3072,
            heap_hot_frac: 0.78,
            heap_p_seq: 0.6,
            heap_seq_len: 48.0,
            store_frac: 0.42,
            mean_user_run: 800.0,
            syscall_mix: vec![
                (Service::Ioctl, 4.5),
                (Service::Binder, 1.5),
                (Service::FileWrite, 1.5),
                (Service::Poll, 1.0),
                (Service::Futex, 0.8),
            ],
            irq_frac: 0.18,
            irq_mix: vec![(Service::IrqTouch, 1.0), (Service::IrqDisk, 1.5)],
            ..Self::base("camera")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_ten_distinct_apps() {
        let suite = AppProfile::suite();
        assert_eq!(suite.len(), 10);
        let mut names: Vec<_> = suite.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10, "app names must be unique");
    }

    #[test]
    fn all_profiles_validate() {
        for p in AppProfile::suite() {
            p.validate();
        }
    }

    #[test]
    fn by_name_roundtrip() {
        for p in AppProfile::suite() {
            let found = AppProfile::by_name(p.name).expect("lookup");
            assert_eq!(found, p);
        }
        assert!(AppProfile::by_name("nonexistent").is_none());
    }

    #[test]
    fn profiles_have_distinct_personalities() {
        let video = AppProfile::video();
        let game = AppProfile::game();
        assert!(video.heap_p_seq > game.heap_p_seq, "video streams more");
        assert!(game.code_theta > video.code_theta, "game code is hotter");
    }

    #[test]
    fn user_regions_fit_below_kernel() {
        use crate::kernel::layout::KERNEL_BASE;
        for p in AppProfile::suite() {
            let heap_end = layout::HEAP_BASE + p.heap_lines * layout::LINE;
            let code_end = layout::CODE_BASE + p.code_lines * layout::LINE;
            let stack_end = layout::STACK_BASE + p.stack_lines * layout::LINE;
            assert!(
                heap_end < layout::STACK_BASE,
                "{}: heap runs into stack",
                p.name
            );
            assert!(
                code_end < layout::HEAP_BASE,
                "{}: code runs into heap",
                p.name
            );
            assert!(
                stack_end < KERNEL_BASE,
                "{}: stack runs into kernel",
                p.name
            );
        }
    }
}
