//! Operating-system kernel activity model.
//!
//! Interactive smartphone apps enter the kernel constantly — syscalls for
//! I/O and IPC (binder), page faults, the scheduler tick, device
//! interrupts. The paper's first observation (claim C1 in `DESIGN.md`) is
//! that this traffic makes up *over 40 % of all L2 accesses*. This module
//! reproduces the two properties that make that true:
//!
//! 1. the kernel's working set (handler code, scheduler structures, page
//!    cache, network buffers) is **shared across all invocations**, so
//!    kernel lines are re-referenced heavily at L2, and
//! 2. kernel data structures such as the page cache are **large and only
//!    weakly local**, so kernel accesses filter poorly through the L1s and
//!    collide with user blocks in a shared L2.
//!
//! The model is organized as a set of *services* ([`Service`]): each
//! invocation of a service emits a burst of memory references drawn from
//! the service's handler-text region plus weighted kernel data regions.

use crate::access::{AccessKind, MemoryAccess, Mode};
use crate::locality::{Region, RegionSpec, RegionStream};
use crate::rng::{Bernoulli, Weights, Xoshiro256};

/// Physical address-space layout of the modelled kernel.
///
/// All kernel structures live above [`layout::KERNEL_BASE`]; everything
/// below is user memory. The split lets analysis code classify an address
/// without carrying extra state.
pub mod layout {
    /// First byte of kernel physical memory in the model.
    pub const KERNEL_BASE: u64 = 0xC000_0000;
    /// Cache-line size used for region sizing throughout the model.
    pub const LINE: u64 = 64;

    /// Kernel text (handlers + core). 2 MiB.
    pub const TEXT_BASE: u64 = KERNEL_BASE;
    /// Lines of kernel text.
    pub const TEXT_LINES: u64 = (2 << 20) / LINE;

    /// Scheduler / task structures. 512 KiB.
    pub const SCHED_BASE: u64 = 0xC020_0000;
    /// Lines of scheduler data.
    pub const SCHED_LINES: u64 = (512 << 10) / LINE;

    /// VFS metadata (dentries, inodes, file tables). 8 MiB.
    pub const VFS_BASE: u64 = 0xC030_0000;
    /// Lines of VFS data.
    pub const VFS_LINES: u64 = (8 << 20) / LINE;

    /// Page cache. 32 MiB — a small hot core plus a large streaming tail
    /// that no realistic L2 can capture.
    pub const PAGE_CACHE_BASE: u64 = 0xC0B0_0000;
    /// Lines of page cache.
    pub const PAGE_CACHE_LINES: u64 = (32 << 20) / LINE;

    /// Network socket buffers. 8 MiB, streaming access.
    pub const NET_BASE: u64 = 0xC2B0_0000;
    /// Lines of network buffers.
    pub const NET_LINES: u64 = (8 << 20) / LINE;

    /// Binder IPC buffers. 8 MiB.
    pub const BINDER_BASE: u64 = 0xC330_0000;
    /// Lines of binder buffers.
    pub const BINDER_LINES: u64 = (8 << 20) / LINE;

    /// Memory-management structures (page tables, vm_area). 8 MiB.
    pub const MM_BASE: u64 = 0xC3B0_0000;
    /// Lines of MM data.
    pub const MM_LINES: u64 = (8 << 20) / LINE;

    /// Returns `true` if `addr` lies in kernel memory.
    pub fn is_kernel_addr(addr: u64) -> bool {
        addr >= KERNEL_BASE
    }
}

/// Kernel data regions a service may touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataRegion {
    /// Scheduler and task structures (hot, small).
    Sched,
    /// VFS metadata.
    Vfs,
    /// The page cache (large, weakly local).
    PageCache,
    /// Network socket buffers (streaming).
    Net,
    /// Binder IPC buffers.
    Binder,
    /// Memory-management structures.
    Mm,
}

impl DataRegion {
    /// All data regions in dense-index order.
    pub const ALL: [DataRegion; 6] = [
        DataRegion::Sched,
        DataRegion::Vfs,
        DataRegion::PageCache,
        DataRegion::Net,
        DataRegion::Binder,
        DataRegion::Mm,
    ];

    /// Dense index (matches position in [`DataRegion::ALL`]).
    pub fn index(self) -> usize {
        match self {
            DataRegion::Sched => 0,
            DataRegion::Vfs => 1,
            DataRegion::PageCache => 2,
            DataRegion::Net => 3,
            DataRegion::Binder => 4,
            DataRegion::Mm => 5,
        }
    }

    fn region(self) -> Region {
        use layout::*;
        match self {
            DataRegion::Sched => Region::new(SCHED_BASE, SCHED_LINES, LINE),
            DataRegion::Vfs => Region::new(VFS_BASE, VFS_LINES, LINE),
            DataRegion::PageCache => Region::new(PAGE_CACHE_BASE, PAGE_CACHE_LINES, LINE),
            DataRegion::Net => Region::new(NET_BASE, NET_LINES, LINE),
            DataRegion::Binder => Region::new(BINDER_BASE, BINDER_LINES, LINE),
            DataRegion::Mm => Region::new(MM_BASE, MM_LINES, LINE),
        }
    }

    fn spec(self) -> RegionSpec {
        use layout::*;
        match self {
            // Hot task structs: heavily skewed reuse.
            DataRegion::Sched => RegionSpec::new(SCHED_LINES, 1.0, 0.05, 4.0)
                .with_hot(384, 0.95)
                .with_temporal(0.50, 4.0),
            // Dentry/inode lookups: skewed but wider.
            DataRegion::Vfs => RegionSpec::new(VFS_LINES, 0.9, 0.05, 4.0)
                .with_hot(640, 0.90)
                .with_temporal(0.50, 4.0),
            // Page cache: big footprint, moderate skew, copy loops stream.
            DataRegion::PageCache => RegionSpec::new(PAGE_CACHE_LINES, 0.8, 0.45, 24.0)
                .with_hot(1536, 0.80)
                .with_temporal(0.45, 5.0),
            // Socket buffers: skewed towards live buffers, streaming runs.
            DataRegion::Net => RegionSpec::new(NET_LINES, 0.8, 0.6, 20.0)
                .with_hot(512, 0.85)
                .with_temporal(0.45, 5.0),
            // Binder transaction buffers: streaming copies over live set.
            DataRegion::Binder => RegionSpec::new(BINDER_LINES, 0.8, 0.5, 16.0)
                .with_hot(512, 0.85)
                .with_temporal(0.45, 5.0),
            // Page-table walks: moderately skewed.
            DataRegion::Mm => RegionSpec::new(MM_LINES, 0.8, 0.1, 4.0)
                .with_hot(512, 0.90)
                .with_temporal(0.50, 4.0),
        }
    }
}

/// A kernel service: a syscall family, fault handler, interrupt handler,
/// or the scheduler tick. One [`Service`] invocation produces one burst of
/// kernel-mode references.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Service {
    /// `read(2)`-style file reads through the page cache.
    FileRead,
    /// `write(2)`-style file writes.
    FileWrite,
    /// `open`/`close`/`stat` metadata operations.
    VfsMeta,
    /// `mmap`/`brk` address-space operations.
    Mmap,
    /// Demand page fault handling.
    PageFault,
    /// `futex` wait/wake (lock contention).
    Futex,
    /// `poll`/`epoll` event multiplexing.
    Poll,
    /// `ioctl` to device drivers (GPU, camera, sensors).
    Ioctl,
    /// Android binder IPC transaction.
    Binder,
    /// Socket send path.
    NetSend,
    /// Socket receive path.
    NetRecv,
    /// Periodic scheduler tick + possible context switch.
    SchedTick,
    /// Touchscreen interrupt.
    IrqTouch,
    /// Network interrupt + softirq processing.
    IrqNet,
    /// Storage interrupt.
    IrqDisk,
}

impl Service {
    /// All services in dense-index order.
    pub const ALL: [Service; 15] = [
        Service::FileRead,
        Service::FileWrite,
        Service::VfsMeta,
        Service::Mmap,
        Service::PageFault,
        Service::Futex,
        Service::Poll,
        Service::Ioctl,
        Service::Binder,
        Service::NetSend,
        Service::NetRecv,
        Service::SchedTick,
        Service::IrqTouch,
        Service::IrqNet,
        Service::IrqDisk,
    ];

    /// Dense index (matches position in [`Service::ALL`], which lists
    /// the variants in declaration order).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Service::FileRead => "read",
            Service::FileWrite => "write",
            Service::VfsMeta => "vfs-meta",
            Service::Mmap => "mmap",
            Service::PageFault => "page-fault",
            Service::Futex => "futex",
            Service::Poll => "poll",
            Service::Ioctl => "ioctl",
            Service::Binder => "binder",
            Service::NetSend => "net-send",
            Service::NetRecv => "net-recv",
            Service::SchedTick => "sched-tick",
            Service::IrqTouch => "irq-touch",
            Service::IrqNet => "irq-net",
            Service::IrqDisk => "irq-disk",
        }
    }

    /// Burst profile of this service.
    pub fn spec(self) -> ServiceSpec {
        // data_weights order follows DataRegion::ALL:
        //                     [sched, vfs, pcache, net, binder, mm]
        match self {
            Service::FileRead => {
                ServiceSpec::new(self, 900.0, 0.45, 0.25, [0.5, 1.5, 7.0, 0.0, 0.0, 0.5])
            }
            Service::FileWrite => {
                ServiceSpec::new(self, 800.0, 0.45, 0.55, [0.5, 1.5, 6.5, 0.0, 0.0, 0.5])
            }
            Service::VfsMeta => {
                ServiceSpec::new(self, 300.0, 0.55, 0.20, [0.5, 6.0, 1.0, 0.0, 0.0, 0.5])
            }
            Service::Mmap => {
                ServiceSpec::new(self, 400.0, 0.50, 0.45, [0.5, 1.0, 0.5, 0.0, 0.0, 6.0])
            }
            Service::PageFault => {
                ServiceSpec::new(self, 250.0, 0.50, 0.40, [0.5, 0.0, 2.0, 0.0, 0.0, 5.0])
            }
            Service::Futex => {
                ServiceSpec::new(self, 120.0, 0.60, 0.30, [6.0, 0.0, 0.0, 0.0, 0.0, 1.0])
            }
            Service::Poll => {
                ServiceSpec::new(self, 200.0, 0.60, 0.15, [3.0, 2.0, 0.0, 2.0, 0.0, 0.0])
            }
            Service::Ioctl => {
                ServiceSpec::new(self, 500.0, 0.50, 0.40, [1.0, 1.0, 0.0, 0.0, 2.0, 1.0])
            }
            Service::Binder => {
                ServiceSpec::new(self, 700.0, 0.45, 0.45, [1.5, 0.5, 0.0, 0.0, 6.0, 0.5])
            }
            Service::NetSend => {
                ServiceSpec::new(self, 600.0, 0.45, 0.50, [0.5, 0.5, 0.0, 7.0, 0.0, 0.5])
            }
            Service::NetRecv => {
                ServiceSpec::new(self, 650.0, 0.45, 0.35, [0.5, 0.5, 0.5, 7.0, 0.0, 0.5])
            }
            Service::SchedTick => {
                ServiceSpec::new(self, 80.0, 0.55, 0.30, [8.0, 0.0, 0.0, 0.0, 0.0, 0.5])
            }
            Service::IrqTouch => {
                ServiceSpec::new(self, 150.0, 0.55, 0.30, [3.0, 0.0, 0.0, 0.0, 1.0, 0.0])
            }
            Service::IrqNet => {
                ServiceSpec::new(self, 400.0, 0.50, 0.40, [1.0, 0.0, 0.0, 6.0, 0.0, 0.0])
            }
            Service::IrqDisk => {
                ServiceSpec::new(self, 300.0, 0.50, 0.35, [1.0, 1.0, 4.0, 0.0, 0.0, 0.5])
            }
        }
    }
}

impl std::fmt::Display for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Burst parameters for one [`Service`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceSpec {
    /// The service described.
    pub service: Service,
    /// Mean memory references per invocation (log-normal dispersion).
    pub mean_refs: f64,
    /// Fraction of references that are instruction fetches.
    pub ifetch_frac: f64,
    /// Fraction of *data* references that are stores.
    pub store_frac: f64,
    /// Relative weights over [`DataRegion::ALL`] for data references.
    pub data_weights: [f64; 6],
}

impl ServiceSpec {
    fn new(
        service: Service,
        mean_refs: f64,
        ifetch_frac: f64,
        store_frac: f64,
        data_weights: [f64; 6],
    ) -> Self {
        debug_assert!(mean_refs >= 1.0);
        debug_assert!((0.0..=1.0).contains(&ifetch_frac));
        debug_assert!((0.0..=1.0).contains(&store_frac));
        debug_assert!(data_weights.iter().sum::<f64>() > 0.0);
        Self {
            service,
            mean_refs,
            ifetch_frac,
            store_frac,
            data_weights,
        }
    }
}

/// Lines of handler text dedicated to each service.
const HANDLER_TEXT_LINES: u64 = 128;
/// Lines of shared entry/exit + core kernel text touched by every burst.
const CORE_TEXT_LINES: u64 = 256;
/// Fraction of ifetches that hit core text rather than the handler.
const CORE_TEXT_FRAC: f64 = 0.25;
/// σ of the log-normal burst length.
const BURST_SIGMA: f64 = 0.45;

/// One service's per-burst and per-reference draws, computed from its
/// [`ServiceSpec`] once.
#[derive(Debug, Clone)]
struct BurstDraws {
    /// μ of the log-normal burst length (mean `mean_refs`).
    mu: f64,
    /// The burst-length clamp's upper end, `8 · mean_refs`.
    max_len: f64,
    ifetch: Bernoulli,
    store: Bernoulli,
    data_weights: Weights,
}

impl BurstDraws {
    fn new(spec: ServiceSpec) -> Self {
        BurstDraws {
            mu: spec.mean_refs.ln() - BURST_SIGMA * BURST_SIGMA / 2.0,
            max_len: spec.mean_refs * 8.0,
            ifetch: Bernoulli::new(spec.ifetch_frac),
            store: Bernoulli::new(spec.store_frac),
            data_weights: Weights::new(spec.data_weights.to_vec()),
        }
    }
}

/// The stateful kernel model: one per generated trace.
///
/// All services share the same region streams, which is what makes kernel
/// lines highly reused across invocations — the effect behind the paper's
/// kernel-segment retention analysis.
#[derive(Debug, Clone)]
pub struct KernelModel {
    handler_text: Vec<RegionStream>,
    core_text: RegionStream,
    data: Vec<RegionStream>,
    /// Each service's draws, by service index.
    draws: Vec<BurstDraws>,
    last_pc: u64,
}

impl KernelModel {
    /// Builds the model; all internal streams fork deterministically from
    /// `rng`.
    ///
    /// # Panics
    ///
    /// Panics only if the static layout in [`layout`] is inconsistent
    /// (checked by debug assertions and tests).
    pub fn new(rng: &mut Xoshiro256) -> Self {
        let line = layout::LINE;
        let mut handler_text = Vec::with_capacity(Service::ALL.len());
        for (i, _svc) in Service::ALL.iter().enumerate() {
            let base = layout::TEXT_BASE + (i as u64) * HANDLER_TEXT_LINES * line;
            let region = Region::new(base, HANDLER_TEXT_LINES, line);
            // Handler code: tight, hot loops.
            let spec = RegionSpec::new(HANDLER_TEXT_LINES, 1.2, 0.55, 6.0).with_temporal(0.55, 6.0);
            let mut stream_rng = rng.fork(0x1000 + i as u64);
            handler_text.push(RegionStream::new(region, spec, &mut stream_rng));
        }
        let core_base = layout::TEXT_BASE + (Service::ALL.len() as u64) * HANDLER_TEXT_LINES * line;
        debug_assert!(
            core_base + CORE_TEXT_LINES * line <= layout::TEXT_BASE + layout::TEXT_LINES * line,
            "kernel text regions exceed TEXT area"
        );
        let core_region = Region::new(core_base, CORE_TEXT_LINES, line);
        let mut core_rng = rng.fork(0x2000);
        let core_text = RegionStream::new(
            core_region,
            RegionSpec::new(CORE_TEXT_LINES, 1.1, 0.5, 5.0).with_temporal(0.55, 6.0),
            &mut core_rng,
        );
        let mut data = Vec::with_capacity(DataRegion::ALL.len());
        for (i, dr) in DataRegion::ALL.iter().enumerate() {
            let mut data_rng = rng.fork(0x3000 + i as u64);
            data.push(RegionStream::new(dr.region(), dr.spec(), &mut data_rng));
        }
        Self {
            handler_text,
            core_text,
            data,
            draws: Service::ALL
                .iter()
                .map(|s| BurstDraws::new(s.spec()))
                .collect(),
            last_pc: core_region.base(),
        }
    }

    /// Emits one invocation burst for `service` into `out`.
    ///
    /// Returns the number of references emitted.
    pub fn emit_burst(
        &mut self,
        service: Service,
        rng: &mut Xoshiro256,
        out: &mut Vec<MemoryAccess>,
    ) -> usize {
        const CORE_TEXT: Bernoulli = Bernoulli::new(CORE_TEXT_FRAC);
        let draws = &self.draws[service.index()];
        // Log-normal burst length around the mean, clamped to a sane band.
        let len = rng
            .log_normal(draws.mu, BURST_SIGMA)
            .round()
            .clamp(8.0, draws.max_len) as usize;
        let before = out.len();
        for _ in 0..len {
            let access = if draws.ifetch.sample(rng) {
                let addr = if CORE_TEXT.sample(rng) {
                    self.core_text.next_addr(rng)
                } else {
                    self.handler_text[service.index()].next_addr(rng)
                };
                self.last_pc = addr;
                MemoryAccess::new(addr, addr, AccessKind::InstrFetch, Mode::Kernel)
            } else {
                let region = DataRegion::ALL[rng.weighted_index(&draws.data_weights)];
                let addr = self.data[region.index()].next_addr(rng);
                let kind = if draws.store.sample(rng) {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                MemoryAccess::new(addr, self.last_pc, kind, Mode::Kernel)
            };
            out.push(access);
        }
        out.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_regions_are_disjoint() {
        let regions: Vec<Region> = DataRegion::ALL.iter().map(|d| d.region()).collect();
        for (i, a) in regions.iter().enumerate() {
            for b in regions.iter().skip(i + 1) {
                assert!(!a.overlaps(b), "{a:?} overlaps {b:?}");
            }
            let text = Region::new(layout::TEXT_BASE, layout::TEXT_LINES, layout::LINE);
            assert!(!a.overlaps(&text), "{a:?} overlaps kernel text");
        }
    }

    #[test]
    fn all_kernel_addresses_classify_as_kernel() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let mut model = KernelModel::new(&mut rng);
        let mut out = Vec::new();
        for svc in Service::ALL {
            model.emit_burst(svc, &mut rng, &mut out);
        }
        assert!(!out.is_empty());
        for a in &out {
            assert_eq!(a.mode, Mode::Kernel);
            assert!(
                layout::is_kernel_addr(a.addr),
                "kernel burst produced user address {:#x}",
                a.addr
            );
        }
    }

    #[test]
    fn service_indices_match_all_order() {
        for (i, svc) in Service::ALL.iter().enumerate() {
            assert_eq!(svc.index(), i);
        }
        for (i, dr) in DataRegion::ALL.iter().enumerate() {
            assert_eq!(dr.index(), i);
        }
    }

    #[test]
    fn burst_length_tracks_mean() {
        let mut rng = Xoshiro256::seed_from_u64(2);
        let mut model = KernelModel::new(&mut rng);
        let mut out = Vec::new();
        let n = 400;
        let mut total = 0usize;
        for _ in 0..n {
            total += model.emit_burst(Service::FileRead, &mut rng, &mut out);
        }
        let mean = total as f64 / n as f64;
        let target = Service::FileRead.spec().mean_refs;
        assert!(
            (mean - target).abs() < target * 0.2,
            "mean burst {mean} should be near {target}"
        );
    }

    #[test]
    fn sched_tick_touches_sched_data() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut model = KernelModel::new(&mut rng);
        let mut out = Vec::new();
        for _ in 0..50 {
            model.emit_burst(Service::SchedTick, &mut rng, &mut out);
        }
        let sched = DataRegion::Sched.region();
        let hits = out.iter().filter(|a| sched.contains(a.addr)).count();
        assert!(hits > 0, "sched tick must touch scheduler data");
    }

    #[test]
    fn file_read_is_page_cache_heavy() {
        let mut rng = Xoshiro256::seed_from_u64(4);
        let mut model = KernelModel::new(&mut rng);
        let mut out = Vec::new();
        for _ in 0..50 {
            model.emit_burst(Service::FileRead, &mut rng, &mut out);
        }
        let pc = DataRegion::PageCache.region();
        let data_total = out.iter().filter(|a| !a.kind.is_ifetch()).count();
        let pc_hits = out.iter().filter(|a| pc.contains(a.addr)).count();
        assert!(
            pc_hits as f64 > 0.5 * data_total as f64,
            "file reads should be dominated by page-cache traffic"
        );
    }

    #[test]
    fn bursts_are_deterministic() {
        let run = || {
            let mut rng = Xoshiro256::seed_from_u64(77);
            let mut model = KernelModel::new(&mut rng);
            let mut out = Vec::new();
            model.emit_burst(Service::Binder, &mut rng, &mut out);
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn store_fraction_is_respected() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let mut model = KernelModel::new(&mut rng);
        let mut out = Vec::new();
        for _ in 0..200 {
            model.emit_burst(Service::FileWrite, &mut rng, &mut out);
        }
        let data: Vec<_> = out.iter().filter(|a| !a.kind.is_ifetch()).collect();
        let stores = data.iter().filter(|a| a.kind.is_write()).count();
        let frac = stores as f64 / data.len() as f64;
        let target = Service::FileWrite.spec().store_frac;
        assert!(
            (frac - target).abs() < 0.05,
            "store fraction {frac} should be near {target}"
        );
    }
}
