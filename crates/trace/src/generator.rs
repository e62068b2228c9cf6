//! The trace generator: interleaves user-mode execution with kernel
//! service bursts according to an [`AppProfile`].
//!
//! A generated trace is an infinite, deterministic stream of
//! [`MemoryAccess`] records. The structure mirrors how interactive apps
//! actually execute: runs of user-space references punctuated by syscall /
//! interrupt bursts, with a periodic scheduler tick.
//!
//! # Examples
//!
//! ```
//! use moca_trace::{AppProfile, TraceGenerator, Mode};
//!
//! let gen = TraceGenerator::new(&AppProfile::browser(), 42);
//! let trace: Vec<_> = gen.take(10_000).collect();
//! let kernel = trace.iter().filter(|a| a.mode == Mode::Kernel).count();
//! assert!(kernel > 0, "interactive apps enter the kernel constantly");
//! ```

use crate::access::{AccessKind, MemoryAccess, Mode};
use crate::apps::{layout, AppProfile};
use crate::kernel::{KernelModel, Service};
use crate::locality::{Region, RegionSpec, RegionStream};
use crate::rng::{Bernoulli, Weights, Xoshiro256};

/// Deterministic per-app seed mixing: the same `seed` drives different
/// streams for different app names.
fn mix_name(seed: u64, name: &str) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// An infinite, deterministic memory-reference stream for one app.
///
/// Implements [`Iterator`] with `Item = MemoryAccess`; use standard
/// adapters (`take`, `filter`, ...) to shape it.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: AppProfile,
    code: RegionStream,
    heap: RegionStream,
    stack: RegionStream,
    kernel: KernelModel,
    rng: Xoshiro256,
    /// The profile's `ifetch_frac`, `stack_frac`, `store_frac` and
    /// `irq_frac` as trials.
    ifetch: Bernoulli,
    stack_ref: Bernoulli,
    store: Bernoulli,
    irq: Bernoulli,
    /// μ of the log-normal user-run length (mean `mean_user_run`).
    user_run_mu: f64,
    /// Generated-ahead accesses; `buf[pos..]` is the unconsumed tail.
    /// A plain `Vec` plus cursor (rather than a `VecDeque`) keeps the
    /// storage contiguous so [`TraceGenerator::fill`] can memcpy it out.
    buf: Vec<MemoryAccess>,
    pos: usize,
    refs_until_tick: i64,
    last_pc: u64,
    syscall_services: Vec<Service>,
    syscall_weights: Weights,
    irq_services: Vec<Service>,
    irq_weights: Weights,
}

impl TraceGenerator {
    /// Builds a generator for `profile` with the given seed.
    ///
    /// The same `(profile, seed)` pair always yields the same stream.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`AppProfile::validate`].
    pub fn new(profile: &AppProfile, seed: u64) -> Self {
        profile.validate();
        let mut rng = Xoshiro256::seed_from_u64(mix_name(seed, profile.name));
        let line = layout::LINE;

        let code_region = Region::new(layout::CODE_BASE, profile.code_lines, line);
        let code_spec = RegionSpec::new(profile.code_lines, profile.code_theta, 0.5, 6.0)
            .with_temporal(0.60, 6.0);
        let mut code_rng = rng.fork(1);
        let code = RegionStream::new(code_region, code_spec, &mut code_rng);

        let heap_region = Region::new(layout::HEAP_BASE, profile.heap_lines, line);
        let heap_spec = RegionSpec::new(
            profile.heap_lines,
            profile.heap_theta,
            profile.heap_p_seq,
            profile.heap_seq_len,
        )
        .with_hot(profile.heap_hot_lines, profile.heap_hot_frac)
        .with_temporal(0.60, 5.0);
        let mut heap_rng = rng.fork(2);
        let heap = RegionStream::new(heap_region, heap_spec, &mut heap_rng);

        let stack_region = Region::new(layout::STACK_BASE, profile.stack_lines, line);
        let stack_spec =
            RegionSpec::new(profile.stack_lines, 0.8, 0.3, 3.0).with_temporal(0.70, 4.0);
        let mut stack_rng = rng.fork(3);
        let stack = RegionStream::new(stack_region, stack_spec, &mut stack_rng);

        let mut kernel_rng = rng.fork(4);
        let kernel = KernelModel::new(&mut kernel_rng);

        let (syscall_services, syscall_weights) = profile.syscall_mix.iter().copied().unzip();
        let (irq_services, irq_weights) = profile.irq_mix.iter().copied().unzip();

        let tick = profile.tick_period_refs as i64;
        Self {
            profile: profile.clone(),
            code,
            heap,
            stack,
            kernel,
            rng,
            ifetch: Bernoulli::new(profile.ifetch_frac),
            stack_ref: Bernoulli::new(profile.stack_frac),
            store: Bernoulli::new(profile.store_frac),
            irq: Bernoulli::new(profile.irq_frac),
            user_run_mu: profile.mean_user_run.ln()
                - Self::USER_RUN_SIGMA * Self::USER_RUN_SIGMA / 2.0,
            buf: Vec::with_capacity(Self::DEFAULT_CHUNK),
            pos: 0,
            refs_until_tick: tick,
            last_pc: layout::CODE_BASE,
            syscall_services,
            syscall_weights: Weights::new(syscall_weights),
            irq_services,
            irq_weights: Weights::new(irq_weights),
        }
    }

    /// The profile this generator was built from.
    pub fn profile(&self) -> &AppProfile {
        &self.profile
    }

    /// σ of the log-normal user-run length.
    const USER_RUN_SIGMA: f64 = 0.6;

    fn emit_user_run(&mut self) -> usize {
        // Log-normal run length: bursty inter-syscall behaviour.
        let len = self
            .rng
            .log_normal(self.user_run_mu, Self::USER_RUN_SIGMA)
            .round()
            .clamp(16.0, self.profile.mean_user_run * 10.0) as usize;
        for _ in 0..len {
            let access = if self.ifetch.sample(&mut self.rng) {
                let addr = self.code.next_addr(&mut self.rng);
                self.last_pc = addr;
                MemoryAccess::new(addr, addr, AccessKind::InstrFetch, Mode::User)
            } else {
                let addr = if self.stack_ref.sample(&mut self.rng) {
                    self.stack.next_addr(&mut self.rng)
                } else {
                    self.heap.next_addr(&mut self.rng)
                };
                let kind = if self.store.sample(&mut self.rng) {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                MemoryAccess::new(addr, self.last_pc, kind, Mode::User)
            };
            self.buf.push(access);
        }
        len
    }

    fn pick_kernel_entry(&mut self) -> Service {
        if self.refs_until_tick <= 0 {
            self.refs_until_tick += self.profile.tick_period_refs as i64;
            return Service::SchedTick;
        }
        if !self.irq_services.is_empty() && self.irq.sample(&mut self.rng) {
            let i = self.rng.weighted_index(&self.irq_weights);
            return self.irq_services[i];
        }
        let i = self.rng.weighted_index(&self.syscall_weights);
        self.syscall_services[i]
    }

    /// Regenerates the buffer: user run / kernel burst pairs written in
    /// place (no per-access queue shuffling, no temporaries) until at
    /// least [`Self::DEFAULT_CHUNK`] accesses are staged.
    ///
    /// Generating a full chunk per refill — rather than one run at a
    /// time — amortizes the refill bookkeeping over thousands of
    /// accesses, so the [`Iterator`] path and [`TraceGenerator::fill`]
    /// share one chunked buffer and one cost profile. Both paths consume
    /// the identical stream; only the generate-ahead distance differs
    /// from generating run-by-run.
    ///
    /// Must only be called once the previous buffer is fully consumed.
    fn refill(&mut self) {
        debug_assert!(
            self.pos >= self.buf.len(),
            "refill with unconsumed accesses"
        );
        self.buf.clear();
        self.pos = 0;
        while self.buf.len() < Self::DEFAULT_CHUNK {
            let user = self.emit_user_run();
            let service = self.pick_kernel_entry();
            let kernel = self
                .kernel
                .emit_burst(service, &mut self.rng, &mut self.buf);
            self.refs_until_tick -= (user + kernel) as i64;
        }
    }

    /// Default number of accesses [`TraceGenerator::fill`] produces into
    /// a buffer with no reserved capacity.
    pub const DEFAULT_CHUNK: usize = 8192;

    /// Fills `out` (cleared first) with the next chunk of the stream and
    /// returns how many accesses were written.
    ///
    /// The chunk size is `out.capacity()`, or [`Self::DEFAULT_CHUNK`] if
    /// the buffer has no capacity yet — so callers allocate once and
    /// reuse the same buffer for every chunk. The stream is infinite, so
    /// the buffer is always filled to the chunk size. Chunks are copied
    /// out with `extend_from_slice` (a memcpy per generated run), not
    /// one `next()` call per access; interleaving `fill` with the
    /// [`Iterator`] interface is allowed and consumes the same stream.
    pub fn fill(&mut self, out: &mut Vec<MemoryAccess>) -> usize {
        out.clear();
        if out.capacity() == 0 {
            out.reserve(Self::DEFAULT_CHUNK);
        }
        self.append_to(out, out.capacity());
        out.len()
    }

    /// Appends the next `n` accesses of the stream to `out`, copied out
    /// of the generate-ahead buffer like [`TraceGenerator::fill`]'s.
    pub(crate) fn append_to(&mut self, out: &mut Vec<MemoryAccess>, n: usize) {
        let target = out.len() + n;
        while out.len() < target {
            if self.pos >= self.buf.len() {
                self.refill();
            }
            let take = (self.buf.len() - self.pos).min(target - out.len());
            out.extend_from_slice(&self.buf[self.pos..self.pos + take]);
            self.pos += take;
        }
    }

    /// The next access of the (infinite) stream.
    pub(crate) fn next_access(&mut self) -> MemoryAccess {
        if self.pos >= self.buf.len() {
            self.refill();
        }
        let access = self.buf[self.pos];
        self.pos += 1;
        access
    }
}

impl Iterator for TraceGenerator {
    type Item = MemoryAccess;

    fn next(&mut self) -> Option<MemoryAccess> {
        Some(self.next_access())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::layout::is_kernel_addr;

    fn sample(name: &str, n: usize, seed: u64) -> Vec<MemoryAccess> {
        let profile = AppProfile::by_name(name).expect("known app");
        TraceGenerator::new(&profile, seed).take(n).collect()
    }

    #[test]
    fn stream_is_deterministic() {
        assert_eq!(sample("browser", 5000, 7), sample("browser", 5000, 7));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(sample("browser", 5000, 7), sample("browser", 5000, 8));
    }

    #[test]
    fn different_apps_differ_with_same_seed() {
        assert_ne!(sample("browser", 5000, 7), sample("email", 5000, 7));
    }

    #[test]
    fn modes_match_address_spaces() {
        for a in sample("social", 20_000, 3) {
            match a.mode {
                Mode::Kernel => assert!(is_kernel_addr(a.addr)),
                Mode::User => assert!(!is_kernel_addr(a.addr)),
            }
        }
    }

    #[test]
    fn kernel_share_is_substantial_in_raw_trace() {
        // Raw (pre-L1) kernel share: should be meaningful but below the
        // post-L1 share (L1 filters user traffic harder; see moca-sim).
        for p in AppProfile::suite() {
            let trace: Vec<_> = TraceGenerator::new(&p, 11).take(200_000).collect();
            let kernel = trace.iter().filter(|a| a.mode == Mode::Kernel).count();
            let share = kernel as f64 / trace.len() as f64;
            assert!(
                (0.05..0.80).contains(&share),
                "{}: raw kernel share {share:.2} out of plausible band",
                p.name
            );
        }
    }

    #[test]
    fn trace_alternates_modes() {
        let trace = sample("email", 100_000, 5);
        let switches = trace.windows(2).filter(|w| w[0].mode != w[1].mode).count();
        assert!(
            switches > 20,
            "expected many user/kernel transitions, got {switches}"
        );
    }

    #[test]
    fn scheduler_tick_fires() {
        let p = AppProfile::music();
        let trace: Vec<_> = TraceGenerator::new(&p, 13)
            .take(p.tick_period_refs as usize * 4)
            .collect();
        use crate::kernel::layout::{LINE, SCHED_BASE, SCHED_LINES};
        let sched_hits = trace
            .iter()
            .filter(|a| a.addr >= SCHED_BASE && a.addr < SCHED_BASE + SCHED_LINES * LINE)
            .count();
        assert!(sched_hits > 0, "tick must touch scheduler data");
    }

    #[test]
    fn stores_present_in_both_modes() {
        let trace = sample("camera", 100_000, 17);
        for mode in Mode::ALL {
            let stores = trace
                .iter()
                .filter(|a| a.mode == mode && a.kind.is_write())
                .count();
            assert!(stores > 0, "{mode} should issue stores");
        }
    }

    #[test]
    fn fill_matches_iterator_stream() {
        let profile = AppProfile::by_name("browser").expect("known app");
        let expected = sample("browser", 50_000, 21);

        let mut gen = TraceGenerator::new(&profile, 21);
        let mut chunk = Vec::with_capacity(4096);
        let mut got = Vec::new();
        while got.len() < expected.len() {
            let n = gen.fill(&mut chunk);
            assert_eq!(n, chunk.len());
            assert_eq!(n, chunk.capacity(), "infinite stream fills to capacity");
            got.extend_from_slice(&chunk);
        }
        got.truncate(expected.len());
        assert_eq!(got, expected);
    }

    #[test]
    fn fill_defaults_chunk_size_for_empty_buffers() {
        let profile = AppProfile::by_name("email").expect("known app");
        let mut gen = TraceGenerator::new(&profile, 3);
        let mut chunk = Vec::new();
        assert_eq!(gen.fill(&mut chunk), TraceGenerator::DEFAULT_CHUNK);
    }

    #[test]
    fn fill_interleaves_with_iterator() {
        let profile = AppProfile::by_name("social").expect("known app");
        let expected = sample("social", 3000, 9);

        let mut gen = TraceGenerator::new(&profile, 9);
        let mut got = Vec::new();
        let mut chunk = Vec::with_capacity(1000);
        got.extend(gen.by_ref().take(500));
        gen.fill(&mut chunk);
        got.extend_from_slice(&chunk);
        got.extend(gen.by_ref().take(500));
        gen.fill(&mut chunk);
        got.extend_from_slice(&chunk);
        got.truncate(expected.len());
        assert_eq!(got, expected);
    }

    #[test]
    fn profile_accessor_returns_input() {
        let p = AppProfile::game();
        let gen = TraceGenerator::new(&p, 1);
        assert_eq!(gen.profile(), &p);
    }
}
