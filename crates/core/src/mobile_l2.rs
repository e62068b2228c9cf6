//! The unified mobile L2 engine.
//!
//! [`MobileL2`] executes every way-partitioned [`L2Design`]: the shared
//! SRAM baseline, the statically partitioned (and shrunk) SRAM design,
//! the multi-retention STT-RAM static design, and the dynamically
//! partitioned short-retention STT-RAM design. One engine for all four
//! keeps the comparison honest — every design runs the identical request
//! path, differing only in way masks, bank technologies, and controllers.
//! The set-partitioned and hybrid alternatives have their own engines;
//! [`L2Engine`](crate::engine::L2Engine) picks the one a design runs on.

use moca_cache::stats::CacheStats;
use moca_cache::{BlockView, CacheGeometry, L2Request, PartitionSpec, SetAssocCache, WayMask};
use moca_energy::{
    EnergyAccountant, EnergyBreakdown, MemoryTechnology, RetentionClass, Technology, Time,
};
use moca_trace::Mode;

use crate::behavior::SegmentBehavior;
use crate::design::{DesignError, L2BaseParams, L2Design, RefreshPolicy, CLOCK_GHZ, LINE_BYTES};
use crate::dynamic::{AllocationSample, ControllerConfig, DynamicController};

/// Response of the L2 to one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Response {
    /// Whether the request hit in its segment.
    pub hit: bool,
    /// L2 array latency on the request path, in cycles.
    pub latency_cycles: u64,
    /// `true` if the line had to be fetched from DRAM (miss).
    pub dram_read: bool,
}

/// DRAM traffic generated by the L2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficCounters {
    /// Lines fetched from DRAM (L2 misses).
    pub dram_reads: u64,
    /// Lines written back to DRAM (dirty evictions, drains, and early
    /// expiry writebacks).
    pub dram_writes: u64,
}

/// Retention-expiry bookkeeping of one volatile segment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExpiryStats {
    /// Blocks that expired and were invalidated.
    pub expired: u64,
    /// Early writebacks performed to protect dirty data from expiry.
    pub expiry_writebacks: u64,
    /// Refresh rewrites performed (refresh policy only).
    pub refreshes: u64,
}

impl ExpiryStats {
    fn merge(&mut self, other: &ExpiryStats) {
        self.expired += other.expired;
        self.expiry_writebacks += other.expiry_writebacks;
        self.refreshes += other.refreshes;
    }
}

/// Fraction of the retention period after which a sweep writes dirty
/// blocks back (and refreshes, under the refresh policy).
const AGE_ACTION_NUM: u64 = 1;
const AGE_ACTION_DEN: u64 = 2;
/// Sweeps per retention period.
const SWEEPS_PER_RETENTION: u64 = 4;
/// Lower bound on the sweep period so microscopic retentions cannot make
/// maintenance quadratic.
const MIN_SWEEP_CYCLES: u64 = 10_000;

#[derive(Debug, Clone)]
struct Segment {
    mask: WayMask,
    acct: EnergyAccountant,
    retention: Option<RetentionClass>,
    retention_cycles: Option<u64>,
    refresh: RefreshPolicy,
    sweep_period: u64,
    next_sweep: u64,
    expiry: ExpiryStats,
    behavior: SegmentBehavior,
    read_latency_cycles: u64,
    write_latency_cycles: u64,
}

impl Segment {
    fn new(
        mask: WayMask,
        retention: Option<RetentionClass>,
        refresh: RefreshPolicy,
        params: &L2BaseParams,
    ) -> Self {
        let tech = Self::technology(mask.count(), retention, params);
        let retention_cycles = retention
            .filter(|r| r.is_volatile())
            .map(|r| r.duration().cycles(CLOCK_GHZ).max(1));
        let sweep_period = retention_cycles
            .map(|rc| (rc / SWEEPS_PER_RETENTION).max(MIN_SWEEP_CYCLES))
            .unwrap_or(u64::MAX);
        let read_latency_cycles = tech.read_latency().cycles(CLOCK_GHZ).max(1);
        let write_latency_cycles = tech.write_latency().cycles(CLOCK_GHZ).max(1);
        Self {
            mask,
            acct: EnergyAccountant::new(tech),
            retention,
            retention_cycles,
            refresh,
            sweep_period,
            next_sweep: sweep_period,
            expiry: ExpiryStats::default(),
            behavior: SegmentBehavior::new(),
            read_latency_cycles,
            write_latency_cycles,
        }
    }

    fn technology(
        ways: u32,
        retention: Option<RetentionClass>,
        params: &L2BaseParams,
    ) -> Technology {
        let ways = ways.max(1);
        let capacity = params.way_bytes() * u64::from(ways);
        match retention {
            None => Technology::Sram(moca_energy::SramBank::new(capacity, ways)),
            Some(rc) => Technology::SttRam(moca_energy::SttRamBank::new(capacity, ways, rc)),
        }
    }

    /// Re-models the bank after a resize; the old bank pays its `live` time.
    fn resize(&mut self, params: &L2BaseParams, live: Time) {
        let tech = Self::technology(self.mask.count(), self.retention, params);
        self.read_latency_cycles = tech.read_latency().cycles(CLOCK_GHZ).max(1);
        self.write_latency_cycles = tech.write_latency().cycles(CLOCK_GHZ).max(1);
        self.acct.set_bank(tech, live);
    }

    fn record_removal(&mut self, ev: &BlockView) {
        self.behavior.evictions += 1;
        if ev.access_count <= 1 {
            self.behavior.dead_blocks += 1;
        }
        self.behavior
            .lifetime
            .record(ev.last_touch.saturating_sub(ev.inserted_at));
    }
}

/// The unified L2 engine (see module docs).
///
/// # Examples
///
/// ```
/// use moca_core::{L2BaseParams, L2Design, MobileL2};
/// use moca_cache::{L2Cause, L2Request};
/// use moca_trace::{AccessKind, Mode};
///
/// let mut l2 = MobileL2::new(L2Design::baseline(), L2BaseParams::default())?;
/// let req = L2Request {
///     line: 42,
///     write: false,
///     mode: Mode::User,
///     cause: L2Cause::Demand(AccessKind::Load),
/// };
/// let miss = l2.request(&req, 0);
/// assert!(!miss.hit && miss.dram_read);
/// let hit = l2.request(&req, 100);
/// assert!(hit.hit);
/// # Ok::<(), moca_core::DesignError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MobileL2 {
    design: L2Design,
    params: L2BaseParams,
    cache: SetAssocCache,
    segments: Vec<Segment>,
    shared: bool,
    controller: Option<DynamicController>,
    traffic: TrafficCounters,
    timeline: Vec<AllocationSample>,
    /// Cycle at which the segments' current banks became live.
    live_since: u64,
    prefetches: u64,
}

impl MobileL2 {
    /// Builds the engine for a design point.
    ///
    /// # Errors
    ///
    /// Returns [`DesignError`] if the design fails validation, runs on
    /// another engine ([`DesignError::OtherEngine`]), or gets no valid
    /// geometry from `params`.
    pub fn new(design: L2Design, params: L2BaseParams) -> Result<Self, DesignError> {
        design.validate()?;
        let phys_ways = design.physical_ways();
        let geom = CacheGeometry::from_sets(params.sets, phys_ways, LINE_BYTES)
            .map_err(DesignError::Geometry)?;
        let cache = SetAssocCache::new(geom);

        let (segments, shared, controller, timeline) = match design {
            L2Design::SharedSram { ways } => {
                let seg = Segment::new(
                    WayMask::first(ways),
                    None,
                    RefreshPolicy::InvalidateOnExpiry,
                    &params,
                );
                (vec![seg], true, None, Vec::new())
            }
            L2Design::SharedStt {
                ways,
                retention,
                refresh,
            } => {
                let seg = Segment::new(WayMask::first(ways), Some(retention), refresh, &params);
                (vec![seg], true, None, Vec::new())
            }
            L2Design::StaticSram {
                user_ways,
                kernel_ways,
            } => {
                let part = PartitionSpec::split(user_ways, kernel_ways, phys_ways)
                    .expect("validated design produces a valid partition");
                let user = Segment::new(
                    part.user(),
                    None,
                    RefreshPolicy::InvalidateOnExpiry,
                    &params,
                );
                let kernel = Segment::new(
                    part.kernel(),
                    None,
                    RefreshPolicy::InvalidateOnExpiry,
                    &params,
                );
                (vec![user, kernel], false, None, Vec::new())
            }
            L2Design::StaticMultiRetention {
                user_ways,
                kernel_ways,
                user_retention,
                kernel_retention,
                refresh,
            } => {
                let part = PartitionSpec::split(user_ways, kernel_ways, phys_ways)
                    .expect("validated design produces a valid partition");
                let user = Segment::new(part.user(), Some(user_retention), refresh, &params);
                let kernel = Segment::new(part.kernel(), Some(kernel_retention), refresh, &params);
                (vec![user, kernel], false, None, Vec::new())
            }
            L2Design::DynamicSram {
                max_ways,
                min_ways,
                epoch_cycles,
            } => Self::dynamic_parts(max_ways, min_ways, epoch_cycles, None, None, geom, &params),
            L2Design::DynamicStt {
                max_ways,
                min_ways,
                user_retention,
                kernel_retention,
                refresh,
                epoch_cycles,
            } => Self::dynamic_parts(
                max_ways,
                min_ways,
                epoch_cycles,
                Some((user_retention, kernel_retention)),
                Some(refresh),
                geom,
                &params,
            ),
            L2Design::SetPartitionedSram { .. } | L2Design::HybridStt { .. } => {
                return Err(DesignError::OtherEngine)
            }
        };

        Ok(Self {
            design,
            params,
            cache,
            segments,
            shared,
            controller,
            traffic: TrafficCounters::default(),
            timeline,
            live_since: 0,
            prefetches: 0,
        })
    }

    #[allow(clippy::type_complexity)]
    fn dynamic_parts(
        max_ways: u32,
        min_ways: u32,
        epoch_cycles: u64,
        retentions: Option<(RetentionClass, RetentionClass)>,
        refresh: Option<RefreshPolicy>,
        geom: CacheGeometry,
        params: &L2BaseParams,
    ) -> (
        Vec<Segment>,
        bool,
        Option<DynamicController>,
        Vec<AllocationSample>,
    ) {
        // Start from an even split; the controller shrinks from there.
        let user_start = max_ways / 2;
        let kernel_start = max_ways - user_start;
        let part = PartitionSpec::split(user_start, kernel_start, max_ways)
            .expect("validated design produces a valid partition");
        let refresh = refresh.unwrap_or(RefreshPolicy::InvalidateOnExpiry);
        let user = Segment::new(part.user(), retentions.map(|(u, _)| u), refresh, params);
        let kernel = Segment::new(part.kernel(), retentions.map(|(_, k)| k), refresh, params);
        let cfg = ControllerConfig::new(epoch_cycles, min_ways, max_ways);
        let controller = DynamicController::new(cfg, geom);
        let timeline = vec![AllocationSample {
            cycle: 0,
            user_ways: user_start,
            kernel_ways: kernel_start,
        }];
        (vec![user, kernel], false, Some(controller), timeline)
    }

    /// The design point being executed.
    pub fn design(&self) -> &L2Design {
        &self.design
    }

    /// The base parameters.
    pub fn params(&self) -> &L2BaseParams {
        &self.params
    }

    fn segment_index(&self, mode: Mode) -> usize {
        if self.shared {
            0
        } else {
            mode.index()
        }
    }

    /// Ways currently serving `mode`.
    pub fn segment_ways(&self, mode: Mode) -> u32 {
        self.segments[self.segment_index(mode)].mask.count()
    }

    /// Total powered-on ways.
    pub fn active_ways(&self) -> u32 {
        if self.shared {
            self.segments[0].mask.count()
        } else {
            self.segments.iter().map(|s| s.mask.count()).sum()
        }
    }

    /// Aggregated cache statistics (hits/misses/interference per mode).
    pub fn stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// DRAM traffic generated so far.
    pub fn traffic(&self) -> TrafficCounters {
        self.traffic
    }

    /// Merged expiry statistics across segments.
    pub fn expiry_stats(&self) -> ExpiryStats {
        let mut total = ExpiryStats::default();
        for s in &self.segments {
            total.merge(&s.expiry);
        }
        total
    }

    /// Energy breakdown of one mode's segment.
    #[cfg(test)]
    fn segment_energy(&self, mode: Mode) -> EnergyBreakdown {
        self.segments[self.segment_index(mode)].acct.breakdown()
    }

    /// Merged energy breakdown across segments.
    pub fn energy(&self) -> EnergyBreakdown {
        let mut total = EnergyBreakdown::new();
        for s in &self.segments {
            total.merge(&s.acct.breakdown());
        }
        total
    }

    /// Behaviour observed in one mode's segment.
    pub fn behavior(&self, mode: Mode) -> &SegmentBehavior {
        &self.segments[self.segment_index(mode)].behavior
    }

    /// Allocation history (dynamic designs; static designs return their
    /// initial allocation only).
    pub fn timeline(&self) -> &[AllocationSample] {
        &self.timeline
    }

    /// Processes one request at cycle `now`.
    ///
    /// `now` must be monotonically non-decreasing across calls.
    pub fn request(&mut self, req: &L2Request, now: u64) -> L2Response {
        self.maintain(now);

        let si = self.segment_index(req.mode);
        if let Some(ctrl) = self.controller.as_mut() {
            ctrl.observe(req.mode, req.line);
        }

        // One tag scan serves the whole request. Lazy expiry lives inside
        // it: a block found resident whose retention ran out since the
        // last sweep is stale, is invalidated at its way, and the request
        // takes the miss path.
        let mask = self.segments[si].mask;
        let set = self.cache.geometry().set_of_line(req.line);
        let mut found = self.cache.lookup(req.line, mask);
        if let (Some(way), Some(ret)) = (found, self.segments[si].retention_cycles) {
            if now.saturating_sub(self.cache.last_write_at(set, way)) >= ret {
                self.expire(si, set, way);
                found = None;
            }
        }
        let result = match found {
            Some(way) => self.cache.hit_at(set, way, req.write, req.mode, now),
            None => self.cache.fill(req.line, req.write, req.mode, now, mask),
        };
        let seg = &mut self.segments[si];

        if result.hit {
            // Segment behaviour, from the hit line's stamps before this
            // access: a miss (including a write to an expired block)
            // starts a new block and records no interval.
            seg.behavior
                .reuse
                .record(now.saturating_sub(result.prev_touch));
            if req.write {
                seg.behavior
                    .write_interval
                    .record(now.saturating_sub(result.prev_write));
                seg.acct.record_writes(1);
            } else {
                seg.acct.record_reads(1);
            }
            return L2Response {
                hit: true,
                latency_cycles: if req.write {
                    seg.write_latency_cycles
                } else {
                    seg.read_latency_cycles
                },
                dram_read: false,
            };
        }

        // Miss: tag probe (read) + fill (write).
        seg.acct.record_reads(1);
        seg.acct.record_writes(1);
        self.traffic.dram_reads += 1;
        if let Some(victim) = result.victim {
            seg.record_removal(&victim);
            if victim.dirty {
                // Read the block out of the array for the writeback.
                seg.acct.record_reads(1);
                self.traffic.dram_writes += 1;
            }
        }
        let latency = seg.read_latency_cycles;

        // Next-line prefetch: a demand miss also pulls in the successor
        // line, off the critical path.
        if self.params.next_line_prefetch && matches!(req.cause, moca_cache::L2Cause::Demand(_)) {
            self.prefetch_line(req.line.wrapping_add(1), req.mode, now, si);
        }

        L2Response {
            hit: false,
            latency_cycles: latency,
            dram_read: true,
        }
    }

    /// Invalidates the expired block at `(set, way)` of segment `si`,
    /// found by a request before any sweep reached it.
    fn expire(&mut self, si: usize, set: u64, way: u32) {
        let Some(ev) = self.cache.invalidate_at(set, way) else {
            return;
        };
        let seg = &mut self.segments[si];
        seg.expiry.expired += 1;
        seg.record_removal(&ev);
        if ev.dirty {
            // Sweeps write dirty blocks back at half their retention, so
            // only a retention short enough for the `MIN_SWEEP_CYCLES`
            // floor to stretch the sweep period past that gets here.
            seg.expiry.expiry_writebacks += 1;
            seg.acct.record_reads(1);
            self.traffic.dram_writes += 1;
        }
    }

    /// Fills `line` into `mode`'s segment if absent (prefetch path):
    /// costs a DRAM read plus fill energy, stalls nothing. Presence
    /// ignores retention: an expired block no sweep has reached yet
    /// still counts as resident.
    fn prefetch_line(&mut self, line: u64, mode: Mode, now: u64, si: usize) {
        let mask = self.segments[si].mask;
        if self.cache.lookup(line, mask).is_some() {
            return;
        }
        let result = self.cache.fill(line, false, mode, now, mask);
        let seg = &mut self.segments[si];
        seg.acct.record_reads(1);
        seg.acct.record_writes(1);
        self.traffic.dram_reads += 1;
        self.prefetches += 1;
        if let Some(victim) = result.victim {
            seg.record_removal(&victim);
            if victim.dirty {
                seg.acct.record_reads(1);
                self.traffic.dram_writes += 1;
            }
        }
    }

    /// Number of prefetch fills issued (zero unless
    /// [`L2BaseParams::next_line_prefetch`] is set).
    pub fn prefetches(&self) -> u64 {
        self.prefetches
    }

    /// Charges each segment's counts and its bank's leakage up to `now`.
    /// Call once after the last request to close the books.
    pub fn finalize(&mut self, now: u64) {
        let live = self.close_interval(now);
        for seg in &mut self.segments {
            seg.acct.settle(live);
        }
    }

    /// The time the current banks have been live at `now`, which starts
    /// the next interval. A segment's energy is its event counts × the
    /// per-event energies plus leakage power × live time, charged per
    /// bank: each bank is sized to its segment's active ways, so gated
    /// ways leak nothing.
    fn close_interval(&mut self, now: u64) -> Time {
        let live = Time::from_cycles(now.saturating_sub(self.live_since), CLOCK_GHZ);
        self.live_since = now;
        live
    }

    fn maintain(&mut self, now: u64) {
        for si in 0..self.segments.len() {
            if let Some(retention) = self.segments[si].retention_cycles {
                if now >= self.segments[si].next_sweep {
                    self.sweep_segment(si, retention, now);
                }
            }
        }
        if let Some(ctrl) = self.controller.as_mut() {
            if ctrl.epoch_due(now) {
                let current = (
                    self.segments[Mode::User.index()].mask.count(),
                    self.segments[Mode::Kernel.index()].mask.count(),
                );
                let target = ctrl.decide(now, current);
                if target != current {
                    self.apply_allocation(target, now);
                }
            }
        }
    }

    /// Sweeps volatile segment `si`, whose retention is `retention`
    /// cycles.
    fn sweep_segment(&mut self, si: usize, retention: u64, now: u64) {
        let seg = &self.segments[si];
        let action_age = retention * AGE_ACTION_NUM / AGE_ACTION_DEN;
        let mask = seg.mask;
        let refresh = seg.refresh;
        let sets = self.cache.geometry().sets();

        let mut refreshes = 0u64;
        let mut early_writebacks = 0u64;
        let mut expired = 0u64;
        let mut expired_blocks: Vec<BlockView> = Vec::new();

        for set in 0..sets {
            // Snapshot of the set's valid ways: one word read skips the
            // (usually many) empty slots without probing each way.
            for way in self.cache.valid_ways(set).intersection(mask).iter() {
                let Some(view) = self.cache.block_at(set, way) else {
                    continue;
                };
                let age = now.saturating_sub(view.last_write);
                match refresh {
                    RefreshPolicy::Refresh => {
                        if age >= action_age {
                            self.cache.refresh_write(set, way, now);
                            refreshes += 1;
                        }
                    }
                    RefreshPolicy::InvalidateOnExpiry => {
                        if age >= retention {
                            if let Some(ev) = self.cache.invalidate_at(set, way) {
                                if ev.dirty {
                                    early_writebacks += 1;
                                    self.traffic.dram_writes += 1;
                                }
                                expired += 1;
                                expired_blocks.push(ev);
                            }
                        } else if age >= action_age && view.dirty {
                            // Protect dirty data before it can expire.
                            self.cache.clear_dirty(set, way);
                            early_writebacks += 1;
                            self.traffic.dram_writes += 1;
                        }
                    }
                }
            }
        }

        let seg = &mut self.segments[si];
        seg.expiry.refreshes += refreshes;
        seg.expiry.expiry_writebacks += early_writebacks;
        seg.expiry.expired += expired;
        seg.acct.record_refreshes(refreshes);
        // Early writebacks and expirations read the block out of the array.
        seg.acct.record_reads(early_writebacks);
        for ev in &expired_blocks {
            seg.record_removal(ev);
        }
        while seg.next_sweep <= now {
            seg.next_sweep += seg.sweep_period;
        }
    }

    fn apply_allocation(&mut self, target: (u32, u32), now: u64) {
        let targets = [target.0, target.1];
        // Shrink first so freed ways are available for growth.
        for pass in 0..2 {
            for (si, &want) in targets.iter().enumerate() {
                let current = self.segments[si].mask.count();
                if pass == 0 && want < current {
                    for _ in 0..(current - want) {
                        self.shrink_segment(si);
                    }
                } else if pass == 1 && want > current {
                    for _ in 0..(want - current) {
                        if !self.grow_segment(si) {
                            break;
                        }
                    }
                }
            }
        }
        let live = self.close_interval(now);
        for si in 0..2 {
            self.segments[si].resize(&self.params, live);
        }
        self.timeline.push(AllocationSample {
            cycle: now,
            user_ways: self.segments[Mode::User.index()].mask.count(),
            kernel_ways: self.segments[Mode::Kernel.index()].mask.count(),
        });
    }

    fn shrink_segment(&mut self, si: usize) {
        let seg_mask = self.segments[si].mask;
        let Some(way) = seg_mask.iter().last() else {
            return;
        };
        if seg_mask.count() <= 1 {
            return;
        }
        let drained = self.cache.drain_way(way);
        let seg = &mut self.segments[si];
        for ev in &drained {
            seg.record_removal(ev);
            if ev.dirty {
                seg.acct.record_reads(1);
                self.traffic.dram_writes += 1;
            }
        }
        seg.mask = seg.mask.without(way);
    }

    fn grow_segment(&mut self, si: usize) -> bool {
        let all = WayMask::first(self.cache.geometry().ways());
        let used = self.segments[0].mask.union(self.segments[1].mask);
        let free = all.difference(used);
        match free.lowest() {
            Some(way) => {
                self.segments[si].mask = self.segments[si].mask.with(way);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moca_cache::L2Cause;
    use moca_energy::{project_energy, AccessCounts, Energy};
    use moca_trace::AccessKind;

    fn req(line: u64, write: bool, mode: Mode) -> L2Request {
        L2Request {
            line,
            write,
            mode,
            cause: if write {
                L2Cause::Writeback
            } else {
                L2Cause::Demand(AccessKind::Load)
            },
        }
    }

    fn shared() -> MobileL2 {
        MobileL2::new(L2Design::baseline(), L2BaseParams::default()).expect("valid")
    }

    fn static_sram() -> MobileL2 {
        MobileL2::new(
            L2Design::StaticSram {
                user_ways: 6,
                kernel_ways: 2,
            },
            L2BaseParams::default(),
        )
        .expect("valid")
    }

    #[test]
    fn shared_serves_both_modes_from_same_ways() {
        let mut l2 = shared();
        l2.request(&req(7, false, Mode::User), 0);
        // Kernel hits the user-filled line in the shared design.
        let r = l2.request(&req(7, false, Mode::Kernel), 10);
        assert!(r.hit);
        assert_eq!(l2.active_ways(), 16);
        assert_eq!(l2.segment_ways(Mode::User), 16);
        assert_eq!(l2.segment_ways(Mode::Kernel), 16);
    }

    #[test]
    fn static_partition_isolates_modes() {
        let mut l2 = static_sram();
        l2.request(&req(7, false, Mode::User), 0);
        let r = l2.request(&req(7, false, Mode::Kernel), 10);
        assert!(!r.hit, "partitioned kernel segment must not see user lines");
        assert_eq!(l2.segment_ways(Mode::User), 6);
        assert_eq!(l2.segment_ways(Mode::Kernel), 2);
        assert_eq!(l2.active_ways(), 8);
    }

    #[test]
    fn miss_generates_dram_read_and_hit_does_not() {
        let mut l2 = shared();
        let miss = l2.request(&req(1, false, Mode::User), 0);
        assert!(miss.dram_read && !miss.hit);
        let hit = l2.request(&req(1, false, Mode::User), 5);
        assert!(hit.hit && !hit.dram_read);
        assert_eq!(l2.traffic().dram_reads, 1);
    }

    #[test]
    fn shrunk_static_design_leaks_less() {
        let run = |mut l2: MobileL2| {
            l2.request(&req(1, false, Mode::User), 0);
            l2.finalize(10_000_000);
            l2.energy().leakage
        };
        let full = run(shared());
        let small = run(static_sram());
        let ratio = small.pj() / full.pj();
        // 8 of 16 ways → about half the leakage.
        assert!((ratio - 0.5).abs() < 0.05, "leakage ratio {ratio}");
    }

    #[test]
    fn sttram_design_leaks_far_less_than_sram() {
        let mr = MobileL2::new(L2Design::static_default(), L2BaseParams::default()).expect("valid");
        let run = |mut l2: MobileL2| {
            l2.request(&req(1, false, Mode::User), 0);
            l2.finalize(10_000_000);
            l2.energy().leakage
        };
        let sram = run(shared());
        let stt = run(mr);
        assert!(stt.pj() < 0.1 * sram.pj());
    }

    #[test]
    fn write_hit_uses_write_energy_and_latency() {
        let mut l2 =
            MobileL2::new(L2Design::static_default(), L2BaseParams::default()).expect("valid");
        l2.request(&req(1, false, Mode::User), 0);
        let before = l2.segment_energy(Mode::User).write;
        let r = l2.request(&req(1, true, Mode::User), 10);
        assert!(r.hit);
        let after = l2.segment_energy(Mode::User).write;
        assert!(after.pj() > before.pj());
        // STT-RAM writes are slower than reads.
        let read_hit = l2.request(&req(1, false, Mode::User), 20);
        assert!(r.latency_cycles > read_hit.latency_cycles);
    }

    #[test]
    fn expiry_invalidates_stale_blocks() {
        // 10 ms retention at 1 GHz = 10 M cycles.
        let design = L2Design::StaticMultiRetention {
            user_ways: 2,
            kernel_ways: 2,
            user_retention: RetentionClass::TenMillis,
            kernel_retention: RetentionClass::TenMillis,
            refresh: RefreshPolicy::InvalidateOnExpiry,
        };
        let mut l2 = MobileL2::new(design, L2BaseParams::default()).expect("valid");
        l2.request(&req(1, false, Mode::User), 0);
        // Re-access long after expiry: must miss.
        let r = l2.request(&req(1, false, Mode::User), 50_000_000);
        assert!(!r.hit, "expired block must not hit");
        assert!(l2.expiry_stats().expired >= 1);
    }

    #[test]
    fn dirty_blocks_written_back_before_expiry() {
        let design = L2Design::StaticMultiRetention {
            user_ways: 2,
            kernel_ways: 2,
            user_retention: RetentionClass::TenMillis,
            kernel_retention: RetentionClass::TenMillis,
            refresh: RefreshPolicy::InvalidateOnExpiry,
        };
        let mut l2 = MobileL2::new(design, L2BaseParams::default()).expect("valid");
        l2.request(&req(1, true, Mode::User), 0);
        // Drive time forward with unrelated traffic so sweeps run.
        for i in 0..20u64 {
            l2.request(&req(1000 + i, false, Mode::Kernel), 1_000_000 * (i + 1));
        }
        let stats = l2.expiry_stats();
        assert!(
            stats.expiry_writebacks >= 1,
            "dirty block should be written back early: {stats:?}"
        );
        assert!(l2.traffic().dram_writes >= 1);
    }

    #[test]
    fn refresh_policy_keeps_blocks_alive() {
        let design = L2Design::StaticMultiRetention {
            user_ways: 2,
            kernel_ways: 2,
            user_retention: RetentionClass::TenMillis,
            kernel_retention: RetentionClass::TenMillis,
            refresh: RefreshPolicy::Refresh,
        };
        let mut l2 = MobileL2::new(design, L2BaseParams::default()).expect("valid");
        l2.request(&req(1, false, Mode::User), 0);
        // Unrelated kernel traffic advances time across many retention
        // periods; refresh sweeps must keep the user block alive.
        for i in 1..=40u64 {
            l2.request(&req(1000 + i, false, Mode::Kernel), 2_000_000 * i);
        }
        let r = l2.request(&req(1, false, Mode::User), 85_000_000);
        assert!(r.hit, "refreshed block must survive");
        assert!(l2.expiry_stats().refreshes > 0);
        assert!(l2.energy().refresh.nj() > 0.0);
    }

    /// The controller resizes the segments, and each segment is charged
    /// leakage for the bank that was live: the sum, over the allocation
    /// timeline's intervals, of that interval's bank leakage power × its
    /// length.
    #[test]
    fn dynamic_design_adapts_allocation() {
        let retentions = [RetentionClass::OneSecond, RetentionClass::TenMillis];
        let design = L2Design::DynamicStt {
            max_ways: 16,
            min_ways: 1,
            user_retention: retentions[0],
            kernel_retention: retentions[1],
            refresh: RefreshPolicy::InvalidateOnExpiry,
            epoch_cycles: 100_000,
        };
        let mut l2 = MobileL2::new(design, L2BaseParams::default()).expect("valid");
        assert_eq!(l2.active_ways(), 16);
        // Tiny working sets on both sides (2 tags each, all mapping to
        // the sampled set 0): the controller should shrink.
        let mut now = 0u64;
        for i in 0..200_000u64 {
            now += 20;
            let mode = if i % 3 == 0 { Mode::Kernel } else { Mode::User };
            let tag = i % 2 + if mode == Mode::Kernel { 4 } else { 0 };
            l2.request(&req(tag * 2048, false, mode), now);
        }
        assert!(
            l2.active_ways() < 16,
            "dynamic design should power-gate ways (got {})",
            l2.active_ways()
        );
        assert!(l2.timeline().len() > 1, "timeline must record changes");
        let last = l2.timeline().last().expect("non-empty");
        assert_eq!(
            last.user_ways + last.kernel_ways,
            l2.active_ways(),
            "timeline must match allocation"
        );
        let end = now + 12_345;
        l2.finalize(end);
        let timeline = l2.timeline();
        assert!(timeline.len() >= 3, "want two resizes: {timeline:?}");
        for (si, mode) in Mode::ALL.into_iter().enumerate() {
            let mut want = Energy::ZERO;
            for (i, at) in timeline.iter().enumerate() {
                let until = timeline.get(i + 1).map_or(end, |next| next.cycle);
                let ways = [at.user_ways, at.kernel_ways][si];
                let bytes = u64::from(ways) * l2.params().way_bytes();
                let bank = Technology::sttram(bytes, ways, retentions[si]);
                want += bank.leakage_power() * Time::from_cycles(until - at.cycle, CLOCK_GHZ);
            }
            assert_eq!(l2.segment_energy(mode).leakage, want, "{mode:?}");
        }
    }

    /// The hit-path histograms against a brute-force oracle: a map per
    /// segment of line → (last touch, last write), restamped on every
    /// request, from which each hit's reuse and write intervals follow.
    #[test]
    fn behavior_histograms_match_a_brute_force_oracle() {
        use moca_testkit::TestRng;
        use std::collections::HashMap;

        for seed in 0..8u64 {
            for (mut l2, segments) in [(shared(), 1), (static_sram(), 2)] {
                let mut rng = TestRng::new(seed);
                let sets = l2.params().sets;
                let mut stamps: Vec<HashMap<u64, (u64, u64)>> = vec![HashMap::new(); segments];
                let mut want = vec![SegmentBehavior::new(); segments];
                let mut now = 0u64;
                for _ in 0..4000 {
                    now += if rng.below(16) == 0 {
                        rng.below(1 << 20)
                    } else {
                        rng.below(50)
                    };
                    let mode = if rng.bool() { Mode::Kernel } else { Mode::User };
                    // 48 tags over 3 sets: more than any segment holds.
                    let line = rng.below(48) * sets + rng.below(3);
                    let write = rng.below(4) == 0;
                    let si = mode.index() % segments;
                    let hit = l2.request(&req(line, write, mode), now).hit;
                    let prev = stamps[si].get(&line).copied();
                    if hit {
                        let (touch, last_write) = prev.expect("a hit line was filled before");
                        want[si].reuse.record(now - touch);
                        if write {
                            want[si].write_interval.record(now - last_write);
                        }
                    }
                    let stamp = match prev {
                        Some((_, last_write)) if hit && !write => (now, last_write),
                        _ => (now, now),
                    };
                    stamps[si].insert(line, stamp);
                }
                for (si, want) in want.iter().enumerate() {
                    let got = l2.behavior(Mode::ALL[si]);
                    let ctx = format!("seed {seed}, {}, segment {si}", l2.design());
                    assert!(
                        want.reuse.total() > 0 && want.write_interval.total() > 0,
                        "{ctx}"
                    );
                    assert_eq!(got.reuse.buckets(), want.reuse.buckets(), "{ctx}");
                    assert_eq!(
                        got.write_interval.buckets(),
                        want.write_interval.buckets(),
                        "{ctx}"
                    );
                }
            }
        }
    }

    /// A shared and a static SRAM engine, driven by random streams, each
    /// charge every segment exactly the projection of its own counts,
    /// tallied here from the responses and the DRAM traffic: an SRAM
    /// segment reads on a read hit, a miss's probe and a dirty victim's
    /// writeback, and writes on a write hit and a fill.
    #[test]
    fn sram_segment_energy_is_the_projection_of_its_counts() {
        for seed in 0..4u64 {
            for (mut l2, ways) in [(shared(), vec![16]), (static_sram(), vec![6, 2])] {
                let mut rng = moca_testkit::TestRng::new(seed);
                let sets = l2.params().sets;
                let mut counts = vec![AccessCounts::default(); ways.len()];
                let mut now = 0u64;
                for _ in 0..4000 {
                    now += 1 + rng.below(200);
                    let mode = if rng.bool() { Mode::Kernel } else { Mode::User };
                    let (line, write) = (rng.below(48) * sets + rng.below(3), rng.below(4) == 0);
                    let before = l2.traffic().dram_writes;
                    let hit = l2.request(&req(line, write, mode), now).hit;
                    let c = &mut counts[mode.index() % ways.len()];
                    c.reads += u64::from(!hit || !write) + l2.traffic().dram_writes - before;
                    c.writes += u64::from(!hit || write);
                }
                l2.finalize(now);
                let elapsed = Time::from_cycles(now, CLOCK_GHZ);
                for (si, &w) in ways.iter().enumerate() {
                    let bank = Technology::sram(u64::from(w) * l2.params().way_bytes(), w);
                    let want = project_energy(bank, &counts[si], elapsed, 1.0);
                    assert_eq!(
                        l2.segment_energy(Mode::ALL[si]),
                        want,
                        "seed {seed}, {w} ways"
                    );
                }
                if ways.len() == 1 {
                    assert_eq!(l2.energy(), l2.segment_energy(Mode::User), "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn segment_energies_sum_to_total() {
        let mut l2 =
            MobileL2::new(L2Design::static_default(), L2BaseParams::default()).expect("valid");
        let mut rng = moca_testkit::TestRng::new(3);
        let mut now = 0u64;
        for _ in 0..20_000 {
            // Gaps long enough for sweeps to write back and expire blocks.
            now += rng.below(4_000);
            let mode = if rng.bool() { Mode::Kernel } else { Mode::User };
            l2.request(&req(rng.below(1 << 16), rng.below(3) == 0, mode), now);
        }
        l2.finalize(now);
        let [u, k] = Mode::ALL.map(|m| l2.segment_energy(m));
        let total = l2.energy();
        assert!(total.read.pj() > 0.0 && total.leakage.pj() > 0.0);
        let sums = (u.read + k.read, u.write + k.write, u.leakage + k.leakage);
        assert_eq!((total.read, total.write, total.leakage), sums);
        assert_eq!(total.refresh, u.refresh + k.refresh);
    }

    #[test]
    fn eviction_lifetimes_recorded() {
        let mut l2 = MobileL2::new(
            L2Design::StaticSram {
                user_ways: 1,
                kernel_ways: 1,
            },
            L2BaseParams::default(),
        )
        .expect("valid");
        // 1-way user segment: conflict two lines in the same set.
        let mut now = 0;
        for i in 0..100u64 {
            now += 10;
            l2.request(&req((i % 2) * 2048, false, Mode::User), now);
        }
        assert!(l2.behavior(Mode::User).evictions > 50);
    }

    #[test]
    fn stats_share_segments() {
        let mut l2 = static_sram();
        l2.request(&req(1, false, Mode::User), 0);
        l2.request(&req(0xC000_0000 / 64, false, Mode::Kernel), 1);
        let s = l2.stats();
        assert_eq!(s.mode(Mode::User).misses, 1);
        assert_eq!(s.mode(Mode::Kernel).misses, 1);
    }

    #[test]
    fn labels_round_trip() {
        assert!(shared().design().label().contains("SRAM-shared"));
        assert!(static_sram().design().label().contains("SRAM-static"));
    }

    /// The line every expiry-boundary test below fills, and the cycle
    /// it is written at.
    const LINE: u64 = 40;
    const T: u64 = 100;

    /// A retention of `ns` nanoseconds, and its length in cycles at the
    /// default 1 GHz clock.
    fn retention(ns: f64) -> (RetentionClass, u64) {
        let class = RetentionClass::Custom(Time::from_ns(ns));
        (class, class.duration().cycles(1.0))
    }

    /// Every volatile segment under test: a `SharedStt` design's one
    /// segment and both segments of a `StaticMultiRetention` design,
    /// each as (design, the mode its segment serves, its retention in
    /// cycles). Retentions of 1–2 µs sit far below the 10k-cycle sweep
    /// floor, so no sweep runs before `T + ret` and only the request's
    /// own lookup can expire the line.
    fn segments() -> Vec<(L2Design, Mode, u64)> {
        let (short, short_cycles) = retention(1_000.0);
        let (long, long_cycles) = retention(2_000.0);
        let shared = L2Design::SharedStt {
            ways: 16,
            retention: short,
            refresh: RefreshPolicy::InvalidateOnExpiry,
        };
        let split = L2Design::StaticMultiRetention {
            user_ways: 4,
            kernel_ways: 4,
            user_retention: short,
            kernel_retention: long,
            refresh: RefreshPolicy::InvalidateOnExpiry,
        };
        vec![
            (shared, Mode::User, short_cycles),
            (split, Mode::User, short_cycles),
            (split, Mode::Kernel, long_cycles),
        ]
    }

    fn engine(design: L2Design, next_line_prefetch: bool) -> MobileL2 {
        let params = L2BaseParams {
            next_line_prefetch,
            ..L2BaseParams::default()
        };
        MobileL2::new(design, params).expect("valid")
    }

    #[test]
    fn a_line_hits_one_cycle_before_its_retention_and_misses_at_it() {
        for (design, mode, ret) in segments() {
            let ctx = format!("{design} {mode:?}");
            let mut l2 = engine(design, false);
            assert!(!l2.request(&req(LINE, false, mode), T).hit, "{ctx}");
            // A read hit leaves the retention clock where the fill set it.
            assert!(
                l2.request(&req(LINE, false, mode), T + ret - 1).hit,
                "{ctx}"
            );
            assert_eq!(l2.expiry_stats().expired, 0, "{ctx}");
            let at_expiry = l2.request(&req(LINE, false, mode), T + ret);
            assert!(!at_expiry.hit && at_expiry.dram_read, "{ctx}");
            assert_eq!(l2.expiry_stats().expired, 1, "{ctx}");
            assert_eq!(l2.stats().invalidations, 1, "{ctx}");
            assert_eq!(l2.behavior(mode).evictions, 1, "{ctx}");
            // The refill restarts the clock.
            assert!(
                l2.request(&req(LINE, false, mode), T + 2 * ret - 1).hit,
                "{ctx}"
            );
        }
    }

    #[test]
    fn a_dirty_expired_line_costs_one_writeback_dram_write_and_read() {
        for (design, mode, ret) in segments() {
            let ctx = format!("{design} {mode:?}");
            // The same request sequence, its fill clean in one engine and
            // dirty in the other; the request at `T + ret` finds it expired.
            let mut deltas = Vec::new();
            for dirty in [false, true] {
                let mut l2 = engine(design, false);
                l2.request(&req(LINE, dirty, mode), T);
                let (expiry, traffic) = (l2.expiry_stats(), l2.traffic());
                let read = l2.segment_energy(mode).read;
                assert!(!l2.request(&req(LINE, false, mode), T + ret).hit, "{ctx}");
                let after = l2.expiry_stats();
                assert_eq!(after.expired - expiry.expired, 1, "{ctx}");
                deltas.push((
                    after.expiry_writebacks - expiry.expiry_writebacks,
                    l2.traffic().dram_writes - traffic.dram_writes,
                    l2.traffic().dram_reads - traffic.dram_reads,
                    (l2.segment_energy(mode).read - read).pj(),
                ));
            }
            let (clean, dirty) = (deltas[0], deltas[1]);
            assert_eq!((clean.0, clean.1, clean.2), (0, 0, 1), "{ctx}");
            assert_eq!((dirty.0, dirty.1, dirty.2), (1, 1, 1), "{ctx}");
            // The clean request reads the array once (the miss's tag
            // probe); the dirty one reads the expired line out once more.
            let one_read = clean.3;
            assert!(one_read > 0.0, "{ctx}");
            assert!((dirty.3 - 2.0 * one_read).abs() <= 1e-9 * one_read, "{ctx}");
        }
    }

    #[test]
    fn a_prefetch_skips_an_expired_line_no_sweep_has_reached() {
        for (design, mode, ret) in segments() {
            let ctx = format!("{design} {mode:?}");
            let mut l2 = engine(design, true);
            // Filled by a writeback, which prefetches nothing.
            l2.request(&req(LINE + 1, true, mode), T);
            assert_eq!(l2.prefetches(), 0, "{ctx}");
            // A demand miss on `LINE` at `T + ret` would prefetch
            // `LINE + 1`, which is expired but still resident: skipped.
            assert!(!l2.request(&req(LINE, false, mode), T + ret).hit, "{ctx}");
            assert_eq!(l2.prefetches(), 0, "{ctx}");
            // One fill for the writeback, one for the demand.
            assert_eq!(l2.traffic().dram_reads, 2, "{ctx}");
            assert_eq!(l2.expiry_stats().expired, 0, "{ctx}");
            // Its own demand then finds it expired.
            assert!(
                !l2.request(&req(LINE + 1, false, mode), T + ret).hit,
                "{ctx}"
            );
            assert_eq!(l2.expiry_stats().expired, 1, "{ctx}");
        }
    }
}

#[cfg(test)]
mod prefetch_tests {
    use super::*;
    use moca_cache::L2Cause;
    use moca_trace::AccessKind;

    fn demand(line: u64) -> L2Request {
        L2Request {
            line,
            write: false,
            mode: Mode::User,
            cause: L2Cause::Demand(AccessKind::Load),
        }
    }

    fn engine(prefetch: bool) -> MobileL2 {
        let params = L2BaseParams {
            next_line_prefetch: prefetch,
            ..L2BaseParams::default()
        };
        MobileL2::new(L2Design::baseline(), params).expect("valid")
    }

    #[test]
    fn prefetch_fills_the_next_line() {
        let mut l2 = engine(true);
        let miss = l2.request(&demand(100), 0);
        assert!(!miss.hit);
        assert_eq!(l2.prefetches(), 1);
        // The successor line is now resident.
        let hit = l2.request(&demand(101), 10);
        assert!(hit.hit, "next line should have been prefetched");
        // DRAM saw both the demand and the prefetch.
        assert_eq!(l2.traffic().dram_reads, 2);
    }

    #[test]
    fn prefetch_skips_resident_lines() {
        let mut l2 = engine(true);
        l2.request(&demand(101), 0); // brings 101 (demand) + 102 (prefetch)
        l2.request(&demand(100), 10); // prefetch target 101 already resident
        assert_eq!(
            l2.prefetches(),
            1,
            "the second miss must not re-prefetch the resident line 101"
        );
    }

    #[test]
    fn disabled_by_default() {
        let mut l2 = engine(false);
        l2.request(&demand(100), 0);
        assert_eq!(l2.prefetches(), 0);
        assert!(!l2.request(&demand(101), 10).hit);
    }

    #[test]
    fn writebacks_do_not_prefetch() {
        let mut l2 = engine(true);
        let wb = L2Request {
            line: 50,
            write: true,
            mode: Mode::Kernel,
            cause: L2Cause::Writeback,
        };
        l2.request(&wb, 0);
        assert_eq!(l2.prefetches(), 0);
    }
}
