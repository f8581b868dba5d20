//! The full GPU: SMs, crossbar, memory partitions and the clock loop.
//!
//! Core and interconnect share the 650 MHz clock (Table 1); each memory
//! partition internally advances its DRAM at the 924 MHz command clock.
//! Per core cycle the driver:
//!
//! 1. launches pending CTAs onto SMs with room,
//! 2. cycles every SM (which cycles its L1D),
//! 3. drains L1D miss queues into the crossbar,
//! 4. ejects crossbar packets into partitions and cycles them,
//! 5. injects partition replies back into the crossbar,
//! 6. delivers arrived replies to the owning SM's L1D.
//!
//! # Cycle-leap event core
//!
//! Memory-bound kernels spend most of their cycles stalled: every warp
//! blocked on a scoreboard, every queue waiting on a latency that was
//! fixed the moment the packet was stamped. Instead of ticking through
//! that dead time, [`Gpu::run`] asks each component for a *conservative*
//! bound on its next event ([`Sm::next_event`],
//! [`MemoryPartition::next_event`], the crossbar's queue-head ready
//! stamps) and jumps `now` straight to the minimum. Skipped cycles are
//! replayed arithmetically ([`Gpu::leap_to`]) so the aging counters —
//! L1D stall classes, rejected submits, the CTA round-robin cursor, the
//! partitions' fractional DRAM clocks — end up byte-identical to a
//! tick-every-cycle run. `SimConfig::leap = false` selects the original
//! reference loop; under the `audit` feature every leap window is
//! re-simulated tick-by-tick and each cycle asserted to be a no-op (see
//! DESIGN.md "Cycle-leap event core").

use crate::audit::{check_flit_conservation, check_reply_conservation, FlowCounters};
use crate::config::SimConfig;
use crate::error::{HangReport, PartitionSnapshot, SimError, SmSnapshot};
use crate::kernel::Kernel;
use crate::sampling::{SamplingConfig, SamplingReport, WindowSample};
use crate::sm::Sm;
use crate::stats::RunStats;
use gpu_mem::fault::{FaultInjector, FaultSite};
use gpu_mem::icnt::Interconnect;
use gpu_mem::mask;
use gpu_mem::observer::AccessObserver;
use gpu_mem::packet::Packet;
use gpu_mem::partition::MemoryPartition;
use std::collections::VecDeque;

/// Advance the round-robin CTA launch cursor by `slots` denied scan
/// slots with overflow detection: a wrap would silently rotate the
/// launch order, which is a fidelity corruption, not a recoverable
/// condition. Shared by the per-cycle launch scan and the leap replay.
fn advance_cursor(cursor: &mut usize, slots: u128, now: u64) -> Result<(), SimError> {
    let overflow = SimError::LaunchCursorOverflow { cycle: now, slots };
    let sum = (*cursor as u128).checked_add(slots).ok_or_else(|| overflow.clone())?;
    *cursor = usize::try_from(sum).map_err(|_| overflow)?;
    Ok(())
}

/// How many component cycles a run actually executed
/// ([`Gpu::component_cycles`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ComponentCycles {
    /// Calls to [`Sm::cycle`], summed over SMs.
    pub sms: u64,
    /// Calls to [`MemoryPartition::cycle`], summed over partitions.
    pub partitions: u64,
}

/// A configured GPU with a kernel to run.
pub struct Gpu {
    // Declared first so they are dropped first: `Gpu::new` allocates
    // them last, at the top of the heap, and freeing them before the
    // bulk of the machine parks them in the allocator's free lists
    // instead of merging them into the top chunk. Dropped last, they
    // let glibc trim and re-fault ~400 KB per machine in construct/drop
    // loops (measured: 2x set-up time on the sampled benchmark).
    /// The wake calendar (DESIGN.md §10). `sm_next_ev[s]` is a
    /// conservative bound below which SM `s` has no event of its own
    /// ([`Sm::next_event`]), so its `cycle` call is skipped even on
    /// cycles the machine as a whole must tick. 0 means "must cycle"
    /// (external input arrived), `u64::MAX` "wake only on an external
    /// event": a reply or a CTA launch.
    sm_next_ev: Vec<u64>,
    /// The last cycle through which SM `s` has aged its stall counters.
    /// A waking SM first replays the gap with [`Gpu::catch_up_sm`];
    /// [`Gpu::settle_sms`] does the same before any state is reported
    /// (stats, hang reports). This single deferred-aging account also
    /// covers whole-machine leaps.
    sm_last_cycled: Vec<u64>,
    /// `part_next_ev[p]`: the busy partition's [`MemoryPartition::next_event`],
    /// cached right after it cycled; the partition is not cycled before
    /// it unless a forward packet lands first. 0 means "must cycle".
    /// Sized to the active-set limit, not heap-allocated, for the reason
    /// the crossbar's head arrays are.
    part_next_ev: [u64; mask::MAX],
    cfg: SimConfig,
    sms: Vec<Sm>,
    icnt: Interconnect,
    parts: Vec<MemoryPartition>,
    kernel: Box<dyn Kernel>,
    pending_ctas: VecDeque<usize>,
    launch_cursor: usize,
    now: u64,
    counters: FlowCounters,
    /// Progress metric (insns issued + replies delivered) at the last
    /// cycle it changed, and that cycle — the watchdog's state.
    last_progress: u64,
    last_progress_cycle: u64,
    /// Active sets: which SMs / partitions have work, one bit per
    /// component ([`gpu_mem::mask`]). A component is promoted to busy at
    /// the event that gives it work (CTA launch, packet enqueue, reply
    /// delivery) and demoted after a cycle in which it reports idle.
    /// Every per-cycle loop visits only set bits (plus the crossbar's
    /// own non-empty port masks), so quiescent components cost nothing,
    /// and [`Gpu::finished`] is two word compares.
    active_sms: u64,
    active_parts: u64,
    /// Running total of warp instructions issued (the watchdog metric's
    /// SM half, maintained incrementally).
    total_warp_insns: u64,
    /// Cycles actually stepped (as opposed to leapt over). With the
    /// cycle-leap event core this is the count of event cycles; the
    /// ratio against [`RunStats::cycles`] is the leap efficiency
    /// reported by the benchmark telemetry. Deliberately *not* part of
    /// [`RunStats`]: simulated results are byte-identical with leaping
    /// on or off, and this counter is the one number that legitimately
    /// differs.
    ticked_cycles: u64,
    /// Calls to [`Sm::cycle`] and [`MemoryPartition::cycle`] so far: the
    /// work the event core actually did, per component kind. Like
    /// `ticked_cycles`, kept out of [`RunStats`].
    component_cycles: ComponentCycles,
    /// What the SMARTS sampling controller measured, when
    /// [`SimConfig::sampling`] was set for the last `run`.
    sampling_report: Option<SamplingReport>,
}

impl Gpu {
    /// Build the platform and queue every CTA of the kernel's grid. At
    /// most 64 SMs and 64 partitions: the active sets are `u64` words.
    pub fn new(cfg: SimConfig, kernel: Box<dyn Kernel>) -> Self {
        assert!(
            cfg.num_sms <= mask::MAX && cfg.icnt.num_partitions <= mask::MAX,
            "{} SMs / {} partitions exceed the {}-component active-set limit",
            cfg.num_sms,
            cfg.icnt.num_partitions,
            mask::MAX
        );
        let grid = kernel.grid();
        let slots = cfg.warp_limit.unwrap_or(cfg.max_warps_per_sm).min(cfg.max_warps_per_sm);
        assert!(
            grid.warps_per_cta <= slots,
            "CTA of {} warps cannot fit an SM of {} usable slots",
            grid.warps_per_cta,
            slots
        );
        let mut icnt = Interconnect::new(cfg.icnt);
        let mut parts: Vec<MemoryPartition> =
            (0..cfg.icnt.num_partitions).map(|_| MemoryPartition::new(cfg.partition)).collect();
        if let Some(f) = cfg.fault {
            match f.site {
                FaultSite::IcntForward | FaultSite::IcntReturn => {
                    icnt.set_fault_injector(FaultInjector::new(f));
                }
                FaultSite::Dram => {
                    for (i, p) in parts.iter_mut().enumerate() {
                        p.set_dram_fault_injector(FaultInjector::with_salt(f, i as u64));
                    }
                }
            }
        }
        Gpu {
            sms: (0..cfg.num_sms).map(|i| Sm::new(i, &cfg)).collect(),
            icnt,
            parts,
            kernel,
            pending_ctas: (0..grid.num_ctas).collect(),
            launch_cursor: 0,
            now: 0,
            counters: FlowCounters::default(),
            last_progress: 0,
            last_progress_cycle: 0,
            active_sms: 0,
            active_parts: 0,
            total_warp_insns: 0,
            ticked_cycles: 0,
            component_cycles: ComponentCycles::default(),
            sm_next_ev: vec![0; cfg.num_sms],
            sm_last_cycled: vec![0; cfg.num_sms],
            part_next_ev: [0; mask::MAX],
            sampling_report: None,
            cfg,
        }
    }

    /// Cycles actually stepped, as opposed to leapt over. The benchmark
    /// harness reports `ticked_cycles / cycles` as leap efficiency.
    pub fn ticked_cycles(&self) -> u64 {
        self.ticked_cycles
    }

    /// SM and partition cycles actually run, summed over components.
    /// Reference ticking runs every busy component every cycle; the
    /// event core's sleeping components show up as a smaller count.
    pub fn component_cycles(&self) -> ComponentCycles {
        self.component_cycles
    }

    #[inline]
    fn mark_sm_busy(&mut self, s: usize) {
        // External input always wakes the SM: force a cycle on the next
        // step regardless of any cached sleep bound.
        self.sm_next_ev[s] = 0;
        self.active_sms |= mask::bit(s);
    }

    /// Re-derive the busy set from the SMs themselves and clear every
    /// sleep bound — after a functional drain or fast-forward, which
    /// bypass the per-cycle promotion/demotion points.
    fn rederive_active_sms(&mut self) {
        self.active_sms = 0;
        for (s, sm) in self.sms.iter().enumerate() {
            if !sm.idle() {
                self.active_sms |= mask::bit(s);
            }
        }
        self.sm_next_ev.fill(0);
    }

    /// Sleeping (the wake calendar) is only sound on the leap path, and
    /// the audited / periodically-audited builds deliberately tick every
    /// busy component so the tick-through no-op verification exercises
    /// real cycles.
    #[inline]
    fn sleep_enabled(&self) -> bool {
        self.cfg.leap && self.cfg.audit_interval == 0 && !cfg!(feature = "audit")
    }

    /// Age SM `s` through cycle `through`, inclusive: replay the cycles
    /// it slept through since it last ran — stall memo and rejected
    /// submits in the L1D.
    fn catch_up_sm(&mut self, s: usize, through: u64) {
        let behind = through - self.sm_last_cycled[s];
        if behind > 0 {
            self.sms[s].leap_catchup(behind);
            self.sm_last_cycled[s] = through;
        }
    }

    /// Bring every busy SM's deferred aging up to date (through the
    /// current cycle, inclusive) so externally visible state — run
    /// statistics, hang reports, post-run introspection — is identical
    /// to what the tick-every-cycle reference produces.
    fn settle_sms(&mut self) {
        for s in mask::ones(self.active_sms) {
            self.catch_up_sm(s, self.now);
        }
    }

    /// Attach a reuse-distance observer to one SM's L1D (do this before
    /// running).
    pub fn set_l1d_observer(&mut self, sm: usize, obs: Box<dyn AccessObserver>) {
        self.sms[sm].l1d.set_observer(obs);
    }

    /// Current core cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Read access to one SM's L1D (post-run introspection: policy
    /// state, PD tables, counters).
    pub fn l1d(&self, sm: usize) -> &gpu_mem::l1d::L1dCache {
        &self.sms[sm].l1d
    }

    fn launch_ctas(&mut self) -> Result<(), SimError> {
        if self.pending_ctas.is_empty() {
            return Ok(());
        }
        // Round-robin across SMs, as the hardware CTA scheduler does, so
        // partially filled grids spread over the whole chip.
        let wpc = self.kernel.grid().warps_per_cta;
        let n = self.sms.len();
        let mut denied = 0;
        while denied < n && !self.pending_ctas.is_empty() {
            let idx = self.launch_cursor % n;
            if self.sms[idx].can_accept_cta(wpc) {
                let Some(cta) = self.pending_ctas.pop_front() else { break };
                // dlp-lint: allow(P301) -- allocates once per CTA launch, not per cycle; the stream list is the owned payload handed to the SM
                let warps = (0..wpc).map(|w| self.kernel.warp_stream(cta, w)).collect();
                self.sms[idx].launch_cta(cta, warps);
                self.mark_sm_busy(idx);
                denied = 0;
            } else {
                denied += 1;
            }
            advance_cursor(&mut self.launch_cursor, 1, self.now)?;
        }
        Ok(())
    }

    /// One core/interconnect cycle.
    fn step(&mut self) -> Result<(), SimError> {
        self.now += 1;
        self.ticked_cycles += 1;
        let now = self.now;

        self.launch_ctas()?;

        // Cycle only SMs with work; an idle SM's cycle is a no-op, so
        // skipping it changes nothing but wall time. On the leap path a
        // busy SM additionally *sleeps* through its own dead time
        // (`sm_next_ev`): cycles the machine must tick for other
        // components' sake skip this SM's cycle entirely, and the waking
        // SM first replays the gap arithmetically. `leap_catchup` is
        // state-identical to the skipped retries because nothing mutates
        // the SM inside the gap — every external input (reply, CTA
        // launch) resets `sm_next_ev` to 0 and ends the sleep.
        let sleep = self.sleep_enabled();
        // The SMs that ran this cycle: only they can have new traffic
        // (a sleeping SM's outgoing queue is empty, because a non-empty
        // one forbids sleep).
        let mut cycled = 0u64;
        for s in mask::ones(self.active_sms) {
            if self.sm_next_ev[s] > now {
                continue;
            }
            cycled |= mask::bit(s);
            self.catch_up_sm(s, now - 1);
            let sm = &mut self.sms[s];
            self.total_warp_insns += sm.cycle(now)?;
            self.component_cycles.sms += 1;
            self.sm_last_cycled[s] = now;
            // CTA completions free slots; successors launch next cycle.
            sm.take_finished_ctas();
        }

        // L1D miss queues -> crossbar (forward direction). Idle SMs have
        // empty miss queues by definition. A cycled SM's next wake-up is
        // set here, once its traffic has left: a head that a full port
        // refused keeps the SM cycling, so it is re-offered next cycle.
        for s in mask::ones(cycled) {
            let sm = &mut self.sms[s];
            while let Some(pkt) = sm.l1d.peek_outgoing() {
                let dst = self.icnt.partition_of(pkt.addr);
                let expects_reply = pkt.kind.expects_reply();
                if self.icnt.try_send_fwd(dst, *pkt, now) {
                    sm.l1d.pop_outgoing();
                    if expects_reply {
                        self.counters.fetches_sent += 1;
                    }
                } else {
                    break;
                }
            }
            // All traffic is drained above; demote the SM once it has
            // nothing left anywhere (warps, queues, cache machinery).
            if sm.idle() {
                self.active_sms &= !mask::bit(s);
            } else if sleep {
                self.sm_next_ev[s] = sm.next_event(now).unwrap_or(u64::MAX);
            }
        }

        // Crossbar -> partitions, then partition internals. Only due
        // work is visited: ports whose head has arrived (packets land
        // regardless of the partition's own state) and busy partitions
        // whose cached next event has come. A sleeping partition's DRAM
        // clock is caught up by its next `cycle` call. No forward send
        // happens in this phase, so the visit set is fixed at its start.
        let mut due = self.icnt.fwd_due(now);
        for p in mask::ones(self.active_parts) {
            if self.part_next_ev[p] <= now {
                due |= mask::bit(p);
            }
        }
        for p in mask::ones(due) {
            let part = &mut self.parts[p];
            while part.can_accept() {
                match self.icnt.pop_fwd(p, now) {
                    Some(pkt) => {
                        // Misrouting is cheap to detect and always fatal:
                        // the wrong partition would service the address.
                        let expected = self.icnt.partition_of(pkt.addr);
                        if expected != p {
                            return Err(SimError::PacketMisrouted {
                                port: p,
                                expected,
                                addr: pkt.addr,
                                cycle: now,
                            });
                        }
                        self.counters.fwd_flits_delivered += pkt.flits();
                        part.enqueue(pkt);
                        // The packet wakes the partition.
                        self.active_parts |= mask::bit(p);
                        self.part_next_ev[p] = 0;
                    }
                    None => break,
                }
            }
            if self.active_parts & mask::bit(p) == 0 || self.part_next_ev[p] > now {
                continue;
            }
            part.cycle(now).map_err(|source| SimError::PartitionFault {
                partition: p,
                source,
                cycle: now,
            })?;
            self.component_cycles.partitions += 1;
            // Partition replies -> crossbar (return direction).
            while let Some(pkt) = part.pop_reply() {
                let dst = pkt.req.sm as usize;
                if !self.icnt.try_send_ret(dst, pkt, now) {
                    part.unpop_reply(pkt);
                    break;
                }
            }
            if part.idle() {
                self.active_parts &= !mask::bit(p);
            } else if sleep {
                self.part_next_ev[p] = part.next_event(now).unwrap_or(u64::MAX);
            }
        }

        // Crossbar -> L1Ds, wherever a return head has arrived.
        for s in mask::ones(self.icnt.ret_due(now)) {
            while let Some(pkt) = self.icnt.pop_ret(s, now) {
                self.counters.ret_flits_delivered += pkt.flits();
                // A reply mutates the very state (MSHR, tags) that the
                // deferred stall-aging classifies against, so a sleeping
                // SM must replay its gap with the pre-reply state first.
                // The gap includes this cycle: the reference SM's own
                // phase — one more no-op retry — ran before delivery.
                self.catch_up_sm(s, now);
                self.deliver_reply(s, pkt, now)?;
                // The reply gives the SM work (a response to ripen); an
                // outstanding fetch implies a non-quiescent L1D, so the
                // SM should already be busy — keep it that way cheaply.
                self.mark_sm_busy(s);
            }
        }

        // Forward-progress watchdog (the metric is maintained
        // incrementally instead of re-summed across SMs every cycle).
        let metric = self.counters.replies_delivered + self.total_warp_insns;
        if metric != self.last_progress {
            self.last_progress = metric;
            self.last_progress_cycle = now;
        } else if self.cfg.watchdog_cycles > 0
            && now - self.last_progress_cycle >= self.cfg.watchdog_cycles
            && !self.finished()
        {
            self.settle_sms();
            return Err(self.hang_abort());
        }

        // Periodic invariant audit.
        if self.cfg.audit_interval > 0 && now % self.cfg.audit_interval == 0 {
            self.run_audit()?;
        }
        Ok(())
    }

    /// The next cycle [`Gpu::step`] must actually run: the minimum of
    /// every component's conservative next-event bound, clamped so the
    /// watchdog and the periodic auditor still observe their exact
    /// cycles. Returns `now + 1` (no leap) whenever any component could
    /// act immediately, and degrades to `now + 1` when no event is
    /// scheduled anywhere (a dropped-packet deadlock with the watchdog
    /// off ticks toward the cycle cap exactly as the reference loop
    /// does).
    fn next_step_cycle(&mut self) -> u64 {
        let now = self.now;
        let fallthrough = now + 1;
        // A launchable CTA issues next cycle; only a fully denied scan
        // (every SM full) is skippable dead time.
        if !self.pending_ctas.is_empty() {
            let wpc = self.kernel.grid().warps_per_cta;
            if self.sms.iter().any(|sm| sm.can_accept_cta(wpc)) {
                return fallthrough;
            }
        }
        let mut t = u64::MAX;
        let sleep = self.sleep_enabled();
        if sleep {
            // The wake calendar holds exactly the bounds this scan
            // needs — maintained by step(), so no SM is re-probed here.
            for s in mask::ones(self.active_sms) {
                let ev = self.sm_next_ev[s];
                if ev <= fallthrough {
                    return fallthrough;
                }
                t = t.min(ev);
            }
        } else {
            for s in mask::ones(self.active_sms) {
                match self.sms[s].next_event(now) {
                    Some(ev) if ev <= fallthrough => return fallthrough,
                    Some(ev) => t = t.min(ev),
                    None => {}
                }
            }
        }
        // Crossbar queue heads eject strictly in FIFO order, so the head
        // ready stamp gates each port. Return packets are always
        // deliverable; forward packets only land while the partition's
        // input queue has room (a full queue drains only via a partition
        // event, which the partition's own bound covers).
        for s in mask::ones(self.icnt.ret_nonempty()) {
            if let Some(ready) = self.icnt.next_ret_ready(s) {
                if ready <= fallthrough {
                    return fallthrough;
                }
                t = t.min(ready);
            }
        }
        for p in mask::ones(self.icnt.fwd_nonempty()) {
            if self.parts[p].can_accept() {
                if let Some(ready) = self.icnt.next_fwd_ready(p) {
                    if ready <= fallthrough {
                        return fallthrough;
                    }
                    t = t.min(ready);
                }
            }
        }
        for p in mask::ones(self.active_parts) {
            // A sleeping partition's cached bound was computed right
            // after its last cycle, against its then-current DRAM clock;
            // without sleep every busy partition cycled this step.
            let ev = if sleep { Some(self.part_next_ev[p]) } else { self.parts[p].next_event(now) };
            match ev {
                Some(ev) if ev <= fallthrough => return fallthrough,
                Some(ev) => t = t.min(ev),
                None => {}
            }
        }
        // The watchdog must fire at the identical cycle a ticked run
        // would report, and scheduled audits must run on schedule — a
        // leap never jumps across either.
        if self.cfg.watchdog_cycles > 0 {
            t = t.min(self.last_progress_cycle + self.cfg.watchdog_cycles);
        }
        if self.cfg.audit_interval > 0 {
            t = t.min((now + 1).next_multiple_of(self.cfg.audit_interval));
        }
        if t == u64::MAX {
            return fallthrough;
        }
        t.max(fallthrough)
    }

    /// Advance `now` to `target`, replaying the skipped cycles — all
    /// provably no-ops per [`Gpu::next_step_cycle`] — arithmetically:
    ///
    /// - a pending-CTA backlog would have burned one fully denied
    ///   round-robin scan per cycle (cursor advances once per SM);
    /// - SMs need nothing here: deferred aging (`sm_last_cycled`)
    ///   replays the gap via [`Gpu::catch_up_sm`] when each SM next
    ///   cycles or when [`Gpu::settle_sms`] runs;
    /// - partitions need nothing either: their fractional DRAM clock
    ///   catches up lazily on the next [`MemoryPartition::cycle`] call
    ///   (or [`MemoryPartition::settle`] at a sampled window's edge).
    ///
    /// Under the `audit` feature the window is instead re-simulated
    /// tick-by-tick, asserting after every step that the activity
    /// signature did not change — i.e. that the leap bound really was
    /// conservative. Statistics come out identical on that path too,
    /// because the replayed cycles age the same counters the arithmetic
    /// path adds in bulk.
    fn leap_to(&mut self, target: u64) -> Result<(), SimError> {
        debug_assert!(target >= self.now, "leap target is in the past");
        if cfg!(feature = "audit") {
            while self.now < target {
                let before = self.activity_signature();
                self.step()?;
                debug_assert_eq!(
                    before,
                    self.activity_signature(),
                    "cycle {} inside a leap window was not a no-op",
                    self.now
                );
            }
            return Ok(());
        }
        let skipped = target - self.now;
        if skipped == 0 {
            return Ok(());
        }
        if !self.pending_ctas.is_empty() {
            // Each skipped cycle was a fully denied round-robin scan:
            // the cursor advanced once per SM. Checked — a silent wrap
            // would rotate the launch order (see `advance_cursor`).
            let slots = (self.sms.len() as u128) * u128::from(skipped);
            advance_cursor(&mut self.launch_cursor, slots, self.now)?;
        }
        self.now = target;
        Ok(())
    }

    /// FNV-1a hash of everything that distinguishes an *active* cycle
    /// from dead time: flow counters, queue occupancies, in-flight
    /// packet census, DRAM traffic. Aging counters (stall cycles,
    /// rejected submits, the launch cursor) are deliberately excluded —
    /// they advance in dead time by design and are replayed
    /// arithmetically. Used by the `audit`-feature leap verification.
    fn activity_signature(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut put = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                // dlp-lint: allow(F103) -- FNV-1a is modular multiplication by definition
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        put(self.total_warp_insns);
        put(self.counters.fetches_sent);
        put(self.counters.replies_delivered);
        put(self.counters.fwd_flits_delivered);
        put(self.counters.ret_flits_delivered);
        put(self.icnt.in_flight() as u64);
        put(self.pending_ctas.len() as u64);
        put(self.active_sms);
        put(self.active_parts);
        for sm in &self.sms {
            put(sm.active_warps() as u64);
            put(sm.ldst_queue_len() as u64);
            put(sm.l1d.mshr_occupancy() as u64);
            put(sm.l1d.outgoing_len() as u64);
            put(sm.l1d.pending_responses() as u64);
        }
        for p in &self.parts {
            put(p.in_queue_len() as u64);
            put(p.l2_mshr_occupancy() as u64);
            put(p.out_queue_len() as u64);
            let d = p.dram_stats();
            put(d.reads + d.writes);
        }
        h
    }

    /// Run every conservation and structural check once, at the current
    /// cycle. Exposed so tests can audit at a chosen instant. Cold: it
    /// runs once per `audit_interval` cycles, never per tick.
    #[cold]
    pub fn run_audit(&self) -> Result<(), SimError> {
        let fail = |check: &'static str, detail: String| SimError::InvariantViolation {
            check,
            detail,
            cycle: self.now,
        };
        let counters = &self.counters;
        let icnt = &self.icnt;

        let in_partitions: usize = self.parts.iter().map(|p| p.held_reply_packets()).sum();
        let in_network = icnt.fwd_expecting_reply() + icnt.ret_in_flight();
        check_reply_conservation(
            counters.fetches_sent,
            counters.replies_delivered,
            in_network,
            in_partitions,
        )
        .map_err(|d| fail("reply conservation", d))?;

        let (fwd_in_flight, ret_in_flight) = icnt.in_flight_flits();
        let stats = icnt.stats();
        check_flit_conservation(
            "forward",
            stats.fwd_flits,
            counters.fwd_flits_delivered,
            fwd_in_flight,
        )
        .map_err(|d| fail("flit conservation", d))?;
        check_flit_conservation(
            "return",
            stats.ret_flits,
            counters.ret_flits_delivered,
            ret_in_flight,
        )
        .map_err(|d| fail("flit conservation", d))?;

        for (s, sm) in self.sms.iter().enumerate() {
            sm.l1d.audit().map_err(|d| fail("L1D structural audit", format!("SM {s}: {d}")))?;
        }
        for (p, part) in self.parts.iter().enumerate() {
            part.audit()
                .map_err(|d| fail("partition structural audit", format!("partition {p}: {d}")))?;
        }
        Ok(())
    }

    /// Hand a reply to SM `s`'s L1D and count its delivery.
    fn deliver_reply(&mut self, s: usize, pkt: Packet, now: u64) -> Result<(), SimError> {
        self.counters.replies_delivered += 1;
        self.sms[s]
            .l1d
            .on_reply(pkt, now)
            .map_err(|source| SimError::MshrViolation { sm: s, source, cycle: now })
    }

    /// Watchdog abort: box the diagnostic snapshot into the error off
    /// the hot path (the only allocation `step` could otherwise reach).
    #[cold]
    fn hang_abort(&self) -> SimError {
        SimError::Hang(Box::new(self.hang_report()))
    }

    /// Snapshot the whole machine for a failure diagnostic. Cold: runs
    /// once, on the way out of a hung or cycle-capped run.
    #[cold]
    pub fn hang_report(&self) -> HangReport {
        HangReport {
            cycle: self.now,
            last_progress_cycle: self.last_progress_cycle,
            pending_ctas: self.pending_ctas.len(),
            fetches_sent: self.counters.fetches_sent,
            replies_delivered: self.counters.replies_delivered,
            icnt_in_flight: self.icnt.in_flight(),
            icnt_fwd_depths: self.icnt.fwd_queue_depths(),
            icnt_ret_depths: self.icnt.ret_queue_depths(),
            sms: self
                .sms
                .iter()
                .map(|sm| SmSnapshot {
                    id: sm.id,
                    active_warps: sm.active_warps(),
                    warp_insns: sm.stats().warp_insns,
                    ldst_queue: sm.ldst_queue_len(),
                    mshr_occupancy: sm.l1d.mshr_occupancy(),
                    outgoing: sm.l1d.outgoing_len(),
                    input_blocked: sm.l1d.input_blocked(),
                })
                .collect(),
            partitions: self
                .parts
                .iter()
                .enumerate()
                .map(|(id, p)| PartitionSnapshot {
                    id,
                    in_queue: p.in_queue_len(),
                    l2_mshr: p.l2_mshr_occupancy(),
                    out_queue: p.out_queue_len(),
                    dram_idle: p.dram_idle(),
                })
                .collect(),
        }
    }

    fn finished(&self) -> bool {
        // O(1): the active sets are maintained by step(); a component is
        // demoted only after a cycle in which it reported idle, so empty
        // sets imply the full scans would find nothing either.
        let done = self.pending_ctas.is_empty()
            && self.icnt.in_flight() == 0
            && self.active_sms == 0
            && self.active_parts == 0;
        debug_assert!(
            !done
                || (self.sms.iter().all(Sm::idle)
                    && self.parts.iter().all(MemoryPartition::idle)),
            "active sets report finished but a component still has work"
        );
        done
    }

    /// Run to completion and report, or abort with a typed error: a
    /// hang report from the watchdog, a cycle-cap overrun, or the first
    /// invariant violation found.
    pub fn run(&mut self) -> Result<RunStats, SimError> {
        if let Some(sc) = self.cfg.sampling {
            return self.run_sampled(sc);
        }
        self.run_until(u64::MAX)?;
        self.settle_sms();
        Ok(self.collect())
    }

    /// The leap-and-step loop every run mode drives: step each event
    /// cycle, leaping over the dead time before it, until the kernel
    /// finishes or `now` reaches `end`. Fails with a cycle-cap overrun
    /// once `now` reaches `max_cycles` with the kernel unfinished.
    fn run_until(&mut self, end: u64) -> Result<(), SimError> {
        while !self.finished() && self.now < end {
            if self.now >= self.cfg.max_cycles {
                self.settle_sms();
                return Err(SimError::CycleCapExceeded(Box::new(self.hang_report())));
            }
            if self.cfg.leap {
                // Leap to just before the next event, then step it. The
                // cycle-cap clamp keeps the overrun error surfacing at
                // the same cycle the reference loop reports.
                let target = self.next_step_cycle().min(self.cfg.max_cycles);
                if target > end {
                    // The rest of the horizon is dead time: account for
                    // it and stop there, exactly where the reference
                    // loop would.
                    return self.leap_to(end);
                }
                if target > self.now + 1 {
                    self.leap_to(target - 1)?;
                }
            }
            self.step()?;
        }
        Ok(())
    }

    /// What the sampling controller measured during the last [`Gpu::run`],
    /// or `None` when the run executed in exact mode.
    pub fn sampling_report(&self) -> Option<&SamplingReport> {
        self.sampling_report.as_ref()
    }

    /// SMARTS-style interval sampling: alternate short detailed windows
    /// (warm-up + measurement, simulated cycle-accurately by the very
    /// loop [`Gpu::run`] uses) with long functionally fast-forwarded
    /// gaps. Per-window counter deltas become [`WindowSample`]s whose
    /// spread yields the confidence interval dlp-bench reports.
    fn run_sampled(&mut self, sc: SamplingConfig) -> Result<RunStats, SimError> {
        let mut report = SamplingReport::default();
        let run = self.sample_windows(sc, &mut report);
        self.sampling_report = Some(report);
        run?;
        self.settle_sms();
        Ok(self.collect())
    }

    /// The sampling controller's loop behind [`Gpu::run_sampled`]. A
    /// cycle-cap overrun surfaces from the first window that starts at
    /// or past the cap; each window is at least one cycle long, as
    /// [`SamplingConfig::parse`] rejects an empty measurement window.
    fn sample_windows(
        &mut self,
        sc: SamplingConfig,
        report: &mut SamplingReport,
    ) -> Result<(), SimError> {
        // Deterministic phase offset: shift the sampling grid by a
        // seed-dependent amount so repeated experiments with different
        // seeds observe different program phases.
        let offset = sc.seed % sc.skip;
        if offset > 0 && !self.finished() {
            self.drain_in_flight()?;
            self.fast_forward_gap(offset, report)?;
        }
        while !self.finished() {
            // Warm-up: detailed execution whose counters are discarded —
            // it exists to re-form queues, MSHR pressure and in-flight
            // traffic after the functional gap.
            self.run_detailed_window(sc.warmup, report)?;
            if self.finished() {
                break;
            }
            // Measurement window: everything between the two snapshots
            // is cycle-accurate, so the deltas are unbiased estimators.
            let start = self.now;
            let before = self.sample_snapshot();
            self.run_detailed_window(sc.detail, report)?;
            let after = self.sample_snapshot();
            report.windows.push(WindowSample {
                cycles: self.now - start,
                warp_insns: after.warp_insns - before.warp_insns,
                thread_insns: after.thread_insns - before.thread_insns,
                accesses: after.accesses - before.accesses,
                hits: after.hits - before.hits,
                flits: after.flits - before.flits,
            });
            if self.finished() {
                break;
            }
            self.drain_in_flight()?;
            self.fast_forward_gap(sc.skip, report)?;
        }
        Ok(())
    }

    /// One detailed window: the exact-mode run loop, bounded at
    /// `self.now + cycles`. Counts every cycle it advances (stepped or
    /// leapt) as detailed time in the report.
    fn run_detailed_window(
        &mut self,
        cycles: u64,
        report: &mut SamplingReport,
    ) -> Result<(), SimError> {
        let start = self.now;
        let ran = self.run_until(start + cycles);
        report.detailed_cycles += self.now - start;
        ran?;
        // The loop may have leapt to the window edge without stepping.
        // [`MemoryPartition::next_event`] computes its DRAM-domain term
        // relative to the partition's *internal* clock, which is only
        // current right after a step that cycled it — so before the next
        // window probes for a leap bound, replay the leapt tail into
        // each partition's clock (sound: the bound that licensed the
        // leap guarantees the tail was quiet). A busy partition is
        // settled through `now` inclusive: reference ticking cycled it
        // in the window's last cycle, DRAM tick included. An idle one
        // was not cycled there in either mode, so it keeps the call
        // that leaves `now` to its next `cycle`.
        for (p, part) in self.parts.iter_mut().enumerate() {
            if self.active_parts & mask::bit(p) != 0 {
                part.settle(self.now);
            } else {
                part.advance_quiet(self.now);
            }
        }
        Ok(())
    }

    /// Resolve every in-flight request so the machine reaches a
    /// quiescent point the functional fast-forward can start from:
    /// partitions answer everything they hold, crossbar packets arrive
    /// instantly, L1Ds absorb the replies and retire the warps that
    /// were waiting. Conservation counters are maintained throughout, so
    /// the periodic audits stay valid across the window edge.
    fn drain_in_flight(&mut self) -> Result<(), SimError> {
        let now = self.now;
        // Age deferred per-SM accounting through the window edge first,
        // while the "cycles behind" bookkeeping is still coherent.
        self.settle_sms();
        let mut replies: Vec<Packet> = Vec::new();
        let mut effects: Vec<(u64, bool)> = Vec::new();
        // 1. Partitions complete their L2 misses and flush their queues.
        //    This empties every L2 MSHR, which the functional apply
        //    paths below require.
        for p in 0..self.parts.len() {
            replies.extend(self.parts[p].drain_functional());
        }
        // 2. Requests still sitting in L1D outgoing queues route
        //    directly to their partition (they never enter the crossbar,
        //    so no flit delivery is recorded for them — matching the
        //    send side, which never counted them either).
        for s in 0..self.sms.len() {
            while let Some(pkt) = self.sms[s].l1d.pop_outgoing() {
                if pkt.kind.expects_reply() {
                    self.counters.fetches_sent += 1;
                }
                let dst = self.icnt.partition_of(pkt.addr);
                replies.extend(self.parts[dst].apply_functional(pkt));
            }
        }
        // 3. Packets in flight toward the partitions arrive now.
        for p in 0..self.parts.len() {
            for pkt in self.icnt.drain_fwd(p) {
                self.counters.fwd_flits_delivered += pkt.flits();
                replies.extend(self.parts[p].apply_functional(pkt));
            }
        }
        // 4. Replies in flight toward the SMs arrive now.
        for s in 0..self.sms.len() {
            for pkt in self.icnt.drain_ret(s) {
                self.counters.ret_flits_delivered += pkt.flits();
                replies.push(pkt);
            }
        }
        // 5. Deliver every owed reply to its L1D.
        for pkt in replies {
            self.deliver_reply(pkt.req.sm as usize, pkt, now)?;
        }
        // 6. SMs ripen the responses, retire the blocked warps, and
        //    retry anything the replay queues held. Fresh misses raised
        //    here fill instantly; their L2-side footprint is applied
        //    functionally.
        for s in 0..self.sms.len() {
            self.sms[s].drain_functional(now, &mut effects)?;
            self.apply_effects(s, &mut effects);
        }
        // 7. Re-derive the busy/sleep bookkeeping the event core trusts.
        self.rederive_active_sms();
        debug_assert!(
            self.parts.iter().all(MemoryPartition::idle),
            "partition not idle after drain"
        );
        self.active_parts = 0;
        self.part_next_ev.fill(0);
        debug_assert_eq!(self.icnt.in_flight(), 0, "crossbar not empty after drain");
        self.resume_detailed();
        Ok(())
    }

    /// Touch the L2 for the traffic SM `s`'s functional accesses left in
    /// `effects`, emptying it, and drop the SM's finished CTAs, as a
    /// detailed cycle does.
    fn apply_effects(&mut self, s: usize, effects: &mut Vec<(u64, bool)>) {
        for (addr, is_write) in effects.drain(..) {
            let dst = self.icnt.partition_of(addr);
            self.parts[dst].l2_touch_functional(addr, is_write);
        }
        self.sms[s].take_finished_ctas();
    }

    /// After a drain or a fast-forward, which bypass the per-cycle
    /// bookkeeping: mark every SM aged through `now`, and restart the
    /// watchdog there.
    fn resume_detailed(&mut self) {
        self.sm_last_cycled.fill(self.now);
        self.last_progress = self.counters.replies_delivered + self.total_warp_insns;
        self.last_progress_cycle = self.now;
    }

    /// Functionally execute roughly `gap` cycles' worth of work: warps
    /// advance instruction by instruction, every memory access updates
    /// cache and policy state with an instant fill, and nothing touches
    /// crossbar or DRAM timing. The instruction budget is set by the
    /// last measurement window's issue rate so the gap represents the
    /// same amount of program progress detailed simulation would make.
    fn fast_forward_gap(
        &mut self,
        gap: u64,
        report: &mut SamplingReport,
    ) -> Result<(), SimError> {
        let budget = match report.windows.last() {
            Some(w) if w.cycles > 0 => {
                (w.warp_insns.saturating_mul(gap) / w.cycles).max(64)
            }
            // Cold start (phase offset before the first window): assume
            // one warp instruction per cycle.
            _ => gap.max(64),
        };
        let mut executed = 0u64;
        let mut effects: Vec<(u64, bool)> = Vec::new();
        while executed < budget {
            self.launch_ctas()?;
            let mut progressed = false;
            for s in 0..self.sms.len() {
                let quantum = (budget - executed).min(512);
                let done = self.sms[s].advance_functional(quantum, self.now, &mut effects)?;
                if done > 0 {
                    progressed = true;
                }
                executed += done;
                self.total_warp_insns += done;
                self.apply_effects(s, &mut effects);
                if executed >= budget {
                    break;
                }
            }
            if !progressed {
                // Nothing ran and launch_ctas had nothing to place: the
                // grid is out of work — the gap ends early.
                break;
            }
        }
        // Re-derive busy flags: SMs may have run dry mid-gap, and
        // launch_ctas marked newly fed SMs busy already.
        self.rederive_active_sms();
        // Advance the clock: the full gap normally; pro-rated when the
        // program ran dry partway through, so end-of-run cycle counts
        // stay meaningful.
        let advance = if executed >= budget || !self.finished() {
            gap
        } else {
            gap.saturating_mul(executed) / budget
        };
        self.now += advance;
        report.ff_cycles += advance;
        report.ff_insns += executed;
        self.resume_detailed();
        Ok(())
    }

    /// Cumulative counter snapshot for window-delta estimation.
    fn sample_snapshot(&self) -> WindowSample {
        let mut snap = WindowSample::default();
        for sm in &self.sms {
            let s = sm.stats();
            snap.warp_insns += s.warp_insns;
            snap.thread_insns += s.thread_insns;
            let c = sm.l1d.stats();
            snap.accesses += c.accesses;
            snap.hits += c.hits;
        }
        // Injected, not delivered, flits: delivery lags injection by the
        // full queueing latency, which under congestion exceeds a window
        // length — a delivered-basis delta would systematically starve
        // the window. Injection shares its basis with the exact-mode
        // figure ([`IcntStats::total_flits`]).
        snap.flits = self.icnt.stats().total_flits();
        snap
    }

    /// Largest per-warp resident trace footprint across the chip — the
    /// scale axis's bounded-memory witness.
    pub fn peak_warp_trace_bytes(&self) -> u64 {
        self.sms.iter().map(|sm| sm.peak_warp_trace_bytes()).max().unwrap_or(0)
    }

    fn collect(&self) -> RunStats {
        let mut out = RunStats { cycles: self.now, completed: true, ..Default::default() };
        for sm in &self.sms {
            let s = sm.stats();
            out.thread_insns += s.thread_insns;
            out.warp_insns += s.warp_insns;
            out.mem_transactions += s.mem_transactions;
            out.l1d.merge(sm.l1d.stats());
            out.policy.merge(&sm.l1d.policy_stats());
            out.insn_id_wraps += sm.l1d.insn_id_wraps();
            out.pdpt_evict_pressure += sm.l1d.pdpt_evict_pressure();
        }
        out.peak_warp_trace_bytes = self.peak_warp_trace_bytes();
        out.icnt = self.icnt.stats().clone();
        for p in &self.parts {
            out.l2.merge(p.l2_stats());
            out.dram.merge(&p.dram_stats());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::TraceOp;
    use crate::kernel::GridDesc;
    use dlp_core::PolicyKind;

    /// A streaming kernel: every warp loads a private range then does
    /// dependent ALU work.
    struct Stream {
        ctas: usize,
        warps: usize,
        iters: usize,
    }

    impl Kernel for Stream {
        fn name(&self) -> &str {
            "stream"
        }
        fn grid(&self) -> GridDesc {
            GridDesc { num_ctas: self.ctas, warps_per_cta: self.warps }
        }
        fn warp_stream(&self, cta: usize, warp: usize) -> Box<dyn crate::stream::OpStream> {
            let mut ops = Vec::new();
            let warp_base = ((cta * self.warps + warp) * self.iters) as u64 * 4096;
            for i in 0..self.iters {
                let base = warp_base + (i as u64) * 4096;
                ops.push(TraceOp::load(0, 1, (0..32).map(|l| base + l * 4).collect()));
                ops.push(TraceOp::alu(1, 4).with_srcs([1]).with_dst(2));
                ops.push(TraceOp::alu(2, 4).with_srcs([2]).with_dst(3));
            }
            Box::new(crate::stream::VecStream::new(ops))
        }
    }

    #[test]
    fn small_kernel_completes_on_every_policy() {
        for kind in PolicyKind::ALL {
            let cfg = SimConfig::tesla_m2090(kind).scaled_down(2);
            let mut gpu = Gpu::new(cfg, Box::new(Stream { ctas: 4, warps: 2, iters: 3 }));
            let stats = gpu.run().unwrap();
            assert!(stats.completed, "{kind:?} did not complete");
            assert_eq!(stats.warp_insns, 4 * 2 * 3 * 3, "{kind:?} wrong insn count");
            assert_eq!(stats.l1d.accesses, stats.mem_transactions);
            assert!(stats.ipc() > 0.0);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mk = || {
            let cfg = SimConfig::tesla_m2090(PolicyKind::Dlp).scaled_down(2);
            Gpu::new(cfg, Box::new(Stream { ctas: 6, warps: 3, iters: 4 }))
        };
        let a = mk().run().unwrap();
        let b = mk().run().unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.l1d, b.l1d);
        assert_eq!(a.icnt, b.icnt);
    }

    #[test]
    fn memory_bound_kernel_touches_dram() {
        let cfg = SimConfig::tesla_m2090(PolicyKind::Baseline).scaled_down(1);
        let mut gpu = Gpu::new(cfg, Box::new(Stream { ctas: 2, warps: 2, iters: 4 }));
        let stats = gpu.run().unwrap();
        assert!(stats.dram.reads > 0);
        assert!(stats.icnt.total_flits() > 0);
        assert!(stats.l2.accesses > 0);
    }

    #[test]
    fn more_ctas_than_capacity_still_drain() {
        let cfg = SimConfig::tesla_m2090(PolicyKind::Baseline).scaled_down(1);
        // 1 SM × 48 slots, 8-warp CTAs -> 6 resident; 20 CTAs queue up.
        let mut gpu = Gpu::new(cfg, Box::new(Stream { ctas: 20, warps: 8, iters: 2 }));
        let stats = gpu.run().unwrap();
        assert!(stats.completed);
        assert_eq!(stats.warp_insns, 20 * 8 * 2 * 3);
    }

    #[test]
    fn warp_throttling_limits_concurrency() {
        // With a 2-warp limit and 2-warp CTAs, at most one CTA is
        // resident per SM; the kernel still completes.
        let cfg = SimConfig::tesla_m2090(PolicyKind::Baseline).scaled_down(1).with_warp_limit(2);
        let mut gpu = Gpu::new(cfg, Box::new(Stream { ctas: 6, warps: 2, iters: 2 }));
        let stats = gpu.run().unwrap();
        assert!(stats.completed);
        assert_eq!(stats.warp_insns, 6 * 2 * 2 * 3);
        // Throttled runs serialize CTAs, so they take longer than the
        // unthrottled machine.
        let full = Gpu::new(
            SimConfig::tesla_m2090(PolicyKind::Baseline).scaled_down(1),
            Box::new(Stream { ctas: 6, warps: 2, iters: 2 }),
        )
        .run()
        .unwrap();
        assert!(stats.cycles > full.cycles);
    }

    #[test]
    fn sampled_run_completes_and_reports_windows() {
        for kind in PolicyKind::ALL {
            let sc = SamplingConfig { detail: 200, skip: 600, warmup: 100, seed: 0 };
            let cfg = SimConfig::tesla_m2090(kind).scaled_down(2).with_sampling(sc);
            let mut gpu = Gpu::new(cfg, Box::new(Stream { ctas: 16, warps: 4, iters: 16 }));
            let stats = gpu.run().unwrap();
            assert!(stats.completed, "{kind:?} sampled run did not complete");
            // Every warp instruction executes exactly once, detailed or
            // functional — the total is exact, not estimated.
            assert_eq!(stats.warp_insns, 16 * 4 * 16 * 3, "{kind:?} wrong insn count");
            let report = gpu.sampling_report().expect("sampled run leaves a report");
            assert!(!report.windows.is_empty(), "{kind:?}: no measurement windows");
            assert!(report.ff_insns > 0, "{kind:?}: nothing fast-forwarded");
            assert!(report.ff_cycles > 0);
            for w in &report.windows {
                assert!(w.cycles > 0);
                assert!(w.hits <= w.accesses);
            }
        }
    }

    #[test]
    fn sampled_run_is_deterministic() {
        let mk = |seed| {
            let sc = SamplingConfig { detail: 128, skip: 512, warmup: 64, seed };
            let cfg =
                SimConfig::tesla_m2090(PolicyKind::Dlp).scaled_down(2).with_sampling(sc);
            let mut gpu =
                Gpu::new(cfg, Box::new(Stream { ctas: 12, warps: 4, iters: 12 }));
            let stats = gpu.run().unwrap();
            (stats, gpu.sampling_report().unwrap().clone())
        };
        let (sa, ra) = mk(7);
        let (sb, rb) = mk(7);
        assert_eq!(sa.cycles, sb.cycles);
        assert_eq!(sa.l1d, sb.l1d);
        assert_eq!(ra, rb, "same seed must reproduce the same windows");
        // A different seed shifts the sampling grid, which the report
        // reflects (the run still completes with the same total work).
        let (sc_, rc) = mk(123);
        assert_eq!(sa.warp_insns, sc_.warp_insns);
        assert!(sc_.completed);
        assert_ne!(ra, rc, "different seeds should observe different windows");
    }

    #[test]
    fn exact_mode_is_untouched_by_the_sampling_field() {
        // sampling: None must leave the run loop on the exact path —
        // identical cycles and counters to a config that never heard of
        // sampling (the golden-digest guarantee, in miniature).
        let cfg = SimConfig::tesla_m2090(PolicyKind::Dlp).scaled_down(2);
        assert!(cfg.sampling.is_none());
        let mut gpu = Gpu::new(cfg, Box::new(Stream { ctas: 6, warps: 3, iters: 4 }));
        let stats = gpu.run().unwrap();
        assert!(gpu.sampling_report().is_none());
        assert!(stats.completed);
    }

    #[test]
    fn sampled_run_respects_the_cycle_cap() {
        let sc = SamplingConfig { detail: 64, skip: 128, warmup: 32, seed: 0 };
        let mut cfg =
            SimConfig::tesla_m2090(PolicyKind::Baseline).scaled_down(2).with_sampling(sc);
        cfg.max_cycles = 300;
        let mut gpu = Gpu::new(cfg, Box::new(Stream { ctas: 32, warps: 8, iters: 64 }));
        match gpu.run() {
            Err(SimError::CycleCapExceeded(report)) => {
                assert!(report.cycle >= 300);
            }
            other => panic!("expected a cycle-cap error, got {other:?}"),
        }
    }

    #[test]
    fn launch_cursor_overflow_is_a_typed_error() {
        let mut cursor = usize::MAX - 1;
        assert!(advance_cursor(&mut cursor, 1, 7).is_ok());
        assert_eq!(cursor, usize::MAX);
        let err = advance_cursor(&mut cursor, 1, 9).unwrap_err();
        match err {
            SimError::LaunchCursorOverflow { cycle, slots } => {
                assert_eq!(cycle, 9);
                assert_eq!(slots, 1);
            }
            other => panic!("wrong error variant: {other}"),
        }
        assert_eq!(cursor, usize::MAX, "cursor is left untouched on failure");
        // The leap replay's bulk advance hits the same guard.
        let mut cursor = usize::MAX - 100;
        let err = advance_cursor(&mut cursor, 16 * 50_000, 42).unwrap_err();
        assert!(matches!(err, SimError::LaunchCursorOverflow { cycle: 42, .. }));
    }

    #[test]
    fn reuse_kernel_hits_in_l1d() {
        /// Warps re-read the same small array repeatedly.
        struct Reuse;
        impl Kernel for Reuse {
            fn name(&self) -> &str {
                "reuse"
            }
            fn grid(&self) -> GridDesc {
                GridDesc { num_ctas: 1, warps_per_cta: 1 }
            }
            fn warp_stream(&self, _c: usize, _w: usize) -> Box<dyn crate::stream::OpStream> {
                Box::new(crate::stream::VecStream::new(
                    (0..64)
                        .map(|i| {
                            TraceOp::load(0, 1, (0..32).map(|l| (i % 2) * 128 + l * 4).collect())
                        })
                        .collect(),
                ))
            }
        }
        let cfg = SimConfig::tesla_m2090(PolicyKind::Baseline).scaled_down(1);
        let stats = Gpu::new(cfg, Box::new(Reuse)).run().unwrap();
        assert_eq!(stats.l1d.accesses, 64);
        assert_eq!(stats.l1d.hits, 62, "all but the two compulsory misses hit");
    }
}
