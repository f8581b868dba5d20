//! One streaming multiprocessor: warp slots, dual GTO schedulers, the
//! LD/ST unit with its coalescer, and the SM's private L1D.

use crate::coalescer::coalesce_into;
use crate::config::SimConfig;
use crate::error::SimError;
use crate::isa::{OpKind, Reg, TraceOp, NO_REG};
use crate::scheduler::GtoScheduler;
use crate::stream::OpStream;
use crate::warp::Warp;
use dlp_core::{build_policy_with, ProtectionConfig};
use gpu_mem::l1d::L1dCache;
use gpu_mem::packet::MemReq;
use gpu_mem::MemError;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Issue/retire bookkeeping for one SM.
#[derive(Clone, Copy, Debug, Default)]
pub struct SmStats {
    /// Thread instructions executed.
    pub thread_insns: u64,
    /// Warp instructions issued.
    pub warp_insns: u64,
    /// Memory transactions generated by the coalescer.
    pub mem_transactions: u64,
    /// Cycles in which at least one instruction issued.
    pub active_cycles: u64,
}

/// One SM.
pub struct Sm {
    /// SM index (routes interconnect replies).
    pub id: usize,
    max_warps: usize,
    ldst_capacity: usize,
    sample_insn_cap: u64,
    warps: Vec<Option<Warp>>,
    /// Occupied warp slots, maintained incrementally so [`Sm::idle`] is
    /// O(1) (the GPU polls it every cycle for idle-skip).
    live_warps: usize,
    /// Bit per warp slot: scoreboard says the next op can issue.
    /// Maintained incrementally at every scoreboard mutation so the
    /// per-cycle scheduler scan is a mask test instead of a walk over
    /// every warp's registers ([`Sm::refresh_slot`]).
    sb_ready_mask: u64,
    /// Bit per warp slot: the next op is a memory op (subject to the
    /// LD/ST queue back-pressure check). Maintained alongside
    /// [`Sm::sb_ready_mask`].
    mem_next_mask: u64,
    /// Warp slots owned by each scheduler, as a slot bitmask.
    sched_masks: Vec<u64>,
    schedulers: Vec<GtoScheduler>,
    alu_wb: BinaryHeap<Reverse<(u64, usize, Reg)>>,
    ldst_queue: VecDeque<MemReq>,
    /// The SM's private L1D.
    pub l1d: L1dCache,
    next_age: u64,
    req_seq: u64,
    insns_since_sample: u64,
    /// Reusable buffer for coalesced sector addresses, so issuing a
    /// memory instruction allocates nothing.
    sector_scratch: Vec<u64>,
    /// CTAs resident here: (cta id, warps still running).
    resident: Vec<(usize, usize)>,
    finished_ctas: Vec<usize>,
    stats: SmStats,
    /// Largest resident trace footprint any warp's stream reached here
    /// (retired warps folded in at retirement; live warps at query
    /// time). The scale-axis memory guarantee is read off this number.
    peak_warp_trace_bytes: u64,
}

impl Sm {
    /// Build an SM per the platform configuration.
    pub fn new(id: usize, cfg: &SimConfig) -> Self {
        let protection = cfg
            .protection_override
            .unwrap_or_else(|| ProtectionConfig::paper_default(cfg.l1d.geom));
        assert_eq!(protection.geom, cfg.l1d.geom, "protection override geometry mismatch");
        let policy = build_policy_with(cfg.policy, protection);
        let max_warps = cfg.warp_limit.unwrap_or(cfg.max_warps_per_sm).min(cfg.max_warps_per_sm);
        assert!(max_warps <= 64, "slot bitmasks require at most 64 warp slots per SM");
        let ns = cfg.schedulers_per_sm;
        Sm {
            id,
            max_warps,
            ldst_capacity: cfg.ldst_queue,
            sample_insn_cap: cfg.sample_insn_cap,
            warps: (0..max_warps).map(|_| None).collect(),
            live_warps: 0,
            sb_ready_mask: 0,
            mem_next_mask: 0,
            sched_masks: (0..ns)
                .map(|s| (0..max_warps).filter(|slot| slot % ns == s).map(|slot| 1u64 << slot).sum())
                .collect(),
            schedulers: (0..ns).map(|_| GtoScheduler::new()).collect(),
            alu_wb: BinaryHeap::new(),
            ldst_queue: VecDeque::new(),
            l1d: L1dCache::new(cfg.l1d, policy),
            next_age: 0,
            req_seq: 0,
            insns_since_sample: 0,
            sector_scratch: Vec::with_capacity(32),
            resident: Vec::new(),
            finished_ctas: Vec::new(),
            stats: SmStats::default(),
            peak_warp_trace_bytes: 0,
        }
    }

    /// Free warp slots. O(1).
    pub fn free_slots(&self) -> usize {
        self.warps.len() - self.live_warps
    }

    /// Can a CTA of `warps_per_cta` warps launch here?
    pub fn can_accept_cta(&self, warps_per_cta: usize) -> bool {
        warps_per_cta <= self.max_warps && self.free_slots() >= warps_per_cta
    }

    /// Resident warps (running). O(1).
    pub fn active_warps(&self) -> usize {
        debug_assert_eq!(
            self.live_warps,
            self.warps.iter().filter(|w| w.is_some()).count(),
            "incremental live-warp census out of sync"
        );
        self.live_warps
    }

    /// Launch a CTA: one instruction stream per warp. Caller checked
    /// [`Sm::can_accept_cta`].
    pub fn launch_cta(&mut self, cta: usize, warps: Vec<Box<dyn OpStream>>) {
        assert!(self.can_accept_cta(warps.len()), "CTA does not fit");
        let mut live = 0usize;
        for stream in warps {
            let Some(slot) = self.warps.iter().position(|w| w.is_none()) else {
                // `can_accept_cta` is asserted at entry, so a free slot
                // exists for every warp; stop placing rather than panic.
                break;
            };
            let age = self.next_age;
            self.next_age += 1;
            let w = Warp::new(slot, cta, age, stream);
            if w.finished() {
                // Degenerate empty warp: nothing to run.
                self.note_warp_peak(&w);
                continue;
            }
            let ns = self.schedulers.len();
            self.schedulers[slot % ns].add(slot, age);
            self.warps[slot] = Some(w);
            self.live_warps += 1;
            self.refresh_slot(slot);
            live += 1;
        }
        if live == 0 {
            self.finished_ctas.push(cta);
        } else {
            self.resident.push((cta, live));
        }
    }

    /// CTAs that completed since the last call (GPU launches successors).
    pub fn take_finished_ctas(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.finished_ctas)
    }

    /// No work left in this SM (warps, queues, cache machinery)? O(1),
    /// so the GPU driver can consult it every cycle to skip quiescent
    /// SMs entirely. A finished warp can leave no pending writebacks,
    /// but the ALU heap is checked anyway — an entry there means a
    /// future register write, which is work.
    pub fn idle(&self) -> bool {
        self.live_warps == 0
            && self.ldst_queue.is_empty()
            && self.alu_wb.is_empty()
            && self.l1d.quiescent()
    }

    /// Issue counters.
    pub fn stats(&self) -> SmStats {
        self.stats
    }

    /// Coalesced transactions waiting for the L1D (hang diagnostics).
    pub fn ldst_queue_len(&self) -> usize {
        self.ldst_queue.len()
    }

    /// Largest per-warp resident trace footprint seen on this SM,
    /// covering retired and still-live warps.
    pub fn peak_warp_trace_bytes(&self) -> u64 {
        let live = self
            .warps
            .iter()
            .flatten()
            .map(|w| w.peak_trace_bytes() as u64)
            .max()
            .unwrap_or(0);
        self.peak_warp_trace_bytes.max(live)
    }

    #[inline]
    fn note_warp_peak(&mut self, w: &Warp) {
        self.peak_warp_trace_bytes = self.peak_warp_trace_bytes.max(w.peak_trace_bytes() as u64);
    }

    /// Recompute the cached ready/memory-next bits for one warp slot.
    /// Must run after every event that can change the slot's scoreboard
    /// state or stream position (issue, writeback, retire, launch).
    fn refresh_slot(&mut self, slot: usize) {
        let bit = 1u64 << slot;
        match self.warps[slot].as_ref() {
            Some(w) => {
                if w.scoreboard_ready() {
                    self.sb_ready_mask |= bit;
                } else {
                    self.sb_ready_mask &= !bit;
                }
                if w.next_is_mem() {
                    self.mem_next_mask |= bit;
                } else {
                    self.mem_next_mask &= !bit;
                }
            }
            None => {
                self.sb_ready_mask &= !bit;
                self.mem_next_mask &= !bit;
            }
        }
    }

    fn retire_if_finished(&mut self, slot: usize, now: u64) -> Result<(), SimError> {
        // Test in place: this runs after every warp instruction, memory
        // response and writeback, and moving the warp out and back
        // costs a copy.
        if !self.warps[slot].as_ref().is_some_and(Warp::finished) {
            return Ok(());
        }
        let Some(w) = self.warps[slot].take() else { return Ok(()) };
        self.note_warp_peak(&w);
        self.live_warps -= 1;
        let ns = self.schedulers.len();
        self.schedulers[slot % ns].remove(slot);
        let Some(pos) = self.resident.iter().position(|&(c, _)| c == w.cta) else {
            return Err(SimError::WarpStateCorrupt {
                sm: self.id,
                slot,
                what: "retiring warp's CTA is not in the resident list",
                cycle: now,
            });
        };
        self.resident[pos].1 -= 1;
        if self.resident[pos].1 == 0 {
            let (cta, _) = self.resident.swap_remove(pos);
            self.finished_ctas.push(cta);
        }
        Ok(())
    }

    /// Wrap a memory-hierarchy failure from this SM's L1D in its
    /// simulation-level context.
    fn mem_err(&self, source: MemError, now: u64) -> SimError {
        SimError::MshrViolation { sm: self.id, source, cycle: now }
    }

    /// Advance one core cycle. Returns the number of warp instructions
    /// issued, so the driver can maintain its forward-progress metric
    /// incrementally instead of re-summing per-SM counters every cycle.
    /// Fails if the L1D reports a structural violation or the SM's warp
    /// bookkeeping is found corrupt.
    pub fn cycle(&mut self, now: u64) -> Result<u64, SimError> {
        // 1. Cache machinery first so this cycle's responses are visible.
        self.l1d.cycle(now).map_err(|e| self.mem_err(e, now))?;

        // 2. Retire memory responses into the scoreboard.
        self.retire_responses(now)?;

        // 3. ALU writebacks that ripened.
        self.retire_alu_writebacks(now, now)?;

        // 4. LD/ST unit feeds the L1D one transaction per cycle.
        if let Some(&req) = self.ldst_queue.front() {
            if self.l1d.submit(req, now).map_err(|e| self.mem_err(e, now))? {
                self.ldst_queue.pop_front();
            }
        }

        // 5. Each scheduler issues at most one instruction.
        let mut issued = 0u64;
        for s in 0..self.schedulers.len() {
            if let Some(slot) = self.pick_ready(s) {
                self.issue(slot, now)?;
                issued += 1;
            }
        }
        if issued > 0 {
            self.stats.active_cycles += 1;
        }

        // 6. §4.1.4: bound the sampling period in instructions.
        self.close_sample_if_due();
        Ok(issued)
    }

    /// §4.1.4: close the policy's sampling period once the SM has
    /// issued `sample_insn_cap` instructions since the last one, so
    /// kernels with few loads still close their samples.
    #[inline]
    fn close_sample_if_due(&mut self) {
        if self.sample_insn_cap > 0 && self.insns_since_sample >= self.sample_insn_cap {
            self.l1d.force_policy_sample();
            self.insns_since_sample = 0;
        }
    }

    /// Retire every response the L1D has ready into its warp's
    /// scoreboard. Returns whether there was any.
    #[inline(always)]
    fn retire_responses(&mut self, now: u64) -> Result<bool, SimError> {
        let mut any = false;
        while let Some(resp) = self.l1d.pop_response() {
            any = true;
            let slot = resp.req.warp as usize;
            let Some(w) = self.warps[slot].as_mut() else {
                return Err(SimError::WarpStateCorrupt {
                    sm: self.id,
                    slot,
                    what: "memory response targets an empty warp slot",
                    cycle: now,
                });
            };
            if resp.req.is_write {
                w.store_retired();
            } else {
                w.complete_one(resp.req.dst_reg);
            }
            self.retire_if_finished(slot, now)?;
            self.refresh_slot(slot);
        }
        Ok(any)
    }

    /// Retire every ALU writeback due by cycle `through` into its warp's
    /// scoreboard. Returns whether there was any.
    #[inline(always)]
    fn retire_alu_writebacks(&mut self, through: u64, now: u64) -> Result<bool, SimError> {
        let mut any = false;
        while let Some(&Reverse((ready, slot, reg))) = self.alu_wb.peek() {
            if ready > through {
                break;
            }
            any = true;
            self.alu_wb.pop();
            if let Some(w) = self.warps[slot].as_mut() {
                w.complete_one(reg);
            }
            self.retire_if_finished(slot, now)?;
            self.refresh_slot(slot);
        }
        Ok(any)
    }

    /// Coalesce memory op `op` of warp `slot` into sector transactions,
    /// count them, and hand each one's request to `send` in sector
    /// order. Returns the transaction count.
    fn send_transactions(
        &mut self,
        slot: usize,
        op: &TraceOp,
        mut send: impl FnMut(&mut Self, MemReq),
    ) -> u32 {
        let OpKind::Mem { is_write, addrs } = &op.kind else { return 0 };
        // Coalesce into the SM's scratch buffer: no per-issue allocation
        // for the sector list.
        coalesce_into(addrs, 128, &mut self.sector_scratch);
        let n = self.sector_scratch.len() as u32;
        self.stats.mem_transactions += n as u64;
        for i in 0..self.sector_scratch.len() {
            self.req_seq += 1;
            let req = MemReq {
                id: self.req_seq,
                addr: self.sector_scratch[i],
                is_write: *is_write,
                pc: op.pc,
                sm: self.id as u16,
                warp: slot as u32,
                dst_reg: if *is_write { NO_REG } else { op.dst },
                born: 0,
            };
            send(self, req);
        }
        n
    }

    /// Earliest future core cycle (strictly after `now`) at which this
    /// SM could do observable work, or `None` when every remaining
    /// wakeup must come from outside (an interconnect reply). The
    /// cycle-leap event core takes the minimum of this bound across all
    /// busy SMs.
    ///
    /// `Some(now + 1)` — the next cycle is an event — whenever:
    /// - a warp is eligible to issue (same mask predicate as
    ///   [`Sm::pick_ready`]);
    /// - the L1D has packets for the interconnect, ripe responses, or a
    ///   parked access whose retry must really run
    ///   ([`L1dCache::retry_must_run`]: no stall memo vouches that it
    ///   stalls again);
    /// - the LD/ST queue could feed the L1D a transaction;
    /// - the §4.1.4 sampling cap is due.
    ///
    /// Otherwise the SM sleeps until the earliest ALU writeback or L1D
    /// response ripens. Warps absent from the ready mask cannot become
    /// issuable inside the window: every producer completion (memory
    /// response, ALU writeback, store retirement) is itself one of the
    /// events above, so the bound is conservative.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        #[cfg(debug_assertions)]
        for (slot, w) in self.warps.iter().enumerate() {
            debug_assert_eq!(
                w.as_ref().is_some_and(|w| w.scoreboard_ready()),
                (self.sb_ready_mask >> slot) & 1 == 1,
                "incremental scoreboard-ready mask out of sync at slot {slot}"
            );
            debug_assert!(
                w.as_ref().is_none_or(|w| w.scoreboard_ready() || w.needs_wakeup_event()),
                "a live warp is neither issuable nor awaiting a wakeup event"
            );
        }
        let ldst_room = self.ldst_queue.len() + 32 <= self.ldst_capacity;
        let eligible =
            self.sb_ready_mask & if ldst_room { u64::MAX } else { !self.mem_next_mask };
        if eligible != 0
            || self.l1d.outgoing_len() > 0
            || self.l1d.has_ready_responses()
            || (!self.ldst_queue.is_empty() && !self.l1d.input_blocked())
            || self.l1d.retry_must_run()
            || (self.sample_insn_cap > 0 && self.insns_since_sample >= self.sample_insn_cap)
        {
            return Some(now + 1);
        }
        let mut t = u64::MAX;
        if let Some(&Reverse((ready, _, _))) = self.alu_wb.peek() {
            t = t.min(ready.max(now + 1));
        }
        if let Some(ready) = self.l1d.next_pending_ready() {
            t = t.min(ready.max(now + 1));
        }
        (t != u64::MAX).then_some(t)
    }

    /// Replay `skipped` provably-no-op cycles after a leap. The only
    /// per-cycle SM state that ages in dead time lives in the L1D: the
    /// parked access's stall counters and — when a coalesced transaction
    /// waits behind it — the rejected-submit count. Scheduler state is
    /// untouched because a no-issue [`GtoScheduler::pick`] never runs
    /// (the eligible mask was zero for the whole window).
    pub fn leap_catchup(&mut self, skipped: u64) {
        self.l1d.leap_catchup(skipped, !self.ldst_queue.is_empty());
    }

    /// Window-edge drain for sampling mode: resolve everything the
    /// detailed window left in flight inside this SM — ripening L1D
    /// responses, the parked access, queued LD/ST transactions, and
    /// future ALU writebacks — by completing it all *now*. The caller
    /// has already answered every outstanding L1D fetch, so afterwards
    /// the SM holds no in-flight state: every live warp's scoreboard is
    /// clear. L2-bound traffic from the resolved accesses accumulates
    /// in `effects` as `(addr, is_write)`.
    pub fn drain_functional(
        &mut self,
        now: u64,
        effects: &mut Vec<(u64, bool)>,
    ) -> Result<(), SimError> {
        loop {
            self.l1d.drain_functional(effects);
            let mut progressed = self.retire_responses(now)?;
            progressed |= self.retire_alu_writebacks(u64::MAX, now)?;
            while let Some(req) = self.ldst_queue.pop_front() {
                progressed = true;
                self.l1d.access_functional(req, true, true, effects);
            }
            if !progressed {
                return Ok(());
            }
        }
    }

    /// Execute up to `quantum` warp instructions functionally
    /// (sampling-mode fast-forward): PCs advance, ALU results complete
    /// instantly, memory instructions coalesce and touch the L1D
    /// through [`gpu_mem::l1d::L1dCache::access_functional`] so cache,
    /// VTA and PDPT state stay warm — but nothing waits, so no
    /// scoreboard state forms. Warps interleave one instruction at a
    /// time in slot order, approximating the schedulers' round-robin.
    /// Requires a drained SM ([`Sm::drain_functional`]); returns the
    /// number of warp instructions executed (0 = out of work).
    pub fn advance_functional(
        &mut self,
        quantum: u64,
        now: u64,
        effects: &mut Vec<(u64, bool)>,
    ) -> Result<u64, SimError> {
        debug_assert!(
            self.ldst_queue.is_empty() && self.alu_wb.is_empty(),
            "functional advance on an undrained SM"
        );
        let mut executed = 0u64;
        'outer: loop {
            let mut any = false;
            for slot in 0..self.warps.len() {
                if executed >= quantum {
                    break 'outer;
                }
                let Some(w) = self.warps[slot].as_mut() else { continue };
                if w.stream_done() {
                    self.retire_if_finished(slot, now)?;
                    self.refresh_slot(slot);
                    continue;
                }
                any = true;
                executed += 1;
                self.stats.warp_insns += 1;
                self.insns_since_sample += 1;
                let op = w.advance();
                self.stats.thread_insns += op.active_lanes() as u64;
                self.send_transactions(slot, &op, |sm, req| {
                    sm.l1d.access_functional(req, true, false, effects)
                });
                self.close_sample_if_due();
                self.retire_if_finished(slot, now)?;
                self.refresh_slot(slot);
            }
            if !any {
                break;
            }
        }
        Ok(executed)
    }

    fn pick_ready(&mut self, sched: usize) -> Option<usize> {
        let ldst_room = self.ldst_queue.len() + 32 <= self.ldst_capacity;
        // A warp is eligible when its scoreboard is clear and, for memory
        // ops, the LD/ST queue has room — the same predicate the old
        // per-warp walk evaluated, but precomputed as slot bitmasks.
        let eligible =
            self.sb_ready_mask & if ldst_room { u64::MAX } else { !self.mem_next_mask };
        if eligible & self.sched_masks[sched] == 0 {
            return None;
        }
        self.schedulers[sched].pick(|slot| (eligible >> slot) & 1 == 1)
    }

    fn issue(&mut self, slot: usize, now: u64) -> Result<(), SimError> {
        self.stats.warp_insns += 1;
        self.insns_since_sample += 1;
        let Some(w) = self.warps[slot].as_mut() else {
            return Err(SimError::WarpStateCorrupt {
                sm: self.id,
                slot,
                what: "scheduler picked an empty warp slot",
                cycle: now,
            });
        };
        let op = w.advance();
        self.stats.thread_insns += op.active_lanes() as u64;

        match &op.kind {
            OpKind::Alu { latency, .. } => {
                let (dst, latency) = (op.dst, *latency as u64);
                if dst != NO_REG {
                    w.mark_pending(dst, 1);
                    self.alu_wb.push(Reverse((now + latency, slot, dst)));
                }
            }
            OpKind::Mem { is_write, .. } => {
                let is_write = *is_write;
                let n = self.send_transactions(slot, &op, |sm, req| sm.ldst_queue.push_back(req));
                if let Some(w) = self.warps[slot].as_mut() {
                    if is_write {
                        w.store_issued(n);
                    } else {
                        w.mark_pending(op.dst, n as u16);
                    }
                }
            }
        }
        self.retire_if_finished(slot, now)?;
        self.refresh_slot(slot);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::TraceOp;
    use crate::stream::VecStream;
    use dlp_core::PolicyKind;
    use gpu_mem::packet::{Packet, PacketKind};

    fn sm() -> Sm {
        let cfg = SimConfig::tesla_m2090(PolicyKind::Baseline);
        Sm::new(0, &cfg)
    }

    /// Wrap hand-written traces in the compatibility adapter.
    fn streams(warps: Vec<Vec<TraceOp>>) -> Vec<Box<dyn OpStream>> {
        warps
            .into_iter()
            .map(|ops| Box::new(VecStream::new(ops)) as Box<dyn OpStream>)
            .collect()
    }

    /// Run cycles, replying to all memory traffic instantly.
    fn run_with_perfect_memory(sm: &mut Sm, cycles: u64) {
        for now in 1..=cycles {
            sm.cycle(now).unwrap();
            while let Some(pkt) = sm.l1d.pop_outgoing() {
                let reply = match pkt.kind {
                    PacketKind::ReadReq => PacketKind::ReadReply,
                    PacketKind::BypassReadReq => PacketKind::BypassReadReply,
                    _ => continue,
                };
                sm.l1d.on_reply(Packet { kind: reply, ..pkt }, now).unwrap();
            }
        }
    }

    #[test]
    fn cta_runs_to_completion() {
        let mut s = sm();
        let ops = vec![
            TraceOp::load(0, 1, (0..32).map(|l| l * 4).collect()),
            TraceOp::alu(1, 4).with_srcs([1]).with_dst(2),
            TraceOp::store(2, (0..32).map(|l| 4096 + l * 4).collect()),
        ];
        s.launch_cta(7, streams(vec![ops.clone(), ops]));
        assert_eq!(s.active_warps(), 2);
        run_with_perfect_memory(&mut s, 200);
        assert!(s.idle(), "warps should drain");
        assert_eq!(s.take_finished_ctas(), vec![7]);
        let st = s.stats();
        assert_eq!(st.warp_insns, 6);
        assert_eq!(st.thread_insns, 6 * 32);
        assert_eq!(st.mem_transactions, 4, "coalesced: 1 load + 1 store sector per warp");
    }

    #[test]
    fn dependent_alu_waits_for_load_latency() {
        let mut s = sm();
        let ops = vec![
            TraceOp::load(0, 1, vec![0]),
            TraceOp::alu(1, 1).with_srcs([1]).with_dst(2),
        ];
        s.launch_cta(0, streams(vec![ops]));
        // Cycle 1 issues the load; the ALU can't issue until the miss
        // returns, which needs an external reply.
        s.cycle(1).unwrap();
        s.cycle(2).unwrap();
        s.cycle(3).unwrap();
        assert_eq!(s.stats().warp_insns, 1, "ALU blocked on scoreboard");
        run_with_perfect_memory(&mut s, 50);
        assert_eq!(s.stats().warp_insns, 2);
        assert!(s.idle());
    }

    #[test]
    fn independent_warps_overlap() {
        let mut s = sm();
        let mk = |base: u64| {
            vec![
                TraceOp::load(0, 1, vec![base]),
                TraceOp::alu(1, 2).with_srcs([1]).with_dst(2),
            ]
        };
        // Two warps in one CTA: while warp 0 waits on its load, warp 1
        // issues its own load the very next cycle.
        s.launch_cta(0, streams(vec![mk(0), mk(1 << 20)]));
        s.cycle(1).unwrap();
        assert_eq!(s.stats().warp_insns, 2, "both schedulers issue in cycle 1");
        run_with_perfect_memory(&mut s, 100);
        assert!(s.idle());
    }

    #[test]
    fn empty_cta_finishes_immediately() {
        let mut s = sm();
        s.launch_cta(3, streams(vec![vec![], vec![]]));
        assert_eq!(s.active_warps(), 0);
        assert_eq!(s.take_finished_ctas(), vec![3]);
    }

    #[test]
    fn slot_reuse_after_completion() {
        let mut s = sm();
        let tiny = vec![TraceOp::alu(0, 1)];
        s.launch_cta(0, streams(vec![tiny.clone()]));
        run_with_perfect_memory(&mut s, 10);
        assert!(s.idle());
        assert!(s.can_accept_cta(48));
        s.launch_cta(1, streams(vec![tiny]));
        run_with_perfect_memory(&mut s, 10);
        assert_eq!(s.take_finished_ctas(), vec![0, 1]);
    }

    #[test]
    fn alu_only_warp_counts_active_lanes() {
        let mut s = sm();
        s.launch_cta(0, streams(vec![vec![TraceOp::alu(0, 1).with_active(13)]]));
        run_with_perfect_memory(&mut s, 10);
        assert_eq!(s.stats().thread_insns, 13);
    }
}
