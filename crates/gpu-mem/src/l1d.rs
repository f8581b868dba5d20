//! The L1 data cache controller — the paper's Figure 1/8 access path.
//!
//! Per core cycle the cache accepts at most one coalesced transaction
//! from the LD/ST unit. The handling order for a transaction is:
//!
//! 1. **Hit check** against the tag array — a hit responds after the hit
//!    latency.
//! 2. **MSHR probe** — a miss to a line already in flight merges into
//!    the existing entry.
//! 3. **Line reservation** through the replacement policy — the policy
//!    may pick a victim (evicting it, possibly generating a writeback),
//!    **bypass** the access to the interconnect, or declare that nothing
//!    can be replaced.
//! 4. Any structural obstruction (full MSHR, full miss queue, no
//!    reservable way) **stalls** the access in the pipeline register; it
//!    retries every cycle and blocks all younger accesses until resolved
//!    (§2). Policies with `bypass_on_stall()` (Stall-Bypass) convert
//!    those stalls into bypasses.
//!
//! A retry whose inputs have not changed since the last one stalls the
//! same way, so the cache remembers how the parked access last stalled
//! (its stall memo) and replays that retry's counter bumps instead of
//! re-running the access path. Every event that can change the outcome
//! — a reply, a packet leaving the miss queue, a policy sample, a
//! functional access or drain — drops the memo, and the next retry
//! runs for real.
//!
//! The cache is write-back / write-allocate: store hits dirty the line,
//! store misses fetch-and-allocate, and dirty victims generate
//! `Writeback` packets — the L1D eviction traffic of Figure 11b.

use crate::error::MemError;
use crate::mshr::{LineHash, Mshr, MshrLookup};
use crate::observer::AccessObserver;
use crate::packet::{MemReq, MemResp, Packet, PacketKind};
use crate::ripen::Ripening;
use crate::stats::CacheStats;
use crate::tag_array::{Lookup, TagArray};
use dlp_core::{hash_pc, pc_wraps, AccessCtx, CacheGeometry, MissDecision, ReplacementPolicy, PDPT_ENTRIES};
use std::collections::{HashMap, VecDeque};

/// Static configuration of one L1D instance.
#[derive(Clone, Copy, Debug)]
pub struct L1dConfig {
    /// Cache shape (16 KB / 32 sets / 4 ways in the baseline).
    pub geom: CacheGeometry,
    /// Core cycles from a hit to the data response.
    pub hit_latency: u64,
    /// Distinct lines the MSHR can track.
    pub mshr_entries: usize,
    /// Requests mergeable per MSHR entry.
    pub mshr_merge: usize,
    /// Capacity of the miss queue toward the interconnect.
    pub miss_queue: usize,
}

impl L1dConfig {
    /// The paper's baseline L1D configuration.
    pub fn fermi_baseline() -> Self {
        L1dConfig {
            geom: CacheGeometry::fermi_l1d_16k(),
            hit_latency: 4,
            mshr_entries: 128,
            mshr_merge: 48,
            miss_queue: 8,
        }
    }
}

/// Outcome of processing one access attempt (internal).
enum Outcome {
    /// The access finished (hit scheduled, merged, queued, or bypassed).
    Consumed,
    /// The access must park in the pipeline register and retry; the
    /// memo says what each unchanged retry bumps.
    Stalled(StallMemo),
}

/// How an access stalled, and so what each retry of it bumps while
/// nothing the retry reads changes: `stall_cycles`, the stall counter
/// the variant names and, where the retry reached the replacement
/// decision, whatever the policy counts for that decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StallMemo {
    /// The line is in flight and its merge list is full
    /// (`stall_merge_full`).
    MergeFull,
    /// No MSHR entry is free for a new line (`stall_mshr_full`).
    MshrFull,
    /// The policy found every way of the set reserved by in-flight fills
    /// and decided [`MissDecision::Stall`] (`stall_all_reserved`).
    AllReserved,
    /// The miss queue toward the interconnect is full
    /// (`stall_miss_queue`), after the policy's decision if the access
    /// reached one.
    MissQueue(Option<MissDecision>),
}

/// One L1 data cache with its MSHRs, miss queue and pipeline register.
pub struct L1dCache {
    cfg: L1dConfig,
    tags: TagArray,
    policy: Box<dyn ReplacementPolicy>,
    mshr: Mshr<MemReq>,
    /// Packets waiting to enter the interconnect.
    outgoing: VecDeque<Packet>,
    /// Responses ripening toward the core.
    pending: Ripening<MemResp>,
    /// Ready responses the core can pop.
    responses: VecDeque<MemResp>,
    /// The blocked access retrying at the head of the memory pipeline.
    pipeline_reg: Option<MemReq>,
    /// How the parked access's last retry stalled. Set only while an
    /// access is parked, and dropped by every event that can change the
    /// retry's outcome (see the module docs).
    stall_memo: Option<StallMemo>,
    /// Lines ever touched, for compulsory-miss accounting.
    seen_lines: LineSet,
    observer: Option<Box<dyn AccessObserver>>,
    stats: CacheStats,
    /// Accesses whose PC exceeded the 7-bit instruction-id space (the
    /// `hash_pc` fold was lossy). Observability only — kept off
    /// [`CacheStats`] so the pinned fidelity digest is untouched.
    insn_id_wraps: u64,
    /// Last full PC seen per hashed instruction id. The PDPT itself is
    /// direct-indexed and never evicts, so "eviction pressure" on it is
    /// exactly an ownership flip: a *different* PC hashing onto a slot
    /// another PC was just using.
    pdpt_shadow: Vec<u32>,
    /// Ownership flips counted through `pdpt_shadow`.
    pdpt_evict_pressure: u64,
}

impl L1dCache {
    /// Build a cache around a replacement policy. The policy must have
    /// been constructed for `cfg.geom`.
    pub fn new(cfg: L1dConfig, policy: Box<dyn ReplacementPolicy>) -> Self {
        L1dCache {
            tags: TagArray::new(cfg.geom),
            policy,
            mshr: Mshr::new(cfg.mshr_entries, cfg.mshr_merge),
            outgoing: VecDeque::new(),
            pending: Ripening::default(),
            responses: VecDeque::new(),
            pipeline_reg: None,
            stall_memo: None,
            seen_lines: LineSet::default(),
            observer: None,
            stats: CacheStats::default(),
            insn_id_wraps: 0,
            pdpt_shadow: vec![u32::MAX; PDPT_ENTRIES],
            pdpt_evict_pressure: 0,
            cfg,
        }
    }

    /// Attach an access observer (reuse-distance profiling).
    pub fn set_observer(&mut self, obs: Box<dyn AccessObserver>) {
        self.observer = Some(obs);
    }

    /// Is the input blocked by a stalled access?
    pub fn input_blocked(&self) -> bool {
        self.pipeline_reg.is_some()
    }

    /// Present a new transaction. Returns `Ok(false)` (and leaves the
    /// transaction with the caller) if the pipeline register is occupied
    /// by a stalled access — the §2 blocking behaviour. An `Err` means
    /// the cache's own structural state is corrupt (bad MSHR merge).
    ///
    /// A refused submit changes nothing a retry reads; an accepted one
    /// finds no parked access and so no stall memo.
    pub fn submit(&mut self, mut req: MemReq, cycle: u64) -> Result<bool, MemError> {
        if self.pipeline_reg.is_some() {
            self.stats.rejected_submits += 1;
            return Ok(false);
        }
        debug_assert!(self.stall_memo.is_none(), "stall memo without a parked access");
        req.born = cycle;
        if let Outcome::Stalled(memo) = self.process(req, true, cycle)? {
            self.pipeline_reg = Some(req);
            self.stall_memo = Some(memo);
        }
        Ok(true)
    }

    /// Advance one core cycle: retry the stalled access (if any) and
    /// ripen pending responses. While the stall memo holds, the retry
    /// is replayed from it instead of run.
    pub fn cycle(&mut self, cycle: u64) -> Result<(), MemError> {
        if let Some(memo) = self.stall_memo {
            self.replay_stalls(memo, 1);
        } else if let Some(req) = self.pipeline_reg.take() {
            self.stats.stall_cycles += 1;
            if let Outcome::Stalled(memo) = self.process(req, false, cycle)? {
                self.pipeline_reg = Some(req);
                self.stall_memo = Some(memo);
            }
        }
        while let Some(resp) = self.pending.pop_ripe(cycle) {
            self.responses.push_back(resp);
        }
        Ok(())
    }

    /// A reply arrived from the interconnect. Fails with a typed error
    /// (instead of panicking) when the reply matches no outstanding
    /// fetch — the symptom of a duplicated or misrouted packet.
    pub fn on_reply(&mut self, pkt: Packet, cycle: u64) -> Result<(), MemError> {
        self.stall_memo = None;
        let line = self.cfg.geom.line_addr(pkt.addr);
        match pkt.kind {
            PacketKind::ReadReply => {
                let mut entry =
                    self.mshr.complete(line).ok_or(MemError::MshrMissingFill { line })?;
                if let Some((set, way)) = entry.target {
                    let dirty = entry.reqs.iter().any(|r| r.is_write);
                    self.tags.fill(set, way, dirty);
                    let first = entry.reqs[0];
                    let ctx = AccessCtx { insn_id: hash_pc(first.pc), is_write: first.is_write };
                    self.policy.on_fill(set, way, self.cfg.geom.tag_of_line(line), &ctx);
                }
                for req in entry.reqs.drain(..) {
                    self.schedule_resp(req, cycle + 1);
                }
                self.mshr.recycle(entry.reqs);
                Ok(())
            }
            PacketKind::BypassReadReply => {
                // Reply to a bypassed load: route straight to the requester.
                self.schedule_resp(pkt.req, cycle + 1);
                Ok(())
            }
            other => Err(MemError::UnexpectedPacket { kind: other }),
        }
    }

    /// Next packet bound for the interconnect, if any.
    pub fn peek_outgoing(&self) -> Option<&Packet> {
        self.outgoing.front()
    }

    /// Remove the packet returned by [`L1dCache::peek_outgoing`].
    pub fn pop_outgoing(&mut self) -> Option<Packet> {
        self.stall_memo = None;
        self.outgoing.pop_front()
    }

    /// Pop a completed response for the core.
    pub fn pop_response(&mut self) -> Option<MemResp> {
        self.responses.pop_front()
    }

    /// Cache counters so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Policy-internal counters.
    pub fn policy_stats(&self) -> dlp_core::PolicyStats {
        self.policy.stats()
    }

    /// Accesses whose PC overflowed the 7-bit instruction-id space.
    pub fn insn_id_wraps(&self) -> u64 {
        self.insn_id_wraps
    }

    /// Distinct-PC ownership flips on PDPT slots (see the field docs).
    pub fn pdpt_evict_pressure(&self) -> u64 {
        self.pdpt_evict_pressure
    }

    /// Force the policy's sampling period to close (§4.1.4 instruction
    /// cap for cache-sufficient kernels).
    pub fn force_policy_sample(&mut self) {
        self.stall_memo = None;
        self.policy.force_sample();
    }

    /// The policy driving replacement (diagnostics).
    pub fn policy(&self) -> &dyn ReplacementPolicy {
        self.policy.as_ref()
    }

    /// Outstanding MSHR entries (diagnostics).
    pub fn mshr_occupancy(&self) -> usize {
        self.mshr.occupancy()
    }

    /// Packets queued toward the interconnect (diagnostics).
    pub fn outgoing_len(&self) -> usize {
        self.outgoing.len()
    }

    /// Responses ripening or ready for the core (diagnostics).
    pub fn pending_responses(&self) -> usize {
        self.pending.len() + self.responses.len()
    }

    /// Structural self-check for the runtime invariant auditor: MSHR
    /// integrity, miss-queue bound, and the replacement scheme's own
    /// invariants (for DLP: protected-life counters within the PD cap).
    pub fn audit(&self) -> Result<(), String> {
        self.mshr.audit()?;
        if self.outgoing.len() > self.cfg.miss_queue {
            return Err(format!(
                "miss queue holds {} packets but capacity is {}",
                self.outgoing.len(),
                self.cfg.miss_queue
            ));
        }
        self.policy.audit()
    }

    /// Nothing in flight anywhere in this cache: no stalled access, no
    /// outstanding misses, no queued packets or undelivered responses.
    pub fn quiescent(&self) -> bool {
        self.pipeline_reg.is_none()
            && self.mshr.occupancy() == 0
            && self.outgoing.is_empty()
            && self.pending.is_empty()
            && self.responses.is_empty()
    }

    /// Ready cycle of the earliest ripening response, if any. One input
    /// to the owning SM's cycle-leap `next_event` bound.
    pub fn next_pending_ready(&self) -> Option<u64> {
        self.pending.next_ready()
    }

    /// Are responses already ripe and waiting for the core to pop?
    pub fn has_ready_responses(&self) -> bool {
        !self.responses.is_empty()
    }

    /// Must the parked access's next retry really run? True when an
    /// access is parked but its stall memo was dropped: something it
    /// reads changed, so the retry may make progress and the next cycle
    /// is an event. With a memo the retry provably stalls again.
    pub fn retry_must_run(&self) -> bool {
        self.pipeline_reg.is_some() && self.stall_memo.is_none()
    }

    /// Replay `skipped` provably-no-op cycles arithmetically after a
    /// leap. The only L1D state a dead-time tick mutates is the aging
    /// counters: each skipped cycle would have replayed the parked
    /// access's stall memo and — when the LD/ST queue had a transaction
    /// waiting behind it (`submits_pending`) — refused one submit.
    pub fn leap_catchup(&mut self, skipped: u64, submits_pending: bool) {
        debug_assert!(self.outgoing.is_empty(), "leapt while packets waited for the interconnect");
        let Some(memo) = self.stall_memo else {
            debug_assert!(self.pipeline_reg.is_none(), "leapt across a retry that had to run");
            return;
        };
        self.replay_stalls(memo, skipped);
        if submits_pending {
            self.stats.rejected_submits += skipped;
        }
    }

    /// Bump what `n` retries stalling as `memo` bump.
    fn replay_stalls(&mut self, memo: StallMemo, n: u64) {
        self.stats.stall_cycles += n;
        if let Some(decision) = self.count_stalls(memo, n) {
            self.policy.repeat_decision(decision, n);
        }
    }

    /// Count `n` stalls of `memo`'s kind; returns the replacement
    /// decision each of them made, if any.
    fn count_stalls(&mut self, memo: StallMemo, n: u64) -> Option<MissDecision> {
        let (counter, decision) = match memo {
            StallMemo::MergeFull => (&mut self.stats.stall_merge_full, None),
            StallMemo::MshrFull => (&mut self.stats.stall_mshr_full, None),
            StallMemo::AllReserved => {
                (&mut self.stats.stall_all_reserved, Some(MissDecision::Stall))
            }
            StallMemo::MissQueue(decision) => (&mut self.stats.stall_miss_queue, decision),
        };
        *counter += n;
        decision
    }

    /// State-only access for sampling-mode fast-forward: the full
    /// policy-visible protocol of [`Self::process`] (query, hit/miss,
    /// eviction, bypass, fill) with the *timing* collapsed — fills
    /// complete instantly, so no MSHR entry, miss-queue packet, or
    /// pipeline stall ever forms. `effects` receives the L2-bound
    /// traffic as `(addr, is_write)` so the caller can keep partition
    /// state warm; `respond` pushes an immediate response for callers
    /// whose warps are scoreboard-blocked on it (the window-edge drain).
    ///
    /// Latency statistics (`load_latency_sum`/`load_count`, stall
    /// counters) are untouched: latency is only meaningful inside
    /// detailed windows.
    pub fn access_functional(
        &mut self,
        req: MemReq,
        first_attempt: bool,
        respond: bool,
        effects: &mut Vec<(u64, bool)>,
    ) {
        debug_assert_eq!(
            self.mshr.occupancy(),
            0,
            "functional access with in-flight detailed misses — drain first"
        );
        self.stall_memo = None;
        let line = self.cfg.geom.line_addr(req.addr);
        let (set, tag) = (self.cfg.geom.set_of_line(line), self.cfg.geom.tag_of_line(line));
        let ctx = AccessCtx { insn_id: hash_pc(req.pc), is_write: req.is_write };
        if first_attempt {
            self.first_access(&req, line, set, &ctx);
        }
        if !self.hit(set, tag, &ctx) {
            if first_attempt {
                self.policy.on_miss(set, tag, &ctx);
            }
            let views = self.tags.view_set(set);
            match self.policy.decide_replacement(set, views, &ctx) {
                MissDecision::Allocate { way } => {
                    if let Some(wb_addr) = self.evict_victim(set, way, tag) {
                        effects.push((wb_addr, true));
                    }
                    // The fetch completes instantly: fill now, as the
                    // detailed path's on_reply would.
                    self.tags.fill(set, way, req.is_write);
                    self.policy.on_fill(set, way, tag, &ctx);
                    self.stats.misses_allocated += 1;
                    effects.push((req.addr, false));
                }
                MissDecision::Bypass => {
                    self.policy.on_bypass(set, tag, &ctx);
                    self.count_bypass(req.is_write);
                    effects.push((req.addr, req.is_write));
                }
                MissDecision::Stall => {
                    // Unreachable functionally: instant fills mean no way
                    // is ever left reserved for a policy to stall on.
                    debug_assert!(false, "policy stalled a functional access");
                }
            }
        }
        if respond {
            self.responses.push_back(MemResp { req });
        }
    }

    /// Window-edge drain for sampling mode: flush every ripening
    /// response to the core regardless of ready cycle and resolve the
    /// parked access functionally. Must run *after* all outstanding
    /// fills were answered (the MSHR is empty), so afterwards the cache
    /// is [`Self::quiescent`] once the outgoing queue is consumed.
    pub fn drain_functional(&mut self, effects: &mut Vec<(u64, bool)>) {
        self.responses.extend(std::iter::from_fn(|| self.pending.pop()));
        self.stall_memo = None;
        if let Some(req) = self.pipeline_reg.take() {
            // The parked access already paid its first-attempt
            // accounting (access count, observer, policy query/miss)
            // when it was submitted in the detailed window.
            self.access_functional(req, false, true, effects);
        }
    }

    fn schedule_resp(&mut self, req: MemReq, ready: u64) {
        if !req.is_write {
            self.stats.load_latency_sum += ready.saturating_sub(req.born);
            self.stats.load_count += 1;
        }
        self.pending.push(ready, MemResp { req });
    }

    /// First-attempt accounting, shared by both access paths: access and
    /// compulsory-miss counts, instruction-id bookkeeping, the observer
    /// and the policy's query. Retries of a parked access skip it.
    #[inline(always)]
    fn first_access(&mut self, req: &MemReq, line: u64, set: usize, ctx: &AccessCtx) {
        self.stats.accesses += 1;
        if pc_wraps(req.pc) {
            self.insn_id_wraps += 1;
        }
        let slot = &mut self.pdpt_shadow[ctx.insn_id as usize];
        if *slot != req.pc {
            if *slot != u32::MAX {
                self.pdpt_evict_pressure += 1;
            }
            *slot = req.pc;
        }
        if self.seen_lines.insert(line) {
            self.stats.compulsory_misses += 1;
        }
        if let Some(obs) = self.observer.as_mut() {
            obs.on_access(set, line, req.pc, req.is_write);
        }
        self.policy.on_query(set);
    }

    /// The hit check, shared by both access paths: on a hit, train the
    /// policy, count it, dirty the line for a store and return true.
    #[inline]
    fn hit(&mut self, set: usize, tag: u64, ctx: &AccessCtx) -> bool {
        let Lookup::Hit { way } = self.tags.lookup(set, tag) else { return false };
        self.policy.on_hit(set, way, ctx);
        self.stats.hits += 1;
        if ctx.is_write {
            self.tags.mark_dirty(set, way);
        }
        true
    }

    /// Reserve `way` of `set` for `tag`, shared by both access paths:
    /// evict the line there, tell the policy and count the eviction.
    /// Returns the address a dirty victim must be written back to.
    #[inline]
    fn evict_victim(&mut self, set: usize, way: usize, tag: u64) -> Option<u64> {
        let old = self.tags.evict_and_reserve(set, way, tag)?;
        self.policy.on_evict(set, way, old.tag);
        self.stats.evictions += 1;
        if !old.dirty {
            return None;
        }
        self.stats.dirty_evictions += 1;
        Some(old.tag * self.cfg.geom.line_bytes)
    }

    fn miss_queue_free(&self) -> usize {
        self.cfg.miss_queue.saturating_sub(self.outgoing.len())
    }

    fn push_packet(&mut self, kind: PacketKind, addr: u64, req: MemReq) {
        debug_assert!(self.outgoing.len() < self.cfg.miss_queue);
        self.outgoing.push_back(Packet { kind, addr, req });
    }

    /// Bypass `req` around the cache. Caller checked miss-queue space.
    fn do_bypass(&mut self, req: MemReq, cycle: u64) {
        self.count_bypass(req.is_write);
        if req.is_write {
            self.push_packet(PacketKind::WriteThrough, req.addr, req);
            // The store retires as soon as it is on its way to L2.
            self.schedule_resp(req, cycle + 1);
        } else {
            self.push_packet(PacketKind::BypassReadReq, req.addr, req);
        }
    }

    /// Count a bypass, shared by both access paths: a store written
    /// through, or a load fetched around the cache.
    #[inline]
    fn count_bypass(&mut self, is_write: bool) {
        if is_write {
            self.stats.bypassed_stores += 1;
        } else {
            self.stats.bypassed_loads += 1;
            self.stats.bypass_fetches += 1;
        }
    }

    fn process(
        &mut self,
        req: MemReq,
        first_attempt: bool,
        cycle: u64,
    ) -> Result<Outcome, MemError> {
        let line = self.cfg.geom.line_addr(req.addr);
        let (set, tag) = (self.cfg.geom.set_of_line(line), self.cfg.geom.tag_of_line(line));
        let ctx = AccessCtx { insn_id: hash_pc(req.pc), is_write: req.is_write };
        if first_attempt {
            self.first_access(&req, line, set, &ctx);
        }

        // 1. Hit check.
        if self.hit(set, tag, &ctx) {
            self.schedule_resp(req, cycle + self.cfg.hit_latency);
            return Ok(Outcome::Consumed);
        }

        // 2. MSHR probe (covers the Reserved lookup state).
        match self.mshr.probe(line) {
            MshrLookup::Merged => {
                if first_attempt {
                    self.policy.on_miss(set, tag, &ctx);
                }
                if self.mshr.is_bypass(line) {
                    if req.is_write {
                        // A store cannot ride a no-fill fetch (its data
                        // would be dropped): write it through instead.
                        return if self.miss_queue_free() >= 1 {
                            self.do_bypass(req, cycle);
                            Ok(Outcome::Consumed)
                        } else {
                            Ok(self.stall(StallMemo::MissQueue(None)))
                        };
                    }
                    self.mshr.merge(line, req)?;
                    self.stats.bypassed_loads += 1;
                } else {
                    self.mshr.merge(line, req)?;
                    self.stats.mshr_merges += 1;
                }
                return Ok(Outcome::Consumed);
            }
            MshrLookup::MergeFull => {
                return Ok(self.stall(StallMemo::MergeFull));
            }
            MshrLookup::Full => {
                if first_attempt {
                    self.policy.on_miss(set, tag, &ctx);
                }
                // Cannot track a new line. Stall-Bypass sidesteps the
                // MSHR entirely; everyone else waits.
                return if self.policy.bypass_on_stall() && self.miss_queue_free() >= 1 {
                    self.do_bypass(req, cycle);
                    Ok(Outcome::Consumed)
                } else {
                    Ok(self.stall(StallMemo::MshrFull))
                };
            }
            MshrLookup::Absent => {}
        }

        if first_attempt {
            self.policy.on_miss(set, tag, &ctx);
        }

        // 3. Line reservation via the policy. The views live in the tag
        // array's scratch buffer — no allocation on the access path.
        let views = self.tags.view_set(set);
        let decision = self.policy.decide_replacement(set, views, &ctx);
        match decision {
            MissDecision::Allocate { way } => {
                let victim = self.tags.line(set, way);
                let needed = 1 + (victim.valid && victim.dirty) as usize;
                if self.miss_queue_free() < needed {
                    return if self.policy.bypass_on_stall() && self.miss_queue_free() >= 1 {
                        self.do_bypass(req, cycle);
                        Ok(Outcome::Consumed)
                    } else {
                        Ok(self.stall(StallMemo::MissQueue(Some(decision))))
                    };
                }
                if let Some(wb_addr) = self.evict_victim(set, way, tag) {
                    self.push_packet(PacketKind::Writeback, wb_addr, MemReq {
                        id: 0,
                        addr: wb_addr,
                        is_write: true,
                        pc: 0,
                        sm: req.sm,
                        warp: 0,
                        dst_reg: 0,
                        born: cycle,
                    });
                }
                self.mshr.allocate(line, Some((set, way)), req);
                self.push_packet(PacketKind::ReadReq, req.addr, req);
                self.stats.misses_allocated += 1;
                Ok(Outcome::Consumed)
            }
            MissDecision::Bypass => {
                if self.miss_queue_free() < 1 {
                    return Ok(self.stall(StallMemo::MissQueue(Some(decision))));
                }
                // The line will never enter the TDA: let the policy
                // restore the victim tag its on_miss probe consumed.
                self.policy.on_bypass(set, tag, &ctx);
                if req.is_write {
                    self.do_bypass(req, cycle);
                } else {
                    // Track the bypassed fetch in the MSHR without a
                    // fill target: redundant misses to the line merge
                    // into it instead of multiplying interconnect
                    // traffic, but no cache line is reserved or filled
                    // (see DESIGN.md "bypass tracking").
                    self.mshr.allocate(line, None, req);
                    self.push_packet(PacketKind::ReadReq, req.addr, req);
                    self.count_bypass(false);
                }
                Ok(Outcome::Consumed)
            }
            MissDecision::Stall => Ok(self.stall(StallMemo::AllReserved)),
        }
    }

    /// Count one stall of `memo`'s kind and park the access. The retry
    /// already made its decision, and the policy counted it.
    fn stall(&mut self, memo: StallMemo) -> Outcome {
        self.count_stalls(memo, 1);
        Outcome::Stalled(memo)
    }
}

/// Lines per page of a [`LineSet`]: one 64-byte bitmap each.
const PAGE_LINES: u64 = 512;

/// A set of line addresses, as presence bitmaps of aligned
/// [`PAGE_LINES`]-line pages found through a map, with a memo of the
/// bitmap used last. Consecutive accesses mostly fall in one page, so
/// most inserts set a bit without hashing.
#[derive(Default)]
struct LineSet {
    /// Page number → index of its bitmap in `bitmaps`.
    pages: HashMap<u64, usize, LineHash>,
    /// Each page's number and bitmap.
    bitmaps: Vec<(u64, [u64; 8])>,
    /// Index of the bitmap used last.
    last: usize,
}

impl LineSet {
    /// Add `line`; true if it was not in the set.
    fn insert(&mut self, line: u64) -> bool {
        let page = line / PAGE_LINES;
        if self.bitmaps.get(self.last).is_none_or(|(p, _)| *p != page) {
            let next = self.bitmaps.len();
            self.last = *self.pages.entry(page).or_insert(next);
            if self.last == next {
                self.bitmaps.push((page, [0; 8]));
            }
        }
        let word = &mut self.bitmaps[self.last].1[((line % PAGE_LINES) / 64) as usize];
        let bit = 1 << (line % 64);
        let new = *word & bit == 0;
        *word |= bit;
        new
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlp_core::{build_policy, PolicyKind};

    #[test]
    fn line_set_matches_a_hash_set() {
        let mut x: u64 = 0x5eed;
        let mut next = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 20
        };
        let mut lines: Vec<u64> = (0..20_000).map(|_| next() % 50_000).collect();
        lines.extend((0..20_000).map(|_| next()));
        for stride in [1, 7, 64, 511, 512, 513, 4096] {
            lines.extend((0..3_000u64).map(|i| 1_000_000 + i * stride));
        }
        lines.extend([0, u64::MAX, u64::MAX - 1, 511, 512, u64::MAX, 0]);
        let (mut set, mut reference) = (LineSet::default(), std::collections::HashSet::new());
        for &line in &lines {
            assert_eq!(set.insert(line), reference.insert(line), "line {line}");
        }
    }

    fn cache(kind: PolicyKind) -> L1dCache {
        let cfg = L1dConfig::fermi_baseline();
        L1dCache::new(cfg, build_policy(kind, cfg.geom))
    }

    fn load(id: u64, addr: u64, pc: u32) -> MemReq {
        MemReq { id, addr, is_write: false, pc, sm: 0, warp: 0, dst_reg: 0, born: 0 }
    }

    fn store(id: u64, addr: u64, pc: u32) -> MemReq {
        MemReq { is_write: true, ..load(id, addr, pc) }
    }

    /// Drive `n` cycles, collecting responses.
    fn run(c: &mut L1dCache, from: u64, n: u64) -> Vec<MemResp> {
        let mut out = Vec::new();
        for cyc in from..from + n {
            c.cycle(cyc).unwrap();
            while let Some(r) = c.pop_response() {
                out.push(r);
            }
        }
        out
    }

    /// Serve every outgoing read with a reply at `cycle`.
    fn serve_memory(c: &mut L1dCache, cycle: u64) -> usize {
        let mut served = 0;
        while let Some(pkt) = c.pop_outgoing() {
            let reply = match pkt.kind {
                PacketKind::ReadReq => PacketKind::ReadReply,
                PacketKind::BypassReadReq => PacketKind::BypassReadReply,
                _ => continue,
            };
            c.on_reply(Packet { kind: reply, ..pkt }, cycle).unwrap();
            served += 1;
        }
        served
    }

    #[test]
    fn cold_miss_fetches_then_hits() {
        let mut c = cache(PolicyKind::Baseline);
        assert!(c.submit(load(1, 0x1000, 4), 0).unwrap());
        assert_eq!(c.stats().misses_allocated, 1);
        assert_eq!(c.stats().compulsory_misses, 1);
        assert_eq!(serve_memory(&mut c, 5), 1);
        let resps = run(&mut c, 6, 4);
        assert_eq!(resps.len(), 1);
        assert_eq!(resps[0].req.id, 1);

        // Second access to the same line hits.
        assert!(c.submit(load(2, 0x1000 + 64, 4), 10).unwrap());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().compulsory_misses, 1, "same line is not compulsory twice");
        let resps = run(&mut c, 11, 10);
        assert_eq!(resps.len(), 1);
        assert_eq!(resps[0].req.id, 2);
    }

    #[test]
    fn misses_to_same_line_merge_in_mshr() {
        let mut c = cache(PolicyKind::Baseline);
        assert!(c.submit(load(1, 0x2000, 4), 0).unwrap());
        assert!(c.submit(load(2, 0x2000, 8), 1).unwrap());
        assert_eq!(c.stats().mshr_merges, 1);
        assert_eq!(c.stats().misses_allocated, 1);
        // Only one fetch goes out.
        assert_eq!(c.pop_outgoing().map(|p| p.kind), Some(PacketKind::ReadReq));
        assert!(c.pop_outgoing().is_none());
        // The fill answers both.
        c.on_reply(
            Packet { kind: PacketKind::ReadReply, addr: 0x2000, req: load(1, 0x2000, 4) },
            5,
        )
        .unwrap();
        let resps = run(&mut c, 6, 3);
        assert_eq!(resps.len(), 2);
    }

    #[test]
    fn store_hit_dirties_line_and_eviction_writes_back() {
        let mut c = cache(PolicyKind::Baseline);
        let geom = CacheGeometry::fermi_l1d_16k();
        // Fill a line, dirty it with a store hit.
        assert!(c.submit(load(1, 0x3000, 4), 0).unwrap());
        serve_memory(&mut c, 2);
        run(&mut c, 3, 3);
        assert!(c.submit(store(2, 0x3000, 5), 6).unwrap());
        assert_eq!(c.stats().hits, 1);

        // Now force eviction of that line: fill the set with 4 more
        // lines mapping to the same set.
        let (set0, _) = geom.locate(0x3000);
        let mut filled = 0;
        let mut candidate = 0x3000u64 + 128;
        let mut cyc = 10;
        while filled < 4 {
            let (s, _) = geom.locate(candidate);
            if s == set0 {
                assert!(c.submit(load(100 + filled, candidate, 4), cyc).unwrap());
                serve_memory(&mut c, cyc + 1);
                run(&mut c, cyc + 1, 3);
                filled += 1;
                cyc += 5;
            }
            candidate += 128;
        }
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn baseline_stalls_when_all_ways_reserved() {
        let mut c = cache(PolicyKind::Baseline);
        let geom = CacheGeometry::fermi_l1d_16k();
        // Issue 4 misses to the same set (all ways reserved), then a 5th
        // miss to that set must stall the pipeline register.
        let (set0, _) = geom.locate(0);
        let mut addrs = Vec::new();
        let mut candidate = 0u64;
        while addrs.len() < 5 {
            let (s, _) = geom.locate(candidate);
            if s == set0 {
                addrs.push(candidate);
            }
            candidate += 128;
        }
        for (i, &a) in addrs[..4].iter().enumerate() {
            assert!(c.submit(load(i as u64, a, 4), i as u64).unwrap());
        }
        assert_eq!(c.stats().misses_allocated, 4);
        assert!(c.submit(load(99, addrs[4], 4), 10).unwrap(), "submit accepts, then stalls internally");
        assert!(c.input_blocked());
        // Younger accesses are rejected while stalled.
        assert!(!c.submit(load(100, 0x9999 * 128, 4), 11).unwrap());
        assert_eq!(c.stats().rejected_submits, 1);
        // Retry burns stall cycles.
        c.cycle(12).unwrap();
        c.cycle(13).unwrap();
        assert!(c.stats().stall_cycles >= 2);
        // A fill frees a way; the stalled access then allocates it.
        serve_memory(&mut c, 14);
        c.cycle(15).unwrap();
        assert!(!c.input_blocked());
        assert_eq!(c.stats().misses_allocated, 5);
    }

    #[test]
    fn stall_bypass_bypasses_instead_of_stalling() {
        let mut c = cache(PolicyKind::StallBypass);
        let geom = CacheGeometry::fermi_l1d_16k();
        let (set0, _) = geom.locate(0);
        let mut addrs = Vec::new();
        let mut candidate = 0u64;
        while addrs.len() < 5 {
            let (s, _) = geom.locate(candidate);
            if s == set0 {
                addrs.push(candidate);
            }
            candidate += 128;
        }
        for (i, &a) in addrs[..4].iter().enumerate() {
            assert!(c.submit(load(i as u64, a, 4), i as u64).unwrap());
        }
        assert!(c.submit(load(99, addrs[4], 4), 10).unwrap());
        assert!(!c.input_blocked(), "Stall-Bypass must not block");
        assert_eq!(c.stats().bypassed_loads, 1);
        // The bypassed fetch is MSHR-tracked (no fill target); its reply
        // routes to the requester without filling a line.
        let valid_before = c.tags.valid_count();
        serve_memory(&mut c, 20);
        let resps = run(&mut c, 21, 3);
        assert_eq!(resps.len(), 5);
        assert!(resps.iter().any(|r| r.req.id == 99));
        assert_eq!(c.tags.valid_count(), valid_before + 4, "bypassed line must not fill");
    }

    #[test]
    fn bypassed_store_is_write_through() {
        let mut c = cache(PolicyKind::StallBypass);
        let geom = CacheGeometry::fermi_l1d_16k();
        let (set0, _) = geom.locate(0);
        let mut addrs = Vec::new();
        let mut candidate = 0u64;
        while addrs.len() < 5 {
            let (s, _) = geom.locate(candidate);
            if s == set0 {
                addrs.push(candidate);
            }
            candidate += 128;
        }
        for (i, &a) in addrs[..4].iter().enumerate() {
            assert!(c.submit(load(i as u64, a, 4), i as u64).unwrap());
        }
        assert!(c.submit(store(99, addrs[4], 4), 10).unwrap());
        assert_eq!(c.stats().bypassed_stores, 1);
        // Store retires without a memory round trip.
        let resps = run(&mut c, 11, 3);
        assert_eq!(resps.len(), 1);
        assert_eq!(resps[0].req.id, 99);
    }

    #[test]
    fn full_miss_queue_stalls_baseline() {
        let mut c = L1dCache::new(
            L1dConfig { miss_queue: 2, ..L1dConfig::fermi_baseline() },
            build_policy(PolicyKind::Baseline, CacheGeometry::fermi_l1d_16k()),
        );
        // Two misses fill the queue (never drained), third stalls.
        assert!(c.submit(load(1, 0, 4), 0).unwrap());
        assert!(c.submit(load(2, 128 * 1000, 4), 1).unwrap());
        assert!(c.submit(load(3, 128 * 2000, 4), 2).unwrap());
        assert!(c.input_blocked());
        // Draining the queue lets the retry through.
        c.pop_outgoing();
        c.cycle(3).unwrap();
        assert!(!c.input_blocked());
        assert_eq!(c.stats().misses_allocated, 3);
    }

    #[test]
    fn mshr_full_stalls_baseline_but_bypasses_sb() {
        let mk = |kind| {
            L1dCache::new(
                L1dConfig { mshr_entries: 2, miss_queue: 64, ..L1dConfig::fermi_baseline() },
                build_policy(kind, CacheGeometry::fermi_l1d_16k()),
            )
        };
        let mut base = mk(PolicyKind::Baseline);
        let mut sb = mk(PolicyKind::StallBypass);
        for (i, c) in [&mut base, &mut sb].into_iter().enumerate() {
            let _ = i;
            assert!(c.submit(load(1, 0, 4), 0).unwrap());
            assert!(c.submit(load(2, 128 * 1000, 4), 1).unwrap());
            assert!(c.submit(load(3, 128 * 2000, 4), 2).unwrap());
        }
        assert!(base.input_blocked());
        assert!(!sb.input_blocked());
        assert_eq!(sb.stats().bypassed_loads, 1);
    }

    #[test]
    fn observer_sees_each_access_once_despite_stalls() {
        use crate::observer::CountingObserver;
        let mut c = L1dCache::new(
            L1dConfig { miss_queue: 1, ..L1dConfig::fermi_baseline() },
            build_policy(PolicyKind::Baseline, CacheGeometry::fermi_l1d_16k()),
        );
        c.set_observer(Box::new(CountingObserver::default()));
        assert!(c.submit(load(1, 0, 4), 0).unwrap());
        assert!(c.submit(load(2, 128 * 1000, 4), 1).unwrap()); // stalls: queue full
        assert!(c.input_blocked());
        for cyc in 2..6 {
            c.cycle(cyc).unwrap(); // retries do not re-observe
        }
        assert_eq!(c.stats().accesses, 2);
        // Two accesses -> the policy saw exactly two queries too.
        assert_eq!(c.policy_stats().queries, 2);
    }

    #[test]
    fn orphan_or_malformed_replies_yield_typed_errors() {
        let mut c = cache(PolicyKind::Baseline);
        // A fill with no matching MSHR entry (e.g. a duplicated packet).
        let err = c
            .on_reply(Packet { kind: PacketKind::ReadReply, addr: 0x7000, req: load(1, 0x7000, 4) }, 3)
            .unwrap_err();
        assert_eq!(err, MemError::MshrMissingFill { line: 0x7000 >> 7 });
        // A packet kind the L1D can never consume.
        let err = c
            .on_reply(Packet { kind: PacketKind::Writeback, addr: 0x7000, req: load(1, 0x7000, 4) }, 4)
            .unwrap_err();
        assert_eq!(err, MemError::UnexpectedPacket { kind: PacketKind::Writeback });
        // Neither corrupted the cache: a normal access still works.
        assert!(c.submit(load(2, 0x8000, 4), 5).unwrap());
        assert_eq!(c.audit(), Ok(()));
    }

    /// Addresses of distinct lines all mapping to the set of address 0.
    fn same_set_addrs(n: usize) -> Vec<u64> {
        let geom = CacheGeometry::fermi_l1d_16k();
        let (set0, _) = geom.locate(0);
        let mut addrs = Vec::new();
        let mut candidate = 0u64;
        while addrs.len() < n {
            let (s, _) = geom.locate(candidate);
            if s == set0 {
                addrs.push(candidate);
            }
            candidate += 128;
        }
        addrs
    }

    /// Two copies of a stalled cache: tick one `n` cycles on its stall
    /// memo, and force a real retry every cycle on the other. Each real
    /// retry must stall exactly as memoized, and both copies must end
    /// with the same counters. Returns the memoized copy.
    fn assert_memo_matches_real_retries(
        mk: impl Fn() -> L1dCache,
        expect: StallMemo,
        n: u64,
    ) -> L1dCache {
        let (mut memo, mut real) = (mk(), mk());
        assert_eq!(memo.stall_memo, Some(expect));
        let class_count = |c: &L1dCache| match expect {
            StallMemo::MergeFull => c.stats().stall_merge_full,
            StallMemo::MshrFull => c.stats().stall_mshr_full,
            StallMemo::AllReserved => c.stats().stall_all_reserved,
            StallMemo::MissQueue(_) => c.stats().stall_miss_queue,
        };
        let before = (class_count(&memo), memo.stats().stall_cycles);
        for cyc in 100..100 + n {
            memo.cycle(cyc).unwrap();
            real.stall_memo = None;
            real.cycle(cyc).unwrap();
            assert_eq!(real.stall_memo, Some(expect), "a real retry stalled differently");
        }
        assert_eq!((class_count(&memo), memo.stats().stall_cycles), (before.0 + n, before.1 + n));
        assert_eq!(memo.stats(), real.stats());
        assert_eq!(memo.policy_stats(), real.policy_stats());
        assert!(!memo.retry_must_run());
        memo
    }

    #[test]
    fn stall_memo_replays_all_reserved_under_lru() {
        let addrs = same_set_addrs(5);
        let mk = || {
            let mut c = cache(PolicyKind::Baseline);
            for (i, &a) in addrs[..4].iter().enumerate() {
                assert!(c.submit(load(i as u64, a, 4), i as u64).unwrap());
            }
            for _ in 0..4 {
                c.pop_outgoing();
            }
            assert!(c.submit(load(99, addrs[4], 4), 10).unwrap());
            c
        };
        let mut c = assert_memo_matches_real_retries(mk, StallMemo::AllReserved, 23);
        // A fill frees a way: the memo is gone and the next retry lands.
        c.on_reply(
            Packet { kind: PacketKind::ReadReply, addr: addrs[0], req: load(0, addrs[0], 4) },
            200,
        )
        .unwrap();
        assert!(c.retry_must_run());
        c.cycle(201).unwrap();
        assert!(!c.input_blocked());
        assert_eq!(c.stats().misses_allocated, 5);
    }

    #[test]
    fn stall_memo_covers_merge_full_and_mshr_full() {
        let small = |mshr_entries, mshr_merge| {
            L1dCache::new(
                L1dConfig { mshr_entries, mshr_merge, miss_queue: 64, ..L1dConfig::fermi_baseline() },
                build_policy(PolicyKind::Baseline, CacheGeometry::fermi_l1d_16k()),
            )
        };
        let fill0 = Packet { kind: PacketKind::ReadReply, addr: 0, req: load(1, 0, 4) };
        // Same line again: the single-slot merge list is full. The fill
        // turns the retry into a hit.
        let mk = || {
            let mut c = small(4, 1);
            assert!(c.submit(load(1, 0, 4), 0).unwrap());
            assert!(c.submit(load(2, 0, 4), 1).unwrap());
            c
        };
        let mut c = assert_memo_matches_real_retries(mk, StallMemo::MergeFull, 17);
        c.on_reply(fill0, 200).unwrap();
        assert!(c.retry_must_run());
        c.cycle(201).unwrap();
        assert!(!c.input_blocked());
        assert_eq!(c.stats().hits, 1);
        // A different line with the one MSHR entry taken: the fill frees
        // the entry and the retry allocates it.
        let mk = || {
            let mut c = small(1, 4);
            assert!(c.submit(load(1, 0, 4), 0).unwrap());
            assert!(c.submit(load(2, 128 * 1000, 4), 1).unwrap());
            c
        };
        let mut c = assert_memo_matches_real_retries(mk, StallMemo::MshrFull, 17);
        c.on_reply(fill0, 200).unwrap();
        assert!(c.retry_must_run());
        c.cycle(201).unwrap();
        assert!(!c.input_blocked());
        assert_eq!(c.stats().misses_allocated, 2);
    }

    #[test]
    fn stall_memo_covers_miss_queue_after_allocate_and_after_bypass() {
        // Baseline: the second miss is given a way, but the one-slot
        // miss queue still holds the first fetch.
        let mk = || {
            let mut c = L1dCache::new(
                L1dConfig { miss_queue: 1, ..L1dConfig::fermi_baseline() },
                build_policy(PolicyKind::Baseline, CacheGeometry::fermi_l1d_16k()),
            );
            assert!(c.submit(load(1, 0, 4), 0).unwrap());
            assert!(c.submit(load(2, 128 * 1000, 4), 1).unwrap());
            c
        };
        let expect = match mk().stall_memo {
            Some(m @ StallMemo::MissQueue(Some(MissDecision::Allocate { .. }))) => m,
            other => panic!("expected a miss-queue stall after Allocate, got {other:?}"),
        };
        let mut c = assert_memo_matches_real_retries(mk, expect, 19);
        assert!(c.pop_outgoing().is_some());
        assert!(c.retry_must_run());
        c.cycle(200).unwrap();
        assert!(!c.input_blocked());
        assert_eq!(c.stats().misses_allocated, 2);

        // DLP: four fetches reserve every way of the set and fill the
        // four-slot miss queue, so the fifth miss is bypassed (§4.1.1)
        // and waits for a slot. Every retry repeats the Bypass decision,
        // and each one counts a protected bypass.
        let addrs = same_set_addrs(5);
        let mk = || {
            let mut c = L1dCache::new(
                L1dConfig { miss_queue: 4, ..L1dConfig::fermi_baseline() },
                build_policy(PolicyKind::Dlp, CacheGeometry::fermi_l1d_16k()),
            );
            for (i, &a) in addrs[..4].iter().enumerate() {
                assert!(c.submit(load(i as u64, a, 4), i as u64).unwrap());
            }
            assert!(c.submit(load(99, addrs[4], 4), 10).unwrap());
            c
        };
        let expect = StallMemo::MissQueue(Some(MissDecision::Bypass));
        let mut c = assert_memo_matches_real_retries(mk, expect, 19);
        assert_eq!(c.policy_stats().protected_bypasses, 20);
        assert!(c.pop_outgoing().is_some());
        assert!(c.retry_must_run());
        c.cycle(200).unwrap();
        assert!(!c.input_blocked());
        assert_eq!(c.stats().bypass_fetches, 1);
        assert_eq!(c.policy_stats().protected_bypasses, 21);
    }

    #[test]
    fn every_invalidating_event_forces_a_real_retry() {
        // A miss-queue stall with no fetch outstanding: the first fetch
        // is answered but still sits in the one-slot queue. Functional
        // accesses need an empty MSHR, so this state admits every event.
        let stalled = || {
            let mut c = L1dCache::new(
                L1dConfig { miss_queue: 1, ..L1dConfig::fermi_baseline() },
                build_policy(PolicyKind::Dlp, CacheGeometry::fermi_l1d_16k()),
            );
            assert!(c.submit(load(1, 0, 4), 0).unwrap());
            assert!(c.submit(load(2, 128 * 1000, 4), 1).unwrap());
            c.on_reply(Packet { kind: PacketKind::ReadReply, addr: 0, req: load(1, 0, 4) }, 2)
                .unwrap();
            c.cycle(3).unwrap();
            assert_eq!(c.mshr_occupancy(), 0);
            assert!(c.input_blocked() && !c.retry_must_run());
            c
        };
        let events = ["reply", "pop_outgoing", "policy sample", "functional access", "drain"];
        for what in events {
            let mut c = stalled();
            match what {
                "reply" => {
                    let req = load(7, 64, 4);
                    let pkt = Packet { kind: PacketKind::BypassReadReply, addr: 64, req };
                    c.on_reply(pkt, 4).unwrap();
                }
                "pop_outgoing" => assert!(c.pop_outgoing().is_some()),
                "policy sample" => c.force_policy_sample(),
                "functional access" => {
                    c.access_functional(load(8, 0x9000, 4), true, false, &mut Vec::new())
                }
                _ => c.drain_functional(&mut Vec::new()),
            }
            assert!(c.stall_memo.is_none(), "{what} kept the stall memo");
            c.cycle(5).unwrap();
            // A freed miss-queue slot lets the retry land (a drain has
            // already resolved the access); otherwise the real retry
            // stalls again and memoizes that.
            let unblocked = matches!(what, "pop_outgoing" | "drain");
            assert_eq!(c.input_blocked(), !unblocked, "{what}");
            assert!(!c.retry_must_run(), "{what}");
        }
    }

    #[test]
    fn leap_catchup_matches_ticking_through_the_stall() {
        // Two identical caches with a parked all-reserved access: tick
        // one through N dead cycles, leap the other, compare counters.
        let mk = || {
            let mut c = cache(PolicyKind::Baseline);
            let addrs = same_set_addrs(5);
            for (i, &a) in addrs[..4].iter().enumerate() {
                assert!(c.submit(load(i as u64, a, 4), i as u64).unwrap());
            }
            for _ in 0..4 {
                c.pop_outgoing();
            }
            assert!(c.submit(load(99, addrs[4], 4), 10).unwrap());
            assert!(c.input_blocked());
            c
        };
        let (mut ticked, mut leaped) = (mk(), mk());
        for cyc in 11..11 + 37 {
            ticked.cycle(cyc).unwrap();
        }
        leaped.leap_catchup(37, false);
        assert_eq!(leaped.stats().stall_cycles, ticked.stats().stall_cycles);
        assert_eq!(leaped.stats().stall_all_reserved, ticked.stats().stall_all_reserved);
        assert_eq!(leaped.stats().rejected_submits, ticked.stats().rejected_submits);
        // With a transaction waiting behind the parked one, every dead
        // cycle also burns a rejected submit.
        let (mut ticked, mut leaped) = (mk(), mk());
        for cyc in 11..11 + 21 {
            assert!(!ticked.submit(load(200, 0x4_0000, 4), cyc).unwrap());
            ticked.cycle(cyc).unwrap();
        }
        leaped.leap_catchup(21, true);
        assert_eq!(leaped.stats().rejected_submits, ticked.stats().rejected_submits);
        assert_eq!(leaped.stats().stall_cycles, ticked.stats().stall_cycles);
    }

    #[test]
    fn responses_ripen_in_ready_order() {
        let mut c = cache(PolicyKind::Baseline);
        // Miss at cycle 0, hit at cycle 1: the hit (latency 4) ripens at
        // 5; the fill (arrives at 2) ripens at 3.
        assert!(c.submit(load(1, 0x5000, 4), 0).unwrap());
        serve_memory(&mut c, 2);
        assert!(c.submit(load(2, 0x5000, 4), 10).unwrap());
        let resps = run(&mut c, 3, 20);
        assert_eq!(resps.len(), 2);
        assert_eq!(resps[0].req.id, 1);
        assert_eq!(resps[1].req.id, 2);
    }
}
