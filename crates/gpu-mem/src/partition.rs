//! A memory partition: one L2 slice in front of one GDDR5 channel.
//!
//! Table 1's GPU has 12 partitions; 256-byte address chunks interleave
//! across them. Each partition ejects packets from the interconnect,
//! services them in its L2 slice (64 KB, 8-way, linear index,
//! write-back / write-allocate), and spills misses to the DRAM model.
//! The partition logic runs at the interconnect clock; DRAM advances at
//! the 924 MHz command clock via a fractional accumulator.

use crate::dram::{Dram, DramCmd, DramConfig};
use crate::error::MemError;
use crate::fault::FaultInjector;
use crate::mshr::{Mshr, MshrEntry, MshrLookup};
use crate::packet::{Packet, PacketKind};
use crate::ripen::Ripening;
use crate::stats::CacheStats;
use crate::tag_array::{Lookup, TagArray};
use dlp_core::{AccessCtx, CacheGeometry, LruBaseline, MissDecision, ReplacementPolicy};
use std::collections::VecDeque;

/// Partition parameters.
#[derive(Clone, Copy, Debug)]
pub struct PartitionConfig {
    /// L2 slice geometry (Table 1: 64 sets × 8 ways × 128 B).
    pub l2_geom: CacheGeometry,
    /// Interconnect cycles from an L2 hit to its reply injection.
    pub l2_latency: u64,
    /// Distinct lines the L2 MSHR tracks.
    pub l2_mshr_entries: usize,
    /// Merge capacity per L2 MSHR entry.
    pub l2_mshr_merge: usize,
    /// Input queue depth (packets accepted from the interconnect).
    pub input_queue: usize,
    /// DRAM channel parameters.
    pub dram: DramConfig,
    /// DRAM command-clock numerator (Table 1: 924 MHz)...
    pub dram_clock_khz: u64,
    /// ...relative to the interconnect clock (650 MHz).
    pub icnt_clock_khz: u64,
}

impl PartitionConfig {
    /// The Tesla M2090 memory partition.
    pub fn fermi() -> Self {
        PartitionConfig {
            l2_geom: CacheGeometry::fermi_l2_slice(),
            l2_latency: 120,
            l2_mshr_entries: 64,
            l2_mshr_merge: 16,
            input_queue: 16,
            dram: DramConfig::gddr5(),
            dram_clock_khz: 924_000,
            icnt_clock_khz: 650_000,
        }
    }
}

/// One L2-slice + DRAM-channel pair.
pub struct MemoryPartition {
    cfg: PartitionConfig,
    tags: TagArray,
    policy: LruBaseline,
    mshr: Mshr<Packet>,
    in_queue: VecDeque<Packet>,
    /// [`Dram::commands_started`] when the input head was last refused.
    /// A refused head can only be unblocked by a DRAM command starting
    /// (a bank queue drains) or completing (an MSHR entry or reserved
    /// way frees), so while the count is unchanged and no completion
    /// has retired since, [`Self::cycle`] skips the retry: it would be
    /// refused again. Read completions clear it.
    head_refused_at: Option<u64>,
    /// Replies ripening toward the output port.
    pending: Ripening<Packet>,
    out_queue: VecDeque<Packet>,
    dram: Dram,
    dram_acc: u64,
    /// Interconnect cycle of the last [`MemoryPartition::cycle`] call.
    /// When the caller skips cycling this partition while it is idle,
    /// the gap is caught up arithmetically (DRAM-clock accumulation and
    /// idle DRAM ticks are pure counter advances), keeping skipped runs
    /// byte-identical to fully ticked ones.
    last_now: u64,
    stats: CacheStats,
}

impl MemoryPartition {
    /// Build an idle partition.
    pub fn new(cfg: PartitionConfig) -> Self {
        MemoryPartition {
            tags: TagArray::new(cfg.l2_geom),
            policy: LruBaseline::new(cfg.l2_geom),
            mshr: Mshr::new(cfg.l2_mshr_entries, cfg.l2_mshr_merge),
            in_queue: VecDeque::new(),
            head_refused_at: None,
            pending: Ripening::default(),
            out_queue: VecDeque::new(),
            dram: Dram::new(cfg.dram),
            dram_acc: 0,
            last_now: 0,
            stats: CacheStats::default(),
            cfg,
        }
    }

    /// Room for another packet from the interconnect?
    pub fn can_accept(&self) -> bool {
        self.in_queue.len() < self.cfg.input_queue
    }

    /// Hand over an ejected packet. Caller checked [`Self::can_accept`].
    pub fn enqueue(&mut self, pkt: Packet) {
        assert!(self.can_accept(), "partition input overflow");
        self.in_queue.push_back(pkt);
    }

    /// Next reply bound for the interconnect.
    pub fn pop_reply(&mut self) -> Option<Packet> {
        self.out_queue.pop_front()
    }

    /// Put back a reply the interconnect refused (retried next cycle).
    pub fn unpop_reply(&mut self, pkt: Packet) {
        self.out_queue.push_front(pkt);
    }

    /// All queues drained and DRAM idle?
    pub fn idle(&self) -> bool {
        self.in_queue.is_empty()
            && self.mshr.occupancy() == 0
            && self.pending.is_empty()
            && self.out_queue.is_empty()
            && self.dram.idle()
    }

    /// L2 counters.
    pub fn l2_stats(&self) -> &CacheStats {
        &self.stats
    }

    /// DRAM counters.
    pub fn dram_stats(&self) -> crate::dram::DramStats {
        self.dram.stats()
    }

    /// Attach a fault injector to this partition's DRAM channel
    /// ([`crate::fault::FaultSite::Dram`]).
    pub fn set_dram_fault_injector(&mut self, inj: FaultInjector) {
        self.dram.set_fault_injector(inj);
    }

    /// Packets waiting in the input queue (hang diagnostics).
    pub fn in_queue_len(&self) -> usize {
        self.in_queue.len()
    }

    /// Outstanding L2 MSHR entries (hang diagnostics).
    pub fn l2_mshr_occupancy(&self) -> usize {
        self.mshr.occupancy()
    }

    /// Replies ready for the interconnect (hang diagnostics).
    pub fn out_queue_len(&self) -> usize {
        self.out_queue.len()
    }

    /// Is the DRAM channel idle (hang diagnostics)?
    pub fn dram_idle(&self) -> bool {
        self.dram.idle()
    }

    /// Reply-expecting packets this partition currently holds, in any
    /// stage: input queue, L2 MSHR merge lists, ripening replies, or
    /// the output queue. The reply-conservation auditor sums this
    /// census across partitions.
    pub fn held_reply_packets(&self) -> usize {
        self.in_queue.iter().filter(|p| p.kind.expects_reply()).count()
            + self.mshr.waiters().filter(|p| p.kind.expects_reply()).count()
            + self.pending.len()
            + self.out_queue.len()
    }

    /// Structural self-check for the runtime invariant auditor.
    pub fn audit(&self) -> Result<(), String> {
        self.mshr.audit().map_err(|e| format!("L2 {e}"))?;
        if self.in_queue.len() > self.cfg.input_queue {
            return Err(format!(
                "partition input queue holds {} packets but capacity is {}",
                self.in_queue.len(),
                self.cfg.input_queue
            ));
        }
        Ok(())
    }

    fn reply_kind(req_kind: PacketKind) -> Result<PacketKind, MemError> {
        match req_kind {
            PacketKind::ReadReq => Ok(PacketKind::ReadReply),
            PacketKind::BypassReadReq => Ok(PacketKind::BypassReadReply),
            other => Err(MemError::NoReplyKind { kind: other }),
        }
    }

    /// Catch up on cycles the caller skipped while this partition was
    /// idle — the leap-contract counterpart to [`Self::next_event`]. An
    /// idle DRAM tick is a pure `now += 1`, so the skipped interval
    /// collapses to one division on the fractional clock accumulator —
    /// exactly what ticking every cycle would do.
    ///
    /// A partition that has never been cycled has been idle since
    /// cycle 0 — it must catch up from there, or its fractional DRAM
    /// clock would start out of phase with a fully ticked run.
    pub fn advance_quiet(&mut self, now: u64) {
        let skipped = now.saturating_sub(self.last_now).saturating_sub(1);
        self.replay_quiet(skipped, now);
        self.last_now = now;
    }

    /// Account every cycle after the last [`Self::cycle`] call through
    /// `now` *inclusive*, for a caller that stops at `now` without
    /// cycling this partition in it (a sampled window that ends inside a
    /// leap). [`Self::advance_quiet`] leaves `now` to the `cycle` call
    /// that normally follows it; here none follows, so that cycle's DRAM
    /// tick is replayed too. The next `cycle` then resumes at `now + 1`.
    pub fn settle(&mut self, now: u64) {
        let skipped = now.saturating_sub(self.last_now);
        self.replay_quiet(skipped, now + 1);
        self.last_now = now;
    }

    /// Replay `skipped` quiet cycles ending just before cycle `next`.
    fn replay_quiet(&mut self, skipped: u64, next: u64) {
        if skipped > 0 {
            // Input packets may have just arrived (that is what woke us
            // up), and with the cycle-leap event core the partition may
            // even be *busy* — outstanding MSHR fetches, unripe replies,
            // in-flight DRAM commands. The gap is only sound if nothing
            // would have *happened* in it: no reply ripened (the heap
            // head is still in the future) and no reply waited at the
            // output port. DRAM quietness over the granted ticks is
            // asserted by [`Dram::advance_quiet`] itself.
            debug_assert!(
                self.out_queue.is_empty(),
                "cycles were skipped while replies waited at the output port"
            );
            debug_assert!(
                self.pending.next_ready().is_none_or(|ready| ready >= next),
                "cycles were skipped across a reply ripening"
            );
            let total = self.dram_acc + skipped * self.cfg.dram_clock_khz;
            self.dram.advance_quiet(total / self.cfg.icnt_clock_khz);
            self.dram_acc = total % self.cfg.icnt_clock_khz;
        }
    }

    /// Advance one interconnect cycle. Fails with a typed error when a
    /// DRAM completion matches no outstanding L2 fetch — the symptom of
    /// a duplicated or address-corrupted command.
    pub fn cycle(&mut self, now: u64) -> Result<(), MemError> {
        // 0. Catch up on any skipped quiet span first.
        self.advance_quiet(now);

        // 1. DRAM advances at its own clock.
        self.dram_acc += self.cfg.dram_clock_khz;
        while self.dram_acc >= self.cfg.icnt_clock_khz {
            self.dram_acc -= self.cfg.icnt_clock_khz;
            self.dram.tick();
        }

        // 2. Retire DRAM completions: reads fill the L2 and answer all
        //    merged requesters; writes vanish.
        while let Some(cmd) = self.dram.pop_completed() {
            if cmd.is_write {
                continue;
            }
            self.head_refused_at = None;
            let line = self.cfg.l2_geom.line_addr(cmd.addr);
            let entry = self.mshr.complete(line).ok_or(MemError::L2MshrMissingFill { line })?;
            self.complete_fill(line, entry, |part, reply| part.pending.push(now + 1, reply));
        }

        // 3. Ripen pending replies.
        while let Some(reply) = self.pending.pop_ripe(now) {
            self.out_queue.push_back(reply);
        }

        // 4. Service one input packet; the head blocks on structural
        //    hazards (head-of-line, as in the real ejection port).
        if let Some(&pkt) = self.in_queue.front() {
            if !self.head_refused() {
                if self.process(pkt, now)? {
                    self.in_queue.pop_front();
                    self.head_refused_at = None;
                } else {
                    self.head_refused_at = Some(self.dram.commands_started());
                }
            }
        }
        Ok(())
    }

    /// Was the input head refused with no DRAM command started or
    /// completed since? Then a retry is refused again.
    fn head_refused(&self) -> bool {
        self.head_refused_at == Some(self.dram.commands_started())
    }

    /// Earliest future interconnect cycle (strictly after `now`, the
    /// cycle whose [`Self::cycle`] call just ran) at which this
    /// partition could do observable work, or `None` when it is fully
    /// idle. The cycle-leap event core skips straight to the minimum of
    /// these bounds across all components.
    ///
    /// The bound is *conservative*: every cycle in `now+1..bound` is a
    /// provable no-op. Three sources of activity exist:
    ///
    /// - a reply waiting at the output port, or an input head with no
    ///   refusal on record → the very next cycle is an event (if that
    ///   cycle refuses the head, the record holds until DRAM moves);
    /// - a pending reply ripening → its heap-head `ready` cycle;
    /// - DRAM — [`Dram::next_activity`] is in *command-clock* cycles, so
    ///   it is translated through the fractional-accumulator domain
    ///   crossing: after `k` interconnect cycles the channel has been
    ///   granted `floor((dram_acc + k·dram_khz) / icnt_khz)` ticks, and
    ///   the smallest `k` granting `dt` ticks is
    ///   `ceil((dt·icnt_khz − dram_acc) / dram_khz)`.
    ///
    /// A blocked input head (MSHR full, merge list full, every way
    /// reserved, or DRAM admission refused) only unblocks via a DRAM
    /// event — a completion freeing an MSHR entry / reserved way, or a
    /// command start draining a bank queue — so it needs no extra term.
    /// [`Self::cycle`] relies on the same fact to skip such retries.
    /// A refused try is stat-neutral: `accesses` is incremented and then
    /// undone on every refusal path, leaving only the L2 policy's
    /// never-reported query count.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        if !self.out_queue.is_empty()
            || (!self.in_queue.is_empty() && !self.head_refused())
        {
            return Some(now + 1);
        }
        let mut t = u64::MAX;
        if let Some(ready) = self.pending.next_ready() {
            let ready = ready.max(now + 1);
            if ready == now + 1 {
                return Some(ready);
            }
            t = t.min(ready);
        }
        if let Some(act) = self.dram.next_activity() {
            let dt = act - self.dram.now();
            let k = (dt * self.cfg.icnt_clock_khz)
                .saturating_sub(self.dram_acc)
                .div_ceil(self.cfg.dram_clock_khz)
                .max(1);
            if k == 1 {
                return Some(now + 1);
            }
            t = t.min(now + k);
        }
        (t != u64::MAX).then_some(t)
    }

    /// State-only L2 access for sampling-mode fast-forward: the same
    /// query/hit/evict/fill protocol as [`Self::process`] with timing
    /// collapsed — misses fill instantly and touch no DRAM command
    /// queue. Must not run while L2 MSHR entries exist (their reserved
    /// ways would collide with the instant fills); callers drain first.
    pub fn l2_touch_functional(&mut self, addr: u64, is_write: bool) {
        debug_assert_eq!(self.mshr.occupancy(), 0, "functional L2 touch with in-flight fills");
        self.head_refused_at = None;
        let line = self.cfg.l2_geom.line_addr(addr);
        let (set, tag) = self.first_access(line);
        let ctx = AccessCtx { insn_id: 0, is_write };
        if self.hit(set, tag, &ctx) {
            return;
        }
        let views = self.tags.view_set(set);
        let way = match self.policy.decide_replacement(set, views, &ctx) {
            MissDecision::Allocate { way } => way,
            // With no reserved ways the LRU baseline always allocates;
            // it never bypasses at L2.
            MissDecision::Stall | MissDecision::Bypass => {
                debug_assert!(false, "L2 LRU refused a functional allocation");
                return;
            }
        };
        // A dirty victim's writeback leaves no state behind in the L2.
        self.evict_victim(set, way, tag);
        self.fill_now(set, way, line, &ctx);
    }

    /// Route one request packet through the L2 functionally and return
    /// the reply it owes, if any (sampling-mode drain and fast-forward;
    /// write traffic is absorbed silently, exactly as the detailed path
    /// eventually would).
    pub fn apply_functional(&mut self, pkt: Packet) -> Option<Packet> {
        self.l2_touch_functional(pkt.addr, is_write(pkt.kind));
        Self::reply_kind(pkt.kind).ok().map(|kind| Packet { kind, ..pkt })
    }

    /// Window-edge drain for sampling mode: force every in-flight fill
    /// to complete, flush ripening and queued replies, service the
    /// input queue functionally, and discard the DRAM channel's pending
    /// commands (their results were just materialized here). Returns
    /// every reply packet the partition owed; afterwards the partition
    /// is [`Self::idle`].
    pub fn drain_functional(&mut self) -> Vec<Packet> {
        let mut replies = Vec::new();
        self.head_refused_at = None;
        // 1. Complete outstanding L2 fills in sorted line order so the
        //    fill/reply order — and thus every downstream consumer — is
        //    deterministic.
        for (line, entry) in self.mshr.drain_sorted() {
            self.complete_fill(line, entry, |_, reply| replies.push(reply));
        }
        // 2. Replies already scheduled or queued go out as-is.
        replies.extend(std::iter::from_fn(|| self.pending.pop()));
        replies.extend(self.out_queue.drain(..));
        // 3. Input packets are serviced functionally (the MSHR is empty
        //    now, so the state-only path is sound).
        while let Some(pkt) = self.in_queue.pop_front() {
            replies.extend(self.apply_functional(pkt));
        }
        // 4. DRAM commands for the fills above (and queued victim
        //    writebacks) must not resurface in the next detailed window.
        self.dram.discard_in_flight();
        replies
    }

    /// Returns `Ok(true)` if the packet was fully handled, `Ok(false)`
    /// if it must retry next cycle behind a structural hazard.
    fn process(&mut self, pkt: Packet, now: u64) -> Result<bool, MemError> {
        let geom = self.cfg.l2_geom;
        let line = geom.line_addr(pkt.addr);
        let (set, tag) = self.first_access(line);
        let is_write = is_write(pkt.kind);
        let ctx = AccessCtx { insn_id: 0, is_write };

        // Hit.
        if self.hit(set, tag, &ctx) {
            if !is_write {
                let reply = Packet { kind: Self::reply_kind(pkt.kind)?, ..pkt };
                self.pending.push(now + self.cfg.l2_latency, reply);
            }
            return Ok(true);
        }

        // Merge into an in-flight fetch. A full merge list or a full
        // MSHR refuses the packet: it retries and is counted again.
        match self.mshr.probe(line) {
            MshrLookup::Merged => {
                self.mshr.merge(line, pkt)?;
                self.stats.mshr_merges += 1;
                return Ok(true);
            }
            MshrLookup::MergeFull | MshrLookup::Full => {
                self.stats.accesses -= 1;
                return Ok(false);
            }
            MshrLookup::Absent => {}
        }

        // Allocate a victim way (views live in the tag array's scratch
        // buffer — no allocation on the access path).
        let views = self.tags.view_set(set);
        let way = match self.policy.decide_replacement(set, views, &ctx) {
            MissDecision::Allocate { way } => way,
            MissDecision::Stall => {
                self.stats.accesses -= 1;
                return Ok(false);
            }
            MissDecision::Bypass => return Err(MemError::L2BypassUnsupported { line }),
        };
        let victim = self.tags.line(set, way);
        let victim_dirty = victim.valid && victim.dirty;

        // DRAM admission: the fetch (for reads) and the victim writeback
        // must both be enqueueable — atomically, since they may share a
        // bank queue — else retry next cycle.
        let fetch_needed = !is_write;
        let wb_addr = victim.tag * geom.line_bytes;
        let admissible = match (fetch_needed, victim_dirty) {
            (true, true) if self.dram.same_bank(pkt.addr, wb_addr) => {
                self.dram.can_accept_n(pkt.addr, 2)
            }
            (true, true) => self.dram.can_accept(pkt.addr) && self.dram.can_accept(wb_addr),
            (true, false) => self.dram.can_accept(pkt.addr),
            (false, true) => self.dram.can_accept(wb_addr),
            (false, false) => true,
        };
        if !admissible {
            self.stats.accesses -= 1;
            return Ok(false);
        }

        if let Some(wb_addr) = self.evict_victim(set, way, tag) {
            self.dram.enqueue(DramCmd { addr: wb_addr, is_write: true, pkt: None });
        }

        if is_write {
            // Write-allocate without fetch: a full-line write validates
            // the line immediately.
            self.fill_now(set, way, line, &ctx);
        } else {
            self.mshr.allocate(line, Some((set, way)), pkt);
            self.dram.enqueue(DramCmd { addr: pkt.addr, is_write: false, pkt: Some(pkt) });
            self.stats.misses_allocated += 1;
        }
        Ok(true)
    }

    /// Count an access to `line` and let the policy see the query;
    /// returns the line's `(set, tag)`. Shared by both access paths.
    #[inline]
    fn first_access(&mut self, line: u64) -> (usize, u64) {
        let geom = self.cfg.l2_geom;
        let set = geom.set_of_line(line);
        self.stats.accesses += 1;
        self.policy.on_query(set);
        (set, geom.tag_of_line(line))
    }

    /// The hit check, shared by both access paths: on a hit, train the
    /// policy, count it, dirty the line for a write and return true.
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
        Some(old.tag * self.cfg.l2_geom.line_bytes)
    }

    /// Validate a reserved way at once: a write allocated without a
    /// fetch, or any functional miss. The line is dirty for a write.
    #[inline]
    fn fill_now(&mut self, set: usize, way: usize, line: u64, ctx: &AccessCtx) {
        self.tags.fill(set, way, ctx.is_write);
        self.policy.on_fill(set, way, line, ctx);
        self.stats.misses_allocated += 1;
    }

    /// The fetch of `line` is done, whether DRAM answered it or a
    /// window-edge drain forced it: fill the reserved way, dirty if a
    /// write merged into the fetch, and hand each waiting read's reply
    /// to `reply`.
    fn complete_fill(
        &mut self,
        line: u64,
        mut entry: MshrEntry<Packet>,
        mut reply: impl FnMut(&mut Self, Packet),
    ) {
        if let Some((set, way)) = entry.target {
            let dirty = entry.reqs.iter().any(|p| is_write(p.kind));
            self.tags.fill(set, way, dirty);
            let ctx = AccessCtx { insn_id: 0, is_write: false };
            self.policy.on_fill(set, way, line, &ctx);
        }
        for pkt in entry.reqs.drain(..) {
            if let Ok(kind) = Self::reply_kind(pkt.kind) {
                reply(self, Packet { kind, ..pkt });
            }
        }
        self.mshr.recycle(entry.reqs);
    }
}

/// Does a packet of this kind carry write data into the L2?
fn is_write(kind: PacketKind) -> bool {
    matches!(kind, PacketKind::WriteThrough | PacketKind::Writeback)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::MemReq;

    fn part() -> MemoryPartition {
        MemoryPartition::new(PartitionConfig::fermi())
    }

    fn read_pkt(kind: PacketKind, addr: u64, id: u64) -> Packet {
        Packet {
            kind,
            addr,
            req: MemReq { id, addr, is_write: false, pc: 0, sm: 3, warp: 0, dst_reg: 0, born: 0 },
        }
    }

    fn run_until_reply(p: &mut MemoryPartition, start: u64, max: u64) -> (u64, Packet) {
        for now in start..start + max {
            p.cycle(now).unwrap();
            if let Some(r) = p.pop_reply() {
                return (now, r);
            }
        }
        panic!("no reply within {max} cycles");
    }

    #[test]
    fn l2_miss_goes_to_dram_and_replies() {
        let mut p = part();
        p.enqueue(read_pkt(PacketKind::ReadReq, 0x8000, 7));
        let (when, reply) = run_until_reply(&mut p, 0, 500);
        assert_eq!(reply.kind, PacketKind::ReadReply);
        assert_eq!(reply.req.id, 7);
        assert!(when > 30, "DRAM latency must be visible, got {when}");
        assert_eq!(p.l2_stats().misses_allocated, 1);
        assert_eq!(p.dram_stats().reads, 1);
    }

    #[test]
    fn l2_hit_is_much_faster_than_miss() {
        let mut p = part();
        p.enqueue(read_pkt(PacketKind::ReadReq, 0x8000, 1));
        let (t_miss, _) = run_until_reply(&mut p, 0, 500);
        p.enqueue(read_pkt(PacketKind::ReadReq, 0x8000, 2));
        let (t_hit, reply) = run_until_reply(&mut p, t_miss + 1, 500);
        assert_eq!(reply.req.id, 2);
        assert!(t_hit - t_miss <= PartitionConfig::fermi().l2_latency + 3);
        assert_eq!(p.l2_stats().hits, 1);
        assert_eq!(p.dram_stats().reads, 1, "hit must not touch DRAM");
    }

    #[test]
    fn bypass_read_gets_bypass_reply() {
        let mut p = part();
        p.enqueue(read_pkt(PacketKind::BypassReadReq, 0x100, 9));
        let (_, reply) = run_until_reply(&mut p, 0, 500);
        assert_eq!(reply.kind, PacketKind::BypassReadReply);
        assert_eq!(reply.req.id, 9);
    }

    #[test]
    fn concurrent_reads_to_same_line_merge() {
        let mut p = part();
        p.enqueue(read_pkt(PacketKind::ReadReq, 0x4000, 1));
        p.cycle(0).unwrap(); // processes first -> MSHR allocated
        p.enqueue(read_pkt(PacketKind::BypassReadReq, 0x4000, 2));
        let mut replies = Vec::new();
        for now in 1..500 {
            p.cycle(now).unwrap();
            while let Some(r) = p.pop_reply() {
                replies.push(r);
            }
            if replies.len() == 2 {
                break;
            }
        }
        assert_eq!(replies.len(), 2);
        assert_eq!(p.dram_stats().reads, 1, "one fetch serves both");
        assert_eq!(p.l2_stats().mshr_merges, 1);
        let kinds: Vec<_> = replies.iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&PacketKind::ReadReply));
        assert!(kinds.contains(&PacketKind::BypassReadReply));
    }

    #[test]
    fn writeback_allocates_without_fetch_and_dirty_eviction_reaches_dram() {
        let mut p = part();
        let geom = CacheGeometry::fermi_l2_slice();
        // Write-allocate a line (no DRAM traffic), then evict it by
        // filling the set with 8 reads mapping to the same set.
        let wb = Packet {
            kind: PacketKind::Writeback,
            addr: 0,
            req: MemReq { id: 0, addr: 0, is_write: true, pc: 0, sm: 0, warp: 0, dst_reg: 0, born: 0 },
        };
        p.enqueue(wb);
        p.cycle(0).unwrap();
        assert_eq!(p.dram_stats().reads + p.dram_stats().writes, 0);
        assert_eq!(p.l2_stats().misses_allocated, 1);

        // Lines mapping to set of addr 0 are spaced num_sets*line_bytes.
        let stride = geom.num_sets as u64 * geom.line_bytes;
        let mut now = 1;
        for i in 1..=8u64 {
            while !p.can_accept() {
                p.cycle(now).unwrap();
                now += 1;
            }
            p.enqueue(read_pkt(PacketKind::ReadReq, i * stride, i));
            for _ in 0..200 {
                p.cycle(now).unwrap();
                now += 1;
                p.pop_reply();
            }
        }
        assert!(p.l2_stats().evictions >= 1);
        assert_eq!(p.dram_stats().writes, 1, "the dirty victim was written back");
    }

    #[test]
    fn duplicated_dram_completion_yields_typed_error() {
        use crate::fault::{FaultConfig, FaultKind, FaultSite};
        let mut p = part();
        p.set_dram_fault_injector(FaultInjector::new(FaultConfig::single(
            FaultKind::Duplicate,
            FaultSite::Dram,
            3,
        )));
        p.enqueue(read_pkt(PacketKind::ReadReq, 0x8000, 1));
        let err = (0..500)
            .find_map(|now| p.cycle(now).err())
            .expect("the duplicated completion must surface as an error");
        assert_eq!(err, MemError::L2MshrMissingFill { line: 0x8000 >> 7 });
    }

    #[test]
    fn audit_accepts_busy_partition() {
        let mut p = part();
        p.enqueue(read_pkt(PacketKind::ReadReq, 0x8000, 1));
        for now in 0..50 {
            p.cycle(now).unwrap();
            assert_eq!(p.audit(), Ok(()));
        }
        assert!(p.held_reply_packets() > 0, "the fetch is still in flight somewhere");
    }

    #[test]
    fn driving_only_at_next_event_matches_ticking_every_cycle() {
        // Tick one partition every cycle; drive its twin only at the
        // cycles `next_event` names. Replies must surface at identical
        // cycles with identical observable statistics — the core
        // conservative-bound invariant of the cycle-leap event core.
        let mut ticked = part();
        let mut leaped = part();
        for p in [&mut ticked, &mut leaped] {
            p.enqueue(read_pkt(PacketKind::ReadReq, 0x8000, 1));
            p.enqueue(read_pkt(PacketKind::ReadReq, 0x8000 + 0x40_000, 2));
        }
        let mut tick_replies = Vec::new();
        for now in 0..600 {
            ticked.cycle(now).unwrap();
            while let Some(r) = ticked.pop_reply() {
                tick_replies.push((now, r.req.id));
            }
        }
        assert_eq!(tick_replies.len(), 2, "both fetches must complete");

        let mut leap_replies = Vec::new();
        let mut now = 0;
        let mut cycles_run = 0u64;
        while now < 600 {
            leaped.cycle(now).unwrap();
            cycles_run += 1;
            while let Some(r) = leaped.pop_reply() {
                leap_replies.push((now, r.req.id));
            }
            match leaped.next_event(now) {
                Some(ev) => {
                    assert!(ev > now, "next_event must be strictly in the future");
                    now = ev;
                }
                None => break,
            }
        }
        assert_eq!(leap_replies, tick_replies, "replies must land on identical cycles");
        assert!(cycles_run < 600, "leaping must actually skip dead cycles");
        assert_eq!(leaped.l2_stats().misses_allocated, ticked.l2_stats().misses_allocated);
        assert_eq!(leaped.dram_stats().reads, ticked.dram_stats().reads);
        assert_eq!(leaped.dram_stats().row_hits, ticked.dram_stats().row_hits);
    }

    #[test]
    fn refused_head_retries_only_after_a_dram_start_or_completion() {
        // Tiny MSHR, merge lists and bank queues, so the head is refused
        // for each reason in turn. One twin retries a refused head every
        // cycle, as if it had no memo; the other may skip. Both must
        // agree cycle by cycle, and the memoized twin must retry a
        // refused head exactly in the cycles where DRAM started or
        // completed a command.
        let cfg = PartitionConfig {
            l2_mshr_entries: 2,
            l2_mshr_merge: 2,
            dram: DramConfig { queue_depth: 1, ..DramConfig::gddr5() },
            ..PartitionConfig::fermi()
        };
        let (mut memo, mut real) = (MemoryPartition::new(cfg), MemoryPartition::new(cfg));
        let set_stride = cfg.l2_geom.num_sets as u64 * cfg.l2_geom.line_bytes;
        let bank_stride = cfg.dram.row_bytes * cfg.dram.num_banks as u64;
        // Nine writebacks to one set: the ninth evicts a dirty line, and
        // its DRAM write holds bank 4. A read to that bank waits behind
        // it; the next read to bank 4 is refused until the write has
        // finished and the first read starts — a start with no read
        // completing, so only the start count can unblock it.
        let mut pkts: Vec<_> =
            (1..=9).map(|k| read_pkt(PacketKind::Writeback, k * set_stride, 0)).collect();
        let bank4 = 4 * cfg.dram.row_bytes + bank_stride;
        pkts.extend([bank4, bank4 + bank_stride].map(|a| read_pkt(PacketKind::ReadReq, a, 1)));
        // A full merge list, then a full MSHR: both wait for a fill.
        pkts.extend(
            [0, 0, 0, bank_stride, 2 * bank_stride, 3 * bank_stride]
                .map(|a| read_pkt(PacketKind::ReadReq, a, 2)),
        );
        let (mut fed, mut refusals, mut skipped, mut start_only) = (0, 0, 0, 0);
        for now in 0..4000 {
            while fed < pkts.len() && memo.can_accept() {
                for p in [&mut memo, &mut real] {
                    p.enqueue(pkts[fed]);
                }
                fed += 1;
            }
            let was_refused = memo.head_refused_at.is_some();
            let (started, queries) = (memo.dram.commands_started(), memo.policy.stats().queries);
            let (replies, hits) = (memo.pending.pushed(), memo.l2_stats().hits);
            memo.cycle(now).unwrap();
            real.head_refused_at = None;
            real.cycle(now).unwrap();
            let retried = memo.policy.stats().queries > queries;
            // Replies scheduled beyond the head's own hit are fills.
            let completed = memo.pending.pushed() - replies > memo.l2_stats().hits - hits;
            let started = memo.dram.commands_started() != started;
            if was_refused {
                assert_eq!(retried, started || completed, "cycle {now}");
                skipped += u32::from(!retried);
                start_only += u32::from(retried && !completed);
            }
            refusals += u32::from(retried && memo.head_refused_at.is_some());
            assert_eq!(memo.l2_stats(), real.l2_stats(), "cycle {now}");
            assert_eq!(memo.dram_stats(), real.dram_stats(), "cycle {now}");
            assert_eq!(memo.in_queue_len(), real.in_queue_len(), "cycle {now}");
            let (a, b) = (memo.pop_reply(), real.pop_reply());
            assert_eq!(a.map(|r| r.req.addr), b.map(|r| r.req.addr), "cycle {now}");
        }
        assert!(fed == pkts.len() && memo.idle() && real.idle(), "every packet must be served");
        assert!(refusals >= 3 && skipped > 0 && start_only >= 1, "{refusals} {skipped} {start_only}");
        assert_eq!(memo.l2_stats().accesses, pkts.len() as u64);
        assert!(memo.l2_stats().mshr_merges >= 1);
        assert_eq!(memo.dram_stats().writes, 2, "the ninth writeback and the read of line 0 evict");
    }

    #[test]
    fn idle_reflects_outstanding_work() {
        let mut p = part();
        assert!(p.idle());
        p.enqueue(read_pkt(PacketKind::ReadReq, 0, 1));
        assert!(!p.idle());
        let _ = run_until_reply(&mut p, 0, 500);
        assert!(p.idle());
    }
}
