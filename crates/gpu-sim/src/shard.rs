//! Deterministic sharded epoch engine.
//!
//! Partition the SMs and memory partitions into N contiguous shards and
//! run the shards on parallel threads in lock-step *epochs* bounded by
//! the crossbar hop latency. Components only communicate through the
//! crossbar, and any packet injected at cycle `c` becomes poppable no
//! earlier than `c + 1 + hop_latency` (one cycle of serialization plus
//! the hop), so within a round of at most `hop_latency + 1` cycles the
//! shards cannot observe each other's new traffic: intra-round
//! execution is independent.
//!
//! # The contract: byte-identical statistics at any shard count
//!
//! Determinism is engineered, not hoped for:
//!
//! * **All crossbar sends are deferred.** A shard never touches the
//!   shared [`Interconnect`] during a round; it appends would-be sends
//!   to a per-shard chronological log. At the barrier the logs are
//!   k-way merged in canonical `(cycle, direction, source)` order —
//!   shards own contiguous component ranges, so shard index order *is*
//!   global source-id order — and replayed into the real crossbar,
//!   reproducing the exact serialization, fault-injection, and
//!   queue-occupancy sequence of the single-threaded loop.
//! * **Pops are pre-extracted and slack-corrected.** At round start
//!   each shard receives the ripe FIFO prefix of its ports' queues
//!   (everything poppable by round end); unconsumed leftovers are
//!   restored at the barrier *before* the merge. Because merge-time
//!   capacity checks must see the occupancy the sequential machine saw
//!   at each send's cycle, every pop's cycle is logged and charged back
//!   as *slack* against the capacity check of sends that precede it.
//! * **Misspeculation restarts, it never corrupts.** If a merged send
//!   would have been refused by the sequential machine (queue full at
//!   that cycle), the optimistic shard execution has diverged: the run
//!   is restarted from cycle 0 on the classic single-threaded path
//!   (and stays there for this GPU's lifetime). The first
//!   canonical-order capacity violation is exactly the first sequential
//!   divergence, so detection is sound and the restart reproduces the
//!   sequential byte stream by construction.
//!
//! Rounds additionally end early at watchdog deadlines, audit
//! multiples, the cycle cap, `run_for` horizons, and whenever CTAs are
//! still pending launch (launches are a cross-shard operation and run
//! at barriers only). See DESIGN.md §12 for the invariance argument.

use crate::error::SimError;
use crate::gpu::{advance_cursor, audit_machine, Gpu};
use crate::sm::Sm;
use crate::stats::RunStats;
use gpu_mem::icnt::{partition_for, Interconnect};
use gpu_mem::mask;
use gpu_mem::packet::Packet;
use gpu_mem::partition::MemoryPartition;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard};

/// Telemetry from the sharded epoch engine, accumulated across every
/// `run`/`run_for` call of one [`Gpu`]. Wall-clock-shaped (like
/// [`Gpu::ticked_cycles`]): none of these numbers feed [`RunStats`],
/// which are byte-identical at any shard count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardTelemetry {
    /// Shards the engine actually ran with (0 until the first sharded
    /// round; the classic path never sets it).
    pub shards: usize,
    /// Upper bound on a round's length in cycles (`hop_latency + 1`);
    /// individual rounds can be shorter (launch backlog, watchdog,
    /// audit multiples, horizons).
    pub epoch_cycles: u64,
    /// Barrier rounds executed.
    pub rounds: u64,
    /// Shard-rounds in which a shard had no event to step — it paid the
    /// barrier without doing work (the load-imbalance signal).
    pub barrier_stalls: u64,
    /// Cycles each shard actually stepped (index = shard).
    pub per_shard_ticked: Vec<u64>,
    /// Misspeculation restarts: rounds whose merge found a send the
    /// sequential machine would have refused, forcing a from-scratch
    /// single-threaded rerun.
    pub restarts: u64,
}

/// One deferred crossbar send, logged by a shard during a round.
#[derive(Clone, Copy)]
struct SendEvt {
    /// Core cycle the send happened at.
    cycle: u64,
    /// Forward (SM → partition) or return (partition → SM) direction.
    forward: bool,
    /// Destination port (global index).
    dst: usize,
    /// The packet.
    pkt: Packet,
}

impl SendEvt {
    /// Canonical merge key. Within one cycle the sequential loop drains
    /// every SM's forward traffic (phase 3, ascending SM order) before
    /// any partition's replies (phase 4, ascending partition order), so
    /// direction orders before source; contiguous chunking makes shard
    /// index order equal global source-id order within `(cycle, dir)`.
    fn key(&self, shard: usize) -> (u64, u8, usize) {
        (self.cycle, u8::from(!self.forward), shard)
    }
}

/// The first error a shard hit, keyed so the minimum across shards is
/// exactly the error the sequential loop would have reported first.
/// Major ranks the intra-cycle phase (1 = SM cycle, 2 = partition
/// eject/cycle, 3 = reply delivery), `comp` the global component index
/// within the phase, `minor` the sub-step (partition eject before
/// partition cycle).
struct ErrAt {
    cycle: u64,
    major: u8,
    comp: usize,
    minor: u8,
    err: SimError,
}

impl ErrAt {
    fn key(&self) -> (u64, u8, usize, u8) {
        (self.cycle, self.major, self.comp, self.minor)
    }
}

/// Pop cycles logged for one crossbar port this round, consumed as
/// merge-time capacity slack: `slack_at(t)` is how many of the port's
/// packets — already popped by the shards — the sequential machine
/// would still have held when a cycle-`t` send was admitted. Sends
/// precede pops within a cycle in both directions, so a pop at exactly
/// `t` still counts. The cursor only moves forward: the merge replays
/// sends in nondecreasing cycle order.
#[derive(Default)]
struct PopLedger {
    cycles: Vec<u64>,
    ptr: usize,
}

impl PopLedger {
    fn slack_at(&mut self, t: u64) -> usize {
        while self.ptr < self.cycles.len() && self.cycles[self.ptr] < t {
            self.ptr += 1;
        }
        self.cycles.len() - self.ptr
    }
}

/// How a sharded drive ended.
enum Outcome {
    /// Every CTA retired and the machine drained.
    Finished,
    /// `run_for` horizon reached with work left.
    Horizon,
    /// Watchdog: no forward progress for the configured window.
    Hang,
    /// `run` exceeded the cycle cap with work left.
    CapExceeded,
    /// A shard (or the barrier itself) hit a typed simulation error.
    Error(SimError),
    /// The merge refused a send the shards had optimistically accepted.
    Misspeculation,
}

/// One shard: a contiguous slice of SMs and memory partitions with
/// their scheduling state, plus the round-local communication buffers.
struct Shard {
    /// Global index of `sms[0]`.
    sm0: usize,
    /// Global index of `parts[0]`.
    part0: usize,
    sms: Vec<Sm>,
    parts: Vec<MemoryPartition>,
    // Local slices of the Gpu scheduling state (same semantics as the
    // fields of the same name on `Gpu`, indexed by local component:
    // bit `j` of a mask is component `sm0 + j` / `part0 + j`).
    active_sms: u64,
    sm_next_ev: Vec<u64>,
    sm_last_cycled: Vec<u64>,
    active_parts: u64,
    /// Ripe crossbar packets handed to this shard for the round, per
    /// local port (forward: partitions, return: SMs).
    fwd_inbox: Vec<VecDeque<(u64, Packet)>>,
    ret_inbox: Vec<VecDeque<(u64, Packet)>>,
    /// Local ports whose inbox received packets this round — a superset
    /// of the non-empty inboxes (a drained inbox keeps its bit until the
    /// barrier), which is all the phase loops need.
    fwd_filled: u64,
    ret_filled: u64,
    /// Deferred sends, chronological (the round steps cycles in order
    /// and each cycle's phases log in sequential-loop order).
    sends: Vec<SendEvt>,
    /// Pop cycles per local port this round (capacity slack for the
    /// merge).
    fwd_pops: Vec<Vec<u64>>,
    ret_pops: Vec<Vec<u64>>,
    // Round-local statistic deltas, merged into the Gpu's counters at
    // the barrier.
    round_insns: u64,
    round_fetches: u64,
    round_fwd_flits: u64,
    round_ret_flits: u64,
    round_replies: u64,
    /// Cycles stepped this round.
    stepped: u64,
    /// Last cycle this shard actually stepped, cumulative across rounds.
    last_stepped: u64,
    /// Last cycle this round at which this shard's progress metric
    /// (insns + replies) moved.
    progress_cycle: Option<u64>,
    /// First error this round, in sequential phase order.
    error: Option<ErrAt>,
    /// Per-SM sleeping enabled (mirrors `Gpu::sm_sleep_enabled`).
    sleep: bool,
    /// Global partition count (address routing).
    num_partitions: usize,
}

impl Shard {
    /// Detach the ripe prefix of every owned port for a round ending at
    /// `horizon` (inclusive).
    fn prepare_round(&mut self, icnt: &mut Interconnect, horizon: u64) {
        for j in mask::ones(mask::slice(icnt.fwd_nonempty(), self.part0, self.parts.len())) {
            self.fwd_inbox[j] = icnt.extract_ready_fwd(self.part0 + j, horizon);
            if !self.fwd_inbox[j].is_empty() {
                self.fwd_filled |= mask::bit(j);
            }
        }
        for j in mask::ones(mask::slice(icnt.ret_nonempty(), self.sm0, self.sms.len())) {
            self.ret_inbox[j] = icnt.extract_ready_ret(self.sm0 + j, horizon);
            if !self.ret_inbox[j].is_empty() {
                self.ret_filled |= mask::bit(j);
            }
        }
    }

    /// Return every unconsumed inbox packet to the head of its queue
    /// (leftovers are older than anything still enqueued). Idempotent:
    /// restoring empty inboxes is a no-op.
    fn restore_inboxes(&mut self, icnt: &mut Interconnect) {
        for j in mask::ones(std::mem::take(&mut self.fwd_filled)) {
            let left = std::mem::take(&mut self.fwd_inbox[j]);
            if !left.is_empty() {
                icnt.restore_front_fwd(self.part0 + j, left);
            }
        }
        for j in mask::ones(std::mem::take(&mut self.ret_filled)) {
            let left = std::mem::take(&mut self.ret_inbox[j]);
            if !left.is_empty() {
                icnt.restore_front_ret(self.sm0 + j, left);
            }
        }
    }

    /// Earliest event of this shard's busy SMs (probed at `now`, floored
    /// at `floor`), `u64::MAX` when none has one — the SM half shared by
    /// both planning bounds below.
    fn sm_event_bound(&mut self, now: u64, floor: u64) -> u64 {
        let mut t = u64::MAX;
        for j in mask::ones(self.active_sms) {
            let ev = if self.sleep {
                self.sm_next_ev[j]
            } else {
                self.sms[j].next_event(now).unwrap_or(u64::MAX)
            };
            if ev != u64::MAX {
                t = t.min(ev.max(floor));
            }
        }
        t
    }

    /// Barrier-side planning bound: the earliest cycle after `now` at
    /// which any of this shard's components (or the crossbar queues
    /// feeding them) has an event. Mirrors the component scan of the
    /// sequential `next_step_cycle`, floored at `now + 1`.
    fn next_event_bound(&mut self, now: u64, icnt: &Interconnect) -> u64 {
        let floor = now + 1;
        let mut t = self.sm_event_bound(now, floor);
        for j in mask::ones(mask::slice(icnt.ret_nonempty(), self.sm0, self.sms.len())) {
            if let Some(ready) = icnt.next_ret_ready(self.sm0 + j) {
                t = t.min(ready.max(floor));
            }
        }
        let fwd = mask::slice(icnt.fwd_nonempty(), self.part0, self.parts.len());
        for j in mask::ones(self.active_parts | fwd) {
            let part = &mut self.parts[j];
            if part.can_accept() {
                if let Some(ready) = icnt.next_fwd_ready(self.part0 + j) {
                    t = t.min(ready.max(floor));
                }
            }
            if self.active_parts & mask::bit(j) != 0 {
                // Probe at the partition's *internal* clock, not the
                // barrier time: its DRAM-domain term is computed
                // relative to internal state, and the partition was
                // last cycled at its last event, which can precede the
                // round horizon. Returned times are absolute; the floor
                // clamp lifts already-due events to the next cycle.
                let origin = part.last_cycled();
                if let Some(ev) = part.next_event(origin) {
                    t = t.min(ev.max(floor));
                }
            }
        }
        t
    }

    /// In-round event probe against the local inboxes: the next cycle
    /// in `(prev, end]` this shard must step, or `None` to finish the
    /// round.
    fn next_local_event(&mut self, prev: u64, end: u64) -> Option<u64> {
        let floor = prev + 1;
        if floor > end {
            return None;
        }
        let mut t = self.sm_event_bound(prev, floor);
        for j in mask::ones(self.ret_filled) {
            if let Some(&(ready, _)) = self.ret_inbox[j].front() {
                t = t.min(ready.max(floor));
            }
        }
        for j in mask::ones(self.active_parts | self.fwd_filled) {
            let part = &mut self.parts[j];
            if part.can_accept() {
                if let Some(&(ready, _)) = self.fwd_inbox[j].front() {
                    t = t.min(ready.max(floor));
                }
            }
            if self.active_parts & mask::bit(j) != 0 {
                // Internal-clock origin, as in `next_event_bound`: the
                // partition was last cycled at its previous event,
                // which can lag `prev` when another component drove the
                // intervening steps across a round boundary.
                let origin = part.last_cycled();
                if let Some(ev) = part.next_event(origin) {
                    t = t.min(ev.max(floor));
                }
            }
        }
        (t <= end).then_some(t)
    }

    /// One core cycle of this shard's components — the sequential
    /// `Gpu::step` phases 2–5 restricted to the owned slice, with every
    /// crossbar interaction replaced by inbox pops and send-log
    /// appends. CTA launches (phase 1) happen at barriers only.
    fn step_local(&mut self, now: u64) {
        self.stepped += 1;
        self.last_stepped = now;
        let progress_before = self.round_insns + self.round_replies;

        // Phase 2: cycle busy, awake SMs (deferred aging replayed on
        // wake, exactly as the sequential loop does).
        let mut cycled = 0u64;
        for j in mask::ones(self.active_sms) {
            if self.sleep && self.sm_next_ev[j] > now {
                continue;
            }
            cycled |= mask::bit(j);
            let sm = &mut self.sms[j];
            let behind = now - 1 - self.sm_last_cycled[j];
            if behind > 0 {
                sm.leap_catchup(behind);
            }
            match sm.cycle(now) {
                Ok(insns) => self.round_insns += insns,
                Err(err) => {
                    self.error =
                        Some(ErrAt { cycle: now, major: 1, comp: self.sm0 + j, minor: 0, err });
                    return;
                }
            }
            self.sm_last_cycled[j] = now;
            sm.take_finished_ctas();
            if self.sleep {
                self.sm_next_ev[j] = sm.next_event(now).unwrap_or(u64::MAX);
            }
        }

        // Phase 3: L1D miss queues → send log (forward direction).
        // Optimistic: no backpressure here — the barrier merge applies
        // the sequential capacity check and restarts on a refusal.
        for j in mask::ones(cycled) {
            let sm = &mut self.sms[j];
            while let Some(pkt) = sm.l1d.peek_outgoing() {
                let dst = partition_for(pkt.addr, self.num_partitions);
                if pkt.kind.expects_reply() {
                    self.round_fetches += 1;
                }
                self.sends.push(SendEvt { cycle: now, forward: true, dst, pkt: *pkt });
                sm.l1d.pop_outgoing();
            }
            if sm.idle() {
                self.active_sms &= !mask::bit(j);
            }
        }

        // Phase 4: inbox → partitions, partition internals, replies →
        // send log (return direction).
        for j in mask::ones(self.active_parts | self.fwd_filled) {
            let part = &mut self.parts[j];
            let gp = self.part0 + j;
            while part.can_accept() {
                match self.fwd_inbox[j].front() {
                    Some(&(ready, _)) if ready <= now => {
                        let Some((_, pkt)) = self.fwd_inbox[j].pop_front() else { break };
                        self.fwd_pops[j].push(now);
                        let expected = partition_for(pkt.addr, self.num_partitions);
                        if expected != gp {
                            self.error = Some(ErrAt {
                                cycle: now,
                                major: 2,
                                comp: gp,
                                minor: 0,
                                err: SimError::PacketMisrouted {
                                    port: gp,
                                    expected,
                                    addr: pkt.addr,
                                    cycle: now,
                                },
                            });
                            return;
                        }
                        self.round_fwd_flits += pkt.flits();
                        part.enqueue(pkt);
                        self.active_parts |= mask::bit(j);
                    }
                    _ => break,
                }
            }
            if self.active_parts & mask::bit(j) == 0 {
                continue;
            }
            if let Err(source) = part.cycle(now) {
                self.error = Some(ErrAt {
                    cycle: now,
                    major: 2,
                    comp: gp,
                    minor: 1,
                    err: SimError::PartitionFault { partition: gp, source, cycle: now },
                });
                return;
            }
            while let Some(pkt) = part.pop_reply() {
                self.sends.push(SendEvt {
                    cycle: now,
                    forward: false,
                    dst: pkt.req.sm as usize,
                    pkt,
                });
            }
            if part.idle() {
                self.active_parts &= !mask::bit(j);
            }
        }

        // Phase 5: inbox → L1Ds (replies, by owning return port).
        for j in mask::ones(self.ret_filled) {
            let sm = &mut self.sms[j];
            loop {
                match self.ret_inbox[j].front() {
                    Some(&(ready, _)) if ready <= now => {
                        let Some((_, pkt)) = self.ret_inbox[j].pop_front() else { break };
                        self.ret_pops[j].push(now);
                        self.round_ret_flits += pkt.flits();
                        self.round_replies += 1;
                        let behind = now - self.sm_last_cycled[j];
                        if behind > 0 {
                            sm.leap_catchup(behind);
                            self.sm_last_cycled[j] = now;
                        }
                        if let Err(source) = sm.l1d.on_reply(pkt, now) {
                            self.error = Some(ErrAt {
                                cycle: now,
                                major: 3,
                                comp: self.sm0 + j,
                                minor: 0,
                                err: SimError::MshrViolation {
                                    sm: self.sm0 + j,
                                    source,
                                    cycle: now,
                                },
                            });
                            return;
                        }
                        self.sm_next_ev[j] = 0;
                        self.active_sms |= mask::bit(j);
                    }
                    _ => break,
                }
            }
        }

        if self.round_insns + self.round_replies != progress_before {
            self.progress_cycle = Some(now);
        }
    }

    /// Run one round: step every local event cycle in `[start, end]`.
    fn run_round(&mut self, start: u64, end: u64) {
        self.stepped = 0;
        self.progress_cycle = None;
        let mut prev = start - 1;
        while self.error.is_none() {
            let Some(c) = self.next_local_event(prev, end) else { break };
            self.step_local(c);
            prev = c;
        }
    }
}

/// Lock a shard, recovering from poison: a worker panic is converted
/// to a typed error by the worker itself, and the state behind a
/// poisoned lock is still the best diagnostic available.
fn lock_shard(m: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Shared barrier-control state between the driver and the workers.
struct Control {
    /// Round bounds, published before each `go`.
    round_start: AtomicU64,
    round_end: AtomicU64,
    /// Published before the final `go`: workers exit.
    stop: AtomicBool,
    /// Round-start rendezvous (n workers + driver).
    go: Barrier,
    /// Round-end rendezvous.
    done: Barrier,
}

/// Run the GPU with the sharded epoch engine. `until` is the absolute
/// horizon for `run_for` (`None` = run to completion under the cycle
/// cap).
pub(crate) fn run_sharded(gpu: &mut Gpu, until: Option<u64>) -> Result<RunStats, SimError> {
    let n = gpu.effective_shards();
    let hop = gpu.cfg.icnt.hop_latency;
    gpu.shard_telemetry.shards = n;
    gpu.shard_telemetry.epoch_cycles = hop + 1;
    if gpu.shard_telemetry.per_shard_ticked.len() != n {
        gpu.shard_telemetry.per_shard_ticked = vec![0; n];
    }

    let shards = split_into_shards(gpu, n);
    let ctl = Control {
        round_start: AtomicU64::new(0),
        round_end: AtomicU64::new(0),
        stop: AtomicBool::new(false),
        go: Barrier::new(n + 1),
        done: Barrier::new(n + 1),
    };

    let outcome = std::thread::scope(|scope| {
        for m in &shards {
            scope.spawn(|| worker(m, &ctl));
        }
        let o = drive(gpu, &shards, until, hop, &ctl);
        // Release the workers from their `go` rendezvous with the stop
        // flag raised so the scope can join them.
        ctl.stop.store(true, Ordering::Release);
        ctl.go.wait();
        o
    });

    reassemble(gpu, shards);

    match outcome {
        Outcome::Finished => {
            gpu.settle_sms();
            Ok(gpu.collect(true))
        }
        Outcome::Horizon => {
            gpu.settle_sms();
            Ok(gpu.collect(gpu.finished()))
        }
        Outcome::Hang => {
            gpu.settle_sms();
            Err(SimError::Hang(Box::new(gpu.hang_report())))
        }
        Outcome::CapExceeded => {
            gpu.settle_sms();
            Err(SimError::CycleCapExceeded(Box::new(gpu.hang_report())))
        }
        Outcome::Error(e) => Err(e),
        Outcome::Misspeculation => {
            // The optimistic round diverged from the sequential
            // history: replay the whole run single-threaded. The
            // kernel is stateless and the fault-injector seeds are
            // config-derived, so the replay is the byte-exact
            // sequential run. Latched: a second attempt would diverge
            // identically.
            gpu.shard_telemetry.restarts += 1;
            gpu.shards_disabled = true;
            gpu.reset_run_state();
            match until {
                None => gpu.run(),
                // `now` is 0 after the reset, so the relative horizon
                // equals the absolute cycle the caller asked for.
                Some(end) => gpu.run_for(end),
            }
        }
    }
}

/// Worker thread: one round per `go`/`done` rendezvous. A panic inside
/// the round is caught and recorded as a typed error so the driver
/// never deadlocks at the `done` barrier.
fn worker(m: &Mutex<Shard>, ctl: &Control) {
    loop {
        ctl.go.wait();
        if ctl.stop.load(Ordering::Acquire) {
            break;
        }
        // The barrier rendezvous already orders these loads after the
        // driver's stores; Acquire/Release restates that locally (free
        // on x86/aarch64) instead of leaning on the barrier from afar.
        let start = ctl.round_start.load(Ordering::Acquire);
        let end = ctl.round_end.load(Ordering::Acquire);
        {
            let mut g = lock_shard(m);
            let shard = &mut *g;
            if catch_unwind(AssertUnwindSafe(|| shard.run_round(start, end))).is_err()
                && shard.error.is_none()
            {
                shard.error = Some(ErrAt {
                    cycle: start,
                    major: u8::MAX,
                    comp: 0,
                    minor: 0,
                    err: SimError::InvariantViolation {
                        check: "shard worker panicked",
                        detail: format!("worker panicked inside round [{start}, {end}]"),
                        cycle: start,
                    },
                });
            }
        }
        ctl.done.wait();
    }
}

/// Contiguous chunk boundaries: shard `i` of `n` owns `[lo(i), lo(i+1))`.
fn chunk_lo(total: usize, n: usize, i: usize) -> usize {
    total * i / n
}

/// Move the Gpu's components and scheduling state into `n` shards.
/// The Gpu keeps the crossbar, the CTA queue/cursor, the counters and
/// the clock; everything per-SM / per-partition moves.
fn split_into_shards(gpu: &mut Gpu, n: usize) -> Vec<Mutex<Shard>> {
    let num_sms = gpu.cfg.num_sms;
    let num_parts = gpu.cfg.icnt.num_partitions;
    let mut sm_iter = std::mem::take(&mut gpu.sms).into_iter();
    let mut part_iter = std::mem::take(&mut gpu.parts).into_iter();
    let sleep = gpu.sm_sleep_enabled();
    let now = gpu.now;
    (0..n)
        .map(|i| {
            let (s_lo, s_hi) = (chunk_lo(num_sms, n, i), chunk_lo(num_sms, n, i + 1));
            let (p_lo, p_hi) = (chunk_lo(num_parts, n, i), chunk_lo(num_parts, n, i + 1));
            Mutex::new(Shard {
                sm0: s_lo,
                part0: p_lo,
                sms: sm_iter.by_ref().take(s_hi - s_lo).collect(),
                parts: part_iter.by_ref().take(p_hi - p_lo).collect(),
                active_sms: mask::slice(gpu.active_sms, s_lo, s_hi - s_lo),
                sm_next_ev: gpu.sm_next_ev[s_lo..s_hi].to_vec(),
                sm_last_cycled: gpu.sm_last_cycled[s_lo..s_hi].to_vec(),
                active_parts: mask::slice(gpu.active_parts, p_lo, p_hi - p_lo),
                fwd_inbox: (p_lo..p_hi).map(|_| VecDeque::new()).collect(),
                ret_inbox: (s_lo..s_hi).map(|_| VecDeque::new()).collect(),
                fwd_filled: 0,
                ret_filled: 0,
                sends: Vec::new(),
                fwd_pops: (p_lo..p_hi).map(|_| Vec::new()).collect(),
                ret_pops: (s_lo..s_hi).map(|_| Vec::new()).collect(),
                round_insns: 0,
                round_fetches: 0,
                round_fwd_flits: 0,
                round_ret_flits: 0,
                round_replies: 0,
                stepped: 0,
                last_stepped: now,
                progress_cycle: None,
                error: None,
                sleep,
                num_partitions: num_parts,
            })
        })
        .collect()
}

/// Move everything back into the Gpu. Runs on every exit path so the
/// Gpu is always whole for stats collection, hang reports, post-run
/// introspection, or a misspeculation reset.
fn reassemble(gpu: &mut Gpu, shards: Vec<Mutex<Shard>>) {
    gpu.active_sms = 0;
    gpu.active_parts = 0;
    for m in shards {
        let mut g = match m.into_inner() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        // Defensive: every normal path restored the inboxes at the
        // merge; this is a no-op there and keeps the crossbar census
        // consistent on abort paths.
        g.restore_inboxes(&mut gpu.icnt);
        let (s0, n) = (g.sm0, g.sms.len());
        gpu.active_sms |= mask::place(g.active_sms, s0);
        gpu.active_parts |= mask::place(g.active_parts, g.part0);
        gpu.sm_next_ev[s0..s0 + n].copy_from_slice(&g.sm_next_ev);
        gpu.sm_last_cycled[s0..s0 + n].copy_from_slice(&g.sm_last_cycled);
        gpu.sms.append(&mut g.sms);
        gpu.parts.append(&mut g.parts);
    }
}

/// The barrier planner loop. Owns the shared clock `t` (mirrored into
/// `gpu.now` at every barrier) and decides, with all shard locks held:
/// first-error / finished / horizon / cycle-cap / watchdog / audit,
/// then plans the next round, launches pending CTAs, hands out the
/// ripe inboxes, and releases the workers.
fn drive(
    gpu: &mut Gpu,
    shards: &[Mutex<Shard>],
    until: Option<u64>,
    hop: u64,
    ctl: &Control,
) -> Outcome {
    let n_sms = gpu.cfg.num_sms;
    // (shard, local) locator per global SM, for the round-robin launch.
    let locator: Vec<(usize, usize)> = {
        let n = shards.len();
        (0..n)
            .flat_map(|i| {
                let lo = chunk_lo(n_sms, n, i);
                let hi = chunk_lo(n_sms, n, i + 1);
                (lo..hi).map(move |s| (i, s - lo))
            })
            .collect()
    };
    let mut t = gpu.now;
    let mut audited_up_to = gpu.now;
    let mut pending_round = false;

    loop {
        let mut guards: Vec<MutexGuard<'_, Shard>> = shards.iter().map(lock_shard).collect();

        if pending_round {
            let round_end = ctl.round_end.load(Ordering::Acquire);
            // Merge before anything else — including before the error
            // check: a misspeculation at cycle c invalidates the whole
            // optimistic history from c on, so it outranks any shard
            // error at a cycle ≥ c (and a shard error earlier than the
            // would-be misspeculation aborts the run before the
            // diverging cycle either way).
            if !merge_round(gpu, &mut guards) {
                return Outcome::Misspeculation;
            }
            gpu.shard_telemetry.rounds += 1;
            let mut max_stepped = 0;
            for (i, g) in guards.iter().enumerate() {
                if g.stepped == 0 {
                    gpu.shard_telemetry.barrier_stalls += 1;
                }
                gpu.shard_telemetry.per_shard_ticked[i] += g.stepped;
                max_stepped = max_stepped.max(g.stepped);
            }
            // Critical-path proxy: the round's wall time is its busiest
            // shard.
            gpu.ticked_cycles += max_stepped;
            let metric = gpu.counters.replies_delivered + gpu.total_warp_insns;
            if metric != gpu.last_progress {
                gpu.last_progress = metric;
                let mut lpc = gpu.last_progress_cycle;
                for g in guards.iter() {
                    if let Some(c) = g.progress_cycle {
                        lpc = lpc.max(c);
                    }
                }
                gpu.last_progress_cycle = lpc;
            }
            t = round_end;
            gpu.now = t;
        }

        // 1. First error across shards, in sequential phase order.
        if let Some(err) = take_first_error(&mut guards) {
            if let Some(c) = error_cycle(&err) {
                gpu.now = c;
            }
            return Outcome::Error(err);
        }

        // 2. Finished? (Mirrors `Gpu::finished` with the active sets
        // distributed across the shards.)
        let busy = guards.iter().any(|g| g.active_sms | g.active_parts != 0);
        if gpu.pending_ctas.is_empty() && gpu.icnt.in_flight() == 0 && !busy {
            // The last event cycle, not the round horizon: `run` exits
            // with `now` at the step that drained the machine.
            gpu.now = guards.iter().map(|g| g.last_stepped).max().unwrap_or(t);
            return Outcome::Finished;
        }

        // 3. `run_for` horizon reached.
        if let Some(end) = until {
            if t >= end {
                gpu.now = end;
                return Outcome::Horizon;
            }
        }

        // 4. Cycle cap (`run` only: `run_for` ignores the cap, exactly
        // like the sequential loop).
        if until.is_none() && t >= gpu.cfg.max_cycles {
            gpu.now = t;
            return Outcome::CapExceeded;
        }

        // 5. Watchdog, checked at barriers: rounds are clamped to the
        // deadline, so a quiet machine reaches it exactly.
        let wd = gpu.cfg.watchdog_cycles;
        if wd > 0 && t - gpu.last_progress_cycle >= wd {
            gpu.now = t;
            return Outcome::Hang;
        }

        // 6. Scheduled audit. Barriers land on every audit multiple
        // (round ends are clamped below); the guard keeps a `run_for`
        // re-entry from double-auditing its entry cycle.
        let ai = gpu.cfg.audit_interval;
        if ai > 0 && t > audited_up_to && t % ai == 0 {
            audited_up_to = t;
            if let Err(e) = audit_at_barrier(gpu, &guards) {
                return Outcome::Error(e);
            }
        }

        // 7. Plan the next round.
        let mut start = global_next_event(gpu, &mut guards, t);
        if wd > 0 {
            start = start.min(gpu.last_progress_cycle + wd);
        }
        if ai > 0 {
            start = start.min((t + 1).next_multiple_of(ai));
        }
        if until.is_none() {
            start = start.min(gpu.cfg.max_cycles);
        }
        let start = start.max(t + 1);

        if let Some(end) = until {
            if start > end {
                // The whole remaining horizon is dead time; account for
                // the denied launch scans and stop at the horizon,
                // exactly where the sequential `run_for` leaps to.
                if !gpu.pending_ctas.is_empty() {
                    let slots = (n_sms as u128) * u128::from(end - t);
                    if let Err(e) = advance_cursor(&mut gpu.launch_cursor, slots, t) {
                        return Outcome::Error(e);
                    }
                }
                gpu.now = end;
                return Outcome::Horizon;
            }
        }

        // Leap the gap: every skipped cycle was a fully denied launch
        // scan (the event bound proves no SM freed a slot inside it).
        if start > t + 1 && !gpu.pending_ctas.is_empty() {
            let slots = (n_sms as u128) * u128::from(start - 1 - t);
            if let Err(e) = advance_cursor(&mut gpu.launch_cursor, slots, t) {
                return Outcome::Error(e);
            }
        }

        // Launch pending CTAs at the round's first cycle.
        if let Err(e) = launch_at_barrier(gpu, &mut guards, &locator, start) {
            gpu.now = start;
            return Outcome::Error(e);
        }

        // Round horizon: a full epoch, unless CTAs are still pending
        // (launches are barrier-only and a launched CTA can finish —
        // freeing slots — any cycle, so no lookahead is safe), or a
        // watchdog deadline / audit multiple / cap / horizon lands
        // first.
        let mut round_end = if gpu.pending_ctas.is_empty() { start + hop } else { start };
        if wd > 0 {
            round_end = round_end.min(gpu.last_progress_cycle + wd);
        }
        if ai > 0 {
            round_end = round_end.min(start.next_multiple_of(ai));
        }
        if until.is_none() {
            round_end = round_end.min(gpu.cfg.max_cycles);
        }
        if let Some(end) = until {
            round_end = round_end.min(end);
        }
        debug_assert!(round_end >= start, "round horizon precedes its start");

        for g in guards.iter_mut() {
            g.prepare_round(&mut gpu.icnt, round_end);
        }
        ctl.round_start.store(start, Ordering::Release);
        ctl.round_end.store(round_end, Ordering::Release);
        drop(guards);
        ctl.go.wait();
        ctl.done.wait();
        pending_round = true;
    }
}

/// Replay the round's deferred sends into the crossbar in canonical
/// order and fold the round's statistic deltas into the Gpu. Returns
/// `false` on misspeculation (a send the sequential machine would have
/// refused).
fn merge_round(gpu: &mut Gpu, guards: &mut [MutexGuard<'_, Shard>]) -> bool {
    // Leftovers go back first: they are part of the sequential queue
    // occupancy every merged send must be checked against.
    for g in guards.iter_mut() {
        g.restore_inboxes(&mut gpu.icnt);
    }

    // Pop ledgers per global port.
    let mut fwd_led: Vec<PopLedger> =
        (0..gpu.cfg.icnt.num_partitions).map(|_| PopLedger::default()).collect();
    let mut ret_led: Vec<PopLedger> = (0..gpu.cfg.icnt.num_sms).map(|_| PopLedger::default()).collect();
    for g in guards.iter_mut() {
        let (p0, s0) = (g.part0, g.sm0);
        for (j, pops) in g.fwd_pops.iter_mut().enumerate() {
            fwd_led[p0 + j].cycles.append(pops);
        }
        for (j, pops) in g.ret_pops.iter_mut().enumerate() {
            ret_led[s0 + j].cycles.append(pops);
        }
    }

    // K-way merge of the per-shard chronological send logs.
    let mut idx = vec![0usize; guards.len()];
    let mut ok = true;
    loop {
        let mut best: Option<((u64, u8, usize), SendEvt)> = None;
        for (si, g) in guards.iter().enumerate() {
            if let Some(evt) = g.sends.get(idx[si]) {
                let key = evt.key(si);
                let better = match &best {
                    None => true,
                    Some((bk, _)) => key < *bk,
                };
                if better {
                    best = Some((key, *evt));
                }
            }
        }
        let Some(((cycle, _, si), evt)) = best else { break };
        idx[si] += 1;
        let admitted = if evt.forward {
            gpu.icnt.merge_send_fwd(evt.dst, evt.pkt, cycle, &mut |q| fwd_led[q].slack_at(cycle))
        } else {
            gpu.icnt.merge_send_ret(evt.dst, evt.pkt, cycle, &mut |q| ret_led[q].slack_at(cycle))
        };
        if !admitted {
            ok = false;
            break;
        }
    }

    for g in guards.iter_mut() {
        g.sends.clear();
        for pops in g.fwd_pops.iter_mut() {
            pops.clear();
        }
        for pops in g.ret_pops.iter_mut() {
            pops.clear();
        }
        gpu.counters.fetches_sent += g.round_fetches;
        gpu.counters.fwd_flits_delivered += g.round_fwd_flits;
        gpu.counters.ret_flits_delivered += g.round_ret_flits;
        gpu.counters.replies_delivered += g.round_replies;
        gpu.total_warp_insns += g.round_insns;
        g.round_fetches = 0;
        g.round_fwd_flits = 0;
        g.round_ret_flits = 0;
        g.round_replies = 0;
        g.round_insns = 0;
    }
    ok
}

/// Take the globally first error across shards (sequential order).
fn take_first_error(guards: &mut [MutexGuard<'_, Shard>]) -> Option<SimError> {
    let winner = guards
        .iter()
        .enumerate()
        .filter_map(|(i, g)| g.error.as_ref().map(|e| (e.key(), i)))
        .min()?;
    guards[winner.1].error.take().map(|e| e.err)
}

/// The cycle an error names, for syncing `gpu.now` to the sequential
/// abort point.
fn error_cycle(err: &SimError) -> Option<u64> {
    match err {
        SimError::MshrViolation { cycle, .. }
        | SimError::PartitionFault { cycle, .. }
        | SimError::PacketMisrouted { cycle, .. }
        | SimError::WarpStateCorrupt { cycle, .. }
        | SimError::LaunchCursorOverflow { cycle, .. }
        | SimError::InvariantViolation { cycle, .. } => Some(*cycle),
        SimError::Hang(_) | SimError::CycleCapExceeded(_) => None,
    }
}

/// Earliest cycle after `t` at which anything in the machine can act:
/// a launchable CTA (next cycle), or any shard component / crossbar
/// queue event. `u64::MAX` degrades to `t + 1` (a dropped-packet
/// deadlock with the watchdog off creeps toward the cap, exactly as
/// the sequential loop ticks).
fn global_next_event(gpu: &Gpu, guards: &mut [MutexGuard<'_, Shard>], t: u64) -> u64 {
    if !gpu.pending_ctas.is_empty() {
        let wpc = gpu.kernel.grid().warps_per_cta;
        if guards.iter().any(|g| g.sms.iter().any(|sm| sm.can_accept_cta(wpc))) {
            return t + 1;
        }
    }
    let mut s = u64::MAX;
    for g in guards.iter_mut() {
        s = s.min(g.next_event_bound(t, &gpu.icnt));
    }
    if s == u64::MAX {
        t + 1
    } else {
        s
    }
}

/// The sequential round-robin CTA launch scan, executed at a barrier
/// against the sharded SMs via the `(shard, local)` locator.
fn launch_at_barrier(
    gpu: &mut Gpu,
    guards: &mut [MutexGuard<'_, Shard>],
    locator: &[(usize, usize)],
    now: u64,
) -> Result<(), SimError> {
    if gpu.pending_ctas.is_empty() {
        return Ok(());
    }
    let wpc = gpu.kernel.grid().warps_per_cta;
    let n = locator.len();
    let mut denied = 0;
    while denied < n && !gpu.pending_ctas.is_empty() {
        let (si, j) = locator[gpu.launch_cursor % n];
        let g = &mut guards[si];
        if g.sms[j].can_accept_cta(wpc) {
            let Some(cta) = gpu.pending_ctas.pop_front() else { break };
            let warps = (0..wpc).map(|w| gpu.kernel.warp_stream(cta, w)).collect();
            g.sms[j].launch_cta(cta, warps);
            // External input wakes the SM (mirrors `mark_sm_busy`).
            g.sm_next_ev[j] = 0;
            g.active_sms |= mask::bit(j);
            denied = 0;
        } else {
            denied += 1;
        }
        advance_cursor(&mut gpu.launch_cursor, 1, now)?;
    }
    Ok(())
}

/// Run the invariant audit against the sharded machine at a barrier:
/// the crossbar is authoritative (the round was merged) and the
/// components are collected from the shards in global order.
fn audit_at_barrier(gpu: &Gpu, guards: &[MutexGuard<'_, Shard>]) -> Result<(), SimError> {
    let sms: Vec<&Sm> = guards.iter().flat_map(|g| g.sms.iter()).collect();
    let parts: Vec<&MemoryPartition> = guards.iter().flat_map(|g| g.parts.iter()).collect();
    audit_machine(gpu.now, &gpu.counters, &gpu.icnt, &sms, &parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pop_ledger_slack_counts_pops_at_or_after_t() {
        let mut led = PopLedger { cycles: vec![10, 10, 12, 40], ptr: 0 };
        assert_eq!(led.slack_at(5), 4, "nothing popped yet at cycle 5");
        assert_eq!(led.slack_at(10), 4, "same-cycle pops still occupy the queue at send time");
        assert_eq!(led.slack_at(11), 2);
        assert_eq!(led.slack_at(41), 0);
    }

    #[test]
    fn chunking_is_contiguous_and_complete() {
        for total in [1usize, 2, 12, 16, 17] {
            for n in 1..=total {
                let mut seen = 0;
                for i in 0..n {
                    let (lo, hi) = (chunk_lo(total, n, i), chunk_lo(total, n, i + 1));
                    assert_eq!(lo, seen, "chunks must be contiguous");
                    assert!(hi >= lo);
                    seen = hi;
                }
                assert_eq!(seen, total, "chunks must cover every component");
            }
        }
    }

    #[test]
    fn send_key_orders_forward_before_return_within_a_cycle() {
        let pkt = Packet {
            kind: gpu_mem::packet::PacketKind::ReadReq,
            addr: 0,
            req: gpu_mem::packet::MemReq {
                id: 0,
                addr: 0,
                is_write: false,
                pc: 0,
                sm: 0,
                warp: 0,
                dst_reg: 0,
                born: 0,
            },
        };
        let fwd = SendEvt { cycle: 7, forward: true, dst: 0, pkt };
        let ret = SendEvt { cycle: 7, forward: false, dst: 0, pkt };
        assert!(fwd.key(3) < ret.key(0), "phase 3 (fwd) precedes phase 4 (ret) at equal cycles");
        assert!(fwd.key(0) < fwd.key(1), "shard order breaks ties within (cycle, dir)");
        assert!(ret.key(9) < SendEvt { cycle: 8, forward: true, dst: 0, pkt }.key(0));
    }
}
