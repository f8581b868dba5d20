//! Banked GDDR5-style DRAM timing for one memory partition.
//!
//! Table 1: each of the 12 partitions owns a 32-bit-wide GDDR5 channel
//! with 6 banks at 924 MHz command clock. GDDR5 is quad-pumped, so a
//! 128-byte line transfers in 8 command-clock cycles (16 bytes per
//! cycle). The model keeps per-bank row-buffer state and a shared data
//! bus:
//!
//! * row-buffer hit → `tCL` before data;
//! * row-buffer miss → `tRP + tRCD + tCL` (precharge, activate, CAS);
//! * data occupies the bus for `burst` cycles; the bus serializes
//!   transfers across banks.
//!
//! Requests are scheduled FCFS per bank with round-robin arbitration for
//! the bus — deliberately simpler than FR-FCFS, but it preserves what
//! the evaluation needs: bank-level parallelism, row locality, and a
//! hard bandwidth ceiling.

use crate::fault::{FaultInjector, FaultKind, FaultSite};
use crate::packet::Packet;
use std::collections::VecDeque;

/// DRAM timing/geometry parameters (command-clock cycles).
#[derive(Clone, Copy, Debug)]
pub struct DramConfig {
    /// Banks per partition (Table 1: 6).
    pub num_banks: usize,
    /// Row precharge.
    pub t_rp: u64,
    /// Row activate (RAS-to-CAS).
    pub t_rcd: u64,
    /// CAS latency.
    pub t_cl: u64,
    /// Data-bus cycles per 128-byte transfer (quad-pumped 32-bit bus →
    /// 16 B/cycle → 8 cycles).
    pub burst: u64,
    /// Bytes per DRAM row (row-buffer reach per bank).
    pub row_bytes: u64,
    /// Per-bank request queue depth.
    pub queue_depth: usize,
}

impl DramConfig {
    /// GDDR5 timings in the Tesla M2090 ballpark.
    pub fn gddr5() -> Self {
        DramConfig {
            num_banks: 6,
            t_rp: 12,
            t_rcd: 12,
            t_cl: 12,
            burst: 8,
            row_bytes: 2048,
            queue_depth: 16,
        }
    }
}

/// One queued DRAM operation. Reads carry the packet to answer; writes
/// (L2 writebacks) complete silently.
#[derive(Clone, Copy, Debug)]
pub struct DramCmd {
    /// Line-aligned byte address.
    pub addr: u64,
    /// Write (no reply needed).
    pub is_write: bool,
    /// For reads: the L2-level packet awaiting this data.
    pub pkt: Option<Packet>,
}

struct Bank {
    open_row: Option<u64>,
    busy_until: u64,
    queue: VecDeque<DramCmd>,
}

dlp_core::counters! {
    /// DRAM counters.
    #[derive(Copy)]
    pub struct DramStats {
        /// Read bursts completed.
        pub reads: u64,
        /// Write bursts completed.
        pub writes: u64,
        /// Accesses that found their row open.
        pub row_hits: u64,
        /// Accesses that needed precharge + activate.
        pub row_misses: u64,
    }
}

/// One partition's DRAM channel. Advanced by [`Dram::tick`] at the
/// memory command clock (924 MHz in Table 1).
pub struct Dram {
    cfg: DramConfig,
    banks: Vec<Bank>,
    bus_busy_until: u64,
    now: u64,
    rr_next_bank: usize,
    /// Commands sitting in bank queues (all banks), maintained
    /// incrementally so [`Dram::idle`] is O(1).
    queued: usize,
    /// Earliest command-clock cycle at which any bank with queued work
    /// could start its next burst (`u64::MAX` when no bank has work).
    /// Lets [`Dram::tick`] skip the round-robin scan while every queued
    /// bank is still busy — a pure fast path, since no command could
    /// start in that window anyway.
    earliest_start: u64,
    completed: VecDeque<(u64, DramCmd)>,
    /// Optional deterministic corruption of read completions.
    fault: Option<FaultInjector>,
    stats: DramStats,
}

impl Dram {
    /// Build an idle channel.
    pub fn new(cfg: DramConfig) -> Self {
        Dram {
            banks: (0..cfg.num_banks)
                .map(|_| Bank { open_row: None, busy_until: 0, queue: VecDeque::new() })
                .collect(),
            bus_busy_until: 0,
            now: 0,
            rr_next_bank: 0,
            queued: 0,
            earliest_start: u64::MAX,
            completed: VecDeque::new(),
            fault: None,
            stats: DramStats::default(),
            cfg,
        }
    }

    /// Attach a fault injector corrupting read completions
    /// ([`FaultSite::Dram`]).
    pub fn set_fault_injector(&mut self, inj: FaultInjector) {
        self.fault = Some(inj);
    }

    /// Faults injected so far (0 when no injector is attached).
    pub fn faults_injected(&self) -> u64 {
        self.fault.as_ref().map_or(0, |f| f.injected())
    }

    #[inline]
    fn bank_of(&self, addr: u64) -> usize {
        // Consecutive rows map to different banks so streams exploit
        // bank-level parallelism.
        ((addr / self.cfg.row_bytes) % self.cfg.num_banks as u64) as usize
    }

    #[inline]
    fn row_of(&self, addr: u64) -> u64 {
        addr / (self.cfg.row_bytes * self.cfg.num_banks as u64)
    }

    /// Can another command be queued for `addr`'s bank?
    pub fn can_accept(&self, addr: u64) -> bool {
        self.can_accept_n(addr, 1)
    }

    /// Can `n` more commands be queued for `addr`'s bank? Callers that
    /// must enqueue a fetch *and* a victim writeback atomically check
    /// with the combined count when both map to one bank.
    pub fn can_accept_n(&self, addr: u64, n: usize) -> bool {
        self.banks[self.bank_of(addr)].queue.len() + n <= self.cfg.queue_depth
    }

    /// Do two addresses share a bank queue?
    pub fn same_bank(&self, a: u64, b: u64) -> bool {
        self.bank_of(a) == self.bank_of(b)
    }

    /// Queue a command. Caller must have checked [`Dram::can_accept`].
    pub fn enqueue(&mut self, cmd: DramCmd) {
        let b = self.bank_of(cmd.addr);
        assert!(self.banks[b].queue.len() < self.cfg.queue_depth, "DRAM bank queue overflow");
        self.banks[b].queue.push_back(cmd);
        self.queued += 1;
        self.earliest_start = self.earliest_start.min(self.banks[b].busy_until);
    }

    /// Advance one command-clock cycle: start at most one new burst (the
    /// bus admits one transfer at a time) and retire finished ones.
    pub fn tick(&mut self) {
        self.now += 1;
        if self.earliest_start > self.now {
            // No bank with queued work can start yet: the scan below
            // would find nothing, so skip it (round-robin state only
            // changes on a successful start).
            return;
        }
        let n = self.banks.len();
        for i in 0..n {
            let b = (self.rr_next_bank + i) % n;
            if self.try_start(b) {
                self.rr_next_bank = (b + 1) % n;
                break;
            }
        }
        self.earliest_start = self
            .banks
            .iter()
            .filter(|b| !b.queue.is_empty())
            .map(|b| b.busy_until)
            .min()
            .unwrap_or(u64::MAX);
    }

    fn try_start(&mut self, b: usize) -> bool {
        let Some(&cmd) = self.banks[b].queue.front() else {
            return false;
        };
        if self.banks[b].busy_until > self.now {
            return false;
        }
        let row = self.row_of(cmd.addr);
        let access_lat = if self.banks[b].open_row == Some(row) {
            self.stats.row_hits += 1;
            self.cfg.t_cl
        } else {
            self.stats.row_misses += 1;
            self.cfg.t_rp + self.cfg.t_rcd + self.cfg.t_cl
        };
        let data_start = (self.now + access_lat).max(self.bus_busy_until);
        let done = data_start + self.cfg.burst;
        self.bus_busy_until = done;
        let bank = &mut self.banks[b];
        bank.busy_until = done;
        bank.open_row = Some(row);
        bank.queue.pop_front();
        self.queued -= 1;
        if cmd.is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        // Fault injection acts on read completions only: writes finish
        // silently, so corrupting them would be invisible by design.
        let injected = if cmd.is_write {
            None
        } else {
            self.fault.as_mut().and_then(|f| f.should_inject(FaultSite::Dram))
        };
        match injected {
            Some(FaultKind::Drop) => {} // the burst never reports completion
            Some(FaultKind::Duplicate) => {
                self.completed.push_back((done, cmd));
                self.completed.push_back((done, cmd));
            }
            Some(FaultKind::Delay) => {
                let delay = self.fault.as_ref().map_or(0, |f| f.delay_cycles());
                self.completed.push_back((done + delay, cmd));
            }
            Some(FaultKind::Misroute) => {
                // Address corruption: the completion names a different
                // line than was fetched.
                self.completed.push_back((done, DramCmd { addr: cmd.addr ^ (1 << 20), ..cmd }));
            }
            None => self.completed.push_back((done, cmd)),
        }
        true
    }

    /// Commands started so far. Each start drains a bank queue slot, so
    /// a caller refused admission can tell from this count whether
    /// anything has changed since.
    pub fn commands_started(&self) -> u64 {
        self.stats.reads + self.stats.writes
    }

    /// Pop the next finished command (data on the bus by now), if any.
    /// Writes are popped too so the caller can drop them.
    pub fn pop_completed(&mut self) -> Option<DramCmd> {
        // Completions were pushed in bus-grant order, which is also
        // data-completion order (the bus serializes), so FIFO works.
        match self.completed.front() {
            Some(&(ready, _)) if ready <= self.now => self.completed.pop_front().map(|(_, c)| c),
            _ => None,
        }
    }

    /// Outstanding work (queued + in flight)? O(1): the queue census is
    /// maintained incrementally, so idle-skip can poll this every cycle.
    pub fn idle(&self) -> bool {
        self.completed.is_empty() && self.queued == 0
    }

    /// Earliest command-clock cycle at which this channel could do
    /// anything observable: retire the oldest completed burst (the
    /// completion queue is FIFO in data order, so its head gates
    /// [`Dram::pop_completed`]) or start a queued command (the
    /// `earliest_start` watermark). `None` when the channel is idle.
    ///
    /// Conservative by construction: every [`Dram::tick`] strictly
    /// before the returned cycle reduces to `now += 1` — no bank can
    /// start (the watermark says so) and no completion can surface
    /// (the head is not ready) — which is what licenses
    /// [`Dram::advance_quiet`] over the gap.
    pub fn next_activity(&self) -> Option<u64> {
        let mut t = u64::MAX;
        if let Some(&(ready, _)) = self.completed.front() {
            t = t.min(ready.max(self.now + 1));
        }
        if self.queued > 0 {
            t = t.min(self.earliest_start.max(self.now + 1));
        }
        (t != u64::MAX).then_some(t)
    }

    /// Fast-forward a **quiet** channel by `ticks` command-clock cycles.
    ///
    /// Generalizes the idle-skip of PR 2: whenever every skipped tick
    /// falls strictly before [`Dram::next_activity`], each [`Dram::tick`]
    /// reduces to `now += 1` (no bank can start, no completion ripens),
    /// so the stretch can be accounted arithmetically. Bank and bus
    /// `busy_until` marks as well as open rows are left untouched —
    /// exactly what repeated quiet ticks would have done — which keeps
    /// leapt runs byte-identical to fully ticked ones.
    pub fn advance_quiet(&mut self, ticks: u64) {
        debug_assert!(
            self.next_activity().is_none_or(|a| a > self.now + ticks),
            "advance_quiet across a scheduled DRAM event (now {}, ticks {ticks})",
            self.now
        );
        self.now += ticks;
    }

    /// Discard all queued and completed commands (sampling-mode
    /// fast-forward). The partition resolves every outstanding line
    /// functionally during the drain, so commands still sitting here
    /// would otherwise surface as duplicate fills in the next detailed
    /// window. Timing residue (`busy_until`, open rows, `now`) is left
    /// in place: it only ages the first post-gap accesses, exactly like
    /// a real warm-up.
    pub fn discard_in_flight(&mut self) {
        for b in &mut self.banks {
            b.queue.clear();
        }
        self.queued = 0;
        self.earliest_start = u64::MAX;
        self.completed.clear();
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Current command-clock time (tests).
    pub fn now(&self) -> u64 {
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(addr: u64) -> DramCmd {
        DramCmd { addr, is_write: false, pkt: None }
    }

    fn drain_one(d: &mut Dram, max_ticks: u64) -> u64 {
        for _ in 0..max_ticks {
            d.tick();
            if d.pop_completed().is_some() {
                return d.now();
            }
        }
        panic!("command did not complete in {max_ticks} ticks");
    }

    #[test]
    fn closed_row_access_takes_full_latency() {
        let mut d = Dram::new(DramConfig::gddr5());
        d.enqueue(read(0));
        // tRP+tRCD+tCL = 36, +burst 8 = 44, started at tick 1.
        let done = drain_one(&mut d, 100);
        assert_eq!(done, 1 + 36 + 8);
    }

    #[test]
    fn open_row_access_is_faster() {
        let mut d = Dram::new(DramConfig::gddr5());
        d.enqueue(read(0));
        let first = drain_one(&mut d, 100);
        d.enqueue(read(128)); // same row
        let second = drain_one(&mut d, 100);
        assert!(second - first < 36 + 8 + 2, "row hit must be much faster");
        assert_eq!(d.stats().row_hits, 1);
        assert_eq!(d.stats().row_misses, 1);
    }

    #[test]
    fn different_banks_overlap_but_share_the_bus() {
        let mut d = Dram::new(DramConfig::gddr5());
        // Two reads to different banks issued together: activations
        // overlap, bursts serialize on the bus -> both done well before
        // 2× the serial time.
        d.enqueue(read(0));
        d.enqueue(read(2048)); // next bank
        let mut done = Vec::new();
        for _ in 0..200 {
            d.tick();
            while d.pop_completed().is_some() {
                done.push(d.now());
            }
            if done.len() == 2 {
                break;
            }
        }
        assert_eq!(done.len(), 2);
        assert!(done[1] <= 1 + 36 + 8 + 8 + 1, "second burst should only add bus time, got {}", done[1]);
    }

    #[test]
    fn same_bank_requests_serialize() {
        let mut d = Dram::new(DramConfig::gddr5());
        d.enqueue(read(0));
        d.enqueue(read(0)); // same row, same bank
        let mut done = Vec::new();
        for _ in 0..300 {
            d.tick();
            while d.pop_completed().is_some() {
                done.push(d.now());
            }
            if done.len() == 2 {
                break;
            }
        }
        assert!(done[1] > done[0]);
        assert_eq!(d.stats().row_hits, 1);
    }

    #[test]
    fn writes_complete_silently_and_count() {
        let mut d = Dram::new(DramConfig::gddr5());
        d.enqueue(DramCmd { addr: 0, is_write: true, pkt: None });
        let _ = drain_one(&mut d, 100);
        assert_eq!(d.stats().writes, 1);
        assert!(d.idle());
    }

    #[test]
    fn backpressure_via_can_accept() {
        let cfg = DramConfig { queue_depth: 2, ..DramConfig::gddr5() };
        let mut d = Dram::new(cfg);
        assert!(d.can_accept(0));
        d.enqueue(read(0));
        d.enqueue(read(0));
        assert!(!d.can_accept(0));
        assert!(d.can_accept(2048), "other banks unaffected");
    }

    #[test]
    fn dropped_read_never_completes() {
        use crate::fault::FaultConfig;
        let mut d = Dram::new(DramConfig::gddr5());
        d.set_fault_injector(FaultInjector::new(FaultConfig::single(
            FaultKind::Drop,
            FaultSite::Dram,
            5,
        )));
        d.enqueue(read(0));
        for _ in 0..500 {
            d.tick();
            assert!(d.pop_completed().is_none(), "the dropped burst must never surface");
        }
        assert_eq!(d.stats().reads, 1, "the burst was issued and counted");
        assert_eq!(d.faults_injected(), 1);
    }

    #[test]
    fn next_activity_predicts_first_observable_tick() {
        let mut d = Dram::new(DramConfig::gddr5());
        assert_eq!(d.next_activity(), None);
        d.enqueue(read(0));
        let start = d.next_activity().unwrap();
        d.advance_quiet(start - d.now() - 1);
        d.tick();
        assert_eq!(d.stats().reads, 1, "command starts at the predicted cycle");
        let done = d.next_activity().unwrap();
        d.advance_quiet(done - d.now() - 1);
        assert!(d.pop_completed().is_none(), "completion must not surface early");
        d.tick();
        assert!(d.pop_completed().is_some(), "completion surfaces at the predicted cycle");
        assert_eq!(d.next_activity(), None);
    }

    #[test]
    fn next_activity_covers_delayed_completions() {
        use crate::fault::FaultConfig;
        let mut d = Dram::new(DramConfig::gddr5());
        d.set_fault_injector(FaultInjector::new(FaultConfig::single(
            FaultKind::Delay,
            FaultSite::Dram,
            5,
        )));
        d.enqueue(read(0));
        // Tick until the burst starts, then the completion (including the
        // injected delay) must be exactly where next_activity says.
        while d.stats().reads == 0 {
            d.tick();
        }
        let done = d.next_activity().unwrap();
        d.advance_quiet(done - d.now() - 1);
        assert!(d.pop_completed().is_none());
        d.tick();
        assert!(d.pop_completed().is_some());
    }

    #[test]
    fn bandwidth_ceiling_respected() {
        // Saturate with row hits across banks: steady state must not
        // exceed one 128B burst per `burst` cycles.
        let mut d = Dram::new(DramConfig::gddr5());
        let mut completed = 0u64;
        let mut issued = 0u64;
        for t in 0..10_000u64 {
            if t % 4 == 0 && d.can_accept(issued * 128) {
                d.enqueue(read((issued * 128) % (2048 * 6)));
                issued += 1;
            }
            d.tick();
            while d.pop_completed().is_some() {
                completed += 1;
            }
        }
        let max_possible = 10_000 / DramConfig::gddr5().burst;
        assert!(completed <= max_possible);
        assert!(completed > max_possible / 2, "should approach the ceiling, got {completed}");
    }
}
