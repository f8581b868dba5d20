//! The SM ↔ memory-partition crossbar.
//!
//! A packet-granular model of a crossbar with 32-byte flits: each
//! destination port serializes arriving packets at one flit per
//! interconnect cycle, packets then traverse a fixed hop latency, and
//! bounded per-destination queues provide backpressure. Flits are
//! counted in both directions — the paper's interconnect-traffic metric
//! (Figure 13).
//!
//! The model captures what the DLP evaluation depends on: bandwidth
//! contention at hot memory partitions, serialization of data-carrying
//! packets (5 flits) vs control packets (1 flit), and finite buffering.

use crate::fault::{FaultInjector, FaultKind, FaultSite};
use crate::mask;
use crate::packet::Packet;
use crate::stats::IcntStats;
use std::collections::VecDeque;

/// Crossbar parameters.
#[derive(Clone, Copy, Debug)]
pub struct IcntConfig {
    /// Number of SM-side ports.
    pub num_sms: usize,
    /// Number of partition-side ports.
    pub num_partitions: usize,
    /// Pipeline latency (cycles) added to every traversal.
    pub hop_latency: u64,
    /// Packets a destination queue holds before refusing traffic.
    pub queue_capacity: usize,
    /// Flits a port serializes per cycle (Fermi's crossbar runs ahead
    /// of the core clock, moving ~2 flits per core cycle).
    pub flits_per_cycle: u64,
}

impl IcntConfig {
    /// Table 1's platform: 16 SMs, 12 memory partitions.
    pub fn fermi() -> Self {
        IcntConfig {
            num_sms: 16,
            num_partitions: 12,
            hop_latency: 40,
            queue_capacity: 16,
            flits_per_cycle: 2,
        }
    }
}

struct Port {
    /// Cycle until which this destination port is busy serializing.
    busy_until: u64,
    /// Delivered packets waiting to be popped, with their ready cycles
    /// (monotonically nondecreasing by construction).
    queue: VecDeque<(u64, Packet)>,
}

impl Port {
    fn new() -> Self {
        Port { busy_until: 0, queue: VecDeque::new() }
    }

    /// Ready cycle of the queue head, `u64::MAX` when empty.
    fn head_ready(&self) -> u64 {
        self.queue.front().map_or(u64::MAX, |&(ready, _)| ready)
    }
}

/// The crossbar.
pub struct Interconnect {
    cfg: IcntConfig,
    /// Forward direction: one port per partition.
    fwd: Vec<Port>,
    /// Return direction: one port per SM.
    ret: Vec<Port>,
    /// Optional deterministic packet corruption (integrity testing).
    fault: Option<FaultInjector>,
    /// Undelivered packets across all ports, maintained incrementally so
    /// [`Interconnect::in_flight`] is O(1) (it is polled every cycle by
    /// the GPU's `finished()` check).
    in_flight_count: usize,
    /// Ports with a non-empty queue, one bit per port and direction
    /// ([`crate::mask`]): the clock loop ejects from and probes only
    /// these. Kept exact — bit set iff the queue holds a packet — by
    /// every push and removal below.
    fwd_nonempty: u64,
    ret_nonempty: u64,
    /// Ready cycle of each port's queue head, `u64::MAX` for an empty
    /// queue, one flat array per direction. Ejection and the event
    /// core's bound read these instead of the queues ([`Self::fwd_due`],
    /// [`Self::next_fwd_ready`]); kept exact wherever a queue's head
    /// changes. Sized to the port limit rather than heap-allocated: as
    /// vectors, these and two of `Gpu`'s arrays cost the sampled
    /// benchmark's set-up pass 6 % (EXPERIMENTS.md "Accelerator
    /// verdicts").
    fwd_head: [u64; mask::MAX],
    ret_head: [u64; mask::MAX],
    stats: IcntStats,
}

impl Interconnect {
    /// Build for the given shape. At most [`mask::MAX`] ports per
    /// direction.
    pub fn new(cfg: IcntConfig) -> Self {
        assert!(
            cfg.num_sms <= mask::MAX && cfg.num_partitions <= mask::MAX,
            "crossbar of {} SM and {} partition ports exceeds the {}-port limit",
            cfg.num_sms,
            cfg.num_partitions,
            mask::MAX
        );
        Interconnect {
            fwd: (0..cfg.num_partitions).map(|_| Port::new()).collect(),
            ret: (0..cfg.num_sms).map(|_| Port::new()).collect(),
            fault: None,
            in_flight_count: 0,
            fwd_nonempty: 0,
            ret_nonempty: 0,
            fwd_head: [u64::MAX; mask::MAX],
            ret_head: [u64::MAX; mask::MAX],
            stats: IcntStats::default(),
            cfg,
        }
    }

    /// Attach a fault injector corrupting traffic at its configured
    /// site ([`FaultSite::IcntForward`] or [`FaultSite::IcntReturn`]).
    pub fn set_fault_injector(&mut self, inj: FaultInjector) {
        self.fault = Some(inj);
    }

    /// Faults injected so far (0 when no injector is attached).
    pub fn faults_injected(&self) -> u64 {
        self.fault.as_ref().map_or(0, |f| f.injected())
    }

    /// Which partition services a byte address: 256-byte chunks are
    /// interleaved across partitions (GPGPU-Sim's default mapping).
    pub fn partition_of(&self, addr: u64) -> usize {
        ((addr / 256) % self.cfg.num_partitions as u64) as usize
    }

    fn try_send(
        port: &mut Port,
        cfg: &IcntConfig,
        pkt: Packet,
        now: u64,
        extra: u64,
    ) -> Option<u64> {
        if port.queue.len() >= cfg.queue_capacity {
            return None;
        }
        let start = port.busy_until.max(now);
        let done = start + pkt.flits().div_ceil(cfg.flits_per_cycle);
        port.busy_until = done;
        port.queue.push_back((done + cfg.hop_latency + extra, pkt));
        Some(pkt.flits())
    }

    /// Accept an already-admitted packet, applying any injected fault.
    /// Returns the flits serialized (0 when the packet was dropped or a
    /// misrouted copy found its new port full — both are faults).
    fn send_faulted(&mut self, forward: bool, dst: usize, pkt: Packet, now: u64) -> u64 {
        let site = if forward { FaultSite::IcntForward } else { FaultSite::IcntReturn };
        let (mut dst, mut extra, mut copies) = (dst, 0, 1);
        match self.fault.as_mut().and_then(|f| f.should_inject(site)) {
            Some(FaultKind::Drop) => {
                // The sender saw the packet accepted; it was serialized
                // but never reaches a queue.
                return pkt.flits();
            }
            Some(FaultKind::Duplicate) => copies = 2,
            Some(FaultKind::Delay) => {
                extra = self.fault.as_ref().map_or(0, |f| f.delay_cycles());
            }
            Some(FaultKind::Misroute) => {
                let ports = if forward { self.cfg.num_partitions } else { self.cfg.num_sms };
                dst = (dst + 1) % ports;
            }
            None => {}
        }
        let mut flits = 0;
        for _ in 0..copies {
            let (port, nonempty, head) = if forward {
                (&mut self.fwd[dst], &mut self.fwd_nonempty, &mut self.fwd_head)
            } else {
                (&mut self.ret[dst], &mut self.ret_nonempty, &mut self.ret_head)
            };
            if let Some(f) = Self::try_send(port, &self.cfg, pkt, now, extra) {
                flits += f;
                self.in_flight_count += 1;
                *nonempty |= mask::bit(dst);
                head[dst] = Port::head_ready(port);
            }
        }
        flits
    }

    /// Inject a packet toward partition `dst`. `false` means the
    /// destination queue is full (sender must retry later).
    pub fn try_send_fwd(&mut self, dst: usize, pkt: Packet, now: u64) -> bool {
        if self.fwd[dst].queue.len() >= self.cfg.queue_capacity {
            self.stats.rejects += 1;
            return false;
        }
        self.stats.fwd_flits += self.send_faulted(true, dst, pkt, now).max(pkt.flits());
        true
    }

    /// Inject a packet toward SM `dst` (return direction).
    pub fn try_send_ret(&mut self, dst: usize, pkt: Packet, now: u64) -> bool {
        if self.ret[dst].queue.len() >= self.cfg.queue_capacity {
            self.stats.rejects += 1;
            return false;
        }
        self.stats.ret_flits += self.send_faulted(false, dst, pkt, now).max(pkt.flits());
        true
    }

    /// Deliver partition `dst`'s whole forward queue at once, in FIFO
    /// order, regardless of ready stamps — the functional drain before a
    /// sampled fast-forward, where in-flight packets arrive instantly.
    pub fn drain_fwd(&mut self, dst: usize) -> impl Iterator<Item = Packet> + '_ {
        self.fwd_nonempty &= !mask::bit(dst);
        self.fwd_head[dst] = u64::MAX;
        Self::drain(&mut self.fwd[dst], &mut self.in_flight_count)
    }

    /// Deliver SM `dst`'s whole return queue at once (see
    /// [`Interconnect::drain_fwd`]).
    pub fn drain_ret(&mut self, dst: usize) -> impl Iterator<Item = Packet> + '_ {
        self.ret_nonempty &= !mask::bit(dst);
        self.ret_head[dst] = u64::MAX;
        Self::drain(&mut self.ret[dst], &mut self.in_flight_count)
    }

    /// Empty one queue, keeping its buffer for the next window's traffic.
    fn drain<'a>(port: &'a mut Port, in_flight: &mut usize) -> impl Iterator<Item = Packet> + 'a {
        *in_flight -= port.queue.len();
        port.queue.drain(..).map(|(_, pkt)| pkt)
    }

    fn pop(
        port: &mut Port,
        nonempty: &mut u64,
        head: &mut u64,
        dst: usize,
        now: u64,
    ) -> Option<Packet> {
        if *head > now {
            return None;
        }
        let pkt = port.queue.pop_front().map(|(_, p)| p);
        *head = port.head_ready();
        if port.queue.is_empty() {
            *nonempty &= !mask::bit(dst);
        }
        pkt
    }

    /// Eject the next delivered packet at partition `dst`, if one has
    /// arrived by `now`.
    pub fn pop_fwd(&mut self, dst: usize, now: u64) -> Option<Packet> {
        let head = &mut self.fwd_head[dst];
        let pkt = Self::pop(&mut self.fwd[dst], &mut self.fwd_nonempty, head, dst, now);
        if pkt.is_some() {
            self.in_flight_count -= 1;
        }
        pkt
    }

    /// Eject the next delivered packet at SM `dst`.
    pub fn pop_ret(&mut self, dst: usize, now: u64) -> Option<Packet> {
        let head = &mut self.ret_head[dst];
        let pkt = Self::pop(&mut self.ret[dst], &mut self.ret_nonempty, head, dst, now);
        if pkt.is_some() {
            self.in_flight_count -= 1;
        }
        pkt
    }

    /// Packets still somewhere in the network (either direction). O(1).
    pub fn in_flight(&self) -> usize {
        debug_assert_eq!(
            self.in_flight_count,
            self.fwd.iter().chain(self.ret.iter()).map(|p| p.queue.len()).sum::<usize>(),
            "incremental in-flight census out of sync"
        );
        debug_assert!(self.masks_match_queues(), "port masks or head-ready stamps out of sync");
        self.in_flight_count
    }

    /// Partition ports whose forward queue holds a packet, one bit per
    /// port ([`crate::mask`]).
    pub fn fwd_nonempty(&self) -> u64 {
        self.fwd_nonempty
    }

    /// SM ports whose return queue holds a packet.
    pub fn ret_nonempty(&self) -> u64 {
        self.ret_nonempty
    }

    /// Partition ports whose forward head has arrived by `now`: the
    /// ports the ejection phase must visit.
    pub fn fwd_due(&self, now: u64) -> u64 {
        Self::due(self.fwd_nonempty, &self.fwd_head, now)
    }

    /// SM ports whose return head has arrived by `now`.
    pub fn ret_due(&self, now: u64) -> u64 {
        Self::due(self.ret_nonempty, &self.ret_head, now)
    }

    fn due(nonempty: u64, head: &[u64], now: u64) -> u64 {
        mask::ones(nonempty).filter(|&p| head[p] <= now).fold(0, |m, p| m | mask::bit(p))
    }

    /// Does each direction's non-empty mask name exactly the ports with
    /// a queued packet, and each head-ready entry its queue's head?
    fn masks_match_queues(&self) -> bool {
        let of = |ports: &[Port]| {
            ports
                .iter()
                .enumerate()
                .filter(|(_, p)| !p.queue.is_empty())
                .fold(0u64, |m, (i, _)| m | mask::bit(i))
        };
        let heads = |ports: &[Port], head: &[u64]| {
            ports.iter().zip(head.iter()).all(|(p, &h)| p.head_ready() == h)
        };
        of(&self.fwd) == self.fwd_nonempty
            && of(&self.ret) == self.ret_nonempty
            && heads(&self.fwd, &self.fwd_head)
            && heads(&self.ret, &self.ret_head)
    }

    /// Ready cycle of the oldest undelivered forward packet for
    /// partition `dst`, if any. Ejection is FIFO ([`Interconnect::pop_fwd`]
    /// only ever examines the queue head), so the head's ready cycle is
    /// exactly the earliest cycle at which this port can deliver — even
    /// when an injected delay gives the head a later ready cycle than
    /// its followers. Used by the cycle-leap event core.
    pub fn next_fwd_ready(&self, dst: usize) -> Option<u64> {
        let ready = self.fwd_head[dst];
        (ready != u64::MAX).then_some(ready)
    }

    /// Ready cycle of the oldest undelivered return packet for SM
    /// `dst`, if any (see [`Interconnect::next_fwd_ready`]).
    pub fn next_ret_ready(&self, dst: usize) -> Option<u64> {
        let ready = self.ret_head[dst];
        (ready != u64::MAX).then_some(ready)
    }

    /// Per-partition forward-queue depths (hang diagnostics).
    pub fn fwd_queue_depths(&self) -> Vec<usize> {
        self.fwd.iter().map(|p| p.queue.len()).collect()
    }

    /// Per-SM return-queue depths (hang diagnostics).
    pub fn ret_queue_depths(&self) -> Vec<usize> {
        self.ret.iter().map(|p| p.queue.len()).collect()
    }

    /// In-flight forward packets that expect a reply — the reply-
    /// conservation auditor's census of requests still in the network.
    pub fn fwd_expecting_reply(&self) -> usize {
        self.fwd
            .iter()
            .flat_map(|p| p.queue.iter())
            .filter(|(_, pkt)| pkt.kind.expects_reply())
            .count()
    }

    /// In-flight return-direction packets.
    pub fn ret_in_flight(&self) -> usize {
        self.ret.iter().map(|p| p.queue.len()).sum()
    }

    /// Flits bound up in undelivered packets, `(forward, return)` — the
    /// flit-conservation auditor compares these against the cumulative
    /// counters.
    pub fn in_flight_flits(&self) -> (u64, u64) {
        let sum = |ports: &[Port]| {
            ports.iter().flat_map(|p| p.queue.iter()).map(|(_, pkt)| pkt.flits()).sum()
        };
        (sum(&self.fwd), sum(&self.ret))
    }

    /// Traffic counters.
    pub fn stats(&self) -> &IcntStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{MemReq, PacketKind};

    fn pkt(kind: PacketKind, addr: u64) -> Packet {
        Packet {
            kind,
            addr,
            req: MemReq { id: 0, addr, is_write: false, pc: 0, sm: 0, warp: 0, dst_reg: 0, born: 0 },
        }
    }

    fn small() -> Interconnect {
        Interconnect::new(IcntConfig {
            num_sms: 2,
            num_partitions: 2,
            hop_latency: 4,
            queue_capacity: 2,
            flits_per_cycle: 1,
        })
    }

    #[test]
    fn packet_arrives_after_serialization_plus_hop() {
        let mut icnt = small();
        assert!(icnt.try_send_fwd(0, pkt(PacketKind::ReadReq, 0), 10));
        // 1 flit serialization ends at 11, +4 hop -> ready at 15.
        assert!(icnt.pop_fwd(0, 14).is_none());
        assert!(icnt.pop_fwd(0, 15).is_some());
        assert!(icnt.pop_fwd(0, 16).is_none(), "only one packet was sent");
    }

    #[test]
    fn data_packets_serialize_longer() {
        let mut icnt = small();
        assert!(icnt.try_send_ret(1, pkt(PacketKind::ReadReply, 0), 0));
        // 5 flits -> done at 5, +4 hop -> 9.
        assert!(icnt.pop_ret(1, 8).is_none());
        assert!(icnt.pop_ret(1, 9).is_some());
    }

    #[test]
    fn port_bandwidth_is_shared() {
        let mut icnt = small();
        // Two 5-flit packets sent the same cycle to one port: the second
        // serializes after the first.
        assert!(icnt.try_send_fwd(0, pkt(PacketKind::Writeback, 0), 0));
        assert!(icnt.try_send_fwd(0, pkt(PacketKind::Writeback, 128), 0));
        assert!(icnt.pop_fwd(0, 9).is_some()); // 5 + 4
        assert!(icnt.pop_fwd(0, 13).is_none());
        assert!(icnt.pop_fwd(0, 14).is_some()); // 10 + 4
    }

    #[test]
    fn distinct_ports_do_not_contend() {
        let mut icnt = small();
        assert!(icnt.try_send_fwd(0, pkt(PacketKind::Writeback, 0), 0));
        assert!(icnt.try_send_fwd(1, pkt(PacketKind::Writeback, 0), 0));
        assert!(icnt.pop_fwd(0, 9).is_some());
        assert!(icnt.pop_fwd(1, 9).is_some());
    }

    #[test]
    fn full_queue_refuses_and_counts_reject() {
        let mut icnt = small();
        assert!(icnt.try_send_fwd(0, pkt(PacketKind::ReadReq, 0), 0));
        assert!(icnt.try_send_fwd(0, pkt(PacketKind::ReadReq, 128), 0));
        assert!(!icnt.try_send_fwd(0, pkt(PacketKind::ReadReq, 256), 0));
        assert_eq!(icnt.stats().rejects, 1);
        // Draining makes room again.
        assert!(icnt.pop_fwd(0, 100).is_some());
        assert!(icnt.try_send_fwd(0, pkt(PacketKind::ReadReq, 256), 100));
    }

    #[test]
    fn flit_accounting_by_direction() {
        let mut icnt = small();
        icnt.try_send_fwd(0, pkt(PacketKind::ReadReq, 0), 0); // 1 flit
        icnt.try_send_ret(0, pkt(PacketKind::ReadReply, 0), 0); // 5 flits
        assert_eq!(icnt.stats().fwd_flits, 1);
        assert_eq!(icnt.stats().ret_flits, 5);
        assert_eq!(icnt.stats().total_flits(), 6);
    }

    #[test]
    fn partition_mapping_interleaves_256b_chunks() {
        let icnt = Interconnect::new(IcntConfig::fermi());
        assert_eq!(icnt.partition_of(0), 0);
        assert_eq!(icnt.partition_of(255), 0);
        assert_eq!(icnt.partition_of(256), 1);
        assert_eq!(icnt.partition_of(256 * 12), 0);
    }

    #[test]
    fn in_flight_counts_undelivered_packets() {
        let mut icnt = small();
        icnt.try_send_fwd(0, pkt(PacketKind::ReadReq, 0), 0);
        assert_eq!(icnt.in_flight(), 1);
        icnt.pop_fwd(0, 100);
        assert_eq!(icnt.in_flight(), 0);
    }

    #[test]
    fn census_accessors_track_queued_packets() {
        let mut icnt = small();
        icnt.try_send_fwd(0, pkt(PacketKind::ReadReq, 0), 0); // expects reply, 1 flit
        icnt.try_send_fwd(1, pkt(PacketKind::Writeback, 0), 0); // no reply, 5 flits
        icnt.try_send_ret(1, pkt(PacketKind::ReadReply, 0), 0); // 5 flits
        assert_eq!(icnt.fwd_expecting_reply(), 1);
        assert_eq!(icnt.ret_in_flight(), 1);
        assert_eq!(icnt.fwd_queue_depths(), vec![1, 1]);
        assert_eq!(icnt.ret_queue_depths(), vec![0, 1]);
        assert_eq!(icnt.in_flight_flits(), (6, 5));
    }

    use crate::fault::{FaultConfig, FaultInjector, FaultKind, FaultSite};

    #[test]
    fn drop_fault_counts_flits_but_delivers_nothing() {
        let mut icnt = small();
        icnt.set_fault_injector(FaultInjector::new(FaultConfig::single(
            FaultKind::Drop,
            FaultSite::IcntForward,
            1,
        )));
        assert!(icnt.try_send_fwd(0, pkt(PacketKind::ReadReq, 0), 0), "sender sees success");
        assert_eq!(icnt.stats().fwd_flits, 1, "flits were serialized");
        assert_eq!(icnt.in_flight(), 0, "...but the packet vanished");
        assert_eq!(icnt.faults_injected(), 1);
        // Subsequent traffic is untouched (max_faults = 1).
        assert!(icnt.try_send_fwd(0, pkt(PacketKind::ReadReq, 256), 0));
        assert_eq!(icnt.in_flight(), 1);
    }

    #[test]
    fn duplicate_fault_delivers_twice() {
        let mut icnt = small();
        icnt.set_fault_injector(FaultInjector::new(FaultConfig::single(
            FaultKind::Duplicate,
            FaultSite::IcntReturn,
            1,
        )));
        assert!(icnt.try_send_ret(0, pkt(PacketKind::ReadReply, 0), 0));
        assert_eq!(icnt.ret_in_flight(), 2);
        assert!(icnt.pop_ret(0, 1000).is_some());
        assert!(icnt.pop_ret(0, 1000).is_some());
    }

    #[test]
    fn delay_fault_postpones_delivery() {
        let mut icnt = small();
        let cfg = FaultConfig {
            delay_cycles: 100,
            ..FaultConfig::single(FaultKind::Delay, FaultSite::IcntForward, 1)
        };
        icnt.set_fault_injector(FaultInjector::new(cfg));
        assert!(icnt.try_send_fwd(0, pkt(PacketKind::ReadReq, 0), 10));
        // Nominal arrival would be 15 (1-flit serialization + 4 hop).
        assert!(icnt.pop_fwd(0, 114).is_none());
        assert!(icnt.pop_fwd(0, 115).is_some());
    }

    #[test]
    fn misroute_fault_diverts_to_neighbouring_port() {
        let mut icnt = small();
        icnt.set_fault_injector(FaultInjector::new(FaultConfig::single(
            FaultKind::Misroute,
            FaultSite::IcntForward,
            1,
        )));
        assert!(icnt.try_send_fwd(0, pkt(PacketKind::ReadReq, 0), 0));
        assert!(icnt.pop_fwd(0, 1000).is_none(), "intended port never sees it");
        assert!(icnt.pop_fwd(1, 1000).is_some(), "neighbour does");
    }

    /// The non-empty masks must name exactly the ports with a queued
    /// packet; returns `(fwd, ret)` for the caller's expectations.
    fn checked_masks(icnt: &Interconnect) -> (u64, u64) {
        assert!(icnt.masks_match_queues(), "masks or head stamps out of sync with the queues");
        (icnt.fwd_nonempty(), icnt.ret_nonempty())
    }

    #[test]
    fn nonempty_masks_track_send_and_pop() {
        let mut icnt = small();
        assert_eq!(checked_masks(&icnt), (0, 0));
        icnt.try_send_fwd(1, pkt(PacketKind::ReadReq, 0), 0);
        assert_eq!(checked_masks(&icnt), (0b10, 0));
        icnt.try_send_ret(0, pkt(PacketKind::ReadReply, 0), 0);
        icnt.try_send_ret(0, pkt(PacketKind::ReadReply, 128), 0);
        assert_eq!(checked_masks(&icnt), (0b10, 0b01));
        // A refused send leaves the masks alone.
        assert!(!icnt.try_send_ret(0, pkt(PacketKind::ReadReply, 256), 0));
        assert_eq!(checked_masks(&icnt), (0b10, 0b01));
        // An unripe head pops nothing and keeps its bit.
        assert!(icnt.pop_fwd(1, 0).is_none());
        assert_eq!(checked_masks(&icnt), (0b10, 0b01));
        assert!(icnt.pop_fwd(1, 100).is_some());
        assert_eq!(checked_masks(&icnt), (0, 0b01));
        // The bit clears only when the last packet leaves.
        assert!(icnt.pop_ret(0, 100).is_some());
        assert_eq!(checked_masks(&icnt), (0, 0b01));
        assert!(icnt.pop_ret(0, 100).is_some());
        assert_eq!(checked_masks(&icnt), (0, 0));
    }

    #[test]
    fn drain_and_resend_roundtrip_preserves_fifo_and_census() {
        let mut icnt = small();
        // Two packets: ready at 5 (1 flit + 4 hop) and 10 (5+4 after
        // serializing behind the first).
        assert!(icnt.try_send_fwd(0, pkt(PacketKind::ReadReq, 0), 0));
        assert!(icnt.try_send_fwd(0, pkt(PacketKind::Writeback, 128), 0));
        assert_eq!(icnt.in_flight(), 2);
        let flits = icnt.in_flight_flits();

        // Draining ignores ready stamps: both packets leave, oldest first.
        let drained: Vec<Packet> = icnt.drain_fwd(0).collect();
        assert_eq!(drained.iter().map(|p| p.addr).collect::<Vec<_>>(), vec![0, 128]);
        assert_eq!(icnt.in_flight(), 0);
        assert_eq!(icnt.in_flight_flits(), (0, 0));

        // Sending them back in drain order restores the census and the
        // FIFO order.
        for p in drained {
            assert!(icnt.try_send_fwd(0, p, 0));
        }
        assert_eq!(icnt.in_flight(), 2);
        assert_eq!(icnt.in_flight_flits(), flits);
        assert_eq!(icnt.pop_fwd(0, 100).map(|p| p.addr), Some(0));
        assert_eq!(icnt.pop_fwd(0, 100).map(|p| p.addr), Some(128));
    }

    #[test]
    fn nonempty_masks_track_drain_and_resend() {
        let mut icnt = small();
        icnt.try_send_fwd(0, pkt(PacketKind::ReadReq, 0), 0); // ready at 5
        icnt.try_send_fwd(0, pkt(PacketKind::Writeback, 128), 0); // ready at 10
        icnt.try_send_ret(1, pkt(PacketKind::ReadReply, 0), 0);
        assert_eq!(checked_masks(&icnt), (0b01, 0b10));
        // A drain clears its own port's bit, even before the packets ripen.
        let fwd: Vec<Packet> = icnt.drain_fwd(0).collect();
        assert_eq!(checked_masks(&icnt), (0, 0b10));
        // An empty port drains nothing and leaves the other direction.
        assert_eq!(icnt.drain_fwd(1).count(), 0);
        assert_eq!(checked_masks(&icnt), (0, 0b10));
        let ret: Vec<Packet> = icnt.drain_ret(1).collect();
        assert_eq!(checked_masks(&icnt), (0, 0));
        assert_eq!(icnt.in_flight(), 0);
        // Sending the drained packets back sets the bits again.
        for p in fwd {
            assert!(icnt.try_send_fwd(0, p, 0));
        }
        for p in ret {
            assert!(icnt.try_send_ret(1, p, 0));
        }
        assert_eq!(checked_masks(&icnt), (0b01, 0b10));
        assert_eq!(icnt.in_flight(), 3);
    }

    #[test]
    fn nonempty_masks_follow_duplicate_and_misroute_faults() {
        let mut icnt = small();
        icnt.set_fault_injector(FaultInjector::new(FaultConfig::single(
            FaultKind::Duplicate,
            FaultSite::IcntForward,
            1,
        )));
        icnt.try_send_fwd(1, pkt(PacketKind::ReadReq, 256), 0);
        assert_eq!(checked_masks(&icnt), (0b10, 0));
        assert!(icnt.pop_fwd(1, 100).is_some());
        assert_eq!(checked_masks(&icnt), (0b10, 0), "the duplicate still occupies the port");
        assert!(icnt.pop_fwd(1, 100).is_some());
        assert_eq!(checked_masks(&icnt), (0, 0));

        let mut icnt = small();
        icnt.set_fault_injector(FaultInjector::new(FaultConfig::single(
            FaultKind::Misroute,
            FaultSite::IcntReturn,
            1,
        )));
        icnt.try_send_ret(1, pkt(PacketKind::ReadReply, 0), 0);
        assert_eq!(checked_masks(&icnt), (0, 0b01), "the bit follows the packet, not the request");
        assert!(icnt.pop_ret(0, 100).is_some());
        assert_eq!(checked_masks(&icnt), (0, 0));
    }

    #[test]
    fn due_masks_follow_the_queue_heads() {
        let mut icnt = small();
        let cfg = FaultConfig {
            delay_cycles: 100,
            ..FaultConfig::single(FaultKind::Delay, FaultSite::IcntForward, 1)
        };
        icnt.set_fault_injector(FaultInjector::new(cfg));
        // The delayed head (ready at 105) gates its port even though the
        // packet behind it (ready at 6) arrived long before.
        assert!(icnt.try_send_fwd(1, pkt(PacketKind::ReadReq, 0), 0));
        assert!(icnt.try_send_fwd(1, pkt(PacketKind::ReadReq, 128), 0));
        assert!(icnt.try_send_ret(0, pkt(PacketKind::ReadReply, 0), 0)); // ready at 9
        checked_masks(&icnt);
        assert_eq!((icnt.next_fwd_ready(1), icnt.next_ret_ready(0)), (Some(105), Some(9)));
        assert_eq!((icnt.fwd_due(104), icnt.ret_due(8)), (0, 0));
        assert_eq!((icnt.fwd_due(105), icnt.ret_due(9)), (0b10, 0b01));
        assert!(icnt.pop_fwd(1, 104).is_none());
        assert!(icnt.pop_fwd(1, 105).is_some());
        // The follower is now the head, and long due.
        assert_eq!(icnt.next_fwd_ready(1), Some(6));
        assert_eq!(icnt.fwd_due(105), 0b10);
        assert!(icnt.pop_fwd(1, 105).is_some());
        assert_eq!((icnt.next_fwd_ready(1), icnt.fwd_due(u64::MAX - 1)), (None, 0));
        checked_masks(&icnt);
    }

    #[test]
    #[should_panic(expected = "exceeds the 64-port limit")]
    fn more_than_64_ports_is_rejected() {
        Interconnect::new(IcntConfig { num_partitions: 65, ..IcntConfig::fermi() });
    }
}
