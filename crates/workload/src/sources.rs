//! The built-in workload sources: open-loop Bernoulli traffic, the
//! closed-loop request/response and flow generators, a ring-allreduce
//! collective, and an Andrews-style adversarial schedule.

use crate::source::{Injection, WorkloadSource, WorkloadStats, NO_OP};
use crate::traffic::TrafficPattern;
use iadm_rng::{Rng, StdRng};
use iadm_topology::Size;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Samples a think delay with mean `think`: uniform on `[0, 2·think]`.
fn think_sample(think: u64, rng: &mut StdRng) -> u64 {
    rng.gen_range(0..(2 * think + 1) as usize) as u64
}

/// Open-loop Bernoulli injection as a [`WorkloadSource`]: each source
/// draws `gen_bool(load)` per cycle and sends to `pattern`'s
/// destination. This is the *pluggable* form of the arrivals phase the
/// engines keep inline (the inline draw uses the engine's own traffic
/// RNG, so parity goldens never route through this type); it exists so
/// differential tests can pin the inline path against the trait path.
#[derive(Debug)]
pub struct OpenLoopSource {
    size: Size,
    load: f64,
    pattern: TrafficPattern,
}

impl OpenLoopSource {
    /// A Bernoulli source at `load` packets/source/cycle over `pattern`.
    pub fn new(size: Size, load: f64, pattern: TrafficPattern) -> Self {
        assert!(
            load.is_finite() && (0.0..=1.0).contains(&load),
            "offered load {load} out of range"
        );
        OpenLoopSource {
            size,
            load,
            pattern,
        }
    }
}

impl WorkloadSource for OpenLoopSource {
    fn poll(&mut self, _cycle: u64, rng: &mut StdRng, out: &mut Vec<Injection>) {
        for source in 0..self.size.n() {
            if rng.gen_bool(self.load) {
                let dest = self.pattern.destination(self.size, source, rng);
                out.push(Injection {
                    source: source as u32,
                    dest: dest as u32,
                    op: NO_OP,
                });
            }
        }
    }

    fn on_delivered(
        &mut self,
        _op: u32,
        _cycle: u64,
        _rng: &mut StdRng,
        _out: &mut Vec<Injection>,
    ) {
    }

    fn on_lost(&mut self, _op: u32, _cycle: u64, _rng: &mut StdRng) {}

    fn collect(&self, _out: &mut WorkloadStats) {}
}

/// One outstanding closed-loop operation.
#[derive(Debug)]
struct Op {
    client: u32,
    server: u32,
    issued_at: u64,
    /// Packets of the current leg still in flight.
    remaining: u32,
    /// The response leg is in flight (request/response mode only).
    responding: bool,
}

/// The closed-loop generator behind both the `RequestResponse` and
/// `Flow` workloads.
///
/// A population of clients (nodes `0..clients`) each cycles through:
/// issue an operation — `req_packets` packets to a uniformly drawn
/// server — wait for every packet of the operation to deliver, then
/// *think* for a sampled delay before issuing the next one. In
/// request/response mode (`resp_packets > 0`) delivery of the request
/// leg triggers `resp_packets` response packets from server back to
/// client, and the operation completes when the response leg lands; in
/// flow mode (`resp_packets == 0`) the operation completes when the
/// request leg lands. Losing any constituent packet aborts the
/// operation (accounted in [`WorkloadStats::aborted`]) and sends the
/// client back to thinking.
///
/// Because a client never has more than one operation outstanding, the
/// offered packet rate is *self-throttling*: congestion slows
/// completions, which slows issues — the defining closed-loop behavior
/// open-loop injection cannot express.
#[derive(Debug)]
pub struct ClosedLoop {
    size: Size,
    warmup: u64,
    think: u64,
    req_packets: u32,
    resp_packets: u32,
    /// Outstanding operations by op id (BTreeMap for deterministic
    /// debug output; accounting never iterates it).
    ops: BTreeMap<u32, Op>,
    /// `(wake cycle, client)` think timers, earliest first.
    timers: BinaryHeap<Reverse<(u64, u32)>>,
    next_op: u32,
    stats: WorkloadStats,
}

impl ClosedLoop {
    /// A closed-loop population of `clients` nodes with mean think time
    /// `think`, `req_packets` per request and `resp_packets` per
    /// response (`0` = flow mode). Client `i`'s first issue is staggered
    /// deterministically across `[0, 2·think]`.
    pub fn new(
        size: Size,
        clients: usize,
        think: u64,
        req_packets: u32,
        resp_packets: u32,
        warmup: u64,
    ) -> Self {
        assert!(clients >= 1 && clients <= size.n(), "bad client count");
        assert!(req_packets >= 1, "a request needs at least one packet");
        let mut timers = BinaryHeap::with_capacity(clients);
        for client in 0..clients as u32 {
            timers.push(Reverse((u64::from(client) % (2 * think + 1), client)));
        }
        ClosedLoop {
            size,
            warmup,
            think,
            req_packets,
            resp_packets,
            ops: BTreeMap::new(),
            timers,
            next_op: 0,
            stats: WorkloadStats::default(),
        }
    }

    fn complete(&mut self, op: Op, cycle: u64, rng: &mut StdRng) {
        self.stats.completed += 1;
        if op.issued_at >= self.warmup {
            self.stats.record_latency(cycle + 1 - op.issued_at);
        }
        self.timers.push(Reverse((
            cycle + 1 + think_sample(self.think, rng),
            op.client,
        )));
    }
}

impl WorkloadSource for ClosedLoop {
    fn poll(&mut self, cycle: u64, rng: &mut StdRng, out: &mut Vec<Injection>) {
        while let Some(&Reverse((due, client))) = self.timers.peek() {
            if due > cycle {
                break;
            }
            self.timers.pop();
            let server = rng.gen_range(0..self.size.n()) as u32;
            let op = self.next_op;
            self.next_op += 1;
            debug_assert!(op != NO_OP, "op id space exhausted");
            self.ops.insert(
                op,
                Op {
                    client,
                    server,
                    issued_at: cycle,
                    remaining: self.req_packets,
                    responding: false,
                },
            );
            self.stats.issued += 1;
            for _ in 0..self.req_packets {
                out.push(Injection {
                    source: client,
                    dest: server,
                    op,
                });
            }
        }
    }

    fn on_delivered(&mut self, op: u32, cycle: u64, rng: &mut StdRng, out: &mut Vec<Injection>) {
        // Stale ids (packets of an already-aborted operation) miss here.
        let Some(entry) = self.ops.get_mut(&op) else {
            return;
        };
        entry.remaining -= 1;
        if entry.remaining > 0 {
            return;
        }
        if !entry.responding && self.resp_packets > 0 {
            entry.responding = true;
            entry.remaining = self.resp_packets;
            let (server, client) = (entry.server, entry.client);
            for _ in 0..self.resp_packets {
                out.push(Injection {
                    source: server,
                    dest: client,
                    op,
                });
            }
            return;
        }
        let entry = self.ops.remove(&op).expect("entry just observed");
        self.complete(entry, cycle, rng);
    }

    fn on_lost(&mut self, op: u32, cycle: u64, rng: &mut StdRng) {
        let Some(entry) = self.ops.remove(&op) else {
            return;
        };
        self.stats.aborted += 1;
        self.timers.push(Reverse((
            cycle + 1 + think_sample(self.think, rng),
            entry.client,
        )));
    }

    fn collect(&self, out: &mut WorkloadStats) {
        *out = self.stats.clone();
        out.live = self.ops.len() as u64;
    }
}

/// A barrier-synchronized ring allreduce mapped onto IADM nodes.
///
/// `participants` nodes (`0..P`) run the classic 2·(P−1)-step ring
/// schedule — P−1 reduce-scatter steps then P−1 allgather steps — with
/// every node `i` sending one packet to `(i+1) mod P` per step and the
/// next step starting only once *all* P packets of the current step have
/// delivered (the barrier is what makes collective completion time a
/// straggler metric: one congested link stalls the whole ring). The
/// instance's completion latency spans issue of step 0 to delivery of
/// the last step; any packet loss aborts the instance. Instances repeat
/// after a sampled think delay.
#[derive(Debug)]
pub struct Collective {
    warmup: u64,
    think: u64,
    participants: u32,
    steps_total: u32,
    /// Next instance start, `None` while an instance is in flight.
    timer: Option<u64>,
    /// Op id of the in-flight step, [`NO_OP`] when idle.
    op: u32,
    step: u32,
    remaining: u32,
    started_at: u64,
    next_op: u32,
    stats: WorkloadStats,
}

impl Collective {
    /// A repeating ring allreduce over nodes `0..participants` with mean
    /// think time `think` between instances.
    pub fn new(size: Size, participants: usize, think: u64, warmup: u64) -> Self {
        assert!(
            (2..=size.n()).contains(&participants),
            "a ring needs 2..=N participants"
        );
        Collective {
            warmup,
            think,
            participants: participants as u32,
            steps_total: 2 * (participants as u32 - 1),
            timer: Some(0),
            op: NO_OP,
            step: 0,
            remaining: 0,
            started_at: 0,
            next_op: 0,
            stats: WorkloadStats::default(),
        }
    }

    /// Emits one ring step: every participant sends to its successor.
    fn emit_step(&mut self, out: &mut Vec<Injection>) {
        let op = self.next_op;
        self.next_op += 1;
        debug_assert!(op != NO_OP, "op id space exhausted");
        self.op = op;
        self.remaining = self.participants;
        for i in 0..self.participants {
            out.push(Injection {
                source: i,
                dest: (i + 1) % self.participants,
                op,
            });
        }
    }
}

impl WorkloadSource for Collective {
    fn poll(&mut self, cycle: u64, _rng: &mut StdRng, out: &mut Vec<Injection>) {
        if self.timer.is_some_and(|due| due <= cycle) {
            self.timer = None;
            self.step = 0;
            self.started_at = cycle;
            self.stats.issued += 1;
            self.emit_step(out);
        }
    }

    fn on_delivered(&mut self, op: u32, cycle: u64, rng: &mut StdRng, out: &mut Vec<Injection>) {
        if op != self.op {
            return; // stale packet of an aborted instance
        }
        self.remaining -= 1;
        if self.remaining > 0 {
            return;
        }
        self.step += 1;
        if self.step < self.steps_total {
            self.emit_step(out);
            return;
        }
        // Instance complete: the barrier of the final step cleared.
        self.op = NO_OP;
        self.stats.completed += 1;
        if self.started_at >= self.warmup {
            self.stats.record_latency(cycle + 1 - self.started_at);
        }
        self.timer = Some(cycle + 1 + think_sample(self.think, rng));
    }

    fn on_lost(&mut self, op: u32, cycle: u64, rng: &mut StdRng) {
        if op != self.op {
            return;
        }
        self.op = NO_OP;
        self.stats.aborted += 1;
        self.timer = Some(cycle + 1 + think_sample(self.think, rng));
    }

    fn collect(&self, out: &mut WorkloadStats) {
        *out = self.stats.clone();
        out.live = u64::from(self.op != NO_OP);
    }
}

/// An adversarial injection schedule in the style of Andrews et al.
/// (*Source Routing and Scheduling in Packet Networks*): the adversary
/// rotates through *phases* of length `burst` cycles, and during phase
/// `k` every source `s` injects (Bernoulli at `load`) toward the
/// bit-reversed address of `s + k` — a moving permutation that
/// concentrates nonstraight traffic on a different link set each phase,
/// defeating any static load-balancing choice. Fire-and-forget
/// ([`NO_OP`] packets): the adversary measures the *fabric*, not
/// per-operation completion, so it reports no workload ledger.
#[derive(Debug)]
pub struct Adversarial {
    size: Size,
    load: f64,
    burst: u64,
}

impl Adversarial {
    /// An adversary injecting at `load` per source per cycle, shifting
    /// its target permutation every `burst` cycles.
    pub fn new(size: Size, load: f64, burst: u64) -> Self {
        assert!(
            load.is_finite() && 0.0 < load && load <= 1.0,
            "adversarial load {load} out of range"
        );
        assert!(burst >= 1, "phase length must be at least one cycle");
        Adversarial { size, load, burst }
    }
}

impl WorkloadSource for Adversarial {
    fn poll(&mut self, cycle: u64, rng: &mut StdRng, out: &mut Vec<Injection>) {
        let n = self.size.n();
        let stages = self.size.stages();
        let phase = (cycle / self.burst) as usize;
        for source in 0..n {
            if rng.gen_bool(self.load) {
                let shifted = (source + phase) % n;
                let mut dest = 0usize;
                for bit in 0..stages {
                    dest |= ((shifted >> bit) & 1) << (stages - 1 - bit);
                }
                out.push(Injection {
                    source: source as u32,
                    dest: dest as u32,
                    op: NO_OP,
                });
            }
        }
    }

    fn on_delivered(
        &mut self,
        _op: u32,
        _cycle: u64,
        _rng: &mut StdRng,
        _out: &mut Vec<Injection>,
    ) {
    }

    fn on_lost(&mut self, _op: u32, _cycle: u64, _rng: &mut StdRng) {}

    fn collect(&self, _out: &mut WorkloadStats) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn size8() -> Size {
        Size::new(8).unwrap()
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xD0)
    }

    /// Delivers every injection in `batch` back to the source at
    /// `cycle`, collecting any follow-on injections.
    fn deliver_all(
        source: &mut dyn WorkloadSource,
        batch: &[Injection],
        cycle: u64,
        rng: &mut StdRng,
    ) -> Vec<Injection> {
        let mut next = Vec::new();
        for injection in batch {
            source.on_delivered(injection.op, cycle, rng, &mut next);
        }
        next
    }

    #[test]
    fn closed_loop_issues_waits_and_thinks() {
        // One client, zero think: issue at 0, complete, reissue next poll.
        let mut wl = ClosedLoop::new(size8(), 1, 0, 2, 1, 0);
        let mut rng = rng();
        let mut out = Vec::new();
        wl.poll(0, &mut rng, &mut out);
        assert_eq!(out.len(), 2, "two request packets");
        assert_eq!(out[0].source, 0);
        assert_eq!(out[0].op, out[1].op);

        // Nothing further is due while the request is outstanding.
        let mut idle = Vec::new();
        wl.poll(1, &mut rng, &mut idle);
        assert!(idle.is_empty());

        // Request leg lands at cycle 4 -> one response packet emerges,
        // flowing server -> client.
        let resp = deliver_all(&mut wl, &out, 4, &mut rng);
        assert_eq!(resp.len(), 1);
        assert_eq!(resp[0].source, out[0].dest);
        assert_eq!(resp[0].dest, 0);

        // Response lands at cycle 8 -> completed, latency 9 - 0.
        let more = deliver_all(&mut wl, &resp, 8, &mut rng);
        assert!(more.is_empty());
        let mut stats = WorkloadStats::default();
        wl.collect(&mut stats);
        assert_eq!(stats.issued, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.latency_max, 9);
        assert!(stats.is_conserved());
    }

    #[test]
    fn flow_mode_completes_without_a_response_leg() {
        let mut wl = ClosedLoop::new(size8(), 2, 0, 3, 0, 0);
        let mut rng = rng();
        let mut out = Vec::new();
        wl.poll(0, &mut rng, &mut out);
        assert_eq!(out.len(), 6, "two clients x three flow packets");
        let follow = deliver_all(&mut wl, &out, 5, &mut rng);
        assert!(follow.is_empty(), "flows have no response leg");
        let mut stats = WorkloadStats::default();
        wl.collect(&mut stats);
        assert_eq!(stats.completed, 2);
        assert!(stats.is_conserved());
    }

    #[test]
    fn a_lost_packet_aborts_the_operation_and_strands_no_client() {
        let mut wl = ClosedLoop::new(size8(), 1, 0, 2, 1, 0);
        let mut rng = rng();
        let mut out = Vec::new();
        wl.poll(0, &mut rng, &mut out);
        let op = out[0].op;
        wl.on_lost(op, 3, &mut rng);
        // The second packet of the dead operation delivering later is
        // stale and must not resurrect it.
        let ghost = deliver_all(&mut wl, &out[1..], 4, &mut rng);
        assert!(ghost.is_empty());
        let mut stats = WorkloadStats::default();
        wl.collect(&mut stats);
        assert_eq!(stats.aborted, 1);
        assert_eq!(stats.live, 0);
        assert!(stats.is_conserved());
    }

    #[test]
    fn warmup_completions_count_but_record_no_latency() {
        let mut wl = ClosedLoop::new(size8(), 1, 0, 1, 0, 100);
        let mut rng = rng();
        let mut out = Vec::new();
        wl.poll(0, &mut rng, &mut out);
        deliver_all(&mut wl, &out, 5, &mut rng);
        let mut stats = WorkloadStats::default();
        wl.collect(&mut stats);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.latency_count, 0, "issued before warmup");
    }

    #[test]
    fn collective_walks_all_ring_steps_behind_a_barrier() {
        let participants = 4;
        let mut wl = Collective::new(size8(), participants, 0, 0);
        let mut rng = rng();
        let mut out = Vec::new();
        wl.poll(0, &mut rng, &mut out);
        assert_eq!(out.len(), participants, "one packet per participant");
        assert!(out.iter().enumerate().all(|(i, inj)| inj.dest
            == (inj.source + 1) % participants as u32
            && inj.source == i as u32));

        let mut cycle = 3;
        let mut steps = 1;
        let mut batch = out;
        loop {
            // The barrier: delivering all but one packet emits nothing.
            let head = deliver_all(&mut wl, &batch[..batch.len() - 1], cycle, &mut rng);
            assert!(head.is_empty(), "step advanced before the barrier");
            let next = deliver_all(&mut wl, &batch[batch.len() - 1..], cycle, &mut rng);
            if next.is_empty() {
                break;
            }
            assert_eq!(next.len(), participants);
            assert_ne!(next[0].op, batch[0].op, "each step gets a fresh op id");
            batch = next;
            cycle += 3;
            steps += 1;
        }
        assert_eq!(steps, 2 * (participants - 1), "2(P-1) ring steps");
        let mut stats = WorkloadStats::default();
        wl.collect(&mut stats);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.latency_max, cycle + 1);
        assert!(stats.is_conserved());
    }

    #[test]
    fn collective_loss_aborts_the_whole_instance() {
        let mut wl = Collective::new(size8(), 3, 0, 0);
        let mut rng = rng();
        let mut out = Vec::new();
        wl.poll(0, &mut rng, &mut out);
        wl.on_lost(out[0].op, 2, &mut rng);
        let ghost = deliver_all(&mut wl, &out[1..], 3, &mut rng);
        assert!(ghost.is_empty());
        let mut stats = WorkloadStats::default();
        wl.collect(&mut stats);
        assert_eq!(stats.issued, 1);
        assert_eq!(stats.aborted, 1);
        assert!(stats.is_conserved());
    }

    #[test]
    fn adversarial_rotates_its_permutation_across_phases() {
        let mut wl = Adversarial::new(size8(), 1.0, 10);
        let mut rng = rng();
        let mut phase0 = Vec::new();
        wl.poll(0, &mut rng, &mut phase0);
        assert_eq!(phase0.len(), 8, "load 1.0 injects from every source");
        // Phase 0 is plain bit-reversal.
        assert_eq!(phase0[1].dest, 0b100);
        assert!(phase0.iter().all(|inj| inj.op == NO_OP));
        let mut phase1 = Vec::new();
        wl.poll(10, &mut rng, &mut phase1);
        // Phase 1 reverses s + 1: source 1 now targets reverse(2) = 010.
        assert_eq!(phase1[1].dest, 0b010);
        let dests = |batch: &[Injection]| batch.iter().map(|i| i.dest).collect::<Vec<_>>();
        assert_ne!(dests(&phase0), dests(&phase1), "the permutation moved");
    }

    #[test]
    fn open_loop_source_draws_per_source_bernoulli() {
        let mut wl = OpenLoopSource::new(size8(), 1.0, TrafficPattern::HotSpot(5));
        let mut rng = rng();
        let mut out = Vec::new();
        wl.poll(0, &mut rng, &mut out);
        assert_eq!(out.len(), 8);
        assert!(out.iter().all(|inj| inj.dest == 5 && inj.op == NO_OP));
    }
}
