//! Packets: the simulated messages.

use iadm_workload::NO_OP;
use std::mem::size_of;

/// A message in flight: carries only its destination tag (the paper's
/// point — no distance computation anywhere) plus the injection cycle for
/// latency statistics. Under the TSDT sender-computed policy it
/// additionally carries the state half of the 2n-bit TSDT tag the sender
/// derived from the global blockage map (the destination half *is*
/// [`Packet::dest`], and the network size is the simulator's — so the
/// full [`TsdtTag`](iadm_core::TsdtTag) can be reconstructed).
/// Workload-tracked packets also carry their operation id
/// ([`Packet::op`]; `NO_OP` for open-loop traffic), so the engine can
/// tell the workload which request a delivery or loss belonged to. Nothing else travels: no packet id, no
/// source — and at 16 bytes four packets share a cache line in the queue
/// arena, which the N = 1024 hot path depends on (the TSDT state word is
/// sentinel-packed into a bare `u32` rather than an 8-byte `Option` to
/// make room for `op`).
///
/// In wormhole mode these same fields seed a worm verbatim (the worm's
/// head flit carries them; body flits carry nothing), so the source
/// queues hold ordinary `Packet`s in both switching modes and the
/// arrival path is mode-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Destination port — also the routing tag (Theorem 3.1).
    pub dest: u32,
    /// Cycle at which the packet entered its source queue.
    pub injected_at: u32,
    /// State bits of the sender-computed TSDT tag, or the
    /// [`Packet::NO_TAG`] sentinel. A real state word has one bit per
    /// stage (≤ 31 bits), so the sentinel is unreachable.
    tag_bits: u32,
    /// Workload operation id, or [`iadm_workload::NO_OP`] for untracked
    /// (open-loop) traffic.
    pub op: u32,
}

impl Packet {
    /// Sentinel in `tag_bits` marking an untagged packet.
    const NO_TAG: u32 = u32::MAX;

    /// Creates an untagged packet (destination-address routing only).
    /// `injected_at` must fit the packet's 32-bit timestamp field —
    /// `SimConfig::validate` rejects longer runs up front.
    pub fn new(dest: usize, injected_at: u64) -> Self {
        debug_assert!(
            injected_at <= u64::from(u32::MAX),
            "injection cycle {injected_at} overflows the 32-bit timestamp"
        );
        Packet {
            dest: dest as u32,
            injected_at: injected_at as u32,
            tag_bits: Packet::NO_TAG,
            op: NO_OP,
        }
    }

    /// Creates a packet carrying the state bits `tag_bits` of a
    /// sender-computed TSDT tag (its destination half is `dest`);
    /// `injected_at` must fit the 32-bit timestamp field.
    pub(crate) fn with_tag_bits(dest: usize, injected_at: u64, tag_bits: u32) -> Self {
        debug_assert!(
            injected_at <= u64::from(u32::MAX),
            "injection cycle {injected_at} overflows the 32-bit timestamp"
        );
        debug_assert_ne!(tag_bits, Packet::NO_TAG, "state word hit the sentinel");
        Packet {
            dest: dest as u32,
            injected_at: injected_at as u32,
            tag_bits,
            op: NO_OP,
        }
    }

    /// Stamps the packet with a workload operation id.
    pub fn with_op(mut self, op: u32) -> Self {
        self.op = op;
        self
    }

    /// The TSDT state word, when the sender computed one.
    #[inline]
    pub fn tag_state(&self) -> Option<u32> {
        if self.tag_bits == Packet::NO_TAG {
            None
        } else {
            Some(self.tag_bits)
        }
    }
}

const _: () = assert!(size_of::<Packet>() == 16);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_stores_fields() {
        let p = Packet::new(6, 100);
        assert_eq!(p.dest, 6);
        assert_eq!(p.injected_at, 100);
        assert_eq!(p.tag_state(), None);
        assert_eq!(p.op, NO_OP);
    }

    #[test]
    fn tagged_constructor_keeps_state_bits_only() {
        let p = Packet::with_tag_bits(6, 100, 0b011);
        assert_eq!(p.dest, 6, "destination half lives in dest");
        assert_eq!(p.tag_state(), Some(0b011));
    }

    #[test]
    fn op_stamp_survives_the_builder() {
        let p = Packet::new(3, 7).with_op(42);
        assert_eq!(p.op, 42);
        assert_eq!(p.tag_state(), None);
        let tagged = Packet::with_tag_bits(6, 9, 0).with_op(8);
        assert_eq!(tagged.op, 8);
        assert_eq!(tagged.tag_state(), Some(0));
    }

    #[test]
    fn packet_fits_in_a_quarter_cache_line() {
        // The queue arena's memory footprint (and thus the simulator's
        // cache behavior at N = 1024) depends on this staying small.
        assert!(std::mem::size_of::<Packet>() <= 16);
    }
}
