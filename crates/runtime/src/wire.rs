//! Wire-size accounting.
//!
//! The paper's evaluation metrics are dominated by *network bandwidth*
//! (§2.1.1 "PIER is designed for the Internet, and assumes that the network
//! is the key bottleneck").  Rather than paying for real serialisation in the
//! simulator, every message type implements [`WireSize`], which reports how
//! many bytes the message would occupy on the wire.  The simulator adds a
//! fixed per-message header overhead (UDP/IP + overlay header) on top.
//!
//! Rows travel as columnar chunks, and a chunk body's size is exact: it is
//! the length of the body's real encoding (`Column::encoded_len` in
//! `pier-core`, the codec the durable window snapshots write), including
//! its narrow integer and offset widths.  The framing around the chunks
//! is still a hand-written estimate, kept simple and conservative; what
//! matters for reproducing the paper's figures is that the *relative* cost
//! of strategies (e.g. Symmetric Hash join vs. Fetch Matches join, flat vs.
//! hierarchical aggregation) is preserved.

/// Fixed per-message header overhead in bytes (UDP/IP + overlay header),
/// charged by both runtimes on top of a message's [`WireSize`].
pub const HEADER_OVERHEAD: usize = 48;

/// Maximum segment size: a message larger than this travels as
/// `ceil(wire / MSS)` fragments, each paying [`HEADER_OVERHEAD`] again
/// ([`on_wire_bytes`]).
pub const MSS: usize = 1_400;

/// Bytes a message of `wire` payload bytes occupies on the wire, as both
/// runtimes charge it: one [`HEADER_OVERHEAD`] per [`MSS`] fragment, so a
/// large `PutBatch` costs what its fragments would rather than one
/// oversized packet.
pub fn on_wire_bytes(wire: usize) -> usize {
    wire + wire.div_ceil(MSS).max(1) * HEADER_OVERHEAD
}

/// Types that know their approximate encoded size in bytes.
pub trait WireSize {
    /// Approximate number of payload bytes this value occupies on the wire.
    fn wire_size(&self) -> usize;
}

impl WireSize for () {
    fn wire_size(&self) -> usize {
        0
    }
}

impl WireSize for u8 {
    fn wire_size(&self) -> usize {
        1
    }
}

impl WireSize for u16 {
    fn wire_size(&self) -> usize {
        2
    }
}

impl WireSize for u32 {
    fn wire_size(&self) -> usize {
        4
    }
}

impl WireSize for u64 {
    fn wire_size(&self) -> usize {
        8
    }
}

impl WireSize for i64 {
    fn wire_size(&self) -> usize {
        8
    }
}

impl WireSize for f64 {
    fn wire_size(&self) -> usize {
        8
    }
}

impl WireSize for bool {
    fn wire_size(&self) -> usize {
        1
    }
}

impl WireSize for String {
    fn wire_size(&self) -> usize {
        // Length prefix + UTF-8 bytes.
        4 + self.len()
    }
}

impl WireSize for &str {
    fn wire_size(&self) -> usize {
        4 + self.len()
    }
}

impl<T: WireSize> WireSize for Option<T> {
    fn wire_size(&self) -> usize {
        1 + self.as_ref().map_or(0, WireSize::wire_size)
    }
}

impl<T: WireSize> WireSize for Vec<T> {
    fn wire_size(&self) -> usize {
        4 + self.iter().map(WireSize::wire_size).sum::<usize>()
    }
}

impl<T: WireSize> WireSize for Box<T> {
    fn wire_size(&self) -> usize {
        self.as_ref().wire_size()
    }
}

impl<A: WireSize, B: WireSize> WireSize for (A, B) {
    fn wire_size(&self) -> usize {
        self.0.wire_size() + self.1.wire_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_sizes() {
        assert_eq!(42u64.wire_size(), 8);
        assert_eq!(1u8.wire_size(), 1);
        assert_eq!(true.wire_size(), 1);
        assert_eq!(3.5f64.wire_size(), 8);
    }

    #[test]
    fn string_sizes_include_length_prefix() {
        assert_eq!(String::from("abc").wire_size(), 7);
        assert_eq!("".wire_size(), 4);
    }

    #[test]
    fn every_fragment_pays_a_header() {
        assert_eq!(on_wire_bytes(0), HEADER_OVERHEAD);
        assert_eq!(on_wire_bytes(MSS), MSS + HEADER_OVERHEAD);
        assert_eq!(on_wire_bytes(MSS + 1), MSS + 1 + 2 * HEADER_OVERHEAD);
    }

    #[test]
    fn container_sizes_sum_elements() {
        let v: Vec<u64> = vec![1, 2, 3];
        assert_eq!(v.wire_size(), 4 + 24);
        let o: Option<u32> = Some(1);
        assert_eq!(o.wire_size(), 5);
        let n: Option<u32> = None;
        assert_eq!(n.wire_size(), 1);
        assert_eq!((1u64, String::from("ab")).wire_size(), 8 + 6);
    }
}
