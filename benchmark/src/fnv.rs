//! FNV-1a (64-bit) over the simulated outcome of a run.
//!
//! A fingerprint is the proof that a host-side change left the science
//! untouched: it hashes completion instants, engine counters and
//! reports, so it moves iff any simulated quantity moves.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a hasher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(OFFSET)
    }
}

impl Fnv {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(PRIME);
        }
    }

    /// Absorbs a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Absorbs the exact bit pattern of an `f64`.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Absorbs a value's `Debug` rendering — how reports and engine
    /// counters enter the fingerprint without naming their types.
    pub fn debug(&mut self, v: &impl std::fmt::Debug) {
        self.bytes(format!("{v:?}").as_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_vectors() {
        // Reference vectors from the FNV specification (draft-eastlake-fnv).
        assert_eq!(Fnv::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn order_and_bits_matter() {
        let mut a = Fnv::new();
        a.u64(1);
        a.u64(2);
        let mut b = Fnv::new();
        b.u64(2);
        b.u64(1);
        assert_ne!(a.finish(), b.finish());
        let mut z = Fnv::new();
        z.f64(0.0);
        let mut nz = Fnv::new();
        nz.f64(-0.0);
        assert_ne!(z.finish(), nz.finish(), "bit pattern, not numeric value");
    }

    #[test]
    fn split_writes_equal_one_write() {
        let mut a = Fnv::new();
        a.bytes(b"foo");
        a.bytes(b"bar");
        let mut b = Fnv::new();
        b.bytes(b"foobar");
        assert_eq!(a, b);
    }
}
