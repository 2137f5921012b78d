//! 64-bit FNV-1a, the digest behind every pinned trace, campaign, fleet
//! and figure-output hash in the workspace.

/// A 64-bit FNV-1a hasher over bytes.
///
/// Integers go in little-endian ([`Fnv64::write_u64`]), so a digest is
/// the same on every host.
///
/// ```
/// use emc_sim::Fnv64;
///
/// let mut h = Fnv64::new();
/// h.write(b"a");
/// assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
/// assert_eq!(Fnv64::new().finish(), Fnv64::OFFSET);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// The FNV-1a offset basis: the digest of no bytes.
    pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    /// The 64-bit FNV prime.
    pub const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher that has seen no bytes.
    pub const fn new() -> Self {
        Self(Self::OFFSET)
    }

    /// Folds `bytes` in, one at a time.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Folds in the eight little-endian bytes of `v`.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}
