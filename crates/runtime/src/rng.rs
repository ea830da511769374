//! The one pseudo-random generator: seeded scheduling
//! ([`SchedulingPolicy::Random`](crate::config::SchedulingPolicy::Random))
//! and the schedule explorer's sampler draw from it.

/// SplitMix64: the classic 64-bit mixing generator. Hand-rolled (seven
/// lines) so randomness adds no dependency and the stream is pinned
/// forever — a seed printed in a bug report must replay on every
/// future version.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// The generator whose state starts at `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n`. The modulo bias is below 2⁻⁵⁰ for the
    /// sizes that occur here (run queues and candidate lists of at most
    /// a few hundred, quanta of a few dozen steps).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// A fair coin.
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}
