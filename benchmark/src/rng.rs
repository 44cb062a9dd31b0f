//! The benchmark's own random source and input digest.
//!
//! Every input the program sees is derived from `--seed` through this SplitMix64, never
//! through the repository's `rand` shim, so swapping that shim can never change a
//! workload.

/// SplitMix64 (Steele, Lea, Flood 2014): a 64-bit state, one multiply-xorshift round
/// per draw.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// An independent stream for a named part of a workload, so adding a draw to one
    /// generator never shifts the values of another.
    pub fn fork(seed: u64, label: &str) -> SplitMix64 {
        let mut digest = Digest::new();
        digest.bytes(label.as_bytes());
        let mut rng = SplitMix64(seed ^ digest.value());
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn below(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi);
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform in `[lo, hi)`.
    pub fn between(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }

    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// FNV-1a over everything a generator hands to the program: two runs fed the same
/// inputs print the same digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

impl Digest {
    pub fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_the_reference_vector() {
        // First three outputs for seed 1234567, from the reference C implementation.
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
        assert_eq!(rng.next_u64(), 9817491932198370423);
    }

    #[test]
    fn forks_are_independent_and_repeatable() {
        let a: Vec<u64> = (0..4)
            .map(|_| SplitMix64::fork(1, "a").next_u64())
            .collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            SplitMix64::fork(1, "a").next_u64(),
            SplitMix64::fork(1, "b").next_u64()
        );
        assert_ne!(
            SplitMix64::fork(1, "a").next_u64(),
            SplitMix64::fork(2, "a").next_u64()
        );
    }

    #[test]
    fn draws_stay_in_range() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..1_000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
            assert!((3..9).contains(&rng.below(3, 9)));
        }
        let mut buf = [0u8; 13];
        rng.fill(&mut buf);
        assert!(buf.iter().any(|b| *b != 0));
    }
}
