//! xoshiro256++ 1.0 (Blackman–Vigna, `xoshiro256plusplus.c`).
//!
//! 256 bits of state, period 2²⁵⁶ − 1, passes BigCrush; the recommended
//! general-purpose member of the xoshiro family and this workspace's
//! default generator behind [`rngs::SmallRng`](crate::rngs::SmallRng).

use crate::{RngCore, SeedableRng, SplitMix64};

/// The xoshiro256++ generator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Builds a generator from raw state words.
    ///
    /// # Panics
    /// Panics on the all-zero state (the one fixed point of the
    /// transition function — the generator would emit zeros forever).
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(s != [0; 4], "xoshiro256++ state must not be all zero");
        Xoshiro256PlusPlus { s }
    }
}

impl RngCore for Xoshiro256PlusPlus {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

impl SeedableRng for Xoshiro256PlusPlus {
    /// Expands `seed` through SplitMix64 into the four state words, per
    /// the xoshiro authors' recommendation. Distinct seeds give
    /// decorrelated streams, which is what makes `base seed +
    /// replication offset` a sound parallel-replication scheme.
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        // SplitMix64 visits each output exactly once per period, so four
        // consecutive zeros are impossible — but keep the guard local
        // rather than relying on that argument.
        if s == [0; 4] {
            return Xoshiro256PlusPlus { s: [1, 0, 0, 0] };
        }
        Xoshiro256PlusPlus { s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "all zero")]
    fn zero_state_rejected() {
        Xoshiro256PlusPlus::from_state([0; 4]);
    }

    #[test]
    fn distinct_seeds_give_distinct_streams() {
        let mut a = Xoshiro256PlusPlus::seed_from_u64(0);
        let mut b = Xoshiro256PlusPlus::seed_from_u64(1);
        let xa: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let xb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(xa, xb);
    }
}
