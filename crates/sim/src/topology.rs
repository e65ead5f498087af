//! Omega (shuffle-exchange) banyan topology and destination-tag routing.
//!
//! The network of Fig. 1 of the paper: `N = k^n` inputs and outputs
//! connected by `n` stages of `k × k` switches, a perfect `k`-way shuffle
//! in front of every stage. It is a *banyan* network: there is exactly one
//! path from each input to each output, and the path is self-routing —
//! stage `i` switches on the `i`-th most-significant base-`k` digit of the
//! destination address.

/// An `n`-stage omega network of `k × k` switches (`N = k^n` ports).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OmegaTopology {
    k: u32,
    stages: u32,
    size: u64,
}

impl OmegaTopology {
    /// Builds the topology. `k >= 2`, `stages >= 1`, and `k^stages` must
    /// fit comfortably in memory (`N <= 2^24` enforced to catch typos).
    pub fn new(k: u32, stages: u32) -> Self {
        assert!(k >= 2, "switch size must be at least 2");
        assert!(stages >= 1, "need at least one stage");
        let size = (k as u64)
            .checked_pow(stages)
            .expect("network size overflows u64");
        assert!(size <= 1 << 24, "network with {size} ports is unreasonably large");
        OmegaTopology { k, stages, size }
    }

    /// Switch arity `k`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Number of stages `n`.
    pub fn stages(&self) -> u32 {
        self.stages
    }

    /// Number of input/output ports `N = k^n`.
    pub fn ports(&self) -> u64 {
        self.size
    }

    /// Number of switches per stage (`N / k`).
    pub fn switches_per_stage(&self) -> u64 {
        self.size / self.k as u64
    }

    /// The perfect `k`-way shuffle applied to wire indices in front of
    /// every stage: a left rotation of the base-`k` address by one digit,
    /// `w ↦ (w·k mod N) + ⌊w·k / N⌋`.
    pub fn shuffle(&self, wire: u64) -> u64 {
        debug_assert!(wire < self.size);
        (wire * self.k as u64) % self.size + (wire * self.k as u64) / self.size
    }

    /// The base-`k` digit of `dest` consumed by stage `stage`
    /// (1-indexed): digit 1 is the most significant.
    pub fn route_digit(&self, stage: u32, dest: u64) -> u32 {
        debug_assert!((1..=self.stages).contains(&stage));
        debug_assert!(dest < self.size);
        let shift = self.stages - stage;
        ((dest / (self.k as u64).pow(shift)) % self.k as u64) as u32
    }

    /// One routing step: a message sitting on `wire` at the *input* of
    /// stage `stage` (after the preceding shuffle has not yet been
    /// applied), heading for `dest`, comes out on the returned wire at
    /// the *output* of that stage.
    ///
    /// The wire first passes the shuffle, lands in switch
    /// `⌊shuffled / k⌋`, and exits on that switch's output selected by
    /// the stage's destination digit.
    pub fn next_wire(&self, stage: u32, wire: u64, dest: u64) -> u64 {
        let shuffled = self.shuffle(wire);
        let switch_base = shuffled - shuffled % self.k as u64;
        switch_base + self.route_digit(stage, dest) as u64
    }

    /// Per-wire switch base for the hot path: `next_wire` decomposes as
    /// `switch_bases[wire] + route_digit(stage, dest)`, and because the
    /// same shuffle precedes every stage the base is **stage
    /// independent** — the whole stage × wire routing table collapses to
    /// this one vector. Ports fit in `u32` (`N ≤ 2^24` by construction).
    pub fn switch_bases(&self) -> Vec<u32> {
        (0..self.size)
            .map(|wire| {
                let shuffled = self.shuffle(wire);
                (shuffled - shuffled % self.k as u64) as u32
            })
            .collect()
    }

    /// The full path of output wires a message takes from `input` to
    /// `dest` (one entry per stage). The last entry equals `dest` — the
    /// banyan self-routing property.
    pub fn path(&self, input: u64, dest: u64) -> Vec<u64> {
        let mut wire = input;
        (1..=self.stages)
            .map(|stage| {
                wire = self.next_wire(stage, wire, dest);
                wire
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_digit_rotation() {
        let t = OmegaTopology::new(2, 3); // N = 8
        // Left-rotate 3-bit addresses: 0b011 → 0b110, 0b100 → 0b001.
        assert_eq!(t.shuffle(0b011), 0b110);
        assert_eq!(t.shuffle(0b100), 0b001);
        assert_eq!(t.shuffle(0), 0);
        assert_eq!(t.shuffle(7), 7);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        for &(k, n) in &[(2u32, 4u32), (4, 3), (8, 2), (3, 3)] {
            let t = OmegaTopology::new(k, n);
            let mut seen = vec![false; t.ports() as usize];
            for w in 0..t.ports() {
                let s = t.shuffle(w);
                assert!(!seen[s as usize], "k={k} n={n}: collision at {s}");
                seen[s as usize] = true;
            }
        }
    }

    #[test]
    fn routing_reaches_destination_exhaustively() {
        for &(k, n) in &[(2u32, 3u32), (2, 4), (4, 2), (8, 2), (3, 3)] {
            let t = OmegaTopology::new(k, n);
            for input in 0..t.ports() {
                for dest in 0..t.ports() {
                    let path = t.path(input, dest);
                    assert_eq!(path.len(), n as usize);
                    assert_eq!(
                        *path.last().unwrap(),
                        dest,
                        "k={k} n={n} input={input} dest={dest}"
                    );
                }
            }
        }
    }

    #[test]
    fn routing_reaches_destination_large_sampled() {
        let t = OmegaTopology::new(2, 12); // N = 4096
        for step in 0..64u64 {
            let input = (step * 641) % t.ports();
            let dest = (step * 1013 + 17) % t.ports();
            assert_eq!(*t.path(input, dest).last().unwrap(), dest);
        }
    }

    #[test]
    fn banyan_unique_path_property() {
        // Two messages from the same input to the same destination take
        // the same path; and conversely, for k=2, n=3, each (input, dest)
        // pair's path is determined — verify paths differ when dest
        // differs in the digit consumed at each stage.
        let t = OmegaTopology::new(2, 3);
        for input in 0..8 {
            for d1 in 0..8u64 {
                for d2 in 0..8u64 {
                    let p1 = t.path(input, d1);
                    let p2 = t.path(input, d2);
                    if d1 == d2 {
                        assert_eq!(p1, p2);
                    } else {
                        assert_ne!(p1.last(), p2.last());
                    }
                }
            }
        }
    }

    #[test]
    fn stage_digit_msb_first() {
        let t = OmegaTopology::new(2, 4);
        let dest = 0b1010;
        assert_eq!(t.route_digit(1, dest), 1);
        assert_eq!(t.route_digit(2, dest), 0);
        assert_eq!(t.route_digit(3, dest), 1);
        assert_eq!(t.route_digit(4, dest), 0);
        let t3 = OmegaTopology::new(3, 3);
        let d = 2 * 9 + 3; // digits (2, 1, 0)
        assert_eq!(t3.route_digit(1, d), 2);
        assert_eq!(t3.route_digit(2, d), 1);
        assert_eq!(t3.route_digit(3, d), 0);
    }

    #[test]
    fn uniform_destinations_spread_uniformly_at_each_stage() {
        // Load balance: for any stage, as (input, dest) range over all
        // pairs, each stage-output wire is used equally often — the
        // structural fact behind the uniform-traffic analysis.
        let t = OmegaTopology::new(2, 3);
        for stage_idx in 0..3usize {
            let mut counts = vec![0u32; 8];
            for input in 0..8 {
                for dest in 0..8 {
                    counts[t.path(input, dest)[stage_idx] as usize] += 1;
                }
            }
            assert!(counts.iter().all(|&c| c == 8), "stage {stage_idx}: {counts:?}");
        }
    }

    #[test]
    fn switch_bases_reproduce_next_wire() {
        for &(k, n) in &[(2u32, 4u32), (4, 2), (3, 3)] {
            let t = OmegaTopology::new(k, n);
            let bases = t.switch_bases();
            for stage in 1..=n {
                for wire in 0..t.ports() {
                    for dest in 0..t.ports() {
                        let expect = t.next_wire(stage, wire, dest);
                        let got = bases[wire as usize] as u64
                            + t.route_digit(stage, dest) as u64;
                        assert_eq!(got, expect, "k={k} n={n} s={stage} w={wire} d={dest}");
                    }
                }
            }
        }
    }

    #[test]
    fn switch_grouping() {
        let t = OmegaTopology::new(4, 2);
        assert_eq!(t.switches_per_stage(), 4);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn k1_rejected() {
        OmegaTopology::new(1, 3);
    }

    #[test]
    #[should_panic(expected = "unreasonably large")]
    fn oversize_rejected() {
        OmegaTopology::new(2, 25);
    }
}
