//! The benchmark's own random numbers: splitmix64 and a zipf table.
//!
//! Every input the program under test receives is drawn from here, keyed by
//! `--seed`, so a seed names one exact call stream on every machine.

/// splitmix64 (Steele, Lea, Flood 2014): one multiply-xorshift chain per
/// draw, full 2^64 period, and any seed — including 0 — is a good seed.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// A generator for one named sub-stream of `seed`, so that threads and
    /// sessions never share a sequence.
    pub fn stream(seed: u64, lane: u64) -> Self {
        let mut mix = SplitMix(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        mix.next_u64();
        mix
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for
    /// every `n` the benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf over `0..n` with exponent `theta`, by inverse CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|c| *c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_and_lanes_differ() {
        let a: Vec<u64> = {
            let mut r = SplitMix::stream(11, 3);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix::stream(11, 3);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SplitMix::stream(11, 4);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(256, 0.99);
        let mut r = SplitMix::new(1);
        let mut hits = [0u32; 256];
        for _ in 0..20_000 {
            hits[z.sample(&mut r)] += 1;
        }
        assert!(hits[0] > hits[10] && hits[10] > hits[200]);
        assert!(hits[0] > 2_000, "rank 1 draws ~16% at theta 0.99");
    }
}
