//! A small seeded generator (SplitMix64). The benchmark derives every
//! input — table contents, query literals, op streams — from the
//! `--seed` argument through it, so the same seed gives the same inputs.

#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, stream)`, so adding a consumer
    /// of randomness never shifts the values another consumer sees.
    pub fn derive(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift maps 64 random bits onto 0..n without a modulo.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `0..n` as an `i64` (`n > 0`).
    pub fn below_i64(&mut self, n: i64) -> i64 {
        self.below(n as u64) as i64
    }

    /// `true` with probability `percent / 100`.
    pub fn percent(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    /// Shuffles `v` in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }

    /// `k` distinct values from `0..n`, in the order drawn.
    pub fn distinct(&mut self, k: usize, n: i64) -> Vec<i64> {
        assert!(k as i64 <= n, "cannot draw {k} distinct values from 0..{n}");
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let v = self.below_i64(n);
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }
}
