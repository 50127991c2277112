//! Order statistics over latency samples, and the summary of a timed
//! phase.

/// The `p`-th percentile (`0.0..=100.0`) of `sorted` (ascending), by
/// linear interpolation between the two closest ranks: rank
/// `p/100 * (n-1)`, as NumPy's default method. `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Median of unsorted values (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Latency samples in milliseconds.
#[derive(Default, Clone, Debug)]
pub struct Latencies(Vec<f64>);

impl Latencies {
    pub fn push(&mut self, took: std::time::Duration) {
        self.0.push(took.as_secs_f64() * 1e3);
    }

    pub fn extend(&mut self, other: Latencies) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// (p50, p99) in milliseconds over all samples; `None` without
    /// samples.
    pub fn p50_p99(&self) -> Option<(f64, f64)> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        Some((percentile(&v, 50.0)?, percentile(&v, 99.0)?))
    }
}

/// What a timed phase completed.
#[derive(Default)]
pub struct Phase {
    pub ops: u64,
    pub failed: u64,
    /// Writes come at a fixed pace rather than from the closed loop, so
    /// they do not count toward throughput.
    pub paced_writes: bool,
    /// Wall seconds.
    pub elapsed: f64,
    /// Process CPU seconds (user + system, all threads); measured for
    /// the slices of a traced run only.
    pub cpu_s: f64,
    pub reads: Latencies,
    pub writes: Latencies,
}

impl Phase {
    /// Completed closed-loop ops per second over the whole phase.
    pub fn throughput(&self) -> f64 {
        let ops = if self.paced_writes {
            self.reads.len()
        } else {
            self.reads.len() + self.writes.len()
        };
        ops as f64 / self.elapsed
    }

    /// Adds `other`'s ops and samples, and its time.
    pub fn absorb(&mut self, other: Phase) {
        self.ops += other.ops;
        self.failed += other.failed;
        self.paced_writes |= other.paced_writes;
        self.elapsed += other.elapsed;
        self.cpu_s += other.cpu_s;
        self.reads.extend(other.reads);
        self.writes.extend(other.writes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn percentiles_on_known_vectors() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 50.0), Some(3.0));
        assert_eq!(percentile(&v, 100.0), Some(5.0));
        assert_eq!(percentile(&v, 25.0), Some(2.0));
        // Between ranks: 1..=4 has its median halfway between 2 and 3.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), Some(2.5));
        // 0..=100: the p-th percentile is p itself.
        let w: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&w, 99.0), Some(99.0));
        assert_eq!(percentile(&w, 37.5), Some(37.5));
        // p99 of 1..=1000 sits 0.99 * 999 = 989.01 ranks in.
        let x: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&x, 99.0).unwrap();
        assert!((p99 - 990.01).abs() < 1e-9, "{p99}");
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_sorts_its_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn latencies_report_p50_and_p99_in_ms() {
        let mut l = Latencies::default();
        for ms in 1..=101u64 {
            l.push(Duration::from_millis(ms));
        }
        let (p50, p99) = l.p50_p99().unwrap();
        assert!((p50 - 51.0).abs() < 1e-9 && (p99 - 100.0).abs() < 1e-9);
        assert!(Latencies::default().p50_p99().is_none());
    }

    #[test]
    fn whole_phase_figures_count_every_sample() {
        // Three seconds; the middle one is a stall: few ops, all slow.
        // Whole-phase figures count it, so a periodic stall shows.
        let mut phase = Phase {
            elapsed: 3.0,
            ..Phase::default()
        };
        for (n, latency) in [(10, 2), (2, 400), (12, 4)] {
            for _ in 0..n {
                phase.reads.push(Duration::from_millis(latency));
            }
        }
        phase.writes.push(Duration::from_millis(1));
        assert_eq!(phase.throughput(), 25.0 / 3.0);
        // 24 reads: 10 of 2 ms, 12 of 4 ms and the stall's 2 of 400 ms.
        assert_eq!(phase.reads.p50_p99(), Some((4.0, 400.0)));
        // Paced writes do not count toward throughput.
        phase.paced_writes = true;
        assert_eq!(phase.throughput(), 8.0);
    }
}
