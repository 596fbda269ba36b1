//! The measured window: when it starts and ends, how generator threads
//! record into it, and how the recordings become the reported numbers.
//!
//! A window is cut into equal slices. Throughput and latency percentiles
//! are computed per slice and the **median slice** is reported: on a shared
//! two-core sandbox a neighbour's burst spoils a second or two of a run, and
//! the median over slices ignores it where the window mean would not.

use crate::rng::SplitMix;
use crate::stats;
use std::time::{Duration, Instant};

/// Latency samples kept per slice and generator thread. Fixed, and touched
/// up front, so the harness's memory does not grow with the speed of the
/// program it measures (which would couple `peak_rss_mb` to `txn_per_s`).
const SAMPLES_PER_SLICE: usize = 32 * 1024;

/// One window's timing, fixed before the generator threads start so nobody
/// coordinates while measuring: each thread reads the clock it already
/// reads per transaction.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub window_start: Instant,
    pub window: Duration,
    pub slices: usize,
    /// Each generator thread reads the process's peak resident memory when
    /// it has committed this many transactions (warm-up included).
    pub rss_after_txns: u64,
}

impl Plan {
    pub fn starting_in(
        warmup: Duration,
        window: Duration,
        slices: usize,
        rss_after_txns: u64,
    ) -> Plan {
        Plan {
            window_start: Instant::now() + warmup,
            window,
            slices,
            rss_after_txns,
        }
    }

    pub fn window_end(&self) -> Instant {
        self.window_start + self.window
    }

    pub fn finished(&self, now: Instant) -> bool {
        now >= self.window_end()
    }

    /// The slice `at` falls in, or `None` outside the window (warm-up, or a
    /// transaction that ended after the window closed).
    fn slice_of(&self, at: Instant) -> Option<usize> {
        let since = at.checked_duration_since(self.window_start)?;
        (since < self.window).then(|| {
            let idx = since.as_nanos() * self.slices as u128 / self.window.as_nanos();
            (idx as usize).min(self.slices - 1)
        })
    }
}

/// What one generator thread records for one class of transactions.
#[derive(Debug)]
pub struct Sampler {
    plan: Plan,
    committed: Vec<u64>,
    kept: Vec<Vec<u64>>,
    rng: SplitMix,
    /// Transactions recorded so far, warm-up included.
    seen: u64,
    /// `VmHWM` in MB at the plan's transaction count, once reached.
    pub rss_mb: Option<f64>,
    /// Attempts begun / ended by a scheduler abort, shed or error, inside
    /// the window.
    pub attempts: u64,
    pub failed_attempts: u64,
}

impl Sampler {
    pub fn new(plan: Plan, lane: u64) -> Sampler {
        let kept = (0..plan.slices)
            .map(|_| {
                // Touch every page now: resident before the window opens.
                let mut v = vec![1u64; SAMPLES_PER_SLICE];
                v.clear();
                v
            })
            .collect();
        Sampler {
            plan,
            committed: vec![0; plan.slices],
            kept,
            rng: SplitMix::stream(0x5A3D, lane),
            seen: 0,
            rss_mb: None,
            attempts: 0,
            failed_attempts: 0,
        }
    }

    /// Transactions committed inside the window.
    pub fn committed(&self) -> u64 {
        self.committed.iter().sum()
    }

    /// Record one committed transaction: begun at `begin` (its first
    /// attempt), acknowledged at `end`, after `attempts` attempts. Counted
    /// in the slice its acknowledgement falls in.
    pub fn record(&mut self, begin: Instant, end: Instant, attempts: u64) {
        self.seen += 1;
        if self.seen == self.plan.rss_after_txns {
            self.rss_mb = Some(crate::sys::peak_rss_mb());
        }
        let Some(slice) = self.plan.slice_of(end) else {
            return;
        };
        self.attempts += attempts;
        self.failed_attempts += attempts - 1;
        self.committed[slice] += 1;
        let latency = end.duration_since(begin).as_nanos() as u64;
        let seen = self.committed[slice];
        let kept = &mut self.kept[slice];
        if kept.len() < SAMPLES_PER_SLICE {
            kept.push(latency);
        } else {
            // Reservoir (algorithm R): every transaction of the slice ends
            // up kept with equal probability.
            let j = self.rng.below(seen) as usize;
            if j < SAMPLES_PER_SLICE {
                kept[j] = latency;
            }
        }
    }
}

/// One transaction class of one window, summed over generator threads.
#[derive(Debug, Clone)]
pub struct ClassSummary {
    pub committed: u64,
    pub attempts: u64,
    pub failed_attempts: u64,
    /// Committed transactions per second, per slice.
    pub rate_slices: Vec<f64>,
    pub rate: f64,
    pub p50_us: f64,
    /// The percentile actually reported under `txn_p99_us` (99 unless the
    /// sample is too small for it) and its value.
    pub tail_percentile: f64,
    pub tail_us: f64,
    /// Latency samples behind the percentiles: all kept, and the smallest
    /// slice's.
    pub samples: usize,
    pub min_slice_samples: usize,
    pub tail_pooled: bool,
}

/// Merge the samplers of one class and reduce them to the reported values.
pub fn summarise(samplers: &[Sampler]) -> ClassSummary {
    let plan = samplers[0].plan;
    let slice_secs = plan.window.as_secs_f64() / plan.slices as f64;
    let mut rate_slices = Vec::with_capacity(plan.slices);
    let mut slices: Vec<Vec<u64>> = Vec::with_capacity(plan.slices);
    for s in 0..plan.slices {
        let committed: u64 = samplers.iter().map(|t| t.committed[s]).sum();
        rate_slices.push(committed as f64 / slice_secs);
        let mut merged: Vec<u64> = samplers
            .iter()
            .flat_map(|t| t.kept[s].iter().copied())
            .collect();
        merged.sort_unstable();
        slices.push(merged);
    }
    let samples: usize = slices.iter().map(Vec::len).sum();
    let min_slice_samples = slices.iter().map(Vec::len).min().unwrap_or(0);
    let us = |ns: u64| ns as f64 / 1000.0;
    let over_slices = |p: f64| {
        let per: Vec<f64> = slices
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| us(stats::percentile_sorted(s, p)))
            .collect();
        stats::median(&per)
    };
    let p50_us = over_slices(50.0);
    // The tail: per slice when every slice supports p99, else over the
    // pooled window, else the highest percentile the pooled sample supports.
    let (tail_percentile, tail_us, tail_pooled) =
        if stats::supported_percentile(min_slice_samples, 99.0) == Some(99.0) {
            (99.0, over_slices(99.0), false)
        } else {
            let mut pooled: Vec<u64> = slices.iter().flatten().copied().collect();
            pooled.sort_unstable();
            match stats::supported_percentile(pooled.len(), 99.0) {
                Some(p) => (p, us(stats::percentile_sorted(&pooled, p)), true),
                None => (50.0, p50_us, true),
            }
        };
    ClassSummary {
        committed: samplers
            .iter()
            .map(|t| t.committed.iter().sum::<u64>())
            .sum(),
        attempts: samplers.iter().map(|t| t.attempts).sum(),
        failed_attempts: samplers.iter().map(|t| t.failed_attempts).sum(),
        rate: stats::median(&rate_slices),
        rate_slices,
        p50_us,
        tail_percentile,
        tail_us,
        samples,
        min_slice_samples,
        tail_pooled,
    }
}

/// Sleep until `deadline` (no-op when it has passed).
pub fn sleep_until(deadline: Instant) {
    std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_land_in_their_slice_and_outside_is_dropped() {
        let plan = Plan {
            window_start: Instant::now() + Duration::from_secs(10),
            window: Duration::from_secs(4),
            slices: 4,
            rss_after_txns: 2,
        };
        let mut s = Sampler::new(plan, 0);
        let at = |ms: u64| plan.window_start + Duration::from_millis(ms);
        s.record(at(0), at(500), 1);
        s.record(at(400), at(999), 3);
        s.record(at(3000), at(3999), 1);
        s.record(at(3500), at(4000), 1); // ended at the closing instant: out
        s.record(
            plan.window_start - Duration::from_millis(5),
            plan.window_start - Duration::from_millis(1),
            1,
        );
        assert_eq!(s.committed, vec![2, 0, 0, 1]);
        assert!(
            s.rss_mb.is_some_and(|mb| mb > 0.0),
            "read at the second transaction"
        );
        assert_eq!((s.attempts, s.failed_attempts), (5, 2));
        let sum = summarise(&[s]);
        assert_eq!(sum.committed, 3);
        assert_eq!(sum.rate_slices, vec![2.0, 0.0, 0.0, 1.0]);
        assert_eq!(sum.samples, 3);
        assert!(sum.tail_pooled && sum.tail_percentile == 50.0);
    }

    #[test]
    fn reservoir_keeps_the_cap_and_stays_representative() {
        let plan = Plan {
            window_start: Instant::now(),
            window: Duration::from_secs(1000),
            slices: 1,
            rss_after_txns: 0,
        };
        let mut s = Sampler::new(plan, 7);
        let t0 = plan.window_start;
        let n = SAMPLES_PER_SLICE as u64 * 4;
        for i in 0..n {
            // Latencies 0..n ns in order: an unbiased sample's median is n/2.
            s.record(t0, t0 + Duration::from_nanos(i), 1);
        }
        assert_eq!(s.kept[0].len(), SAMPLES_PER_SLICE);
        let sum = summarise(&[s]);
        assert_eq!(sum.committed, n);
        let mid = n as f64 / 2.0 / 1000.0;
        assert!(
            (sum.p50_us - mid).abs() < mid * 0.05,
            "p50 {} vs {}",
            sum.p50_us,
            mid
        );
        assert!(!sum.tail_pooled && sum.tail_percentile == 99.0);
    }
}
