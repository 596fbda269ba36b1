//! Performance metrics (Section 5.4) and multi-run aggregation.

use std::fmt;

/// The metrics of a single simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationResult {
    /// Transactions that completed (pseudo-committed or committed).
    pub completed: u64,
    /// Completions whose very first commit was already an actual commit.
    pub full_commit_completions: u64,
    /// Completions that were pseudo-commits at completion time.
    pub pseudo_commit_completions: u64,
    /// Simulated seconds elapsed.
    pub sim_time: f64,
    /// Completed transactions per simulated second.
    pub throughput: f64,
    /// Mean seconds from submission to completion (includes ready-queue
    /// time and restarts).
    pub response_time: f64,
    /// Blocking events per completed transaction.
    pub blocking_ratio: f64,
    /// Restarts per completed transaction.
    pub restart_ratio: f64,
    /// Cycle-detection invocations per completed transaction. A blocked
    /// request that a retry re-queues under fair scheduling takes none.
    pub cycle_check_ratio: f64,
    /// Mean number of operations executed by a transaction at the time it
    /// was aborted (zero when there were no aborts).
    pub abort_length: f64,
    /// Raw count of blocking events.
    pub blocks: u64,
    /// Raw count of restarts (= aborts, every aborted transaction restarts).
    pub restarts: u64,
    /// Raw count of cycle-detection invocations.
    pub cycle_checks: u64,
    /// Raw count of commit-dependency edges created.
    pub commit_dependencies: u64,
}

impl SimulationResult {
    /// Render the headline numbers on one line.
    pub fn summary(&self) -> String {
        format!(
            "throughput={:.2} tps, response={:.3} s, BR={:.3}, RR={:.3}, CCR={:.3}, AL={:.2}",
            self.throughput,
            self.response_time,
            self.blocking_ratio,
            self.restart_ratio,
            self.cycle_check_ratio,
            self.abort_length
        )
    }
}

impl fmt::Display for SimulationResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

/// Mean / spread of one metric over several runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregatedMetric {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (zero for a single run).
    pub std_dev: f64,
    /// Half-width of the 90% confidence interval (normal approximation).
    pub ci90_half_width: f64,
    /// Number of samples.
    pub samples: usize,
}

impl AggregatedMetric {
    /// Aggregate a slice of samples.
    pub fn from_samples(samples: &[f64]) -> Self {
        let n = samples.len();
        assert!(n > 0, "at least one sample is required");
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0)
        } else {
            0.0
        };
        let std_dev = var.sqrt();
        // 90% two-sided normal quantile.
        let z = 1.6449;
        let ci90_half_width = if n > 1 {
            z * std_dev / (n as f64).sqrt()
        } else {
            0.0
        };
        AggregatedMetric {
            mean,
            std_dev,
            ci90_half_width,
            samples: n,
        }
    }
}

impl fmt::Display for AggregatedMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ±{:.3}", self.mean, self.ci90_half_width)
    }
}

/// Aggregated metrics over several runs of the same configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregatedResult {
    /// Throughput (transactions per second).
    pub throughput: AggregatedMetric,
    /// Response time (seconds).
    pub response_time: AggregatedMetric,
    /// Blocking ratio.
    pub blocking_ratio: AggregatedMetric,
    /// Restart ratio.
    pub restart_ratio: AggregatedMetric,
    /// Cycle check ratio.
    pub cycle_check_ratio: AggregatedMetric,
    /// Abort length.
    pub abort_length: AggregatedMetric,
    /// Number of runs aggregated.
    pub runs: usize,
}

impl AggregatedResult {
    /// Aggregate several runs.
    pub fn from_runs(runs: &[SimulationResult]) -> Self {
        assert!(!runs.is_empty(), "at least one run is required");
        let collect = |f: fn(&SimulationResult) -> f64| {
            AggregatedMetric::from_samples(&runs.iter().map(f).collect::<Vec<_>>())
        };
        AggregatedResult {
            throughput: collect(|r| r.throughput),
            response_time: collect(|r| r.response_time),
            blocking_ratio: collect(|r| r.blocking_ratio),
            restart_ratio: collect(|r| r.restart_ratio),
            cycle_check_ratio: collect(|r| r.cycle_check_ratio),
            abort_length: collect(|r| r.abort_length),
            runs: runs.len(),
        }
    }
}

impl fmt::Display for AggregatedResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "throughput={} tps, response={} s, BR={}, RR={}, CCR={}, AL={} ({} runs)",
            self.throughput,
            self.response_time,
            self.blocking_ratio,
            self.restart_ratio,
            self.cycle_check_ratio,
            self.abort_length,
            self.runs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(throughput: f64) -> SimulationResult {
        SimulationResult {
            completed: 100,
            full_commit_completions: 80,
            pseudo_commit_completions: 20,
            sim_time: 10.0,
            throughput,
            response_time: 1.0,
            blocking_ratio: 0.5,
            restart_ratio: 0.1,
            cycle_check_ratio: 0.6,
            abort_length: 3.0,
            blocks: 50,
            restarts: 10,
            cycle_checks: 60,
            commit_dependencies: 40,
        }
    }

    #[test]
    fn aggregated_metric_mean_and_ci() {
        let m = AggregatedMetric::from_samples(&[10.0, 12.0, 14.0]);
        assert!((m.mean - 12.0).abs() < 1e-9);
        assert!((m.std_dev - 2.0).abs() < 1e-9);
        assert!(m.ci90_half_width > 0.0);
        assert_eq!(m.samples, 3);
        assert!(m.to_string().contains('±'));

        let single = AggregatedMetric::from_samples(&[5.0]);
        assert_eq!(single.std_dev, 0.0);
        assert_eq!(single.ci90_half_width, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn aggregated_metric_rejects_empty_input() {
        AggregatedMetric::from_samples(&[]);
    }

    #[test]
    fn aggregated_result_collects_all_metrics() {
        let runs = vec![result(50.0), result(60.0), result(70.0)];
        let agg = AggregatedResult::from_runs(&runs);
        assert_eq!(agg.runs, 3);
        assert!((agg.throughput.mean - 60.0).abs() < 1e-9);
        assert!((agg.response_time.mean - 1.0).abs() < 1e-9);
        assert!(agg.to_string().contains("runs"));
        assert!(runs[0].summary().contains("throughput"));
        assert!(runs[0].to_string().contains("BR="));
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn aggregated_result_rejects_empty_input() {
        AggregatedResult::from_runs(&[]);
    }
}
