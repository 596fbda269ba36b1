//! Multi-run aggregation.
//!
//! The paper reports each data point as the average of 10 independent runs;
//! [`run_averaged`] reproduces that.

use crate::config::SimParams;
use crate::metrics::{AggregatedResult, SimulationResult};
use crate::simulator::Simulator;

/// Run the same configuration `runs` times with consecutive seeds and
/// aggregate the metrics.
pub fn run_averaged(params: &SimParams, runs: usize) -> AggregatedResult {
    assert!(runs > 0, "at least one run is required");
    let results: Vec<SimulationResult> = (0..runs)
        .map(|i| {
            let p = params.clone().with_seed(params.seed.wrapping_add(i as u64));
            Simulator::new(p).run()
        })
        .collect();
    AggregatedResult::from_runs(&results)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> SimParams {
        SimParams {
            db_size: 50,
            num_terminals: 20,
            mpl_level: 10,
            target_completions: 150,
            seed: 5,
            ..SimParams::default()
        }
    }

    #[test]
    fn run_averaged_aggregates_multiple_seeds() {
        let agg = run_averaged(&tiny_params(), 3);
        assert_eq!(agg.runs, 3);
        assert!(agg.throughput.mean > 0.0);
        assert!(agg.response_time.mean > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn run_averaged_rejects_zero_runs() {
        run_averaged(&tiny_params(), 0);
    }
}
